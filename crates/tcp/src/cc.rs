//! Congestion control, as a pluggable module over the connection's control
//! block (the mlwip `tcp_congestion.h` seam).
//!
//! NewReno (RFC 5681 / 6582) is the algorithm in the paper's Linux 2.6.34
//! testbed era and is what uTCP explicitly does **not** change: "uTCP does not
//! change TCP's reliability or congestion control" (§8.4). CUBIC (RFC 8312)
//! rides the same seam as a scenario axis — window dynamics the paper's
//! figures never swept — and a disabled variant serves the §4.3
//! design-alternative ablation.
//!
//! Everything here is deterministic: CUBIC's cubic-root and window formulas
//! use integer arithmetic over virtual [`SimTime`], never floats or wall
//! clocks, so a connection's window trajectory is byte-identical at any
//! thread count.

use crate::config::CcAlgorithm;
use minion_simnet::{SimDuration, SimTime};

/// Counters exposed for experiment analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Number of fast-retransmit recovery episodes entered.
    pub fast_recoveries: u64,
    /// Number of retransmission timeouts.
    pub timeouts: u64,
}

/// A congestion-control algorithm plugged into [`crate::TcpConnection`].
///
/// The connection owns loss *detection* (duplicate-ACK counting, the RFC 6582
/// recover point, the RTO timer — see `recovery.rs` / `reliability.rs`); the
/// algorithm owns the *window response*. All windows are in bytes. `now` is
/// virtual time from the caller's clock; implementations must not consult any
/// other time source.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Which algorithm this is (labels, reports).
    fn algorithm(&self) -> CcAlgorithm;

    /// Current congestion window in bytes. With congestion control disabled
    /// this is effectively unlimited.
    fn cwnd(&self) -> usize;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> usize;

    /// True while in fast recovery.
    fn in_recovery(&self) -> bool;

    /// Whether the sender is in slow start.
    fn in_slow_start(&self) -> bool;

    /// Counters.
    fn stats(&self) -> &CcStats;

    /// Process an ACK of `bytes_acked` new bytes (cumulative progress).
    /// `srtt` is the connection's smoothed RTT estimate, if one exists
    /// (CUBIC's Reno-friendly region needs it; NewReno ignores it).
    fn on_ack(&mut self, bytes_acked: usize, now: SimTime, srtt: Option<SimDuration>);

    /// A duplicate ACK arrived while in fast recovery: inflate the window to
    /// reflect the segment that has left the network.
    fn on_dup_ack_in_recovery(&mut self);

    /// Enter fast recovery after three duplicate ACKs, given the current
    /// flight size in bytes.
    fn on_enter_recovery(&mut self, flight_size: usize, now: SimTime);

    /// A partial ACK arrived during recovery (NewReno): deflate by the amount
    /// acked, then add back one MSS (RFC 6582 §3.2 step 5).
    fn on_partial_ack(&mut self, bytes_acked: usize);

    /// Exit fast recovery (a full ACK arrived). `flight_size` is the data
    /// still outstanding *now*: RFC 6582 §3.2 step 3 deflates to
    /// `min(ssthresh, max(flight, MSS) + MSS)` so the first post-recovery
    /// poll cannot burst a full ssthresh of back-to-back segments.
    fn on_exit_recovery(&mut self, flight_size: usize);

    /// A retransmission timeout fired.
    fn on_rto(&mut self, flight_size: usize, now: SimTime);

    /// Clone into a fresh box (connections are `Clone`).
    fn clone_box(&self) -> Box<dyn CongestionControl>;
}

impl Clone for Box<dyn CongestionControl> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Initial congestion window in segments (RFC 6928 uses 10; Linux 2.6.34,
/// the paper's kernel, used 3).
const INITIAL_CWND_SEGMENTS: usize = 3;

/// Build the controller for `algorithm` with the given MSS.
pub fn build(algorithm: CcAlgorithm, mss: usize) -> Box<dyn CongestionControl> {
    match algorithm {
        CcAlgorithm::NewReno => Box::new(NewReno::new(mss)),
        CcAlgorithm::Cubic => Box::new(Cubic::new(mss)),
        CcAlgorithm::None => Box::new(NoCc::new()),
    }
}

/// RFC 6582 §3.2 step 3, conservative variant: the post-recovery window.
fn conservative_exit_window(ssthresh: usize, flight_size: usize, mss: usize) -> usize {
    ssthresh.min(flight_size.max(mss) + mss).max(mss)
}

// ---------------------------------------------------------------------------
// NewReno
// ---------------------------------------------------------------------------

/// NewReno (RFC 5681 / RFC 6582): slow start, linear congestion avoidance,
/// multiplicative decrease with window inflation during fast recovery.
#[derive(Clone, Debug)]
pub struct NewReno {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Bytes acked since the last cwnd increase while in congestion avoidance.
    bytes_acked_ca: usize,
    in_recovery: bool,
    stats: CcStats,
}

impl NewReno {
    /// A NewReno controller with the given MSS.
    pub fn new(mss: usize) -> Self {
        NewReno {
            mss,
            cwnd: mss * INITIAL_CWND_SEGMENTS,
            ssthresh: usize::MAX / 2,
            bytes_acked_ca: 0,
            in_recovery: false,
            stats: CcStats::default(),
        }
    }
}

impl CongestionControl for NewReno {
    fn algorithm(&self) -> CcAlgorithm {
        CcAlgorithm::NewReno
    }

    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn stats(&self) -> &CcStats {
        &self.stats
    }

    fn on_ack(&mut self, bytes_acked: usize, _now: SimTime, _srtt: Option<SimDuration>) {
        if bytes_acked == 0 || self.in_recovery {
            // Window adjustments during recovery happen via deflation on exit
            // and inflation on duplicate ACKs.
            return;
        }
        if self.in_slow_start() {
            // cwnd grows by min(bytes_acked, MSS) per ACK (RFC 5681 §3.1).
            self.cwnd += bytes_acked.min(self.mss);
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh.max(self.mss);
            }
        } else {
            // Congestion avoidance: one MSS per cwnd's worth of acked bytes.
            self.bytes_acked_ca += bytes_acked;
            if self.bytes_acked_ca >= self.cwnd {
                self.bytes_acked_ca -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
    }

    fn on_dup_ack_in_recovery(&mut self) {
        if self.in_recovery {
            self.cwnd += self.mss;
        }
    }

    fn on_enter_recovery(&mut self, flight_size: usize, _now: SimTime) {
        self.stats.fast_recoveries += 1;
        self.ssthresh = (flight_size / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.in_recovery = true;
        self.bytes_acked_ca = 0;
    }

    fn on_partial_ack(&mut self, bytes_acked: usize) {
        if !self.in_recovery {
            return;
        }
        self.cwnd = self.cwnd.saturating_sub(bytes_acked).max(self.mss);
        self.cwnd += self.mss;
    }

    fn on_exit_recovery(&mut self, flight_size: usize) {
        if self.in_recovery {
            self.in_recovery = false;
            self.cwnd = conservative_exit_window(self.ssthresh, flight_size, self.mss);
            self.bytes_acked_ca = 0;
        }
    }

    fn on_rto(&mut self, flight_size: usize, _now: SimTime) {
        self.stats.timeouts += 1;
        self.ssthresh = (flight_size / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.in_recovery = false;
        self.bytes_acked_ca = 0;
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// CUBIC
// ---------------------------------------------------------------------------

/// CUBIC constants as exact rationals: β = 7/10, C = 2/5 (RFC 8312 §5).
const BETA_NUM: usize = 7;
const BETA_DEN: usize = 10;

/// Integer cube root: the largest `r` with `r³ ≤ x`. Binary search over
/// `u128`, so it is exact, branch-deterministic, and float-free.
fn icbrt(x: u128) -> u64 {
    let (mut lo, mut hi) = (0u128, 1u128 << 43); // (2⁴³)³ overflows ⇒ always > x
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid.checked_pow(3).is_some_and(|c| c <= x) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo as u64
}

/// CUBIC (RFC 8312) in deterministic integer arithmetic.
///
/// Window growth in congestion avoidance follows
/// `W_cubic(t) = C·(t − K)³ + W_max` with `C = 0.4`, `t` measured from the
/// epoch start (the first congestion-avoidance ACK after a congestion
/// event) on the virtual clock, and `K = ∛(W_max·(1 − cwnd/W_max)/C)`
/// generalized Linux-style to the actual epoch-start window. The
/// TCP-friendly region (`W_est`, RFC 8312 §4.2) floors growth at what Reno
/// would achieve. All terms are integers: times in virtual milliseconds,
/// windows in bytes, the cube root via `icbrt`.
#[derive(Clone, Debug)]
pub struct Cubic {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    in_recovery: bool,
    stats: CcStats,
    /// Window (bytes) just before the last congestion event.
    w_max: usize,
    /// Start of the current growth epoch; `None` forces re-initialization on
    /// the next congestion-avoidance ACK.
    epoch_start: Option<SimTime>,
    /// K in virtual milliseconds: time from epoch start to the plateau.
    k_ms: u64,
    /// The plateau window (bytes) the cubic curve is anchored at.
    origin: usize,
}

impl Cubic {
    /// A CUBIC controller with the given MSS.
    pub fn new(mss: usize) -> Self {
        Cubic {
            mss,
            cwnd: mss * INITIAL_CWND_SEGMENTS,
            ssthresh: usize::MAX / 2,
            in_recovery: false,
            stats: CcStats::default(),
            w_max: 0,
            epoch_start: None,
            k_ms: 0,
            origin: 0,
        }
    }

    /// Reset the growth epoch (after any congestion event or window cut).
    fn reset_epoch(&mut self) {
        self.epoch_start = None;
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            // K = ∛((W_max − cwnd)/(C·mss)) seconds, in ms:
            // ∛(x) s = ∛(x · 10⁹) ms; C = 2/5 ⇒ divide by C = ×(5/2).
            let deficit = (self.w_max - self.cwnd) as u128;
            self.k_ms = icbrt(deficit * 5 * 1_000_000_000 / (2 * self.mss as u128));
            self.origin = self.w_max;
        } else {
            // Above the old plateau already: anchor the convex region here.
            self.k_ms = 0;
            self.origin = self.cwnd;
        }
    }

    /// `W_cubic(t)` in bytes at `t_ms` milliseconds after the epoch start.
    fn w_cubic(&self, t_ms: u64) -> usize {
        // C·(t − K)³·mss with t in ms: (Δms)³/10⁹ = (Δs)³, C = 2/5.
        let delta = t_ms as i128 - self.k_ms as i128;
        let cube = delta * delta * delta; // |Δ| < 2⁴³ ⇒ cube < 2¹²⁹ᐟ... fits i128 for any sane sim time
        let grown = 2 * self.mss as i128 * cube / 5_000_000_000;
        let w = self.origin as i128 + grown;
        w.clamp(self.mss as i128, usize::MAX as i128 / 4) as usize
    }

    /// The TCP-friendly floor `W_est(t)` in bytes (RFC 8312 §4.2):
    /// `W_max·β + 3·(1−β)/(1+β) · t/RTT` segments; with β = 7/10 the slope
    /// is 9/17 segments per RTT.
    fn w_est(&self, t_ms: u64, srtt: Option<SimDuration>) -> usize {
        let base = self.w_max * BETA_NUM / BETA_DEN;
        let Some(srtt) = srtt else { return base };
        let rtt_ms = (srtt.as_micros() / 1000).max(1);
        let grown = (self.mss as u128 * t_ms as u128 * 9) / (17 * rtt_ms as u128);
        base + grown.min(usize::MAX as u128 / 4) as usize
    }
}

impl CongestionControl for Cubic {
    fn algorithm(&self) -> CcAlgorithm {
        CcAlgorithm::Cubic
    }

    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn stats(&self) -> &CcStats {
        &self.stats
    }

    fn on_ack(&mut self, bytes_acked: usize, now: SimTime, srtt: Option<SimDuration>) {
        if bytes_acked == 0 || self.in_recovery {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += bytes_acked.min(self.mss);
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh.max(self.mss);
            }
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(now);
        }
        let start = self.epoch_start.expect("epoch just initialized");
        let t_ms = now.saturating_since(start).as_micros() / 1000;
        // RFC 8312 §4.1: aim where the curve will be one RTT from now.
        let rtt_ms = srtt.map_or(0, |s| s.as_micros() / 1000);
        let target = self
            .w_cubic(t_ms + rtt_ms)
            .max(self.w_est(t_ms, srtt))
            // Linux caps each step at 1.5× the current window so a long idle
            // epoch cannot manifest as one giant burst.
            .min(self.cwnd + self.cwnd / 2);
        if target > self.cwnd {
            // Spread the climb over the ACKs of one window's worth of data.
            let step = (target - self.cwnd) * bytes_acked.min(self.mss) / self.cwnd;
            self.cwnd += step.max(1).min(self.mss);
        }
    }

    fn on_dup_ack_in_recovery(&mut self) {
        if self.in_recovery {
            self.cwnd += self.mss;
        }
    }

    fn on_enter_recovery(&mut self, flight_size: usize, _now: SimTime) {
        self.stats.fast_recoveries += 1;
        // Fast convergence (RFC 8312 §4.6): if the window never regained the
        // previous plateau, remember an even lower one to release bandwidth.
        self.w_max = if self.cwnd < self.w_max {
            self.cwnd * (BETA_DEN + BETA_NUM) / (2 * BETA_DEN)
        } else {
            self.cwnd
        };
        // Multiplicative decrease by β = 0.7 (on flight, as the NewReno
        // module cuts on flight) with the RFC 5681 two-segment floor.
        self.ssthresh = (flight_size * BETA_NUM / BETA_DEN).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.in_recovery = true;
        self.reset_epoch();
    }

    fn on_partial_ack(&mut self, bytes_acked: usize) {
        if !self.in_recovery {
            return;
        }
        self.cwnd = self.cwnd.saturating_sub(bytes_acked).max(self.mss);
        self.cwnd += self.mss;
    }

    fn on_exit_recovery(&mut self, flight_size: usize) {
        if self.in_recovery {
            self.in_recovery = false;
            self.cwnd = conservative_exit_window(self.ssthresh, flight_size, self.mss);
            self.reset_epoch();
        }
    }

    fn on_rto(&mut self, flight_size: usize, _now: SimTime) {
        self.stats.timeouts += 1;
        self.w_max = self.cwnd.max(self.mss);
        self.ssthresh = (flight_size * BETA_NUM / BETA_DEN).max(2 * self.mss);
        self.cwnd = self.mss;
        self.in_recovery = false;
        self.reset_epoch();
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Disabled (§4.3 ablation)
// ---------------------------------------------------------------------------

/// Congestion control disabled: the window is limited only by the peer's
/// receive window. Loss events still count (the connection's retransmission
/// machinery is unchanged), but nothing ever shrinks.
#[derive(Clone, Debug)]
struct NoCc {
    stats: CcStats,
}

impl NoCc {
    /// The disabled controller.
    pub(crate) fn new() -> Self {
        NoCc {
            stats: CcStats::default(),
        }
    }
}

impl CongestionControl for NoCc {
    fn algorithm(&self) -> CcAlgorithm {
        CcAlgorithm::None
    }

    fn cwnd(&self) -> usize {
        usize::MAX / 2
    }

    fn ssthresh(&self) -> usize {
        usize::MAX / 2
    }

    fn in_recovery(&self) -> bool {
        false
    }

    fn in_slow_start(&self) -> bool {
        false
    }

    fn stats(&self) -> &CcStats {
        &self.stats
    }

    fn on_ack(&mut self, _bytes_acked: usize, _now: SimTime, _srtt: Option<SimDuration>) {}

    fn on_dup_ack_in_recovery(&mut self) {}

    fn on_enter_recovery(&mut self, _flight_size: usize, _now: SimTime) {}

    fn on_partial_ack(&mut self, _bytes_acked: usize) {}

    fn on_exit_recovery(&mut self, _flight_size: usize) {}

    fn on_rto(&mut self, _flight_size: usize, _now: SimTime) {
        self.stats.timeouts += 1;
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1448;

    fn newreno() -> NewReno {
        NewReno::new(MSS)
    }

    fn cubic() -> Cubic {
        Cubic::new(MSS)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const RTT: Option<SimDuration> = Some(SimDuration::from_millis(100));

    #[test]
    fn initial_window_is_three_segments() {
        let cc = newreno();
        assert_eq!(cc.cwnd(), 3 * MSS);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = newreno();
        // Ack one full window of 3 segments: cwnd should grow to ~6 MSS.
        for _ in 0..3 {
            cc.on_ack(MSS, t(0), RTT);
        }
        assert_eq!(cc.cwnd(), 6 * MSS);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut cc = newreno();
        cc.on_enter_recovery(20 * MSS, t(0));
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        assert!(!cc.in_slow_start());
        let start = cc.cwnd();
        // Ack one full window's worth of bytes in MSS chunks: +1 MSS.
        let acks = start / MSS;
        for _ in 0..acks {
            cc.on_ack(MSS, t(0), RTT);
        }
        assert_eq!(cc.cwnd(), start + MSS);
    }

    #[test]
    fn fast_recovery_halves_window() {
        let mut cc = newreno();
        // Grow a bit first.
        for _ in 0..20 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let flight = 20 * MSS;
        cc.on_enter_recovery(flight, t(0));
        assert!(cc.in_recovery());
        assert_eq!(cc.ssthresh(), flight / 2);
        assert_eq!(cc.cwnd(), flight / 2 + 3 * MSS);
        cc.on_dup_ack_in_recovery();
        assert_eq!(cc.cwnd(), flight / 2 + 4 * MSS);
        // Exiting with the full ssthresh still outstanding deflates to
        // ssthresh exactly (the conservative variant changes nothing here).
        cc.on_exit_recovery(flight / 2);
        assert!(!cc.in_recovery());
        assert_eq!(cc.cwnd(), flight / 2);
        assert_eq!(cc.stats().fast_recoveries, 1);
    }

    #[test]
    fn recovery_exit_is_burst_limited_when_flight_is_small() {
        // RFC 6582 §3.2 step 3, conservative variant: with almost nothing
        // left in flight, the exit window is flight + 1 MSS — not the full
        // ssthresh, which would license an ssthresh-sized burst.
        let mut cc = newreno();
        for _ in 0..20 {
            cc.on_ack(MSS, t(0), RTT);
        }
        cc.on_enter_recovery(20 * MSS, t(0));
        assert_eq!(cc.ssthresh(), 10 * MSS);
        cc.on_exit_recovery(2 * MSS);
        assert_eq!(cc.cwnd(), 3 * MSS, "max(flight, MSS) + MSS, not ssthresh");
        // And the floor: zero flight still leaves a 2-MSS window.
        let mut cc = newreno();
        cc.on_enter_recovery(20 * MSS, t(0));
        cc.on_exit_recovery(0);
        assert_eq!(cc.cwnd(), 2 * MSS);
    }

    #[test]
    fn partial_ack_deflates_and_readds_mss() {
        let mut cc = newreno();
        cc.on_enter_recovery(10 * MSS, t(0));
        let before = cc.cwnd();
        cc.on_partial_ack(2 * MSS);
        assert_eq!(cc.cwnd(), before - 2 * MSS + MSS);
    }

    #[test]
    fn rto_collapses_to_one_segment() {
        let mut cc = newreno();
        for _ in 0..50 {
            cc.on_ack(MSS, t(0), RTT);
        }
        cc.on_rto(30 * MSS, t(0));
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 15 * MSS);
        assert_eq!(cc.stats().timeouts, 1);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = newreno();
        cc.on_rto(MSS, t(0));
        assert_eq!(cc.ssthresh(), 2 * MSS);
    }

    #[test]
    fn disabled_cc_is_unbounded_and_inert() {
        let mut cc = NoCc::new();
        let huge = cc.cwnd();
        assert!(huge > 1 << 30);
        cc.on_enter_recovery(10 * MSS, t(0));
        cc.on_rto(10 * MSS, t(0));
        cc.on_ack(MSS, t(0), RTT);
        assert_eq!(cc.cwnd(), huge);
        assert!(!cc.in_recovery());
        assert_eq!(cc.stats().timeouts, 1, "loss accounting still works");
    }

    #[test]
    fn factory_builds_the_requested_algorithm() {
        for algo in CcAlgorithm::ALL {
            let cc = build(algo, MSS);
            assert_eq!(cc.algorithm(), algo);
            let copy = cc.clone();
            assert_eq!(copy.algorithm(), algo);
        }
    }

    #[test]
    fn icbrt_is_exact_on_and_between_cubes() {
        for r in [0u64, 1, 2, 7, 100, 1_000, 123_456, 8_000_000] {
            let x = (r as u128).pow(3);
            assert_eq!(icbrt(x), r);
            if x > 0 {
                assert_eq!(icbrt(x - 1), r - 1);
                assert_eq!(icbrt(x + 1), r);
            }
        }
        // The true integer cube root of u128::MAX: r³ fits, (r+1)³ overflows.
        let r = icbrt(u128::MAX) as u128;
        assert!(r.checked_pow(3).is_some());
        assert!((r + 1).checked_pow(3).is_none());
    }

    // ---- CUBIC ----

    /// Drive one epoch's worth of ACK clocks at a fixed RTT, one window per
    /// RTT, and return the cwnd trajectory sampled at each RTT boundary.
    fn cubic_trajectory(cc: &mut Cubic, rtts: usize, rtt_ms: u64) -> Vec<usize> {
        let mut out = Vec::new();
        let mut now_ms = 1;
        for _ in 0..rtts {
            let acks = (cc.cwnd() / MSS).max(1);
            for _ in 0..acks {
                cc.on_ack(MSS, t(now_ms), Some(SimDuration::from_millis(rtt_ms)));
            }
            now_ms += rtt_ms;
            out.push(cc.cwnd());
        }
        out
    }

    #[test]
    fn cubic_concave_region_decelerates_toward_w_max() {
        // Cut from a large plateau, then grow back: the concave region's
        // per-RTT gains must shrink as cwnd approaches W_max (and stay
        // positive), reaching but not wildly overshooting the plateau.
        let mut cc = cubic();
        for _ in 0..200 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let w_max = cc.cwnd();
        cc.on_enter_recovery(w_max, t(0));
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        assert!(!cc.in_slow_start());
        let start = cc.cwnd();
        assert!(start < w_max);
        // K ≈ ∛(0.75·W_max/(C·mss)) ≈ 5.3 s here: give the trajectory 80
        // RTTs of 100 ms so it crosses the plateau with margin.
        let traj = cubic_trajectory(&mut cc, 80, 100);
        let below: Vec<usize> = traj.iter().copied().filter(|&w| w < w_max).collect();
        assert!(below.len() >= 4, "several RTTs spent below the plateau");
        let early_gain = below[1] - below[0];
        let late_gain = below[below.len() - 1] - below[below.len() - 2];
        assert!(
            late_gain < early_gain,
            "concave: growth decelerates approaching W_max ({early_gain} -> {late_gain})"
        );
        assert!(
            traj.last().copied().unwrap() >= w_max,
            "the plateau is eventually regained"
        );
    }

    #[test]
    fn cubic_convex_region_accelerates_past_w_max() {
        // Beyond W_max the curve turns convex: per-RTT gains must increase.
        let mut cc = cubic();
        for _ in 0..100 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let w_max = cc.cwnd();
        cc.on_enter_recovery(w_max, t(0));
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        let traj = cubic_trajectory(&mut cc, 120, 100);
        let above: Vec<usize> = traj.iter().copied().filter(|&w| w > w_max).collect();
        assert!(above.len() >= 6, "trajectory crosses the plateau: {traj:?}");
        let early_gain = above[1].saturating_sub(above[0]);
        let late_gain = above[above.len() - 1] - above[above.len() - 2];
        assert!(
            late_gain > early_gain,
            "convex: growth accelerates past W_max ({early_gain} -> {late_gain})"
        );
    }

    #[test]
    fn cubic_tcp_friendly_floor_wins_at_short_rtt() {
        // At LAN RTTs the cubic curve is glacial; W_est (the Reno-equivalent
        // line) must carry growth instead (RFC 8312 §4.2). One RTT of ACKs
        // at 1 ms must grow cwnd at least as fast as Reno's 9/17-segment
        // slope would over the same span.
        let mut cc = cubic();
        for _ in 0..200 {
            cc.on_ack(MSS, t(0), RTT);
        }
        cc.on_enter_recovery(cc.cwnd(), t(0));
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        let start = cc.cwnd();
        let traj = cubic_trajectory(&mut cc, 100, 1);
        // Pure cubic at 1 ms RTT over 100 ms: W_cubic(0.1 s) − origin is
        // ~0.4·0.001·mss ≈ 0 bytes. The floor must do visibly better.
        assert!(
            traj.last().copied().unwrap() >= start + 20 * MSS,
            "W_est floor must carry short-RTT growth: {} -> {}",
            start,
            traj.last().unwrap()
        );
    }

    #[test]
    fn cubic_trajectory_is_deterministic() {
        let run = || {
            let mut cc = cubic();
            for _ in 0..64 {
                cc.on_ack(MSS, t(0), RTT);
            }
            cc.on_enter_recovery(cc.cwnd(), t(5));
            let exit_flight = cc.ssthresh();
            cc.on_exit_recovery(exit_flight);
            cubic_trajectory(&mut cc, 50, 37)
        };
        assert_eq!(run(), run(), "same inputs, same integer trajectory");
    }

    #[test]
    fn cubic_fast_convergence_lowers_the_plateau() {
        let mut cc = cubic();
        for _ in 0..100 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let w1 = cc.cwnd();
        cc.on_enter_recovery(w1, t(0));
        assert_eq!(cc.w_max, w1, "first cut anchors W_max at the old window");
        // A second cut before regaining w1: W_max drops below the current
        // window (releasing bandwidth for newcomers).
        let w2 = cc.cwnd();
        cc.on_enter_recovery(w2, t(10));
        assert!(cc.w_max < w2, "fast convergence: {} < {}", cc.w_max, w2);
    }

    #[test]
    fn cubic_rto_collapses_and_restarts_an_epoch() {
        let mut cc = cubic();
        for _ in 0..50 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let before = cc.cwnd();
        cc.on_rto(30 * MSS, t(0));
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.w_max, before);
        assert_eq!(cc.ssthresh(), 30 * MSS * 7 / 10);
        assert!(cc.in_slow_start());
        assert_eq!(cc.stats().timeouts, 1);
        assert!(
            cc.epoch_start.is_none(),
            "epoch restarts on the next CA ack"
        );
    }
}
