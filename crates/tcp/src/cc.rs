//! Congestion control: the window arithmetic, and nothing else.
//!
//! [`CongestionControl`] owns `cwnd` and `ssthresh` and answers one kind of
//! question — how large the window is after an event. It does not know
//! whether the connection is in fast recovery: `recovery.rs` owns the
//! episode, and `connection.rs` calls the rule that matches the phase the
//! episode is in. Each rule is written once. Slow start, the entry window
//! (`ssthresh` + 3 MSS), the one-MSS inflation per duplicate ACK, the
//! partial-ACK deflation and RFC 6582's conservative exit window are the same
//! for every algorithm; what an algorithm contributes is its
//! congestion-avoidance growth and its multiplicative decrease.
//!
//! NewReno (RFC 5681 / 6582) is the algorithm in the paper's Linux 2.6.34
//! testbed era and is what uTCP explicitly does **not** change: "uTCP does not
//! change TCP's reliability or congestion control" (§8.4). CUBIC (RFC 8312)
//! is a scenario axis — window dynamics the paper's figures never swept — and
//! `none` serves the §4.3 design-alternative ablation. [`CcAlgorithm`] closes
//! the set, so the algorithm is an enum held inline.
//!
//! Everything here is deterministic: CUBIC's cubic-root and window formulas
//! use integer arithmetic over virtual [`SimTime`], never floats or wall
//! clocks, so a connection's window trajectory is byte-identical at any
//! thread count.

use crate::config::CcAlgorithm;
use minion_simnet::{SimDuration, SimTime};

/// Initial congestion window in segments (RFC 6928 uses 10; Linux 2.6.34,
/// the paper's kernel, used 3).
const INITIAL_CWND_SEGMENTS: usize = 3;

/// "No limit", for `ssthresh` before the first loss and for both windows
/// under `cc=none`.
const UNBOUNDED: usize = usize::MAX / 2;

/// One connection's congestion window. All windows are in bytes; `now` is
/// virtual time from the caller's clock.
#[derive(Clone, Debug)]
pub(crate) struct CongestionControl {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    algorithm: Algorithm,
}

/// What differs between the algorithms: the growth state congestion
/// avoidance needs.
#[derive(Clone, Debug)]
enum Algorithm {
    /// RFC 5681 linear growth: bytes acked since the last one-MSS increase.
    NewReno { bytes_acked_ca: usize },
    /// RFC 8312 growth along the cubic curve. Boxed so that a connection
    /// under NewReno — every figure and benchmark workload — carries one
    /// counter inline rather than the curve's five words.
    Cubic(Box<CubicCurve>),
    /// Congestion control disabled (§4.3 ablation): the window is limited
    /// only by the peer's receive window, and no event moves it.
    None,
}

impl CongestionControl {
    /// The controller for `algorithm` with the given MSS.
    pub(crate) fn new(algorithm: CcAlgorithm, mss: usize) -> Self {
        let (cwnd, algorithm) = match algorithm {
            CcAlgorithm::NewReno => (
                mss * INITIAL_CWND_SEGMENTS,
                Algorithm::NewReno { bytes_acked_ca: 0 },
            ),
            CcAlgorithm::Cubic => (
                mss * INITIAL_CWND_SEGMENTS,
                Algorithm::Cubic(Box::default()),
            ),
            CcAlgorithm::None => (UNBOUNDED, Algorithm::None),
        };
        CongestionControl {
            mss,
            cwnd,
            ssthresh: UNBOUNDED,
            algorithm,
        }
    }

    /// Current congestion window in bytes.
    pub(crate) fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub(crate) fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    fn unbounded(&self) -> bool {
        matches!(self.algorithm, Algorithm::None)
    }

    /// The window was just cut or deflated: the algorithm's
    /// congestion-avoidance growth starts over.
    fn restart_growth(&mut self) {
        match &mut self.algorithm {
            Algorithm::NewReno { bytes_acked_ca } => *bytes_acked_ca = 0,
            Algorithm::Cubic(curve) => curve.epoch_start = None,
            Algorithm::None => {}
        }
    }

    /// An ACK of `bytes_acked` new bytes outside fast recovery: slow start
    /// below `ssthresh`, the algorithm's congestion avoidance above it.
    /// `srtt` is the connection's smoothed RTT estimate, if one exists
    /// (CUBIC's Reno-friendly region needs it; NewReno ignores it).
    pub(crate) fn on_ack(&mut self, bytes_acked: usize, now: SimTime, srtt: Option<SimDuration>) {
        if bytes_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // cwnd grows by min(bytes_acked, MSS) per ACK (RFC 5681 §3.1).
            self.cwnd += bytes_acked.min(self.mss);
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh.max(self.mss);
            }
            return;
        }
        match &mut self.algorithm {
            Algorithm::NewReno { bytes_acked_ca } => {
                // One MSS per cwnd's worth of acked bytes.
                *bytes_acked_ca += bytes_acked;
                if *bytes_acked_ca >= self.cwnd {
                    *bytes_acked_ca -= self.cwnd;
                    self.cwnd += self.mss;
                }
            }
            Algorithm::Cubic(curve) => {
                let target = curve.target(self.cwnd, self.mss, now, srtt);
                if target > self.cwnd {
                    // Spread the climb over the ACKs of one window's worth
                    // of data.
                    let step = (target - self.cwnd) * bytes_acked.min(self.mss) / self.cwnd;
                    self.cwnd += step.max(1).min(self.mss);
                }
            }
            Algorithm::None => {}
        }
    }

    /// A loss was detected with `flight_size` bytes outstanding: `ssthresh`
    /// becomes the algorithm's multiplicative decrease of the flight (RFC
    /// 5681's two-segment floor under it) and its growth starts over.
    /// `by_dup_acks` tells CUBIC whether fast convergence applies. Returns
    /// whether there is a window to set (`cc=none` has none).
    fn cut(&mut self, flight_size: usize, by_dup_acks: bool) -> bool {
        let kept = match &mut self.algorithm {
            Algorithm::NewReno { .. } => flight_size / 2,
            Algorithm::Cubic(curve) => {
                // Fast convergence (RFC 8312 §4.6): if the window never
                // regained the previous plateau, remember an even lower one
                // to release bandwidth.
                curve.w_max = if by_dup_acks && self.cwnd < curve.w_max {
                    self.cwnd * (BETA_DEN + BETA_NUM) / (2 * BETA_DEN)
                } else {
                    self.cwnd.max(self.mss)
                };
                // β = 0.7, on flight as NewReno halves the flight.
                flight_size * BETA_NUM / BETA_DEN
            }
            Algorithm::None => return false,
        };
        self.ssthresh = kept.max(2 * self.mss);
        self.restart_growth();
        true
    }

    /// Enter fast recovery after three duplicate ACKs, given the current
    /// flight size in bytes: cut, then inflate by the three segments the
    /// duplicate ACKs say have left the network.
    pub(crate) fn on_enter_recovery(&mut self, flight_size: usize) {
        if self.cut(flight_size, true) {
            self.cwnd = self.ssthresh + 3 * self.mss;
        }
    }

    /// A duplicate ACK arrived during fast recovery: inflate the window to
    /// reflect the segment that has left the network.
    pub(crate) fn on_recovery_dup_ack(&mut self) {
        if !self.unbounded() {
            self.cwnd += self.mss;
        }
    }

    /// A partial ACK arrived during fast recovery: deflate by the amount
    /// acked, then add back one MSS (RFC 6582 §3.2 step 5).
    pub(crate) fn on_partial_ack(&mut self, bytes_acked: usize) {
        if !self.unbounded() {
            self.cwnd = self.cwnd.saturating_sub(bytes_acked).max(self.mss) + self.mss;
        }
    }

    /// A full ACK ended fast recovery. `flight_size` is the data still
    /// outstanding *now*: RFC 6582 §3.2 step 3, conservative variant, deflates
    /// to `min(ssthresh, max(flight, MSS) + MSS)` so the first post-recovery
    /// poll cannot burst a full ssthresh of back-to-back segments.
    pub(crate) fn on_exit_recovery(&mut self, flight_size: usize) {
        if !self.unbounded() {
            self.cwnd = self
                .ssthresh
                .min(flight_size.max(self.mss) + self.mss)
                .max(self.mss);
            self.restart_growth();
        }
    }

    /// A retransmission timeout fired: cut, and restart from one segment.
    pub(crate) fn on_rto(&mut self, flight_size: usize) {
        if self.cut(flight_size, false) {
            self.cwnd = self.mss;
        }
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

/// CUBIC's curve state (RFC 8312) in deterministic integer arithmetic.
///
/// Window growth in congestion avoidance follows
/// `W_cubic(t) = C·(t − K)³ + W_max` with `C = 0.4`, `t` measured from the
/// epoch start (the first congestion-avoidance ACK after a congestion
/// event) on the virtual clock, and `K = ∛(W_max·(1 − cwnd/W_max)/C)`
/// generalized Linux-style to the actual epoch-start window. The
/// TCP-friendly region (`W_est`, RFC 8312 §4.2) floors growth at what Reno
/// would achieve. All terms are integers: times in virtual milliseconds,
/// windows in bytes, the cube root via `icbrt`.
#[derive(Clone, Debug, Default)]
struct CubicCurve {
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

impl CubicCurve {
    /// The window this ACK should climb towards: where the curve will be one
    /// RTT from now (RFC 8312 §4.1), floored by `W_est`, starting an epoch
    /// first if the last congestion event ended one.
    fn target(
        &mut self,
        cwnd: usize,
        mss: usize,
        now: SimTime,
        srtt: Option<SimDuration>,
    ) -> usize {
        let start = match self.epoch_start {
            Some(start) => start,
            None => {
                self.begin_epoch(cwnd, mss, now);
                now
            }
        };
        let t_ms = now.saturating_since(start).as_micros() / 1000;
        let rtt_ms = srtt.map_or(0, |s| s.as_micros() / 1000);
        self.w_cubic(t_ms + rtt_ms, mss)
            .max(self.w_est(t_ms, mss, srtt))
            // Linux caps each step at 1.5× the current window so a long idle
            // epoch cannot manifest as one giant burst.
            .min(cwnd + cwnd / 2)
    }

    fn begin_epoch(&mut self, cwnd: usize, mss: usize, now: SimTime) {
        self.epoch_start = Some(now);
        if cwnd < self.w_max {
            // K = ∛((W_max − cwnd)/(C·mss)) seconds, in ms:
            // ∛(x) s = ∛(x · 10⁹) ms; C = 2/5 ⇒ divide by C = ×(5/2).
            let deficit = (self.w_max - cwnd) as u128;
            self.k_ms = icbrt(deficit * 5 * 1_000_000_000 / (2 * mss as u128));
            self.origin = self.w_max;
        } else {
            // Above the old plateau already: anchor the convex region here.
            self.k_ms = 0;
            self.origin = cwnd;
        }
    }

    /// `W_cubic(t)` in bytes at `t_ms` milliseconds after the epoch start.
    fn w_cubic(&self, t_ms: u64, mss: usize) -> usize {
        // C·(t − K)³·mss with t in ms: (Δms)³/10⁹ = (Δs)³, C = 2/5.
        let delta = t_ms as i128 - self.k_ms as i128;
        let cube = delta * delta * delta; // |Δ| < 2⁴³ ⇒ cube < 2¹²⁹ᐟ... fits i128 for any sane sim time
        let grown = 2 * mss as i128 * cube / 5_000_000_000;
        let w = self.origin as i128 + grown;
        w.clamp(mss as i128, usize::MAX as i128 / 4) as usize
    }

    /// The TCP-friendly floor `W_est(t)` in bytes (RFC 8312 §4.2):
    /// `W_max·β + 3·(1−β)/(1+β) · t/RTT` segments; with β = 7/10 the slope
    /// is 9/17 segments per RTT.
    fn w_est(&self, t_ms: u64, mss: usize, srtt: Option<SimDuration>) -> usize {
        let base = self.w_max * BETA_NUM / BETA_DEN;
        let Some(srtt) = srtt else { return base };
        let rtt_ms = (srtt.as_micros() / 1000).max(1);
        let grown = (mss as u128 * t_ms as u128 * 9) / (17 * rtt_ms as u128);
        base + grown.min(usize::MAX as u128 / 4) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1448;

    fn newreno() -> CongestionControl {
        CongestionControl::new(CcAlgorithm::NewReno, MSS)
    }

    fn cubic() -> CongestionControl {
        CongestionControl::new(CcAlgorithm::Cubic, MSS)
    }

    fn in_slow_start(cc: &CongestionControl) -> bool {
        cc.cwnd() < cc.ssthresh()
    }

    /// The curve state of a CUBIC controller.
    fn curve(cc: &CongestionControl) -> &CubicCurve {
        match &cc.algorithm {
            Algorithm::Cubic(curve) => curve,
            other => panic!("not CUBIC: {other:?}"),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const RTT: Option<SimDuration> = Some(SimDuration::from_millis(100));

    #[test]
    fn initial_window_is_three_segments() {
        let cc = newreno();
        assert_eq!(cc.cwnd(), 3 * MSS);
        assert!(in_slow_start(&cc));
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
        cc.on_enter_recovery(20 * MSS);
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        assert!(!in_slow_start(&cc));
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
        cc.on_enter_recovery(flight);
        assert_eq!(cc.ssthresh(), flight / 2);
        assert_eq!(cc.cwnd(), flight / 2 + 3 * MSS);
        cc.on_recovery_dup_ack();
        assert_eq!(cc.cwnd(), flight / 2 + 4 * MSS);
        // Exiting with the full ssthresh still outstanding deflates to
        // ssthresh exactly (the conservative variant changes nothing here).
        cc.on_exit_recovery(flight / 2);
        assert_eq!(cc.cwnd(), flight / 2);
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
        cc.on_enter_recovery(20 * MSS);
        assert_eq!(cc.ssthresh(), 10 * MSS);
        cc.on_exit_recovery(2 * MSS);
        assert_eq!(cc.cwnd(), 3 * MSS, "max(flight, MSS) + MSS, not ssthresh");
        // And the floor: zero flight still leaves a 2-MSS window.
        let mut cc = newreno();
        cc.on_enter_recovery(20 * MSS);
        cc.on_exit_recovery(0);
        assert_eq!(cc.cwnd(), 2 * MSS);
    }

    #[test]
    fn partial_ack_deflates_and_readds_mss() {
        let mut cc = newreno();
        cc.on_enter_recovery(10 * MSS);
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
        cc.on_rto(30 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 15 * MSS);
        assert!(in_slow_start(&cc));
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = newreno();
        cc.on_rto(MSS);
        assert_eq!(cc.ssthresh(), 2 * MSS);
    }

    #[test]
    fn disabled_cc_is_unbounded_and_inert() {
        let mut cc = CongestionControl::new(CcAlgorithm::None, MSS);
        let huge = cc.cwnd();
        assert!(huge > 1 << 30);
        // A whole recovery episode, a timeout and an ordinary ACK: the
        // connection walks the same phases under every algorithm, and none
        // of the window rules moves an unbounded window.
        cc.on_enter_recovery(10 * MSS);
        cc.on_recovery_dup_ack();
        cc.on_partial_ack(2 * MSS);
        cc.on_exit_recovery(MSS);
        cc.on_rto(10 * MSS);
        cc.on_ack(MSS, t(0), RTT);
        assert_eq!(cc.cwnd(), huge);
        assert_eq!(cc.ssthresh(), huge);
    }

    #[test]
    fn factory_builds_the_requested_algorithm() {
        // Told apart by what each keeps of a 20-segment flight: half, β = 0.7
        // of it, or a window that was never bounded.
        let kept = CcAlgorithm::ALL.map(|algo| {
            let mut cc = CongestionControl::new(algo, MSS);
            cc.on_enter_recovery(20 * MSS);
            cc.ssthresh()
        });
        assert_eq!(kept, [10 * MSS, 14 * MSS, UNBOUNDED]);
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
    fn cubic_trajectory(cc: &mut CongestionControl, rtts: usize, rtt_ms: u64) -> Vec<usize> {
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
        cc.on_enter_recovery(w_max);
        let exit_flight = cc.ssthresh();
        cc.on_exit_recovery(exit_flight);
        assert!(!in_slow_start(&cc));
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
        cc.on_enter_recovery(w_max);
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
        cc.on_enter_recovery(cc.cwnd());
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
            cc.on_enter_recovery(cc.cwnd());
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
        cc.on_enter_recovery(w1);
        assert_eq!(
            curve(&cc).w_max,
            w1,
            "first cut anchors W_max at the old window"
        );
        // A second cut before regaining w1: W_max drops below the current
        // window (releasing bandwidth for newcomers).
        let w2 = cc.cwnd();
        cc.on_enter_recovery(w2);
        let lowered = curve(&cc).w_max;
        assert!(lowered < w2, "fast convergence: {lowered} < {w2}");
    }

    #[test]
    fn cubic_rto_collapses_and_restarts_an_epoch() {
        let mut cc = cubic();
        for _ in 0..50 {
            cc.on_ack(MSS, t(0), RTT);
        }
        let before = cc.cwnd();
        cc.on_rto(30 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(curve(&cc).w_max, before);
        assert_eq!(cc.ssthresh(), 30 * MSS * 7 / 10);
        assert!(in_slow_start(&cc));
        assert!(
            curve(&cc).epoch_start.is_none(),
            "epoch restarts on the next CA ack"
        );
    }
}
