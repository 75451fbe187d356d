//! Round-trip-time estimation and retransmission-timeout computation,
//! following Jacobson/Karels (RFC 6298) with Karn's rule applied by the
//! caller: no sample is taken from an ACK that retires retransmitted data,
//! nor from the handshake when the RTO re-sent the SYN (or SYN-ACK). A
//! handshake sent once is timed from the SYN (or, passively, from the SYN's
//! arrival), and SACK blocks give samples too (see `reliability`).

use minion_simnet::SimDuration;

/// RTT estimator maintaining smoothed RTT and RTT variance.
#[derive(Clone, Debug)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    samples: u64,
}

/// Minimum retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Maximum retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);

impl Default for RttEstimator {
    /// The initial RTO before any sample is 1 second (RFC 6298 §2.1).
    fn default() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            samples: 0,
        }
    }
}

impl RttEstimator {
    /// Record an RTT sample from a non-retransmitted segment.
    pub(crate) fn on_sample(&mut self, rtt: SimDuration) {
        self.samples += 1;
        match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt.div(2);
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let delta = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    SimDuration::from_micros((self.rttvar.as_micros() * 3 + delta.as_micros()) / 4);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(SimDuration::from_micros(
                    (srtt.as_micros() * 7 + rtt.as_micros()) / 8,
                ));
            }
        }
        let srtt = self.srtt.expect("just set");
        // RTO = SRTT + max(G, 4*RTTVAR); we use a 1 ms clock granularity.
        let var_term = self
            .rttvar
            .saturating_mul(4)
            .max(SimDuration::from_millis(1));
        self.rto = (srtt + var_term).max(MIN_RTO).min(MAX_RTO);
    }

    /// Exponentially back off the RTO after a retransmission timeout.
    pub(crate) fn backoff(&mut self) {
        self.rto = self.rto.saturating_mul(2).min(MAX_RTO);
    }

    /// The current retransmission timeout.
    pub(crate) fn rto(&self) -> SimDuration {
        self.rto
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Number of samples incorporated.
    pub(crate) fn sample_count(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert!(e.srtt().is_none());
    }

    #[test]
    fn first_sample_initializes_srtt() {
        let mut e = RttEstimator::default();
        e.on_sample(SimDuration::from_millis(60));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(60)));
        // RTO = 60 + 4*30 = 180 ms, clamped to min 200 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        assert_eq!(e.sample_count(), 1);
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(60));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 60.0).abs() < 1.0, "srtt={srtt}");
        // Variance decays toward zero, so RTO approaches SRTT + clamp floor.
        assert!(e.rto() <= SimDuration::from_millis(210));
        assert!(e.rto() >= SimDuration::from_millis(200));
    }

    #[test]
    fn rto_grows_with_variance() {
        let mut stable = RttEstimator::default();
        let mut jittery = RttEstimator::default();
        for i in 0..50 {
            stable.on_sample(SimDuration::from_millis(100));
            let jitter = if i % 2 == 0 { 40 } else { 160 };
            jittery.on_sample(SimDuration::from_millis(jitter));
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn rto_is_clamped_to_the_configured_floor_and_ceiling() {
        // A tiny RTT cannot push the RTO below MIN_RTO...
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.on_sample(SimDuration::from_micros(300));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        // ...and a huge RTT cannot push it above MAX_RTO.
        let mut e = RttEstimator::default();
        e.on_sample(SimDuration::from_secs(30));
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn a_fresh_sample_recovers_from_backoff() {
        // RFC 6298 §5.7: after backed-off timeouts, the next valid sample
        // recomputes the RTO from SRTT/RTTVAR instead of staying inflated.
        let mut e = RttEstimator::default();
        e.on_sample(SimDuration::from_millis(60));
        let base = e.rto();
        for _ in 0..4 {
            e.backoff();
        }
        assert!(e.rto() >= base.saturating_mul(8));
        e.on_sample(SimDuration::from_millis(60));
        assert!(
            e.rto() <= SimDuration::from_millis(250),
            "sampling after backoff restores a tight RTO, got {}",
            e.rto()
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = RttEstimator::default();
        e.on_sample(SimDuration::from_millis(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base.saturating_mul(2));
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }
}
