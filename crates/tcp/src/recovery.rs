//! Loss-recovery bookkeeping: duplicate-ACK counting and the NewReno recover
//! point — the `tcp_recovery` seam of the mlwip-style modular control path.
//!
//! RFC 6582 §3 requires the sender to remember, on every recovery entry *and*
//! every retransmission timeout, the highest sequence transmitted so far
//! ("recover"), and to refuse a new fast retransmit until the cumulative ACK
//! point has passed it. Without the guard, a burst of duplicate ACKs arriving
//! just after recovery exit — or after an RTO, whose go-back-N retransmissions
//! commonly elicit exactly such a burst — cuts cwnd a second time for what is
//! a single congestion event.

/// Duplicate-ACK counting and the RFC 6582 recover point, in send-stream
/// offset space (the connection maps sequence numbers to monotonically
/// increasing 64-bit offsets, which sidesteps the RFC's ISS-initialization
/// dance: `None` means no congestion event has happened yet).
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryState {
    dup_ack_count: u32,
    /// Offset of `snd_max` at the last congestion event (fast retransmit or
    /// RTO); `None` until the first one.
    recover: Option<u64>,
}

impl RecoveryState {
    /// Fresh state: no duplicate ACKs seen, no congestion event yet.
    pub(crate) fn new() -> Self {
        RecoveryState::default()
    }

    /// A new cumulative ACK arrived: the duplicate run is over.
    pub(crate) fn on_new_ack(&mut self) {
        self.dup_ack_count = 0;
    }

    /// Count one duplicate ACK and return the run length so far.
    pub(crate) fn on_dup_ack(&mut self) -> u32 {
        self.dup_ack_count += 1;
        self.dup_ack_count
    }

    /// RFC 6582 §3.2 step 1: may a third duplicate ACK at cumulative point
    /// `snd_una` start a *new* fast-retransmit episode? Yes if the ACK
    /// covers more than the recover point. At or below it, only with
    /// `sack_evidence` — the RFC §4 heuristic, sharpened by SACK: duplicate
    /// ACKs whose SACK blocks show newer data reaching the receiver indicate
    /// a genuine fresh hole, while a *bare* duplicate-ACK burst (late
    /// duplicates of pre-event segments, typically elicited by recovery or
    /// go-back-N retransmissions) must not cut the window a second time.
    pub(crate) fn may_enter(&self, snd_una: u64, sack_evidence: bool) -> bool {
        match self.recover {
            None => true,
            Some(r) => snd_una > r || sack_evidence,
        }
    }

    /// Record a congestion event: remember `snd_max` (one past the highest
    /// transmitted offset) as the recover point. Called on fast-retransmit
    /// entry and on every RTO (RFC 6582 §3.2 step 4).
    pub(crate) fn arm(&mut self, snd_max: u64) {
        self.recover = Some(snd_max);
    }

    /// An RTO fired: the duplicate run is void and the recover point moves
    /// up to `snd_max`, so post-timeout duplicate ACKs cannot re-enter fast
    /// recovery for the same window of data.
    pub(crate) fn on_rto(&mut self, snd_max: u64) {
        self.dup_ack_count = 0;
        self.arm(snd_max);
    }

    /// Does a cumulative ACK at `ack_off` end the current recovery episode
    /// (RFC 6582 §3.2 step 3, "full acknowledgment")?
    pub(crate) fn full_ack_covers(&self, ack_off: u64) -> bool {
        self.recover.is_none_or(|r| ack_off >= r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_episode_is_always_allowed() {
        let r = RecoveryState::new();
        assert!(r.may_enter(0, false), "no prior congestion event: passes");
    }

    #[test]
    fn dup_ack_run_counts_and_resets() {
        let mut r = RecoveryState::new();
        assert_eq!(r.on_dup_ack(), 1);
        assert_eq!(r.on_dup_ack(), 2);
        assert_eq!(r.on_dup_ack(), 3);
        r.on_new_ack();
        assert_eq!(r.on_dup_ack(), 1);
    }

    #[test]
    fn guard_blocks_bare_reentry_until_snd_una_passes_recover() {
        let mut r = RecoveryState::new();
        r.arm(10_000);
        assert!(!r.may_enter(5_000, false), "old data, bare burst: blocked");
        assert!(!r.may_enter(10_000, false), "the recover point: blocked");
        assert!(r.may_enter(10_001, false), "beyond recover: allowed");
    }

    #[test]
    fn sack_evidence_admits_a_genuine_fresh_hole() {
        let mut r = RecoveryState::new();
        r.arm(10_000);
        assert!(
            r.may_enter(10_000, true),
            "SACKed newer data proves a real hole: fast retransmit allowed"
        );
        assert!(r.may_enter(5_000, true));
    }

    #[test]
    fn rto_arms_the_recover_point_and_voids_the_run() {
        let mut r = RecoveryState::new();
        r.on_dup_ack();
        r.on_dup_ack();
        r.on_rto(7_000);
        assert!(
            !r.may_enter(0, false),
            "post-RTO dup ACKs must not cut again"
        );
        assert!(r.may_enter(7_001, false));
        assert_eq!(r.on_dup_ack(), 1, "the RTO voided the run");
    }

    #[test]
    fn full_ack_semantics_are_inclusive() {
        let mut r = RecoveryState::new();
        assert!(r.full_ack_covers(0), "no episode: trivially covered");
        r.arm(4_344);
        assert!(!r.full_ack_covers(4_343));
        assert!(r.full_ack_covers(4_344));
    }
}
