//! Loss-recovery state, all of it: whether the connection is in fast
//! recovery and since when, the RFC 6582 recover point, the duplicate-ACK
//! run, and whether the segment at the cumulative ACK point is due to be
//! resent.
//!
//! `connection.rs` asks this module what phase it is in; `cc.rs` is only
//! told which window rule applies, and `reliability.rs` remembers what was
//! transmitted and what an RTO presumed lost. The choice of congestion-control
//! algorithm (`cc=none` included) therefore never changes what is
//! retransmitted or when.
//!
//! What is resent next has one answer per phase. In fast recovery it is the
//! head, the segment at `snd_una`: once on entry and once per partial ACK
//! (RFC 6582 §3.2 steps 2 and 5), and nothing else, even when an earlier
//! RTO left entries marked lost; the full ACK that ends the episode lies at
//! or above the recover point and so retires every one of them. Outside
//! fast recovery it is the scoreboard's lowest lost entry (go-back-N after
//! an RTO, skipping what the receiver SACKed).
//!
//! RFC 6582 §3 requires the sender to remember, on every recovery entry *and*
//! every retransmission timeout, the highest sequence transmitted so far
//! ("recover"), and to refuse a new fast retransmit until the cumulative ACK
//! point has passed it. Without the guard, a burst of duplicate ACKs arriving
//! just after recovery exit — or after an RTO, whose go-back-N retransmissions
//! commonly elicit exactly such a burst — cuts cwnd a second time for what is
//! a single congestion event.

use minion_simnet::SimTime;

/// One fast-recovery episode, stamped at entry and handed back when a full
/// ACK ends it or an RTO truncates it (the connection then queues it as a
/// `ConnEvent::Recovery` sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Episode {
    /// When the third duplicate ACK arrived.
    pub(crate) entered: SimTime,
    /// The window cut at entry: cwnd before − ssthresh after, in bytes.
    pub(crate) cut_depth: u64,
}

/// Loss-recovery state in send-stream offset space (the connection maps
/// sequence numbers to monotonically increasing 64-bit offsets, which
/// sidesteps the RFC's ISS-initialization dance: `None` means no congestion
/// event has happened yet).
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryState {
    dup_ack_count: u32,
    /// Offset of `snd_max` at the last congestion event (fast retransmit or
    /// RTO); `None` until the first one.
    recover: Option<u64>,
    /// The fast-recovery episode in progress, if any.
    episode: Option<Episode>,
    /// In fast recovery, the segment at `snd_una` is due to be resent.
    resend_head: bool,
}

impl RecoveryState {
    /// Fresh state: no duplicate ACKs seen, no congestion event yet.
    pub(crate) fn new() -> Self {
        RecoveryState::default()
    }

    /// True while in fast recovery.
    pub(crate) fn in_recovery(&self) -> bool {
        self.episode.is_some()
    }

    /// The RFC 6582 recover point: `snd_max` at the last congestion event.
    pub(crate) fn recover(&self) -> Option<u64> {
        self.recover
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

    /// Enter fast recovery (RFC 6582 §3.2 step 2): open the episode, remember
    /// `snd_max` (one past the highest transmitted offset) as the recover
    /// point, and make the fast retransmit of the head due.
    pub(crate) fn enter(&mut self, episode: Episode, snd_max: u64) {
        debug_assert!(self.episode.is_none(), "already in fast recovery");
        self.episode = Some(episode);
        self.recover = Some(snd_max);
        self.resend_head = true;
    }

    /// Does a cumulative ACK at `ack_off` end the current recovery episode
    /// (RFC 6582 §3.2 step 3, "full acknowledgment")?
    pub(crate) fn is_full_ack(&self, ack_off: u64) -> bool {
        self.recover.is_none_or(|r| ack_off >= r)
    }

    /// A partial ACK moved the cumulative point (RFC 6582 §3.2 step 5): the
    /// segment at the new `snd_una` is the next hole, resend it.
    pub(crate) fn on_partial_ack(&mut self) {
        self.resend_head = true;
    }

    /// Whether the head is due to be resent. Asking again before
    /// [`head_resent`](Self::head_resent) gives the same answer, which is
    /// how a window-limited resend waits for a later poll.
    pub(crate) fn head_due(&self) -> bool {
        self.resend_head
    }

    /// A retransmission went out: the head is no longer due.
    pub(crate) fn head_resent(&mut self) {
        self.resend_head = false;
    }

    /// A full ACK arrived: the episode is over and nothing is left to
    /// resend. Returns the episode that ended.
    pub(crate) fn exit(&mut self) -> Option<Episode> {
        self.resend_head = false;
        self.episode.take()
    }

    /// An RTO fired: the duplicate run is void, the recover point moves up
    /// to `snd_max` (RFC 6582 §3.2 step 4) so post-timeout duplicate ACKs
    /// cannot re-enter fast recovery for the same window of data, and a
    /// pending resend of the head gives way to the go-back-N pass over the
    /// entries the scoreboard marks lost. Returns the episode the timeout
    /// truncated, if there was one.
    pub(crate) fn on_rto(&mut self, snd_max: u64) -> Option<Episode> {
        self.dup_ack_count = 0;
        self.recover = Some(snd_max);
        self.resend_head = false;
        self.episode.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPISODE: Episode = Episode {
        entered: SimTime::ZERO,
        cut_depth: 0,
    };

    /// A congestion event that arms the recover point at `snd_max`.
    fn armed(snd_max: u64) -> RecoveryState {
        let mut r = RecoveryState::new();
        r.on_rto(snd_max);
        r
    }

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
        let r = armed(10_000);
        assert!(!r.may_enter(5_000, false), "old data, bare burst: blocked");
        assert!(!r.may_enter(10_000, false), "the recover point: blocked");
        assert!(r.may_enter(10_001, false), "beyond recover: allowed");
    }

    #[test]
    fn sack_evidence_admits_a_genuine_fresh_hole() {
        let r = armed(10_000);
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
        assert!(r.is_full_ack(0), "no episode: trivially covered");
        r.enter(EPISODE, 4_344);
        assert!(!r.is_full_ack(4_343));
        assert!(r.is_full_ack(4_344));
    }

    #[test]
    fn episode_opens_at_entry_and_is_handed_back_once() {
        let mut r = RecoveryState::new();
        assert!(!r.in_recovery());
        let episode = Episode {
            entered: SimTime::from_millis(20),
            cut_depth: 2_896,
        };
        r.enter(episode, 7_240);
        assert!(r.in_recovery());
        assert!(!r.may_enter(1_448, false), "entry armed the recover point");
        assert_eq!(r.recover(), Some(7_240));
        assert!(r.head_due(), "fast retransmit");
        assert_eq!(r.exit(), Some(episode));
        assert!(!r.in_recovery());
        assert!(!r.head_due(), "exit voids the resend");
        assert_eq!(r.exit(), None, "an episode is resolved exactly once");
    }

    #[test]
    fn rto_truncates_the_episode_and_replaces_the_pass() {
        let mut r = RecoveryState::new();
        r.enter(EPISODE, 4_344);
        assert_eq!(r.on_rto(5_792), Some(EPISODE));
        assert!(!r.in_recovery());
        assert_eq!(r.on_rto(5_792), None, "nothing left to truncate");
        // The recover point moved up to the snd_max of the timeout, and the
        // one-segment fast retransmit gave way to go-back-N over the entries
        // the scoreboard marks lost.
        assert_eq!(r.recover(), Some(5_792));
        assert!(!r.is_full_ack(5_791) && r.is_full_ack(5_792));
        assert!(!r.head_due());
    }

    #[test]
    fn one_segment_pass_ends_after_one_segment() {
        let mut r = RecoveryState::new();
        r.enter(EPISODE, 4_344);
        assert!(r.head_due());
        assert!(r.head_due(), "window-limited: still due on the next poll");
        r.head_resent();
        assert!(!r.head_due(), "one segment, then done");
        // Each partial ACK makes the new head due once; the recover point
        // stays where entry put it.
        r.on_partial_ack();
        assert!(r.head_due());
        r.head_resent();
        assert!(!r.head_due());
        assert_eq!(r.recover(), Some(4_344));
        assert!(r.in_recovery());
    }
}
