//! Reliability bookkeeping: the send-side scoreboard and the RTO timer.
//!
//! `recovery.rs` decides *when* to retransmit (fast retransmit, NewReno
//! partial ACKs, an RTO); this module remembers what is outstanding, what
//! an RTO presumed lost, and when the retransmission timer fires.
//!
//! The scoreboard holds one entry per transmitted range, in sequence order,
//! from the cumulative ACK point to `snd_max`. An entry is in flight, SACKed
//! (the receiver holds it) or lost (an RTO presumed it dropped); only
//! entries in flight are charged against the congestion window. A
//! retransmission of `[a, b)` updates the entries it covers in place,
//! splitting them at `a` and `b`, so a byte is charged once however often
//! it is sent. An RTO marks every entry not SACKed lost and keeps the SACK
//! marks: our receiver never reneges on a SACK, as it holds every
//! out-of-order piece until its hole fills (Linux's `tcp_enter_loss`
//! likewise keeps the marks unless it suspects reneging).
//!
//! The lost marks are the only record of what go-back-N still owes. Outside
//! fast recovery the connection resends from [`Reliability::first_lost`],
//! the lowest entry marked lost: a resend clears the marks it covers, so the
//! pass moves up entry by entry, skips what the receiver SACKed, never
//! passes the `snd_max` of the timeout (nothing sent later is marked, and
//! the walk stops at the recover point), and, when the window is full,
//! waits where it is for a later poll.
//!
//! RTT samples follow Karn's rule: an ACK that retires any retransmitted
//! bytes gives no sample, and neither does a SACK of retransmitted bytes
//! alone. A SACK block that newly covers entries sent once gives one
//! sample, from the most recently sent of them, as Linux samples SACKs.

use minion_simnet::SimTime;
use std::collections::VecDeque;

/// A transmitted range of the send stream not yet cumulatively
/// acknowledged.
#[derive(Clone, Debug)]
struct Entry {
    start: u64,
    end: u64,
    /// Window charge: payload bytes, or a full MSS under skbuff accounting.
    /// A split divides it in proportion to the bytes on each side.
    charge: usize,
    /// When the range was last sent.
    sent_at: SimTime,
    /// Sent more than once: Karn's rule forbids timing its ACK.
    retransmitted: bool,
    sacked: bool,
    /// Presumed dropped by an RTO and not sent since.
    lost: bool,
}

impl Entry {
    /// Whether the entry is charged against the congestion window.
    fn in_flight(&self) -> bool {
        !self.sacked && !self.lost
    }
}

/// Outstanding-data state of one connection's send direction.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reliability {
    /// Transmitted, unacknowledged ranges, sorted and non-overlapping.
    entries: VecDeque<Entry>,
    /// The summed charge of the entries in flight.
    flight: usize,
    /// When the retransmission (or handshake) timer fires next.
    rto_expiry: Option<SimTime>,
    /// When the currently-armed timer was (re)armed — the base of the
    /// arm→fire wait the observability layer reports. Stamped by
    /// [`Reliability::arm_rto`] / [`Reliability::ensure_rto`], cleared with
    /// the timer, so the wait measures *this* timer instance, not the
    /// connection's lifetime.
    rto_armed_at: Option<SimTime>,
}

impl Reliability {
    /// Fresh state: nothing outstanding, no timer armed.
    pub(crate) fn new() -> Self {
        Reliability::default()
    }

    // ---- Scoreboard ------------------------------------------------------

    /// Record a transmission of `[start, end)` at `sent_at`. Bytes past
    /// everything recorded get a new entry charging `charge` against the
    /// congestion window, marked `retransmitted` as the caller says. A
    /// resend of recorded bytes updates their entries in place instead:
    /// sent again, and back in flight with their own charge unless SACKed.
    pub(crate) fn record_transmission(
        &mut self,
        start: u64,
        end: u64,
        charge: usize,
        sent_at: SimTime,
        retransmitted: bool,
    ) {
        let Some(last) = self.entries.back().filter(|e| e.end > start) else {
            self.entries.push_back(Entry {
                start,
                end,
                charge,
                sent_at,
                retransmitted,
                sacked: false,
                lost: false,
            });
            self.flight += charge;
            return;
        };
        debug_assert!(end <= last.end, "a resend past snd_max");
        self.split_at(start);
        self.split_at(end);
        let first = self.entries.partition_point(|e| e.end <= start);
        for e in self
            .entries
            .range_mut(first..)
            .take_while(|e| e.start < end)
        {
            if e.lost {
                e.lost = false;
                self.flight += e.charge;
            }
            e.sent_at = sent_at;
            e.retransmitted = true;
        }
    }

    /// Split the entry straddling `at`, if one does, into the bytes below
    /// and the bytes from `at` on.
    fn split_at(&mut self, at: u64) {
        let i = self.entries.partition_point(|e| e.end <= at);
        let Some(e) = self.entries.get_mut(i) else {
            return;
        };
        if e.start >= at {
            return;
        }
        let below = (e.charge as u64 * (at - e.start) / (e.end - e.start)) as usize;
        let mut upper = e.clone();
        upper.start = at;
        upper.charge = e.charge - below;
        e.end = at;
        e.charge = below;
        self.entries.insert(i + 1, upper);
    }

    /// Retire every entry a cumulative ACK at `ack_off` covers, and trim
    /// the one it lands inside to start there (its charge stays until it
    /// is covered whole). Returns the send time of the first retired entry
    /// that was neither retransmitted nor SACKed — the sample Karn's rule
    /// permits — unless the ACK covered any retransmitted byte, in which
    /// case there is none.
    pub(crate) fn retire_acked(&mut self, ack_off: u64) -> Option<SimTime> {
        let mut sample = None;
        let mut ambiguous = false;
        while let Some(e) = self.entries.front_mut() {
            if e.start >= ack_off {
                break;
            }
            ambiguous |= e.retransmitted;
            if e.end > ack_off {
                e.start = ack_off;
                break;
            }
            let e = self.entries.pop_front().expect("front exists");
            if e.in_flight() {
                self.flight -= e.charge;
            }
            if !e.retransmitted && !e.sacked && sample.is_none() {
                sample = Some(e.sent_at);
            }
        }
        sample.filter(|_| !ambiguous)
    }

    /// Mark every entry fully contained in the SACK block `[start, end)` as
    /// SACKed. Returns the send time of the most recently sent entry the
    /// block newly covers that was never retransmitted, if any: the block's
    /// RTT sample.
    pub(crate) fn mark_sacked(&mut self, start: u64, end: u64) -> Option<SimTime> {
        let first = self.entries.partition_point(|e| e.end <= start);
        let mut sample: Option<SimTime> = None;
        for e in self
            .entries
            .range_mut(first..)
            .take_while(|e| e.start < end)
        {
            if e.sacked || e.start < start || e.end > end {
                continue;
            }
            if e.in_flight() {
                self.flight -= e.charge;
            }
            e.sacked = true;
            e.lost = false;
            if !e.retransmitted {
                sample = sample.max(Some(e.sent_at));
            }
        }
        sample
    }

    /// An RTO fired: every entry the receiver has not SACKed is presumed
    /// lost and leaves the flight; its retransmitted mark stays.
    pub(crate) fn mark_unsacked_lost(&mut self) {
        for e in self.entries.iter_mut().filter(|e| !e.sacked) {
            e.lost = true;
        }
        self.flight = 0;
    }

    /// Bytes charged against the congestion window for data in flight
    /// (SACKed and lost ranges have left the network and do not count).
    pub(crate) fn flight_charge(&self) -> usize {
        self.flight
    }

    /// Whether any transmitted bytes are unacknowledged.
    pub(crate) fn has_unacked(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Where go-back-N resends next: the start of the lowest entry an RTO
    /// marked lost that nothing has resent since, if any. Every lost entry
    /// ends at or below the recover point `recover` (an invariant
    /// [`debug_check`](Self::debug_check) asserts), so the walk stops there
    /// and costs nothing once the ACK point has passed it.
    pub(crate) fn first_lost(&self, recover: Option<u64>) -> Option<u64> {
        let recover = recover?;
        self.entries
            .iter()
            .take_while(|e| e.start < recover)
            .find(|e| e.lost)
            .map(|e| e.start)
    }

    /// The scoreboard's invariants, checked in debug builds: entries are
    /// sorted, non-empty and non-overlapping, each ends above the
    /// cumulative ACK point `snd_una`, every lost entry ends at or below
    /// the RFC 6582 recover point `recover` (so the full ACK that ends a
    /// recovery episode retires them all), and the flight is the summed
    /// charge of the entries neither SACKed nor lost.
    pub(crate) fn debug_check(&self, snd_una: u64, recover: Option<u64>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut prev_end = None;
        for e in &self.entries {
            debug_assert!(
                e.start < e.end && e.end > snd_una && prev_end.is_none_or(|p| p <= e.start),
                "entry [{}, {}) after {prev_end:?}, snd_una {snd_una}",
                e.start,
                e.end
            );
            debug_assert!(
                !e.lost || recover.is_some_and(|r| e.end <= r),
                "lost entry [{}, {}) above the recover point {recover:?}",
                e.start,
                e.end
            );
            prev_end = Some(e.end);
        }
        let charged: usize = self
            .entries
            .iter()
            .filter(|e| e.in_flight())
            .map(|e| e.charge)
            .sum();
        debug_assert_eq!(self.flight, charged, "flight is the in-flight charge");
    }

    // ---- RTO timer -------------------------------------------------------

    /// When the retransmission timer fires, if armed.
    pub(crate) fn rto_expiry(&self) -> Option<SimTime> {
        self.rto_expiry
    }

    /// (Re)arm the retransmission timer to fire at `at`, stamping `now` as
    /// the arm time.
    pub(crate) fn arm_rto(&mut self, now: SimTime, at: SimTime) {
        self.rto_expiry = Some(at);
        self.rto_armed_at = Some(now);
    }

    /// Arm the retransmission timer only if it is not already running.
    pub(crate) fn ensure_rto(&mut self, now: SimTime, at: SimTime) {
        if self.rto_expiry.is_none() {
            self.rto_expiry = Some(at);
            self.rto_armed_at = Some(now);
        }
    }

    /// When the currently-armed timer was (re)armed, if one is running.
    pub(crate) fn rto_armed_at(&self) -> Option<SimTime> {
        self.rto_armed_at
    }

    /// Disarm the retransmission timer.
    pub(crate) fn clear_rto(&mut self) {
        self.rto_expiry = None;
        self.rto_armed_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn retire_returns_the_karn_safe_sample() {
        let mut r = Reliability::new();
        r.record_transmission(0, 1448, 1448, t(10), true); // retransmitted
        r.record_transmission(1448, 2896, 1448, t(20), false);
        r.record_transmission(2896, 4344, 1448, t(30), false);
        // Covers the first two records: the retransmitted one makes the
        // whole ACK ambiguous, so the clean one is not timed either (Karn).
        assert_eq!(r.retire_acked(2896), None);
        assert!(r.has_unacked());
        assert_eq!(r.flight_charge(), 1448);
        // Nothing newly covered: no sample.
        assert_eq!(r.retire_acked(2896), None);
    }

    #[test]
    fn partially_covered_records_stay() {
        let mut r = Reliability::new();
        r.record_transmission(0, 1448, 1448, t(1), false);
        assert_eq!(r.retire_acked(1000), None, "mid-record ACK retires nothing");
        assert_eq!(r.flight_charge(), 1448);
    }

    #[test]
    fn sack_marks_only_fully_contained_records() {
        let mut r = Reliability::new();
        r.record_transmission(0, 1448, 1448, t(1), false);
        r.record_transmission(1448, 2896, 1448, t(2), false);
        r.record_transmission(2896, 4344, 1448, t(3), false);
        r.mark_sacked(1448, 4344);
        assert_eq!(r.flight_charge(), 1448, "SACKed ranges left the network");
        r.mark_sacked(0, 1000);
        r.mark_sacked(1000, 4000);
        assert_eq!(r.flight_charge(), 1448, "no block contains [0, 1448)");
        r.mark_unsacked_lost();
        assert_eq!(r.first_lost(Some(4344)), Some(0), "not SACKed");
        r.record_transmission(0, 1448, 1448, t(4), true);
        assert_eq!(
            r.first_lost(Some(4344)),
            None,
            "both SACKed entries are skipped"
        );
    }

    #[test]
    fn a_resend_updates_the_entries_it_covers_in_place() {
        let mut r = Reliability::new();
        r.record_transmission(0, 1448, 1448, t(1), false);
        r.record_transmission(1448, 2896, 1448, t(2), false);
        assert_eq!(r.retire_acked(1000), None, "mid-entry: nothing retired");
        // A full segment from the ACK point splits the second entry at
        // 2448 and is charged once: the flight does not grow.
        r.record_transmission(1000, 2448, 1448, t(9), true);
        assert_eq!(r.flight_charge(), 2896);
        r.debug_check(1000, None);
        assert_eq!(r.retire_acked(2448), None, "retransmitted bytes: Karn");
        assert_eq!(r.flight_charge(), 448, "the split's upper share stays");
        r.debug_check(2448, None);
    }

    #[test]
    fn an_rto_keeps_the_sack_marks_and_marks_the_rest_lost() {
        let mut r = Reliability::new();
        for (i, start) in [0, 1448, 2896, 4344].into_iter().enumerate() {
            r.record_transmission(start, start + 1448, 1448, t(i as u64), false);
        }
        // A block newly covering two entries sent once samples the later.
        assert_eq!(r.mark_sacked(1448, 4344), Some(t(2)));
        assert_eq!(r.mark_sacked(1448, 4344), None, "nothing newly covered");
        r.mark_unsacked_lost();
        assert_eq!(r.flight_charge(), 0, "lost and SACKed left the network");
        assert_eq!(r.first_lost(Some(5792)), Some(0));
        r.record_transmission(0, 1448, 1448, t(9), true);
        assert_eq!(
            r.first_lost(Some(5792)),
            Some(4344),
            "SACKed entries skipped"
        );
        r.record_transmission(4344, 5792, 1448, t(9), true);
        assert_eq!(r.first_lost(Some(5792)), None);
        assert_eq!(r.flight_charge(), 2896, "a resend re-enters the flight");
        r.debug_check(0, Some(5792));
        assert_eq!(r.mark_sacked(4344, 5792), None, "retransmitted: Karn");
        assert_eq!(r.flight_charge(), 1448);
    }

    #[test]
    fn go_back_n_pass_walks_to_the_snd_max_of_the_timeout() {
        let mut r = Reliability::new();
        for start in [1_000, 2_000, 3_000] {
            r.record_transmission(start, start + 1_000, 1_000, t(1), false);
        }
        r.mark_unsacked_lost();
        assert_eq!(r.first_lost(Some(4_000)), Some(1_000));
        // A full segment from there splits the second entry.
        r.record_transmission(1_000, 2_448, 1_448, t(9), true);
        assert_eq!(r.first_lost(Some(4_000)), Some(2_448));
        // The cumulative point overtakes the pass; data sent after the
        // timeout is not part of it.
        assert_eq!(r.retire_acked(3_000), None);
        assert_eq!(r.first_lost(Some(4_000)), Some(3_000));
        r.record_transmission(4_000, 9_000, 5_000, t(10), false);
        r.record_transmission(3_000, 4_000, 1_000, t(10), true);
        assert_eq!(r.first_lost(Some(4_000)), None, "the pass ends at 4000");
        r.debug_check(3_000, Some(4_000));
        // Nothing outstanding when the timer fired: nothing to resend.
        let mut idle = Reliability::new();
        idle.mark_unsacked_lost();
        assert_eq!(idle.first_lost(Some(0)), None);
    }

    #[test]
    fn resend_pass_pauses_and_resumes() {
        // Window-limited: the connection stops resending, and the next poll
        // is handed the same offset, because only a resend clears a mark.
        let mut r = Reliability::new();
        for start in [0, 1_448, 2_896] {
            r.record_transmission(start, start + 1_448, 1_448, t(1), false);
        }
        r.mark_unsacked_lost();
        r.record_transmission(0, 1_448, 1_448, t(9), true);
        assert_eq!(r.first_lost(Some(4_344)), Some(1_448));
        assert_eq!(r.first_lost(Some(4_344)), Some(1_448), "paused, not lost");
        r.record_transmission(1_448, 2_896, 1_448, t(10), true);
        assert_eq!(r.first_lost(Some(4_344)), Some(2_896), "resumed");
        // An ACK past the pass retires what it had left.
        assert_eq!(r.retire_acked(4_344), None);
        assert_eq!(r.first_lost(Some(4_344)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "above the recover point")]
    fn a_lost_entry_above_the_recover_point_fails_the_check() {
        let mut r = Reliability::new();
        r.record_transmission(0, 1_448, 1_448, t(1), false);
        r.mark_unsacked_lost();
        r.debug_check(0, Some(1_000));
    }

    #[test]
    fn rto_timer_arming_and_backoffs() {
        let mut r = Reliability::new();
        assert_eq!(r.rto_expiry(), None);
        assert_eq!(r.rto_armed_at(), None);
        r.ensure_rto(t(1), t(100));
        r.ensure_rto(t(2), t(50));
        assert_eq!(r.rto_expiry(), Some(t(100)), "ensure does not re-arm");
        assert_eq!(r.rto_armed_at(), Some(t(1)), "nor re-stamp the arm time");
        r.arm_rto(t(10), t(50));
        assert_eq!(r.rto_expiry(), Some(t(50)));
        assert_eq!(r.rto_armed_at(), Some(t(10)), "re-arming re-stamps");
        r.clear_rto();
        assert_eq!(r.rto_expiry(), None);
        assert_eq!(r.rto_armed_at(), None, "disarm clears the stamp");
    }
}
