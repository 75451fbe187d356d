//! Reliability bookkeeping: the transmitted-but-unacknowledged scoreboard
//! and the RTO timer.
//!
//! `recovery.rs` decides *when* and *what* to retransmit (fast retransmit,
//! NewReno partial ACKs, go-back-N after an RTO); this module remembers what
//! is outstanding: per-transmission records for flight accounting, Karn-safe
//! RTT sampling, and the SACK scoreboard, plus when the retransmission timer
//! fires.

use minion_simnet::SimTime;
use std::collections::VecDeque;

/// A transmitted-but-unacknowledged range, used for flight accounting, RTT
/// sampling, and the SACK scoreboard.
#[derive(Clone, Debug)]
struct TxRecord {
    start: u64,
    end: u64,
    /// Window charge: payload bytes, or a full MSS under skbuff accounting.
    charge: usize,
    sent_at: SimTime,
    retransmitted: bool,
    sacked: bool,
}

/// Outstanding-data state of one connection's send direction.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reliability {
    /// Transmitted, unacknowledged ranges, in transmission order.
    unacked: VecDeque<TxRecord>,
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

    // ---- Transmission records -----------------------------------------

    /// Record one (re)transmission of `[start, end)` charging `charge` bytes
    /// against the congestion window.
    pub(crate) fn record_transmission(
        &mut self,
        start: u64,
        end: u64,
        charge: usize,
        sent_at: SimTime,
        retransmitted: bool,
    ) {
        self.unacked.push_back(TxRecord {
            start,
            end,
            charge,
            sent_at,
            retransmitted,
            sacked: false,
        });
    }

    /// Retire every record fully covered by a cumulative ACK at `ack_off`.
    /// Returns the send time of the first retired record that was never
    /// retransmitted — the only RTT sample Karn's rule permits — if any.
    pub(crate) fn retire_acked(&mut self, ack_off: u64) -> Option<SimTime> {
        let mut sample = None;
        while let Some(front) = self.unacked.front() {
            if front.end <= ack_off {
                let rec = self.unacked.pop_front().expect("front exists");
                if !rec.retransmitted && sample.is_none() {
                    sample = Some(rec.sent_at);
                }
            } else {
                break;
            }
        }
        sample
    }

    /// Bytes charged against the congestion window for in-flight data
    /// (SACKed ranges have left the network and do not count).
    pub(crate) fn flight_charge(&self) -> usize {
        self.unacked
            .iter()
            .filter(|r| !r.sacked)
            .map(|r| r.charge)
            .sum()
    }

    /// Whether any transmission records are outstanding.
    pub(crate) fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Drop every transmission record (go-back-N rebuilds the scoreboard as
    /// segments are re-sent).
    pub(crate) fn clear_unacked(&mut self) {
        self.unacked.clear();
    }

    /// Mark every record fully contained in `[start, end)` as SACKed.
    pub(crate) fn mark_sacked(&mut self, start: u64, end: u64) {
        for rec in self.unacked.iter_mut() {
            if rec.start >= start && rec.end <= end {
                rec.sacked = true;
            }
        }
    }

    /// The first offset at or after `offset` not covered by SACKed records,
    /// chaining across adjacent ones — where a retransmission pass should
    /// skip to. `None` when `offset` itself is not SACKed.
    pub(crate) fn next_unsacked_offset(&self, offset: u64) -> Option<u64> {
        let mut cur = offset;
        let mut advanced = false;
        loop {
            let next = self
                .unacked
                .iter()
                .filter(|r| r.sacked && cur >= r.start && cur < r.end)
                .map(|r| r.end)
                .max();
            match next {
                Some(end) => {
                    cur = end;
                    advanced = true;
                }
                None => break,
            }
        }
        advanced.then_some(cur)
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
        // Covers the first two records: the retransmitted one yields no
        // sample (Karn), the clean one does.
        assert_eq!(r.retire_acked(2896), Some(t(20)));
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
        assert_eq!(r.next_unsacked_offset(0), None, "not SACKed");
        assert_eq!(r.next_unsacked_offset(1448), Some(4344));
        assert_eq!(r.next_unsacked_offset(1500), Some(4344));
        assert_eq!(r.next_unsacked_offset(4343), Some(4344));
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
