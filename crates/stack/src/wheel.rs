//! The loop's timer queue: one exact deadline per key.
//!
//! A driver that asked every connection for its next timer on every event
//! would pay `O(flows)` per event. The queue keeps each flow's deadline in
//! a min-heap instead, so the loop jumps virtual time straight to the
//! earliest one:
//!
//! * **Lazy re-arm.** `armed` maps each key to its deadline and to the
//!   deadline of its one live heap entry, which is never later. Moving a
//!   deadline later, as TCP does with its RTO on every ACK, only updates
//!   the map; the entry is re-pushed at the true deadline when it reaches
//!   the top. Moving it earlier pushes a new entry.
//! * **Lazy cancellation.** Cancelling only updates the map; an entry whose
//!   key no longer queues at its time is dropped when it reaches the top.
//!
//! Both are settled before the top is read, so the wake-up the loop asks
//! for is an armed key's exact deadline. Expiries are reported in
//! `(deadline, key)` order, so the queue's behaviour is independent of
//! insertion history.

use minion_simnet::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

/// A queue of timers over keys of type `K`, earliest deadline first.
///
/// Keys identify logical timers ([`crate::Sim`] uses per-flow keys); scheduling a
/// key that is already armed reschedules it.
#[derive(Clone, Debug)]
pub struct TimerWheel<K> {
    /// The time (µs) of the latest [`advance`](Self::advance).
    current: u64,
    /// `(time, key)` entries, earliest first. An entry is live when its key
    /// is armed and queued at its time; any other entry is dead.
    heap: BinaryHeap<Reverse<(u64, K)>>,
    /// Armed key → `(deadline, queued)`: the key's deadline and the time
    /// of its live heap entry (`queued <= deadline`).
    armed: BTreeMap<K, (u64, u64)>,
}

impl<K: Ord + Copy> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> TimerWheel<K> {
    /// An empty queue positioned at t = 0.
    pub fn new() -> Self {
        TimerWheel {
            current: 0,
            heap: BinaryHeap::new(),
            armed: BTreeMap::new(),
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arm (or re-arm) `key` to fire at `deadline`. A deadline at or before
    /// the queue's current position fires on the next [`advance`].
    ///
    /// [`advance`]: Self::advance
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let deadline = deadline.as_micros();
        match self.armed.get_mut(&key) {
            Some((armed, queued)) if *queued <= deadline => *armed = deadline,
            // Unarmed, or moved before its entry, which is now dead.
            _ => {
                self.armed.insert(key, (deadline, deadline));
                self.heap.push(Reverse((deadline, key)));
            }
        }
    }

    /// Disarm `key`. Its heap entry, if any, is dropped lazily.
    pub fn cancel(&mut self, key: K) {
        self.armed.remove(&key);
    }

    /// Bring the earliest live entry to the top at its exact deadline, and
    /// return it: drop dead entries and re-push a live one whose key has
    /// moved later.
    fn settle(&mut self) -> Option<(u64, K)> {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((at, key)) = *top;
            match self.armed.get_mut(&key) {
                Some((deadline, queued)) if *queued == at => {
                    if *deadline == at {
                        return Some((at, key));
                    }
                    *queued = *deadline;
                    *top = Reverse((*deadline, key));
                }
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
        None
    }

    /// The earliest armed deadline, or the queue's position if that is
    /// later; `None` when no timers are armed.
    pub(crate) fn next_wake(&mut self) -> Option<SimTime> {
        let (at, _) = self.settle()?;
        Some(SimTime::from_micros(at.max(self.current)))
    }

    /// Advance the queue to `now`, appending every key whose armed deadline
    /// is `<= now` to `expired` in `(deadline, key)` order. Returns the
    /// number of keys expired.
    pub fn advance(&mut self, now: SimTime, expired: &mut Vec<K>) -> usize {
        let now = now.as_micros();
        debug_assert!(now >= self.current, "time cannot move backwards");
        self.current = now;
        let before = expired.len();
        while let Some((at, key)) = self.settle() {
            if at > now {
                break;
            }
            self.heap.pop();
            self.armed.remove(&key);
            expired.push(key);
        }
        expired.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    fn advance_collect(w: &mut TimerWheel<u32>, to: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.advance(us(to), &mut out);
        out
    }

    #[test]
    fn single_timer_fires_exactly_once_at_its_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, us(500));
        assert_eq!(w.next_wake(), Some(us(500)));
        assert!(advance_collect(&mut w, 499).is_empty());
        assert_eq!(advance_collect(&mut w, 500), vec![1]);
        assert!(w.is_empty());
        assert_eq!(w.next_wake(), None);
        assert!(advance_collect(&mut w, 10_000).is_empty());
    }

    #[test]
    fn expiry_order_is_deadline_then_key() {
        let mut w = TimerWheel::new();
        w.schedule(3u32, us(100));
        w.schedule(1u32, us(100));
        w.schedule(2u32, us(50));
        assert_eq!(advance_collect(&mut w, 100), vec![2, 1, 3]);
    }

    #[test]
    fn reschedule_moves_the_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(7u32, us(100));
        w.schedule(7u32, us(10_000)); // re-arm later; old entry goes stale
        assert!(advance_collect(&mut w, 5_000).is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(advance_collect(&mut w, 10_000), vec![7]);

        // And re-arming earlier fires at the earlier time.
        w.schedule(8u32, us(50_000));
        w.schedule(8u32, us(12_000));
        assert_eq!(advance_collect(&mut w, 12_000), vec![8]);
        assert!(advance_collect(&mut w, 60_000).is_empty());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, us(100));
        w.schedule(2u32, us(100));
        w.cancel(1);
        assert_eq!(w.len(), 1);
        assert_eq!(advance_collect(&mut w, 200), vec![2]);
    }

    #[test]
    fn stepping_wake_to_wake_fires_each_timer_at_its_exact_deadline() {
        // Deadlines either side of 64, 64^2, 64^3 and 64^4 µs, stepped
        // through one wake at a time.
        let deadlines = [
            63u64, 64, 65, 4_095, 4_096, 4_097, 262_143, 262_144, 262_145, 16_777_216,
        ];
        let mut w = TimerWheel::new();
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(i as u32, us(d));
        }
        let mut fired: Vec<(u64, u32)> = Vec::new();
        let mut t = 0;
        while !w.is_empty() {
            let wake = w.next_wake().unwrap().as_micros();
            assert!(wake > t, "next_wake must make progress");
            t = wake;
            let mut out = Vec::new();
            w.advance(us(t), &mut out);
            for k in out {
                fired.push((t, k));
            }
        }
        let got: Vec<(u64, u32)> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let mut expect = got.clone();
        expect.sort_unstable();
        assert_eq!(fired, expect, "each timer fires exactly at its deadline");
    }

    #[test]
    fn jumping_far_past_many_deadlines_fires_them_all() {
        let mut w = TimerWheel::new();
        for k in 0..100u32 {
            w.schedule(k, us(1 + (k as u64) * 977));
        }
        let fired = advance_collect(&mut w, 1_000_000);
        assert_eq!(fired.len(), 100);
        assert!(w.is_empty());
        // Deadline-sorted order.
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        assert_eq!(fired, sorted);
    }

    #[test]
    fn immediate_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new();
        advance_collect(&mut w, 1_000);
        w.schedule(5u32, us(1_000)); // == current
        w.schedule(6u32, us(10)); // in the past
        assert_eq!(w.next_wake(), Some(us(1_000)));
        assert_eq!(advance_collect(&mut w, 1_000), vec![6, 5]);
    }

    #[test]
    fn a_deadline_hours_away_fires_at_its_deadline() {
        let mut w = TimerWheel::new();
        let far = (1u64 << 36) + 12_345; // about 19 hours
        w.schedule(9u32, us(far));
        assert!(advance_collect(&mut w, far - 1).is_empty());
        assert_eq!(w.next_wake(), Some(us(far)));
        assert_eq!(advance_collect(&mut w, far), vec![9]);
        assert_eq!(w.next_wake(), None);
    }

    #[test]
    fn next_wake_is_never_later_than_any_deadline() {
        // Pseudo-random schedule/advance interleaving; the wake estimate must
        // stay conservative and every timer must fire exactly at its deadline.
        let mut w = TimerWheel::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut fired: Vec<(u64, u32)> = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut t: u64 = 0;
        for k in 0..200u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = t + 1 + (x % 300_000);
            w.schedule(k, us(d));
            expected.push((d, k));
            // Every few insertions, advance to the next wake point.
            if k % 3 == 0 {
                while let Some(wake) = w.next_wake() {
                    if wake.as_micros() > t + 50_000 {
                        break;
                    }
                    for (d2, _) in &expected {
                        if *d2 > t && *d2 < wake.as_micros() {
                            panic!("wake {wake} skipped deadline {d2}");
                        }
                    }
                    t = wake.as_micros();
                    let mut out = Vec::new();
                    w.advance(us(t), &mut out);
                    for key in out {
                        fired.push((t, key));
                    }
                }
            }
        }
        let mut out = Vec::new();
        w.advance(us(u32::MAX as u64), &mut out);
        for key in out {
            let d = expected.iter().find(|&&(_, k)| k == key).unwrap().0;
            fired.push((d, key));
        }
        fired.sort_unstable();
        expected.sort_unstable();
        assert_eq!(fired, expected, "every timer fires at its exact deadline");
    }

    #[test]
    fn two_identical_runs_expire_identically() {
        let run = || {
            let mut w = TimerWheel::new();
            let mut log = Vec::new();
            for k in 0..64u32 {
                w.schedule(k, us(10 + (k as u64 * 37) % 500));
            }
            while let Some(wake) = w.next_wake() {
                let t = wake.as_micros();
                let mut out = Vec::new();
                w.advance(wake, &mut out);
                for k in &out {
                    log.push((t, *k));
                    if *k % 2 == 0 {
                        w.schedule(*k + 1000, us(t + 31));
                    }
                }
                if log.len() > 200 {
                    break;
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    /// The naive queue the heap must agree with: key → deadline, expired
    /// by a full scan.
    #[derive(Default)]
    struct Model {
        armed: BTreeMap<u32, u64>,
        position: u64,
    }

    impl Model {
        fn advance(&mut self, to: u64) -> Vec<u32> {
            self.position = to;
            let mut due: Vec<(u64, u32)> = self
                .armed
                .iter()
                .filter(|&(_, &d)| d <= to)
                .map(|(&k, &d)| (d, k))
                .collect();
            due.sort_unstable();
            for (_, k) in &due {
                self.armed.remove(k);
            }
            due.into_iter().map(|(_, k)| k).collect()
        }

        fn next_wake(&self) -> Option<SimTime> {
            let earliest = self.armed.values().min()?;
            Some(us((*earliest).max(self.position)))
        }
    }

    proptest! {
        /// Random schedule/cancel/advance sequences on few keys, so keys
        /// are re-armed earlier, later, a microsecond either side and to
        /// their own or another key's deadline, and deadlines land in the
        /// past, at the position and far ahead.
        /// After every operation the wake is exact and the armed count
        /// agrees; every advance expires exactly the model's keys, in
        /// `(deadline, key)` order.
        #[test]
        fn the_queue_agrees_with_a_naive_model(
            ops in proptest::collection::vec((0u8..5, 0u32..8, 0u64..5_000), 1..200),
        ) {
            let mut w = TimerWheel::new();
            let mut model = Model::default();
            for (op, key, delta) in ops {
                let position = model.position;
                match op {
                    0 | 1 => {
                        let deadline = if op == 0 || model.armed.is_empty() {
                            (position + delta).saturating_sub(500)
                        } else {
                            // -2..=2 µs from an armed deadline (the key's
                            // own or another's), so keys tie and move by
                            // one microsecond.
                            let nth = delta as usize % model.armed.len();
                            let near = model.armed.values().nth(nth).unwrap();
                            (near + delta / 8 % 5).saturating_sub(2)
                        };
                        w.schedule(key, us(deadline));
                        model.armed.insert(key, deadline);
                    }
                    2 => {
                        w.cancel(key);
                        model.armed.remove(&key);
                    }
                    3 => {
                        let to = position + delta;
                        prop_assert_eq!(advance_collect(&mut w, to), model.advance(to));
                    }
                    _ => {
                        if let Some(wake) = w.next_wake() {
                            let to = wake.as_micros();
                            let fired = advance_collect(&mut w, to);
                            prop_assert!(!fired.is_empty(), "a wake with nothing due at {to}");
                            prop_assert_eq!(fired, model.advance(to));
                        }
                    }
                }
                prop_assert_eq!(w.next_wake(), model.next_wake());
                prop_assert_eq!(w.len(), model.armed.len());
            }
        }
    }
}
