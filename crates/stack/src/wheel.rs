//! A hierarchical timer wheel for multiplexing thousands of connection
//! timers.
//!
//! A naive driver asks every connection for its next timer on every event
//! (`O(flows)` per event). The wheel replaces that scan with `O(1)`
//! scheduling and near-`O(1)` next-deadline queries, in the style of the
//! kernel timer wheel and tokio's timer driver:
//!
//! * **Levels.** `LEVELS` levels of [`SLOTS`] slots each; a slot at level
//!   `L` spans `SLOTS^L` ticks (one tick = one microsecond, the simulator's
//!   native resolution, so level-0 expiry times are *exact*). An entry lives
//!   at the level where its deadline's slot path first diverges from the
//!   current time's — guaranteeing it is cascaded down exactly when the
//!   wheel's notion of "now" enters its slot.
//! * **Occupancy bitmaps.** Each level keeps a `u64` bitmap of non-empty
//!   slots, so finding the next occupied slot is a couple of bit operations
//!   rather than a scan, and the driver can jump virtual time directly to the
//!   next deadline.
//! * **Lazy cancellation.** Rescheduling or cancelling only updates the
//!   `armed` map; the superseded slot entry is discarded when its slot
//!   drains. TCP re-arms its RTO on every ACK, so cheap rescheduling is the
//!   common case that matters.
//!
//! Determinism: expiries are reported in `(deadline, key)` order, making the
//! wheel's behaviour independent of insertion history.

use minion_simnet::SimTime;
use std::collections::BTreeMap;

/// Slots per level (64, so occupancy fits one `u64` bitmap).
pub const SLOTS: usize = 64;
/// Number of levels. Six 64-slot levels of 1 µs ticks give a horizon of
/// `64^6` µs ≈ 19.5 hours, far beyond any transport timer (max RTO 60 s).
const LEVELS: usize = 6;

const SLOT_BITS: u32 = 6;
/// Ticks covered by the whole wheel.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[derive(Clone, Copy, Debug)]
struct Entry<K> {
    deadline: u64,
    key: K,
}

/// A hierarchical timer wheel over keys of type `K`.
///
/// Keys identify logical timers ([`crate::Sim`] uses per-flow keys); scheduling a
/// key that is already armed reschedules it.
#[derive(Clone, Debug)]
pub struct TimerWheel<K> {
    /// Current time in ticks (µs). All armed deadlines are `> current` except
    /// transiently inside `advance`.
    current: u64,
    slots: Vec<Vec<Entry<K>>>,
    /// Per-level bitmap of non-empty slots (bit `s` set ⇔ `slot(level, s)`
    /// holds entries, possibly stale).
    occupied: [u64; LEVELS],
    /// The authoritative key → deadline map; slot entries not matching it are
    /// stale and dropped when their slot drains.
    armed: BTreeMap<K, u64>,
    /// Keys scheduled at or before `current` (fire on the next `advance`).
    immediate: Vec<Entry<K>>,
}

impl<K: Ord + Copy> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> TimerWheel<K> {
    /// An empty wheel positioned at t = 0.
    pub fn new() -> Self {
        TimerWheel {
            current: 0,
            slots: (0..SLOTS * LEVELS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            armed: BTreeMap::new(),
            immediate: Vec::new(),
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

    /// The wheel's current position.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.current)
    }

    fn slot_index(level: usize, tick: u64) -> usize {
        level * SLOTS + ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// The level at which a future deadline must be stored: the highest slot
    /// group in which it differs from `current`.
    fn level_for(&self, deadline: u64) -> usize {
        debug_assert!(deadline > self.current);
        let diverge = deadline ^ self.current;
        ((63 - diverge.leading_zeros()) / SLOT_BITS) as usize
    }

    fn insert(&mut self, deadline: u64, key: K) {
        if deadline <= self.current {
            self.immediate.push(Entry { deadline, key });
            return;
        }
        // Deadlines beyond the horizon park at the wheel's farthest slot and
        // re-insert when it drains (they cascade toward their true deadline).
        let capped = deadline.min(self.current + HORIZON - 1);
        let level = self.level_for(capped).min(LEVELS - 1);
        let idx = Self::slot_index(level, capped);
        self.slots[idx].push(Entry { deadline, key });
        self.occupied[level] |= 1 << (idx - level * SLOTS);
    }

    /// Arm (or re-arm) `key` to fire at `deadline`. A deadline at or before
    /// the wheel's current position fires on the next [`advance`].
    ///
    /// [`advance`]: Self::advance
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let deadline = deadline.as_micros();
        self.armed.insert(key, deadline);
        self.insert(deadline, key);
    }

    /// Disarm `key`. The stale slot entry, if any, is dropped lazily.
    pub fn cancel(&mut self, key: K) {
        self.armed.remove(&key);
    }

    /// A time at or before the earliest armed deadline, or `None` when no
    /// timers are armed.
    ///
    /// Level-0 results are exact. Higher-level results are conservative (the
    /// start of the next occupied slot): advancing to the returned time
    /// cascades the slot so the next query refines it, which is how an
    /// event-driven caller converges on exact deadlines in `O(levels)` hops
    /// instead of scanning every timer.
    pub(crate) fn next_wake(&self) -> Option<SimTime> {
        if self.armed.is_empty() {
            return None;
        }
        if !self.immediate.is_empty() {
            return Some(SimTime::from_micros(self.current));
        }
        for level in 0..LEVELS {
            let cur_slot =
                ((self.current >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            // Slots strictly after the current one at this level; earlier
            // slots belong to the next rotation, which a higher level covers.
            let later = self.occupied[level] & !(u64::MAX >> (63 - cur_slot)) & !(1 << cur_slot);
            if later != 0 {
                let s = later.trailing_zeros() as u64;
                let span = 1u64 << (SLOT_BITS * level as u32);
                let base = self.current & !((span << SLOT_BITS) - 1);
                let slot_start = base + s * span;
                if level == 0 {
                    // Exact: every entry in a level-0 slot shares its tick.
                    return Some(SimTime::from_micros(slot_start));
                }
                return Some(SimTime::from_micros(slot_start.max(self.current + 1)));
            }
        }
        // All remaining timers sit in slots at or before the current path
        // (i.e. the next rotation of some level). The next interesting moment
        // is the next slot boundary of the smallest level that wraps.
        for level in 0..LEVELS {
            if self.occupied[level] != 0 {
                let span = 1u64 << (SLOT_BITS * level as u32);
                let next_boundary = (self.current / span + 1) * span;
                return Some(SimTime::from_micros(next_boundary));
            }
        }
        None
    }

    /// Advance the wheel to `now`, appending every key whose armed deadline
    /// is `<= now` to `expired` in `(deadline, key)` order. Returns the
    /// number of keys expired.
    pub fn advance(&mut self, now: SimTime, expired: &mut Vec<K>) -> usize {
        let target = now.as_micros();
        debug_assert!(target >= self.current, "time cannot move backwards");
        let mut due: Vec<Entry<K>> = Vec::new();

        // Immediately-due keys (scheduled at or before the then-current time).
        let mut i = 0;
        while i < self.immediate.len() {
            if self.immediate[i].deadline <= target {
                due.push(self.immediate.swap_remove(i));
            } else {
                i += 1;
            }
        }

        while self.current < target {
            let Some(next) = self.next_wake() else {
                self.current = target;
                break;
            };
            let next = next.as_micros().max(self.current + 1);
            if next > target {
                self.current = target;
                break;
            }
            self.current = next;
            // Drain every slot on the current path whose position changed:
            // level 0 always (its slot == the current tick), higher levels
            // only at their boundaries (a cascade).
            for level in 0..LEVELS {
                let span_bits = SLOT_BITS * level as u32;
                if level > 0 && self.current & ((1u64 << span_bits) - 1) != 0 {
                    break; // Not at this level's slot boundary: no cascade.
                }
                let idx = Self::slot_index(level, self.current);
                if self.slots[idx].is_empty() {
                    continue;
                }
                self.occupied[level] &= !(1 << (idx - level * SLOTS));
                let entries = std::mem::take(&mut self.slots[idx]);
                for e in entries {
                    match self.armed.get(&e.key) {
                        Some(&d) if d == e.deadline => {
                            if d <= self.current {
                                due.push(e);
                            } else {
                                // Re-insert: either a cascade toward a lower
                                // level or a parked beyond-horizon entry.
                                self.insert(d, e.key);
                            }
                        }
                        _ => {} // Stale (rescheduled or cancelled): drop.
                    }
                }
            }
        }

        due.sort_unstable_by_key(|e| (e.deadline, e.key));
        let mut fired = 0;
        for e in due {
            // Re-check: an earlier expiry in this batch cannot re-arm (the
            // caller hasn't run yet), but immediate entries may duplicate a
            // slot entry after a reschedule; the map is authoritative.
            if self.armed.get(&e.key) == Some(&e.deadline) {
                self.armed.remove(&e.key);
                expired.push(e.key);
                fired += 1;
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Conservative: a wake estimate never overshoots the deadline.
        let wake = w.next_wake().expect("armed");
        assert!(wake <= us(500) && wake > us(0), "wake={wake}");
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
    fn deadlines_across_level_boundaries_are_exact() {
        // Deadlines straddling 64, 64^2, 64^3 tick boundaries must cascade
        // down and fire at their exact microsecond.
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
    fn beyond_horizon_deadline_parks_and_still_fires() {
        let mut w = TimerWheel::new();
        let far = HORIZON + 12_345;
        w.schedule(9u32, us(far));
        assert!(advance_collect(&mut w, HORIZON - 1).is_empty());
        let mut fired = Vec::new();
        let mut guard = 0;
        while !w.is_empty() {
            let wake = w.next_wake().unwrap();
            w.advance(wake, &mut fired);
            guard += 1;
            assert!(guard < 100, "parked entry must converge quickly");
        }
        assert_eq!(fired, vec![9]);
        assert!(w.now().as_micros() >= far);
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
}
