//! Fixed-slot counter registry.
//!
//! Dynamic metric registries (name → atomic, behind a lock) would make
//! report contents depend on *which* code paths ran first — a determinism
//! hazard. Here the slot count is fixed at the instrumentation site, whose
//! slot constants name each slot, and every registry carries the full slot
//! array (untouched slots read 0), so two runs of one seed produce
//! byte-identical registries.

/// A fixed-slot array of monotone event counts (saturating).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSet {
    slots: Vec<u64>,
}

impl CounterSet {
    /// A registry of `slots` slots, all zero.
    pub fn new(slots: usize) -> Self {
        CounterSet {
            slots: vec![0; slots],
        }
    }

    /// Add `n` to slot `idx`.
    pub fn add(&mut self, idx: usize, n: u64) {
        self.slots[idx] = self.slots[idx].saturating_add(n);
    }

    /// Add one to slot `idx`.
    pub fn inc(&mut self, idx: usize) {
        self.add(idx, 1);
    }

    /// Value of slot `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.slots[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_saturating() {
        let mut c = CounterSet::new(2);
        c.inc(1);
        c.add(1, 4);
        c.add(0, u64::MAX);
        c.inc(0);
        assert_eq!((c.get(0), c.get(1)), (u64::MAX, 5), "saturating adds");
    }
}
