//! Fixed-slot counter registry.
//!
//! Dynamic metric registries (name → atomic, behind a lock) would make
//! report contents depend on *which* code paths ran first — a determinism
//! hazard. Here the name list is a `&'static [&'static str]` fixed at the
//! instrumentation site and every registry carries the full slot array
//! (untouched slots read 0), so two runs of one seed produce byte-identical
//! registries.

/// A named, fixed-slot array of monotone event counts (saturating).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSet {
    names: &'static [&'static str],
    slots: Vec<u64>,
}

impl CounterSet {
    /// A registry over a fixed name list, all slots zero.
    pub fn new(names: &'static [&'static str]) -> Self {
        CounterSet {
            names,
            slots: vec![0; names.len()],
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
        static NAMES: &[&str] = &["records_enqueued", "records_delivered"];
        let mut c = CounterSet::new(NAMES);
        c.inc(1);
        c.add(1, 4);
        c.add(0, u64::MAX);
        c.inc(0);
        assert_eq!((c.get(0), c.get(1)), (u64::MAX, 5), "saturating adds");
    }
}
