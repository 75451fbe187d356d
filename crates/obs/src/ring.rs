//! One bounded ring: the mechanism under the lifecycle trace
//! ([`TraceRing`](crate::TraceRing)) and the window trajectory
//! ([`CcObs`](crate::CcObs)).

use std::collections::VecDeque;

/// A bounded ring of the most recent `T`s: it keeps the last `cap`, evicts
/// the oldest when full, and counts what it recorded and what it dropped.
/// A cap of 0 keeps nothing but still counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring<T> {
    pub(crate) cap: usize,
    items: VecDeque<T>,
    recorded: u64,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring keeping at most `cap` items (`cap == 0` keeps nothing but
    /// still counts).
    pub fn new(cap: usize) -> Self {
        Ring {
            cap,
            items: VecDeque::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append an item, evicting the oldest if full.
    pub fn push(&mut self, item: T) {
        self.recorded += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.items.len() == self.cap {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Items currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &T> + '_ {
        self.items.iter()
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total items ever pushed (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items evicted or rejected by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_cap_ring_keeps_nothing_and_counts_everything() {
        let mut r = Ring::new(0);
        r.push(1u8);
        r.push(2);
        assert!(r.is_empty());
        assert_eq!((r.recorded(), r.dropped()), (2, 2));
    }
}
