//! A shared buffer pool for per-flow payload staging.
//!
//! The pool recycles byte buffers and counts what it does, so the load
//! harness can report **allocs/flow** (`BENCH_engine.json`). The load
//! scenario takes one buffer per flow — the flow's stream — and holds it for
//! the whole run, because delivered chunks are verified against it in place:
//! a run's pool therefore reads one allocation per flow and no reuse.
//!
//! Deliberately simple: single-threaded (the whole simulator is), LIFO free
//! list (the most recently returned buffer is the warmest), bounded retention
//! so a burst does not pin memory forever.

/// Allocation statistics of a [`BufferPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created fresh because the free list was empty.
    pub allocations: u64,
    /// Buffers handed out from the free list (an allocation avoided).
    pub reuses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers dropped on return because the free list was full.
    pub discarded: u64,
    /// Largest number of buffers simultaneously outstanding.
    pub high_water: u64,
}

/// Sharded runs merge their per-shard pools' counters by shard index;
/// `high_water` sums because the pools are disjoint and may be live
/// concurrently. See [`minion_obs::Absorb`] for the merge laws.
impl minion_obs::Absorb for PoolStats {
    fn absorb(&mut self, other: &PoolStats) {
        self.allocations += other.allocations;
        self.reuses += other.reuses;
        self.returns += other.returns;
        self.discarded += other.discarded;
        self.high_water += other.high_water;
    }
}

impl PoolStats {
    /// Fraction of checkouts served without allocating, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.allocations + self.reuses;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }
}

/// A recycling pool of `Vec<u8>` buffers.
#[derive(Clone, Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Capacity given to freshly allocated buffers.
    default_capacity: usize,
    /// Maximum buffers kept on the free list.
    max_retained: usize,
    outstanding: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool whose fresh buffers reserve `default_capacity` bytes and which
    /// retains at most `max_retained` returned buffers.
    pub fn new(default_capacity: usize, max_retained: usize) -> Self {
        BufferPool {
            free: Vec::new(),
            default_capacity,
            max_retained,
            outstanding: 0,
            stats: PoolStats::default(),
        }
    }

    /// Check out an empty buffer (recycled when possible).
    pub fn take(&mut self) -> Vec<u8> {
        self.outstanding += 1;
        self.stats.high_water = self.stats.high_water.max(self.outstanding);
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.reuses += 1;
                buf.clear();
                buf
            }
            None => {
                self.stats.allocations += 1;
                Vec::with_capacity(self.default_capacity)
            }
        }
    }

    /// Return a buffer to the pool.
    pub fn give(&mut self, buf: Vec<u8>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.stats.returns += 1;
        if self.free.len() < self.max_retained {
            self.free.push(buf);
        } else {
            self.stats.discarded += 1;
        }
    }

    /// Buffers currently on the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let mut p = BufferPool::new(64, 8);
        let mut a = p.take();
        a.extend_from_slice(b"data");
        p.give(a);
        let b = p.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 4, "capacity survives recycling");
        assert_eq!(p.stats().allocations, 1);
        assert_eq!(p.stats().reuses, 1);
        assert!((p.stats().reuse_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn retention_is_bounded() {
        let mut p = BufferPool::new(16, 2);
        let bufs: Vec<_> = (0..4).map(|_| p.take()).collect();
        assert_eq!(p.stats().high_water, 4);
        for b in bufs {
            p.give(b);
        }
        assert_eq!(p.idle(), 2);
        assert_eq!(p.stats().discarded, 2);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn empty_pool_reports_zero_ratio() {
        let p = BufferPool::new(16, 2);
        assert_eq!(p.stats().reuse_ratio(), 0.0);
    }

    #[test]
    fn stats_absorb_is_associative_with_default_identity() {
        use minion_obs::Absorb;
        let mk = |k: u64| PoolStats {
            allocations: k,
            reuses: 2 * k,
            returns: 3 * k,
            discarded: k / 3,
            high_water: k,
        };
        let (a, b, c) = (mk(1), mk(7), mk(50));
        let mut left = a;
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b;
        bc.absorb(&c);
        let mut right = a;
        right.absorb(&bc);
        assert_eq!(left, right, "associative");
        assert_eq!(left.high_water, 58, "disjoint pools' high water sums");
        let mut id = PoolStats::default();
        id.absorb(&a);
        assert_eq!(id, a, "default is a left identity");
    }
}
