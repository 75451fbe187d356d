//! A counting global allocator for the benchmark binaries.
//!
//! `LoadReport::allocs_per_flow` counts only the scenario's `BufferPool`;
//! this counts every allocation the calling thread makes while its flag is
//! on. The flag stays off while `bench-e2e` times, so the end-to-end
//! numbers pay one thread-local load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread, so `cargo test`'s parallel test threads cannot count into
// each other's windows. `const` initialisers and no destructors: reading
// these from inside the allocator never allocates or runs lazy set-up.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
}

pub struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Record one allocator call that went from `old` to `new` bytes.
fn record(old: usize, new: usize) {
    if !COUNTING.get() {
        return;
    }
    if new > old {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + (new - old) as u64);
    }
    let live = LIVE.get() + new as i64 - old as i64;
    LIVE.set(live);
    PEAK_LIVE.set(PEAK_LIVE.get().max(live));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // A growing realloc is one allocator call that may copy: it counts as
    // one allocation of the bytes it adds. A shrinking one only lowers the
    // live count.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(layout.size(), new_size);
        // SAFETY: `ptr`, its layout and the new size are the caller's,
        // passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the thread allocated while counting was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and growing `realloc`.
    pub allocations: u64,
    /// Bytes those calls added.
    pub bytes: u64,
    /// High-water mark of bytes allocated and not yet freed, relative to
    /// the moment counting started.
    pub peak_live_bytes: u64,
}

/// Run `f` with counting on and return what it allocated. Memory `f` frees
/// that was allocated before it started would drive the live count
/// negative; the peak is clamped at zero.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    ALLOCATIONS.set(0);
    BYTES.set(0);
    LIVE.set(0);
    PEAK_LIVE.set(0);
    COUNTING.set(true);
    let result = f();
    COUNTING.set(false);
    let counts = AllocCounts {
        allocations: ALLOCATIONS.get(),
        bytes: BYTES.get(),
        peak_live_bytes: PEAK_LIVE.get().max(0) as u64,
    };
    (result, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_inside_the_window_and_nothing_outside_it() {
        let (v, counts) = counted(|| black_box(vec![7u8; 4096]));
        assert!(counts.allocations >= 1);
        assert!(counts.bytes >= 4096);
        assert!(counts.peak_live_bytes >= 4096);
        let before = ALLOCATIONS.get();
        drop(v);
        let w = black_box(vec![1u8; 1 << 16]);
        assert_eq!(ALLOCATIONS.get(), before, "the flag really stops counting");
        drop(w);
        let ((), grow) = counted(|| {
            let mut v: Vec<u8> = Vec::with_capacity(16);
            v.extend_from_slice(&[0; 4096]);
            black_box(&v);
        });
        assert_eq!(grow.allocations, 2, "with_capacity + one realloc");
        assert_eq!(grow.bytes, 4096, "16 bytes, then 4080 more");
    }
}
