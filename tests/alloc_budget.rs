//! The data path's allocation budget, as a tier-1 test.
//!
//! The benchmark's `alloc.*` rows say what a payload byte and a packet cost
//! in allocator traffic, but only when someone runs the benchmark. This pins
//! the same two figures on a run small enough for every `cargo test`: a
//! copy or a per-segment allocation put back on the path between
//! `tcp_write` and the application read fails here. Allocation counts of a
//! deterministic program repeat exactly, so the test cannot flake.
//!
//! One test only: the counters are per thread, but the figures are easier to
//! trust when nothing else shares the binary.

use minion_repro::engine::{LoadReport, LoadScenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers, no destructors: reading these from inside the
    // allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One allocator call that grew a block from `old` to `new` bytes.
fn record(old: usize, new: usize) {
    if COUNTING.get() && new > old {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + (new - old) as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's layout, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's layout, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(layout.size(), new_size);
        // SAFETY: `ptr`, its layout and the new size are the caller's,
        // passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

struct Counted {
    report: LoadReport,
    allocations: u64,
    bytes: u64,
}

/// One flow of `records` × ~1400 B over the default lossless link, run
/// under the counter.
fn transfer(records: usize) -> Counted {
    let scenario = LoadScenario {
        flows: 1,
        records_per_flow: records,
        record_len: 1400,
        ..LoadScenario::default()
    };
    ALLOCATIONS.set(0);
    BYTES.set(0);
    COUNTING.set(true);
    let report = scenario.run();
    COUNTING.set(false);
    assert_eq!(report.records_delivered, records as u64);
    assert_eq!(report.per_flow[0].retransmissions, 0, "lossless");
    Counted {
        report,
        allocations: ALLOCATIONS.get(),
        bytes: BYTES.get(),
    }
}

#[test]
fn bulk_path_stays_within_its_allocation_budget() {
    // Whatever the process sets up lazily on first use is not the path's.
    transfer(4);

    let small = transfer(64);
    let large = transfer(128);
    let again = transfer(64);
    assert_eq!(
        (small.allocations, small.bytes),
        (again.allocations, again.bytes),
        "allocation counts repeat exactly"
    );

    // Every allocation of the run — set-up, handshake, ACKs, teardown
    // included — shared out over the data segments alone. A lossless sender
    // fills its segments, so the payload over the default 1448-byte MSS is
    // their number (rounded down: the bound only gets stricter).
    let data_segments = small.report.total_bytes / 1448;
    let per_segment = small.allocations as f64 / data_segments as f64;
    assert!(
        per_segment <= 6.0,
        "{} allocations over {data_segments} data segments = {per_segment:.2} per segment (budget 6)",
        small.allocations
    );

    // Bytes allocated per payload byte, as the slope between the two sizes:
    // the fixed part of a run (histograms, the trace ring, two connections'
    // state — about 2 bytes per payload byte at 64 records, and nothing to
    // do with copies) cancels, and what is left is what one more payload
    // byte costs: the driver's stream, the send buffer's copy, the packet.
    let payload = large.report.total_bytes - small.report.total_bytes;
    let per_byte = (large.bytes - small.bytes) as f64 / payload as f64;
    // Visible with `-- --nocapture`.
    println!(
        "alloc budget: {per_segment:.2} allocations per data segment, \
         {per_byte:.2} bytes allocated per payload byte"
    );
    assert!(
        per_byte <= 4.0,
        "{} more bytes allocated for {payload} more payload bytes = {per_byte:.2} per byte (budget 4)",
        large.bytes - small.bytes
    );
}
