//! The data path's allocation budget, as a tier-1 test.
//!
//! The benchmark's `alloc.*` rows say what a payload byte and a packet cost
//! in allocator traffic, but only when someone runs the benchmark. This pins
//! the same two figures on a run small enough for every `cargo test`: a
//! copy or a per-segment allocation put back on the path between
//! `tcp_write` and the application read fails here. So does a per-flow
//! fixed cost: what one more flow allocates, both endpoints included, is
//! pinned beside them. Allocation counts of a deterministic program repeat
//! exactly, so the tests cannot flake.
//!
//! The counters are per thread, so the tests do not see each other.

use minion_repro::cobs::{decode_into, encode_into, frame_datagram, max_encoded_len};
use minion_repro::core::{FragmentStore, MinionConfig, UcobsSocket, UtlsSocket};
use minion_repro::engine::{LoadReport, LoadScenario};
use minion_repro::simnet::{LinkConfig, LossConfig, SimDuration};
use minion_repro::stack::{Sim, SocketAddr};
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

/// The allocator calls `work` makes on this thread.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.set(0);
    BYTES.set(0);
    COUNTING.set(true);
    let result = work();
    COUNTING.set(false);
    (result, ALLOCATIONS.get())
}

/// One run of a lossless scenario under the counter.
fn counted(scenario: &LoadScenario) -> Counted {
    let (report, allocations) = allocations_of(|| scenario.run());
    assert_eq!(report.records_delivered, report.records_sent);
    assert!(
        report.per_flow.iter().all(|f| f.retransmissions == 0),
        "lossless"
    );
    Counted {
        report,
        allocations,
        bytes: BYTES.get(),
    }
}

/// One flow of `records` × ~1400 B over the default lossless link.
fn transfer(records: usize) -> Counted {
    counted(&LoadScenario {
        flows: 1,
        records_per_flow: records,
        record_len: 1400,
        ..LoadScenario::default()
    })
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
    // the fixed part of a run (the histograms that saw a sample, the trace
    // ring, two connections' state, the driver's one write buffer — nothing
    // to do with copies) cancels, and what is left is what one more payload
    // byte costs: the send buffer's copy and the packet. The driver keeps no
    // copy of the stream: it builds each write from the stream's formula
    // and checks each delivered chunk against it. 2.29 bytes measured,
    // pinned 10 % above; it read 3.29 while the driver held every flow's
    // whole stream, allocated at exact length, for the run.
    let payload = large.report.total_bytes - small.report.total_bytes;
    let per_byte = (large.bytes - small.bytes) as f64 / payload as f64;
    // Visible with `-- --nocapture`.
    println!(
        "alloc budget: {per_segment:.2} allocations per data segment, \
         {per_byte:.2} bytes allocated per payload byte"
    );
    assert!(
        per_byte <= 2.52,
        "{} more bytes allocated for {payload} more payload bytes = {per_byte:.2} per byte (budget 2.52)",
        large.bytes - small.bytes
    );
}

#[test]
fn one_more_flow_stays_within_its_fixed_footprint() {
    // `flows` × one ~160 B record: all a flow costs here is being a flow.
    let churn = |flows: usize| {
        counted(&LoadScenario {
            records_per_flow: 1,
            ..LoadScenario::with_flows(flows)
        })
    };
    churn(4);

    let small = churn(64);
    let large = churn(128);
    let again = churn(64);
    assert_eq!(
        (small.allocations, small.bytes),
        (again.allocations, again.bytes),
        "allocation counts repeat exactly"
    );

    // The slope between the two sizes: the run's fixed part cancels, and
    // what is left is one more flow — two `TcpConnection`s with their
    // buffers, the handshake, one data segment and its ACK, the FINs, the
    // driver's state and the flow's delay digest. The connections keep no
    // window telemetry: their window samples go to the run's one recorder.
    // 7 893 bytes measured, pinned 10 % above. It read 9 243 while the host
    // kept its sockets in a `BTreeMap` by handle, 9 448 while the driver
    // also kept a copy of each flow's stream, and 34 282 when every
    // connection carried a recorder, whose 8 KiB cwnd histogram both
    // endpoints allocated at the handshake and the driver cloned once more
    // for the client; 82 807 when each endpoint's three histograms all
    // allocated their slots up front. Either is what this is here to catch.
    let per_flow = (large.bytes - small.bytes) / 64;
    println!("alloc budget: {per_flow} bytes allocated per additional flow");
    assert!(
        per_flow <= 8_682,
        "{} more bytes allocated for 64 more flows = {per_flow} per flow (budget 8682)",
        large.bytes - small.bytes
    );
}

/// The uCOBS benchmark workloads' datagram: 1200 bytes, a zero in every 251.
fn datagram() -> Vec<u8> {
    (0..1200usize).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn cobs_kernels_allocate_once_or_not_at_all() {
    let datagram = datagram();

    // One buffer, sized for the worst case before the first byte goes in: a
    // second allocation or a growing `realloc` would both count.
    let (framed, allocations) = allocations_of(|| frame_datagram(&datagram));
    assert_eq!(allocations, 1, "frame_datagram");

    let mut encoded = Vec::with_capacity(max_encoded_len(datagram.len()));
    let ((), allocations) = allocations_of(|| encode_into(&datagram, &mut encoded));
    assert_eq!(allocations, 0, "encode_into with room reserved");
    assert_eq!(encoded, framed[1..framed.len() - 1]);

    let mut decoded = Vec::with_capacity(encoded.len());
    let (result, allocations) = allocations_of(|| decode_into(&encoded, &mut decoded));
    assert_eq!(allocations, 0, "decode_into with room reserved");
    assert_eq!((result, &decoded), (Ok(datagram.len()), &datagram));
}

#[test]
fn ucobs_session_frames_each_datagram_in_one_allocation() {
    // 200 datagrams over a lossless 100 Mbit/s link, handshake to last
    // delivery, both endpoints under the counter.
    let session = || {
        let datagram = datagram();
        let mut sim = Sim::new(16);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        sim.link(
            a,
            b,
            LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
        );
        let config = MinionConfig::with_utcp();
        UcobsSocket::listen(sim.host_mut(b), 9000, &config).expect("listen");
        let now = sim.now();
        let mut tx = UcobsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 9000), &config, now);
        sim.run_for(SimDuration::from_millis(50));
        let mut rx = UcobsSocket::accept(sim.host_mut(b), 9000).expect("accepted");

        let (mut sent, mut delivered) = (0, 0);
        while delivered < 200 {
            while sent < 200 && tx.send_buffer_free(sim.host(a)) >= 2 * datagram.len() {
                tx.send_datagram(sim.host_mut(a), &datagram).expect("send");
                sent += 1;
            }
            sim.run_for(SimDuration::from_millis(10));
            for got in rx.recv(sim.host_mut(b)) {
                assert_eq!(got.payload, datagram);
                delivered += 1;
            }
        }
        assert_eq!(rx.stats().duplicates_suppressed, 0, "lossless");
    };
    session();

    let ((), first) = allocations_of(session);
    let ((), again) = allocations_of(session);
    assert_eq!(first, again, "allocation counts repeat exactly");
    // 1261 measured, pinned 10 % above. 1460 while `send` framed each
    // datagram into a fresh buffer instead of the socket's one reused
    // buffer: one frame allocation fewer per datagram sent. 2845 while
    // `FragmentStore::insert` returned a copy of the run and `recv` cloned
    // each payload out of the scan, 2445 while `insert` and `prune_below`
    // still rebuilt the run they touched: five allocations fewer per
    // datagram received.
    println!("alloc budget: {first} allocations in a 200-datagram uCOBS session");
    assert!(
        first <= 1390,
        "{first} allocations in a 200-datagram uCOBS session (budget 1390)"
    );
}

#[test]
fn ucobs_session_decodes_each_record_once() {
    // 300 × 1200 B uCOBS datagrams over Figure 6's path at 1 % loss,
    // handshake to last delivery, both endpoints and the simulator under the
    // counter. Every decode allocates its payload, so a record decoded twice
    // shows in the bytes as well as in `duplicates_suppressed`.
    const DATAGRAMS: usize = 300;
    let session = || {
        let datagram = datagram();
        let mut sim = Sim::new(22);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        sim.link(
            a,
            b,
            LinkConfig::new(20_000_000, SimDuration::from_millis(30))
                .with_queue_bytes(256 * 1024)
                .with_loss(LossConfig::from_rate(0.01)),
        );
        let config = MinionConfig::default();
        UcobsSocket::listen(sim.host_mut(b), 9000, &config).expect("listen");
        let now = sim.now();
        let mut tx = UcobsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 9000), &config, now);
        sim.run_for(SimDuration::from_millis(200));
        let mut rx = UcobsSocket::accept(sim.host_mut(b), 9000).expect("accepted");

        let (mut sent, mut delivered) = (0, 0);
        while delivered < DATAGRAMS {
            while sent < DATAGRAMS && tx.send_buffer_free(sim.host(a)) > 4 * datagram.len() {
                tx.send_datagram(sim.host_mut(a), &datagram).expect("send");
                sent += 1;
            }
            sim.run_for(SimDuration::from_millis(20));
            for got in rx.recv(sim.host_mut(b)) {
                assert_eq!(got.payload, datagram);
                delivered += 1;
            }
        }
        let stats = rx.stats();
        assert!(stats.out_of_order_received > 0, "the loss opened a hole");
        assert_eq!(stats.duplicates_suppressed, 0, "each record decoded once");
    };
    session();

    let ((), first) = allocations_of(session);
    let bytes = BYTES.get();
    let ((), again) = allocations_of(session);
    assert_eq!(
        (first, bytes),
        (again, BYTES.get()),
        "allocation counts repeat exactly"
    );
    // 1 478 285 bytes = 4.11 per payload byte measured, pinned 10 % above:
    // send buffer, packets, the store's growth and one decode per record.
    // 5.11 while `send` framed each datagram into a fresh buffer: one frame
    // allocation fewer per datagram sent. 6.71 while `recv` re-scanned the
    // whole run behind a hole and decoded 466 records a second time.
    let per_byte = bytes as f64 / (DATAGRAMS * 1200) as f64;
    println!(
        "alloc budget: {bytes} bytes allocated in a {DATAGRAMS}-datagram uCOBS session \
         = {per_byte:.2} per payload byte"
    );
    assert!(
        per_byte <= 4.5,
        "{bytes} bytes allocated for {DATAGRAMS} datagrams = {per_byte:.2} per payload byte (budget 4.5)"
    );
}

#[test]
fn fragment_store_appends_in_place() {
    // 10 000 segments, in order, into a store nobody prunes: one run that
    // grows by doubling like any `Vec`, so all of it costs a small multiple
    // of the stream. Rebuilding the run per arrival cost its length each
    // time: 5000 × the stream here.
    const SEGMENTS: u64 = 10_000;
    let segment = [0xA5u8; 1448];
    let (store, _) = allocations_of(|| {
        let mut store = FragmentStore::new();
        for i in 0..SEGMENTS {
            store.insert(i * segment.len() as u64, &segment);
        }
        store
    });
    let stream = SEGMENTS * segment.len() as u64;
    assert_eq!(store.buffered_bytes() as u64, stream);
    assert_eq!(store.fragment_count(), 1);
    let allocated = BYTES.get();
    println!("alloc budget: {allocated} bytes allocated to store a {stream}-byte stream");
    assert!(
        allocated <= 4 * stream,
        "{allocated} bytes allocated to store {stream} (budget 4 per byte)"
    );
}

#[test]
fn utls_session_allocates_per_byte_received_not_per_byte_held() {
    // 300 × 1200 B uTLS datagrams over Figure 6's path at 1 % loss,
    // handshake to last delivery, both endpoints and the simulator under the
    // counter.
    const DATAGRAMS: usize = 300;
    let session = || {
        let datagram = datagram();
        let mut sim = Sim::new(22);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        sim.link(
            a,
            b,
            LinkConfig::new(20_000_000, SimDuration::from_millis(30))
                .with_queue_bytes(256 * 1024)
                .with_loss(LossConfig::from_rate(0.01)),
        );
        let config = MinionConfig::default();
        UtlsSocket::listen(sim.host_mut(b), 443, &config).expect("listen");
        let now = sim.now();
        let mut tx = UtlsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 443), &config, now);
        sim.run_for(SimDuration::from_millis(200));
        let mut rx = UtlsSocket::accept(sim.host_mut(b), 443, &config).expect("accepted");
        while !(tx.is_established() && rx.is_established()) {
            let _ = rx.recv(sim.host_mut(b));
            let _ = tx.recv(sim.host_mut(a));
            sim.run_for(SimDuration::from_millis(80));
        }

        let (mut sent, mut delivered) = (0, 0);
        while delivered < DATAGRAMS {
            while sent < DATAGRAMS && tx.send_buffer_free(sim.host(a)) > 4 * datagram.len() {
                tx.send_datagram(sim.host_mut(a), &datagram).expect("send");
                sent += 1;
            }
            sim.run_for(SimDuration::from_millis(20));
            for got in rx.recv(sim.host_mut(b)) {
                assert_eq!(got.payload, datagram);
                delivered += 1;
            }
        }
        let stats = rx.receiver_stats().expect("uTCP receiver is on");
        assert!(stats.out_of_order_delivered > 0, "the loss opened a hole");
        assert_eq!(
            stats.in_order_opens + stats.out_of_order_delivered,
            DATAGRAMS as u64,
            "every record opened once"
        );
    };
    session();

    let ((), first) = allocations_of(session);
    let bytes = BYTES.get();
    let ((), again) = allocations_of(session);
    assert_eq!(
        (first, bytes),
        (again, BYTES.get()),
        "allocation counts repeat exactly"
    );
    // 4 450 562 bytes = 12.36 per payload byte measured, pinned 10 % above:
    // seal, send buffer, packets, the store's growth and one `open` per
    // record. 240.07 when the receiver kept the whole stream and `insert`
    // rebuilt the head run on every arrival.
    let per_byte = bytes as f64 / (DATAGRAMS * 1200) as f64;
    println!(
        "alloc budget: {bytes} bytes allocated in a {DATAGRAMS}-datagram uTLS session \
         = {per_byte:.2} per payload byte"
    );
    assert!(
        per_byte <= 13.6,
        "{bytes} bytes allocated for {DATAGRAMS} datagrams = {per_byte:.2} per payload byte (budget 13.6)"
    );
}
