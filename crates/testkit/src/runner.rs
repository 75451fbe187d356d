//! Cell execution: drive one protocol across one generated world, collect a
//! [`CellReport`], and assert the paper's invariants.
//!
//! Two drivers: `run_datagrams` sends and collects datagrams over
//! `core::MinionTransport`, whichever of uCOBS and uTLS the cell names, and
//! `run_mstcp` drives msTCP's streams. A matrix is one `minion-exec` batch
//! of cells.

use crate::axes::{CellSpec, MiddleboxAxis, PayloadProtocol, StackMode};
use crate::world::{build_world, CellWorld};
use minion_core::{MinionConfig, MinionTransport, Protocol};
use minion_mstcp::{MsTcpConnection, StreamId};
use minion_simnet::{fnv1a, SimDuration, SimTime, FNV_OFFSET_BASIS};
use minion_stack::{Host, Reaction, SocketAddr};
use std::collections::BTreeMap;

/// Number of msTCP streams a matrix cell multiplexes messages over.
const MSTCP_STREAMS: u32 = 4;

/// Everything observable about one cell run. Two runs of the same cell under
/// the same seed must produce equal reports (`verify_cell` asserts this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellReport {
    /// The cell's label (axes summary).
    pub label: String,
    /// Datagrams (or msTCP messages) sent.
    pub sent: u64,
    /// Datagrams (or msTCP messages) fully delivered.
    pub delivered: u64,
    /// Transport-level out-of-order deliveries observed at the receiver.
    pub out_of_order: u64,
    /// Duplicate records suppressed by the receiver (uCOBS path).
    pub duplicates_suppressed: u64,
    /// MAC-rejected record candidates (uTLS guess-and-verify; rejected
    /// guesses are normal, accepted-but-wrong ones are impossible).
    pub mac_rejected_candidates: u64,
    /// Wire bytes the sender's endpoint emitted (payload + framing).
    pub wire_bytes_sent: u64,
    /// Order-insensitive FNV fingerprint of the delivered payload multiset.
    /// On a multi-flow cell, where every delivered byte was checked against
    /// its stream's formula, it is instead the wrapping sum over flows of
    /// each flow's chunk-arrival fingerprint
    /// ([`minion_engine::FlowMetrics::fingerprint`]: offset, length and
    /// order flag of each chunk, in arrival order).
    pub payload_fingerprint: u64,
    /// Order-sensitive FNV fingerprint of the delivery sequence. On a
    /// multi-flow cell: FNV-1a over each flow's chunk-arrival fingerprint
    /// and completion time, in flow order.
    pub delivery_order_fingerprint: u64,
    /// Virtual time (µs) at which the last payload was delivered.
    pub completion_time_us: u64,
    /// Segments split by the middlebox (0 without a splitting middlebox).
    pub middlebox_splits: u64,
    /// Segments coalesced by the middlebox.
    pub middlebox_coalesces: u64,
    /// Delivery-delay p50 in virtual ns (interpolated within one of 16
    /// linear sub-buckets of its octave; engine obs layer — multi-flow
    /// cells only, 0 on the single-flow drivers).
    pub delivery_delay_p50_ns: u64,
    /// Delivery-delay p99 in virtual ns (multi-flow cells only).
    pub delivery_delay_p99_ns: u64,
    /// Delivery-delay p99.9 in virtual ns (multi-flow cells only).
    pub delivery_delay_p999_ns: u64,
    /// Exact integer mean delivery delay in virtual ns (multi-flow only).
    pub delivery_delay_mean_ns: u64,
    /// Lifecycle trace events recorded (multi-flow cells only).
    pub trace_events: u64,
    /// Order-sensitive fingerprint of the lifecycle trace (multi-flow
    /// cells only) — part of the two-run and any-thread-count identity.
    pub trace_fingerprint: u64,
    /// Congestion-window transition samples recorded across the cell's
    /// client flows (multi-flow cells only).
    pub cc_cwnd_samples: u64,
    /// Recovery episodes completed across the cell's client flows
    /// (multi-flow cells only).
    pub cc_recovery_events: u64,
    /// p99 of recovery-episode duration in virtual ns (multi-flow only).
    pub cc_recovery_p99_ns: u64,
}

/// Deterministic payload for datagram/message `i` of a cell: the index is
/// embedded in the first four bytes so every payload is distinct, lengths
/// vary around the nominal size, and the tail is a position-dependent
/// pattern so corruption or mis-reassembly cannot cancel out.
fn cell_payload(spec: &CellSpec, i: usize) -> Vec<u8> {
    let len = spec.datagram_len / 2 + (i * 131) % spec.datagram_len.max(2);
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(i as u32).to_be_bytes());
    out.extend((0..len).map(|j| ((i * 197 + j * 31) % 251) as u8));
    out
}

fn configs(spec: &CellSpec) -> (MinionConfig, MinionConfig) {
    let mut sender = MinionConfig::with_utcp()
        .with_psk(b"matrix-cell-psk")
        .with_seed(spec.seed ^ 0xa11c_e5ee);
    let receiver_base = match spec.receiver_stack {
        StackMode::Standard => MinionConfig::without_utcp(),
        StackMode::Utcp => MinionConfig::with_utcp(),
    };
    let mut receiver = receiver_base
        .with_psk(b"matrix-cell-psk")
        .with_seed(spec.seed ^ 0xb0b5_eed5);
    sender.tcp = sender.tcp.with_cc(spec.cc);
    receiver.tcp = receiver.tcp.with_cc(spec.cc);
    (sender, receiver)
}

struct Delivery {
    payload: Vec<u8>,
    time_us: u64,
}

/// Shared bookkeeping across the two drivers.
struct Collected {
    deliveries: Vec<Delivery>,
    out_of_order: u64,
    duplicates_suppressed: u64,
    mac_rejected_candidates: u64,
    wire_bytes_sent: u64,
    middlebox_splits: u64,
    middlebox_coalesces: u64,
}

/// Read the middlebox counters out of a consumed world.
fn middlebox_counters(world: &CellWorld) -> (u64, u64) {
    match world.middlebox {
        Some(mb) => {
            let stats = world.sim.middlebox(mb).stats();
            (stats.splits, stats.coalesces)
        }
        None => (0, 0),
    }
}

const ESTABLISH_DEADLINE: SimDuration = SimDuration::from_secs(20);
const TRANSFER_DEADLINE: SimDuration = SimDuration::from_secs(120);

/// The first stage of both drivers: listen on the receiver, connect from the
/// sender, and run the world until the receiver accepts. Returns the two
/// ends and the deadline the stage ran against.
fn establish<T>(
    world: &mut CellWorld,
    spec: &CellSpec,
    port: u16,
    listen: impl FnOnce(&mut Host),
    connect: impl FnOnce(&mut Host, SocketAddr, SimTime) -> T,
    mut accept: impl FnMut(&mut Host) -> Option<T>,
) -> (T, T, SimTime) {
    let receiver = world.receiver;
    listen(world.sim.host_mut(receiver));
    let now = world.sim.now();
    let tx = connect(
        world.sim.host_mut(world.sender),
        SocketAddr::new(receiver, port),
        now,
    );
    let deadline = now + ESTABLISH_DEADLINE;
    let mut rx = None;
    let accepted = world.sim.drive(deadline, |sim| {
        rx = accept(sim.host_mut(receiver));
        match rx {
            Some(_) => Reaction::Done,
            None => Reaction::Wait(None),
        }
    });
    assert!(
        accepted,
        "[{}] {:?} connection never established",
        spec.label(),
        spec.protocol
    );
    (tx, rx.expect("accepted"), deadline)
}

/// Drive a datagram protocol — uCOBS or uTLS — across the cell's world
/// through the one transport type both hide behind.
fn run_datagrams(spec: &CellSpec, protocol: Protocol) -> Collected {
    let mut world = build_world(spec);
    let (sender_cfg, receiver_cfg) = configs(spec);
    let port = 9000;
    let (sender, receiver) = (world.sender, world.receiver);
    let (mut tx, mut rx, establish_deadline) = establish(
        &mut world,
        spec,
        port,
        |host| MinionTransport::listen(protocol, host, port, &receiver_cfg).unwrap(),
        |host, remote, now| {
            MinionTransport::connect(protocol, host, remote, &sender_cfg, now).unwrap()
        },
        |host| MinionTransport::accept(protocol, host, port, &receiver_cfg),
    );
    // uCOBS sends as soon as the connection is accepted: its writes queue
    // behind TCP's handshake. uTLS can seal nothing before its keys exist,
    // so both ends run its handshake first (the server consumes the hello
    // and responds, the client consumes the response).
    if protocol == Protocol::Utls {
        let shaken = world.sim.drive(establish_deadline, |sim| {
            rx.recv(sim.host_mut(receiver));
            tx.recv(sim.host_mut(sender));
            if rx.is_established(sim.host(receiver)) && tx.is_established(sim.host(sender)) {
                Reaction::Done
            } else {
                Reaction::Wait(None)
            }
        });
        assert!(shaken, "[{}] uTLS handshake never completed", spec.label());
    }
    for i in 0..spec.datagrams {
        tx.send_datagram(world.sim.host_mut(sender), &cell_payload(spec, i))
            .unwrap();
    }
    let mut deliveries = Vec::new();
    let deadline = world.sim.now() + TRANSFER_DEADLINE;
    world.sim.drive(deadline, |sim| {
        let time_us = sim.now().as_micros();
        for d in rx.recv(sim.host_mut(receiver)) {
            deliveries.push(Delivery {
                payload: d.payload,
                time_us,
            });
        }
        if deliveries.len() < spec.datagrams {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });
    let mac_rejected_candidates = match &rx {
        MinionTransport::Utls(rx) => {
            assert_eq!(
                rx.out_of_order_active(),
                spec.receiver_stack == StackMode::Utcp,
                "[{}] uTLS out-of-order mode must track the receiver's uTCP support",
                spec.label()
            );
            rx.receiver_stats().map_or(0, |s| s.rejected_candidates)
        }
        _ => 0,
    };
    let (middlebox_splits, middlebox_coalesces) = middlebox_counters(&world);
    Collected {
        deliveries,
        out_of_order: rx.stats().out_of_order_received,
        duplicates_suppressed: rx.stats().duplicates_suppressed,
        mac_rejected_candidates,
        wire_bytes_sent: tx.stats().wire_bytes_sent,
        middlebox_splits,
        middlebox_coalesces,
    }
}

fn run_mstcp(spec: &CellSpec) -> Collected {
    let mut world = build_world(spec);
    let (sender_cfg, receiver_cfg) = configs(spec);
    let port = 8080;
    let (mut tx, mut rx, _) = establish(
        &mut world,
        spec,
        port,
        |host| MsTcpConnection::listen(host, port, &receiver_cfg).unwrap(),
        |host, remote, now| MsTcpConnection::connect(host, remote, &sender_cfg, now),
        |host| MsTcpConnection::accept(host, port),
    );
    // Round-robin messages over the streams; per-stream message order is the
    // send order, which the per-stream ordering invariant checks against.
    let streams: Vec<StreamId> = (0..MSTCP_STREAMS).map(|_| tx.open_stream()).collect();
    let mut expected_per_stream: BTreeMap<StreamId, Vec<u8>> = BTreeMap::new();
    for i in 0..spec.datagrams {
        let stream = streams[i % streams.len()];
        let payload = cell_payload(spec, i);
        expected_per_stream
            .entry(stream)
            .or_default()
            .extend_from_slice(&payload);
        tx.send_message(world.sim.host_mut(world.sender), stream, &payload, false, 0)
            .unwrap();
    }
    let mut deliveries = Vec::new();
    let mut received_per_stream: BTreeMap<StreamId, Vec<u8>> = BTreeMap::new();
    let mut open_message: BTreeMap<StreamId, Vec<u8>> = BTreeMap::new();
    let deadline = world.sim.now() + TRANSFER_DEADLINE;
    let receiver = world.receiver;
    world.sim.drive(deadline, |sim| {
        let time_us = sim.now().as_micros();
        for ev in rx.recv(sim.host_mut(receiver)) {
            received_per_stream
                .entry(ev.stream)
                .or_default()
                .extend_from_slice(&ev.data);
            let buf = open_message.entry(ev.stream).or_default();
            buf.extend_from_slice(&ev.data);
            if ev.end_of_message {
                deliveries.push(Delivery {
                    payload: std::mem::take(buf),
                    time_us,
                });
            }
        }
        if deliveries.len() < spec.datagrams {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });
    // Per-stream ordering: each stream's bytes are exactly the concatenation
    // of its messages in send order.
    for (stream, expected) in &expected_per_stream {
        let got = received_per_stream
            .get(stream)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        assert_eq!(
            got,
            expected.as_slice(),
            "[{}] msTCP stream {stream} bytes must arrive complete and in per-stream order",
            spec.label()
        );
    }
    let transport = tx.transport_stats().clone();
    let rx_transport = rx.transport_stats().clone();
    let (middlebox_splits, middlebox_coalesces) = middlebox_counters(&world);
    Collected {
        deliveries,
        out_of_order: rx_transport.out_of_order_received,
        duplicates_suppressed: rx_transport.duplicates_suppressed,
        mac_rejected_candidates: 0,
        wire_bytes_sent: transport.wire_bytes_sent,
        middlebox_splits,
        middlebox_coalesces,
    }
}

/// Run one cell once and assert the paper's invariants; returns the report.
///
/// Panics (with the cell label in the message) on any violation: lost,
/// duplicated, or corrupted payloads; out-of-order delivery on a standard-TCP
/// receiver; missing out-of-order delivery when the cell makes it mandatory;
/// or a middlebox that failed to exercise its behaviour.
fn run_cell(spec: &CellSpec) -> CellReport {
    if spec.flows > 1 {
        // Multi-flow cells run through `minion-engine`'s load scenario, which
        // asserts the per-flow invariants itself.
        return crate::load::run_load_cell(spec);
    }
    let collected = match spec.protocol {
        PayloadProtocol::Ucobs => run_datagrams(spec, Protocol::Ucobs),
        PayloadProtocol::Utls => run_datagrams(spec, Protocol::Utls),
        PayloadProtocol::MsTcp => run_mstcp(spec),
    };
    let label = spec.label();

    // Invariant 1: exactly-once delivery. The delivered payload multiset
    // equals the sent multiset — no loss, no duplicates, no corruption (for
    // uTLS every delivered record also passed its MAC, so equality here is
    // the MAC-intact check).
    let mut sent: Vec<Vec<u8>> = (0..spec.datagrams).map(|i| cell_payload(spec, i)).collect();
    let mut got: Vec<Vec<u8>> = collected
        .deliveries
        .iter()
        .map(|d| d.payload.clone())
        .collect();
    sent.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got.len(),
        sent.len(),
        "[{label}] exactly-once delivery: expected {} payloads, got {}",
        sent.len(),
        got.len()
    );
    assert_eq!(
        got, sent,
        "[{label}] delivered payloads must match sent payloads exactly"
    );

    // Invariant 2: out-of-order delivery happens only under a uTCP receiver,
    // and *must* happen when the cell drops a segment deterministically.
    if spec.receiver_stack == StackMode::Standard {
        assert_eq!(
            collected.out_of_order, 0,
            "[{label}] a standard TCP receiver can never deliver out of order"
        );
    }
    if spec.out_of_order_mandatory() {
        assert!(
            collected.out_of_order > 0,
            "[{label}] a deterministic mid-stream drop with a uTCP receiver must \
             yield out-of-order delivery"
        );
    }

    let mut report = CellReport {
        label,
        sent: spec.datagrams as u64,
        delivered: collected.deliveries.len() as u64,
        out_of_order: collected.out_of_order,
        duplicates_suppressed: collected.duplicates_suppressed,
        mac_rejected_candidates: collected.mac_rejected_candidates,
        wire_bytes_sent: collected.wire_bytes_sent,
        payload_fingerprint: 0,
        delivery_order_fingerprint: 0,
        completion_time_us: collected
            .deliveries
            .iter()
            .map(|d| d.time_us)
            .max()
            .unwrap_or(0),
        middlebox_splits: collected.middlebox_splits,
        middlebox_coalesces: collected.middlebox_coalesces,
        // The engine obs layer instruments multi-flow cells; single-flow
        // drivers report zeros here.
        delivery_delay_p50_ns: 0,
        delivery_delay_p99_ns: 0,
        delivery_delay_p999_ns: 0,
        delivery_delay_mean_ns: 0,
        trace_events: 0,
        trace_fingerprint: 0,
        cc_cwnd_samples: 0,
        cc_recovery_events: 0,
        cc_recovery_p99_ns: 0,
    };

    // Invariant 3: an adversarial middlebox must actually have exercised its
    // behaviour — a splitting middlebox facing records larger than its
    // maximum payload is guaranteed to split at least once.
    if let MiddleboxAxis::Split(max_payload) = spec.middlebox {
        if spec.datagram_len > max_payload {
            assert!(
                report.middlebox_splits > 0,
                "[{}] the Split middlebox never re-segmented anything",
                report.label
            );
        }
    }
    // Order-insensitive fingerprint: sum of per-payload hashes.
    let mut order_hash: u64 = FNV_OFFSET_BASIS;
    for d in &collected.deliveries {
        let mut h: u64 = FNV_OFFSET_BASIS;
        fnv1a(&mut h, &d.payload);
        report.payload_fingerprint = report.payload_fingerprint.wrapping_add(h);
        fnv1a(&mut order_hash, &h.to_be_bytes());
    }
    report.delivery_order_fingerprint = order_hash;
    report
}

/// Run one cell **twice** under its fixed seed, assert the two runs produce
/// identical reports, and return the (verified) report.
pub(crate) fn verify_cell(spec: &CellSpec) -> CellReport {
    let first = run_cell(spec);
    let second = run_cell(spec);
    assert_eq!(
        first,
        second,
        "[{}] same seed must reproduce identical delivery statistics",
        spec.label()
    );
    first
}

/// Verify every cell of a matrix; returns one report per cell, in cell
/// order. Cells are the jobs of one `minion-exec` batch on
/// [`minion_exec::available_threads`] workers — every cell owns its seeded
/// world and results come back in cell order, so the output is
/// byte-identical at any thread count and the count is nothing to configure.
pub fn run_matrix(cells: &[CellSpec]) -> Vec<CellReport> {
    minion_exec::Executor::new(minion_exec::available_threads())
        .run(cells.to_vec(), |_, cell| verify_cell(&cell))
}

/// Run every cell **once** (no per-cell two-run verification) on `threads`
/// workers, in cell order. The cheap sweep the bench harness and the
/// cross-thread-count determinism gates use: comparing whole sweeps across
/// thread counts already is a determinism check, so the per-cell double run
/// would only double the wall time.
pub fn run_matrix_once(cells: &[CellSpec], threads: usize) -> Vec<CellReport> {
    run_matrix_once_with_stats(cells, threads).0
}

/// [`run_matrix_once`], also returning the batch's stats (jobs per worker,
/// time inside jobs) for the sweep bench. The stats are wall-clock and
/// never part of the byte-identity gates; the reports are unchanged.
pub fn run_matrix_once_with_stats(
    cells: &[CellSpec],
    threads: usize,
) -> (Vec<CellReport>, minion_exec::ExecStats) {
    minion_exec::Executor::new(threads).run_with_stats(cells.to_vec(), |_, cell| run_cell(&cell))
}

/// A text table of per-cell results (label, delivered/sent, out-of-order,
/// completion time).
pub fn summarize(reports: &[CellReport]) -> String {
    let mut out = String::new();
    let width = reports.iter().map(|r| r.label.len()).max().unwrap_or(10);
    out.push_str(&format!(
        "{:<width$}  {:>9}  {:>6}  {:>6}  {:>10}\n",
        "cell", "delivered", "ooo", "dups", "finish_ms"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<width$}  {:>4}/{:<4}  {:>6}  {:>6}  {:>10.1}\n",
            r.label,
            r.delivered,
            r.sent,
            r.out_of_order,
            r.duplicates_suppressed,
            r.completion_time_us as f64 / 1000.0
        ));
    }
    out
}
