//! The OS transport under the engine's load-scenario driver: the same
//! streams, reassembly, and exactly-once checks as the sim backend, but
//! against kernel TCP over loopback.

use minion_engine::{LoadScenario, TraceKind, Transport};
use minion_osnet::OsTransport;
use minion_simnet::SimDuration;

/// A scenario sized for a test: the OS backend ignores the simulated link
/// shaping (rtt/rate/queue/loss are sim-only), and kernel TCP delivers in
/// order, so the receiver is the standard (non-uTCP) one.
fn os_scenario(flows: usize) -> LoadScenario {
    LoadScenario {
        flows,
        receiver_utcp: false,
        deadline: SimDuration::from_secs(60), // wall-clock liveness budget
        ..LoadScenario::default()
    }
}

#[test]
fn connect_lifecycle_reaches_established_and_moves_bytes() {
    let mut t = OsTransport::new();
    let (client, pair_key) = t.connect();

    // Drive until the handshake resolves (writable edge on the client) and
    // the server side surfaces through accept.
    let mut accepted = Vec::new();
    let mut writable = Vec::new();
    while accepted.is_empty() || writable.is_empty() {
        assert!(t.step(), "transport stalled during connect");
        accepted.extend(t.take_accepted());
        writable.extend(t.take_writable());
    }
    assert_eq!(accepted.len(), 1);
    let (server, peer_key) = accepted[0];
    assert_eq!(peer_key, pair_key, "accept echoes the client's pairing key");
    assert!(writable.contains(&client));

    // Established client writes; the server flow sees a readable edge and
    // an in-order chunk at offset 0.
    let n = t.write(client, b"hello kernel");
    assert_eq!(n, 12, "12-byte write fits any send buffer");
    let mut readable = Vec::new();
    while !readable.contains(&server) {
        assert!(t.step());
        readable.extend(t.take_readable());
    }
    let chunk = t.read(server).expect("delivered chunk");
    assert_eq!(chunk.offset, 0);
    assert!(chunk.in_order);
    assert_eq!(chunk.data.to_vec(), b"hello kernel");
    assert!(t.read(server).is_none(), "drained to WouldBlock");

    t.close(client);
    t.close(server);
    t.finish();
    assert!(t.syscalls() > 0);
}

#[test]
fn load_scenario_completes_over_loopback() {
    let scenario = os_scenario(32);
    let mut t = OsTransport::new();
    let report = scenario.run_on(&mut t);

    assert!(report.label.ends_with("/os"), "label: {}", report.label);
    assert_eq!(report.flows, 32);
    assert_eq!(
        report.records_delivered,
        (scenario.flows * scenario.records_per_flow) as u64
    );
    assert!(report.total_bytes > 0);
    assert!(report.goodput_bps > 0, "wall-clock goodput recorded");
    assert!(t.syscalls() > 0, "syscall accounting recorded");

    // The observability layer rides the same driver: every record got a
    // delivery-delay sample (monotonic ns on this backend), lifecycle
    // events landed in the trace, and the epoll loop was profiled.
    assert_eq!(report.obs.delivery_delay.count(), report.records_delivered);
    assert!(
        report.obs.delivery_delay.max() > 0,
        "monotonic delays in ns"
    );
    for kind in [TraceKind::Syn, TraceKind::FirstByte, TraceKind::Fin] {
        assert!(
            report.obs.trace.events().any(|e| e.kind == kind),
            "trace must contain a {kind:?} event"
        );
    }
    let phases = report.phases.get();
    assert_eq!(phases.names(), minion_osnet::OS_PHASES);
    assert!(phases.entries(0) > 0, "epoll_wait spans recorded");
    assert!(phases.entries(1) > 0, "dispatch spans recorded");
    let batches = t.wait_batch_histogram();
    assert!(batches.count() > 0, "one batch sample per epoll_wait");
}

#[test]
fn streamed_trace_rides_the_os_backend() {
    // The streaming sink hangs off the shared driver loop, so the OS
    // backend spills the same self-describing JSONL the sim does — with
    // monotonic timestamps instead of virtual ones.
    let dir = std::env::temp_dir().join(format!("minion_os_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("os_trace.jsonl");
    let scenario = LoadScenario {
        trace_stream: Some(path.display().to_string()),
        ..os_scenario(8)
    };
    let report = scenario.run_on(&mut OsTransport::new());
    assert_eq!(report.obs.stream.emitted, report.obs.trace.recorded());
    let text = std::fs::read_to_string(&path).unwrap();
    let trailer = text.lines().last().unwrap();
    assert!(
        trailer.contains("\"summary\":true") && trailer.contains("\"stream\":true"),
        "single-shard stream ends with its trailer: {trailer}"
    );
    let events = text.lines().filter(|l| !l.contains("\"summary\"")).count() as u64;
    assert_eq!(events, report.obs.stream.emitted, "every event on disk");
    // Per-flow delay attribution rides along on the monotonic clock.
    assert_eq!(report.obs.flow_delay.len(), 8);
    assert_eq!(
        report.obs.flow_delay.total_samples(),
        report.obs.delivery_delay.count()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_os_runs_deliver_identical_payload_fingerprints() {
    // No byte-identical *reports* on the OS backend (timings are real),
    // but the delivered payloads are still deterministic: same scenario,
    // same streams, same bytes and records per flow. Each run checked every
    // chunk against the stream's formula, so equal totals mean equal
    // bytes. `FlowMetrics::fingerprint` is not compared: it folds chunk
    // boundaries, and kernel TCP cuts its reads differently run to run.
    let scenario = os_scenario(8);
    let a = scenario.run_on(&mut OsTransport::new());
    let b = scenario.run_on(&mut OsTransport::new());
    let fp = |r: &minion_engine::LoadReport| {
        r.per_flow
            .iter()
            .map(|f| (f.flow, f.bytes_delivered, f.records_delivered))
            .collect::<Vec<_>>()
    };
    assert_eq!(fp(&a), fp(&b));
}
