//! The multi-flow load gate (see `minion_engine`): the scenario-matrix
//! `flows ∈ {1, 64, 1024}` axis, with exactly-once delivery and per-stream
//! order asserted per flow and every cell run twice under its fixed seed to
//! prove byte-identical metrics.

use minion_repro::engine::{
    verify_load, EngineMetrics, FlowId, LoadReport, LoadScenario, SimTransport, Transport,
    TransportChunk, TransportFlowStats,
};
use minion_repro::obs::PhaseProfile;
use minion_repro::simnet::LossConfig;
use minion_repro::simnet::SimTime;
use minion_repro::tcp::ConnEvent;
use minion_repro::testkit::{run_matrix, summarize, MatrixSpec};

/// The 1024-flow acceptance scenario: deterministic (same seed ⇒ identical
/// metrics across two runs, asserted inside `verify_load`), exactly-once per
/// flow, and actually concurrent — the engine multiplexes every flow over one
/// shared link.
#[test]
fn one_thousand_flows_deterministic_and_exactly_once() {
    let scenario = LoadScenario::smoke_1k();
    let report = verify_load(&scenario);
    assert_eq!(report.flows, 1024);
    assert_eq!(report.records_delivered, report.records_sent);
    assert_eq!(report.per_flow.len(), 1024);
    assert!(
        report.per_flow.iter().all(|f| f.bytes_delivered > 0),
        "every flow carried payload"
    );
    assert!(report.goodput_bps > 0);
    assert!(
        report.engine.timer_fires > 0,
        "the timer wheel must be doing real work (delayed ACKs at minimum)"
    );
    // The engine never sweeps all flows per event: polls stay proportional
    // to events, not flows × events.
    assert!(
        report.engine.flow_polls < report.engine.events() * 4,
        "flow polls ({}) must scale with events ({}), not with flows × events",
        report.engine.flow_polls,
        report.engine.events()
    );
}

/// The load matrix: flows {1, 64, 1024} × receiver stack × loss, every cell
/// verified twice for determinism by `run_matrix`.
#[test]
fn flows_axis_matrix_is_exactly_once_per_flow() {
    let spec = MatrixSpec::load();
    let cells = spec.cells();
    // 1 protocol × 2 stacks × 2 losses × 3 flow counts.
    assert_eq!(cells.len(), 12);
    let labels: std::collections::BTreeSet<String> = cells.iter().map(|c| c.label()).collect();
    assert_eq!(labels.len(), cells.len(), "matrix cells must be distinct");
    let reports = run_matrix(&cells);
    println!("{}", summarize(&reports));
    for report in &reports {
        assert_eq!(
            report.delivered, report.sent,
            "[{}] every record delivered exactly once",
            report.label
        );
    }
    // Standard receivers never see out-of-order chunks, whatever the scale.
    for (cell, report) in cells.iter().zip(&reports) {
        if cell.receiver_stack == minion_repro::testkit::StackMode::Standard {
            assert_eq!(report.out_of_order, 0, "[{}] in-order only", report.label);
        }
    }
}

/// Loss hits individual flows, not the aggregate: under Bernoulli loss some
/// flows retransmit while (at these rates) most do not, and the harness
/// still reassembles every stream.
#[test]
fn loss_under_load_is_recovered_per_flow() {
    let scenario = LoadScenario {
        flows: 64,
        loss: LossConfig::Bernoulli { probability: 0.02 },
        ..LoadScenario::default()
    };
    let report = verify_load(&scenario);
    assert_eq!(report.records_delivered, report.records_sent);
    let with_retx = report
        .per_flow
        .iter()
        .filter(|f| f.retransmissions > 0)
        .count();
    assert!(
        with_retx > 0,
        "2% loss across 64 flows must hit at least one flow"
    );
    assert!(
        with_retx < 64,
        "2% loss should not hit every single flow's data"
    );
}

/// A stream longer than the 256 KiB send buffer (benchmark README defect 1:
/// this used to panic in `SimTransport::write`). The transport accepts the
/// prefix that fits, the driver stages the rest, and each ACK that frees
/// space raises the writable edge that flushes more.
#[test]
fn stream_past_the_send_buffer_is_staged_and_flushed_on_writable_edges() {
    let scenario = LoadScenario {
        flows: 1,
        records_per_flow: 200,
        record_len: 1400,
        ..LoadScenario::default()
    };
    let report = verify_load(&scenario);
    assert_eq!(report.records_delivered, 200);
    assert!(
        report.total_bytes > 256 * 1024,
        "the stream outgrew the buffer"
    );
    assert!(
        report.obs.staging_dwell.max() > 0,
        "the tail of the stream waited for acknowledgments"
    );
    assert_eq!(report.obs.delivery_delay.count(), 200);
    // What the writes put on the wire and when each record got there,
    // pinned: a change to how the driver offers the stream (how much per
    // write, which writable edge flushes what) moves these.
    assert_eq!(
        staged_figures(&report),
        (422_980, 297_585, 303_314_404, 348_868_000, 200_753_000),
        "completion µs, wire bytes, delay p50/p99 ns, staging dwell max ns"
    );

    // Under loss and with several flows, out-of-order receivers included.
    let lossy = LoadScenario {
        flows: 3,
        records_per_flow: 260,
        record_len: 1400,
        loss: LossConfig::Bernoulli { probability: 0.01 },
        ..LoadScenario::default()
    };
    let report = verify_load(&lossy);
    assert_eq!(report.records_delivered, report.records_sent);
    assert_eq!(
        staged_figures(&report),
        (996_591, 1_197_432, 310_258_658, 738_197_503, 370_214_000),
        "completion µs, wire bytes, delay p50/p99 ns, staging dwell max ns"
    );

    // A flow that never fills its buffer is written whole at connect time,
    // as before: no staging, no dwell.
    let small = LoadScenario::with_flows(4).run();
    assert_eq!(small.obs.staging_dwell.count(), 4);
    assert_eq!(small.obs.staging_dwell.max(), 0);
}

/// The staged path's figures: completion time (µs), wire bytes sent,
/// delivery-delay p50 and p99 (ns) and the longest staging dwell (ns).
fn staged_figures(report: &LoadReport) -> (u64, u64, u64, u64, u64) {
    (
        report.completion_us,
        report.engine.bytes_sent,
        report.obs.delivery_delay.p50(),
        report.obs.delivery_delay.p99(),
        report.obs.staging_dwell.max(),
    )
}

/// The event loop's seven counters for two small scenarios (lossless: no
/// timer ever fires; 2 % loss: the wheel fires 23 times). The lossless
/// counts were taken at the commit before `stack::Sim` took the engine's
/// loop over; the lossy ones moved when the RTO stopped clearing the SACK
/// scoreboard. The counts are seed-determined, so they cannot flake, and
/// they trip on any change of what the loop polls, sends or wakes for.
#[test]
fn loop_counters_of_two_small_scenarios_are_pinned() {
    let lossless = LoadScenario {
        seed: 5,
        ..LoadScenario::with_flows(8)
    };
    assert_eq!(
        lossless.run().engine,
        EngineMetrics {
            steps: 32,
            packets_delivered: 32,
            packets_sent: 40,
            bytes_sent: 18952,
            packets_dropped: 0,
            timer_fires: 0,
            flow_polls: 55,
        }
    );
    let lossy = LoadScenario {
        records_per_flow: 64,
        record_len: 600,
        loss: LossConfig::Bernoulli { probability: 0.02 },
        ..lossless
    };
    assert_eq!(
        lossy.run().engine,
        EngineMetrics {
            steps: 427,
            packets_delivered: 372,
            packets_sent: 380,
            bytes_sent: 344938,
            packets_dropped: 6,
            timer_fires: 23,
            flow_polls: 622,
        }
    );
}

/// How [`Tampered`] corrupts what the simulator delivers.
#[derive(Clone, Copy)]
enum Tamper {
    /// Flip the low bit of the first byte of the first non-empty chunk.
    FlipBit,
    /// Hold back the first chunk read and deliver it after the next one,
    /// both still flagged in order.
    Swap,
}

/// A [`SimTransport`] whose receive side lies once: the mutation the driver
/// must catch, since the run's invariants are only as good as its checks.
struct Tampered {
    inner: SimTransport,
    tamper: Tamper,
    /// The held-back chunk of a swap, and the flow it belongs to.
    held: Option<(FlowId, TransportChunk)>,
    /// Whether the lie has been told.
    done: bool,
}

impl Tampered {
    fn new(scenario: &LoadScenario, tamper: Tamper) -> Self {
        Tampered {
            inner: SimTransport::new(scenario),
            tamper,
            held: None,
            done: false,
        }
    }
}

impl Transport for Tampered {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn connect(&mut self) -> (FlowId, u64) {
        self.inner.connect()
    }
    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize {
        self.inner.write(flow, data)
    }
    fn read(&mut self, flow: FlowId) -> Option<TransportChunk> {
        if self.done {
            return match self.held.take() {
                Some((f, chunk)) if f == flow => Some(chunk),
                held => {
                    self.held = held;
                    self.inner.read(flow)
                }
            };
        }
        let mut chunk = self.inner.read(flow)?;
        match self.tamper {
            Tamper::FlipBit if !chunk.data.is_empty() => {
                let mut data = chunk.data.to_vec();
                data[0] ^= 1;
                chunk.data = data.into();
                self.done = true;
                Some(chunk)
            }
            Tamper::FlipBit => Some(chunk),
            Tamper::Swap => match self.held.take() {
                None => {
                    // Hold the first chunk; deliver whatever follows it.
                    self.held = Some((flow, chunk));
                    self.read(flow)
                }
                Some((f, first)) if f == flow => {
                    self.held = Some((f, first));
                    self.done = true;
                    Some(chunk)
                }
                Some(other) => {
                    self.held = Some(other);
                    Some(chunk)
                }
            },
        }
    }
    fn close(&mut self, flow: FlowId) {
        self.inner.close(flow)
    }
    fn step(&mut self) -> bool {
        self.inner.step()
    }
    fn take_accepted(&mut self) -> Vec<(FlowId, u64)> {
        self.inner.take_accepted()
    }
    fn take_readable(&mut self) -> Vec<FlowId> {
        self.inner.take_readable()
    }
    fn take_writable(&mut self) -> Vec<FlowId> {
        self.inner.take_writable()
    }
    fn take_lifecycle(&mut self) -> Vec<(FlowId, ConnEvent)> {
        self.inner.take_lifecycle()
    }
    fn phases(&self) -> PhaseProfile {
        self.inner.phases()
    }
    fn flow_stats(&self, flow: FlowId) -> TransportFlowStats {
        self.inner.flow_stats(flow)
    }
    fn metrics(&self) -> EngineMetrics {
        self.inner.metrics()
    }
    fn finish(&mut self) {
        self.inner.finish()
    }
}

/// Two flows of ~19 KB each, lossless, ordered receiver: every stream is
/// many segments, so each flow reads several chunks.
fn ordered_pair() -> LoadScenario {
    LoadScenario {
        flows: 2,
        records_per_flow: 32,
        record_len: 600,
        receiver_utcp: false,
        ..LoadScenario::default()
    }
}

/// Mutation check: one flipped bit in one delivered chunk fails the run.
#[test]
#[should_panic(expected = "differs from the sent stream")]
fn a_flipped_bit_in_a_delivered_chunk_fails_the_run() {
    let scenario = ordered_pair();
    scenario.run_on(&mut Tampered::new(&scenario, Tamper::FlipBit));
}

/// Mutation check: two chunks swapped on an ordered receiver fail the run,
/// though each carries the right bytes for its offset and claims to be in
/// order.
#[test]
#[should_panic(expected = "ordered receiver")]
fn two_chunks_swapped_on_an_ordered_receiver_fail_the_run() {
    let scenario = ordered_pair();
    scenario.run_on(&mut Tampered::new(&scenario, Tamper::Swap));
}

/// The same swap on an unordered receiver is allowed: the run completes,
/// and the chunk-arrival fingerprint shows the order it saw.
#[test]
fn a_swap_on_an_unordered_receiver_completes() {
    let scenario = LoadScenario {
        receiver_utcp: true,
        ..ordered_pair()
    };
    let report = scenario.run_on(&mut Tampered::new(&scenario, Tamper::Swap));
    assert_eq!(report.records_delivered, report.records_sent);
    let fingerprints =
        |r: &LoadReport| r.per_flow.iter().map(|f| f.fingerprint).collect::<Vec<_>>();
    assert_ne!(fingerprints(&report), fingerprints(&scenario.run()));
}
