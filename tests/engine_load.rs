//! The multi-flow load gate (see `minion_engine`): the scenario-matrix
//! `flows ∈ {1, 64, 1024}` axis, with exactly-once delivery and per-stream
//! order asserted per flow and every cell run twice under its fixed seed to
//! prove byte-identical metrics.

use minion_repro::engine::{verify_load, EngineMetrics, LoadScenario};
use minion_repro::simnet::LossConfig;
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

    // A flow that never fills its buffer is written whole at connect time,
    // as before: no staging, no dwell.
    let small = LoadScenario::with_flows(4).run();
    assert_eq!(small.obs.staging_dwell.count(), 4);
    assert_eq!(small.obs.staging_dwell.max(), 0);
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
