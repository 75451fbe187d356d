//! Multi-flow cells: the `flows ∈ {1, 64, 1024}` axis, executed by
//! `minion-engine`'s load scenario.
//!
//! A single-flow cell runs one protocol driver as an application on
//! `Sim::drive`; a multi-flow cell instead multiplexes `CellSpec::flows`
//! concurrent connections — each carrying `datagrams` framed records —
//! driven by readiness events, over the same loss/RTT/rate axes. The engine's scenario
//! layer asserts exactly-once delivery and per-stream order **per flow**, and
//! the usual `verify_cell` two-run determinism check applies
//! unchanged because the mapped [`CellReport`] is a pure function of the
//! deterministic [`minion_engine::LoadReport`].
//!
//! Multi-flow cells run on a pass-through path: the load scenario builds two
//! hosts and one link. The event loop underneath is the single-flow cells'
//! own (`stack::Sim`) and would carry a middlebox; no load cell asks yet.

use crate::axes::{CellSpec, MiddleboxAxis, PayloadProtocol, StackMode};
use crate::runner::CellReport;
use minion_engine::LoadScenario;
use minion_simnet::{fnv1a, SimDuration, FNV_OFFSET_BASIS};

/// Translate a multi-flow cell into an engine load scenario.
fn load_scenario_of(spec: &CellSpec) -> LoadScenario {
    assert_eq!(
        spec.middlebox,
        MiddleboxAxis::PassThrough,
        "[{}] multi-flow cells run the load scenario, which builds a pass-through path only",
        spec.label()
    );
    // The engine's load driver sends framed records over raw uTCP streams
    // (the uCOBS role); uTLS/msTCP drivers are not engine-hosted yet (see
    // ROADMAP), so a multi-flow cell claiming them would report protocol
    // machinery that never ran.
    assert_eq!(
        spec.protocol,
        PayloadProtocol::Ucobs,
        "[{}] multi-flow cells support only the uCOBS (framed record) protocol axis",
        spec.label()
    );
    LoadScenario {
        flows: spec.flows,
        records_per_flow: spec.datagrams,
        record_len: spec.datagram_len,
        rtt_ms: spec.rtt_ms,
        rate_bps: spec.rate_bps,
        queue_bytes: 1 << 20,
        loss: spec.loss.to_loss_config(),
        receiver_utcp: spec.receiver_stack == StackMode::Utcp,
        cc: spec.cc,
        seed: spec.seed,
        deadline: SimDuration::from_secs(300),
        trace_stream: None,
        first_flow: 0,
    }
}

/// Run one multi-flow cell through the engine and map its load report onto
/// the matrix's [`CellReport`] shape.
///
/// The cell is one world ([`LoadScenario::run`]): every flow shares the
/// cell's one bottleneck link, on the worker the matrix gave the cell, so
/// cell reports never depend on the sweep's thread count.
///
/// The per-flow invariants (exactly-once, per-stream order, in-order-only on
/// a standard receiver) are asserted inside [`LoadScenario::run`]; a
/// violation panics with the scenario label.
pub(crate) fn run_load_cell(spec: &CellSpec) -> CellReport {
    let report = load_scenario_of(spec).run();
    let payload_fingerprint = report
        .per_flow
        .iter()
        .fold(0u64, |acc, f| acc.wrapping_add(f.fingerprint));
    let mut order_hash: u64 = FNV_OFFSET_BASIS;
    for f in &report.per_flow {
        fnv1a(&mut order_hash, &f.fingerprint.to_be_bytes());
        fnv1a(&mut order_hash, &f.completion_us.to_be_bytes());
    }
    CellReport {
        label: spec.label(),
        sent: report.records_sent,
        delivered: report.records_delivered,
        out_of_order: report.per_flow.iter().map(|f| f.chunks_out_of_order).sum(),
        duplicates_suppressed: 0,
        mac_rejected_candidates: 0,
        wire_bytes_sent: report.engine.bytes_sent,
        payload_fingerprint,
        delivery_order_fingerprint: order_hash,
        completion_time_us: report.completion_us,
        middlebox_splits: 0,
        middlebox_coalesces: 0,
        delivery_delay_p50_ns: report.obs.delivery_delay.p50(),
        delivery_delay_p99_ns: report.obs.delivery_delay.p99(),
        delivery_delay_p999_ns: report.obs.delivery_delay.p999(),
        delivery_delay_mean_ns: report.obs.delivery_delay.mean(),
        trace_events: report.obs.trace.recorded(),
        trace_fingerprint: report.obs.trace_fingerprint(),
        cc_cwnd_samples: report.obs.cc_obs.recorded(),
        cc_recovery_events: report.obs.cc_obs.recovery_duration().count(),
        cc_recovery_p99_ns: report.obs.cc_obs.recovery_duration().p99(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::{LossAxis, MatrixSpec};

    fn multi_flow_cell(flows: usize) -> CellSpec {
        let mut cell = MatrixSpec::load().cells().remove(0);
        cell.flows = flows;
        cell.middlebox = MiddleboxAxis::PassThrough;
        cell
    }

    #[test]
    fn cell_maps_onto_a_load_scenario() {
        let mut cell = multi_flow_cell(64);
        cell.receiver_stack = StackMode::Utcp;
        cell.loss = LossAxis::Bernoulli(0.01);
        let sc = load_scenario_of(&cell);
        assert_eq!(sc.flows, 64);
        assert_eq!(sc.records_per_flow, cell.datagrams);
        assert!(sc.receiver_utcp);
        assert_eq!(sc.seed, cell.seed);
    }

    #[test]
    #[should_panic(expected = "pass-through")]
    fn middlebox_cells_are_rejected() {
        let mut cell = multi_flow_cell(64);
        cell.middlebox = MiddleboxAxis::Split(700);
        let _ = load_scenario_of(&cell);
    }

    #[test]
    fn a_small_multi_flow_cell_delivers_exactly_once() {
        let mut cell = multi_flow_cell(8);
        cell.receiver_stack = StackMode::Utcp;
        let report = run_load_cell(&cell);
        assert_eq!(report.sent, (cell.flows * cell.datagrams) as u64);
        assert_eq!(report.delivered, report.sent);
        assert!(report.wire_bytes_sent > 0);
        assert!(report.completion_time_us > 0);
        assert!(report.label.ends_with("/flows8"));
        // The obs layer fills the delivery-delay and trace columns on the
        // engine path (virtual-time ns, so deterministic and Eq-gated).
        assert!(report.delivery_delay_p50_ns > 0);
        assert!(report.delivery_delay_p99_ns >= report.delivery_delay_p50_ns);
        assert!(report.delivery_delay_mean_ns > 0);
        assert!(report.trace_events > 0);
        assert_ne!(report.trace_fingerprint, 0);
        // Every flow records at least its initial window, so the cc
        // telemetry columns are live on the engine path.
        assert!(report.cc_cwnd_samples >= cell.flows as u64);
    }
}
