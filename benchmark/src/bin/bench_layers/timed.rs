//! `TimedTransport`: the engine's `SimTransport` with one span per
//! `Transport` call, so `LoadScenario::run_on`'s wall splits into the
//! driver's own time and the time behind the transport boundary.

use crate::span::Recorder;
use minion_benchmark::workloads::Probe;
use minion_engine::{
    CcObs, EngineMetrics, FlowId, LoadReport, LoadScenario, PhaseProfile, SimTransport, Transport,
    TransportChunk, TransportFlowStats,
};
use minion_simnet::SimTime;
use minion_tcp::{ConnEvent, ConnStats};

pub struct TimedTransport<'a> {
    inner: SimTransport,
    rec: &'a mut Recorder,
    clients: Vec<FlowId>,
}

/// Run `scenario` over a timed transport: spans `engine.transport.new`,
/// then `engine.driver` with one child per transport call, then the
/// transport's drop under `engine.transport.close`. Returns the report and
/// the client connections' statistics, summed.
pub fn run_timed(scenario: &LoadScenario, rec: &mut Recorder) -> (LoadReport, ConnStats) {
    rec.enter("engine.transport.new");
    let inner = SimTransport::new(scenario);
    rec.exit();
    let mut transport = TimedTransport {
        inner,
        rec,
        clients: Vec::with_capacity(scenario.flows),
    };
    transport.rec.enter("engine.driver");
    let report = scenario.run_on(&mut transport);
    transport.rec.exit();
    let TimedTransport {
        inner,
        rec,
        clients,
    } = transport;
    let stats = client_stats(&inner, &clients);
    // Tearing the world down is the last thing `LoadScenario::run` pays.
    rec.enter("engine.transport.close");
    drop(inner);
    rec.exit();
    (report, stats)
}

/// `ConnStats` summed over the sending side's connections.
pub fn client_stats(transport: &SimTransport, clients: &[FlowId]) -> ConnStats {
    let mut sum = ConnStats::default();
    for &flow in clients {
        let s = transport.engine().flow_stats(flow);
        sum.segments_sent += s.segments_sent;
        sum.acks_sent += s.acks_sent;
        sum.bytes_retransmitted += s.bytes_retransmitted;
        sum.retransmissions += s.retransmissions;
        sum.fast_retransmits += s.fast_retransmits;
        sum.timeouts += s.timeouts;
    }
    sum
}

impl TimedTransport<'_> {
    fn span<R>(&mut self, name: &'static str, call: impl FnOnce(&mut SimTransport) -> R) -> R {
        self.rec.enter(name);
        let result = call(&mut self.inner);
        self.rec.exit();
        result
    }
}

// The getters (`now`, `backend`, `flow_stats`, ...) carry no span: they do
// no transport work, and `now` is called on every loop turn.
impl Transport for TimedTransport<'_> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn connect(&mut self) -> (FlowId, u64) {
        let (flow, key) = self.span("engine.transport.connect", |t| t.connect());
        self.clients.push(flow);
        (flow, key)
    }

    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize {
        self.span("engine.transport.write", |t| t.write(flow, data))
    }

    fn read(&mut self, flow: FlowId) -> Option<TransportChunk> {
        self.span("engine.transport.read", |t| t.read(flow))
    }

    fn close(&mut self, flow: FlowId) {
        self.span("engine.transport.close", |t| t.close(flow));
    }

    fn step(&mut self) -> bool {
        self.span("engine.transport.step", |t| t.step())
    }

    fn take_accepted(&mut self) -> Vec<(FlowId, u64)> {
        self.span("engine.transport.take", |t| t.take_accepted())
    }

    fn take_readable(&mut self) -> Vec<FlowId> {
        self.span("engine.transport.take", |t| t.take_readable())
    }

    fn take_writable(&mut self) -> Vec<FlowId> {
        self.span("engine.transport.take", |t| t.take_writable())
    }

    fn take_lifecycle(&mut self) -> Vec<(FlowId, ConnEvent)> {
        self.span("engine.transport.take", |t| t.take_lifecycle())
    }

    fn phases(&self) -> PhaseProfile {
        self.inner.phases()
    }

    fn flow_stats(&self, flow: FlowId) -> TransportFlowStats {
        self.inner.flow_stats(flow)
    }

    fn flow_cc_obs(&self, flow: FlowId) -> CcObs {
        self.inner.flow_cc_obs(flow)
    }

    fn metrics(&self) -> EngineMetrics {
        self.inner.metrics()
    }

    fn syscalls(&self) -> u64 {
        self.inner.syscalls()
    }

    fn finish(&mut self) {
        self.span("engine.transport.close", |t| t.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transport spans plus the driver's self time tile the iteration:
    /// nothing the iteration does goes unaccounted.
    #[test]
    fn spans_and_driver_self_time_tile_the_iteration() {
        let scenario = LoadScenario {
            seed: 3,
            ..LoadScenario::with_flows(512)
        };
        let mut rec = Recorder::new(0);
        rec.enter("iteration");
        let (report, stats) = run_timed(&scenario, &mut rec);
        rec.exit();
        assert_eq!(report.records_delivered, report.records_sent);
        assert!(stats.segments_sent > 0);

        let totals = rec.totals();
        let iteration = totals["iteration"].total_ns as f64;
        let accounted: u64 = totals
            .iter()
            .filter(|(name, _)| name.starts_with("engine.transport."))
            .map(|(_, t)| t.total_ns)
            .sum::<u64>()
            + totals["engine.driver"].self_ns;
        let gap = (iteration - accounted as f64).abs() / iteration;
        assert!(
            gap < 0.02,
            "{:.2} % of the iteration unaccounted",
            gap * 100.0
        );
        assert_eq!(totals["engine.transport.new"].count, 1);
        assert_eq!(totals["engine.transport.connect"].count, 512);
        assert_eq!(
            totals["engine.transport.close"].count,
            2 * 512 + 2,
            "both ends closed, then finish, then the drop"
        );
    }
}
