//! The transport abstraction behind the load scenarios: packet I/O and time
//! as a trait, so the same scenario driver runs against the deterministic
//! simulator or a real kernel stack.
//!
//! A [`Transport`] hides everything backend-specific behind a small,
//! readiness-driven surface: open client flows toward the scenario's server,
//! write/read bytes, and pump an event loop that reports accepts and
//! readable/writable edges. Two implementations exist:
//!
//! * [`SimTransport`] (here) — holds a deterministic [`Sim`]: it connects
//!   and accepts through the hosts like any application, registers each
//!   socket as a [`FlowId`], and the trait calls act on its socket through
//!   the host, which makes the loop poll exactly that flow. Any topology a
//!   `Sim` can hold works underneath (middleboxes, routes, UDP beside the
//!   flows); the load scenario happens to build two hosts.
//! * `OsTransport` (`minion-osnet`) — drives real nonblocking kernel
//!   sockets over loopback through an epoll reactor, with a monotonic clock
//!   feeding wall-clock microseconds into the same driver loop.
//!   Determinism is *not* promised there; the OS backend gates on liveness
//!   and goodput envelopes instead.
//!
//! Time flows through [`Transport::now`]: virtual microseconds for sim,
//! monotonic microseconds since transport creation for the OS backend. The
//! scenario driver never asks which one it is.
//!
//! The trait speaks the stack's own types, under the names the engine's
//! consumers bind: a delivered chunk is tcp's
//! [`DeliveredChunk`](minion_tcp::DeliveredChunk) ([`TransportChunk`]), a
//! flow's sender statistics are tcp's [`ConnStats`](minion_tcp::ConnStats)
//! ([`TransportFlowStats`]), and the loop counters are stack's
//! [`SimMetrics`](minion_stack::SimMetrics) ([`EngineMetrics`]). The sim
//! backend hands them on as the stack made them; the OS backend fills in
//! what the kernel lets it see.

use crate::metrics::EngineMetrics;
use crate::scenario::{LoadScenario, LOAD_PORT};
use minion_obs::PhaseProfile;
use minion_simnet::{LinkConfig, NodeId, SimDuration, SimTime};
use minion_stack::{FlowId, Host, Sim, SocketAddr, SocketHandle, SIM_PHASES};
use minion_tcp::{ConnEvent, SocketOptions, TcpConfig};

/// One delivered piece of a flow's byte stream: its offset, its bytes, and
/// whether it arrived in stream order (kernel TCP always does; uTCP
/// receivers may deliver out of order).
pub use minion_tcp::DeliveredChunk as TransportChunk;

/// Sender-side statistics of one flow, as far as the backend can observe
/// them (the OS backend cannot see kernel retransmissions and reports
/// zeros). The driver reads `retransmissions`, `fast_retransmits` and
/// `timeouts`.
pub use minion_tcp::ConnStats as TransportFlowStats;

/// Packet I/O and time behind the load-scenario driver.
///
/// The driver's contract:
///
/// 1. [`connect`](Transport::connect) every flow, then immediately offer its
///    stream via [`write`](Transport::write) (which may accept a prefix, or
///    nothing while the flow is still connecting);
/// 2. loop: [`step`](Transport::step), then drain
///    [`take_accepted`](Transport::take_accepted) /
///    [`take_writable`](Transport::take_writable) (flush pending writes) /
///    [`take_readable`](Transport::take_readable) (read each flow to
///    exhaustion — edge-triggered backends rely on it);
/// 3. [`close`](Transport::close) every flow and
///    [`finish`](Transport::finish) the teardown.
pub trait Transport {
    /// Backend tag for labels/reports: `"sim"` or `"os"`.
    fn backend(&self) -> &'static str;

    /// Current time: virtual for sim, monotonic-since-creation for OS.
    fn now(&self) -> SimTime;

    /// Open one client flow toward the scenario's server. Returns the flow
    /// and its pairing key (the client's ephemeral port), which
    /// [`take_accepted`](Transport::take_accepted) echoes from the server
    /// side so the driver can pair the two endpoints of a connection.
    fn connect(&mut self) -> (FlowId, u64);

    /// Offer bytes on a flow; returns how many were accepted (possibly 0 —
    /// a connecting socket, or one whose send buffer is full). The driver
    /// keeps a cursor and retries on writable edges.
    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize;

    /// The next delivered chunk on a flow, or `None` when drained
    /// (edge-triggered backends require the driver to read until `None`).
    fn read(&mut self, flow: FlowId) -> Option<TransportChunk>;

    /// Request an orderly close (FIN) of a flow.
    fn close(&mut self, flow: FlowId);

    /// Process pending work and advance time. Returns `false` once nothing
    /// further can happen (sim: no scheduled events; OS: transport drained).
    fn step(&mut self) -> bool;

    /// Server-side flows accepted since the last call, each with the peer's
    /// pairing key (the client's ephemeral port).
    fn take_accepted(&mut self) -> Vec<(FlowId, u64)>;

    /// Flows with a readable edge since the last call, in event order.
    fn take_readable(&mut self) -> Vec<FlowId>;

    /// Flows with a writable edge since the last call (connect completion
    /// or send-buffer space reopening), in event order.
    fn take_writable(&mut self) -> Vec<FlowId>;

    /// Connection lifecycle edges (established, retransmit, RTO fired,
    /// closed) and window samples (cwnd/ssthresh transitions, recovery
    /// episodes, RTO cuts) since the last call, in event order. Backends
    /// that cannot observe them (kernel TCP hides its retransmissions and
    /// its window) return nothing.
    fn take_lifecycle(&mut self) -> Vec<(FlowId, minion_tcp::ConnEvent)> {
        Vec::new()
    }

    /// Wall-clock phase profile of the backend's event loop
    /// (flush/dispatch/timers on sim; epoll wait/dispatch on os). Profiling
    /// only — never deterministic, never part of the byte-identity gates.
    fn phases(&self) -> PhaseProfile {
        PhaseProfile::default()
    }

    /// Sender-side stats of a flow.
    fn flow_stats(&self, flow: FlowId) -> TransportFlowStats;

    /// Always an empty recorder: window telemetry arrives as samples
    /// through [`take_lifecycle`](Transport::take_lifecycle), and nothing
    /// calls this. It stays while `bench-layers` forwards it (ROADMAP 9(7)).
    fn flow_cc_obs(&self, _flow: FlowId) -> minion_obs::CcObs {
        minion_obs::CcObs::default()
    }

    /// Aggregate runtime counters (events, packets/syscalls, bytes).
    fn metrics(&self) -> EngineMetrics;

    /// Total syscalls issued (OS backend; sim has none).
    fn syscalls(&self) -> u64 {
        0
    }

    /// Drive connection teardown (FIN exchanges) to quiescence.
    fn finish(&mut self);
}

/// The simulator-backed [`Transport`]: a [`Sim`] holding two hosts and one
/// asymmetric link.
pub struct SimTransport {
    sim: Sim,
    client: NodeId,
    server_addr: SocketAddr,
    tcp_config: TcpConfig,
    readable: Vec<FlowId>,
    writable: Vec<FlowId>,
    lifecycle: Vec<(FlowId, ConnEvent)>,
}

impl SimTransport {
    /// Build the two-host world of `scenario`: client and server hosts, the
    /// shared bottleneck link (loss on the data direction only), and a
    /// listening uTCP/TCP socket on `LOAD_PORT`, whose connections
    /// [`Transport::take_accepted`] accepts.
    pub fn new(scenario: &LoadScenario) -> Self {
        let mut sim = Sim::new(scenario.seed);
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        let delay = SimDuration::from_micros(scenario.rtt_ms * 1000 / 2);
        let toward = LinkConfig::new(scenario.rate_bps, delay)
            .with_queue_bytes(scenario.queue_bytes)
            .with_loss(scenario.loss.clone());
        let back = LinkConfig::new(scenario.rate_bps, delay).with_queue_bytes(scenario.queue_bytes);
        sim.link_asymmetric(client, server, toward, back);

        let receiver_opts = if scenario.receiver_utcp {
            SocketOptions::unordered_receive_only()
        } else {
            SocketOptions::standard()
        };
        let tcp_config = TcpConfig::default().with_cc(scenario.cc);
        sim.host_mut(server)
            .tcp_listen(LOAD_PORT, tcp_config.clone(), receiver_opts)
            .expect("listen on a fresh host");
        SimTransport {
            sim,
            client,
            server_addr: SocketAddr::new(server, LOAD_PORT),
            tcp_config,
            readable: Vec::new(),
            writable: Vec::new(),
            lifecycle: Vec::new(),
        }
    }

    /// Borrow the underlying event loop (tests and instrumentation).
    pub fn engine(&self) -> &Sim {
        &self.sim
    }

    /// The host of a flow and the flow's socket, to act on it.
    fn socket(&mut self, flow: FlowId) -> (&mut Host, SocketHandle) {
        let (node, handle) = self.sim.flow_socket(flow);
        (self.sim.host_mut(node), handle)
    }

    /// Split the loop's edge events into the readable/writable queues the
    /// trait exposes. The remaining edges (`Established`, `Retransmit`,
    /// `RtoFired`, `Closed`) and the window samples carry no driver *work*,
    /// but they are exactly what the observability layer records, so they
    /// queue separately for [`Transport::take_lifecycle`].
    fn pump_events(&mut self) {
        for (f, ev) in self.sim.take_events() {
            match ev {
                ConnEvent::Readable => self.readable.push(f),
                ConnEvent::Writable => self.writable.push(f),
                other => self.lifecycle.push((f, other)),
            }
        }
    }
}

impl Transport for SimTransport {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn connect(&mut self) -> (FlowId, u64) {
        let now = self.sim.now();
        let host = self.sim.host_mut(self.client);
        let handle = host.tcp_connect(
            self.server_addr,
            self.tcp_config.clone(),
            SocketOptions::standard(),
            now,
        );
        let client_port = host.tcp_local_port(handle).expect("fresh TCP socket");
        (
            self.sim.register(self.client, handle),
            u64::from(client_port),
        )
    }

    /// As a socket does, this accepts the prefix of `data` that fits the
    /// send buffer; a writable edge reports when an acknowledgment has made
    /// room again.
    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize {
        let (host, handle) = self.socket(flow);
        let free = host
            .tcp_send_buffer_free(handle)
            .expect("flow handle is valid");
        host.tcp_write(handle, &data[..data.len().min(free)])
            .expect("flow handle is a valid TCP socket")
    }

    fn read(&mut self, flow: FlowId) -> Option<TransportChunk> {
        let (host, handle) = self.socket(flow);
        host.tcp_read(handle).ok().flatten()
    }

    fn close(&mut self, flow: FlowId) {
        let (host, handle) = self.socket(flow);
        let _ = host.tcp_close(handle);
    }

    fn step(&mut self) -> bool {
        self.sim.step()
    }

    fn take_accepted(&mut self) -> Vec<(FlowId, u64)> {
        let SocketAddr { node, port } = self.server_addr;
        let mut accepted = Vec::new();
        while let Some(handle) = self.sim.host_mut(node).accept(port) {
            let peer = self.sim.host(node).tcp_peer(handle);
            let peer_port = peer.expect("accepted handle is a TCP socket").port;
            accepted.push((self.sim.register(node, handle), u64::from(peer_port)));
        }
        accepted
    }

    fn take_readable(&mut self) -> Vec<FlowId> {
        self.pump_events();
        std::mem::take(&mut self.readable)
    }

    fn take_writable(&mut self) -> Vec<FlowId> {
        self.pump_events();
        std::mem::take(&mut self.writable)
    }

    fn take_lifecycle(&mut self) -> Vec<(FlowId, ConnEvent)> {
        self.pump_events();
        std::mem::take(&mut self.lifecycle)
    }

    fn phases(&self) -> PhaseProfile {
        PhaseProfile::from_slots(SIM_PHASES, self.sim.phases())
    }

    fn flow_stats(&self, flow: FlowId) -> TransportFlowStats {
        self.sim.flow_stats(flow)
    }

    fn metrics(&self) -> EngineMetrics {
        *self.sim.metrics()
    }

    fn finish(&mut self) {
        // Drive the FIN/TIME-WAIT exchanges of every closed flow.
        self.sim.run_for(SimDuration::from_secs(8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_accepts_the_prefix_that_fits_and_signals_writable() {
        let mut t = SimTransport::new(&LoadScenario::default());
        let (cf, _) = t.connect();
        let (node, ch) = t.sim.flow_socket(cf);
        let capacity = t.sim.host(node).tcp_send_buffer_free(ch).unwrap();

        // A write that fits is taken whole and never raises a writable edge.
        assert_eq!(t.write(cf, &[1u8; 1000]), 1000);
        t.sim.run_for(SimDuration::from_millis(500));
        assert!(!t.take_writable().contains(&cf));

        // A write past the buffer is taken up to the brim; a full buffer
        // takes nothing (and does not fail).
        let big = vec![2u8; capacity + 5000];
        assert_eq!(t.write(cf, &big), capacity);
        assert_eq!(t.write(cf, &big[capacity..]), 0);
        // The first acknowledgment that frees space says so, once.
        t.sim.run_for(SimDuration::from_millis(500));
        let writable = t.take_writable().into_iter().filter(|&f| f == cf).count();
        assert_eq!(writable, 1);
        assert_eq!(t.write(cf, &big[capacity..]), 5000);
    }

    /// The transport accepts through the host's listener queue like any
    /// other caller, so a finished run leaves no connection waiting there.
    #[test]
    fn a_finished_run_leaves_no_connection_waiting_for_accept() {
        let scenario = LoadScenario::with_flows(4);
        let mut t = SimTransport::new(&scenario);
        scenario.run_on(&mut t);
        let server = t.server_addr.node;
        assert_eq!(t.sim.host_mut(server).accept(LOAD_PORT), None);
    }
}
