//! The event runtime: many flows, one wheel, readiness-driven polling.
//!
//! `stack::Sim` is a fine driver for a handful of sockets, but it rescans
//! every node (and every socket on it) for the earliest timer on every step —
//! `O(flows)` per event. This runtime is the scalable replacement for flat
//! host-to-host load:
//!
//! * per-flow timers live in a hierarchical [`TimerWheel`] (`O(1)` re-arm,
//!   which TCP does on every ACK);
//! * packet arrivals are drained in batches
//!   ([`minion_simnet::World::drain_due_into`]) and demultiplexed straight to
//!   the owning socket ([`minion_stack::Host::on_packet_demux`]), which marks
//!   exactly that flow ready;
//! * only ready flows are polled
//!   ([`minion_stack::Host::poll_handle_into`]), through reusable scratch
//!   buffers;
//! * connection edges ([`ConnEvent`]) are surfaced to the application driver,
//!   so it too reacts to readiness instead of sweeping flows.
//!
//! The runtime deliberately supports only directly-linked host topologies
//! (no middleboxes or multi-hop routes): it is the load-scale substrate, and
//! the scenario matrix (`minion-testkit`) remains the place where adversarial
//! topologies live.

use crate::clock::{Clock, VirtualClock};
use crate::metrics::EngineMetrics;
use crate::wheel::TimerWheel;
use minion_obs::PhaseProfile;
use minion_simnet::{LinkConfig, NodeId, Packet, SimDuration, SimTime, World};
use minion_stack::{Host, HostError, SocketHandle};
use minion_tcp::ConnEvent;
use std::time::Instant;

/// Phase names of the engine's event loop, in [`Engine::phases`] slot order.
/// `flush` is the ready-flow polling pass (socket polls + packet egress),
/// `dispatch` the arrival drain + demux, `timers` the wheel advance.
pub const ENGINE_PHASES: &[&str] = &["flush", "dispatch", "timers"];

const PHASE_FLUSH: usize = 0;
const PHASE_DISPATCH: usize = 1;
const PHASE_TIMERS: usize = 2;

/// Index of a host registered with the engine.
pub type EngineHostId = usize;

/// Identifier of a registered flow (one TCP connection endpoint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

struct FlowSlot {
    host: EngineHostId,
    handle: SocketHandle,
}

/// The deterministic multi-flow event runtime.
pub struct Engine {
    world: World,
    hosts: Vec<Host>,
    nodes: Vec<NodeId>,
    /// Virtual time, advanced by the loop to the next scheduled event. The
    /// wheel's ticks are this clock's microseconds (see [`crate::clock`]).
    clock: VirtualClock,
    wheel: TimerWheel<FlowId>,
    flows: Vec<FlowSlot>,
    /// `flow_of[host][handle.0]` → flow, for the arrival path: a [`Host`]
    /// hands handles out sequentially, so the table is as dense as the
    /// host's sockets (listeners and unregistered sockets are the `None`s).
    flow_of: Vec<Vec<Option<FlowId>>>,
    /// Hosts whose freshly accepted connections are auto-registered as flows.
    auto_register: Vec<bool>,
    /// FIFO of flows needing a poll, deduplicated by `ready_mark`.
    ready: Vec<FlowId>,
    ready_mark: Vec<bool>,
    /// Connection edges observed since the last [`Engine::take_events`].
    events_out: Vec<(FlowId, ConnEvent)>,
    /// Flows auto-registered since the last [`Engine::take_accepted`].
    accepted_out: Vec<FlowId>,
    metrics: EngineMetrics,
    /// Wall-clock time per loop phase ([`ENGINE_PHASES`]). Profiling only —
    /// never part of the deterministic report surface.
    phases: PhaseProfile,
    // Reusable scratch buffers (hot path; no per-event allocation).
    arrivals: Vec<(SimTime, Packet)>,
    packets: Vec<Packet>,
    expired: Vec<FlowId>,
    /// Consecutive steps that failed to advance virtual time.
    stall_iterations: u32,
}

impl Engine {
    /// An empty engine whose randomness (loss models) derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            world: World::new(seed),
            hosts: Vec::new(),
            nodes: Vec::new(),
            clock: VirtualClock::new(),
            wheel: TimerWheel::new(),
            flows: Vec::new(),
            flow_of: Vec::new(),
            auto_register: Vec::new(),
            ready: Vec::new(),
            ready_mark: Vec::new(),
            events_out: Vec::new(),
            accepted_out: Vec::new(),
            metrics: EngineMetrics::default(),
            phases: PhaseProfile::new(ENGINE_PHASES),
            arrivals: Vec::new(),
            packets: Vec::new(),
            expired: Vec::new(),
            stall_iterations: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Runtime counters.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Wall-clock phase profile of the loop ([`ENGINE_PHASES`] slots).
    pub fn phases(&self) -> &PhaseProfile {
        &self.phases
    }

    /// Add a host. Flows on it are registered with [`Engine::register_flow`].
    pub fn add_host(&mut self, name: &str) -> EngineHostId {
        let node = self.world.add_node(name);
        self.hosts.push(Host::new(node, name));
        self.nodes.push(node);
        self.flow_of.push(Vec::new());
        self.auto_register.push(false);
        self.hosts.len() - 1
    }

    /// The simulated node of a host (for link statistics queries).
    pub fn node_of(&self, host: EngineHostId) -> NodeId {
        self.nodes[host]
    }

    /// Connect two hosts with identical link characteristics each way.
    pub fn link(&mut self, a: EngineHostId, b: EngineHostId, config: LinkConfig) {
        self.world
            .add_duplex_link(self.nodes[a], self.nodes[b], config);
    }

    /// Connect two hosts with asymmetric characteristics.
    pub fn link_asymmetric(
        &mut self,
        a: EngineHostId,
        b: EngineHostId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.world
            .add_asymmetric_link(self.nodes[a], self.nodes[b], a_to_b, b_to_a);
    }

    /// Borrow a host (socket setup: listen / connect).
    pub fn host_mut(&mut self, host: EngineHostId) -> &mut Host {
        &mut self.hosts[host]
    }

    /// Borrow a host immutably.
    pub fn host(&self, host: EngineHostId) -> &Host {
        &self.hosts[host]
    }

    /// Auto-register connections that a listener on `host` accepts: each new
    /// server-side socket becomes a flow, surfaced via
    /// [`Engine::take_accepted`].
    pub fn set_auto_register(&mut self, host: EngineHostId, enabled: bool) {
        self.auto_register[host] = enabled;
    }

    /// Register an existing TCP socket as an engine-driven flow: enables its
    /// readiness events, arms its timer on the wheel, and schedules an
    /// initial poll (which emits a pending SYN for a connecting socket).
    pub fn register_flow(&mut self, host: EngineHostId, handle: SocketHandle) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowSlot { host, handle });
        let flow_of = &mut self.flow_of[host];
        let slot = handle.0 as usize;
        if flow_of.len() <= slot {
            flow_of.resize(slot + 1, None);
        }
        flow_of[slot] = Some(id);
        self.ready_mark.push(false);
        self.hosts[host]
            .tcp_set_event_interest(handle, true)
            .expect("registered handle is a TCP socket");
        self.mark_ready(id);
        id
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Mark a flow as needing a poll (drivers call this after socket writes
    /// or closes done through [`Engine::host_mut`]).
    pub fn mark_ready(&mut self, flow: FlowId) {
        if !self.ready_mark[flow.index()] {
            self.ready_mark[flow.index()] = true;
            self.ready.push(flow);
        }
    }

    // ------------------------------------------------------------------
    // Flow convenience API (marks readiness so drivers cannot forget)
    // ------------------------------------------------------------------

    /// Write application data on a flow. As a socket does, this accepts the
    /// prefix of `data` that fits the send buffer and returns its length
    /// (0 when the buffer is full); [`ConnEvent::Writable`] reports when an
    /// acknowledgment has made room again.
    pub fn flow_write(&mut self, flow: FlowId, data: &[u8]) -> Result<usize, HostError> {
        let slot = &self.flows[flow.index()];
        let (host, handle) = (slot.host, slot.handle);
        let fits = data
            .len()
            .min(self.hosts[host].tcp_send_buffer_free(handle)?);
        let n = self.hosts[host].tcp_write(handle, &data[..fits])?;
        self.mark_ready(flow);
        Ok(n)
    }

    /// Read the next delivered chunk from a flow.
    ///
    /// Reading reopens receive-window space, so the flow is marked ready for
    /// a poll (like every other state-changing flow accessor) — the next
    /// outgoing segment advertises the updated window.
    pub fn flow_read(&mut self, flow: FlowId) -> Option<minion_tcp::DeliveredChunk> {
        let slot = &self.flows[flow.index()];
        let (host, handle) = (slot.host, slot.handle);
        let chunk = self.hosts[host].tcp_read(handle).ok().flatten();
        if chunk.is_some() {
            self.mark_ready(flow);
        }
        chunk
    }

    /// Request an orderly close of a flow.
    pub fn flow_close(&mut self, flow: FlowId) {
        let slot = &self.flows[flow.index()];
        let (host, handle) = (slot.host, slot.handle);
        let _ = self.hosts[host].tcp_close(handle);
        self.mark_ready(flow);
    }

    /// Connection statistics of a flow.
    pub fn flow_stats(&self, flow: FlowId) -> minion_tcp::ConnStats {
        let slot = &self.flows[flow.index()];
        self.hosts[slot.host]
            .tcp_stats(slot.handle)
            .expect("flow handle is valid")
            .clone()
    }

    /// Congestion-control window telemetry of a flow (cwnd/ssthresh
    /// trajectory, recovery histograms), recorded on the virtual clock.
    pub fn flow_cc_obs(&self, flow: FlowId) -> minion_obs::CcObs {
        let slot = &self.flows[flow.index()];
        self.hosts[slot.host]
            .tcp_connection(slot.handle)
            .expect("flow handle is valid")
            .cc_obs()
            .clone()
    }

    /// Readiness snapshot of a flow.
    pub fn flow_readiness(&self, flow: FlowId) -> minion_tcp::Readiness {
        let slot = &self.flows[flow.index()];
        self.hosts[slot.host]
            .tcp_readiness(slot.handle)
            .expect("flow handle is valid")
    }

    /// The remote address of a flow (drivers use the peer port to pair
    /// accepted server flows with their client counterparts).
    pub fn flow_peer(&self, flow: FlowId) -> minion_stack::SocketAddr {
        let slot = &self.flows[flow.index()];
        self.hosts[slot.host]
            .tcp_peer(slot.handle)
            .expect("flow handle is valid")
    }

    /// Drain the connection edges observed since the last call, in
    /// deterministic dispatch order. Dropping the iterator discards whatever
    /// it has not yielded.
    pub fn take_events(&mut self) -> impl Iterator<Item = (FlowId, ConnEvent)> + '_ {
        self.events_out.drain(..)
    }

    /// Drain the flows auto-registered from accepted connections since the
    /// last call.
    pub fn take_accepted(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.accepted_out)
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// The time of the next scheduled event, if any (`None` means idle).
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        };
        if !self.ready.is_empty() {
            consider(Some(self.clock.now()));
        }
        consider(self.world.next_arrival_time());
        consider(self.wheel.next_wake());
        next
    }

    /// Poll every ready flow at the current time, routing produced packets
    /// into the world and re-arming the wheel.
    fn flush_ready(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        let span = Instant::now();
        let mut i = 0;
        // Flows marked ready *while* flushing (should not happen today, but a
        // poll-driven design tolerates it) are handled in the same pass.
        while i < self.ready.len() {
            let flow = self.ready[i];
            i += 1;
            self.ready_mark[flow.index()] = false;
            let slot = &self.flows[flow.index()];
            let (host, handle) = (slot.host, slot.handle);
            self.packets.clear();
            if self.hosts[host]
                .poll_handle_into(handle, self.clock.now(), &mut self.packets)
                .is_err()
            {
                continue;
            }
            self.metrics.flow_polls += 1;
            let events = self.hosts[host]
                .tcp_take_events(handle)
                .expect("flow handle is valid");
            self.events_out.extend(events.map(|ev| (flow, ev)));
            match self.hosts[host]
                .next_timer_of(handle)
                .expect("flow handle is valid")
            {
                Some(t) => self.wheel.schedule(flow, t),
                None => self.wheel.cancel(flow),
            }
            for pkt in self.packets.drain(..) {
                self.metrics.packets_sent += 1;
                self.metrics.bytes_sent += pkt.wire_size() as u64;
                if !self.world.send(self.clock.now(), pkt).is_scheduled() {
                    self.metrics.packets_dropped += 1;
                }
            }
        }
        self.ready.clear();
        self.phases
            .add(PHASE_FLUSH, span.elapsed().as_nanos() as u64);
    }

    /// Deliver one arrived packet to its host, marking the consuming flow
    /// ready (auto-registering it first if it is a fresh accepted socket).
    fn dispatch_packet(&mut self, pkt: &Packet) {
        self.metrics.packets_delivered += 1;
        // Hosts are the only nodes the engine creates, so node index == host.
        let host = pkt.dst.index();
        if host >= self.hosts.len() {
            return;
        }
        let Some(handle) = self.hosts[host].on_packet_demux(pkt, self.clock.now()) else {
            return;
        };
        match self.flow_of[host].get(handle.0 as usize).copied().flatten() {
            Some(id) => self.mark_ready(id),
            None if self.auto_register[host] => {
                let id = self.register_flow(host, handle);
                self.accepted_out.push(id);
            }
            None => {}
        }
    }

    /// Process all work at the current time and advance to the next event.
    /// Returns `false` once no further events are scheduled (idle).
    pub fn step(&mut self) -> bool {
        self.flush_ready();
        let Some(next) = self.next_event_time() else {
            return false;
        };
        if next > self.clock.now() {
            self.clock.advance_to(next);
            self.stall_iterations = 0;
        } else {
            self.stall_iterations += 1;
            assert!(
                self.stall_iterations < 100_000,
                "engine stopped advancing at {} (stuck timer or zero-delay loop)",
                self.clock.now()
            );
        }
        self.metrics.steps += 1;

        let span = Instant::now();
        self.arrivals.clear();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.world.drain_due_into(self.clock.now(), &mut arrivals);
        for (_, pkt) in &arrivals {
            self.dispatch_packet(pkt);
        }
        self.arrivals = arrivals;
        self.phases
            .add(PHASE_DISPATCH, span.elapsed().as_nanos() as u64);

        let span = Instant::now();
        self.expired.clear();
        let mut expired = std::mem::take(&mut self.expired);
        self.wheel.advance(self.clock.now(), &mut expired);
        self.metrics.timer_fires += expired.len() as u64;
        for flow in &expired {
            self.mark_ready(*flow);
        }
        self.expired = expired;
        self.phases
            .add(PHASE_TIMERS, span.elapsed().as_nanos() as u64);

        self.flush_ready();
        true
    }

    /// Run until virtual time reaches `deadline` (or the engine goes idle).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.next_event_time() {
                None => {
                    self.clock.advance_to(self.clock.now().max(deadline));
                    return;
                }
                Some(t) if t > deadline => {
                    // max(): a deadline already in the past must not move
                    // virtual time backwards.
                    self.clock.advance_to(self.clock.now().max(deadline));
                    return;
                }
                Some(_) => {
                    if !self.step() {
                        self.clock.advance_to(self.clock.now().max(deadline));
                        return;
                    }
                }
            }
        }
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.clock.now() + duration;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_stack::SocketAddr;
    use minion_tcp::{SocketOptions, TcpConfig};

    fn two_hosts(seed: u64) -> (Engine, EngineHostId, EngineHostId) {
        let mut e = Engine::new(seed);
        let a = e.add_host("client");
        let b = e.add_host("server");
        e.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(20)),
        );
        (e, a, b)
    }

    #[test]
    fn one_flow_handshake_transfer_and_close() {
        let (mut e, a, b) = two_hosts(1);
        e.host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        e.set_auto_register(b, true);
        let now = e.now();
        let addr = SocketAddr::new(e.node_of(b), 80);
        let ch =
            e.host_mut(a)
                .tcp_connect(addr, TcpConfig::default(), SocketOptions::standard(), now);
        let cf = e.register_flow(a, ch);
        e.run_for(SimDuration::from_millis(500));
        assert!(e.flow_readiness(cf).established);
        let accepted = e.take_accepted();
        assert_eq!(accepted.len(), 1);
        let sf = accepted[0];
        assert!(e.take_events().any(|ev| ev == (cf, ConnEvent::Established)));

        e.flow_write(cf, b"hello engine").unwrap();
        e.run_for(SimDuration::from_millis(500));
        let chunk = e.flow_read(sf).expect("server flow readable");
        assert_eq!(chunk.data.as_ref(), b"hello engine");
        assert!(e
            .take_events()
            .any(|(f, ev)| f == sf && ev == ConnEvent::Readable));

        e.flow_close(cf);
        e.flow_close(sf);
        e.run_for(SimDuration::from_secs(10));
        assert!(e.flow_readiness(cf).closed);
        assert!(e.metrics().packets_delivered > 0);
        assert!(e.metrics().flow_polls > 0);
    }

    #[test]
    fn flow_write_accepts_the_prefix_that_fits_and_signals_writable() {
        let (mut e, a, b) = two_hosts(5);
        e.host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        e.set_auto_register(b, true);
        let now = e.now();
        let addr = SocketAddr::new(e.node_of(b), 80);
        let ch =
            e.host_mut(a)
                .tcp_connect(addr, TcpConfig::default(), SocketOptions::standard(), now);
        let cf = e.register_flow(a, ch);
        let capacity = e.host(a).tcp_send_buffer_free(ch).unwrap();

        // A write that fits is taken whole and never raises a writable edge.
        assert_eq!(e.flow_write(cf, &[1u8; 1000]).unwrap(), 1000);
        e.run_for(SimDuration::from_millis(500));
        assert!(!e.take_events().any(|ev| ev == (cf, ConnEvent::Writable)));

        // A write past the buffer is taken up to the brim; a full buffer
        // takes nothing (and does not fail).
        let big = vec![2u8; capacity + 5000];
        assert_eq!(e.flow_write(cf, &big).unwrap(), capacity);
        assert_eq!(e.flow_write(cf, &big[capacity..]).unwrap(), 0);
        // The first acknowledgment that frees space says so, once.
        e.run_for(SimDuration::from_millis(500));
        let writable = e
            .take_events()
            .filter(|&ev| ev == (cf, ConnEvent::Writable))
            .count();
        assert_eq!(writable, 1);
        assert_eq!(e.flow_write(cf, &big[capacity..]).unwrap(), 5000);
    }

    #[test]
    fn engine_goes_idle_when_nothing_is_scheduled() {
        let (mut e, _a, _b) = two_hosts(2);
        assert_eq!(e.next_event_time(), None);
        assert!(!e.step());
        e.run_until(SimTime::from_secs(5));
        assert_eq!(e.now(), SimTime::from_secs(5), "run_until honours deadline");
    }

    #[test]
    fn run_until_a_past_deadline_never_rewinds_time() {
        let (mut e, a, b) = two_hosts(7);
        // A pending SYN RTO keeps a future event armed.
        let now = e.now();
        let addr = SocketAddr::new(e.node_of(b), 80);
        let ch =
            e.host_mut(a)
                .tcp_connect(addr, TcpConfig::default(), SocketOptions::standard(), now);
        e.register_flow(a, ch);
        e.run_for(SimDuration::from_secs(5));
        let t = e.now();
        assert!(t >= SimTime::from_secs(5));
        e.run_until(SimTime::from_secs(1)); // already in the past
        assert_eq!(e.now(), t, "virtual time is monotone");
        // And the engine still works afterwards (next RTO fires).
        e.run_for(SimDuration::from_secs(5));
        assert!(e.flow_stats(FlowId(0)).timeouts >= 2);
    }

    #[test]
    fn wheel_is_rearmed_from_connection_timers() {
        let (mut e, a, b) = two_hosts(3);
        // No listener: the SYN goes unanswered, so the flow's life is driven
        // purely by RTO timers on the wheel.
        let now = e.now();
        let addr = SocketAddr::new(e.node_of(b), 80);
        let ch =
            e.host_mut(a)
                .tcp_connect(addr, TcpConfig::default(), SocketOptions::standard(), now);
        let cf = e.register_flow(a, ch);
        e.run_for(SimDuration::from_secs(8));
        let stats = e.flow_stats(cf);
        assert!(
            stats.timeouts >= 2,
            "SYN retransmissions must fire via the wheel, stats={stats:?}"
        );
        assert!(e.metrics().timer_fires >= 2);
        assert!(e
            .take_events()
            .any(|(f, ev)| f == cf && matches!(ev, ConnEvent::RtoFired { .. })));
    }
}
