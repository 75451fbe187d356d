//! The event loop: co-schedules hosts, middleboxes, and the network world in
//! virtual time. It is the only loop in the workspace; the figure binaries,
//! the apps, the scenario matrix and the load scenarios all run on it.
//!
//! Every TCP socket the loop sees becomes a *flow* ([`FlowId`]). The one
//! rule: a flow is polled (`Host::poll_handle_into`) when a packet arrived
//! for it, its timer fired, or the application acted on its socket.
//!
//! * Arrivals are drained in batches
//!   ([`minion_simnet::World::drain_due_into`]) and demultiplexed straight to
//!   the owning socket (`Host::on_packet_demux`).
//! * Per-flow timers live in one min-heap, [`TimerWheel`], that answers
//!   the earliest deadline exactly, so every step has something due. A
//!   re-arm to a later deadline, which TCP does on every ACK, touches only
//!   the key's map entry.
//! * A [`Host`] records the TCP sockets the application acted on: a
//!   connect, an accepted write or close, a read that returned a chunk.
//!   Each flush takes those records, and the datagrams sent on UDP
//!   sockets, from every host; a socket the loop has not met becomes a
//!   flow there.
//!
//! Experiments build a [`Sim`], add hosts and links, then run their
//! application with [`Sim::drive`]: the loop calls it after every event and
//! at the wake time it asks for (its next frame, a flow's start), so it
//! reacts at the instant something happens, not on a tick. It reaches
//! sockets through [`Sim::host_mut`], a plain borrow: looking, or reading an
//! empty socket, costs no poll. [`Sim::run_until`] / [`Sim::run_for`] are
//! `drive` with an application that never reacts.
//!
//! A driver of many flows opens each connection as a flow
//! ([`Sim::flow_connect`], or [`Sim::set_auto_register`] for accepted ones)
//! and finds its socket with [`Sim::flow_socket`]. Registered flows report
//! their connection edges and window samples ([`Sim::take_events`]), so the
//! driver reacts to readiness instead of sweeping flows.
//!
//! Everything is deterministic given the seed: ready flows are polled in the
//! order they became ready (arrivals in arrival order, then timer expiries in
//! `(deadline, flow)` order, then the sockets the application acted on, host
//! by host in node order and by handle within a host).

use crate::addr::{SocketAddr, SocketHandle};
use crate::host::Host;
use crate::middlebox::{Middlebox, MiddleboxBehavior};
use crate::wheel::TimerWheel;
use minion_simnet::{LinkConfig, LinkStats, NodeId, Packet, SimDuration, SimTime, World};
use minion_tcp::{ConnEvent, ConnStats, SocketOptions, TcpConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Phase names of the event loop, in [`Sim::phases`] slot order. `flush` is
/// the ready-flow polling pass (socket polls + packet egress), `dispatch` the
/// arrival drain + demux, `timers` the timer queue's advance.
pub const SIM_PHASES: &[&str] = &["flush", "dispatch", "timers"];

const PHASE_FLUSH: usize = 0;
const PHASE_DISPATCH: usize = 1;
const PHASE_TIMERS: usize = 2;

/// What an application run by [`Sim::drive`] answers each time it reacted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reaction {
    /// The application is finished; `drive` returns `true`.
    Done,
    /// Call again after the next event, or at this time if it comes first.
    Wait(Option<SimTime>),
}

/// Identifier of a flow: one TCP socket known to the loop. Ids are dense and
/// count up from 0 in the order the loop met the sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The id as an index into a per-flow table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Counters of the event loop. Integer-valued and seed-determined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Event-loop iterations.
    pub steps: u64,
    /// Packets handed to nodes (arrival dispatches).
    pub packets_delivered: u64,
    /// Packets offered to the network.
    pub packets_sent: u64,
    /// Wire bytes (payload + framing) of offered packets.
    pub bytes_sent: u64,
    /// Offered packets dropped by loss models or queue overflow.
    pub packets_dropped: u64,
    /// Timer expiries dispatched.
    pub timer_fires: u64,
    /// Per-flow polls executed (each may emit several segments).
    pub flow_polls: u64,
}

impl SimMetrics {
    /// Total dispatched events (arrivals + timer fires).
    pub fn events(&self) -> u64 {
        self.packets_delivered + self.timer_fires
    }
}

struct FlowSlot {
    node: NodeId,
    handle: SocketHandle,
    /// Whether the flow is in the ready FIFO (deduplicates it).
    ready: bool,
}

/// The flow table and the FIFO of flows that need a poll.
#[derive(Default)]
struct Flows {
    slots: Vec<FlowSlot>,
    ready: Vec<FlowId>,
}

impl Flows {
    fn add(&mut self, node: NodeId, handle: SocketHandle) -> FlowId {
        let id = FlowId(self.slots.len() as u32);
        self.slots.push(FlowSlot {
            node,
            handle,
            ready: false,
        });
        id
    }

    fn mark_ready(&mut self, flow: FlowId) {
        let slot = &mut self.slots[flow.index()];
        if !slot.ready {
            slot.ready = true;
            self.ready.push(flow);
        }
    }
}

/// A host and what the loop keeps about it.
struct HostSlot {
    host: Host,
    /// `flow_of[handle.0]` → flow. A [`Host`]'s handles are dense and never
    /// reused (see there), so the table is as dense as the host's sockets
    /// (UDP sockets, and the unissued handle 0, are the `None`s).
    flow_of: Vec<Option<FlowId>>,
    /// Whether connections a listener accepts are registered as flows and
    /// surfaced via [`Sim::take_accepted`].
    auto_register: bool,
}

impl HostSlot {
    fn flow_of(&self, handle: SocketHandle) -> Option<FlowId> {
        self.flow_of.get(handle.0 as usize).copied().flatten()
    }

    /// Make a flow of a TCP socket the loop has not met before.
    fn adopt(&mut self, handle: SocketHandle, flows: &mut Flows) -> FlowId {
        let id = flows.add(self.host.node(), handle);
        let slot = handle.0 as usize;
        if self.flow_of.len() <= slot {
            self.flow_of.resize(slot + 1, None);
        }
        self.flow_of[slot] = Some(id);
        id
    }

    /// Turn a flow's events on, for a driver that drains them
    /// ([`Sim::take_events`]). Nobody reads the events of a socket opened
    /// through [`Sim::host_mut`], so there they stay off.
    fn register(&mut self, handle: SocketHandle) {
        self.host
            .tcp_set_event_interest(handle, true)
            .expect("registered handle is a TCP socket");
    }
}

enum Node {
    Host(HostSlot),
    Middlebox(Middlebox),
}

/// The top-level simulation object.
pub struct Sim {
    world: World,
    /// Hosts and middleboxes, indexed by [`NodeId::index`].
    nodes: Vec<Node>,
    /// The middleboxes among `nodes`, polled at every flush.
    middleboxes: Vec<NodeId>,
    /// Static next-hop routing: (at, final destination) → next hop. Empty
    /// unless [`Sim::add_route`] was called; without an entry the next hop is
    /// the final destination.
    routes: BTreeMap<(NodeId, NodeId), NodeId>,
    now: SimTime,
    /// Per-flow timers, in virtual microseconds.
    wheel: TimerWheel<FlowId>,
    flows: Flows,
    /// Connection edges of registered flows since the last
    /// [`Sim::take_events`].
    events_out: Vec<(FlowId, ConnEvent)>,
    /// Flows auto-registered since the last [`Sim::take_accepted`].
    accepted_out: Vec<FlowId>,
    metrics: SimMetrics,
    /// Wall-clock `(nanos, entries)` per loop phase ([`SIM_PHASES`]).
    /// Profiling only — never part of a deterministic report.
    phases: [(u64, u64); 3],
    // Reusable scratch buffers (hot path; no per-event allocation).
    arrivals: Vec<(SimTime, Packet)>,
    packets: Vec<Packet>,
    acted: Vec<SocketHandle>,
    expired: Vec<FlowId>,
    /// Consecutive steps that failed to advance virtual time.
    stall_iterations: u32,
}

impl Sim {
    /// Create an empty simulation with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            world: World::new(seed),
            nodes: Vec::new(),
            middleboxes: Vec::new(),
            routes: BTreeMap::new(),
            now: SimTime::ZERO,
            wheel: TimerWheel::new(),
            flows: Flows::default(),
            events_out: Vec::new(),
            accepted_out: Vec::new(),
            metrics: SimMetrics::default(),
            phases: [(0, 0); 3],
            arrivals: Vec::new(),
            packets: Vec::new(),
            acted: Vec::new(),
            expired: Vec::new(),
            stall_iterations: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Loop counters.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Wall-clock `(nanos, entries)` of each loop phase, in [`SIM_PHASES`]
    /// order.
    pub fn phases(&self) -> &[(u64, u64)] {
        &self.phases
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: &str) -> NodeId {
        let node = self.world.add_node(name);
        self.nodes.push(Node::Host(HostSlot {
            host: Host::new(node, name),
            flow_of: Vec::new(),
            auto_register: false,
        }));
        node
    }

    /// Add a middlebox node.
    pub fn add_middlebox(&mut self, name: &str, middlebox_behavior: MiddleboxBehavior) -> NodeId {
        let node = self.world.add_node(name);
        self.nodes
            .push(Node::Middlebox(Middlebox::new(node, middlebox_behavior)));
        self.middleboxes.push(node);
        node
    }

    /// Connect two nodes with identical link characteristics in each
    /// direction.
    pub fn link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.world.add_duplex_link(a, b, config);
    }

    /// Connect two nodes with asymmetric characteristics (`a_to_b` and
    /// `b_to_a`).
    pub fn link_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.world.add_asymmetric_link(a, b, a_to_b, b_to_a);
    }

    /// Install a route: packets at `at` destined for `dst` are forwarded to
    /// `via` (which must be directly linked to `at`).
    pub fn add_route(&mut self, at: NodeId, dst: NodeId, via: NodeId) {
        self.routes.insert((at, dst), via);
    }

    fn host_slot(&self, id: NodeId) -> &HostSlot {
        match self.nodes.get(id.index()) {
            Some(Node::Host(slot)) => slot,
            _ => panic!("{id} is not a host"),
        }
    }

    /// [`host_slot`](Self::host_slot) mutably, over the node table alone for
    /// callers that borrow another field of the loop alongside.
    fn host_slot_in(nodes: &mut [Node], id: NodeId) -> &mut HostSlot {
        match nodes.get_mut(id.index()) {
            Some(Node::Host(slot)) => slot,
            _ => panic!("{id} is not a host"),
        }
    }

    /// Borrow a host immutably.
    pub fn host(&self, id: NodeId) -> &Host {
        &self.host_slot(id).host
    }

    /// Borrow a host mutably (socket operations go through this). The
    /// borrow itself costs nothing: the next flush sends the UDP datagrams
    /// sent through it and polls the TCP sockets acted on through it.
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        &mut Self::host_slot_in(&mut self.nodes, id).host
    }

    /// Borrow a middlebox immutably.
    pub fn middlebox(&self, id: NodeId) -> &Middlebox {
        match self.nodes.get(id.index()) {
            Some(Node::Middlebox(m)) => m,
            _ => panic!("{id} is not a middlebox"),
        }
    }

    /// Link statistics for the `a -> b` direction.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> Option<&LinkStats> {
        self.world.link_stats(a, b)
    }

    /// Current backlog in bytes of the `a -> b` link.
    pub fn link_backlog(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.world.link_backlog(a, b, self.now)
    }

    // ------------------------------------------------------------------
    // Flows
    // ------------------------------------------------------------------

    /// Auto-register connections that a listener on `node` accepts: each new
    /// server-side socket becomes a registered flow, surfaced via
    /// [`Sim::take_accepted`].
    pub fn set_auto_register(&mut self, node: NodeId) {
        Self::host_slot_in(&mut self.nodes, node).auto_register = true;
    }

    /// Open a TCP connection from `node` to `remote` as a registered flow:
    /// its events are on, and it is scheduled for a poll (which emits the
    /// SYN and takes the first window sample).
    pub fn flow_connect(
        &mut self,
        node: NodeId,
        remote: SocketAddr,
        config: TcpConfig,
        options: SocketOptions,
    ) -> FlowId {
        let slot = Self::host_slot_in(&mut self.nodes, node);
        let handle = slot.host.tcp_connect(remote, config, options, self.now);
        slot.register(handle);
        let id = slot.adopt(handle, &mut self.flows);
        self.flows.mark_ready(id);
        id
    }

    /// The host and socket behind a flow.
    pub fn flow_socket(&self, flow: FlowId) -> (NodeId, SocketHandle) {
        let slot = &self.flows.slots[flow.index()];
        (slot.node, slot.handle)
    }

    /// Connection statistics of a flow.
    pub fn flow_stats(&self, flow: FlowId) -> ConnStats {
        let (node, handle) = self.flow_socket(flow);
        self.host(node)
            .tcp_stats(handle)
            .expect("flow handle is valid")
            .clone()
    }

    /// Drain the connection edges of registered flows observed since the
    /// last call, in deterministic dispatch order. Dropping the iterator
    /// discards whatever it has not yielded.
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

    /// Offer one packet to the network, consulting the routes if any were
    /// installed.
    fn send(&mut self, mut pkt: Packet) {
        if let Some(&via) = self.routes.get(&(pkt.src, pkt.final_dst)) {
            pkt.dst = via;
        }
        self.metrics.packets_sent += 1;
        self.metrics.bytes_sent += pkt.wire_size() as u64;
        if !self.world.send(self.now, pkt).is_scheduled() {
            self.metrics.packets_dropped += 1;
        }
    }

    /// What the application did through [`Sim::host_mut`]: per host, in
    /// node order, send its UDP datagrams and mark ready the TCP sockets it
    /// acted on, in handle order, making flows of those the loop has not
    /// met.
    fn collect_acted(&mut self) {
        let mut packets = std::mem::take(&mut self.packets);
        let mut acted = std::mem::take(&mut self.acted);
        for i in 0..self.nodes.len() {
            let Node::Host(slot) = &mut self.nodes[i] else {
                continue;
            };
            slot.host.drain_udp_outbox(&mut packets);
            slot.host.drain_acted(&mut acted);
            for handle in acted.drain(..) {
                let flow = match slot.flow_of(handle) {
                    Some(flow) => flow,
                    None => slot.adopt(handle, &mut self.flows),
                };
                self.flows.mark_ready(flow);
            }
            for pkt in packets.drain(..) {
                self.send(pkt);
            }
        }
        self.packets = packets;
        self.acted = acted;
    }

    /// Poll one ready flow at the current time: surface its edge events,
    /// re-arm its timer, and offer its packets to the network.
    fn poll_flow(&mut self, flow: FlowId) {
        let slot = &mut self.flows.slots[flow.index()];
        slot.ready = false;
        let handle = slot.handle;
        let host = &mut Self::host_slot_in(&mut self.nodes, slot.node).host;
        let mut packets = std::mem::take(&mut self.packets);
        host.poll_handle_into(handle, self.now, &mut packets)
            .expect("flow handle is a TCP socket");
        self.metrics.flow_polls += 1;
        let events = host.tcp_take_events(handle).expect("flow handle is valid");
        self.events_out.extend(events.map(|ev| (flow, ev)));
        match host.next_timer_of(handle).expect("flow handle is valid") {
            Some(t) => self.wheel.schedule(flow, t),
            None => self.wheel.cancel(flow),
        }
        for pkt in packets.drain(..) {
            self.send(pkt);
        }
        self.packets = packets;
    }

    /// Whether the application left work for the next flush.
    fn has_pending(&self) -> bool {
        !self.flows.ready.is_empty()
            || self
                .nodes
                .iter()
                .any(|node| matches!(node, Node::Host(slot) if slot.host.has_pending()))
    }

    /// Everything due at the current time: collect what the applications
    /// did, poll the ready flows in the order they became ready, and collect
    /// what the middleboxes release.
    fn flush(&mut self) {
        self.collect_acted();
        // A poll marks nothing ready today, but indexing tolerates it.
        let mut i = 0;
        while i < self.flows.ready.len() {
            self.poll_flow(self.flows.ready[i]);
            i += 1;
        }
        self.flows.ready.clear();
        for i in 0..self.middleboxes.len() {
            let Node::Middlebox(m) = &mut self.nodes[self.middleboxes[i].index()] else {
                unreachable!("listed as a middlebox");
            };
            for pkt in m.poll(self.now) {
                self.send(pkt);
            }
        }
    }

    /// Deliver one arrived packet to its node. At a host, the socket that
    /// consumed it is marked ready; a socket a SYN has just created is made a
    /// flow first (a registered one if the host auto-registers).
    fn dispatch(&mut self, pkt: &Packet) {
        self.metrics.packets_delivered += 1;
        let slot = match &mut self.nodes[pkt.dst.index()] {
            Node::Middlebox(m) => return m.on_packet(pkt, self.now),
            Node::Host(slot) => slot,
        };
        let Some(handle) = slot.host.on_packet_demux(pkt, self.now) else {
            return;
        };
        let flow = match slot.flow_of(handle) {
            Some(flow) => flow,
            None if slot.host.is_tcp(handle) => {
                let flow = slot.adopt(handle, &mut self.flows);
                if slot.auto_register {
                    slot.register(handle);
                    self.accepted_out.push(flow);
                }
                flow
            }
            None => return, // A UDP socket: nothing to poll.
        };
        self.flows.mark_ready(flow);
    }

    /// The time of the next scheduled event: now if the application left
    /// work for the next flush, else the earliest of the next packet arrival,
    /// the earliest flow timer and the middleboxes' hold timers. `None`
    /// means idle.
    fn next_event_time(&mut self) -> Option<SimTime> {
        let timer = self.wheel.next_wake();
        let held = self
            .middleboxes
            .iter()
            .filter_map(|&m| self.middlebox(m).next_timer());
        self.has_pending()
            .then_some(self.now)
            .into_iter()
            .chain(self.world.next_arrival_time())
            .chain(timer)
            .chain(held)
            .min()
    }

    /// Move the clock to `to`, which is never in the past of a loop that
    /// works: a loop that keeps landing on the same instant is stuck.
    fn advance(&mut self, to: SimTime) {
        if to > self.now {
            self.now = to;
            self.stall_iterations = 0;
        } else {
            self.stall_iterations += 1;
            assert!(
                self.stall_iterations < 100_000,
                "simulation stopped advancing at {} (stuck timer, routing loop or wake)",
                self.now
            );
        }
    }

    /// Advance to `next` (a time [`Sim::next_event_time`] returned after a
    /// flush) and process everything due then.
    fn process(&mut self, next: SimTime) {
        self.advance(next);
        self.metrics.steps += 1;

        let start = Instant::now();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.world.drain_due_into(self.now, &mut arrivals);
        for (_, pkt) in arrivals.drain(..) {
            self.dispatch(&pkt);
        }
        self.arrivals = arrivals;
        let dispatched = Instant::now();

        let mut expired = std::mem::take(&mut self.expired);
        self.wheel.advance(self.now, &mut expired);
        self.metrics.timer_fires += expired.len() as u64;
        for flow in expired.drain(..) {
            self.flows.mark_ready(flow);
        }
        self.expired = expired;
        let timed = Instant::now();

        self.flush();
        self.span(PHASE_FLUSH, timed, Instant::now());
        self.span(PHASE_DISPATCH, start, dispatched);
        self.span(PHASE_TIMERS, dispatched, timed);
    }

    fn span(&mut self, phase: usize, from: Instant, to: Instant) {
        let (nanos, entries) = &mut self.phases[phase];
        *nanos = nanos.saturating_add((to - from).as_nanos() as u64);
        *entries += 1;
    }

    /// Flush what the application left, timing it as a flush span if there
    /// was anything.
    fn flush_pending(&mut self) {
        if self.has_pending() {
            let start = Instant::now();
            self.flush();
            self.span(PHASE_FLUSH, start, Instant::now());
        }
    }

    /// Process all work at the current time and advance to the next event.
    /// Returns `false` once no further events are scheduled (idle).
    pub fn step(&mut self) -> bool {
        self.flush_pending();
        let Some(next) = self.next_event_time() else {
            return false;
        };
        self.process(next);
        true
    }

    /// Run an application on the loop until it is done or `deadline` comes.
    ///
    /// `react` is called once at the current time, then again after every
    /// event: each step of the loop, or the application's own wake time if
    /// that comes first. It looks at the hosts, acts, and answers
    /// [`Reaction::Done`] or [`Reaction::Wait`] with its next wake time (a
    /// frame to send, a flow to start). Returns `true` on `Done`, with the
    /// clock where the application finished; `false` when the next event
    /// and wake lie past `deadline` or nothing is scheduled, with the clock
    /// at `deadline` (or where it was, if that is later). The loop flushes
    /// before it looks at the clock, so it never steps past the deadline to
    /// deliver what a ready flow has just sent.
    pub fn drive(
        &mut self,
        deadline: SimTime,
        mut react: impl FnMut(&mut Sim) -> Reaction,
    ) -> bool {
        loop {
            let wake = match react(self) {
                Reaction::Done => return true,
                Reaction::Wait(wake) => wake,
            };
            self.flush_pending();
            let next = self.next_event_time();
            match next.into_iter().chain(wake).min() {
                Some(at) if at <= deadline && next == Some(at) => self.process(at),
                Some(at) if at <= deadline => self.advance(at),
                _ => {
                    // max(): a deadline already in the past must not move
                    // virtual time backwards.
                    self.now = self.now.max(deadline);
                    return false;
                }
            }
        }
    }

    /// Run until virtual time reaches `deadline` (or no events remain):
    /// [`Sim::drive`] with an application that never reacts.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.drive(deadline, |_| Reaction::Wait(None));
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::LossConfig;
    use minion_tcp::Readiness;

    #[test]
    fn events_sums_arrivals_and_timers() {
        let m = SimMetrics {
            packets_delivered: 10,
            timer_fires: 3,
            ..Default::default()
        };
        assert_eq!(m.events(), 13);
    }

    /// Two hosts, 60 ms RTT, plenty of bandwidth.
    fn basic_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(42);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(30)),
        );
        (sim, a, b)
    }

    /// Listen on `b`:80 and open a connection from `a` to it through the
    /// host.
    fn connect(sim: &mut Sim, a: NodeId, b: NodeId) -> SocketHandle {
        listen(sim, b);
        let now = sim.now();
        sim.host_mut(a).tcp_connect(
            SocketAddr::new(b, 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            now,
        )
    }

    /// Listen on `b`:80 unless it already does.
    fn listen(sim: &mut Sim, b: NodeId) {
        let _ = sim
            .host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard());
    }

    /// Open a flow from `a` to `b`:80, whether or not anything listens.
    fn flow_to(sim: &mut Sim, a: NodeId, b: NodeId) -> FlowId {
        let remote = SocketAddr::new(b, 80);
        sim.flow_connect(a, remote, TcpConfig::default(), SocketOptions::standard())
    }

    /// Listen on `b`:80 and open a flow from `a` to it.
    fn connect_flow(sim: &mut Sim, a: NodeId, b: NodeId) -> FlowId {
        listen(sim, b);
        flow_to(sim, a, b)
    }

    /// The host of a flow and the flow's socket, to act on it.
    fn socket(sim: &mut Sim, flow: FlowId) -> (&mut Host, SocketHandle) {
        let (node, handle) = sim.flow_socket(flow);
        (sim.host_mut(node), handle)
    }

    fn readiness(sim: &Sim, flow: FlowId) -> Readiness {
        let (node, handle) = sim.flow_socket(flow);
        sim.host(node).tcp_readiness(handle).unwrap()
    }

    fn drain_bytes(sim: &mut Sim, node: NodeId, handle: SocketHandle) -> Vec<u8> {
        let mut chunks = vec![];
        while let Some(c) = sim.host_mut(node).tcp_read(handle).unwrap() {
            chunks.push(c);
        }
        chunks.sort_by_key(|c| c.offset);
        let mut out = vec![];
        for c in chunks {
            let off = c.offset as usize;
            if out.len() < off + c.len() {
                out.resize(off + c.len(), 0);
            }
            out[off..off + c.len()].copy_from_slice(&c.data);
        }
        out
    }

    #[test]
    fn end_to_end_tcp_transfer_over_the_simulator() {
        let (mut sim, a, b) = basic_sim();
        sim.host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = sim.host_mut(a).tcp_connect(
            SocketAddr::new(b, 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        );
        sim.run_for(SimDuration::from_millis(200));
        assert!(sim.host(a).tcp_established(ch).unwrap());
        let sh = sim.host_mut(b).accept(80).expect("accepted");

        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        sim.host_mut(a).tcp_write(ch, &data).unwrap();
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(drain_bytes(&mut sim, b, sh), data);
        // Round-trip estimate should reflect the 60 ms path.
        let srtt = sim.host(a).tcp_connection(ch).unwrap().srtt().unwrap();
        assert!(srtt.as_millis_f64() >= 59.0, "srtt={srtt}");
    }

    #[test]
    fn transfer_completes_despite_random_loss() {
        let mut sim = Sim::new(7);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(30))
                .with_loss(LossConfig::Bernoulli { probability: 0.02 }),
        );
        sim.host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = sim.host_mut(a).tcp_connect(
            SocketAddr::new(b, 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        );
        sim.run_for(SimDuration::from_millis(300));
        let sh = sim.host_mut(b).accept(80).expect("accepted");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 83) as u8).collect();
        sim.host_mut(a).tcp_write(ch, &data).unwrap();
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(drain_bytes(&mut sim, b, sh), data);
        assert!(
            sim.host(a).tcp_stats(ch).unwrap().retransmissions > 0,
            "2% loss should force retransmissions"
        );
    }

    #[test]
    fn udp_datagrams_flow_through_the_simulator() {
        let (mut sim, a, b) = basic_sim();
        let sa = sim.host_mut(a).udp_bind(1111).unwrap();
        let sb = sim.host_mut(b).udp_bind(2222).unwrap();
        for i in 0..5u8 {
            sim.host_mut(a)
                .udp_send_to(sa, SocketAddr::new(b, 2222), &[i; 100])
                .unwrap();
        }
        sim.run_for(SimDuration::from_millis(100));
        let mut got = vec![];
        while let Some((from, data)) = sim.host_mut(b).udp_recv(sb).unwrap() {
            assert_eq!(from.node, a);
            got.push(data[0]);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // And the reverse direction.
        sim.host_mut(b)
            .udp_send_to(sb, SocketAddr::new(a, 1111), b"pong")
            .unwrap();
        sim.run_for(SimDuration::from_millis(100));
        assert!(sim.host_mut(a).udp_recv(sa).unwrap().is_some());
    }

    #[test]
    fn traffic_routes_through_a_middlebox_node() {
        // client -- middlebox -- server, with the middlebox re-segmenting.
        let mut sim = Sim::new(3);
        let a = sim.add_host("client");
        let m = sim.add_middlebox("resegmenter", MiddleboxBehavior::Split { max_payload: 500 });
        let b = sim.add_host("server");
        sim.link(
            a,
            m,
            LinkConfig::new(10_000_000, SimDuration::from_millis(15)),
        );
        sim.link(
            m,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(15)),
        );
        // Routes through the middlebox.
        sim.add_route(a, b, m);
        sim.add_route(b, a, m);

        sim.host_mut(b)
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = sim.host_mut(a).tcp_connect(
            SocketAddr::new(b, 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        );
        sim.run_for(SimDuration::from_millis(300));
        let sh = sim.host_mut(b).accept(80).expect("accepted");
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 99) as u8).collect();
        sim.host_mut(a).tcp_write(ch, &data).unwrap();
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(drain_bytes(&mut sim, b, sh), data);
        assert!(
            sim.middlebox(m).stats().splits > 0,
            "segments larger than 500 B must have been split"
        );
    }

    #[test]
    fn run_until_stops_at_the_deadline() {
        let (mut sim, a, b) = basic_sim();
        let sa = sim.host_mut(a).udp_bind(1).unwrap();
        sim.host_mut(b).udp_bind(2).unwrap();
        sim.host_mut(a)
            .udp_send_to(sa, SocketAddr::new(b, 2), b"x")
            .unwrap();
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn one_flow_handshake_transfer_and_close() {
        let (mut sim, a, b) = basic_sim();
        sim.set_auto_register(b);
        let cf = connect_flow(&mut sim, a, b);
        sim.run_for(SimDuration::from_millis(500));
        assert!(readiness(&sim, cf).established);
        let accepted = sim.take_accepted();
        assert_eq!(accepted.len(), 1);
        let sf = accepted[0];
        assert!(sim
            .take_events()
            .any(|ev| ev == (cf, ConnEvent::Established)));

        let (host, ch) = socket(&mut sim, cf);
        host.tcp_write(ch, b"hello engine").unwrap();
        sim.run_for(SimDuration::from_millis(500));
        let (host, sh) = socket(&mut sim, sf);
        let chunk = host.tcp_read(sh).unwrap().expect("server flow readable");
        assert_eq!(chunk.data.as_ref(), b"hello engine");
        assert!(sim
            .take_events()
            .any(|(f, ev)| f == sf && ev == ConnEvent::Readable));

        let (host, ch) = socket(&mut sim, cf);
        host.tcp_close(ch).unwrap();
        let (host, sh) = socket(&mut sim, sf);
        host.tcp_close(sh).unwrap();
        sim.run_for(SimDuration::from_secs(10));
        assert!(readiness(&sim, cf).closed);
        assert!(sim.metrics().packets_delivered > 0);
        assert!(sim.metrics().flow_polls > 0);
    }

    #[test]
    fn engine_goes_idle_when_nothing_is_scheduled() {
        let (mut sim, _a, _b) = basic_sim();
        assert_eq!(sim.next_event_time(), None);
        assert!(!sim.step());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.now(),
            SimTime::from_secs(5),
            "run_until honours deadline"
        );
    }

    #[test]
    fn run_until_a_past_deadline_never_rewinds_time() {
        let (mut sim, a, b) = basic_sim();
        // Nobody listens: a pending SYN RTO keeps a future event armed.
        let cf = flow_to(&mut sim, a, b);
        sim.run_for(SimDuration::from_secs(5));
        let t = sim.now();
        assert!(t >= SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(1)); // already in the past
        assert_eq!(sim.now(), t, "virtual time is monotone");
        // And the loop still works afterwards (next RTO fires).
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.flow_stats(cf).timeouts >= 2);
    }

    #[test]
    fn wheel_is_rearmed_from_connection_timers() {
        let (mut sim, a, b) = basic_sim();
        // No listener: the SYN goes unanswered, so the flow's life is driven
        // purely by RTO timers in the timer queue.
        let cf = flow_to(&mut sim, a, b);
        sim.run_for(SimDuration::from_secs(8));
        let stats = sim.flow_stats(cf);
        assert!(
            stats.timeouts >= 2,
            "SYN retransmissions must fire via the timer queue, stats={stats:?}"
        );
        assert!(sim.metrics().timer_fires >= 2);
        assert!(sim
            .take_events()
            .any(|(f, ev)| f == cf && matches!(ev, ConnEvent::RtoFired { .. })));
    }

    /// `Engine::run_until` looked at the clock *before* flushing, so a flow
    /// that was ready took it one step past the deadline — here to the SYN's
    /// arrival at 30.054 ms.
    #[test]
    fn run_until_stops_at_the_deadline_with_a_ready_flow() {
        let (mut sim, a, b) = basic_sim();
        connect_flow(&mut sim, a, b);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.metrics().packets_sent, 1, "the SYN left at t = 0");
        assert_eq!(sim.metrics().packets_delivered, 0, "and is still in flight");
    }

    /// Registered flows and a UDP socket on one host at once, across a
    /// route: the flows move 30 KB through a re-segmenting middlebox while a
    /// UDP datagram leaves the same host.
    #[test]
    fn registered_flows_cross_a_middlebox_beside_udp_on_the_same_host() {
        let mut sim = Sim::new(3);
        let a = sim.add_host("client");
        let m = sim.add_middlebox("resegmenter", MiddleboxBehavior::Split { max_payload: 500 });
        let b = sim.add_host("server");
        let hop = LinkConfig::new(10_000_000, SimDuration::from_millis(15));
        sim.link(a, m, hop.clone());
        sim.link(m, b, hop);
        sim.add_route(a, b, m);
        sim.add_route(b, a, m);
        sim.set_auto_register(b);
        let ua = sim.host_mut(a).udp_bind(1111).unwrap();
        let ub = sim.host_mut(b).udp_bind(2222).unwrap();

        let clients: Vec<FlowId> = (0..2).map(|_| connect_flow(&mut sim, a, b)).collect();
        sim.run_for(SimDuration::from_millis(300));
        let servers = sim.take_accepted();
        assert_eq!(servers.len(), 2);

        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 99) as u8).collect();
        for &cf in &clients {
            let (host, ch) = socket(&mut sim, cf);
            assert_eq!(host.tcp_write(ch, &data).unwrap(), data.len());
        }
        sim.host_mut(a)
            .udp_send_to(ua, SocketAddr::new(b, 2222), b"beside the flows")
            .unwrap();
        sim.run_for(SimDuration::from_secs(10));
        for &sf in &servers {
            let (node, handle) = sim.flow_socket(sf);
            assert_eq!(drain_bytes(&mut sim, node, handle), data);
        }
        let (from, datagram) = sim.host_mut(b).udp_recv(ub).unwrap().expect("delivered");
        assert_eq!((from.node, &datagram[..]), (a, &b"beside the flows"[..]));
        assert!(sim.middlebox(m).stats().splits > 0, "segments were split");
    }

    /// The loop polls what is ready, not what exists: with 100 established
    /// connections sitting idle on one pair of hosts, a second in which only
    /// a UDP datagram crosses another pair steps the loop and polls nothing.
    #[test]
    fn idle_sockets_are_not_polled() {
        let (mut sim, a, b) = basic_sim();
        let c = sim.add_host("c");
        let d = sim.add_host("d");
        sim.link(
            c,
            d,
            LinkConfig::new(10_000_000, SimDuration::from_millis(30)),
        );
        let uc = sim.host_mut(c).udp_bind(1).unwrap();
        let ud = sim.host_mut(d).udp_bind(2).unwrap();
        let handles: Vec<SocketHandle> = (0..100).map(|_| connect(&mut sim, a, b)).collect();
        sim.run_for(SimDuration::from_secs(5));
        assert!(handles
            .iter()
            .all(|&h| sim.host(a).tcp_established(h).unwrap()));

        let before = *sim.metrics();
        sim.host_mut(c)
            .udp_send_to(uc, SocketAddr::new(d, 2), b"x")
            .unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.host_mut(d).udp_recv(ud).unwrap().is_some());
        assert!(sim.metrics().steps > before.steps, "the loop did run");
        assert_eq!(sim.metrics().flow_polls, before.flow_polls);
    }

    /// An application's own wake time is honoured exactly, with nothing on
    /// the network to carry the loop there.
    #[test]
    fn drive_wakes_the_application_at_its_wake_time_on_an_idle_network() {
        let (mut sim, _, _) = basic_sim();
        let wake = SimTime::from_micros(7_321);
        let mut seen = vec![];
        let done = sim.drive(SimTime::from_secs(1), |sim| {
            seen.push(sim.now());
            if sim.now() < wake {
                Reaction::Wait(Some(wake))
            } else {
                Reaction::Done
            }
        });
        assert!(done);
        assert_eq!(seen, [SimTime::ZERO, wake]);
        assert_eq!(sim.now(), wake);
        assert_eq!(sim.metrics().steps, 0, "a wake is not a loop step");
    }

    /// `Done` at the first look returns at once: no time passes and the
    /// pending work is left for the next run.
    #[test]
    fn drive_returns_at_once_on_done() {
        let (mut sim, a, b) = basic_sim();
        connect_flow(&mut sim, a, b);
        assert!(sim.drive(SimTime::from_secs(1), |_| Reaction::Done));
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(*sim.metrics(), SimMetrics::default());
    }

    /// At the deadline `drive` gives up with the clock on the deadline, even
    /// when the application's wake or the next event lies just past it.
    #[test]
    fn drive_stops_at_the_deadline() {
        let (mut sim, a, b) = basic_sim();
        connect_flow(&mut sim, a, b);
        let deadline = SimTime::from_millis(5);
        let mut latest = SimTime::ZERO;
        let done = sim.drive(deadline, |sim| {
            latest = sim.now();
            Reaction::Wait(Some(deadline + SimDuration::from_micros(1)))
        });
        assert!(!done);
        assert_eq!(sim.now(), deadline);
        assert!(latest < deadline, "react never ran past the deadline");
    }

    /// The application reacts at the instant a packet arrives, not at the
    /// end of some polling interval.
    #[test]
    fn drive_reacts_when_a_datagram_arrives() {
        let (mut sim, a, b) = basic_sim();
        let sa = sim.host_mut(a).udp_bind(1).unwrap();
        let sb = sim.host_mut(b).udp_bind(2).unwrap();
        sim.host_mut(a)
            .udp_send_to(sa, SocketAddr::new(b, 2), b"x")
            .unwrap();
        let done = sim.drive(SimTime::from_secs(1), |sim| {
            match sim.host_mut(b).udp_recv(sb).unwrap() {
                Some(_) => Reaction::Done,
                None => Reaction::Wait(None),
            }
        });
        assert!(done);
        let heard = sim.now();
        assert!(
            heard > SimTime::from_millis(30) && heard < SimTime::from_millis(31),
            "30 ms propagation plus one small datagram's serialisation: {heard}"
        );
    }

    /// Opening a flow polls that flow alone: with N established, idle flows
    /// on the client, the flush after one more `flow_connect` polls only the
    /// new one, not the N + 1 flows of the host. The flush is counted alone:
    /// the step it opens may go on to deliver the SYN and poll its peer.
    #[test]
    fn connecting_a_flow_polls_only_that_flow() {
        const N: u64 = 32;
        let (mut sim, a, b) = basic_sim();
        sim.set_auto_register(b);
        let flows: Vec<FlowId> = (0..N).map(|_| connect_flow(&mut sim, a, b)).collect();
        sim.run_for(SimDuration::from_secs(5));
        assert!(flows.iter().all(|&f| readiness(&sim, f).established));
        assert_eq!(sim.take_accepted().len() as u64, N);

        let before = sim.metrics().flow_polls;
        flow_to(&mut sim, a, b);
        sim.flush_pending();
        assert_eq!(sim.metrics().flow_polls - before, 1);
    }

    /// N established connections opened through `host_mut`, idle on the
    /// client.
    fn idle_connections(sim: &mut Sim, a: NodeId, b: NodeId, n: usize) -> Vec<SocketHandle> {
        let handles: Vec<SocketHandle> = (0..n).map(|_| connect(sim, a, b)).collect();
        sim.run_for(SimDuration::from_secs(5));
        assert!(handles
            .iter()
            .all(|&h| sim.host(a).tcp_established(h).unwrap()));
        handles
    }

    /// A write is work for its socket alone: with N established, idle
    /// connections on the client, a write through `host_mut` on one of them
    /// polls that one, not all N. As above, the flush is counted alone.
    #[test]
    fn a_write_through_host_mut_polls_only_that_flow() {
        const N: usize = 32;
        let (mut sim, a, b) = basic_sim();
        let handles = idle_connections(&mut sim, a, b, N);

        let before = sim.metrics().flow_polls;
        sim.host_mut(a).tcp_write(handles[N / 2], b"one").unwrap();
        sim.flush_pending();
        assert_eq!(sim.metrics().flow_polls - before, 1);
    }

    /// A borrow that changes nothing polls nothing: reading an empty socket
    /// and looking at its readiness through `host_mut` leaves the next step
    /// without a poll of any of the N idle connections.
    #[test]
    fn a_borrow_that_changes_nothing_polls_nothing() {
        const N: usize = 32;
        let (mut sim, a, b) = basic_sim();
        let handles = idle_connections(&mut sim, a, b, N);

        let before = sim.metrics().flow_polls;
        let host = sim.host_mut(a);
        assert!(host.tcp_read(handles[0]).unwrap().is_none());
        assert!(!host.tcp_readiness(handles[0]).unwrap().readable);
        sim.step();
        assert_eq!(sim.metrics().flow_polls - before, 0);
    }

    /// The oracle for the polling rule: mark every flow of every host ready,
    /// host by host in node order and by handle within a host, so the next
    /// flush polls them all in the order the rule polls any subset of them.
    fn poll_every_flow(sim: &mut Sim) {
        for node in &sim.nodes {
            if let Node::Host(slot) = node {
                for &flow in slot.flow_of.iter().flatten() {
                    sim.flows.mark_ready(flow);
                }
            }
        }
    }

    /// What [`mixed_run`] observed: the loop's counters, each link
    /// direction's counters, and the TCP and UDP bytes delivered.
    type MixedRun = (SimMetrics, Vec<LinkStats>, u64, u64);

    /// A seeded mixed scenario on `a -- m -- b`, `m` re-segmenting and both
    /// hops losing 1 %: a host-door application writes 300 KB on one of five
    /// connections from `a` (four stay idle) and closes it. On a 10 ms tick
    /// of its own it sends a UDP datagram from `a` to `b` (100 in all) and
    /// reads what `b` received, so `b`'s 8 KB receive window closes between
    /// reads and only a read reopens it. With `oracle`, every flow is polled
    /// at every reaction.
    fn mixed_run(oracle: bool) -> MixedRun {
        const TOTAL: u64 = 300_000;
        const TICK: SimDuration = SimDuration::from_millis(10);
        let mut sim = Sim::new(11);
        let a = sim.add_host("a");
        let m = sim.add_middlebox("resegmenter", MiddleboxBehavior::Split { max_payload: 700 });
        let b = sim.add_host("b");
        let hop = LinkConfig::new(4_000_000, SimDuration::from_millis(10))
            .with_queue_bytes(32 * 1024)
            .with_loss(LossConfig::Bernoulli { probability: 0.01 });
        sim.link(a, m, hop.clone());
        sim.link(m, b, hop);
        sim.add_route(a, b, m);
        sim.add_route(b, a, m);
        let small_window = TcpConfig::default().with_buffers(64 * 1024, 8 * 1024);
        sim.host_mut(b)
            .tcp_listen(80, small_window, SocketOptions::standard())
            .unwrap();
        let ua = sim.host_mut(a).udp_bind(1111).unwrap();
        let ub = sim.host_mut(b).udp_bind(2222).unwrap();
        let conns: Vec<SocketHandle> = (0..5).map(|_| connect(&mut sim, a, b)).collect();
        let data = conns[2];

        let (mut written, mut delivered, mut udp_sent, mut udp_bytes) = (0u64, 0u64, 0u64, 0u64);
        let mut accepted = vec![];
        let mut tick = SimTime::ZERO;
        sim.drive(SimTime::from_secs(30), |sim| {
            if oracle {
                poll_every_flow(sim);
            }
            let now = sim.now();
            let host = sim.host_mut(a);
            if host.tcp_established(data).unwrap() && written < TOTAL {
                let chunk = host.tcp_send_buffer_free(data).unwrap().min(1000);
                let chunk = chunk.min((TOTAL - written) as usize);
                written += host.tcp_write(data, &vec![7u8; chunk]).unwrap() as u64;
                if written == TOTAL {
                    host.tcp_close(data).unwrap();
                }
            }
            if now < tick {
                return Reaction::Wait(Some(tick));
            }
            if udp_sent < 100 {
                host.udp_send_to(ua, SocketAddr::new(b, 2222), &[udp_sent as u8; 300])
                    .unwrap();
                udp_sent += 1;
            }
            let host = sim.host_mut(b);
            accepted.extend(std::iter::from_fn(|| host.accept(80)));
            for &h in &accepted {
                while let Some(chunk) = host.tcp_read(h).unwrap() {
                    delivered += chunk.len() as u64;
                }
            }
            while let Some((_, datagram)) = host.udp_recv(ub).unwrap() {
                udp_bytes += datagram.len() as u64;
            }
            tick += TICK;
            Reaction::Wait((delivered < TOTAL || udp_sent < 100).then_some(tick))
        });
        assert_eq!(delivered, TOTAL, "the transfer completed");
        let links = [(a, m), (m, a), (m, b), (b, m)]
            .map(|(x, y)| sim.link_stats(x, y).unwrap().clone())
            .to_vec();
        (*sim.metrics(), links, delivered, udp_bytes)
    }

    /// The rule rests on one assumption: polling a flow that nothing
    /// happened to emits nothing. Run the mixed scenario under the rule and
    /// under the oracle that polls every flow at every reaction: every
    /// packet, byte, drop and delivered byte is the same, and only the poll
    /// count differs.
    #[test]
    fn polling_a_flow_nothing_happened_to_changes_nothing() {
        let (rule, rule_links, rule_tcp, rule_udp) = mixed_run(false);
        let (oracle, oracle_links, oracle_tcp, oracle_udp) = mixed_run(true);
        assert!(rule_links[0].dropped_loss > 0, "the run saw losses");
        assert!(oracle.flow_polls > rule.flow_polls);
        assert_eq!(
            SimMetrics {
                flow_polls: 0,
                ..rule
            },
            SimMetrics {
                flow_polls: 0,
                ..oracle
            }
        );
        assert_eq!(rule_links, oracle_links);
        assert_eq!((rule_tcp, rule_udp), (oracle_tcp, oracle_udp));
        assert!(rule_udp > 0, "datagrams crossed beside the flows");
    }
}
