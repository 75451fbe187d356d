//! The `World`: topology (nodes + links) and the in-flight packet event queue.
//!
//! The world is deliberately dumb: it moves packets across single links and
//! tells the caller when each packet arrives at the link's far end. Hosts,
//! routing, and transport protocols live in higher-level crates
//! (`minion-stack`, `minion-tcp`); they drive the world by calling
//! [`World::send`] and draining [`World::drain_due_into`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::link::{Link, LinkConfig, LinkStats, TransmitOutcome};
use crate::packet::{NodeId, Packet};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Outcome of handing a packet to the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Will be delivered to the destination node at the given time.
    Scheduled(SimTime),
    /// Dropped by the link's drop-tail queue.
    DroppedQueue,
    /// Dropped by the link's loss model.
    DroppedLoss,
    /// There is no link from the packet's `src` to its `dst`.
    NoRoute,
}

impl SendOutcome {
    /// True if the packet will eventually arrive.
    pub fn is_scheduled(&self) -> bool {
        matches!(self, SendOutcome::Scheduled(_))
    }
}

#[derive(Debug)]
struct Arrival {
    at: SimTime,
    seq: u64,
    packet: Packet,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulated network: nodes, links, and packets in flight.
pub struct World {
    node_names: Vec<String>,
    links: HashMap<(NodeId, NodeId), Link>,
    in_flight: BinaryHeap<Reverse<Arrival>>,
    rng: SimRng,
    next_packet_id: u64,
    next_seq: u64,
}

impl World {
    /// Create an empty world whose loss models derive from `seed`.
    pub fn new(seed: u64) -> Self {
        World {
            node_names: Vec::new(),
            links: HashMap::new(),
            in_flight: BinaryHeap::new(),
            rng: SimRng::new(seed),
            next_packet_id: 1,
            next_seq: 0,
        }
    }

    /// Register a node and return its identifier.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        id
    }

    /// Add a unidirectional link from `a` to `b`.
    fn add_simplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        let rng = self
            .rng
            .fork(&format!("link-{}-{}-{}", a.0, b.0, self.links.len()));
        self.links.insert((a, b), Link::new(config, rng));
    }

    /// Add a bidirectional link with identical characteristics each way.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_simplex_link(a, b, config.clone());
        self.add_simplex_link(b, a, config);
    }

    /// Add a bidirectional link with asymmetric characteristics (e.g. a
    /// residential connection with different download and upload rates).
    pub fn add_asymmetric_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.add_simplex_link(a, b, a_to_b);
        self.add_simplex_link(b, a, b_to_a);
    }

    /// Link statistics for the `a -> b` direction, if that link exists.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> Option<&LinkStats> {
        self.links.get(&(a, b)).map(|l| l.stats())
    }

    /// Current backlog of the `a -> b` link in bytes.
    pub fn link_backlog(&self, a: NodeId, b: NodeId, now: SimTime) -> Option<usize> {
        self.links.get(&(a, b)).map(|l| l.backlog_bytes(now))
    }

    /// Offer a packet to the link from `packet.src` to `packet.dst` at `now`.
    pub fn send(&mut self, now: SimTime, mut packet: Packet) -> SendOutcome {
        let key = (packet.src, packet.dst);
        let Some(link) = self.links.get_mut(&key) else {
            return SendOutcome::NoRoute;
        };
        if packet.id == 0 {
            packet.id = self.next_packet_id;
            self.next_packet_id += 1;
        }
        match link.transmit(now, &packet) {
            TransmitOutcome::Delivered(at) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.in_flight.push(Reverse(Arrival { at, seq, packet }));
                SendOutcome::Scheduled(at)
            }
            TransmitOutcome::DroppedQueue => SendOutcome::DroppedQueue,
            TransmitOutcome::DroppedLoss => SendOutcome::DroppedLoss,
        }
    }

    /// The arrival time of the next in-flight packet, if any.
    pub fn next_arrival_time(&self) -> Option<SimTime> {
        self.in_flight.peek().map(|Reverse(a)| a.at)
    }

    /// Batched dispatch: drain **every** packet whose arrival time is `<= now`
    /// into `out` (appending, in arrival order) and return how many were
    /// drained.
    ///
    /// Event-driven callers (the `stack::Sim` loop) deliver all arrivals
    /// for one instant in a single call instead of re-peeking the heap per
    /// packet; the caller keeps `out` as a reusable scratch buffer so the
    /// hot path does not allocate per event.
    pub fn drain_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, Packet)>) -> usize {
        let before = out.len();
        while let Some(Reverse(a)) = self.in_flight.peek() {
            if a.at > now {
                break;
            }
            let Reverse(a) = self.in_flight.pop().expect("peeked");
            out.push((a.at, a.packet));
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossConfig;
    use crate::time::SimDuration;

    fn two_node_world(cfg: LinkConfig) -> (World, NodeId, NodeId) {
        let mut w = World::new(7);
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.add_duplex_link(a, b, cfg);
        (w, a, b)
    }

    #[test]
    fn send_and_receive_in_order() {
        let (mut w, a, b) = two_node_world(LinkConfig::new(8_000_000, SimDuration::from_millis(5)));
        for i in 0..3u8 {
            let out = w.send(SimTime::ZERO, Packet::new(a, b, vec![i; 100]));
            assert!(out.is_scheduled());
        }
        // Step from arrival to arrival the way the event loop does: each
        // drain hands over exactly the packets due at that instant.
        let mut got = Vec::new();
        let mut t = SimTime::ZERO;
        while let Some(at) = w.next_arrival_time() {
            assert!(at >= t, "arrivals must be time-ordered");
            t = at;
            assert_eq!(w.drain_due_into(at, &mut got), 1);
        }
        assert_eq!(
            got.iter().map(|(_, p)| p.payload[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn no_route_between_unlinked_nodes() {
        let mut w = World::new(1);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let c = w.add_node("c");
        w.add_duplex_link(a, b, LinkConfig::ideal());
        let out = w.send(SimTime::ZERO, Packet::new(a, c, vec![0u8; 10]));
        assert_eq!(out, SendOutcome::NoRoute);
    }

    #[test]
    fn drain_due_into_batches_all_due_arrivals() {
        let (mut w, a, b) = two_node_world(LinkConfig::new(8_000_000, SimDuration::from_millis(5)));
        for i in 0..4u8 {
            w.send(SimTime::ZERO, Packet::new(a, b, vec![i; 100]));
        }
        let mut out = Vec::new();
        assert_eq!(w.drain_due_into(SimTime::ZERO, &mut out), 0);
        assert!(out.is_empty());
        let last = w.next_arrival_time().unwrap() + SimDuration::from_secs(1);
        let n = w.drain_due_into(last, &mut out);
        assert_eq!(n, 4);
        assert_eq!(out.len(), 4);
        // Arrival order is time-ordered and is the send order.
        assert!(out.windows(2).all(|p| p[0].0 <= p[1].0));
        assert_eq!(
            out.iter().map(|(_, p)| p.payload[0]).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(w.next_arrival_time(), None);
        // Appending into a non-empty scratch buffer preserves the prefix.
        w.send(last, Packet::new(a, b, vec![9; 10]));
        let at = w.next_arrival_time().unwrap();
        assert_eq!(w.drain_due_into(at, &mut out), 1);
        assert_eq!(out.len(), 5);
        assert_eq!(out[4].1.payload[0], 9);
    }

    #[test]
    fn pop_due_respects_time() {
        let (mut w, a, b) =
            two_node_world(LinkConfig::new(1_000_000, SimDuration::from_millis(50)));
        let mut out = Vec::new();
        assert_eq!(w.drain_due_into(SimTime::from_secs(1), &mut out), 0);
        assert_eq!(w.next_arrival_time(), None, "an empty world has no event");
        w.send(SimTime::ZERO, Packet::new(a, b, vec![0u8; 100]));
        assert_eq!(w.drain_due_into(SimTime::from_millis(10), &mut out), 0);
        let arrival = w.next_arrival_time().unwrap();
        assert_eq!(w.drain_due_into(arrival, &mut out), 1);
        assert_eq!(out[0].0, arrival);
    }

    #[test]
    fn loss_is_reflected_in_outcome_and_stats() {
        let cfg = LinkConfig::ideal().with_loss(LossConfig::Explicit { indices: vec![1] });
        let (mut w, a, b) = two_node_world(cfg);
        let out1 = w.send(SimTime::ZERO, Packet::new(a, b, vec![0u8; 10]));
        let out2 = w.send(SimTime::ZERO, Packet::new(a, b, vec![0u8; 10]));
        assert_eq!(out1, SendOutcome::DroppedLoss);
        assert!(out2.is_scheduled());
        assert_eq!(w.link_stats(a, b).unwrap().dropped_loss, 1);
    }

    #[test]
    fn asymmetric_links_have_independent_rates() {
        let mut w = World::new(3);
        let a = w.add_node("client");
        let b = w.add_node("server");
        w.add_asymmetric_link(
            a,
            b,
            LinkConfig::new(500_000, SimDuration::ZERO), // upload
            LinkConfig::new(3_000_000, SimDuration::ZERO), // download
        );
        let up = w.send(SimTime::ZERO, Packet::new(a, b, vec![0u8; 960]));
        let down = w.send(SimTime::ZERO, Packet::new(b, a, vec![0u8; 960]));
        let (SendOutcome::Scheduled(t_up), SendOutcome::Scheduled(t_down)) = (up, down) else {
            panic!("both should be scheduled");
        };
        assert!(t_up > t_down, "upload is slower than download");
    }

    #[test]
    fn packet_ids_are_assigned_monotonically() {
        let (mut w, a, b) = two_node_world(LinkConfig::ideal());
        w.send(SimTime::ZERO, Packet::new(a, b, vec![1]));
        w.send(SimTime::ZERO, Packet::new(a, b, vec![2]));
        // Both arrive at the same instant; the drain keeps send order.
        let mut out = Vec::new();
        assert_eq!(w.drain_due_into(SimTime::ZERO, &mut out), 2);
        let (p1, p2) = (&out[0].1, &out[1].1);
        assert_eq!((p1.payload[0], p2.payload[0]), (1, 2));
        assert!(p2.id > p1.id);
    }
}
