//! Packets exchanged between simulated nodes.

use bytes::Bytes;
use std::fmt;

/// Identifier of a node (host, router, middlebox) in the simulated topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Extra per-hop bytes accounted for every packet (emulates IP + link framing
/// overhead so that link utilisation numbers are realistic).
pub(crate) const PER_PACKET_OVERHEAD: usize = 40;

/// A packet in flight between two adjacent nodes.
///
/// The payload is opaque to the simulator; higher layers (the host network
/// stack) define its structure. `wire_size` is used for transmission-time and
/// queue accounting and includes `PER_PACKET_OVERHEAD`.
#[derive(Clone)]
pub struct Packet {
    /// Monotonically increasing identifier assigned by the world at send time.
    pub id: u64,
    /// The node that transmitted this packet onto the current link.
    pub src: NodeId,
    /// The node this packet is addressed to on the current link (next hop).
    pub dst: NodeId,
    /// The original sender of the packet (end-to-end source).
    pub origin: NodeId,
    /// The final destination of the packet (end-to-end destination).
    pub final_dst: NodeId,
    /// Opaque payload (a serialized transport segment or datagram).
    pub payload: Bytes,
}

impl Packet {
    /// Construct a single-hop packet (origin and final destination equal the
    /// link endpoints).
    pub fn new(src: NodeId, dst: NodeId, payload: impl Into<Bytes>) -> Self {
        Packet {
            id: 0,
            src,
            dst,
            origin: src,
            final_dst: dst,
            payload: payload.into(),
        }
    }

    /// Construct a packet routed through intermediate nodes: `src`/`dst` are
    /// the current-hop endpoints, `origin`/`final_dst` the end-to-end ones.
    pub fn routed(
        src: NodeId,
        dst: NodeId,
        origin: NodeId,
        final_dst: NodeId,
        payload: impl Into<Bytes>,
    ) -> Self {
        Packet {
            id: 0,
            src,
            dst,
            origin,
            final_dst,
            payload: payload.into(),
        }
    }

    /// The size of the packet as it occupies the wire, including per-packet
    /// framing overhead.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + PER_PACKET_OVERHEAD
    }

    /// Payload length in bytes (excluding framing overhead).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packet#{} {}->{} ({}->{}) {}B",
            self.id,
            self.src,
            self.dst,
            self.origin,
            self.final_dst,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_overhead() {
        let p = Packet::new(NodeId(0), NodeId(1), vec![0u8; 100]);
        assert_eq!(p.payload_len(), 100);
        assert_eq!(p.wire_size(), 100 + PER_PACKET_OVERHEAD);
    }

    #[test]
    fn forward_preserves_end_to_end_addresses() {
        // A middlebox forwards by re-addressing the hop and carrying the
        // end-to-end pair over.
        let p = Packet::routed(NodeId(0), NodeId(5), NodeId(0), NodeId(9), vec![1, 2, 3]);
        let q = Packet::routed(
            NodeId(5),
            NodeId(9),
            p.origin,
            p.final_dst,
            p.payload.clone(),
        );
        assert_eq!((q.src, q.dst), (NodeId(5), NodeId(9)));
        assert_eq!((q.origin, q.final_dst), (NodeId(0), NodeId(9)));
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(NodeId(7).index(), 7);
    }
}
