//! In-network middleboxes.
//!
//! The paper stresses that both TCP senders and network middleboxes may
//! coalesce or re-segment TCP streams, so segment boundaries observed at the
//! receiver can differ arbitrarily from the sender's writes (§4.1, §5.3,
//! Figure 4 scenarios (b) and (c)). This module provides a transparent
//! forwarding node that can split or coalesce TCP data segments in flight —
//! without changing the byte stream — so those scenarios can be exercised
//! end-to-end.

use crate::wire::TransportPacket;
use bytes::Bytes;
use minion_simnet::{NodeId, Packet, SimDuration, SimTime};
use minion_tcp::TcpSegment;

/// What a middlebox does to TCP data segments passing through it.
#[derive(Clone, Debug)]
pub enum MiddleboxBehavior {
    /// Forward every packet unchanged (a plain router, or the dummynet
    /// emulation node from the paper's testbed — rate/delay/loss are
    /// properties of the attached links).
    Forward,
    /// Split every TCP data segment larger than `max_payload` into multiple
    /// segments of at most that size (re-segmentation).
    Split {
        /// Maximum payload bytes per forwarded segment.
        max_payload: usize,
    },
    /// Coalesce consecutive, contiguous TCP data segments of the same flow
    /// into larger segments, holding a segment for at most `max_hold`.
    Coalesce {
        /// Maximum combined payload of a coalesced segment.
        max_payload: usize,
        /// Maximum time to hold a segment waiting for a contiguous successor.
        max_hold: SimDuration,
    },
}

/// Statistics about what the middlebox did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiddleboxStats {
    /// Packets forwarded unchanged.
    pub forwarded: u64,
    /// Extra segments created by splitting.
    pub splits: u64,
    /// Segments removed by coalescing.
    pub coalesces: u64,
}

/// A transparent middlebox node.
pub struct Middlebox {
    node: NodeId,
    behavior: MiddleboxBehavior,
    outbox: Vec<Packet>,
    /// A held segment awaiting coalescing: (flush deadline, original packet
    /// template, segment).
    held: Option<(SimTime, Packet, TcpSegment)>,
    stats: MiddleboxStats,
}

impl Middlebox {
    /// Create a middlebox attached to `node`.
    pub fn new(node: NodeId, behavior: MiddleboxBehavior) -> Self {
        Middlebox {
            node,
            behavior,
            outbox: Vec::new(),
            held: None,
            stats: MiddleboxStats::default(),
        }
    }

    /// The node this middlebox occupies.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// What the middlebox has done so far.
    pub fn stats(&self) -> &MiddleboxStats {
        &self.stats
    }

    fn emit(&mut self, template: &Packet, seg: TcpSegment) {
        let tp = TransportPacket::Tcp(seg);
        let mut p = Packet::routed(
            self.node,
            template.final_dst,
            template.origin,
            template.final_dst,
            tp.encode(),
        );
        p.id = 0; // fresh id assigned by the world
        self.outbox.push(p);
    }

    fn forward_raw(&mut self, packet: &Packet) {
        self.stats.forwarded += 1;
        let mut p = packet.clone();
        p.src = self.node;
        p.dst = packet.final_dst;
        p.id = 0;
        self.outbox.push(p);
    }

    /// Process a packet arriving at the middlebox.
    pub(crate) fn on_packet(&mut self, packet: &Packet, now: SimTime) {
        let decoded = TransportPacket::decode(&packet.payload);
        let Some(TransportPacket::Tcp(seg)) = decoded else {
            // Non-TCP traffic passes through untouched.
            self.forward_raw(packet);
            return;
        };
        if seg.payload.is_empty() {
            // Pure ACKs / handshake segments are never re-segmented.
            self.flush_held();
            self.forward_raw(packet);
            return;
        }
        match self.behavior.clone() {
            MiddleboxBehavior::Forward => self.forward_raw(packet),
            MiddleboxBehavior::Split { max_payload } => {
                let max_payload = max_payload.max(1);
                if seg.payload.len() <= max_payload {
                    self.forward_raw(packet);
                    return;
                }
                let mut offset = 0usize;
                while offset < seg.payload.len() {
                    let end = (offset + max_payload).min(seg.payload.len());
                    let mut part = seg.clone();
                    part.seq = seg.seq + offset as u32;
                    part.payload = seg.payload.slice(offset..end);
                    // Only the final piece carries FIN.
                    if end < seg.payload.len() {
                        part.flags.fin = false;
                        self.stats.splits += 1;
                    }
                    self.emit(packet, part);
                    offset = end;
                }
                self.stats.forwarded += 1;
            }
            MiddleboxBehavior::Coalesce {
                max_payload,
                max_hold,
            } => {
                if let Some((_, held_pkt, held_seg)) = self.held.take() {
                    let contiguous = held_seg.seq_end() == seg.seq
                        && held_seg.src_port == seg.src_port
                        && held_seg.dst_port == seg.dst_port
                        && held_pkt.origin == packet.origin
                        && held_pkt.final_dst == packet.final_dst;
                    if contiguous && held_seg.payload.len() + seg.payload.len() <= max_payload {
                        let mut merged = held_seg.clone();
                        let mut payload = held_seg.payload.to_vec();
                        payload.extend_from_slice(&seg.payload);
                        merged.payload = Bytes::from(payload);
                        merged.flags.fin = seg.flags.fin;
                        merged.ack = seg.ack;
                        merged.window = seg.window;
                        self.stats.coalesces += 1;
                        self.stats.forwarded += 1;
                        self.held = Some((now + max_hold, packet.clone(), merged));
                        return;
                    }
                    // Not mergeable: release the held segment first.
                    self.emit(&held_pkt, held_seg);
                }
                self.stats.forwarded += 1;
                self.held = Some((now + max_hold, packet.clone(), seg));
            }
        }
    }

    fn flush_held(&mut self) {
        if let Some((_, pkt, seg)) = self.held.take() {
            self.emit(&pkt, seg);
        }
    }

    /// Collect packets ready to leave the middlebox.
    pub fn poll(&mut self, now: SimTime) -> Vec<Packet> {
        if let Some((deadline, _, _)) = &self.held {
            if now >= *deadline {
                self.flush_held();
            }
        }
        std::mem::take(&mut self.outbox)
    }

    /// The next time this middlebox needs to run (held-segment flush).
    pub fn next_timer(&self) -> Option<SimTime> {
        self.held.as_ref().map(|(t, _, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_tcp::{SeqNum, TcpFlags};

    fn data_segment(seq: u32, payload: &[u8]) -> Packet {
        let mut seg = TcpSegment::bare(1000, 80, SeqNum(seq), SeqNum(0), TcpFlags::ACK);
        seg.payload = Bytes::copy_from_slice(payload);
        Packet::routed(
            NodeId(0),
            NodeId(2),
            NodeId(0),
            NodeId(2),
            TransportPacket::Tcp(seg).encode(),
        )
    }

    fn decode_tcp(p: &Packet) -> TcpSegment {
        match TransportPacket::decode(&p.payload).unwrap() {
            TransportPacket::Tcp(s) => s,
            _ => panic!("expected tcp"),
        }
    }

    #[test]
    fn forward_mode_passes_packets_through() {
        let mut mb = Middlebox::new(NodeId(1), MiddleboxBehavior::Forward);
        mb.on_packet(&data_segment(100, b"hello"), SimTime::ZERO);
        let out = mb.poll(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, NodeId(1));
        assert_eq!(out[0].dst, NodeId(2));
        assert_eq!(decode_tcp(&out[0]).payload.as_ref(), b"hello");
        assert_eq!(mb.stats().forwarded, 1);
    }

    #[test]
    fn split_re_segments_data_preserving_the_byte_stream() {
        let mut mb = Middlebox::new(NodeId(1), MiddleboxBehavior::Split { max_payload: 4 });
        mb.on_packet(&data_segment(1000, b"abcdefghij"), SimTime::ZERO);
        let out = mb.poll(SimTime::ZERO);
        assert_eq!(out.len(), 3);
        let segs: Vec<TcpSegment> = out.iter().map(decode_tcp).collect();
        assert_eq!(segs[0].seq, SeqNum(1000));
        assert_eq!(segs[0].payload.as_ref(), b"abcd");
        assert_eq!(segs[1].seq, SeqNum(1004));
        assert_eq!(segs[1].payload.as_ref(), b"efgh");
        assert_eq!(segs[2].seq, SeqNum(1008));
        assert_eq!(segs[2].payload.as_ref(), b"ij");
        assert_eq!(mb.stats().splits, 2);
    }

    #[test]
    fn split_leaves_small_segments_and_acks_alone() {
        let mut mb = Middlebox::new(NodeId(1), MiddleboxBehavior::Split { max_payload: 100 });
        mb.on_packet(&data_segment(1, b"tiny"), SimTime::ZERO);
        let ack = Packet::routed(
            NodeId(0),
            NodeId(2),
            NodeId(0),
            NodeId(2),
            TransportPacket::Tcp(TcpSegment::bare(1, 2, SeqNum(0), SeqNum(5), TcpFlags::ACK))
                .encode(),
        );
        mb.on_packet(&ack, SimTime::ZERO);
        assert_eq!(mb.poll(SimTime::ZERO).len(), 2);
        assert_eq!(mb.stats().splits, 0);
    }

    #[test]
    fn coalesce_merges_contiguous_segments() {
        let mut mb = Middlebox::new(
            NodeId(1),
            MiddleboxBehavior::Coalesce {
                max_payload: 100,
                max_hold: SimDuration::from_millis(5),
            },
        );
        mb.on_packet(&data_segment(1000, b"first-"), SimTime::ZERO);
        mb.on_packet(&data_segment(1006, b"second"), SimTime::ZERO);
        // Nothing emitted yet (still within the hold window)...
        assert!(mb.poll(SimTime::ZERO).is_empty());
        // ...until the hold timer expires.
        let flush_at = mb.next_timer().unwrap();
        let out = mb.poll(flush_at);
        assert_eq!(out.len(), 1);
        let seg = decode_tcp(&out[0]);
        assert_eq!(seg.seq, SeqNum(1000));
        assert_eq!(seg.payload.as_ref(), b"first-second");
        assert_eq!(mb.stats().coalesces, 1);
    }

    #[test]
    fn coalesce_releases_non_contiguous_segments_separately() {
        let mut mb = Middlebox::new(
            NodeId(1),
            MiddleboxBehavior::Coalesce {
                max_payload: 100,
                max_hold: SimDuration::from_millis(5),
            },
        );
        mb.on_packet(&data_segment(1000, b"aaaa"), SimTime::ZERO);
        // A gap: the next segment is not contiguous.
        mb.on_packet(&data_segment(2000, b"bbbb"), SimTime::ZERO);
        let out = mb.poll(SimTime::from_millis(10));
        assert_eq!(out.len(), 2);
        let seqs: Vec<SeqNum> = out.iter().map(|p| decode_tcp(p).seq).collect();
        assert_eq!(seqs, vec![SeqNum(1000), SeqNum(2000)]);
        assert_eq!(mb.stats().coalesces, 0);
    }

    #[test]
    fn non_tcp_traffic_is_forwarded_untouched() {
        let mut mb = Middlebox::new(NodeId(1), MiddleboxBehavior::Split { max_payload: 1 });
        let udp = Packet::routed(
            NodeId(0),
            NodeId(2),
            NodeId(0),
            NodeId(2),
            TransportPacket::Udp {
                src_port: 1,
                dst_port: 2,
                payload: Bytes::from_static(b"datagram"),
            }
            .encode(),
        );
        mb.on_packet(&udp, SimTime::ZERO);
        let out = mb.poll(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, udp.payload);
    }
}
