//! The transport-layer wrapper carried inside simulated network packets.
//!
//! Every [`minion_simnet::Packet`] payload is one encoded
//! [`TransportPacket`]: either a TCP segment or a UDP datagram, prefixed by a
//! one-byte protocol number (6 for TCP, 17 for UDP, matching the IP protocol
//! numbers).

use bytes::Bytes;
use minion_tcp::TcpSegment;

/// Protocol number for TCP.
const PROTO_TCP: u8 = 6;
/// Protocol number for UDP.
const PROTO_UDP: u8 = 17;

/// A transport-layer packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportPacket {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Datagram payload.
        payload: Bytes,
    },
}

impl TransportPacket {
    /// Serialize for transmission inside a simulated packet: protocol byte,
    /// header and payload written once into one buffer (one allocation).
    pub fn encode(&self) -> Bytes {
        match self {
            TransportPacket::Tcp(seg) => Bytes::build(1 + seg.wire_len(), |out| {
                out[0] = PROTO_TCP;
                seg.encode_into(&mut out[1..]);
            }),
            TransportPacket::Udp {
                src_port,
                dst_port,
                payload,
            } => Bytes::build(5 + payload.len(), |out| {
                out[0] = PROTO_UDP;
                out[1..3].copy_from_slice(&src_port.to_be_bytes());
                out[3..5].copy_from_slice(&dst_port.to_be_bytes());
                out[5..].copy_from_slice(payload);
            }),
        }
    }

    /// Parse a packet payload; the transport payload comes back as a view of
    /// `buf`, not a copy. Returns `None` on malformed input.
    pub fn decode(buf: &Bytes) -> Option<TransportPacket> {
        match *buf.first()? {
            PROTO_TCP => TcpSegment::decode(&buf.slice(1..)).map(TransportPacket::Tcp),
            PROTO_UDP => {
                if buf.len() < 5 {
                    return None;
                }
                Some(TransportPacket::Udp {
                    src_port: u16::from_be_bytes([buf[1], buf[2]]),
                    dst_port: u16::from_be_bytes([buf[3], buf[4]]),
                    payload: buf.slice(5..),
                })
            }
            _ => None,
        }
    }

    /// The destination port (used for demultiplexing).
    pub fn dst_port(&self) -> u16 {
        match self {
            TransportPacket::Tcp(seg) => seg.dst_port,
            TransportPacket::Udp { dst_port, .. } => *dst_port,
        }
    }

    /// The source port.
    pub fn src_port(&self) -> u16 {
        match self {
            TransportPacket::Tcp(seg) => seg.src_port,
            TransportPacket::Udp { src_port, .. } => *src_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_tcp::{SeqNum, TcpFlags};

    #[test]
    fn tcp_roundtrip() {
        let mut seg = TcpSegment::bare(1234, 80, SeqNum(42), SeqNum(7), TcpFlags::ACK);
        seg.payload = Bytes::from_static(b"payload");
        let tp = TransportPacket::Tcp(seg);
        let decoded = TransportPacket::decode(&tp.encode()).unwrap();
        assert_eq!(decoded, tp);
        assert_eq!(decoded.dst_port(), 80);
        assert_eq!(decoded.src_port(), 1234);
    }

    #[test]
    fn decoded_payloads_are_views_of_the_packet() {
        let mut seg = TcpSegment::bare(1234, 80, SeqNum(42), SeqNum(7), TcpFlags::ACK);
        seg.payload = Bytes::from_static(b"payload");
        let wire = TransportPacket::Tcp(seg).encode();
        let Some(TransportPacket::Tcp(decoded)) = TransportPacket::decode(&wire) else {
            panic!("decodes as TCP");
        };
        assert_eq!(decoded.payload.as_ptr(), wire[wire.len() - 7..].as_ptr());
        let wire = TransportPacket::Udp {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::from_static(b"datagram"),
        }
        .encode();
        let Some(TransportPacket::Udp { payload, .. }) = TransportPacket::decode(&wire) else {
            panic!("decodes as UDP");
        };
        assert_eq!(payload.as_ptr(), wire[5..].as_ptr());
    }

    #[test]
    fn udp_roundtrip() {
        let tp = TransportPacket::Udp {
            src_port: 5000,
            dst_port: 6000,
            payload: Bytes::from_static(b"datagram"),
        };
        let decoded = TransportPacket::decode(&tp.encode()).unwrap();
        assert_eq!(decoded, tp);
        assert_eq!(decoded.dst_port(), 6000);
    }

    #[test]
    fn udp_empty_payload() {
        let tp = TransportPacket::Udp {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::new(),
        };
        assert_eq!(TransportPacket::decode(&tp.encode()).unwrap(), tp);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TransportPacket::decode(&Bytes::new()).is_none());
        assert!(TransportPacket::decode(&Bytes::from_static(&[99, 1, 2, 3])).is_none());
        assert!(TransportPacket::decode(&Bytes::from_static(&[PROTO_UDP, 1])).is_none());
        assert!(TransportPacket::decode(&Bytes::from_static(&[PROTO_TCP, 1, 2])).is_none());
    }
}
