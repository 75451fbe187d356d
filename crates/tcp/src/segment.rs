//! TCP segment wire format.
//!
//! The segment layout follows RFC 793 closely enough that wire-visible
//! behaviour (sequence/ACK numbers, flags, window, SACK options) is faithful,
//! while checksums are omitted because the simulated links never corrupt
//! payloads. uTCP makes **no** changes to this format — that is the central
//! compatibility claim of the paper, and the test
//! `wire_format_is_identical_for_utcp` in the connection module checks it.

use crate::seq::SeqNum;
use bytes::Bytes;
use std::fmt;

/// TCP header flags.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// ACK: the acknowledgment field is valid.
    pub ack: bool,
    /// FIN: sender has finished sending.
    pub fin: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data to the application.
    pub psh: bool,
}

impl TcpFlags {
    /// A SYN segment.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A SYN+ACK segment.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A bare ACK segment.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A FIN+ACK segment.
    pub(crate) const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.ack {
            s.push('A');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        if self.psh {
            s.push('P');
        }
        if s.is_empty() {
            s.push('-');
        }
        write!(f, "{s}")
    }
}

/// A single SACK block: the half-open range `[start, end)` of received bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SackBlock {
    /// First sequence number of the block.
    pub start: SeqNum,
    /// One past the last sequence number of the block.
    pub end: SeqNum,
}

impl SackBlock {
    /// Length of the block in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True if the block is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the block contains the sequence number.
    pub fn contains(&self, seq: SeqNum) -> bool {
        seq.in_range(self.start, self.end)
    }
}

/// TCP options carried in the header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcpOption {
    /// Maximum segment size, advertised on SYN.
    Mss(u16),
    /// SACK permitted, advertised on SYN.
    SackPermitted,
    /// Selective acknowledgment blocks.
    Sack(Vec<SackBlock>),
    /// Window scale shift count, advertised on SYN.
    WindowScale(u8),
}

/// A TCP segment as it appears on the wire (header + payload).
#[derive(Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes (pre-scaling).
    pub window: u32,
    /// Header options.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Byte length of the base header in the serialized format (matches the
    /// 20-byte RFC 793 header without checksum/urgent fields, with an explicit
    /// payload-length field in their place).
    const BASE_HEADER_LEN: usize = 20;

    /// Construct a segment with no options and no payload.
    pub fn bare(src_port: u16, dst_port: u16, seq: SeqNum, ack: SeqNum, flags: TcpFlags) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            options: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// The amount of sequence space this segment occupies (payload plus one
    /// for SYN and one for FIN).
    fn seq_space(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Sequence number of the byte following this segment.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_space()
    }

    /// The MSS option value, if present.
    pub(crate) fn mss_option(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// The SACK blocks carried by this segment (empty if none).
    pub fn sack_blocks(&self) -> &[SackBlock] {
        self.options
            .iter()
            .find_map(|o| match o {
                TcpOption::Sack(blocks) => Some(blocks.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Total length of the serialized segment (header + options + payload).
    pub fn wire_len(&self) -> usize {
        Self::BASE_HEADER_LEN + self.options_wire_len() + self.payload.len()
    }

    fn options_wire_len(&self) -> usize {
        self.options
            .iter()
            .map(|o| match o {
                TcpOption::Mss(_) => 4,
                TcpOption::SackPermitted => 2,
                TcpOption::Sack(blocks) => 2 + blocks.len() * 8,
                TcpOption::WindowScale(_) => 3,
            })
            .sum()
    }

    /// Serialize the segment: header, options and payload written once
    /// into one shared buffer (a single allocation).
    ///
    /// Panics if the options exceed the 8-bit or the payload the 16-bit
    /// length field — a segment that could only be truncated on the wire.
    pub fn encode(&self) -> Bytes {
        Bytes::build(self.wire_len(), |out| self.encode_into(out))
    }

    /// Serialize the segment into `out`, which must be exactly
    /// [`wire_len`](Self::wire_len) bytes: lets an enclosing format
    /// (`stack::wire`, the VPN tunnel) put its own header in front without a
    /// second buffer. Panics as [`encode`](Self::encode) does.
    pub fn encode_into(&self, out: &mut [u8]) {
        let opt_len = self.options_wire_len();
        assert!(opt_len <= usize::from(u8::MAX), "options too long");
        assert!(
            self.payload.len() <= usize::from(u16::MAX),
            "payload of {} bytes overflows the 16-bit length field",
            self.payload.len()
        );
        assert_eq!(out.len(), self.wire_len(), "buffer is not wire_len bytes");
        let (header, rest) = out.split_at_mut(Self::BASE_HEADER_LEN);
        let (options, payload) = rest.split_at_mut(opt_len);
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..8].copy_from_slice(&self.seq.raw().to_be_bytes());
        header[8..12].copy_from_slice(&self.ack.raw().to_be_bytes());
        header[12] = self.flags.to_byte();
        header[13] = opt_len as u8;
        header[14..18].copy_from_slice(&self.window.to_be_bytes());
        header[18..20].copy_from_slice(&(self.payload.len() as u16).to_be_bytes());
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            options[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        for opt in &self.options {
            match opt {
                TcpOption::Mss(v) => {
                    put(&[2, 4]);
                    put(&v.to_be_bytes());
                }
                TcpOption::SackPermitted => put(&[4, 2]),
                TcpOption::Sack(blocks) => {
                    put(&[5, (2 + blocks.len() * 8) as u8]);
                    for b in blocks {
                        put(&b.start.raw().to_be_bytes());
                        put(&b.end.raw().to_be_bytes());
                    }
                }
                TcpOption::WindowScale(s) => put(&[3, 3, *s]),
            }
        }
        payload.copy_from_slice(&self.payload);
    }

    /// Parse a segment from a packet buffer. The payload is a view into
    /// `buf`, not a copy. Returns `None` on malformed input.
    pub fn decode(buf: &Bytes) -> Option<TcpSegment> {
        if buf.len() < Self::BASE_HEADER_LEN {
            return None;
        }
        let src_port = u16::from_be_bytes([buf[0], buf[1]]);
        let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        let seq = SeqNum(u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]));
        let ack = SeqNum(u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]));
        let flags = TcpFlags::from_byte(buf[12]);
        let opt_len = buf[13] as usize;
        let window = u32::from_be_bytes([buf[14], buf[15], buf[16], buf[17]]);
        let payload_len = u16::from_be_bytes([buf[18], buf[19]]) as usize;
        let opt_end = Self::BASE_HEADER_LEN.checked_add(opt_len)?;
        if buf.len() < opt_end + payload_len {
            return None;
        }
        // RFC 9293 §3.1: End of Option List stops the parse, No-Operation is
        // one byte, and every other option is kind, length, data. A kind this
        // stack does not implement is skipped by its length; a length that
        // cannot be right rejects the segment.
        let mut options = Vec::new();
        let mut i = Self::BASE_HEADER_LEN;
        while i < opt_end {
            let kind = buf[i];
            match kind {
                0 => break,
                1 => {
                    i += 1;
                    continue;
                }
                _ if i + 1 == opt_end => return None,
                _ => {}
            }
            let len = buf[i + 1] as usize;
            if len < 2 || i + len > opt_end {
                return None;
            }
            let data = &buf[i + 2..i + len];
            match (kind, data.len()) {
                (2, 2) => options.push(TcpOption::Mss(u16::from_be_bytes([data[0], data[1]]))),
                (3, 1) => options.push(TcpOption::WindowScale(data[0])),
                (4, 0) => options.push(TcpOption::SackPermitted),
                (5, n) if n.is_multiple_of(8) => {
                    let word = |b: &[u8]| SeqNum(u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
                    let blocks = data.chunks_exact(8).map(|b| SackBlock {
                        start: word(&b[..4]),
                        end: word(&b[4..]),
                    });
                    options.push(TcpOption::Sack(blocks.collect()));
                }
                (2..=5, _) => return None,
                _ => {}
            }
            i += len;
        }
        let payload = buf.slice(opt_end..opt_end + payload_len);
        Some(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            options,
            payload,
        })
    }
}

impl fmt::Debug for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} {}->{} seq={} ack={} win={} len={}{}]",
            self.flags,
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.window,
            self.payload.len(),
            if self.sack_blocks().is_empty() {
                String::new()
            } else {
                format!(" sack={:?}", self.sack_blocks())
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> TcpSegment {
        TcpSegment {
            src_port: 443,
            dst_port: 51034,
            seq: SeqNum(123456),
            ack: SeqNum(654321),
            flags: TcpFlags::ACK,
            window: 29200,
            options: vec![
                TcpOption::Mss(1448),
                TcpOption::SackPermitted,
                TcpOption::WindowScale(7),
                TcpOption::Sack(vec![
                    SackBlock {
                        start: SeqNum(1000),
                        end: SeqNum(2000),
                    },
                    SackBlock {
                        start: SeqNum(3000),
                        end: SeqNum(3500),
                    },
                ]),
            ],
            payload: Bytes::from_static(b"hello minion"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let seg = sample_segment();
        let bytes = seg.encode();
        assert_eq!(bytes.len(), seg.wire_len());
        let decoded = TcpSegment::decode(&bytes).expect("decodes");
        assert_eq!(decoded, seg);
    }

    #[test]
    fn roundtrip_without_options_or_payload() {
        let seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), TcpFlags::SYN);
        let decoded = TcpSegment::decode(&seg.encode()).unwrap();
        assert_eq!(decoded, seg);
        assert_eq!(decoded.seq_space(), 1, "SYN occupies one sequence number");
    }

    #[test]
    fn decode_rejects_truncated() {
        let seg = sample_segment();
        let bytes = seg.encode();
        assert!(TcpSegment::decode(&bytes.slice(..10)).is_none());
        assert!(TcpSegment::decode(&bytes.slice(..bytes.len() - 1)).is_none());
        assert!(TcpSegment::decode(&Bytes::new()).is_none());
    }

    /// A bare ACK carrying `options` and a two-byte payload, in this
    /// module's header layout.
    fn with_options(options: &[u8]) -> Bytes {
        let mut seg = TcpSegment::bare(80, 5000, SeqNum(7), SeqNum(9), TcpFlags::ACK);
        seg.payload = Bytes::from_static(b"xy");
        let plain = seg.encode();
        let mut wire = plain[..TcpSegment::BASE_HEADER_LEN].to_vec();
        wire[13] = options.len() as u8;
        wire.extend_from_slice(options);
        wire.extend_from_slice(b"xy");
        Bytes::from(wire)
    }

    #[test]
    fn nops_and_an_unknown_timestamp_keep_the_sack_blocks() {
        #[rustfmt::skip]
        let options = [
            1, 1,
            8, 10, 0, 0, 0, 1, 0, 0, 0, 2,
            5, 10, 0, 0, 0x03, 0xe8, 0, 0, 0x07, 0xd0,
        ];
        let seg = TcpSegment::decode(&with_options(&options)).expect("decodes");
        assert_eq!(
            seg.sack_blocks(),
            [SackBlock {
                start: SeqNum(1000),
                end: SeqNum(2000),
            }]
        );
        assert_eq!(seg.options.len(), 1, "the timestamp is skipped, not kept");
        assert_eq!(&seg.payload[..], b"xy");
    }

    #[test]
    fn end_of_option_list_stops_the_parse() {
        let seg = TcpSegment::decode(&with_options(&[4, 2, 0, 5, 0xff, 0xff])).expect("decodes");
        assert_eq!(seg.options, [TcpOption::SackPermitted]);
        let padded = TcpSegment::decode(&with_options(&[2, 4, 0x05, 0xb4, 0, 0, 0, 0]));
        assert_eq!(padded.expect("decodes").options, [TcpOption::Mss(1460)]);
        let unknown = TcpSegment::decode(&with_options(&[30, 4, 0xaa, 0xbb, 3, 3, 7, 0]));
        assert_eq!(
            unknown.expect("decodes").options,
            [TcpOption::WindowScale(7)]
        );
    }

    #[test]
    fn a_bad_option_length_rejects_the_segment() {
        let bad: [&[u8]; 10] = [
            &[30, 0],            // below 2
            &[30, 1, 0],         // below 2
            &[1, 30],            // no length byte
            &[30, 6, 0, 0],      // runs past the options
            &[2, 3, 0],          // MSS is 4
            &[2, 5, 0, 0, 0],    // MSS is 4
            &[3, 2, 3, 3, 7],    // window scale is 3
            &[4, 3, 0],          // SACK-permitted is 2
            &[5, 6, 0, 0, 0, 0], // SACK is 2 + 8n
            &[5, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ];
        for options in bad {
            assert!(
                TcpSegment::decode(&with_options(options)).is_none(),
                "{options:?} must be rejected"
            );
        }
    }

    #[test]
    fn decoded_payload_is_a_view_of_the_packet_buffer() {
        let seg = sample_segment();
        let bytes = seg.encode();
        let decoded = TcpSegment::decode(&bytes).expect("decodes");
        let payload_at = bytes.len() - seg.payload.len();
        assert_eq!(decoded.payload.as_ptr(), bytes[payload_at..].as_ptr());
        // `encode_into` is `encode` behind an outer header.
        let mut framed = vec![0xAAu8; 3 + seg.wire_len()];
        seg.encode_into(&mut framed[3..]);
        assert_eq!(framed[..3], [0xAA; 3]);
        assert_eq!(framed[3..], bytes[..]);
    }

    #[test]
    fn largest_payload_the_length_field_holds_round_trips() {
        let mut seg = sample_segment();
        seg.payload = Bytes::from(vec![0x5Au8; usize::from(u16::MAX)]);
        let decoded = TcpSegment::decode(&seg.encode()).expect("decodes");
        assert_eq!(decoded.payload.len(), 65_535);
        assert_eq!(decoded, seg);
    }

    #[test]
    #[should_panic(expected = "overflows the 16-bit length field")]
    fn payload_past_the_length_field_is_rejected_not_truncated() {
        let mut seg = sample_segment();
        seg.payload = Bytes::from(vec![0x5Au8; usize::from(u16::MAX) + 1]);
        seg.encode();
    }

    #[test]
    fn flag_byte_roundtrip() {
        for b in 0..32u8 {
            let f = TcpFlags::from_byte(b);
            assert_eq!(f.to_byte(), b);
        }
    }

    #[test]
    fn option_accessors() {
        let seg = sample_segment();
        assert_eq!(seg.mss_option(), Some(1448));
        assert_eq!(seg.sack_blocks().len(), 2);
        assert_eq!(seg.sack_blocks()[0].len(), 1000);
        assert!(seg.sack_blocks()[0].contains(SeqNum(1500)));
        assert!(!seg.sack_blocks()[0].contains(SeqNum(2000)));
    }

    #[test]
    fn seq_space_counts_payload_and_fin() {
        let mut seg = sample_segment();
        assert_eq!(seg.seq_space(), 12);
        seg.flags.fin = true;
        assert_eq!(seg.seq_space(), 13);
        assert_eq!(seg.seq_end(), SeqNum(123456 + 13));
    }

    #[test]
    fn sack_block_empty() {
        let b = SackBlock {
            start: SeqNum(5),
            end: SeqNum(5),
        };
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
