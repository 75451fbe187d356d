//! Record framing on top of COBS encoding.
//!
//! uCOBS frames each datagram as `0x00 <COBS(data)> 0x00`: a marker byte on
//! *both* ends (paper §5.3). The double marker is what lets a receiver that
//! holds only a fragment of the stream decide that a record is complete: a
//! record is any maximal run of non-marker bytes bracketed by two markers
//! with no holes in between.
//!
//! This module provides the sender-side framer and a scanner that extracts
//! complete records from a contiguous stream fragment, reporting each
//! record's position so the caller (the uCOBS endpoint) can avoid delivering
//! the same record twice. The scanner jumps from marker to marker, eight
//! bytes per step, and hands each bracketed run to [`decode`], which checks
//! every block for a stray marker: nothing is emitted that was not
//! validated. A conventional length-prefixed (TLV) framer is also provided
//! as the in-order baseline used by the paper's comparison experiments.

use crate::encode::{decode, encode_into, find_marker, max_encoded_len, MARKER};

/// Append one framed datagram, `marker || COBS(data) || marker`, to `out`.
/// Reserves the worst case up front, so it allocates at most once and not
/// at all when `out` already has that much room.
pub fn frame_into(data: &[u8], out: &mut Vec<u8>) {
    out.reserve(max_encoded_len(data.len()) + 2);
    out.push(MARKER);
    encode_into(data, out);
    out.push(MARKER);
}

/// Frame one datagram for transmission: [`frame_into`] a fresh buffer.
pub fn frame_datagram(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(data, &mut out);
    out
}

/// A record recovered from a stream fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Offset within the *fragment* of the record's leading marker byte.
    pub start: usize,
    /// Offset within the fragment one past the record's trailing marker byte.
    pub end: usize,
    /// The decoded datagram.
    pub payload: Vec<u8>,
}

/// Scan a contiguous stream fragment for complete, properly delimited
/// records.
///
/// `is_stream_start` indicates that the fragment begins at stream offset 0
/// (or, more generally, at a point known to be a record boundary), in which
/// case a record needs no leading marker inside the fragment. Records whose
/// COBS content fails to decode are skipped (this can only happen if the
/// sender is not a uCOBS sender).
///
/// The scan jumps from one marker to the next with a word-wise search; the
/// bytes between two markers are validated by [`decode`], not here.
pub fn scan_records(fragment: &[u8], is_stream_start: bool) -> Vec<ScannedRecord> {
    let mut records = Vec::new();
    // Position of the marker (or known boundary) that could open a record.
    let mut open = is_stream_start.then_some(0);
    let mut from = 0;
    while let Some(at) = find_marker(&fragment[from..]) {
        // This marker closes any open record and opens a new one.
        let close = from + at;
        if let Some(start) = open {
            let content = &fragment[start..close];
            let content = content.strip_prefix(&[MARKER]).unwrap_or(content);
            if !content.is_empty() {
                if let Ok(payload) = decode(content) {
                    records.push(ScannedRecord {
                        start,
                        end: close + 1,
                        payload,
                    });
                }
            }
        }
        open = Some(close);
        from = close + 1;
    }
    records
}

/// A simple length-prefixed (type-length-value style) framer: the baseline
/// framing the paper contrasts with (§5.1, §9). It supports only in-order
/// parsing because a length prefix cannot be located inside an arbitrary
/// stream fragment.
#[derive(Clone, Debug, Default)]
pub struct TlvFramer {
    buffer: Vec<u8>,
    /// Offset in `buffer` of the first byte not yet popped.
    read: usize,
}

impl TlvFramer {
    /// New, empty framer.
    pub fn new() -> Self {
        TlvFramer::default()
    }

    /// Frame a datagram: 4-byte big-endian length followed by the payload.
    pub fn frame(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + data.len());
        out.extend_from_slice(&(data.len() as u32).to_be_bytes());
        out.extend_from_slice(data);
        out
    }

    /// Feed received in-order bytes to the deframer. This is the one place
    /// popped bytes are dropped from the buffer: once per push, however many
    /// records were popped since the last one.
    pub fn push(&mut self, data: &[u8]) {
        self.buffer.drain(..self.read);
        self.read = 0;
        self.buffer.extend_from_slice(data);
    }

    /// Pop the next complete datagram, if one has fully arrived.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        let pending = &self.buffer[self.read..];
        let (header, body) = pending.split_first_chunk::<4>()?;
        let payload = body.get(..u32::from_be_bytes(*header) as usize)?.to_vec();
        self.read += 4 + payload.len();
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes buffered past the read cursor, awaiting a complete record.
    fn pending_bytes(deframer: &TlvFramer) -> usize {
        deframer.buffer.len() - deframer.read
    }

    #[test]
    fn frame_has_markers_on_both_ends() {
        let f = frame_datagram(b"hello");
        assert_eq!(*f.first().unwrap(), MARKER);
        assert_eq!(*f.last().unwrap(), MARKER);
        assert!(f[1..f.len() - 1].iter().all(|&b| b != MARKER));
    }

    #[test]
    fn scan_recovers_back_to_back_records() {
        let mut stream = Vec::new();
        let records: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8 + 1; 10 * (i + 1)]).collect();
        for r in &records {
            stream.extend_from_slice(&frame_datagram(r));
        }
        let scanned = scan_records(&stream, true);
        let payloads: Vec<Vec<u8>> = scanned.iter().map(|r| r.payload.clone()).collect();
        assert_eq!(payloads, records);
    }

    #[test]
    fn scan_mid_stream_fragment_skips_partial_head_and_tail() {
        let a = frame_datagram(b"record-a");
        let b = frame_datagram(b"record-b");
        let c = frame_datagram(b"record-c");
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        // Take a fragment that cuts into the middle of records a and c.
        let fragment = &stream[3..stream.len() - 3];
        let scanned = scan_records(fragment, false);
        // Only record b is recoverable: a's head and c's tail are missing.
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].payload, b"record-b");
    }

    #[test]
    fn scan_positions_are_fragment_relative() {
        let a = frame_datagram(b"xyz");
        let b = frame_datagram(b"pqr");
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let scanned = scan_records(&stream, true);
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].start, 0);
        assert_eq!(&stream[scanned[0].start..scanned[0].end], &a[..]);
        // The second record's leading marker is shared with the first
        // record's trailing marker region; its end must cover b entirely.
        assert_eq!(scanned[1].end, stream.len());
    }

    #[test]
    fn scan_handles_datagrams_containing_zero_bytes() {
        let payload = vec![0u8, 1, 0, 2, 0, 0, 3];
        let framed = frame_datagram(&payload);
        let scanned = scan_records(&framed, true);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].payload, payload);
    }

    #[test]
    fn scan_without_stream_start_needs_leading_marker() {
        let framed = frame_datagram(b"only");
        // Drop the leading marker and claim we are mid-stream: the record
        // cannot be recovered because its start cannot be trusted.
        let scanned = scan_records(&framed[1..], false);
        assert!(scanned.is_empty());
        // With the stream-start hint it can.
        let scanned = scan_records(&framed[1..], true);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].payload, b"only");
    }

    #[test]
    fn empty_fragment_scans_to_nothing() {
        assert!(scan_records(&[], true).is_empty());
        assert!(scan_records(&[], false).is_empty());
    }

    #[test]
    fn framing_overhead_is_small() {
        // 3 bytes of overhead for a short record: two markers + one code byte.
        assert_eq!(frame_datagram(b"hello").len(), 5 + 3);
        // Under 0.5% + 2 markers for large records.
        let big = vec![0xAAu8; 10_000];
        assert!(frame_datagram(&big).len() <= 10_000 + 2 + 10_000 / 254 + 1);
    }

    #[test]
    fn tlv_framer_roundtrip_and_partial_delivery() {
        let mut deframer = TlvFramer::new();
        let a = TlvFramer::frame(b"alpha");
        let b = TlvFramer::frame(b"beta");
        // Deliver in awkward split points.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        deframer.push(&all[..3]);
        assert!(deframer.pop().is_none());
        deframer.push(&all[3..10]);
        assert_eq!(deframer.pop().unwrap(), b"alpha");
        assert!(deframer.pop().is_none());
        deframer.push(&all[10..]);
        assert_eq!(deframer.pop().unwrap(), b"beta");
        assert!(deframer.pop().is_none());
        assert_eq!(pending_bytes(&deframer), 0);
    }

    #[test]
    fn tlv_framer_pops_a_thousand_buffered_records() {
        // What a hole fill releases at once; each pop must cost its own
        // record, not a move of everything still buffered.
        let records: Vec<Vec<u8>> = (0..1000usize).map(|i| vec![i as u8; i % 37]).collect();
        let stream: Vec<u8> = records.iter().flat_map(|r| TlvFramer::frame(r)).collect();
        let mut deframer = TlvFramer::new();
        deframer.push(&stream);
        let mut pending = stream.len();
        for record in &records {
            assert_eq!(deframer.pop().as_ref(), Some(record));
            pending -= 4 + record.len();
            assert_eq!(pending_bytes(&deframer), pending);
        }
        assert_eq!(deframer.pop(), None);
        // The next push drops what was popped and carries on.
        deframer.push(&TlvFramer::frame(b"next")[..5]);
        assert_eq!((deframer.pop(), pending_bytes(&deframer)), (None, 5));
        deframer.push(b"ext");
        assert_eq!(deframer.pop().as_deref(), Some(&b"next"[..]));
        assert_eq!(pending_bytes(&deframer), 0);
    }

    #[test]
    fn tlv_framer_empty_payload() {
        let mut d = TlvFramer::new();
        d.push(&TlvFramer::frame(b""));
        assert_eq!(d.pop().unwrap(), Vec::<u8>::new());
    }
}
