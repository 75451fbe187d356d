//! The one delivery check: what a receiver delivered, compared in place
//! with what was sent.
//!
//! The paper's invariants are exactly-once delivery of intact bytes, and
//! in-order delivery wherever the receiver promises it (§§3–4). Every
//! stream and datagram this repository's workloads send is a formula, so
//! neither end keeps a copy of it. A stream is cut into [`Record`]s, and a
//! datagram is one record: a short big-endian header, then a payload whose
//! byte `j` is `(flow·197 + r·131 + j·31) mod 251`. [`fill_stream`]
//! builds any range of a stream for its writer, and a [`DeliveryCheck`]
//! compares each delivery with the same formula as it arrives, then drops
//! it. What a check keeps is its coverage, an arrival fingerprint, counts
//! and its first [`Violation`].
//!
//! A stream check takes [`DeliveredChunk`]s at their offsets. It refuses a
//! chunk that differs from the formula or lies past the stream's end, and
//! on an ordered receiver, a chunk that is not flagged in order or does
//! not start where the delivered prefix ends. A datagram check reads each
//! datagram's index from its leading bytes. It refuses a datagram with no
//! such index, a repeat, and one whose bytes differ. A refused delivery is
//! counted and leaves coverage and fingerprint as they were. A sender that
//! never sends some bytes leaves a check incomplete, which is not a
//! violation: a caller that needs every byte asks
//! [`DeliveryCheck::is_complete`].

use crate::DeliveredChunk;
use minion_simnet::{fnv1a, FNV_OFFSET_BASIS};
use std::fmt;

/// 31 and 251 are coprime, so a payload repeats every 251 bytes.
const PERIOD: usize = 251;

/// `STEPS[i]` = 31·i mod 251, two periods of it. As 31·81 ≡ 1 (mod 251), a
/// payload whose byte 0 is `base` reads `STEPS[k..]` with k = 81·base mod
/// 251, so any run of up to one period of it is one slice.
const STEPS: [u8; 2 * PERIOD] = {
    let mut steps = [0; 2 * PERIOD];
    let mut i = 0;
    while i < 2 * PERIOD {
        steps[i] = (i * 31 % PERIOD) as u8;
        i += 1;
    }
    steps
};

/// One record of a stream, or one datagram: the bytes `[start, end)` of
/// the stream, a header of up to 12 bytes followed by the payload of phase
/// `(flow, r)`, whose byte `j` is `(flow·197 + r·131 + j·31) mod 251`. A
/// record shorter than its header is its header's first bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// Stream offset of the record's first byte.
    pub start: u64,
    /// Stream offset one past its last byte.
    pub end: u64,
    header: [u8; 12],
    header_len: u8,
    /// Where the payload starts in `STEPS`.
    step: u8,
}

impl Record {
    /// Record `r` of flow `flow`'s framed stream, spanning `[start, end)`:
    /// a 12-byte header (flow, record index, payload length, each a `u32`,
    /// big-endian), then the payload of phase `(flow, r)`.
    pub fn framed(flow: u32, r: u32, start: u64, end: u64) -> Record {
        let payload_len = (end - start).saturating_sub(12) as u32;
        let header = [flow, r, payload_len].map(u32::to_be_bytes);
        let header = header.as_flattened().try_into().expect("three words");
        Record::new(start, end, header, 12, u64::from(flow), r)
    }

    /// Message or datagram `key`, spanning `[start, end)`: its key as a
    /// `width`-byte big-endian header (`width` ≤ 8; 0 for none), then the
    /// payload of phase `(key, 0)`.
    pub fn keyed(key: u64, width: usize, start: u64, end: u64) -> Record {
        let mut header = [0; 12];
        header[..width].copy_from_slice(&key.to_be_bytes()[8 - width..]);
        Record::new(start, end, header, width, key, 0)
    }

    fn new(start: u64, end: u64, header: [u8; 12], header_len: usize, flow: u64, r: u32) -> Record {
        let base = (flow % PERIOD as u64) as usize * 197 + r as usize % PERIOD * 131;
        Record {
            start,
            end,
            header,
            header_len: header_len as u8,
            step: (base % PERIOD * 81 % PERIOD) as u8,
        }
    }

    /// The record's bytes, on their own: a datagram or message as sent.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; (self.end - self.start) as usize];
        fill_stream(self.start, &mut out, |_| *self);
        out
    }

    /// Hand `emit` bytes `[from, to)` of this record (stream offsets within
    /// it), in pieces of at most one period.
    fn pieces(&self, from: u64, to: u64, emit: &mut impl FnMut(&[u8])) {
        let body = self.start + u64::from(self.header_len);
        let mut at = from;
        if at < body {
            let end = to.min(body);
            emit(&self.header[(at - self.start) as usize..(end - self.start) as usize]);
            at = end;
        }
        while at < to {
            let step = (usize::from(self.step) + ((at - body) % PERIOD as u64) as usize) % PERIOD;
            let len = ((to - at) as usize).min(PERIOD);
            emit(&STEPS[step..step + len]);
            at += len as u64;
        }
    }
}

/// Hand `emit` bytes `[from, to)` of the stream whose record holding byte
/// `at` is `record_at(at)`, in order, in pieces: a header whole, a payload
/// at most 251 bytes at a time.
fn stream_pieces(
    from: u64,
    to: u64,
    record_at: impl Fn(u64) -> Record,
    mut emit: impl FnMut(&[u8]),
) {
    let mut at = from;
    while at < to {
        let record = record_at(at);
        let end = to.min(record.end);
        record.pieces(at, end, &mut emit);
        at = end;
    }
}

/// Fill `buf` with the stream `record_at` cuts (the record holding byte
/// `at` is `record_at(at)`), from byte `from` on. The stream is never
/// stored: it is this formula, for the writer and for the
/// [`DeliveryCheck`] alike.
pub fn fill_stream(from: u64, buf: &mut [u8], record_at: impl Fn(u64) -> Record) {
    let mut filled = 0;
    stream_pieces(from, from + buf.len() as u64, record_at, |piece| {
        buf[filled..filled + piece.len()].copy_from_slice(piece);
        filled += piece.len();
    });
}

/// Whether `data`, placed at `offset`, equals the stream `record_at` cuts.
fn matches(offset: u64, data: &[u8], record_at: impl Fn(u64) -> Record) -> bool {
    let (mut checked, mut same) = (0, true);
    stream_pieces(offset, offset + data.len() as u64, record_at, |piece| {
        same &= *piece == data[checked..checked + piece.len()];
        checked += piece.len();
    });
    same
}

/// The first delivery a [`DeliveryCheck`] refused: when (µs of the
/// caller's clock), where (a chunk's stream offset, a datagram's index, 0
/// for a datagram without one) and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    at_us: u64,
    offset: u64,
    why: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Violation { at_us, offset, why } = self;
        write!(f, "at {at_us} us, offset {offset}: {why}")
    }
}

/// The delivery check of one stream or one set of datagrams (module doc).
#[derive(Clone, Debug)]
pub struct DeliveryCheck {
    /// Stream bytes, or datagrams, that were sent.
    len: u64,
    ordered: bool,
    /// Bytes of the big-endian index leading each datagram; 0 on a stream.
    index_width: u8,
    /// Merged, sorted coverage ranges of stream offsets or datagram indices.
    covered: Vec<(u64, u64)>,
    fingerprint: u64,
    out_of_order: u64,
    duplicates: u64,
    violations: u64,
    first: Option<Violation>,
    completed_us: Option<u64>,
}

impl DeliveryCheck {
    /// A check of a `len`-byte stream; an `ordered` receiver must deliver
    /// it in order.
    pub fn stream(len: u64, ordered: bool) -> Self {
        DeliveryCheck {
            len,
            ordered,
            index_width: 0,
            covered: Vec::new(),
            fingerprint: FNV_OFFSET_BASIS,
            out_of_order: 0,
            duplicates: 0,
            violations: 0,
            first: None,
            completed_us: None,
        }
    }

    /// A check of `count` datagrams, each led by its index as a
    /// `width`-byte big-endian number (1 ≤ `width` ≤ 8).
    pub fn datagrams(count: u64, width: usize) -> Self {
        DeliveryCheck {
            index_width: width as u8,
            ..DeliveryCheck::stream(count, false)
        }
    }

    /// Check `chunk`, delivered at `at_us`, against the stream `record_at`
    /// cuts ([`fill_stream`]). An accepted chunk folds its offset, length
    /// and order flag into the fingerprint and its range into the coverage;
    /// returns the coverage run it joined.
    pub fn on_chunk(
        &mut self,
        chunk: &DeliveredChunk,
        at_us: u64,
        record_at: impl Fn(u64) -> Record,
    ) -> Result<(u64, u64), Violation> {
        let (offset, data, in_order) = (chunk.offset, &chunk.data[..], chunk.in_order);
        let end = chunk.end_offset();
        self.duplicates += u64::from(self.holds_any(offset, end));
        // The in-order flag alone proves nothing on a standard receiver.
        let why = if self.ordered && !(in_order && offset == self.prefix_end()) {
            "an ordered receiver delivered a chunk away from its delivered prefix, or unflagged"
        } else if end > self.len {
            "chunk past stream end"
        } else if !matches(offset, data, record_at) {
            "delivered chunk differs from the sent stream"
        } else {
            self.out_of_order += u64::from(!in_order);
            return Ok(self.accept(offset, end, in_order, at_us));
        };
        Err(self.refuse(at_us, offset, why))
    }

    /// Check one delivered datagram; `record_of(i)` is datagram `i` as sent.
    /// An accepted datagram folds `(index, 1, in order)` into the
    /// fingerprint and its index into the coverage; returns its index.
    pub fn on_datagram(
        &mut self,
        data: &[u8],
        at_us: u64,
        record_of: impl FnOnce(u64) -> Record,
    ) -> Result<u64, Violation> {
        let index = data
            .get(..usize::from(self.index_width))
            .map(|key| key.iter().fold(0, |i: u64, &b| i << 8 | u64::from(b)));
        let Some(index) = index.filter(|&i| i < self.len) else {
            return Err(self.refuse(at_us, 0, "datagram carries no index that was sent"));
        };
        let sent = record_of(index);
        let why = if self.holds_any(index, index + 1) {
            self.duplicates += 1;
            "datagram delivered twice"
        } else if data.len() as u64 != sent.end - sent.start || !matches(sent.start, data, |_| sent)
        {
            "datagram differs from the one sent"
        } else {
            self.accept(index, index + 1, true, at_us);
            return Ok(index);
        };
        Err(self.refuse(at_us, index, why))
    }

    /// Take in an accepted delivery covering `[start, end)`.
    fn accept(&mut self, start: u64, end: u64, in_order: bool, at_us: u64) -> (u64, u64) {
        fnv1a(&mut self.fingerprint, &start.to_le_bytes());
        fnv1a(&mut self.fingerprint, &(end - start).to_le_bytes());
        fnv1a(&mut self.fingerprint, &[u8::from(in_order)]);
        let run = self.cover(start, end);
        if self.completed_us.is_none() && self.is_complete() {
            self.completed_us = Some(at_us);
        }
        run
    }

    fn refuse(&mut self, at_us: u64, offset: u64, why: &'static str) -> Violation {
        let violation = Violation { at_us, offset, why };
        self.violations += 1;
        self.first.get_or_insert(violation);
        violation
    }

    /// Whether any of `[start, end)` was delivered before.
    fn holds_any(&self, start: u64, end: u64) -> bool {
        let idx = self.covered.partition_point(|&(_, e)| e <= start);
        start < end && self.covered.get(idx).is_some_and(|&(s, _)| s < end)
    }

    /// Merge `[start, end)` into the coverage set; returns the merged run.
    /// An empty range joins nothing and changes nothing.
    fn cover(&mut self, start: u64, end: u64) -> (u64, u64) {
        if start == end {
            return (start, end);
        }
        let idx = self.covered.partition_point(|&(_, e)| e < start);
        let (mut start, mut end, mut remove_until) = (start, end, idx);
        while remove_until < self.covered.len() && self.covered[remove_until].0 <= end {
            start = start.min(self.covered[remove_until].0);
            end = end.max(self.covered[remove_until].1);
            remove_until += 1;
        }
        self.covered.splice(idx..remove_until, [(start, end)]);
        (start, end)
    }

    /// The merged, sorted ranges delivered so far.
    pub fn covered(&self) -> &[(u64, u64)] {
        &self.covered
    }

    /// Bytes (datagrams) delivered, each counted once.
    pub fn delivered(&self) -> u64 {
        self.covered.iter().map(|(s, e)| e - s).sum()
    }

    /// Where the delivered prefix ends.
    pub fn prefix_end(&self) -> u64 {
        self.covered.first().filter(|r| r.0 == 0).map_or(0, |r| r.1)
    }

    /// Whether everything sent has been delivered.
    pub fn is_complete(&self) -> bool {
        self.covered == [(0, self.len)]
    }

    /// When the delivery that completed the check arrived.
    pub fn completed_us(&self) -> Option<u64> {
        self.completed_us
    }

    /// FNV-1a of each accepted chunk's (offset, length, order flag), or
    /// datagram's `(index, 1, in order)`, in arrival order.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Accepted chunks flagged out of order.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Deliveries that repeated bytes, or a datagram, delivered before.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Deliveries refused.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The check's verdict: the first violation, if any.
    pub fn verdict(&self) -> Result<(), Violation> {
        self.first.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::SimRng;

    /// Record `r`'s bytes from the documented formula, byte by byte.
    fn formula(header: &[u8], flow: u64, r: u64, len: usize) -> Vec<u8> {
        let mut out = header[..header.len().min(len)].to_vec();
        let payload = 0..len.saturating_sub(header.len()) as u64;
        out.extend(payload.map(|j| ((flow * 197 + r * 131 + j * 31) % 251) as u8));
        out
    }

    /// A framed stream of `records` records of assorted lengths, as its
    /// bounds and as the stored copy the brute-force oracle compares with.
    fn framed_stream(flow: u32, records: usize) -> (Vec<Record>, Vec<u8>) {
        let (mut layout, mut stored) = (Vec::new(), Vec::new());
        for r in 0..records {
            let len = [5, 12, 13, 251, 300, 700][r % 6];
            let start = stored.len() as u64;
            layout.push(Record::framed(flow, r as u32, start, start + len as u64));
            let header = [flow, r as u32, (len as u32).saturating_sub(12)].map(u32::to_be_bytes);
            stored.extend(formula(
                header.as_flattened(),
                u64::from(flow),
                r as u64,
                len,
            ));
        }
        (layout, stored)
    }

    fn at(layout: &[Record]) -> impl Fn(u64) -> Record + '_ {
        |at| layout[layout.partition_point(|r| r.end <= at)]
    }

    fn chunk(offset: u64, data: &[u8], in_order: bool) -> DeliveredChunk {
        DeliveredChunk::new(offset, in_order, data.to_vec())
    }

    #[test]
    fn records_follow_the_documented_formula() {
        for flow in [0, 1, 250, 1007] {
            let (layout, stored) = framed_stream(flow, 12);
            let mut built = vec![0; stored.len()];
            fill_stream(0, &mut built, at(&layout));
            assert_eq!(built, stored, "flow {flow}");
            // Any range, cut anywhere, is the stored copy's.
            for (from, to) in [(3, 4), (11, 600), (17, 17), (250, 1300)] {
                let mut part = vec![0; (to - from) as usize];
                fill_stream(from, &mut part, at(&layout));
                assert_eq!(part, stored[from as usize..to as usize]);
            }
        }
        for (key, width) in [(0, 0), (7, 4), (0x0102_0304_0506, 8)] {
            let record = Record::keyed(key, width, 0, 640);
            let header = &key.to_be_bytes()[8 - width..];
            assert_eq!(record.to_vec(), formula(header, key, 0, 640));
        }
    }

    /// An unordered receiver's stream check against a brute-force oracle (a
    /// stored copy of the stream and a byte map of what was delivered):
    /// random chunks, overlapping and repeated, some past the end and some
    /// with one byte flipped. The check must accept exactly the chunks equal
    /// to the stored bytes, count each one that repeats a delivered byte,
    /// and agree with the oracle on coverage and completion after each.
    #[test]
    fn a_stream_check_agrees_with_a_stored_copy() {
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let (layout, stored) = framed_stream(seed as u32, 9);
            let len = stored.len();
            let mut check = DeliveryCheck::stream(len as u64, false);
            let (mut seen, mut duplicates, mut refused) = (vec![false; len], 0, 0);
            for step in 0..400u64 {
                let from = rng.gen_range_usize(0, len);
                let to = (from + rng.gen_range_usize(0, 900)).min(len + 3 * (step % 2) as usize);
                let mut data: Vec<u8> = (from..to).map(|i| *stored.get(i).unwrap_or(&7)).collect();
                if to > from && rng.gen_range_usize(0, 4) == 0 {
                    data[rng.gen_range_usize(0, to - from)] ^= 1 << rng.gen_range_usize(0, 8);
                }
                let intact = to <= len && data == stored[from..to];
                duplicates += u64::from(seen[from.min(len)..to.min(len)].contains(&true));
                let got = check.on_chunk(&chunk(from as u64, &data, false), step, at(&layout));
                assert_eq!(
                    got.is_ok(),
                    intact,
                    "seed {seed} step {step} [{from}, {to})"
                );
                if intact {
                    seen[from..to].fill(true);
                } else {
                    refused += 1;
                }
                let delivered = seen.iter().filter(|&&b| b).count() as u64;
                assert_eq!(check.delivered(), delivered);
                assert_eq!(check.is_complete(), delivered == len as u64);
                assert_eq!(
                    check.prefix_end(),
                    seen.iter().take_while(|&&b| b).count() as u64
                );
            }
            assert_eq!(
                (check.duplicates(), check.violations()),
                (duplicates, refused)
            );
            assert_eq!(
                check.out_of_order(),
                400 - refused,
                "every chunk was flagged out of order"
            );
        }
    }

    #[test]
    fn a_refused_chunk_is_counted_and_the_first_one_kept() {
        let (layout, stored) = framed_stream(3, 4);
        let mut check = DeliveryCheck::stream(stored.len() as u64, false);
        let mut flipped = stored[100..200].to_vec();
        flipped[40] ^= 0x10;
        let first = check.on_chunk(&chunk(100, &flipped, true), 9, at(&layout));
        assert_eq!(
            first.unwrap_err().to_string(),
            "at 9 us, offset 100: delivered chunk differs from the sent stream"
        );
        // Right bytes at the wrong place, and a chunk past the end.
        assert!(check
            .on_chunk(&chunk(101, &stored[100..200], true), 10, at(&layout))
            .is_err());
        let tail = &stored[stored.len() - 5..];
        let past = check.on_chunk(&chunk(stored.len() as u64 - 4, tail, true), 11, at(&layout));
        assert!(past
            .unwrap_err()
            .to_string()
            .ends_with("chunk past stream end"));
        // None of them entered the coverage or the fingerprint.
        assert_eq!(
            (check.covered(), check.fingerprint()),
            (&[][..], FNV_OFFSET_BASIS)
        );
        assert_eq!(check.violations(), 3);
        assert_eq!(check.verdict(), first.map(|_| ()));
        // The whole stream in one chunk completes the check, once.
        let whole = Ok((0, stored.len() as u64));
        assert_eq!(
            check.on_chunk(&chunk(0, &stored, true), 12, at(&layout)),
            whole
        );
        check
            .on_chunk(&chunk(0, &stored, true), 13, at(&layout))
            .unwrap();
        assert_eq!((check.completed_us(), check.duplicates()), (Some(12), 1));
    }

    /// An ordered receiver's chunk must be flagged in order and start where
    /// the delivered prefix ends: a gap, an out-of-order flag and a repeat
    /// are refused even when their bytes are right.
    #[test]
    fn an_ordered_check_takes_only_its_prefix() {
        let (layout, stored) = framed_stream(1, 3);
        let mut check = DeliveryCheck::stream(stored.len() as u64, true);
        let mut offer = |from: usize, to: usize, in_order: bool| {
            check.on_chunk(
                &chunk(from as u64, &stored[from..to], in_order),
                0,
                at(&layout),
            )
        };
        let gap = offer(10, 20, true).unwrap_err().to_string();
        assert!(gap.contains("offset 10: an ordered receiver"), "{gap}");
        assert!(offer(0, 10, false).is_err(), "flagged out of order");
        assert_eq!(offer(0, 10, true), Ok((0, 10)));
        assert!(offer(0, 10, true).is_err(), "a repeat");
        assert!(offer(5, 15, true).is_err(), "an overlap");
        assert_eq!(offer(10, stored.len(), true), Ok((0, stored.len() as u64)));
        assert_eq!((check.violations(), check.duplicates()), (4, 2));
        assert!(check.is_complete());
    }

    /// Datagrams delivered once, twice, garbled, cut short, with an index
    /// never sent, or not at all.
    #[test]
    fn a_datagram_check_refuses_repeats_and_garbage_and_counts_misses() {
        let sent = |i: u64| Record::keyed(i, 4, 0, 20 + i);
        let mut check = DeliveryCheck::datagrams(5, 4);
        assert_eq!(check.on_datagram(&sent(3).to_vec(), 1, sent), Ok(3));
        assert_eq!(check.on_datagram(&sent(0).to_vec(), 2, sent), Ok(0));
        let repeat = check.on_datagram(&sent(3).to_vec(), 3, sent).unwrap_err();
        assert_eq!(
            repeat.to_string(),
            "at 3 us, offset 3: datagram delivered twice"
        );
        let mut garbled = sent(1).to_vec();
        garbled[9] ^= 1;
        assert!(check.on_datagram(&garbled, 4, sent).is_err());
        let short = &sent(2).to_vec()[..21];
        assert!(check.on_datagram(short, 5, sent).is_err(), "a cut datagram");
        assert!(check.on_datagram(&[0, 0], 6, sent).is_err(), "no index");
        assert!(
            check.on_datagram(&sent(9).to_vec(), 7, sent).is_err(),
            "never sent"
        );
        assert_eq!((check.violations(), check.duplicates()), (5, 1));
        assert_eq!(check.verdict(), Err(repeat));
        // Datagrams 1, 2 and 4 are missing: a miss, not a violation.
        assert_eq!(
            (check.covered(), check.is_complete()),
            (&[(0, 1), (3, 4)][..], false)
        );
        for i in [1, 2, 4] {
            check.on_datagram(&sent(i).to_vec(), 8, sent).unwrap();
        }
        assert_eq!((check.is_complete(), check.completed_us()), (true, Some(8)));
    }
}
