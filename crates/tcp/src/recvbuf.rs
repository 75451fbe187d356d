//! The TCP receive path: reassembly, SACK generation, and uTCP's
//! receive-side extension (§4.1).
//!
//! A conventional receiver holds out-of-order segments in a reordering queue
//! and releases data to the application only once the sequence-space gap
//! before it has been filled. With `SO_UNORDERED` enabled, every arriving
//! segment is *also* pushed to the application immediately, tagged with its
//! stream offset, while all wire-visible behaviour (cumulative ACK, SACK
//! blocks, advertised window) remains exactly that of standard TCP.

use crate::delivered::DeliveredChunk;
use crate::segment::SackBlock;
use crate::seq::SeqNum;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Receive-path statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecvStats {
    /// Segments that arrived exactly at the cumulative point.
    pub in_order_segments: u64,
    /// Segments that arrived above the cumulative point (a gap exists).
    pub out_of_order_segments: u64,
    /// Segments that carried only already-received data.
    pub duplicate_segments: u64,
    /// Total payload bytes accepted.
    pub bytes_received: u64,
    /// Chunks delivered to the application ahead of the cumulative point.
    pub early_deliveries: u64,
}

/// The receive buffer / reassembly queue for one connection.
///
/// Arriving payloads are kept as the views of their packet buffers they
/// arrive as: the reassembly store holds them, and delivery hands them on,
/// without copying or merging.
#[derive(Clone, Debug)]
pub struct ReceiveBuffer {
    /// Next expected in-order stream offset (receive.next − ISN − 1).
    rcv_nxt: u64,
    /// Out-of-order store, keyed by offset: non-overlapping pieces of the
    /// segments that arrived above the cumulative point (a piece is what a
    /// segment added that the store did not hold yet). Adjacent pieces are
    /// not merged; every piece starts above `rcv_nxt`.
    ooo: BTreeMap<u64, Bytes>,
    /// Total bytes held in `ooo`.
    ooo_bytes: usize,
    /// Data ready for the application.
    ready: VecDeque<DeliveredChunk>,
    /// Bytes in `ready` that were delivered at the cumulative in-order point;
    /// only these count against the advertised window, so that the window is
    /// wire-identical to a standard TCP receiver (out-of-order early
    /// deliveries are still accounted through the reassembly store).
    in_order_ready_bytes: usize,
    capacity: usize,
    /// Whether uTCP's unordered delivery is enabled.
    unordered: bool,
    stats: RecvStats,
}

impl ReceiveBuffer {
    /// Create a receive buffer with the given advertised-window capacity.
    pub fn new(capacity: usize, unordered: bool) -> Self {
        ReceiveBuffer {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            ready: VecDeque::new(),
            in_order_ready_bytes: 0,
            capacity,
            unordered,
            stats: RecvStats::default(),
        }
    }

    /// Whether unordered delivery is enabled.
    pub fn unordered(&self) -> bool {
        self.unordered
    }

    /// The next expected in-order stream offset (drives the cumulative ACK).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Receive statistics.
    pub fn stats(&self) -> &RecvStats {
        &self.stats
    }

    /// Total bytes held in the out-of-order store.
    pub fn ooo_bytes(&self) -> usize {
        self.ooo_bytes
    }

    /// The advertised receive window.
    ///
    /// As in standard TCP, the window tracks the cumulative in-order point and
    /// application consumption; delivering data out-of-order to the
    /// application does **not** open the window early (§4.1).
    pub fn window(&self) -> usize {
        self.capacity
            .saturating_sub(self.in_order_ready_bytes)
            .saturating_sub(self.ooo_bytes)
    }

    /// Accept a data segment at stream offset `offset`, copying it in: the
    /// entry point for callers that hold a plain slice rather than a packet
    /// buffer. See `on_bytes`.
    pub fn on_data(&mut self, offset: u64, data: &[u8]) {
        self.on_bytes(offset, Bytes::copy_from_slice(data));
    }

    /// Accept a data segment at stream offset `offset`. `data` is stored and
    /// delivered as is (a view of the arriving packet), never copied.
    ///
    /// In ordered mode the bytes that fill a hole, and each stored piece the
    /// fill releases, are delivered as separate chunks.
    pub(crate) fn on_bytes(&mut self, offset: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let len = data.len();
        let end = offset + len as u64;

        // The common case: the next expected bytes, nothing held behind a
        // hole. Both modes deliver the segment itself, in order.
        if offset == self.rcv_nxt && self.ooo.is_empty() {
            self.stats.in_order_segments += 1;
            self.stats.bytes_received += len as u64;
            self.rcv_nxt = end;
            self.push_ready(DeliveredChunk::new(offset, true, data));
            return;
        }

        if end <= self.rcv_nxt {
            self.stats.duplicate_segments += 1;
            return;
        }
        let in_order = offset <= self.rcv_nxt;
        if in_order {
            self.stats.in_order_segments += 1;
        } else {
            self.stats.out_of_order_segments += 1;
        }

        // The already-delivered prefix of a retransmission is of no further
        // use to either the application or the reassembly store.
        let (offset, data) = if offset < self.rcv_nxt {
            (self.rcv_nxt, data.slice((self.rcv_nxt - offset) as usize..))
        } else {
            (offset, data)
        };

        // uTCP: hand the arriving segment to the application immediately,
        // before reassembly, tagged with its stream offset. Duplicate and
        // overlapping deliveries are permitted (at-least-once semantics).
        if self.unordered {
            if !in_order {
                self.stats.early_deliveries += 1;
            }
            self.push_ready(DeliveredChunk::new(offset, in_order, data.clone()));
        }

        self.insert_ooo(offset, &data);
        self.advance_cumulative();
        self.stats.bytes_received += len as u64;
    }

    fn push_ready(&mut self, chunk: DeliveredChunk) {
        if chunk.in_order {
            self.in_order_ready_bytes += chunk.len();
        }
        self.ready.push_back(chunk);
    }

    /// Store the parts of `[offset, offset + data.len())` the out-of-order
    /// store does not hold yet, as views of `data`.
    fn insert_ooo(&mut self, offset: u64, data: &Bytes) {
        let end = offset + data.len() as u64;
        // Where the uncovered remainder of the new range starts: past a
        // predecessor that reaches into it.
        let mut cursor = offset;
        if let Some((&pstart, piece)) = self.ooo.range(..offset).next_back() {
            cursor = cursor.max(pstart + piece.len() as u64);
        }
        while cursor < end {
            // The next stored piece inside the range bounds the gap before
            // it; the search resumes behind that piece.
            let (gap_end, resume) = match self.ooo.range(cursor..end).next() {
                Some((&pstart, piece)) => (pstart, pstart + piece.len() as u64),
                None => (end, end),
            };
            if cursor < gap_end {
                let piece = data.slice((cursor - offset) as usize..(gap_end - offset) as usize);
                self.ooo_bytes += piece.len();
                self.ooo.insert(cursor, piece);
            }
            cursor = resume;
        }
    }

    /// Advance `rcv_nxt` over contiguous data and (for ordered delivery) queue
    /// the newly in-order pieces to the application.
    fn advance_cumulative(&mut self) {
        while let Some(entry) = self.ooo.first_entry() {
            if *entry.key() != self.rcv_nxt {
                break;
            }
            let (start, piece) = entry.remove_entry();
            self.ooo_bytes -= piece.len();
            self.rcv_nxt = start + piece.len() as u64;
            if !self.unordered {
                self.push_ready(DeliveredChunk::new(start, true, piece));
            }
        }
    }

    /// Pop the next chunk ready for the application, if any.
    pub fn read(&mut self) -> Option<DeliveredChunk> {
        let chunk = self.ready.pop_front()?;
        if chunk.in_order {
            self.in_order_ready_bytes -= chunk.len();
        }
        Some(chunk)
    }

    /// Whether any data is ready for the application.
    pub fn readable(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Current SACK blocks describing the out-of-order runs above the
    /// cumulative point, most recent first, at most `max_blocks`.
    pub fn sack_blocks(&self, isn: SeqNum, max_blocks: usize) -> Vec<SackBlock> {
        // Data offset 0 corresponds to sequence number ISN + 1 (after the SYN).
        let base = isn + 1;
        let block = |start: u64, end: u64| SackBlock {
            start: base + start as u32,
            end: base + end as u32,
        };
        // Highest (most recently useful) first; adjacent pieces are one run.
        let mut blocks = Vec::new();
        let mut run: Option<(u64, u64)> = None;
        for (&start, piece) in self.ooo.iter().rev() {
            let end = start + piece.len() as u64;
            match run {
                Some((run_start, run_end)) if end == run_start => run = Some((start, run_end)),
                Some((run_start, run_end)) => {
                    blocks.push(block(run_start, run_end));
                    if blocks.len() == max_blocks {
                        return blocks;
                    }
                    run = Some((start, end));
                }
                None => run = Some((start, end)),
            }
        }
        if let Some((run_start, run_end)) = run {
            blocks.push(block(run_start, run_end));
        }
        blocks.truncate(max_blocks);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered() -> ReceiveBuffer {
        ReceiveBuffer::new(1 << 20, false)
    }

    fn unordered() -> ReceiveBuffer {
        ReceiveBuffer::new(1 << 20, true)
    }

    fn drain(rb: &mut ReceiveBuffer) -> Vec<DeliveredChunk> {
        let mut v = vec![];
        while let Some(c) = rb.read() {
            v.push(c);
        }
        v
    }

    #[test]
    fn ordered_delivery_waits_for_gap_fill() {
        let mut rb = ordered();
        rb.on_data(0, &[1u8; 100]);
        rb.on_data(200, &[3u8; 100]); // gap at [100, 200)
        let chunks = drain(&mut rb);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].offset, 0);
        assert_eq!(rb.rcv_nxt(), 100);
        // Fill the hole: the fill and the buffered later data both deliver,
        // in order, each as the piece it arrived as.
        rb.on_data(100, &[2u8; 100]);
        let chunks = drain(&mut rb);
        assert_eq!(chunks.len(), 2);
        assert_eq!((chunks[0].offset, chunks[0].len()), (100, 100));
        assert_eq!((chunks[1].offset, chunks[1].len()), (200, 100));
        assert_eq!(chunks[1].data, vec![3u8; 100]);
        assert_eq!(rb.rcv_nxt(), 300);
        assert!(chunks.iter().all(|c| c.in_order));
    }

    #[test]
    fn arriving_views_are_stored_and_delivered_without_copying() {
        let packet = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        for unordered in [false, true] {
            let mut rb = ReceiveBuffer::new(1 << 20, unordered);
            // In order with nothing held: straight to the application.
            rb.on_bytes(0, packet.slice(..100));
            // Behind a hole, then the fill.
            rb.on_bytes(200, packet.slice(200..));
            rb.on_bytes(100, packet.slice(100..200));
            let chunks = drain(&mut rb);
            assert_eq!(chunks.len(), 3);
            for c in &chunks {
                assert_eq!(c.data.as_ptr(), packet[c.offset as usize..].as_ptr());
            }
            assert_eq!(rb.rcv_nxt(), 256);
            assert_eq!(rb.ooo_bytes(), 0);
        }
    }

    #[test]
    fn overlapping_arrival_stores_only_what_is_new() {
        let mut rb = ordered();
        rb.on_data(100, &[1u8; 50]); // [100,150)
        rb.on_data(200, &[2u8; 50]); // [200,250)
                                     // [120,230) overlaps both ends and bridges the gap between them.
        rb.on_data(120, &[3u8; 110]);
        assert_eq!(rb.ooo_bytes(), 150, "[100,250) held once");
        let isn = SeqNum(0);
        let blocks = rb.sack_blocks(isn, 3);
        assert_eq!(blocks.len(), 1, "adjacent pieces report as one run");
        assert_eq!(blocks[0].start, SeqNum(101));
        assert_eq!(blocks[0].end, SeqNum(251));
        rb.on_data(0, &[0u8; 100]);
        assert_eq!(rb.rcv_nxt(), 250);
        let chunks = drain(&mut rb);
        let offsets: Vec<(u64, usize)> = chunks.iter().map(|c| (c.offset, c.len())).collect();
        assert_eq!(offsets, vec![(0, 100), (100, 50), (150, 50), (200, 50)]);
    }

    #[test]
    fn unordered_delivery_is_immediate_with_offsets() {
        let mut rb = unordered();
        rb.on_data(0, &[1u8; 100]);
        rb.on_data(200, &[3u8; 100]);
        let chunks = drain(&mut rb);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].offset, 0);
        assert!(chunks[0].in_order);
        assert_eq!(chunks[1].offset, 200);
        assert!(!chunks[1].in_order, "delivered despite the hole");
        // The cumulative point still reflects only in-order data, as TCP would.
        assert_eq!(rb.rcv_nxt(), 100);
        assert_eq!(rb.stats().early_deliveries, 1);
    }

    #[test]
    fn unordered_mode_does_not_redeliver_hole_fill_twice() {
        let mut rb = unordered();
        rb.on_data(0, &[1u8; 100]);
        rb.on_data(200, &[3u8; 100]);
        drain(&mut rb);
        rb.on_data(100, &[2u8; 100]);
        let chunks = drain(&mut rb);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].offset, 100);
        assert_eq!(chunks[0].len(), 100);
        assert_eq!(rb.rcv_nxt(), 300);
    }

    #[test]
    fn retransmission_overlap_is_trimmed_in_unordered_mode() {
        let mut rb = unordered();
        rb.on_data(0, &[1u8; 100]);
        drain(&mut rb);
        // A retransmission covering [0, 150): only [100, 150) is new.
        rb.on_data(0, &[1u8; 150]);
        let chunks = drain(&mut rb);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].offset, 100);
        assert_eq!(chunks[0].len(), 50);
    }

    #[test]
    fn exact_duplicates_are_counted_and_ignored() {
        let mut rb = ordered();
        rb.on_data(0, &[1u8; 100]);
        rb.on_data(0, &[1u8; 100]);
        assert_eq!(rb.stats().duplicate_segments, 1);
        assert_eq!(drain(&mut rb).len(), 1);
    }

    #[test]
    fn overlapping_out_of_order_runs_merge() {
        let mut rb = ordered();
        rb.on_data(100, &[2u8; 100]);
        rb.on_data(150, &[2u8; 100]); // overlaps previous run
        rb.on_data(300, &[4u8; 50]);
        assert_eq!(rb.ooo_bytes(), 150 + 50);
        rb.on_data(0, &[1u8; 100]);
        assert_eq!(rb.rcv_nxt(), 250);
        rb.on_data(250, &[3u8; 50]);
        assert_eq!(rb.rcv_nxt(), 350);
        let total: usize = drain(&mut rb).iter().map(|c| c.len()).sum();
        assert_eq!(total, 350);
    }

    #[test]
    fn sack_blocks_describe_out_of_order_runs() {
        let mut rb = ordered();
        let isn = SeqNum(1000);
        rb.on_data(0, &[0u8; 100]);
        rb.on_data(200, &[0u8; 100]);
        rb.on_data(400, &[0u8; 100]);
        let blocks = rb.sack_blocks(isn, 3);
        assert_eq!(blocks.len(), 2);
        // Most recent (highest) block first; offsets are ISN+1-relative.
        assert_eq!(blocks[0].start, SeqNum(1001 + 400));
        assert_eq!(blocks[0].end, SeqNum(1001 + 500));
        assert_eq!(blocks[1].start, SeqNum(1001 + 200));
        assert_eq!(blocks[1].end, SeqNum(1001 + 300));
        // Once holes fill, no SACK blocks remain.
        rb.on_data(100, &[0u8; 100]);
        rb.on_data(300, &[0u8; 100]);
        assert!(rb.sack_blocks(isn, 3).is_empty());
    }

    #[test]
    fn window_shrinks_with_unread_and_ooo_data() {
        let mut rb = ReceiveBuffer::new(1000, false);
        assert_eq!(rb.window(), 1000);
        rb.on_data(0, &[0u8; 300]);
        assert_eq!(rb.window(), 700, "unread in-order data consumes window");
        rb.on_data(500, &[0u8; 200]);
        assert_eq!(rb.window(), 500, "out-of-order data consumes window");
        rb.read();
        assert_eq!(rb.window(), 800);
    }

    #[test]
    fn unordered_window_matches_ordered_window_behaviour() {
        // Wire-visible behaviour must be identical: delivering data early must
        // not open the advertised window early.
        let mut ordered_rb = ReceiveBuffer::new(1000, false);
        let mut unordered_rb = ReceiveBuffer::new(1000, true);
        for rb in [&mut ordered_rb, &mut unordered_rb] {
            rb.on_data(100, &[0u8; 200]);
        }
        // Even though the unordered receiver handed the bytes to the app...
        assert!(unordered_rb.readable());
        assert!(!ordered_rb.readable());
        // ...the advertised windows are the same.
        assert_eq!(ordered_rb.window(), unordered_rb.window());
        assert_eq!(ordered_rb.rcv_nxt(), unordered_rb.rcv_nxt());
    }

    #[test]
    fn sack_blocks_wrap_correctly_with_a_high_isn() {
        // With an ISN a few bytes below 2^32, SACK block sequence numbers
        // wrap while the 64-bit stream offsets do not.
        let mut rb = ordered();
        let isn = SeqNum(u32::MAX - 2);
        rb.on_data(0, &[0u8; 100]);
        rb.on_data(200, &[0u8; 100]);
        let blocks = rb.sack_blocks(isn, 3);
        assert_eq!(blocks.len(), 1);
        // Offset 200 maps to ISN+1+200, which wraps past 2^32.
        assert_eq!(blocks[0].start, isn + 1 + 200);
        assert_eq!(blocks[0].end, isn + 1 + 300);
        assert_eq!(blocks[0].start, SeqNum(198), "wrapped raw value");
        assert!(blocks[0].start.gt(isn), "modular order is preserved");
        // The block covers exactly 100 bytes in modular arithmetic.
        assert_eq!(blocks[0].end.distance_from(blocks[0].start), 100);
    }

    #[test]
    fn large_offsets_near_the_32_bit_boundary_are_plain_u64s() {
        // The reassembly store is offset-keyed (u64): runs just below and
        // above 2^32 must neither collide nor merge across the boundary gap.
        let mut rb = unordered();
        let below = u64::from(u32::MAX) - 99; // [2^32-100, 2^32)
        let above = u64::from(u32::MAX) + 1; // [2^32, 2^32+100) abuts
        rb.on_data(below, &[1u8; 100]);
        rb.on_data(above, &[2u8; 100]);
        assert_eq!(rb.ooo_bytes(), 200, "abutting runs merge into one");
        let far = 2 * u64::from(u32::MAX);
        rb.on_data(far, &[3u8; 10]);
        assert_eq!(rb.ooo_bytes(), 210, "distinct runs stay distinct");
        // Early (uTCP) deliveries carry the exact 64-bit offsets.
        let offsets: Vec<u64> = drain(&mut rb).iter().map(|c| c.offset).collect();
        assert_eq!(offsets, vec![below, above, far]);
        assert_eq!(rb.rcv_nxt(), 0, "nothing in order yet");
    }

    #[test]
    fn empty_data_is_ignored() {
        let mut rb = unordered();
        rb.on_data(0, &[]);
        assert!(!rb.readable());
        assert_eq!(rb.stats().bytes_received, 0);
    }
}
