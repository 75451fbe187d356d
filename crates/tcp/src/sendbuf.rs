//! The TCP send buffer, including uTCP's send-side extensions (§4.2).
//!
//! The buffer is a queue of application writes ("chunks", emulating Linux
//! skbuffs). Offsets are 64-bit logical stream offsets; the connection maps
//! them to 32-bit wire sequence numbers.
//!
//! uTCP semantics implemented here:
//!
//! * **Priority insertion** — a write tagged with a higher priority is placed
//!   ahead of lower-priority writes that have not yet been transmitted.
//! * **Transmit-boundary constraint** — data is never inserted ahead of any
//!   write that has been transmitted in whole or in part, which is what keeps
//!   the reordering invisible on the wire.
//! * **Squash** — an optional flag discards untransmitted writes carrying the
//!   same tag, for update-oriented applications.
//! * **Write-boundary preservation** — when the unordered-send option is on,
//!   a wire segment never spans two writes (each write starts a new skbuff),
//!   with optional coalescing of small writes into the tail skbuff.

use bytes::Bytes;
use std::collections::VecDeque;

/// Error returned when a write does not fit in the send buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferFull;

/// One application write (or several coalesced small ones).
#[derive(Clone, Debug)]
struct Chunk {
    data: Bytes,
    priority: u32,
}

/// The send queue.
///
/// The transmit boundary is structural: writes that have been transmitted at
/// least in part live in `sent`, pinned to their stream offsets; writes that
/// have not are in `queued`, where priority insertion and squash may still
/// reorder them. Nothing can therefore be inserted ahead of a touched write,
/// and neither an acknowledgment nor a segment read walks the queue: both
/// work at the front of `sent` or at the boundary.
#[derive(Clone, Debug)]
pub struct SendBuffer {
    /// Writes transmitted in whole or in part, oldest first, each with the
    /// stream offset of its first byte. Contiguous; the front one contains
    /// `head_offset` (its acknowledged prefix is simply skipped).
    sent: VecDeque<(u64, Bytes)>,
    /// Entirely untransmitted writes in transmission order, the first
    /// starting at `queued_start`. Always in non-increasing priority order:
    /// a write goes in ahead of the first strictly lower chunk, coalesces
    /// into the tail only at equal priority, an ordered write appends
    /// priority 0, and squash and transmission only remove chunks. So the
    /// insertion point is a binary search.
    queued: VecDeque<Chunk>,
    /// Stream offset of the first buffered (lowest unacknowledged) byte.
    head_offset: u64,
    /// Stream offset one past the last `sent` chunk.
    queued_start: u64,
    /// Stream offset one past the last buffered byte.
    end_offset: u64,
    /// Stream offset up to which data has been transmitted at least once.
    transmitted: u64,
    capacity: usize,
    /// Count of writes that were coalesced into an existing tail chunk.
    coalesced_writes: u64,
    /// Count of writes whose position was advanced past lower-priority data.
    priority_insertions: u64,
    /// Count of chunks discarded by the squash flag.
    squashed_chunks: u64,
}

impl SendBuffer {
    /// Storage granularity of standard-mode (byte-stream) writes: a larger
    /// write is kept in pieces of this size, each released as soon as it is
    /// acknowledged. A segment that straddles two pieces is gathered by
    /// copy — one in `STREAM_PIECE / MSS` segments.
    pub const STREAM_PIECE: usize = 32 * 1024;

    /// Create an empty buffer with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        SendBuffer {
            sent: VecDeque::new(),
            queued: VecDeque::new(),
            head_offset: 0,
            queued_start: 0,
            end_offset: 0,
            transmitted: 0,
            capacity,
            coalesced_writes: 0,
            priority_insertions: 0,
            squashed_chunks: 0,
        }
    }

    /// Bytes currently buffered (acknowledged data is removed).
    pub fn len(&self) -> usize {
        (self.end_offset - self.head_offset) as usize
    }

    /// True if no data is buffered.
    pub fn is_empty(&self) -> bool {
        self.end_offset == self.head_offset
    }

    /// Free space in bytes.
    pub fn free_space(&self) -> usize {
        self.capacity - self.len()
    }

    /// Stream offset of the first buffered (lowest unacknowledged) byte.
    pub fn head_offset(&self) -> u64 {
        self.head_offset
    }

    /// Stream offset one past the last buffered byte.
    pub fn end_offset(&self) -> u64 {
        self.end_offset
    }

    /// Stream offset up to which data has been transmitted at least once.
    pub fn transmitted_offset(&self) -> u64 {
        self.transmitted
    }

    /// Number of writes coalesced into the tail chunk.
    pub fn coalesced_writes(&self) -> u64 {
        self.coalesced_writes
    }

    /// Number of writes inserted ahead of lower-priority data.
    pub fn priority_insertions(&self) -> u64 {
        self.priority_insertions
    }

    /// Number of chunks removed by squashing writes.
    pub fn squashed_chunks(&self) -> u64 {
        self.squashed_chunks
    }

    /// Enqueue an ordinary (standard TCP) write at the tail of the queue.
    pub fn write(&mut self, data: &[u8]) -> Result<usize, BufferFull> {
        self.write_with_priority(data, 0, false, false, usize::MAX, false)
    }

    /// Enqueue a write with uTCP send-side semantics.
    ///
    /// * `priority` — larger values are more urgent.
    /// * `squash` — discard untransmitted chunks with the same priority tag.
    /// * `unordered` — whether `SO_UNORDEREDSEND` is active (enables priority
    ///   insertion, squash, and write-boundary preservation).
    /// * `mss`, `coalesce` — coalesce this write into the tail chunk when both
    ///   fit within one MSS-sized skbuff (the §8.1 mitigation).
    ///
    /// The bytes are copied once, into storage the segments then share.
    pub fn write_with_priority(
        &mut self,
        data: &[u8],
        priority: u32,
        squash: bool,
        unordered: bool,
        mss: usize,
        coalesce: bool,
    ) -> Result<usize, BufferFull> {
        if data.len() > self.free_space() {
            return Err(BufferFull);
        }
        if data.is_empty() {
            return Ok(0);
        }

        if !unordered {
            // Standard TCP: a pure byte stream. Without `unordered` no read
            // respects chunk boundaries, so where they fall is invisible —
            // a large write is stored in pieces, each released as soon as
            // it is acknowledged rather than held for the write's last byte.
            for piece in data.chunks(Self::STREAM_PIECE) {
                self.push_queued(piece, 0);
            }
            return Ok(data.len());
        }

        // Squash: drop untransmitted chunks carrying exactly the same tag.
        if squash {
            let before = self.queued.len();
            let mut dropped = 0;
            self.queued.retain(|c| {
                let keep = c.priority != priority;
                if !keep {
                    dropped += c.data.len() as u64;
                }
                keep
            });
            self.squashed_chunks += (before - self.queued.len()) as u64;
            self.end_offset -= dropped;
        }

        // Ahead of the first untransmitted chunk with strictly lower
        // priority (FIFO among equal priorities).
        debug_assert!(self
            .queued
            .iter()
            .is_sorted_by(|a, b| a.priority >= b.priority));
        let insert_at = self.queued.partition_point(|c| c.priority >= priority);
        if insert_at < self.queued.len() {
            self.priority_insertions += 1;
            self.queued.insert(
                insert_at,
                Chunk {
                    data: Bytes::copy_from_slice(data),
                    priority,
                },
            );
            self.end_offset += data.len() as u64;
            return Ok(data.len());
        }

        // Appending at the tail: optionally coalesce with the tail chunk if
        // both writes fit entirely within one MSS-sized skbuff, the tail is
        // untransmitted, and the priorities match.
        if coalesce {
            if let Some(last) = self.queued.back_mut() {
                if last.priority == priority && last.data.len() + data.len() <= mss {
                    last.data = Bytes::build(last.data.len() + data.len(), |both| {
                        let (head, tail) = both.split_at_mut(last.data.len());
                        head.copy_from_slice(&last.data);
                        tail.copy_from_slice(data);
                    });
                    self.end_offset += data.len() as u64;
                    self.coalesced_writes += 1;
                    return Ok(data.len());
                }
            }
        }

        self.push_queued(data, priority);
        Ok(data.len())
    }

    fn push_queued(&mut self, data: &[u8], priority: u32) {
        self.queued.push_back(Chunk {
            data: Bytes::copy_from_slice(data),
            priority,
        });
        self.end_offset += data.len() as u64;
    }

    /// The buffered chunks from the one containing `offset` onward, each with
    /// the stream offset of its first byte. A binary search when `offset`
    /// has been transmitted; the untransmitted queue carries no offsets and
    /// is walked from the boundary, where every sender's read starts.
    fn chunks_from(&self, offset: u64) -> impl Iterator<Item = (u64, &Bytes)> {
        let first_sent = self
            .sent
            .partition_point(|(start, data)| start + data.len() as u64 <= offset);
        let mut start = self.queued_start;
        let sent = self.sent.range(first_sent..).map(|(s, data)| (*s, data));
        let queued = self.queued.iter().map(move |c| {
            let at = start;
            start += c.data.len() as u64;
            (at, &c.data)
        });
        sent.chain(queued)
            .skip_while(move |(s, data)| s + data.len() as u64 <= offset)
    }

    /// Read up to `max_len` bytes starting at stream offset `offset` for
    /// (re)transmission. When `respect_boundaries` is set the returned slice
    /// never crosses a chunk boundary (uTCP's write-boundary preservation).
    ///
    /// A range inside one chunk comes back as a view of the buffered bytes;
    /// only a read spanning chunks gathers them into a fresh buffer.
    ///
    /// Returns `None` if `offset` is outside the buffered range.
    pub fn data_at(&self, offset: u64, max_len: usize, respect_boundaries: bool) -> Option<Bytes> {
        if offset < self.head_offset || offset >= self.end_offset || max_len == 0 {
            return None;
        }
        let mut chunks = self.chunks_from(offset);
        let (start, first) = chunks.next()?;
        let skip = (offset - start) as usize;
        let take = (first.len() - skip).min(max_len);
        let view = first.slice(skip..skip + take);
        if take == max_len || respect_boundaries {
            return Some(view);
        }
        let Some((_, second)) = chunks.next() else {
            return Some(view);
        };
        let want = max_len.min((self.end_offset - offset) as usize);
        let mut out = Vec::with_capacity(want);
        out.extend_from_slice(&view);
        for data in std::iter::once(second).chain(chunks.map(|(_, data)| data)) {
            let take = data.len().min(want - out.len());
            out.extend_from_slice(&data[..take]);
            if out.len() == want {
                break;
            }
        }
        Some(Bytes::from(out))
    }

    /// Record that data up to `offset` (exclusive) has been transmitted at
    /// least once.
    pub fn mark_transmitted(&mut self, offset: u64) {
        if offset > self.transmitted {
            self.transmitted = offset.min(self.end_offset);
            // Every write the mark now reaches into is pinned in place.
            while self.queued_start < self.transmitted {
                let chunk = self.queued.pop_front().expect("queue covers end_offset");
                let start = self.queued_start;
                self.queued_start += chunk.data.len() as u64;
                self.sent.push_back((start, chunk.data));
            }
        }
    }

    /// Remove data acknowledged up to `offset` (exclusive). O(1) per chunk
    /// released: an acknowledgment inside a chunk only moves the head offset.
    pub fn acknowledge(&mut self, offset: u64) {
        let offset = offset.min(self.end_offset);
        if offset <= self.head_offset {
            return;
        }
        // Acknowledged data has necessarily been transmitted.
        self.mark_transmitted(offset);
        self.head_offset = offset;
        while let Some((start, data)) = self.sent.front() {
            if start + data.len() as u64 > offset {
                break;
            }
            self.sent.pop_front();
        }
    }

    /// The stream offsets (relative to the head) of chunk boundaries from the
    /// given offset onward, used by the connection to segment along write
    /// boundaries. Returns the end offset of the chunk containing `offset`.
    pub fn chunk_end_at(&self, offset: u64) -> Option<u64> {
        if offset < self.head_offset || offset >= self.end_offset {
            return None;
        }
        self.chunks_from(offset)
            .next()
            .map(|(start, data)| start + data.len() as u64)
    }

    /// Bytes available at or after `offset`.
    pub fn available_from(&self, offset: u64) -> usize {
        self.end_offset.saturating_sub(offset.max(self.head_offset)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1448;

    #[test]
    fn standard_writes_are_fifo_bytes() {
        let mut b = SendBuffer::new(1 << 16);
        b.write(b"hello ").unwrap();
        b.write(b"world").unwrap();
        assert_eq!(b.len(), 11);
        assert_eq!(b.data_at(0, 100, false).unwrap(), b"hello world");
        assert_eq!(b.data_at(6, 100, false).unwrap(), b"world");
    }

    #[test]
    fn buffer_full_is_reported() {
        let mut b = SendBuffer::new(8);
        assert_eq!(b.write(b"12345678"), Ok(8));
        assert_eq!(b.write(b"x"), Err(BufferFull));
        assert_eq!(b.free_space(), 0);
    }

    #[test]
    fn acknowledge_frees_space_and_advances_head() {
        let mut b = SendBuffer::new(1 << 16);
        b.write(&[1u8; 100]).unwrap();
        b.write(&[2u8; 100]).unwrap();
        b.mark_transmitted(150);
        b.acknowledge(150);
        assert_eq!(b.head_offset(), 150);
        assert_eq!(b.len(), 50);
        assert_eq!(b.data_at(150, 100, false).unwrap(), vec![2u8; 50]);
        // Acknowledging beyond the end clamps.
        b.acknowledge(1_000_000);
        assert!(b.is_empty());
        assert_eq!(b.head_offset(), 200);
    }

    #[test]
    fn priority_write_passes_untransmitted_low_priority_data() {
        let mut b = SendBuffer::new(1 << 16);
        // Low-priority bulk write, none of it transmitted yet.
        b.write_with_priority(&[0u8; 1000], 0, false, true, MSS, false)
            .unwrap();
        // High-priority write should jump ahead of it.
        b.write_with_priority(&[9u8; 10], 5, false, true, MSS, false)
            .unwrap();
        assert_eq!(b.priority_insertions(), 1);
        assert_eq!(b.data_at(0, 10, true).unwrap(), vec![9u8; 10]);
        assert_eq!(b.data_at(10, 4, true).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn priority_write_never_passes_transmitted_data() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(&[0u8; 1000], 0, false, true, MSS, false)
            .unwrap();
        // Part of the low-priority write has hit the wire.
        b.mark_transmitted(100);
        b.write_with_priority(&[9u8; 10], 5, false, true, MSS, false)
            .unwrap();
        // The high-priority data must come after the *entire* partially
        // transmitted write, not in the middle of it (§4.2).
        assert_eq!(b.data_at(0, 1000, true).unwrap(), vec![0u8; 1000]);
        assert_eq!(b.data_at(1000, 10, true).unwrap(), vec![9u8; 10]);
        assert_eq!(b.priority_insertions(), 0);
    }

    #[test]
    fn equal_priority_writes_stay_fifo() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(b"first", 3, false, true, MSS, false)
            .unwrap();
        b.write_with_priority(b"second", 3, false, true, MSS, false)
            .unwrap();
        assert_eq!(b.data_at(0, 5, true).unwrap(), b"first");
        assert_eq!(b.data_at(5, 6, true).unwrap(), b"second");
    }

    #[test]
    fn squash_discards_untransmitted_same_tag_data() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(b"stale update 1", 7, false, true, MSS, false)
            .unwrap();
        b.write_with_priority(b"other tag", 3, false, true, MSS, false)
            .unwrap();
        b.write_with_priority(b"fresh!", 7, true, true, MSS, false)
            .unwrap();
        assert_eq!(b.squashed_chunks(), 1);
        // Tag-7 data now consists only of the fresh write, ordered ahead of
        // the lower-priority tag-3 write.
        assert_eq!(b.data_at(0, 6, true).unwrap(), b"fresh!");
        assert_eq!(b.data_at(6, 9, true).unwrap(), b"other tag");
        assert_eq!(b.len(), 15);
    }

    #[test]
    fn squash_does_not_discard_transmitted_data() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(b"already sent", 7, false, true, MSS, false)
            .unwrap();
        b.mark_transmitted(5);
        b.write_with_priority(b"new", 7, true, true, MSS, false)
            .unwrap();
        assert_eq!(b.squashed_chunks(), 0);
        assert_eq!(b.len(), 15);
    }

    #[test]
    fn boundary_respecting_reads_stop_at_chunk_end() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(&[1u8; 500], 0, false, true, MSS, false)
            .unwrap();
        b.write_with_priority(&[2u8; 500], 0, false, true, MSS, false)
            .unwrap();
        // With boundaries respected, a read at offset 0 stops at 500 bytes.
        assert_eq!(b.data_at(0, MSS, true).unwrap().len(), 500);
        // Without, it can span both writes.
        assert_eq!(b.data_at(0, MSS, false).unwrap().len(), 1000);
        assert_eq!(b.chunk_end_at(0), Some(500));
        assert_eq!(b.chunk_end_at(500), Some(1000));
        assert_eq!(b.chunk_end_at(1000), None);
    }

    #[test]
    fn coalescing_merges_small_writes_into_tail_skbuff() {
        let mut b = SendBuffer::new(1 << 16);
        // Four 362-byte writes fit exactly in one 1448-byte MSS.
        for _ in 0..4 {
            b.write_with_priority(&[3u8; 362], 0, false, true, MSS, true)
                .unwrap();
        }
        assert_eq!(b.coalesced_writes(), 3);
        assert_eq!(b.data_at(0, MSS, true).unwrap().len(), MSS);
        // A fifth write no longer fits in the tail skbuff and starts a new one.
        b.write_with_priority(&[3u8; 362], 0, false, true, MSS, true)
            .unwrap();
        assert_eq!(b.data_at(MSS as u64, MSS, true).unwrap().len(), 362);
    }

    #[test]
    fn coalescing_does_not_merge_across_priorities_or_transmitted_tail() {
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(&[1u8; 100], 0, false, true, MSS, true)
            .unwrap();
        b.write_with_priority(&[2u8; 100], 5, false, true, MSS, true)
            .unwrap();
        assert_eq!(b.coalesced_writes(), 0);
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(&[1u8; 100], 0, false, true, MSS, true)
            .unwrap();
        b.mark_transmitted(100);
        b.write_with_priority(&[2u8; 100], 0, false, true, MSS, true)
            .unwrap();
        assert_eq!(b.coalesced_writes(), 0, "tail already transmitted");
    }

    #[test]
    fn available_from_and_empty_reads() {
        let mut b = SendBuffer::new(1 << 16);
        assert!(b.data_at(0, 10, false).is_none());
        b.write(&[0u8; 10]).unwrap();
        assert_eq!(b.available_from(0), 10);
        assert_eq!(b.available_from(4), 6);
        assert_eq!(b.available_from(100), 0);
        assert!(b.data_at(10, 10, false).is_none());
        assert!(b.data_at(0, 0, false).is_none());
    }

    #[test]
    fn offsets_are_stable_past_the_32_bit_boundary() {
        // Stream offsets are 64-bit; only the wire mapping wraps at 2^32.
        // Simulate a long-lived connection by acknowledging in large strides
        // until the head offset crosses 2^32, with a live tail each time.
        let mut b = SendBuffer::new(1 << 16);
        let stride: u64 = 40_000;
        let target = u64::from(u32::MAX) + 2 * stride;
        let mut wrote: u64 = 0;
        while b.head_offset() < target {
            let n = b.write(&[7u8; 40_000]).unwrap();
            wrote += n as u64;
            b.mark_transmitted(wrote);
            b.acknowledge(wrote);
        }
        assert!(b.head_offset() > u64::from(u32::MAX));
        assert!(b.is_empty());
        // Data written past the boundary reads back at its 64-bit offset.
        let head = b.head_offset();
        b.write(b"post-wrap").unwrap();
        assert_eq!(b.data_at(head, 100, false).unwrap(), b"post-wrap");
        assert_eq!(b.end_offset(), head + 9);
        assert_eq!(b.available_from(head + 4), 5);
        assert_eq!(b.chunk_end_at(head + 1), Some(head + 9));
        // Reads below the (post-2^32) head are cleanly rejected.
        assert!(b.data_at(head - 1, 10, false).is_none());
        assert!(b.data_at(u64::from(u32::MAX), 10, false).is_none());
    }

    #[test]
    fn transmit_and_ack_marks_clamp_at_the_buffered_range() {
        let mut b = SendBuffer::new(1 << 10);
        b.write(&[1u8; 100]).unwrap();
        // Marking far beyond the end clamps to the end.
        b.mark_transmitted(u64::from(u32::MAX));
        assert_eq!(b.transmitted_offset(), 100);
        // Acknowledging backwards is a no-op.
        b.acknowledge(40);
        b.acknowledge(10);
        assert_eq!(b.head_offset(), 40);
        assert_eq!(b.len(), 60);
        // Boundary read at exactly the end offset is rejected, one before is
        // the final byte.
        assert!(b.data_at(100, 1, false).is_none());
        assert_eq!(b.data_at(99, 1, false).unwrap().len(), 1);
    }

    #[test]
    fn reads_inside_one_chunk_are_views_of_the_buffered_bytes() {
        let mut b = SendBuffer::new(1 << 20);
        b.write(&[7u8; 10_000]).unwrap();
        let first = b.data_at(0, MSS, false).unwrap();
        let second = b.data_at(MSS as u64, MSS, false).unwrap();
        // Adjacent segments of one write sit back to back in one allocation.
        assert_eq!(first.as_ptr().wrapping_add(MSS), second.as_ptr());
        // A retransmission reads the same bytes, not a copy of them.
        b.mark_transmitted(2 * MSS as u64);
        assert_eq!(b.data_at(0, MSS, false).unwrap().as_ptr(), first.as_ptr());
        // An acknowledgment inside the chunk moves only the head.
        b.acknowledge(MSS as u64);
        assert_eq!(b.head_offset(), MSS as u64);
        assert!(b.data_at(0, MSS, false).is_none());
        assert_eq!(
            b.data_at(MSS as u64, MSS, false).unwrap().as_ptr(),
            second.as_ptr()
        );
    }

    #[test]
    fn large_stream_write_is_stored_in_pieces_and_gathered_across_them() {
        let piece = SendBuffer::STREAM_PIECE;
        let data: Vec<u8> = (0..2 * piece + 100).map(|i| (i % 251) as u8).collect();
        let mut b = SendBuffer::new(1 << 20);
        b.write(&data).unwrap();
        assert_eq!(b.chunk_end_at(0), Some(piece as u64));
        assert_eq!(b.chunk_end_at(2 * piece as u64), Some(data.len() as u64));
        // A segment straddling two pieces reads through, byte for byte.
        let at = piece - 500;
        assert_eq!(
            b.data_at(at as u64, MSS, false).unwrap(),
            data[at..at + MSS]
        );
        // Acknowledging a whole piece releases it; the rest reads on.
        b.acknowledge(piece as u64 + 10);
        assert_eq!(b.len(), data.len() - piece - 10);
        assert_eq!(
            b.data_at(piece as u64 + 10, usize::MAX, false).unwrap(),
            data[piece + 10..]
        );
    }

    #[test]
    fn priority_write_never_splits_a_partly_acknowledged_write() {
        // A three-segment write whose first segment has been sent *and*
        // acknowledged: everything transmitted is acknowledged, yet the
        // write is still on the wire in part. A priority write must queue
        // behind the rest of it, not between its bytes.
        let mut b = SendBuffer::new(1 << 16);
        b.write_with_priority(&[1u8; 3000], 0, false, true, MSS, false)
            .unwrap();
        b.mark_transmitted(MSS as u64);
        b.acknowledge(MSS as u64);
        assert_eq!(b.transmitted_offset(), b.head_offset());
        b.write_with_priority(&[9u8; 10], 5, true, true, MSS, false)
            .unwrap();
        assert_eq!(b.priority_insertions(), 0);
        assert_eq!(
            b.data_at(MSS as u64, 3000, true).unwrap(),
            vec![1u8; 3000 - MSS]
        );
        assert_eq!(b.data_at(3000, 10, true).unwrap(), vec![9u8; 10]);
        // Nor does a squash with the same tag discard the rest of it.
        b.write_with_priority(&[2u8; 10], 0, true, true, MSS, false)
            .unwrap();
        assert_eq!(b.squashed_chunks(), 0);
        assert_eq!(b.len(), 3000 - MSS + 20);
    }

    /// The buffer as a flat list of writes from stream offset 0, placed by
    /// a linear walk: ahead of the first untransmitted write with strictly
    /// lower priority.
    struct LinearModel {
        chunks: Vec<(Vec<u8>, u32)>,
        head: u64,
        transmitted: u64,
        capacity: usize,
    }

    impl LinearModel {
        fn end(&self) -> u64 {
            self.chunks.iter().map(|(d, _)| d.len() as u64).sum()
        }

        /// Index of the first write no byte of which has been transmitted.
        fn first_queued(&self) -> usize {
            let mut start = 0;
            self.chunks
                .iter()
                .position(|(d, _)| {
                    let at = start;
                    start += d.len() as u64;
                    at >= self.transmitted
                })
                .unwrap_or(self.chunks.len())
        }

        fn write(
            &mut self,
            data: &[u8],
            priority: u32,
            squash: bool,
            unordered: bool,
            mss: usize,
            coalesce: bool,
        ) -> Result<usize, BufferFull> {
            if data.len() > self.capacity - (self.end() - self.head) as usize {
                return Err(BufferFull);
            }
            if data.is_empty() {
                return Ok(0);
            }
            let q = self.first_queued();
            if !unordered {
                for piece in data.chunks(SendBuffer::STREAM_PIECE) {
                    self.chunks.push((piece.to_vec(), 0));
                }
                return Ok(data.len());
            }
            if squash {
                let queued = self.chunks.split_off(q);
                self.chunks
                    .extend(queued.into_iter().filter(|c| c.1 != priority));
            }
            if let Some(at) = self.chunks[q..].iter().position(|c| c.1 < priority) {
                self.chunks.insert(q + at, (data.to_vec(), priority));
                return Ok(data.len());
            }
            match self.chunks[q..].last_mut() {
                Some((last, p)) if coalesce && *p == priority && last.len() + data.len() <= mss => {
                    last.extend_from_slice(data)
                }
                _ => self.chunks.push((data.to_vec(), priority)),
            }
            Ok(data.len())
        }
    }

    #[test]
    fn writes_land_where_a_linear_walk_puts_them() {
        const MSS: usize = 536;
        for seed in 0..200 {
            let mut rng = minion_simnet::SimRng::new(seed);
            let mut b = SendBuffer::new(16 * 1024);
            let mut model = LinearModel {
                chunks: Vec::new(),
                head: 0,
                transmitted: 0,
                capacity: 16 * 1024,
            };
            for step in 0..200 {
                match rng.gen_range_usize(0, 8) {
                    0..=4 => {
                        let mut data = vec![0u8; rng.gen_range_usize(1, 2 * MSS)];
                        rng.fill_bytes(&mut data);
                        let priority = rng.gen_range_usize(0, 8) as u32;
                        let flags = rng.gen_range_usize(0, 8);
                        let (squash, coalesce, ordered) =
                            (flags & 1 != 0, flags & 2 != 0, flags == 7);
                        assert_eq!(
                            b.write_with_priority(&data, priority, squash, !ordered, MSS, coalesce),
                            model.write(&data, priority, squash, !ordered, MSS, coalesce),
                            "seed {seed}, step {step}"
                        );
                    }
                    5 | 6 => {
                        let to = model.transmitted + rng.gen_range_usize(1, MSS + 1) as u64;
                        b.mark_transmitted(to);
                        model.transmitted = to.min(model.end()).max(model.transmitted);
                    }
                    _ => {
                        let flight = model.transmitted - model.head;
                        let to = model.head + rng.gen_range_usize(0, flight as usize + 1) as u64;
                        b.acknowledge(to);
                        model.head = to;
                    }
                }
                // Read the stream back write by write, as the connection
                // segments it.
                assert_eq!((b.head_offset(), b.end_offset()), (model.head, model.end()));
                let mut start = 0;
                for (data, _) in &model.chunks {
                    let end = start + data.len() as u64;
                    if end > model.head {
                        let from = start.max(model.head);
                        assert_eq!(b.chunk_end_at(from), Some(end), "seed {seed}, step {step}");
                        assert_eq!(
                            b.data_at(from, usize::MAX, true).as_deref(),
                            Some(&data[(from - start) as usize..]),
                            "seed {seed}, step {step}"
                        );
                    }
                    start = end;
                }
            }
        }
    }

    #[test]
    fn empty_write_is_noop() {
        let mut b = SendBuffer::new(16);
        assert_eq!(b.write(&[]), Ok(0));
        assert!(b.is_empty());
    }
}
