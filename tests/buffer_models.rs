//! Model-based tests of the TCP buffers behind the single-copy data path and
//! of the record layer's reassembly store above them.
//!
//! [`SendBuffer`] is checked against a model that keeps the queue as a plain
//! list of byte vectors and answers every question by walking it;
//! [`ReceiveBuffer`] against the reassembly algorithm it replaced (copy in,
//! merge runs, copy out), kept here as the reference; [`FragmentStore`]
//! against a map of single bytes. All are driven with random operation
//! sequences; failures are pinned in `proptest-regressions/buffer_models.txt`.

use minion_repro::core::FragmentStore;
use minion_repro::tcp::{
    BufferFull, DeliveredChunk, ReceiveBuffer, RecvStats, SackBlock, SendBuffer, SeqNum,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------
// SendBuffer against a list-of-vectors model
// ---------------------------------------------------------------------

const STREAM_PIECE: usize = SendBuffer::STREAM_PIECE;

/// The send queue as the module documentation describes it, with nothing
/// clever: chunks in stream order, every lookup a walk from the front.
struct SendModel {
    /// `(data, priority)` in stream order; the first starts at `base`.
    chunks: Vec<(Vec<u8>, u32)>,
    base: u64,
    head: u64,
    transmitted: u64,
    capacity: usize,
    coalesced: u64,
    insertions: u64,
    squashed: u64,
}

impl SendModel {
    fn new(capacity: usize) -> Self {
        SendModel {
            chunks: Vec::new(),
            base: 0,
            head: 0,
            transmitted: 0,
            capacity,
            coalesced: 0,
            insertions: 0,
            squashed: 0,
        }
    }

    fn end(&self) -> u64 {
        self.base + self.chunks.iter().map(|(d, _)| d.len() as u64).sum::<u64>()
    }

    fn len(&self) -> usize {
        (self.end() - self.head) as usize
    }

    fn start_of(&self, index: usize) -> u64 {
        self.base
            + self.chunks[..index]
                .iter()
                .map(|(d, _)| d.len() as u64)
                .sum::<u64>()
    }

    /// First chunk no byte of which has been transmitted: the earliest
    /// place new data may go (§4.2's transmit-boundary constraint).
    fn first_untouched(&self) -> usize {
        (0..self.chunks.len())
            .find(|&i| self.start_of(i) >= self.transmitted)
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
        if data.len() > self.capacity - self.len() {
            return Err(BufferFull);
        }
        if data.is_empty() {
            return Ok(0);
        }
        if !unordered {
            for piece in data.chunks(STREAM_PIECE) {
                self.chunks.push((piece.to_vec(), 0));
            }
            return Ok(data.len());
        }
        let first = self.first_untouched();
        if squash {
            let mut i = self.chunks.len();
            while i > first {
                i -= 1;
                if self.chunks[i].1 == priority {
                    self.chunks.remove(i);
                    self.squashed += 1;
                }
            }
        }
        if let Some(at) = (first..self.chunks.len()).find(|&i| self.chunks[i].1 < priority) {
            self.insertions += 1;
            self.chunks.insert(at, (data.to_vec(), priority));
            return Ok(data.len());
        }
        let last = self.chunks.len().wrapping_sub(1);
        if coalesce
            && last != usize::MAX
            && last >= first
            && self.chunks[last].1 == priority
            && self.chunks[last].0.len() + data.len() <= mss
        {
            self.chunks[last].0.extend_from_slice(data);
            self.coalesced += 1;
            return Ok(data.len());
        }
        self.chunks.push((data.to_vec(), priority));
        Ok(data.len())
    }

    fn mark_transmitted(&mut self, offset: u64) {
        if offset > self.transmitted {
            self.transmitted = offset.min(self.end());
        }
    }

    fn acknowledge(&mut self, offset: u64) {
        let offset = offset.min(self.end());
        if offset <= self.head {
            return;
        }
        self.head = offset;
        self.transmitted = self.transmitted.max(offset);
        while let Some((data, _)) = self.chunks.first() {
            if self.base + data.len() as u64 > offset {
                break;
            }
            self.base += data.len() as u64;
            self.chunks.remove(0);
        }
    }

    fn chunk_end_at(&self, offset: u64) -> Option<u64> {
        if offset < self.head || offset >= self.end() {
            return None;
        }
        (0..self.chunks.len())
            .map(|i| self.start_of(i) + self.chunks[i].0.len() as u64)
            .find(|&end| offset < end)
    }

    /// The buffered bytes from `base` on, as one vector.
    fn flat(&self) -> Vec<u8> {
        self.chunks.iter().flat_map(|(d, _)| d.clone()).collect()
    }

    /// `data_at`, reading from `flat` (the caller's [`flat`](Self::flat), so
    /// that a sweep over offsets flattens once).
    fn data_at<'a>(
        &self,
        flat: &'a [u8],
        offset: u64,
        max_len: usize,
        respect_boundaries: bool,
    ) -> Option<&'a [u8]> {
        if offset < self.head || offset >= self.end() || max_len == 0 {
            return None;
        }
        let limit = if respect_boundaries {
            self.chunk_end_at(offset)?
        } else {
            self.end()
        };
        let from = (offset - self.base) as usize;
        let to = (limit - self.base) as usize;
        Some(&flat[from..to.min(from.saturating_add(max_len))])
    }
}

/// Every observable of the buffer equals the model's; the per-offset ones at
/// each of `offsets`.
fn assert_send_buffers_agree(
    buf: &SendBuffer,
    model: &SendModel,
    mss: usize,
    offsets: impl Iterator<Item = u64>,
) {
    assert_eq!(buf.head_offset(), model.head);
    assert_eq!(buf.end_offset(), model.end());
    assert_eq!(buf.len(), model.len());
    assert_eq!(buf.is_empty(), model.len() == 0);
    assert_eq!(buf.free_space(), model.capacity - model.len());
    assert_eq!(buf.transmitted_offset(), model.transmitted);
    assert_eq!(buf.coalesced_writes(), model.coalesced);
    assert_eq!(buf.priority_insertions(), model.insertions);
    assert_eq!(buf.squashed_chunks(), model.squashed);
    let flat = model.flat();
    for offset in offsets {
        assert_eq!(
            buf.chunk_end_at(offset),
            model.chunk_end_at(offset),
            "chunk_end_at({offset})"
        );
        assert_eq!(
            buf.available_from(offset) as u64,
            model.end().saturating_sub(offset.max(model.head)),
            "available_from({offset})"
        );
        for respect in [false, true] {
            for max_len in [0, 1, mss, usize::MAX] {
                assert_eq!(
                    buf.data_at(offset, max_len, respect).as_deref(),
                    model.data_at(&flat, offset, max_len, respect),
                    "data_at({offset}, {max_len}, {respect})"
                );
            }
        }
    }
}

/// One raw operation: `(kind, a, b, flags)`, interpreted against the
/// buffer's current state so that offsets land on, inside and past chunks.
type RawOp = (u8, u16, u16, u8);

/// `every_offset`: sweep the whole buffered range (and a little either
/// side) after each operation; otherwise only around chunk boundaries and
/// the head, transmit and end marks, plus a coarse stride.
fn run_send_ops(ops: &[RawOp], capacity: usize, mss: usize, every_offset: bool) {
    let mut buf = SendBuffer::new(capacity);
    let mut model = SendModel::new(capacity);
    let mut next_byte = 0u8;
    for &(kind, a, b, flags) in ops {
        let span = model.end() - model.head;
        // An offset anywhere from a little below the head to a little past
        // the end: mid-chunk, on boundaries, and out of range.
        let near = |x: u16| (model.head + u64::from(x) % (span + 8)).saturating_sub(3);
        match kind % 6 {
            0 | 1 => {
                // A write; sizes from one byte to several MSS, sometimes
                // more than fits.
                let len = 1 + usize::from(a) % (3 * mss);
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        next_byte = next_byte.wrapping_add(1);
                        next_byte
                    })
                    .collect();
                let unordered = kind % 6 == 1;
                let priority = u32::from(b % 4);
                let (squash, coalesce) = (flags & 1 != 0, flags & 2 != 0);
                assert_eq!(
                    buf.write_with_priority(&data, priority, squash, unordered, mss, coalesce),
                    model.write(&data, priority, squash, unordered, mss, coalesce),
                );
            }
            2 => {
                buf.mark_transmitted(near(a));
                model.mark_transmitted(near(a));
            }
            3 => {
                buf.acknowledge(near(a));
                model.acknowledge(near(a));
            }
            4 => {
                // What a sender does: transmit the next segment's worth.
                let next = model.transmitted + 1 + u64::from(a) % mss as u64;
                buf.mark_transmitted(next);
                model.mark_transmitted(next);
            }
            _ => {
                // What a receiver causes: a cumulative ACK somewhere in
                // the transmitted range, or (rarely) far past the end.
                let flight = model.transmitted - model.head;
                let upto = if flags & 4 != 0 && b % 16 == 0 {
                    u64::MAX
                } else {
                    model.head + u64::from(a) % (flight + 1)
                };
                buf.acknowledge(upto);
                model.acknowledge(upto);
            }
        }
        let (from, to) = (model.head.saturating_sub(2), model.end() + 2);
        if every_offset {
            assert_send_buffers_agree(&buf, &model, mss, from..=to);
        } else {
            let marks = (0..=model.chunks.len())
                .map(|i| model.start_of(i))
                .chain([model.head, model.transmitted])
                .flat_map(|mark| mark.saturating_sub(2)..=mark + 2);
            let stride = (from..=to).step_by(997);
            assert_send_buffers_agree(&buf, &model, mss, marks.chain(stride));
        }
    }
}

// ---------------------------------------------------------------------
// ReceiveBuffer against the algorithm it replaced
// ---------------------------------------------------------------------

/// The receive buffer as it was before arriving payloads became views:
/// every segment copied into a store of merged, non-adjacent runs, every
/// delivery copied out of it.
struct ReferenceReceiveBuffer {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Vec<u8>>,
    ready: VecDeque<DeliveredChunk>,
    in_order_ready_bytes: usize,
    capacity: usize,
    unordered: bool,
    stats: RecvStats,
}

impl ReferenceReceiveBuffer {
    fn new(capacity: usize, unordered: bool) -> Self {
        ReferenceReceiveBuffer {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ready: VecDeque::new(),
            in_order_ready_bytes: 0,
            capacity,
            unordered,
            stats: RecvStats::default(),
        }
    }

    fn ooo_bytes(&self) -> usize {
        self.ooo.values().map(|v| v.len()).sum()
    }

    fn window(&self) -> usize {
        self.capacity
            .saturating_sub(self.in_order_ready_bytes)
            .saturating_sub(self.ooo_bytes())
    }

    fn on_data(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
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
        if self.unordered {
            let (chunk_off, chunk_data) = if offset < self.rcv_nxt {
                let skip = (self.rcv_nxt - offset) as usize;
                (self.rcv_nxt, &data[skip..])
            } else {
                (offset, data)
            };
            if !chunk_data.is_empty() {
                if !in_order {
                    self.stats.early_deliveries += 1;
                }
                self.push_ready(DeliveredChunk::new(
                    chunk_off,
                    in_order,
                    chunk_data.to_vec(),
                ));
            }
        }
        self.insert_ooo(offset, data);
        self.advance_cumulative();
        self.stats.bytes_received += data.len() as u64;
    }

    fn push_ready(&mut self, chunk: DeliveredChunk) {
        if chunk.in_order {
            self.in_order_ready_bytes += chunk.len();
        }
        self.ready.push_back(chunk);
    }

    fn insert_ooo(&mut self, offset: u64, data: &[u8]) {
        let mut start = offset;
        let mut buf = data.to_vec();
        if let Some((&pstart, pdata)) = self.ooo.range(..=start).next_back() {
            let pend = pstart + pdata.len() as u64;
            if pend >= start {
                let keep = (start - pstart) as usize;
                let mut merged = pdata[..keep].to_vec();
                merged.extend_from_slice(&buf);
                let new_end = start + buf.len() as u64;
                if pend > new_end {
                    merged.extend_from_slice(&pdata[(new_end - pstart) as usize..]);
                }
                start = pstart;
                buf = merged;
                self.ooo.remove(&pstart);
            }
        }
        let mut end = start + buf.len() as u64;
        while let Some((&sstart, sdata)) = self.ooo.range(start..).next() {
            if sstart > end {
                break;
            }
            let send = sstart + sdata.len() as u64;
            if send > end {
                let skip = (end - sstart) as usize;
                buf.extend_from_slice(&sdata[skip..]);
                end = send;
            }
            self.ooo.remove(&sstart);
        }
        self.ooo.insert(start, buf);
    }

    fn advance_cumulative(&mut self) {
        while let Some((&start, run)) = self.ooo.range(..=self.rcv_nxt).next_back() {
            let end = start + run.len() as u64;
            if end <= self.rcv_nxt {
                self.ooo.remove(&start);
                continue;
            }
            if start > self.rcv_nxt {
                break;
            }
            let newly = &run[(self.rcv_nxt - start) as usize..];
            if !self.unordered {
                let chunk = DeliveredChunk::new(self.rcv_nxt, true, newly.to_vec());
                self.push_ready(chunk);
            }
            self.rcv_nxt = end;
            self.ooo.remove(&start);
        }
    }

    fn drain(&mut self) -> Vec<DeliveredChunk> {
        self.in_order_ready_bytes = 0;
        self.ready.drain(..).collect()
    }

    fn sack_blocks(&self, isn: SeqNum, max_blocks: usize) -> Vec<SackBlock> {
        let base = isn + 1;
        let mut blocks: Vec<SackBlock> = self
            .ooo
            .iter()
            .filter(|(&start, _)| start > self.rcv_nxt)
            .map(|(&start, run)| SackBlock {
                start: base + start as u32,
                end: base + (start + run.len() as u64) as u32,
            })
            .collect();
        blocks.reverse();
        blocks.truncate(max_blocks);
        blocks
    }
}

fn drain(buf: &mut ReceiveBuffer) -> Vec<DeliveredChunk> {
    std::iter::from_fn(|| buf.read()).collect()
}

/// Delivered chunks as the application experiences them: each byte with its
/// stream offset and its chunk's in-order flag, in delivery order. Where
/// chunk boundaries fall within an in-order run is not part of that.
fn delivered_bytes(chunks: &[DeliveredChunk]) -> Vec<(u64, u8, bool)> {
    chunks
        .iter()
        .flat_map(|c| {
            c.data
                .iter()
                .enumerate()
                .map(|(i, &byte)| (c.offset + i as u64, byte, c.in_order))
        })
        .collect()
}

/// One arrival: `(offset, length, whether the application reads right after)`.
type RawArrival = (u16, u16, bool);

fn run_receive_arrivals(arrivals: &[RawArrival], stream_len: usize, unordered: bool) {
    // Bytes are a function of their offset, as a sender's retransmissions
    // guarantee: overlapping arrivals agree wherever they overlap.
    let stream: Vec<u8> = (0..stream_len + 300).map(|i| (i * 7 % 253) as u8).collect();
    let capacity = 1 << 16;
    let isn = SeqNum(u32::MAX - 100);
    let mut buf = ReceiveBuffer::new(capacity, unordered);
    let mut reference = ReferenceReceiveBuffer::new(capacity, unordered);
    for &(offset, len, read_now) in arrivals {
        // Mostly segment-sized arrivals at arbitrary offsets — overlaps,
        // exact duplicates and retransmitted prefixes all occur — and now
        // and then the segment the cumulative point is waiting for.
        let len = usize::from(len) % 300;
        let offset = if len % 5 == 0 {
            (reference.rcv_nxt as usize).min(stream_len)
        } else {
            usize::from(offset) % stream_len
        };
        let data = &stream[offset..offset + len];
        buf.on_data(offset as u64, data);
        reference.on_data(offset as u64, data);

        assert_eq!(buf.rcv_nxt(), reference.rcv_nxt);
        assert_eq!(buf.stats(), &reference.stats);
        assert_eq!(buf.ooo_bytes(), reference.ooo_bytes());
        assert_eq!(buf.window(), reference.window());
        for max_blocks in [0, 1, 3, 64] {
            assert_eq!(
                buf.sack_blocks(isn, max_blocks),
                reference.sack_blocks(isn, max_blocks),
                "sack_blocks(.., {max_blocks})"
            );
        }
        if read_now {
            let (got, expected) = (drain(&mut buf), reference.drain());
            assert_eq!(delivered_bytes(&got), delivered_bytes(&expected));
            if unordered {
                assert_eq!(got, expected, "uTCP delivers each arrival as it came");
            }
            assert_eq!(buf.window(), reference.window());
        }
    }
    let (got, expected) = (drain(&mut buf), reference.drain());
    assert_eq!(delivered_bytes(&got), delivered_bytes(&expected));
    for (offset, byte, _) in delivered_bytes(&got) {
        assert_eq!(byte, stream[offset as usize]);
    }
}

// ---------------------------------------------------------------------
// FragmentStore against a per-byte model
// ---------------------------------------------------------------------

/// The stream as a map of single bytes above a pruned floor: an insert
/// writes each of its bytes (new bytes win over old ones), a prune forgets
/// what lies below it. Runs are whatever happens to be adjacent.
#[derive(Default)]
struct ByteModel {
    bytes: BTreeMap<u64, u8>,
    floor: u64,
}

impl ByteModel {
    fn insert(&mut self, offset: u64, data: &[u8]) {
        for (pos, &byte) in (offset..).zip(data) {
            if pos >= self.floor {
                self.bytes.insert(pos, byte);
            }
        }
    }

    fn prune_below(&mut self, offset: u64) {
        self.floor = self.floor.max(offset);
        self.bytes = self.bytes.split_off(&self.floor);
    }

    /// The maximal runs of adjacent bytes, in offset order.
    fn runs(&self) -> Vec<(u64, Vec<u8>)> {
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        for (&pos, &byte) in &self.bytes {
            match runs.last_mut() {
                Some((start, data)) if *start + data.len() as u64 == pos => data.push(byte),
                _ => runs.push((pos, vec![byte])),
            }
        }
        runs
    }
}

/// One operation: `(selector, offset, length, fill byte)`.
type StoreOp = (u8, u16, u16, u8);

fn run_store_ops(ops: &[StoreOp]) {
    // A short stream and chunks up to a fifth of it: inserts overlap, land
    // wholly inside a run, bridge several runs and fill holes all the time.
    const STREAM: u64 = 600;
    let mut store = FragmentStore::new();
    let mut model = ByteModel::default();
    let mut last_insert: Option<(u64, Vec<u8>)> = None;
    for &(selector, offset, len, fill) in ops {
        let offset = u64::from(offset) % STREAM;
        if selector % 8 == 0 {
            store.prune_below(offset);
            model.prune_below(offset);
        } else {
            // Now and then the previous chunk again, byte for byte; otherwise
            // a chunk whose bytes tell it apart from what it overlaps.
            let (offset, data) = match last_insert.take() {
                Some(previous) if selector % 8 == 1 => previous,
                _ => (offset, vec![fill; usize::from(len) % 120]),
            };
            let stored = store.insert(offset, &data);
            model.insert(offset, &data);
            // What the caller is handed to scan: the run that holds the
            // chunk, as far as the chunk lies above the pruned floor.
            let kept_from = offset.max(model.floor).min(offset + data.len() as u64);
            let kept = &data[(kept_from - offset) as usize..];
            match stored {
                None => assert!(
                    kept.is_empty(),
                    "insert({offset}, {} B) stored nothing",
                    data.len()
                ),
                Some((start, run)) => {
                    assert!(!kept.is_empty());
                    assert!(start <= kept_from);
                    let at = (kept_from - start) as usize;
                    assert_eq!(&run[at..at + kept.len()], kept);
                }
            }
            last_insert = Some((offset, data));
        }

        let runs = model.runs();
        let held: Vec<(u64, Vec<u8>)> = store
            .runs_from(0)
            .map(|(start, data)| (start, data.to_vec()))
            .collect();
        assert_eq!(held, runs);
        assert_eq!(store.buffered_bytes(), model.bytes.len());
        assert_eq!(store.fragment_count(), runs.len());
        // Every position is in the run the model puts it in, or in none.
        for pos in 0..STREAM + 120 {
            let expected = runs
                .iter()
                .find(|(start, data)| (*start..*start + data.len() as u64).contains(&pos))
                .map(|(start, data)| (*start, data.as_slice()));
            assert_eq!(store.run_at(pos), expected, "run_at({pos})");
        }
    }
}

/// One insert that reaches back into a run, fills the hole behind it and
/// absorbs two later runs — the first wholly covered, the second in part —
/// checked byte for byte like any generated sequence.
#[test]
fn fragment_store_insert_bridges_a_hole_and_absorbs_two_runs() {
    run_store_ops(&[
        (2, 100, 50, 1),
        (2, 170, 20, 2),
        (2, 230, 50, 3),
        (2, 140, 100, 4),
    ]);
}

proptest! {
    // Fixed case count, seeds derived from file + test name: every CI run
    // generates the identical case sequence. Failures are pinned in
    // proptest-regressions/buffer_models.txt.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small buffer and MSS, so that writes fill it, chunks outnumber
    /// segments, and the every-offset sweep after each operation stays cheap.
    #[test]
    fn send_buffer_matches_the_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 1..48),
    ) {
        run_send_ops(&ops, 1200, 100, true);
    }

    /// A buffer several storage pieces deep: standard-mode writes split at
    /// `STREAM_PIECE`, reads gather across the pieces.
    #[test]
    fn send_buffer_matches_the_model_across_storage_pieces(
        ops in proptest::collection::vec((0u8..6, any::<u16>(), any::<u16>(), any::<u8>()), 1..10),
    ) {
        // Multiplying the write sizes up: 3 × "MSS" = 96 KiB per write.
        run_send_ops(&ops, 3 * STREAM_PIECE + 1000, STREAM_PIECE, false);
    }

    #[test]
    fn ordered_receive_buffer_matches_the_copying_reference(
        arrivals in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 1..80),
    ) {
        run_receive_arrivals(&arrivals, 3000, false);
    }

    #[test]
    fn unordered_receive_buffer_matches_the_copying_reference(
        arrivals in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 1..80),
    ) {
        run_receive_arrivals(&arrivals, 3000, true);
    }

    /// Inserts that overlap, repeat, sit wholly inside a run and fill holes,
    /// mixed with prunes: after every operation the store holds exactly the
    /// model's maximal runs.
    #[test]
    fn fragment_store_matches_the_byte_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 1..64),
    ) {
        run_store_ops(&ops);
    }
}
