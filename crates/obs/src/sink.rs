//! Composable trace sinks: the streaming flight-recorder pipeline.
//!
//! [`TraceRing`] bounds memory by *shedding* — the `{"summary":true,...}`
//! line admits the loss but cannot undo it. This module generalizes event
//! capture behind a [`TraceSink`] trait so the same emission points feed
//! either the ring (bounded, in-memory, merged via `Absorb`) or a
//! [`StreamSink`] that spills every event to a JSONL writer with bounded
//! in-memory batching and **zero-drop** semantics, with composable
//! [`FilteredSink`] predicates (flow × kind) and a [`Tee`] so one run can
//! do both at once.
//!
//! Determinism discipline: sinks themselves may hold OS resources (a spill
//! file), so they never enter the mergeable observability state — only
//! their [`StreamStats`] counters do, and those are pure functions of the
//! event stream. Per-shard spill files are named by **shard index** (not
//! worker thread), and [`merge_stream_files`] k-way-merges them by
//! `(t_ns, shard)` into one ordered JSONL, so the merged artifact is
//! byte-identical at any thread count.
//!
//! Accounting vocabulary, used consistently across the pipeline:
//!
//! | term | meaning |
//! |---|---|
//! | `emitted` | events offered to the sink |
//! | `suppressed` | events a [`FilteredSink`] predicate rejected (intentional) |
//! | `dropped` | events lost to a capacity bound (a ring evicting) |
//! | `kept` | events retained somewhere downstream |
//!
//! Suppression is *not* loss: a filtered dump is complete with respect to
//! its predicate. `dropped > 0` always means the artifact is missing data
//! it was supposed to hold.

use crate::absorb::Absorb;
use crate::trace::{KindSet, TraceEvent, TraceRing};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// In-memory batch bound for [`StreamSink`] (bytes). Events accumulate in
/// a string buffer and hit the writer in batches of roughly this size, so
/// a million-event stream does a few hundred writes, not a million.
const DEFAULT_STREAM_BATCH_BYTES: usize = 64 * 1024;

/// Something that accepts a stream of [`TraceEvent`]s with exact
/// accounting.
///
/// Laws every implementation upholds:
/// * `emitted()` counts every `offer` ever made, exactly;
/// * `kept() + dropped() <= emitted()` (the gap, if any, is intentional
///   suppression by a filter);
/// * all three are pure functions of the offered event sequence — no
///   wall-clock, no allocation-dependent behavior — so same-seed runs
///   report identical numbers at any thread count.
pub trait TraceSink {
    /// Offer one event to the sink.
    fn offer(&mut self, ev: &TraceEvent);

    /// Total events ever offered.
    fn emitted(&self) -> u64;

    /// Events lost to a capacity bound (never includes filter
    /// suppression).
    fn dropped(&self) -> u64;

    /// Events retained somewhere downstream.
    fn kept(&self) -> u64 {
        self.emitted().saturating_sub(self.dropped())
    }

    /// Push any buffered state toward durable storage (no-op for
    /// in-memory sinks).
    fn flush(&mut self) {}
}

/// The ring is the original bounded sink: keeps the last `cap`, counts
/// the shed.
impl TraceSink for TraceRing {
    fn offer(&mut self, ev: &TraceEvent) {
        self.push(*ev);
    }

    fn emitted(&self) -> u64 {
        self.recorded()
    }

    fn dropped(&self) -> u64 {
        TraceRing::dropped(self)
    }
}

/// `None` is the null sink: accepts nothing, counts nothing. Lets a
/// pipeline slot be optional (`Tee<TraceRing, Option<StreamSink>>`)
/// without a second code path.
impl<S: TraceSink> TraceSink for Option<S> {
    fn offer(&mut self, ev: &TraceEvent) {
        if let Some(s) = self {
            s.offer(ev);
        }
    }

    fn emitted(&self) -> u64 {
        self.as_ref().map_or(0, |s| s.emitted())
    }

    fn dropped(&self) -> u64 {
        self.as_ref().map_or(0, |s| s.dropped())
    }

    fn kept(&self) -> u64 {
        self.as_ref().map_or(0, |s| s.kept())
    }

    fn flush(&mut self) {
        if let Some(s) = self {
            s.flush();
        }
    }
}

/// Deterministic accounting of a [`StreamSink`] — the only part of a
/// stream that enters mergeable observability state. Counters are pure
/// functions of the event stream (batch boundaries depend only on event
/// bytes), so sharded merges stay byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events written (every offer — streams never drop).
    pub emitted: u64,
    /// Always zero; present so stream accounting reads like ring
    /// accounting.
    pub dropped: u64,
    /// Batch flushes performed (writer syscall pressure, roughly).
    pub flushes: u64,
}

impl Absorb for StreamStats {
    /// Plain counter addition; `Default` (all-zero) is the identity.
    fn absorb(&mut self, other: &Self) {
        self.emitted += other.emitted;
        self.dropped += other.dropped;
        self.flushes += other.flushes;
    }
}

/// A zero-drop JSONL streaming sink: every offered event is serialized
/// into a bounded in-memory batch and written through when the batch
/// fills.
///
/// **Zero-drop is a hard guarantee**: the accounting laws cannot express
/// "the OS lost some suffix of the stream", so a write error panics
/// (with the sink's label) instead of silently dropping. Callers gate
/// obviously-bad destinations at parse time (`validate_out_path`); a
/// panic here means the disk failed mid-run.
pub struct StreamSink {
    writer: Box<dyn Write + Send>,
    label: String,
    batch: String,
    stats: StreamStats,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("label", &self.label)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl StreamSink {
    /// A sink over an arbitrary writer; `label` names it in panic
    /// messages (a file path, usually).
    pub fn new(writer: Box<dyn Write + Send>, label: impl Into<String>) -> Self {
        StreamSink {
            writer,
            label: label.into(),
            batch: String::new(),
            stats: StreamStats::default(),
        }
    }

    /// Create (truncate) `path` and stream into it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(StreamSink::new(Box::new(file), path.display().to_string()))
    }

    /// Accounting so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Append a raw JSONL line (a shard trailer) without counting it as
    /// an event.
    pub fn write_line(&mut self, line: &str) {
        self.batch.push_str(line);
        self.batch.push('\n');
    }

    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        if let Err(e) = self.writer.write_all(self.batch.as_bytes()) {
            panic!("trace stream {}: write failed: {e}", self.label);
        }
        self.batch.clear();
        self.stats.flushes += 1;
    }

    /// Flush remaining events plus the writer itself and return the
    /// final accounting. Call exactly once, after the last event.
    pub fn finish(mut self) -> StreamStats {
        self.flush_batch();
        if let Err(e) = self.writer.flush() {
            panic!("trace stream {}: flush failed: {e}", self.label);
        }
        self.stats
    }
}

impl TraceSink for StreamSink {
    fn offer(&mut self, ev: &TraceEvent) {
        self.batch.push_str(&ev.to_json());
        self.batch.push('\n');
        self.stats.emitted += 1;
        if self.batch.len() >= DEFAULT_STREAM_BATCH_BYTES {
            self.flush_batch();
        }
    }

    fn emitted(&self) -> u64 {
        self.stats.emitted
    }

    fn dropped(&self) -> u64 {
        0
    }

    fn flush(&mut self) {
        self.flush_batch();
    }
}

/// The flow × kind admission predicate shared by `--trace-flow` and
/// `--trace-kind`: an event passes iff it matches the focused flow (if
/// any) **and** its kind is in the set. `Default` passes everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracePredicate {
    /// Admit only this flow's events (`None` = all flows).
    pub flow: Option<u32>,
    /// Admit only these kinds (`KindSet::all()` = no kind filtering).
    pub kinds: KindSet,
}

impl TracePredicate {
    /// Whether `ev` passes both predicates.
    pub(crate) fn admits(&self, ev: &TraceEvent) -> bool {
        self.flow.is_none_or(|f| f == ev.flow) && self.kinds.contains(ev.kind)
    }

    /// Whether this predicate admits every event (nothing to do).
    pub fn is_pass_all(&self) -> bool {
        self.flow.is_none() && self.kinds.is_all()
    }
}

/// The mergeable record of a [`FilteredSink`]: its predicate and what it
/// admitted and suppressed. The sink itself may wrap OS resources; this is
/// the part that enters mergeable observability state, so filtered dumps
/// stay honest about coverage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// The admission predicate.
    pub predicate: TracePredicate,
    /// Events that passed the predicate (and reached the inner sink).
    pub admitted: u64,
    /// Events the predicate rejected.
    pub suppressed: u64,
}

impl Absorb for FilterStats {
    /// Counters add; the predicates must agree. A pristine record (nothing
    /// counted) adopts `other`'s predicate so `FilterStats::default()` is a
    /// true merge identity; all shards of one scenario inherit the same
    /// predicate, so mismatched non-pristine records are a bug — loudly.
    fn absorb(&mut self, other: &Self) {
        if self.admitted == 0 && self.suppressed == 0 {
            self.predicate = other.predicate;
        } else if other.admitted != 0 || other.suppressed != 0 {
            assert_eq!(
                self.predicate.flow, other.predicate.flow,
                "merging trace filters with different focus"
            );
            assert_eq!(
                self.predicate.kinds, other.predicate.kinds,
                "merging trace filters with different kind slices"
            );
        }
        self.admitted += other.admitted;
        self.suppressed += other.suppressed;
    }
}

/// A sink that applies a [`TracePredicate`] before its inner sink,
/// counting what it admits and suppresses ([`FilterStats`]): focused on
/// one flow and/or a kind slice, a 1k-flow run can trace a single flow (or
/// just the `retransmit,rto` recovery events) at full granularity without
/// drowning a bounded ring.
///
/// Filters **compose**: `FilteredSink(p, FilteredSink(q, s))` admits
/// exactly the events `p ∧ q` admits, in the same order, regardless of
/// nesting order — the predicate conjunction is commutative even though
/// the suppressed-counts attribute differently (the outer filter sees
/// more).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilteredSink<S> {
    stats: FilterStats,
    inner: S,
}

impl<S: TraceSink> FilteredSink<S> {
    /// Wrap `inner` behind `predicate`.
    pub fn new(predicate: TracePredicate, inner: S) -> Self {
        FilteredSink {
            stats: FilterStats {
                predicate,
                ..FilterStats::default()
            },
            inner,
        }
    }

    /// Predicate and accounting so far.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// The wrapped sink, by reference.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Split into the filter's mergeable record and the wrapped sink.
    pub fn into_parts(self) -> (FilterStats, S) {
        (self.stats, self.inner)
    }
}

impl<S: TraceSink> TraceSink for FilteredSink<S> {
    fn offer(&mut self, ev: &TraceEvent) {
        if self.stats.predicate.admits(ev) {
            self.stats.admitted += 1;
            self.inner.offer(ev);
        } else {
            self.stats.suppressed += 1;
        }
    }

    fn emitted(&self) -> u64 {
        self.stats.admitted + self.stats.suppressed
    }

    /// Loss is whatever the inner sink lost; suppression is not loss.
    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }

    fn kept(&self) -> u64 {
        self.inner.kept()
    }
}

/// Fan one event stream out to two sinks (ring and stream, typically).
///
/// `kept` is the **best** branch's retention: an event survives the tee
/// if *any* branch kept it, so `dropped` is exact whenever one branch is
/// lossless (a [`StreamSink`]) or both branches shed the same oldest
/// prefix. Branches must be fresh (un-offered) when the tee is built —
/// pre-seeded branch counts would skew the max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tee<A, B> {
    a: A,
    b: B,
    offered: u64,
}

impl<A: TraceSink, B: TraceSink> Tee<A, B> {
    /// Fan out to `a` and `b` (both must be fresh).
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b, offered: 0 }
    }

    /// First branch, by reference.
    pub fn a(&self) -> &A {
        &self.a
    }

    /// Second branch, by reference.
    pub fn b(&self) -> &B {
        &self.b
    }

    /// Split back into the branches.
    pub fn into_parts(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn offer(&mut self, ev: &TraceEvent) {
        self.offered += 1;
        self.a.offer(ev);
        self.b.offer(ev);
    }

    fn emitted(&self) -> u64 {
        self.offered
    }

    fn kept(&self) -> u64 {
        self.a.kept().max(self.b.kept()).min(self.offered)
    }

    fn dropped(&self) -> u64 {
        self.offered - self.kept()
    }

    fn flush(&mut self) {
        self.a.flush();
        self.b.flush();
    }
}

/// Compose the per-shard trailer line a streaming shard appends after
/// its last event: stream accounting plus the attached filter's, plus
/// the kind slice, so every spill file is self-describing.
pub fn shard_trailer_json(
    shard: u32,
    stats: &StreamStats,
    admitted: u64,
    suppressed: u64,
    kinds: KindSet,
) -> String {
    format!(
        "{{\"summary\":true,\"stream\":true,\"shard\":{shard},\"emitted\":{},\"dropped\":{},\
         \"admitted\":{admitted},\"suppressed\":{suppressed},\"kinds\":\"{}\"}}",
        stats.emitted,
        stats.dropped,
        kinds.labels()
    )
}

/// Totals of a [`merge_stream_files`] pass — sums of the shard trailers
/// plus the merged event count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedStream {
    /// Shard files merged.
    pub shards: u64,
    /// Event lines in the merged output.
    pub events: u64,
    /// Sum of shard `emitted` (equals `events` when every trailer was
    /// present and honest).
    pub emitted: u64,
    /// Sum of shard `dropped` (zero for healthy streams).
    pub dropped: u64,
    /// Sum of shard filter `admitted`.
    pub admitted: u64,
    /// Sum of shard filter `suppressed`.
    pub suppressed: u64,
    /// Kind slice recorded in the shard trailers (first seen).
    pub kinds: String,
}

impl MergedStream {
    /// The merged artifact's trailer line.
    fn to_trailer_json(&self) -> String {
        format!(
            "{{\"summary\":true,\"stream\":true,\"shards\":{},\"events\":{},\"emitted\":{},\
             \"dropped\":{},\"admitted\":{},\"suppressed\":{},\"kinds\":\"{}\"}}",
            self.shards,
            self.events,
            self.emitted,
            self.dropped,
            self.admitted,
            self.suppressed,
            self.kinds
        )
    }
}

/// Extract an unsigned integer field from a flat JSONL line (no nesting
/// in trace artifacts, so plain substring scan is exact).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extract a string field from a flat JSONL line (values never contain
/// escapes in trace artifacts).
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Pull the next event line from one shard, folding any trailer lines
/// into the running totals.
fn pull_event(
    lines: &mut io::Lines<BufReader<File>>,
    path: &Path,
    merged: &mut MergedStream,
) -> io::Result<Option<(u64, String)>> {
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        if line.contains("\"summary\":true") {
            merged.emitted += json_u64(&line, "emitted").unwrap_or(0);
            merged.dropped += json_u64(&line, "dropped").unwrap_or(0);
            merged.admitted += json_u64(&line, "admitted").unwrap_or(0);
            merged.suppressed += json_u64(&line, "suppressed").unwrap_or(0);
            if merged.kinds.is_empty() {
                if let Some(k) = json_str(&line, "kinds") {
                    merged.kinds = k;
                }
            }
            continue;
        }
        let t = json_u64(&line, "t_ns").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: event line without t_ns: {line}", path.display()),
            )
        })?;
        return Ok(Some((t, line)));
    }
    Ok(None)
}

/// K-way-merge per-shard spill files into one ordered JSONL at
/// `out_path`, ordered by `(t_ns, shard index)` with within-shard order
/// preserved (the heap holds at most one outstanding line per shard).
/// Shard trailers are folded into one merged trailer appended at the
/// end. Because shard files are named by shard index and shard
/// decomposition is thread-count-independent, the merged bytes are
/// identical at any thread count.
///
/// Within-shard `t_ns` monotonicity (guaranteed by the sim's monotone
/// virtual clock) is what makes the global order a true time order;
/// the merge itself is deterministic regardless.
pub fn merge_stream_files(shard_paths: &[PathBuf], out_path: &Path) -> io::Result<MergedStream> {
    let mut merged = MergedStream {
        shards: shard_paths.len() as u64,
        ..MergedStream::default()
    };
    let mut readers = Vec::with_capacity(shard_paths.len());
    for p in shard_paths {
        readers.push(BufReader::new(File::open(p)?).lines());
    }
    let mut out = BufWriter::new(File::create(out_path)?);
    // Min-heap on (t_ns, shard); at most one entry per shard, so the
    // String in the key never tie-breaks (t_ns+shard is unique).
    let mut heap: BinaryHeap<Reverse<(u64, usize, String)>> = BinaryHeap::new();
    for (s, lines) in readers.iter_mut().enumerate() {
        if let Some((t, line)) = pull_event(lines, &shard_paths[s], &mut merged)? {
            heap.push(Reverse((t, s, line)));
        }
    }
    while let Some(Reverse((_, s, line))) = heap.pop() {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        merged.events += 1;
        if let Some((t, next)) = pull_event(&mut readers[s], &shard_paths[s], &mut merged)? {
            heap.push(Reverse((t, s, next)));
        }
    }
    out.write_all(merged.to_trailer_json().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use std::sync::{Arc, Mutex};

    fn ev(t: u64, flow: u32, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            flow,
            seq,
            kind,
        }
    }

    /// A writer whose bytes outlive the sink, so tests can read back what
    /// a consumed `StreamSink` wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(10, 0, 0, TraceKind::Syn),
            ev(20, 1, 0, TraceKind::Syn),
            ev(30, 0, 0, TraceKind::FirstByte),
            ev(40, 0, 1, TraceKind::Retransmit),
            ev(50, 1, 2, TraceKind::RtoFired),
            ev(60, 0, 5, TraceKind::RecordDelivered),
            ev(70, 1, 9, TraceKind::Fin),
        ]
    }

    #[test]
    fn ring_and_stream_sinks_see_identical_sequences() {
        // The sink law at the heart of the tentpole: driving the same
        // events through a large-enough ring and a stream yields the same
        // JSONL event lines and the same emitted count.
        let buf = SharedBuf::default();
        let mut ring = TraceRing::new(64);
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        for e in sample_events() {
            TraceSink::offer(&mut ring, &e);
            stream.offer(&e);
        }
        assert_eq!(TraceSink::emitted(&ring), stream.emitted());
        assert_eq!(stream.dropped(), 0);
        let stats = stream.finish();
        assert_eq!(stats.emitted, 7);
        assert_eq!(stats.dropped, 0);
        assert_eq!(buf.contents(), ring.to_jsonl());
    }

    #[test]
    fn stream_batches_by_bytes_and_counts_flushes() {
        let buf = SharedBuf::default();
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        let mut offered = 0;
        for e in sample_events().iter().cycle() {
            stream.offer(e);
            offered += 1;
            if stream.stats().flushes == 1 {
                break;
            }
            assert!(
                buf.contents().is_empty(),
                "below the bound nothing is written"
            );
        }
        // The first flush writes a batch's worth of whole lines at once.
        assert!(buf.contents().len() >= DEFAULT_STREAM_BATCH_BYTES);
        assert_eq!(buf.contents().lines().count(), offered);
        let stats = stream.finish();
        assert_eq!(stats.flushes, 1, "empty tail batch adds no flush");
    }

    #[test]
    fn filtered_sink_composition_is_predicate_conjunction() {
        // flow-then-kind, kind-then-flow, and the combined predicate all
        // admit the same event sequence.
        let flow_p = TracePredicate {
            flow: Some(0),
            kinds: KindSet::all(),
        };
        let kind_p = TracePredicate {
            flow: None,
            kinds: KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]),
        };
        let both = TracePredicate {
            flow: Some(0),
            kinds: KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]),
        };
        let mut fk = FilteredSink::new(flow_p, FilteredSink::new(kind_p, TraceRing::new(64)));
        let mut kf = FilteredSink::new(kind_p, FilteredSink::new(flow_p, TraceRing::new(64)));
        let mut combined = FilteredSink::new(both, TraceRing::new(64));
        for e in sample_events() {
            fk.offer(&e);
            kf.offer(&e);
            combined.offer(&e);
        }
        let seq = |r: &TraceRing| r.to_jsonl();
        assert_eq!(seq(fk.inner().inner()), seq(combined.inner()));
        assert_eq!(seq(kf.inner().inner()), seq(combined.inner()));
        // Only flow-0 retransmit survives the conjunction.
        assert_eq!(combined.stats().admitted, 1);
        assert_eq!(combined.stats().suppressed, 6);
        // Nested filters attribute suppression at different layers but
        // agree on the total.
        assert_eq!(
            fk.stats().suppressed + fk.inner().stats().suppressed,
            combined.stats().suppressed
        );
        assert_eq!(
            kf.stats().suppressed + kf.inner().stats().suppressed,
            combined.stats().suppressed
        );
        // Suppression is not loss.
        assert_eq!(combined.dropped(), 0);
        assert_eq!(combined.kept(), 1);
    }

    #[test]
    fn pass_all_predicate_admits_everything() {
        let p = TracePredicate::default();
        assert!(p.is_pass_all());
        let mut f = FilteredSink::new(p, TraceRing::new(64));
        for e in sample_events() {
            f.offer(&e);
        }
        assert_eq!(f.stats().admitted, 7);
        assert_eq!(f.stats().suppressed, 0);
        assert!(!TracePredicate {
            flow: Some(3),
            kinds: KindSet::all()
        }
        .is_pass_all());
    }

    /// The record a filter with this predicate leaves after admitting
    /// `admitted` events and suppressing `suppressed`.
    fn filter_stats(
        flow: Option<u32>,
        kinds: KindSet,
        admitted: u64,
        suppressed: u64,
    ) -> FilterStats {
        FilterStats {
            predicate: TracePredicate { flow, kinds },
            admitted,
            suppressed,
        }
    }

    #[test]
    fn filter_stats_absorb_is_associative_and_order_stable() {
        let mk = |adm, sup| filter_stats(Some(3), KindSet::all(), adm, sup);
        let (a, b, c) = (mk(1, 2), mk(3, 4), mk(5, 6));
        let mut left = a;
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b;
        bc.absorb(&c);
        let mut right = a;
        right.absorb(&bc);
        assert_eq!(left, right, "associative");
        assert_eq!((left.admitted, left.suppressed), (9, 12));
        // order-stability: counters are commutative sums, so shard order
        // cannot change the merged value
        let mut rev = c;
        rev.absorb(&b);
        rev.absorb(&a);
        assert_eq!(rev, left);
        // pristine identity adopts the predicate
        let mut id = FilterStats::default();
        id.absorb(&a);
        assert_eq!(id, a);
        let mut back = a;
        back.absorb(&FilterStats::default());
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "different focus")]
    fn filter_stats_absorb_rejects_mismatched_focus() {
        let mut a = filter_stats(Some(1), KindSet::all(), 1, 0);
        a.absorb(&filter_stats(Some(2), KindSet::all(), 0, 1));
    }

    #[test]
    #[should_panic(expected = "different kind slices")]
    fn filter_stats_absorb_rejects_mismatched_kind_slices() {
        let mut a = filter_stats(None, KindSet::of(&[TraceKind::Retransmit]), 1, 0);
        a.absorb(&filter_stats(None, KindSet::of(&[TraceKind::Syn]), 0, 1));
    }

    #[test]
    fn tee_drop_accounting_is_exact_with_a_lossless_branch() {
        // Ring cap 2 sheds 5 of 7, but the stream branch keeps all 7:
        // nothing is lost from the pipeline.
        let buf = SharedBuf::default();
        let mut tee = Tee::new(
            TraceRing::new(2),
            Some(StreamSink::new(Box::new(buf.clone()), "test")),
        );
        for e in sample_events() {
            tee.offer(&e);
        }
        assert_eq!(tee.emitted(), 7);
        assert_eq!(tee.kept(), 7);
        assert_eq!(tee.dropped(), 0, "stream branch is lossless");
        assert_eq!(tee.a().len(), 2);
        assert_eq!(TraceSink::dropped(tee.a()), 5);

        // Without a stream branch the tee's loss is the ring's loss.
        let mut ring_only: Tee<TraceRing, Option<StreamSink>> = Tee::new(TraceRing::new(2), None);
        for e in sample_events() {
            ring_only.offer(&e);
        }
        assert_eq!(ring_only.emitted(), 7);
        assert_eq!(ring_only.kept(), 2);
        assert_eq!(ring_only.dropped(), 5);
    }

    #[test]
    fn stream_stats_absorb_is_additive_with_zero_identity() {
        let a = StreamStats {
            emitted: 3,
            dropped: 0,
            flushes: 1,
        };
        let b = StreamStats {
            emitted: 4,
            dropped: 0,
            flushes: 2,
        };
        let mut acc = StreamStats::default();
        acc.absorb(&a);
        assert_eq!(acc, a, "zero ⊕ a == a");
        acc.absorb(&b);
        assert_eq!(
            acc,
            StreamStats {
                emitted: 7,
                dropped: 0,
                flushes: 3
            }
        );
    }

    #[test]
    fn shard_trailer_is_self_describing() {
        let stats = StreamStats {
            emitted: 42,
            dropped: 0,
            flushes: 3,
        };
        let kinds = KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]);
        let line = shard_trailer_json(5, &stats, 42, 100, kinds);
        assert!(line.contains("\"summary\":true"));
        assert!(line.contains("\"stream\":true"));
        assert!(line.contains("\"shard\":5"));
        assert!(line.contains("\"emitted\":42"));
        assert!(line.contains("\"dropped\":0"));
        assert!(line.contains("\"admitted\":42"));
        assert!(line.contains("\"suppressed\":100"));
        assert!(line.contains("\"kinds\":\"retransmit,rto\""));
        assert_eq!(json_u64(&line, "emitted"), Some(42));
        assert_eq!(json_str(&line, "kinds").as_deref(), Some("retransmit,rto"));
    }

    #[test]
    fn merge_orders_by_t_ns_then_shard_and_sums_trailers() {
        let dir =
            std::env::temp_dir().join(format!("minion_obs_merge_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Shard 0: t 10, 30, 50. Shard 1: t 20, 30 (tie → shard 0 first).
        let write_shard = |s: u32, events: &[TraceEvent]| -> PathBuf {
            let path = dir.join(format!("stream.shard{s:05}"));
            let mut f = File::create(&path).unwrap();
            for e in events {
                writeln!(f, "{}", e.to_json()).unwrap();
            }
            let stats = StreamStats {
                emitted: events.len() as u64,
                dropped: 0,
                flushes: 1,
            };
            writeln!(
                f,
                "{}",
                shard_trailer_json(s, &stats, events.len() as u64, s as u64, KindSet::all())
            )
            .unwrap();
            path
        };
        let p0 = write_shard(
            0,
            &[
                ev(10, 0, 0, TraceKind::Syn),
                ev(30, 0, 0, TraceKind::FirstByte),
                ev(50, 0, 9, TraceKind::Fin),
            ],
        );
        let p1 = write_shard(
            1,
            &[
                ev(20, 128, 0, TraceKind::Syn),
                ev(30, 128, 0, TraceKind::FirstByte),
            ],
        );
        let out = dir.join("merged.jsonl");
        let merged = merge_stream_files(&[p0, p1], &out).unwrap();
        assert_eq!(merged.shards, 2);
        assert_eq!(merged.events, 5);
        assert_eq!(merged.emitted, 5);
        assert_eq!(merged.dropped, 0);
        assert_eq!(merged.admitted, 5);
        assert_eq!(merged.suppressed, 1, "trailer sums fold across shards");
        let text = std::fs::read_to_string(&out).unwrap();
        let ts: Vec<(u64, u64)> = text
            .lines()
            .filter(|l| !l.contains("\"summary\""))
            .map(|l| (json_u64(l, "t_ns").unwrap(), json_u64(l, "flow").unwrap()))
            .collect();
        assert_eq!(
            ts,
            vec![(10, 0), (20, 128), (30, 0), (30, 128), (50, 0)],
            "ordered by (t_ns, shard)"
        );
        let trailer = text.lines().last().unwrap();
        assert!(trailer.contains("\"shards\":2"));
        assert!(trailer.contains("\"events\":5"));
        assert_eq!(text.lines().count(), 6, "5 events + 1 merged trailer");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_is_deterministic_across_repeats() {
        let dir = std::env::temp_dir().join(format!("minion_obs_merge_det_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for s in 0..4u32 {
            let path = dir.join(format!("d.shard{s:05}"));
            let mut f = File::create(&path).unwrap();
            for i in 0..16u64 {
                writeln!(
                    f,
                    "{}",
                    ev(
                        i * 7 + s as u64,
                        s * 128,
                        i as u32,
                        TraceKind::RecordDelivered
                    )
                    .to_json()
                )
                .unwrap();
            }
            let stats = StreamStats {
                emitted: 16,
                dropped: 0,
                flushes: 1,
            };
            writeln!(
                f,
                "{}",
                shard_trailer_json(s, &stats, 16, 0, KindSet::all())
            )
            .unwrap();
            paths.push(path);
        }
        let out1 = dir.join("m1.jsonl");
        let out2 = dir.join("m2.jsonl");
        merge_stream_files(&paths, &out1).unwrap();
        merge_stream_files(&paths, &out2).unwrap();
        assert_eq!(
            std::fs::read(&out1).unwrap(),
            std::fs::read(&out2).unwrap(),
            "same inputs, same bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
