//! The lifecycle trace path: admission and the zero-drop stream.
//!
//! [`TraceRing`] bounds memory by *shedding* — the `{"summary":true,...}`
//! line admits the loss but cannot undo it. The load driver records each
//! lifecycle event along one path: [`FilterStats::admit`] applies the
//! flow × kind [`TracePredicate`] and counts the decision; an admitted event
//! enters the ring (bounded, in-memory) and then, when the run streams, a
//! [`StreamSink`] that spills every event to a JSONL writer with bounded
//! in-memory batching and **zero-drop** semantics, and closes the file with
//! a trailer line of its own accounting ([`StreamSink::finish`]).
//!
//! Determinism discipline: a stream holds an OS resource (a spill file), so
//! it never enters a report — only its [`StreamStats`] counters do, and
//! those are pure functions of the event stream. One run is one world on
//! one virtual clock, so the file is in time order as written.
//!
//! Accounting vocabulary, used consistently across the path:
//!
//! | term | meaning |
//! |---|---|
//! | `admitted` | events the predicate passed (they reach the ring and stream) |
//! | `suppressed` | events the predicate rejected (intentional) |
//! | `emitted` | events a stream wrote |
//! | `dropped` | events lost to a capacity bound (a ring evicting) |
//!
//! Suppression is *not* loss: a filtered dump is complete with respect to
//! its predicate. `dropped > 0` always means the artifact is missing data
//! it was supposed to hold.

use crate::trace::{KindSet, TraceEvent, TraceRing};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// In-memory batch bound for [`StreamSink`] (bytes). Events accumulate in
/// a string buffer and hit the writer in batches of roughly this size, so
/// a million-event stream does a few hundred writes, not a million.
const DEFAULT_STREAM_BATCH_BYTES: usize = 64 * 1024;

/// Something that accepts [`TraceEvent`]s. Its one implementation is
/// [`TraceRing`]; the name stays because the repository benchmark's
/// ring-offer kernel calls the ring through it.
pub trait TraceSink {
    /// Offer one event to the sink.
    fn offer(&mut self, ev: &TraceEvent);
}

/// The ring keeps the last `cap` events and counts the shed.
impl TraceSink for TraceRing {
    fn offer(&mut self, ev: &TraceEvent) {
        self.push(*ev);
    }
}

/// Deterministic accounting of a [`StreamSink`] — the only part of a
/// stream that enters a report. Counters are pure functions of the event
/// stream (batch boundaries depend only on event bytes).
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

/// A zero-drop JSONL streaming sink: every offered event is serialized
/// into a bounded in-memory batch and written through when the batch
/// fills.
///
/// **Zero-drop is a hard guarantee**: the accounting cannot express "the
/// OS lost some suffix of the stream", so a write error panics (with the
/// sink's label) instead of silently dropping. Callers gate
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

    /// Append one event as a JSONL line, writing the batch through once
    /// it reaches the bound.
    pub fn offer(&mut self, ev: &TraceEvent) {
        self.batch.push_str(&ev.to_json());
        self.batch.push('\n');
        self.stats.emitted += 1;
        if self.batch.len() >= DEFAULT_STREAM_BATCH_BYTES {
            self.flush_batch();
        }
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

    /// Close the stream after its last event: append the trailer line,
    /// flush everything and return the final accounting. The trailer,
    /// `{"summary":true,"stream":true,...}`, carries the stream's
    /// `emitted`/`dropped` and `filter`'s `admitted`/`suppressed` and kind
    /// slice, so a sliced file says what it left out. It is not an event:
    /// `emitted` does not count it.
    pub fn finish(mut self, filter: &FilterStats) -> StreamStats {
        self.batch.push_str(&format!(
            "{{\"summary\":true,\"stream\":true,\"emitted\":{},\"dropped\":{},\
             \"admitted\":{},\"suppressed\":{},\"kinds\":\"{}\"}}\n",
            self.stats.emitted,
            self.stats.dropped,
            filter.admitted,
            filter.suppressed,
            filter.predicate.kinds.labels()
        ));
        self.flush_batch();
        if let Err(e) = self.writer.flush() {
            panic!("trace stream {}: flush failed: {e}", self.label);
        }
        self.stats
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
    /// Whether this predicate admits every event (nothing to do).
    pub fn is_pass_all(&self) -> bool {
        self.flow.is_none() && self.kinds.is_all()
    }
}

/// The trace path's admission record: its predicate and what it admitted
/// and suppressed. It is part of the report, and both dumps' summary lines
/// carry it, so filtered dumps stay honest about coverage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// The admission predicate.
    pub predicate: TracePredicate,
    /// Events that passed the predicate (and reached the ring and stream).
    pub admitted: u64,
    /// Events the predicate rejected.
    pub suppressed: u64,
}

impl FilterStats {
    /// Whether `ev` passes the predicate, counting it as admitted or
    /// suppressed.
    pub fn admit(&mut self, ev: &TraceEvent) -> bool {
        let p = &self.predicate;
        let pass = p.flow.is_none_or(|f| f == ev.flow) && p.kinds.contains(ev.kind);
        if pass {
            self.admitted += 1;
        } else {
            self.suppressed += 1;
        }
        pass
    }
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
        // The same events through a large-enough ring and a stream yield
        // the same JSONL event lines and the same count.
        let buf = SharedBuf::default();
        let mut ring = TraceRing::new(64);
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        for e in sample_events() {
            TraceSink::offer(&mut ring, &e);
            stream.offer(&e);
        }
        let stats = stream.finish(&FilterStats::default());
        assert_eq!(stats.emitted, ring.recorded());
        assert_eq!(stats.emitted, 7);
        assert_eq!(stats.dropped, 0);
        let contents = buf.contents();
        let (events, trailer) = contents.trim_end().rsplit_once('\n').unwrap();
        assert_eq!(format!("{events}\n"), ring.to_jsonl());
        assert!(trailer.starts_with("{\"summary\":true"), "{trailer}");
    }

    #[test]
    fn stream_batches_by_bytes_and_counts_flushes() {
        let buf = SharedBuf::default();
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        let mut offered = 0;
        for e in sample_events().iter().cycle() {
            stream.offer(e);
            offered += 1;
            if !buf.contents().is_empty() {
                break;
            }
        }
        // Nothing is written below the bound: the first write is a batch's
        // worth of whole lines at once.
        assert!(buf.contents().len() >= DEFAULT_STREAM_BATCH_BYTES);
        assert_eq!(buf.contents().lines().count(), offered);
        let stats = stream.finish(&FilterStats::default());
        assert_eq!(stats.flushes, 2, "the trailer goes out in one more batch");
        assert_eq!(buf.contents().lines().count(), offered + 1);
    }

    /// The `t_ns` of the sample events that pass every filter in `chain`,
    /// each filter seeing only what the ones before it admitted.
    fn admitted_through(chain: &mut [FilterStats]) -> Vec<u64> {
        sample_events()
            .iter()
            .filter(|e| chain.iter_mut().all(|f| f.admit(e)))
            .map(|e| e.t_ns)
            .collect()
    }

    #[test]
    fn filtered_sink_composition_is_predicate_conjunction() {
        // flow-then-kind, kind-then-flow, and the combined predicate all
        // admit the same event sequence.
        let recovery = KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]);
        let flow_f = filter_stats(Some(0), KindSet::all(), 0, 0);
        let kind_f = filter_stats(None, recovery, 0, 0);
        let mut fk = [flow_f, kind_f];
        let mut kf = [kind_f, flow_f];
        let mut combined = [filter_stats(Some(0), recovery, 0, 0)];
        let want = admitted_through(&mut combined);
        // Only flow-0 retransmit survives the conjunction.
        assert_eq!(want, [40]);
        assert_eq!(admitted_through(&mut fk), want);
        assert_eq!(admitted_through(&mut kf), want);
        assert_eq!(combined[0].admitted, 1);
        assert_eq!(combined[0].suppressed, 6);
        // Chained filters attribute suppression at different stages but
        // agree on the total.
        for chain in [&fk, &kf] {
            let suppressed: u64 = chain.iter().map(|f| f.suppressed).sum();
            assert_eq!(suppressed, combined[0].suppressed);
            assert_eq!(chain[1].admitted, combined[0].admitted);
        }
    }

    #[test]
    fn pass_all_predicate_admits_everything() {
        let p = TracePredicate::default();
        assert!(p.is_pass_all());
        let mut f = [FilterStats {
            predicate: p,
            ..FilterStats::default()
        }];
        assert_eq!(admitted_through(&mut f), [10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(f[0].admitted, 7);
        assert_eq!(f[0].suppressed, 0);
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
    fn stream_trailer_is_self_describing() {
        let buf = SharedBuf::default();
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        let recovery = KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]);
        let mut filter = filter_stats(None, recovery, 0, 0);
        for e in sample_events() {
            if filter.admit(&e) {
                stream.offer(&e);
            }
        }
        let stats = stream.finish(&filter);
        assert_eq!((stats.emitted, stats.dropped, stats.flushes), (2, 0, 1));
        let text = buf.contents();
        assert_eq!(text.lines().count(), 3, "two events, then the trailer");
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"summary\":true,\"stream\":true,\"emitted\":2,\"dropped\":0,\
             \"admitted\":2,\"suppressed\":5,\"kinds\":\"retransmit,rto\"}"
        );
    }
}
