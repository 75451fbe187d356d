//! The lifecycle trace path's zero-drop stream.
//!
//! [`TraceRing`] bounds memory by *shedding* — the `{"summary":true,...}`
//! line admits the loss but cannot undo it. The load driver records every
//! lifecycle event along one path: the event enters the ring (bounded,
//! in-memory) and then, when the run streams, a [`StreamSink`] that spills
//! every event to a JSONL writer with bounded in-memory batching and
//! **zero-drop** semantics, and closes the file with a trailer line of its
//! own accounting ([`StreamSink::finish`]). Nothing is sliced on the way
//! in: a reader slices the file (`jq 'select(.flow == 7)'`).
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
//! | `recorded` | events the ring was offered (every event of the run) |
//! | `emitted` | events a stream wrote (every event of the run) |
//! | `dropped` | events lost to a capacity bound (a ring evicting) |
//!
//! A stream never drops, so a streamed run's `emitted` equals its ring's
//! `recorded`. `dropped > 0` always means the ring is missing data it was
//! supposed to hold.

use crate::trace::{TraceEvent, TraceRing};
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
    /// `{"summary":true,"stream":true,"emitted":N}`, flush everything and
    /// return the final accounting. The trailer is not an event: `emitted`
    /// does not count it.
    pub fn finish(mut self) -> StreamStats {
        self.batch.push_str(&format!(
            "{{\"summary\":true,\"stream\":true,\"emitted\":{}}}\n",
            self.stats.emitted
        ));
        self.flush_batch();
        if let Err(e) = self.writer.flush() {
            panic!("trace stream {}: flush failed: {e}", self.label);
        }
        self.stats
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
        let stats = stream.finish();
        assert_eq!(stats.emitted, ring.recorded());
        assert_eq!(stats.emitted, 7);
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
        let stats = stream.finish();
        assert_eq!(stats.flushes, 2, "the trailer goes out in one more batch");
        assert_eq!(buf.contents().lines().count(), offered + 1);
    }

    #[test]
    fn stream_trailer_is_self_describing() {
        let buf = SharedBuf::default();
        let mut stream = StreamSink::new(Box::new(buf.clone()), "test");
        for e in sample_events() {
            stream.offer(&e);
        }
        let stats = stream.finish();
        assert_eq!((stats.emitted, stats.flushes), (7, 1));
        let text = buf.contents();
        assert_eq!(text.lines().count(), 8, "seven events, then the trailer");
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"summary\":true,\"stream\":true,\"emitted\":7}"
        );
    }
}
