//! Bounded ring-buffer trace recorder for per-flow lifecycle events.
//!
//! NS-2-style simulators owe much of their usefulness to trace-file
//! discipline: every interesting transition lands in an ordered, replayable
//! stream. [`TraceRing`] is the deterministic analogue — a bounded ring of
//! [`TraceEvent`]s (flow, seq, kind, timestamp) that keeps the **last**
//! `cap` events and counts what it had to drop.
//!
//! Events carry nanosecond timestamps from the backend clock (virtual for
//! sim — hence fully deterministic — monotonic for os).

use crate::ring::Ring;

/// Default ring capacity: enough for full lifecycle coverage of the
/// obs comparison scenarios without unbounded memory on million-flow runs.
pub const DEFAULT_TRACE_CAP: usize = 65_536;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// Client initiated the connection (SYN sent).
    Syn,
    /// First payload byte of the flow was delivered to the application.
    FirstByte,
    /// A record became fully deliverable to the application.
    RecordDelivered,
    /// Sender retransmitted a data segment.
    Retransmit,
    /// Sender's retransmission timeout fired.
    RtoFired,
    /// Flow finished (orderly close requested).
    Fin,
}

impl TraceKind {
    /// Stable lowercase tag used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Syn => "syn",
            TraceKind::FirstByte => "first_byte",
            TraceKind::RecordDelivered => "record",
            TraceKind::Retransmit => "retransmit",
            TraceKind::RtoFired => "rto",
            TraceKind::Fin => "fin",
        }
    }
}

/// One traced transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in nanoseconds (virtual on sim, monotonic on os).
    pub t_ns: u64,
    /// Global flow index within the scenario.
    pub flow: u32,
    /// Sequence within the flow: record index for record-scoped kinds,
    /// running per-flow event count otherwise.
    pub seq: u32,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\":{},\"flow\":{},\"seq\":{},\"kind\":\"{}\"}}",
            self.t_ns,
            self.flow,
            self.seq,
            self.kind.as_str()
        )
    }
}

/// A bounded ring of the most recent [`TraceEvent`]s.
pub type TraceRing = Ring<TraceEvent>;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_TRACE_CAP)
    }
}

impl TraceRing {
    /// Serialize the held events as JSONL (one event per line, trailing
    /// newline after the last line; empty string when empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// [`Self::to_jsonl`] followed by one summary line carrying the ring's
    /// accounting, so dump consumers can *see* truncation: the ring keeps
    /// the last `cap` events, silently shedding the earliest, and
    /// `dropped > 0` is the only evidence. The summary line is
    /// distinguishable from events by its `"summary"` key (events carry
    /// `"kind"`). A streamed run's file closes with the same kind of line,
    /// written by [`StreamSink::finish`](crate::StreamSink::finish).
    pub fn to_jsonl_with_summary(&self) -> String {
        let mut out = self.to_jsonl();
        out.push_str(&format!(
            "{{\"summary\":true,\"recorded\":{},\"held\":{},\"dropped\":{},\"cap\":{}}}\n",
            self.recorded(),
            self.len(),
            self.dropped(),
            self.cap
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, flow: u32, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            flow,
            seq,
            kind,
        }
    }

    #[test]
    fn ring_keeps_last_cap_and_counts_drops() {
        let mut r = TraceRing::new(2);
        r.push(ev(1, 0, 0, TraceKind::Syn));
        r.push(ev(2, 0, 0, TraceKind::FirstByte));
        r.push(ev(3, 0, 0, TraceKind::Fin));
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 3);
        assert_eq!(r.dropped(), 1);
        let kinds: Vec<_> = r.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::FirstByte, TraceKind::Fin]);
    }

    #[test]
    fn jsonl_kinds_are_stable_tags() {
        let mut r = TraceRing::new(8);
        r.push(ev(10, 3, 1, TraceKind::RtoFired));
        r.push(ev(11, 3, 2, TraceKind::Retransmit));
        let out = r.to_jsonl();
        assert_eq!(
            out,
            "{\"t_ns\":10,\"flow\":3,\"seq\":1,\"kind\":\"rto\"}\n{\"t_ns\":11,\"flow\":3,\"seq\":2,\"kind\":\"retransmit\"}\n"
        );
    }

    #[test]
    fn summary_line_carries_ring_accounting() {
        let mut r = TraceRing::new(1);
        r.push(ev(1, 0, 0, TraceKind::Syn));
        r.push(ev(2, 0, 0, TraceKind::Fin));
        let out = r.to_jsonl_with_summary();
        assert_eq!(
            out.lines().last().unwrap(),
            "{\"summary\":true,\"recorded\":2,\"held\":1,\"dropped\":1,\"cap\":1}"
        );
    }
}
