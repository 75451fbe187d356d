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
    /// Every kind, in declaration order — the one canonical list. CLI
    /// parsing, `KindSet::all`, and error messages all derive from it, so a
    /// new kind added here is automatically parseable and listed.
    pub const ALL: [TraceKind; 6] = [
        TraceKind::Syn,
        TraceKind::FirstByte,
        TraceKind::RecordDelivered,
        TraceKind::Retransmit,
        TraceKind::RtoFired,
        TraceKind::Fin,
    ];

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

    /// The comma-joined list of valid tags (error messages, usage strings).
    fn valid_tags() -> String {
        TraceKind::ALL
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join("|")
    }
}

impl std::str::FromStr for TraceKind {
    type Err = String;

    /// Parse a JSONL tag back into its kind, naming every valid tag on
    /// failure (the canonical parse `--trace-kind` and tests share).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tag = s.trim();
        TraceKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str() == tag)
            .ok_or_else(|| {
                format!(
                    "unknown trace kind {tag:?} (valid kinds: {})",
                    TraceKind::valid_tags()
                )
            })
    }
}

/// A set of [`TraceKind`]s, used as the kind-predicate of trace filtering
/// (`--trace-kind retransmit,rto` slices the event stream by class the way
/// `--trace-flow` slices it by flow).
///
/// `Default` is the **full** set — "no kind filtering" — so a pristine
/// filter admits everything, mirroring `flow: None`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KindSet(u8);

impl Default for KindSet {
    fn default() -> Self {
        KindSet::all()
    }
}

impl KindSet {
    /// The set containing every kind.
    pub fn all() -> Self {
        let mut s = KindSet::empty();
        for k in TraceKind::ALL {
            s.insert(k);
        }
        s
    }

    /// The empty set (admits nothing).
    pub fn empty() -> Self {
        KindSet(0)
    }

    /// The set containing exactly `kinds`.
    pub fn of(kinds: &[TraceKind]) -> Self {
        let mut s = KindSet::empty();
        for &k in kinds {
            s.insert(k);
        }
        s
    }

    /// Add a kind.
    pub fn insert(&mut self, kind: TraceKind) {
        self.0 |= 1u8 << (kind as u8);
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: TraceKind) -> bool {
        self.0 & (1u8 << (kind as u8)) != 0
    }

    /// Whether every kind is in the set (no kind filtering).
    pub(crate) fn is_all(self) -> bool {
        self == KindSet::all()
    }

    /// Number of kinds in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set admits nothing.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Comma-joined tags of the contained kinds, in declaration order
    /// (stable — used in stream trailers so artifacts are self-describing).
    pub fn labels(self) -> String {
        TraceKind::ALL
            .iter()
            .copied()
            .filter(|&k| self.contains(k))
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl std::fmt::Debug for KindSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KindSet({})", self.labels())
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
    ///
    /// `admitted`/`suppressed` are the attached filter's accounting (what
    /// passed / what the flow- and kind-predicates rejected before the
    /// ring), so a filtered dump is self-describing about its coverage:
    /// `recorded == admitted`, and `admitted + suppressed` is the full
    /// event stream the run produced. The ring-local keys (`recorded`,
    /// `held`, `dropped`, `cap`) keep their historical meaning.
    pub fn to_jsonl_with_summary(&self, admitted: u64, suppressed: u64) -> String {
        let mut out = self.to_jsonl();
        out.push_str(&format!(
            "{{\"summary\":true,\"recorded\":{},\"held\":{},\"dropped\":{},\"cap\":{},\
             \"admitted\":{admitted},\"suppressed\":{suppressed}}}\n",
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
    fn kind_from_str_round_trips_and_names_valid_kinds_on_failure() {
        for kind in TraceKind::ALL {
            assert_eq!(kind.as_str().parse::<TraceKind>().unwrap(), kind);
        }
        assert_eq!(" rto ".parse::<TraceKind>().unwrap(), TraceKind::RtoFired);
        let err = "warble".parse::<TraceKind>().unwrap_err();
        assert!(err.contains("unknown trace kind \"warble\""), "{err}");
        for kind in TraceKind::ALL {
            assert!(
                err.contains(kind.as_str()),
                "error must list {kind:?}: {err}"
            );
        }
    }

    #[test]
    fn kind_sets_are_bitmasks_with_stable_labels() {
        let all = KindSet::all();
        assert!(all.is_all());
        assert_eq!(all.len(), TraceKind::ALL.len());
        assert_eq!(KindSet::default(), all, "default admits everything");
        let slice = KindSet::of(&[TraceKind::RtoFired, TraceKind::Retransmit]);
        assert!(slice.contains(TraceKind::Retransmit));
        assert!(slice.contains(TraceKind::RtoFired));
        assert!(!slice.contains(TraceKind::Syn));
        assert!(!slice.is_all());
        assert_eq!(slice.len(), 2);
        // Labels come out in declaration order, not insertion order.
        assert_eq!(slice.labels(), "retransmit,rto");
        assert_eq!(format!("{slice:?}"), "KindSet(retransmit,rto)");
        assert!(KindSet::empty().is_empty());
        assert_eq!(KindSet::empty().labels(), "");
    }

    #[test]
    fn summary_line_carries_ring_and_filter_accounting() {
        let mut r = TraceRing::new(1);
        r.push(ev(1, 0, 0, TraceKind::Syn));
        r.push(ev(2, 0, 0, TraceKind::Fin));
        let out = r.to_jsonl_with_summary(2, 5);
        let summary = out.lines().last().unwrap();
        // Historical ring-local keys stay (CI greps depend on them)...
        assert!(summary.contains("\"recorded\":2"), "{summary}");
        assert!(summary.contains("\"held\":1"), "{summary}");
        assert!(summary.contains("\"dropped\":1"), "{summary}");
        assert!(summary.contains("\"cap\":1"), "{summary}");
        // ...and the attached filter's accounting rides along.
        assert!(summary.contains("\"admitted\":2"), "{summary}");
        assert!(summary.contains("\"suppressed\":5"), "{summary}");
    }
}
