//! # minion-obs — deterministic observability primitives
//!
//! The paper's claim is about *latency*: uTCP's unordered delivery removes
//! the head-of-line-blocking delay ordered TCP imposes. Measuring that needs
//! per-record delivery-delay distributions, lifecycle traces, and honest
//! cross-backend counters — not just aggregate goodput. This crate provides
//! the building blocks, with one non-negotiable property: **same-seed sim
//! runs produce byte-identical observability output at any thread count.**
//!
//! The pieces, and how determinism is preserved in each:
//!
//! | type | what it records | merge rule |
//! |---|---|---|
//! | [`Counter`] / [`CounterSet`] | monotone event counts, fixed name slots | slot-wise saturating add |
//! | [`Gauge`] / [`GaugeSet`] | high-water marks | slot-wise max |
//! | [`Histogram`] | [`Hist`]: two-level (log2 major × 16 linear minor) `u64` samples (ns), slots allocated on the first sample | exact slot-wise add |
//! | [`TraceRing`] | last-N lifecycle [`TraceEvent`]s | concatenate in shard order, trim |
//! | [`StreamStats`] | zero-drop [`StreamSink`] accounting | counter addition |
//! | [`FilterStats`] | the trace path's flow × kind [`TracePredicate`] and its admitted/suppressed counts ([`FilterStats::admit`]) | counter addition, predicates must agree |
//! | [`FlowDelayMap`] | per-flow [`DelayDigest`]s — the same [`Hist`] layout at 4 sub-buckets | key union, digests slot-wise |
//! | [`CcObs`] | one scenario's cwnd/ssthresh trajectory ring + recovery histograms, fed from the connections' window samples | ring concat in shard order, histograms slot-wise |
//! | [`PhaseProfile`] | wall-clock time per loop phase | slot-wise add, **excluded from equality** via [`NonDeterministic`] |
//!
//! Everything mergeable implements [`Absorb`]; sharded runs fold per-shard
//! values **in shard index order** (never completion order), which is what
//! makes a 4-thread run report the same bytes as a serial one. Wall-clock
//! phase profiles are the one legitimately non-deterministic piece and are
//! quarantined behind [`NonDeterministic`] so they can never leak into the
//! byte-identity gates.
//!
//! This crate is std-only and dependency-free; it sits below every other
//! crate in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absorb;
mod cc;
mod counter;
mod flow_delay;
mod hist;
mod sink;
mod span;
mod trace;

pub use absorb::{merge_ordered, Absorb};
pub use cc::{CcObs, CwndSample};
pub use counter::{Counter, CounterSet, Gauge, GaugeSet};
pub use flow_delay::{DelayDigest, FlowDelayMap};
pub use hist::{Hist, Histogram};
pub use sink::{
    merge_stream_files, shard_trailer_json, FilterStats, MergedStream, StreamSink, StreamStats,
    TracePredicate, TraceSink,
};
pub use span::{NonDeterministic, PhaseProfile};
pub use trace::{KindSet, TraceEvent, TraceKind, TraceRing, DEFAULT_TRACE_CAP};
