//! # minion-obs — deterministic observability primitives
//!
//! The paper's claim is about *latency*: uTCP's unordered delivery removes
//! the head-of-line-blocking delay ordered TCP imposes. Measuring that needs
//! per-record delivery-delay distributions, lifecycle traces, and honest
//! cross-backend counters — not just aggregate goodput. This crate provides
//! the building blocks, with one non-negotiable property: **same-seed sim
//! runs produce byte-identical observability output.**
//!
//! The pieces:
//!
//! | type | what it records |
//! |---|---|
//! | [`CounterSet`] | monotone event counts, fixed slots |
//! | [`Histogram`] | two-level (log2 major × 16 linear minor) `u64` samples (ns), slots allocated on the first sample; [`quantile_rank`] is its rank rule |
//! | [`Ring`] | the last N of anything, with recorded/dropped counts: the trace ring and the window trajectory |
//! | [`TraceRing`] | last-N lifecycle [`TraceEvent`]s |
//! | [`StreamSink`] / [`StreamStats`] | every lifecycle event spilled to a JSONL file, closed by a trailer; the sink's zero-drop accounting |
//! | [`CcObs`] | one scenario's cwnd/ssthresh trajectory ring + recovery histograms, fed from the connections' window samples |
//! | [`PhaseProfile`] | wall-clock time per loop phase, **excluded from equality** via [`NonDeterministic`] |
//!
//! A load run records into one world, so none of these is merged across
//! shards: each is a pure function of the scenario and its seed. Two are
//! pooled across separate runs or workers through [`Absorb`], both by exact
//! slot-wise sums: [`Histogram`] and [`PhaseProfile`]. Wall-clock phase
//! profiles are the one legitimately non-deterministic piece and are
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
mod hist;
mod ring;
mod sink;
mod span;
mod trace;

pub use absorb::Absorb;
pub use cc::{CcObs, CwndSample};
pub use counter::CounterSet;
pub use hist::{quantile_rank, Histogram};
pub use ring::Ring;
pub use sink::{StreamSink, StreamStats, TraceSink};
pub use span::{NonDeterministic, PhaseProfile};
pub use trace::{TraceEvent, TraceKind, TraceRing, DEFAULT_TRACE_CAP};
