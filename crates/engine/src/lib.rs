//! # minion-engine
//!
//! The deterministic multi-flow load driver: what lets the Minion
//! reproduction scale from one connection per experiment to the ROADMAP's
//! "heavy traffic" regime of hundreds-to-thousands of concurrent uTCP flows,
//! while staying bit-reproducible under a seed.
//!
//! Components, bottom-up:
//!
//! * The event loop is [`minion_stack::Sim`], the one loop of the workspace
//!   (hierarchical [`TimerWheel`], batched packet dispatch, per-socket
//!   demultiplexing, readiness events instead of lockstep sweeps). This
//!   crate drives it through its flow front door ([`FlowId`]); nothing here
//!   restricts the topology underneath.
//! * [`Transport`] — packet I/O and time as a trait, so one scenario driver
//!   runs over the simulator ([`SimTransport`]) or a kernel stack
//!   (`minion-osnet`).
//! * [`LoadScenario`] — N concurrent flows over one shared link, asserting
//!   exactly-once delivery (every delivered chunk compared in place with
//!   the sent stream) and per-stream order per flow; [`verify_load`]
//!   adds the two-run byte-identical-metrics determinism gate. The 1024-flow
//!   acceptance scenario is [`LoadScenario::smoke_1k`], and
//!   `cargo run --release -p minion-bench --bin load_engine` emits its
//!   metrics as `BENCH_engine.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod obs;
pub mod scenario;
pub mod transport;

pub use metrics::{fnv1a, fnv1a_words, EngineMetrics, FlowMetrics, LoadReport, FNV_OFFSET_BASIS};
pub use obs::LoadObs;
pub use scenario::{verify_load, verify_load_sharded, LoadScenario};
pub use transport::{SimTransport, Transport, TransportChunk, TransportFlowStats};
// The loop's own names, for the drivers that reach it through this crate.
pub use minion_stack::{FlowId, TimerWheel};

// Re-export the observability primitives so downstream crates (osnet,
// testkit, bench) reach them through the engine without a direct
// `minion-obs` dependency.
pub use minion_obs::{
    merge_stream_files, Absorb, CcObs, Counter, CounterSet, CwndSample, DelayDigest, FilteredSink,
    FlowDelayMap, Gauge, GaugeSet, Histogram, KindSet, MergedStream, NonDeterministic,
    PhaseProfile, StreamSink, StreamStats, Tee, TraceEvent, TraceKind, TracePredicate, TraceRing,
    TraceSink, DEFAULT_TRACE_CAP,
};
