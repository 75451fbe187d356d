//! # minion-engine
//!
//! The deterministic multi-flow event runtime: the substrate that lets the
//! Minion reproduction scale from one connection per experiment to the
//! ROADMAP's "heavy traffic" regime of hundreds-to-thousands of concurrent
//! uTCP flows, while staying bit-reproducible under a seed.
//!
//! Components, bottom-up:
//!
//! * [`TimerWheel`] — a hierarchical timer wheel (six 64-slot levels at
//!   microsecond resolution, occupancy bitmaps, lazy cancellation) replacing
//!   the `O(flows)` every-socket timer scan with `O(1)` re-arming.
//! * [`Engine`] — the event loop: batched packet dispatch from the simulated
//!   network ([`minion_simnet::World::drain_due_into`]), per-socket
//!   demultiplexing ([`minion_stack::Host::on_packet_demux`]), readiness
//!   events ([`minion_tcp::ConnEvent`]) instead of lockstep sweeps, and
//!   wheel-driven timers.
//! * [`LoadScenario`] — N concurrent flows over one shared link, asserting
//!   exactly-once delivery (every delivered chunk compared in place with
//!   the sent stream) and per-stream order per flow; [`verify_load`]
//!   adds the two-run byte-identical-metrics determinism gate. The 1024-flow
//!   acceptance scenario is [`LoadScenario::smoke_1k`], and
//!   `cargo run --release -p minion-bench --bin load_engine` emits its
//!   metrics as `BENCH_engine.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod obs;
pub mod runtime;
pub mod scenario;
pub mod transport;
pub mod wheel;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use metrics::{fnv1a, fnv1a_words, EngineMetrics, FlowMetrics, LoadReport, FNV_OFFSET_BASIS};
pub use obs::{LoadObs, LOAD_COUNTER_NAMES, LOAD_GAUGE_NAMES};
pub use runtime::{Engine, EngineHostId, FlowId, ENGINE_PHASES};
pub use scenario::{verify_load, verify_load_sharded, LoadScenario, LOAD_PORT, SHARD_FLOWS};
pub use transport::{SimTransport, Transport, TransportChunk, TransportFlowStats};
pub use wheel::TimerWheel;

// Re-export the observability primitives so downstream crates (osnet,
// testkit, bench) reach them through the engine without a direct
// `minion-obs` dependency.
pub use minion_obs::{
    merge_stream_files, Absorb, CcObs, Counter, CounterSet, CwndSample, DelayDigest, FilteredSink,
    FlowDelayMap, Gauge, GaugeSet, Histogram, KindSet, MergedStream, NonDeterministic,
    PhaseProfile, StreamSink, StreamStats, Tee, TraceEvent, TraceKind, TracePredicate, TraceRing,
    TraceSink, DEFAULT_TRACE_CAP,
};
