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
//!   (one exact timer queue, [`TimerWheel`]; batched packet dispatch;
//!   per-socket demultiplexing; readiness events instead of lockstep
//!   sweeps). This crate drives it through registered flows ([`FlowId`]);
//!   nothing here restricts the topology underneath.
//! * [`Transport`] — packet I/O and time as a trait, so one scenario driver
//!   runs over the simulator ([`SimTransport`]) or a kernel stack
//!   (`minion-osnet`). The chunks, counters and flow statistics it speaks
//!   are the stack's own (tcp's `DeliveredChunk` and `ConnStats`, stack's
//!   `SimMetrics`), re-exported under the engine's names
//!   ([`TransportChunk`], [`TransportFlowStats`], [`EngineMetrics`]).
//! * [`LoadScenario`] — N concurrent flows over one shared link, asserting
//!   exactly-once delivery per flow (every delivered chunk compared with
//!   the stream's formula at its offset, and complete coverage) and, on a
//!   standard receiver, in-order delivery (each chunk starts where the
//!   delivered prefix ends). No stream is stored: the writer builds what it
//!   offers from a cursor. [`verify_load`] adds the two-run
//!   byte-identical-metrics determinism gate. The 1024-flow
//!   acceptance scenario is [`LoadScenario::smoke_1k`], and
//!   `cargo run --release -p minion-bench --bin load_engine` emits its
//!   metrics as `BENCH_engine.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod obs;
pub mod scenario;
pub mod transport;

pub use metrics::{EngineMetrics, FlowMetrics, LoadReport};
pub use obs::LoadObs;
pub use scenario::{verify_load, LoadScenario};
pub use transport::{SimTransport, Transport, TransportChunk, TransportFlowStats};
// The loop's own names, for the drivers that reach it through this crate.
pub use minion_stack::{FlowId, TimerWheel};

// The observability names other crates (osnet, testkit, bench) reach
// through the engine without a direct `minion-obs` dependency.
pub use minion_obs::{
    Absorb, CcObs, FlowDelayMap, Histogram, PhaseProfile, TraceEvent, TraceKind, TraceRing,
    TraceSink, DEFAULT_TRACE_CAP,
};
