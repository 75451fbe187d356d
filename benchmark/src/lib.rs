//! The repo benchmark: six workloads, eight end-to-end metrics, and a
//! per-layer cost table timed from outside. See `README.md`.
//!
//! This library is what both binaries share, and it binds only to the
//! program's top-level API. Everything that calls into a single layer lives
//! in the `bench-layers` binary, so a signature change inside a layer can
//! break only that binary.

pub mod alloc;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
