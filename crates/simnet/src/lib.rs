//! # minion-simnet
//!
//! A small, deterministic, discrete-event network simulator used as the
//! testbed substrate for the Minion reproduction ("Fitting Square Pegs
//! Through Round Pipes", NSDI 2012).
//!
//! The paper's experiments run on three Linux machines with a dummynet
//! middlebox emulating link bandwidth, delay, and loss. This crate plays the
//! same role in software: it models point-to-point links with a serialization
//! rate, propagation delay, a drop-tail queue, and configurable random loss,
//! and moves opaque packets between nodes in virtual time.
//!
//! Layering:
//!
//! * [`World`] holds the topology and packets in flight.
//! * [`Link`]s apply rate/delay/queue/loss.
//! * Higher-level crates (`minion-stack`, `minion-tcp`) implement hosts and
//!   transport protocols on top, and the experiment harness advances virtual
//!   time by draining the world's event queue.
//!
//! Everything is single-threaded and deterministic given a seed, so paper
//! figures regenerate bit-identically across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod link;
pub mod loss;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod time;
pub mod world;

pub use hash::{fnv1a, FNV_OFFSET_BASIS};
pub use link::{Link, LinkConfig, LinkStats, TransmitOutcome};
pub use loss::{LossConfig, LossModel};
pub use packet::{NodeId, Packet};
pub use rng::SimRng;
pub use stats::{Distribution, Table, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use world::{SendOutcome, World};
