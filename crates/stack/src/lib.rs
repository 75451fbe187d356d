//! # minion-stack
//!
//! Simulated end hosts and the event loop for the Minion reproduction: a
//! BSD-sockets-like API (listen / connect / accept / read / write /
//! setsockopt) over the userspace TCP (`minion-tcp`) and a simple UDP, port
//! demultiplexing, transparent middleboxes that re-segment or coalesce TCP
//! streams, and [`Sim`], the one event loop everything runs on — a handful
//! of sockets reached through their host, or thousands of flows driven by
//! readiness (see [`sim`]), with per-flow timers in one exact deadline
//! queue, [`TimerWheel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod demux;
pub mod host;
pub mod middlebox;
pub mod sim;
pub mod wheel;
pub mod wire;

pub use addr::{SocketAddr, SocketHandle};
pub use demux::TupleTable;
pub use host::{Host, HostError};
pub use middlebox::{Middlebox, MiddleboxBehavior, MiddleboxStats};
pub use sim::{FlowId, Reaction, Sim, SimMetrics, SIM_PHASES};
pub use wheel::TimerWheel;
pub use wire::TransportPacket;
