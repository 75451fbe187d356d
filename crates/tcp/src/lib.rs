//! # minion-tcp
//!
//! A userspace TCP implementation with the paper's **uTCP** extensions
//! ("Fitting Square Pegs Through Round Pipes", NSDI 2012, §4).
//!
//! The crate provides a faithful, deterministic TCP endpoint — handshake,
//! cumulative/selective acknowledgments, RTT estimation, retransmission
//! timeouts, fast retransmit with NewReno recovery, congestion and flow
//! control, delayed ACKs, and orderly close — plus the two uTCP socket
//! options:
//!
//! * [`SocketOptions::unordered_receive`] (`SO_UNORDERED`): arriving segments
//!   are handed to the application immediately, each tagged with its logical
//!   stream offset ([`DeliveredChunk`]), without waiting for earlier holes to
//!   fill. Wire-visible behaviour (ACKs, SACKs, advertised window) is
//!   unchanged.
//! * [`SocketOptions::unordered_send`] (`SO_UNORDEREDSEND`): application
//!   writes carry a priority tag ([`WriteMeta`]) and may pass lower-priority
//!   writes that have not yet been transmitted; an optional squash flag
//!   discards superseded untransmitted writes.
//!
//! The connection object is sans-I/O: it consumes arriving [`TcpSegment`]s,
//! produces outgoing segments from [`TcpConnection::poll`], and is driven by
//! virtual time ([`minion_simnet::SimTime`]), making it usable both under the
//! discrete-event simulator (`minion-stack`) and in unit tests.
//!
//! Who owns what on the sending side: `recovery` holds all loss-recovery
//! state (the fast-recovery episode, the RFC 6582 recover point, the
//! duplicate-ACK run, whether the segment at the ACK point is due again),
//! `reliability` the scoreboard of transmitted ranges (in flight, SACKed or
//! lost: the lost marks are what go-back-N still owes), Karn-safe RTT
//! sampling and the RTO timer, and `cc` the window arithmetic for the
//! algorithm [`CcAlgorithm`] names. [`TcpConnection`] wires them to the wire, and [`ConnStats`] is the
//! one set of counters.
//!
//! On the application side, [`DeliveryCheck`] is the repository's one check
//! of what a receiver delivered: the load engine, the scenario matrix and
//! the figure apps write their streams and datagrams from one formula
//! ([`Record`], [`fill_stream`]) and compare every delivery with it in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cc;
mod check;
pub mod config;
pub mod connection;
pub mod delivered;
pub mod event;
mod recovery;
pub mod recvbuf;
mod reliability;
mod rtt;
pub mod segment;
pub mod sendbuf;
pub mod seq;

pub use check::{fill_stream, DeliveryCheck, Record, Violation};
pub use config::{CcAlgorithm, SocketOptions, TcpConfig, WriteMeta};
pub use connection::{ConnStats, TcpConnection, TcpError, TcpState};
pub use delivered::DeliveredChunk;
pub use event::{ConnEvent, Readiness};
pub use recvbuf::{ReceiveBuffer, RecvStats};
pub use segment::{SackBlock, TcpFlags, TcpOption, TcpSegment};
pub use sendbuf::{BufferFull, SendBuffer};
pub use seq::SeqNum;
