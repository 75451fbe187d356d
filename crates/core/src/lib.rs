//! # minion-core
//!
//! The Minion public API ("Fitting Square Pegs Through Round Pipes",
//! NSDI 2012): unordered datagram delivery that is wire-compatible with TCP
//! and TLS.
//!
//! Minion acts as a "packhorse" for application datagrams (§3): applications
//! pick a protocol — [`UcobsSocket`] for plain datagrams over TCP/uTCP,
//! [`UtlsSocket`] for secure datagrams indistinguishable from HTTPS on the
//! wire, the [`UdpShim`] where UDP works, or the conventional in-order
//! [`TcpTlvSocket`] baseline — and get the same datagram send/receive API
//! and the same [`DatagramStats`], unified by [`MinionTransport`].
//!
//! All endpoints run over the simulated hosts of `minion-stack`; the same
//! protocol state machines would sit unchanged on top of a kernel uTCP.
//!
//! uTCP's `(offset, bytes)` deliveries are reassembled in the one
//! [`FragmentStore`], re-exported here from `minion-tls`, and each
//! connection's stream has one holder: [`UcobsSocket`] keeps a store of its
//! own, while [`UtlsSocket`] keeps none and hands every chunk to its TLS
//! session, whose receiver holds the stream from the hello's first byte
//! (through a handshake epoch, then the application epoch under the derived
//! keys).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod negotiate;
pub mod shims;
pub mod transport;
pub mod ucobs;
pub mod utls_socket;

pub use config::{MinionConfig, Protocol};
pub use minion_tls::FragmentStore;
pub use negotiate::{choose_protocol, AppRequirements, PathCapabilities};
pub use shims::{TcpTlvSocket, UdpShim};
pub use transport::MinionTransport;
pub use ucobs::{Datagram, DatagramStats, UcobsSocket};
pub use utls_socket::UtlsSocket;
