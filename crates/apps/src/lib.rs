//! # minion-apps
//!
//! Application models used by the Minion evaluation (§8): the constant-rate
//! VoIP source with a playout buffer and quality estimation, bulk-transfer
//! sources/sinks and competing flows, the VPN tunnel gateway carrying inner
//! TCP flows over a Minion transport, and the trace-driven web workload
//! comparing pipelined HTTP/1.1 with parallel requests over msTCP.
//!
//! Each model is written against the public Minion / stack APIs so the same
//! code runs over uCOBS, uTLS, UDP, or the plain-TCP baseline — which is how
//! the benchmark harness (`minion-bench`) regenerates every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod voip;
pub mod vpn;
pub mod web;

pub use bulk::{BulkSender, BulkSink, CompetingFlow};
pub use voip::{VoipReceiver, VoipReport, VoipSource, VoipSourceConfig};
pub use vpn::TunnelGateway;
pub use web::{generate_trace, load_page_mstcp, load_page_pipelined_tcp, PageLoadMetrics, WebPage};
