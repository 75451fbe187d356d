//! # minion-bench
//!
//! The evaluation harness: one module per figure/table of the paper's §8,
//! each exposing a `run*` function that executes the experiment in the
//! simulator and returns a [`minion_simnet::Table`] with the same rows or
//! series the paper plots. Binaries under `src/bin/` print one figure each,
//! and `all_figures` prints them all. Beside them, `load_engine` and
//! `sweep_matrix` drive the multi-flow engine and the scenario matrix and
//! write `BENCH_engine.json` / `BENCH_sweep.json` through [`json`], and
//! `table1_code_size` counts the workspace ([`table1`]).
//!
//! Experiment sizes default to "quick" parameters so the whole suite runs in
//! minutes; set `MINION_FULL=1` to use paper-scale parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fig05;
pub mod fig06;
pub mod fig10;
pub mod fig13;
pub mod json;
pub mod table1;
pub mod voip_experiments;
pub mod vpn_experiments;

use minion_core::{MinionConfig, MinionTransport, Protocol};
use minion_simnet::{NodeId, SimDuration};
use minion_stack::{Reaction, Sim, SocketAddr};

/// Experiment scale: quick (CI-friendly) or full (closer to paper scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small parameters, minutes of wall-clock for the whole suite.
    Quick,
    /// Paper-scale parameters (tens of minutes).
    Full,
}

impl Scale {
    /// Read the scale from the `MINION_FULL` environment variable.
    pub fn from_env() -> Scale {
        if std::env::var("MINION_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Bytes for bulk/CPU transfers.
    pub fn transfer_bytes(self) -> u64 {
        match self {
            Scale::Quick => 1_500_000,
            Scale::Full => 30_000_000,
        }
    }

    /// VoIP call length for figures 7/8.
    pub fn voip_duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(30),
            Scale::Full => SimDuration::from_secs(120),
        }
    }

    /// Minutes for the figure 9 progressive-contention call.
    pub fn voip_minutes(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 4,
        }
    }

    /// Duration of each VPN run.
    pub fn vpn_duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(20),
            Scale::Full => SimDuration::from_secs(120),
        }
    }

    /// Pages in the web trace.
    pub fn web_pages(self) -> usize {
        match self {
            Scale::Quick => 9,
            Scale::Full => 60,
        }
    }

    /// Messages for the prioritization experiment.
    pub fn priority_messages(self) -> usize {
        match self {
            Scale::Quick => 1500,
            Scale::Full => 8000,
        }
    }
}

/// Default seed used by the figure binaries.
pub const DEFAULT_SEED: u64 = 42;

/// Listen with `protocol` on `server:port`, connect from `client`, and drive
/// `sim` until the server has accepted and both ends are established (uTLS
/// runs its handshake here). Returns the client's end and the server's.
pub(crate) fn connect_pair(
    sim: &mut Sim,
    protocol: Protocol,
    config: &MinionConfig,
    client: NodeId,
    server: NodeId,
    port: u16,
) -> (MinionTransport, MinionTransport) {
    MinionTransport::listen(protocol, sim.host_mut(server), port, config).expect("listen");
    let now = sim.now();
    let remote = SocketAddr::new(server, port);
    let mut tx = MinionTransport::connect(protocol, sim.host_mut(client), remote, config, now)
        .expect("connect");
    let mut rx = None;
    let deadline = now + SimDuration::from_secs(20);
    let up = sim.drive(deadline, |sim| {
        if rx.is_none() {
            rx = MinionTransport::accept(protocol, sim.host_mut(server), port, config);
        }
        let Some(rx) = rx.as_mut() else {
            return Reaction::Wait(None);
        };
        // Nothing is sent before both ends are up: only handshake bytes
        // arrive here.
        rx.recv(sim.host_mut(server));
        tx.recv(sim.host_mut(client));
        if tx.is_established(sim.host(client)) && rx.is_established(sim.host(server)) {
            Reaction::Done
        } else {
            Reaction::Wait(None)
        }
    });
    assert!(up, "{protocol:?} connection never established");
    (tx, rx.expect("accepted"))
}
