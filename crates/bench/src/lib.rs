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

use minion_simnet::SimDuration;

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
