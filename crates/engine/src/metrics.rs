//! Per-flow and aggregate metrics of an engine run.
//!
//! Everything here is integer-valued and `Eq`-comparable: the determinism
//! acceptance check is *byte-identical metrics across two runs of the same
//! seed*, which only works if no floating-point accumulation sneaks in.
//! Derived rates (goodput in bits/s, events per second) are computed as
//! integers from the raw counters.

use crate::obs::LoadObs;
use minion_obs::{NonDeterministic, PhaseProfile};

// The single canonical fingerprint functions (the determinism gates compare
// these values across crates, so there must be exactly one definition — it
// lives in `minion_simnet::hash`, below every consumer; re-exported here
// under the names the engine's consumers have always used).
pub use minion_simnet::{fnv1a, FNV_OFFSET_BASIS};

/// Aggregate event-loop counters: [`minion_stack::SimMetrics`] on the sim
/// backend, the reactor's equivalents on the os backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Event-loop iterations.
    pub steps: u64,
    /// Packets handed to hosts (arrival dispatches).
    pub packets_delivered: u64,
    /// Packets offered to the network by flow polls.
    pub packets_sent: u64,
    /// Wire bytes (payload + framing) of offered packets.
    pub bytes_sent: u64,
    /// Offered packets dropped by loss models or queue overflow.
    pub packets_dropped: u64,
    /// Timer expiries dispatched.
    pub timer_fires: u64,
    /// Per-flow polls executed (each may emit several segments).
    pub flow_polls: u64,
}

impl EngineMetrics {
    /// Total dispatched events (arrivals + timer fires).
    pub fn events(&self) -> u64 {
        self.packets_delivered + self.timer_fires
    }
}

/// What one flow did over a whole load scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowMetrics {
    /// Flow index within the scenario (0-based).
    pub flow: u32,
    /// Application payload bytes fully delivered (after reassembly).
    pub bytes_delivered: u64,
    /// Framed records fully delivered.
    pub records_delivered: u64,
    /// Delivery chunks that arrived out of order (uTCP receivers only).
    pub chunks_out_of_order: u64,
    /// Sender-side data-segment retransmissions.
    pub retransmissions: u64,
    /// Sender-side fast-retransmit (recovery-entry) events.
    pub fast_retransmits: u64,
    /// Sender-side retransmission timeouts.
    pub rto_fires: u64,
    /// Virtual time (µs) at which the flow's stream was complete.
    pub completion_us: u64,
    /// Fingerprint of how the stream arrived: [`fnv1a`] from
    /// [`FNV_OFFSET_BASIS`] over each delivered chunk's offset and length
    /// (`u64` LE) and `in_order` flag (one byte), in arrival order. The
    /// bytes themselves are not in it: each chunk was checked against the
    /// stream's formula as it arrived. Chunk boundaries, duplicates and
    /// reordering all move it; on a kernel-TCP backend, whose chunk
    /// boundaries vary from run to run, so does it.
    pub fingerprint: u64,
}

/// The full, deterministic result of one load scenario run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Scenario label (axes summary).
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Number of concurrent flows.
    pub flows: u64,
    /// Records sent across all flows.
    pub records_sent: u64,
    /// Records fully delivered across all flows.
    pub records_delivered: u64,
    /// Application payload bytes delivered across all flows.
    pub total_bytes: u64,
    /// Virtual time (µs) at which the last flow completed.
    pub completion_us: u64,
    /// Aggregate goodput in bits per virtual second.
    pub goodput_bps: u64,
    /// Dispatched events per virtual second.
    pub events_per_sim_sec: u64,
    /// Event-loop counters, snapshotted at the end of the load phase
    /// (the FIN/TIME-WAIT close-out is excluded so rates describe the load).
    pub engine: EngineMetrics,
    /// Deterministic observability: delivery-delay / RTO / staging-dwell
    /// histograms, event counters, and the lifecycle trace ring — all
    /// covered by the byte-identity gates.
    pub obs: LoadObs,
    /// Wall-clock phase profile of the backend's event loop. **Not**
    /// deterministic (it times real CPU work), so it rides inside
    /// [`NonDeterministic`] — invisible to `==`, visible to humans.
    pub phases: NonDeterministic<PhaseProfile>,
    /// Per-flow metrics, indexed by flow.
    pub per_flow: Vec<FlowMetrics>,
}

impl LoadReport {
    /// A compact one-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: {}/{} records, {} B in {:.1} ms, goodput {:.2} Mbit/s, \
             {} events ({}/sim-s)",
            self.label,
            self.records_delivered,
            self.records_sent,
            self.total_bytes,
            self.completion_us as f64 / 1000.0,
            self.goodput_bps as f64 / 1e6,
            self.engine.events(),
            self.events_per_sim_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sums_arrivals_and_timers() {
        let m = EngineMetrics {
            packets_delivered: 10,
            timer_fires: 3,
            ..Default::default()
        };
        assert_eq!(m.events(), 13);
    }

    #[test]
    fn report_summary_mentions_key_figures() {
        let r = LoadReport {
            label: "x".into(),
            seed: 1,
            flows: 2,
            records_sent: 4,
            records_delivered: 4,
            total_bytes: 1000,
            completion_us: 2_000,
            goodput_bps: 4_000_000,
            events_per_sim_sec: 500,
            engine: EngineMetrics::default(),
            obs: LoadObs::default(),
            phases: NonDeterministic::default(),
            per_flow: vec![],
        };
        let s = r.summary();
        assert!(s.contains("4/4 records"));
        assert!(s.contains("4.00 Mbit/s"));
        assert!(s.contains("(500/sim-s)"));
    }
}
