//! Per-flow and aggregate metrics of an engine run.
//!
//! Everything here is integer-valued and `Eq`-comparable: the determinism
//! acceptance check is *byte-identical metrics across two runs of the same
//! seed*, which only works if no floating-point accumulation sneaks in.
//! Derived rates (goodput in bits/s, events per second) are computed as
//! integers from the raw counters.
//!
//! The loop counters are the stack's own
//! [`SimMetrics`](minion_stack::SimMetrics), re-exported once as
//! [`EngineMetrics`]; the fingerprints use simnet's one FNV-1a
//! ([`minion_simnet::fnv1a`]), which every crate imports from there.

use crate::obs::LoadObs;
use minion_obs::{NonDeterministic, PhaseProfile};

/// Aggregate event-loop counters: the stack's own
/// [`SimMetrics`](minion_stack::SimMetrics) on the sim backend, the
/// reactor's equivalents mapped onto the same seven fields on the os backend.
pub use minion_stack::SimMetrics as EngineMetrics;

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
    /// Median delivery delay of the flow's records (ns), exact: the
    /// record [`quantile_rank`](minion_obs::quantile_rank) selects among
    /// the flow's delays in ascending order, the rank rule of the global
    /// [`LoadObs::delivery_delay`] histogram. 0 with no record delivered.
    pub delay_p50_ns: u64,
    /// p99 delivery delay of the flow's records (ns), exact as
    /// [`delay_p50_ns`](Self::delay_p50_ns); with fewer than 100 records it
    /// is the flow's maximum.
    pub delay_p99_ns: u64,
    /// Largest delivery delay of the flow's records (ns).
    pub delay_max_ns: u64,
    /// Fingerprint of how the stream arrived: [`fnv1a`](minion_simnet::fnv1a)
    /// from [`FNV_OFFSET_BASIS`](minion_simnet::FNV_OFFSET_BASIS) over each
    /// delivered chunk's offset and length (`u64` LE) and `in_order` flag
    /// (one byte), in arrival order: the flow's
    /// [`DeliveryCheck::fingerprint`](minion_tcp::DeliveryCheck::fingerprint).
    /// The bytes themselves are not in it: each chunk was checked against
    /// the stream's formula as it arrived.
    /// Chunk boundaries, duplicates and reordering all move it; on a
    /// kernel-TCP backend, whose chunk boundaries vary from run to run, so
    /// does it.
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
