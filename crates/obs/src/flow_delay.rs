//! Per-flow delivery-delay attribution: a bounded map of compact
//! per-flow histograms.
//!
//! The global delivery-delay [`Histogram`](crate::Histogram) answers
//! *whether* the tail moved but not *who* moved it — one HoL-blocked flow
//! under ordered TCP is averaged into a thousand healthy ones. A
//! [`FlowDelayMap`] keeps a [`DelayDigest`] per flow — the same
//! [`Hist`] layout as the global histogram at 4 sub-buckets per octave
//! instead of 16 (per-flow quantiles tolerate ~12 % in-octave resolution in
//! exchange for 2 KiB instead of 8 KiB per flow, so thousands of flows fit)
//! — and surfaces the K worst flows by p99, making a tail regression
//! attributable to a flow instead of averaged away.
//!
//! The map bound only matters when a scenario exceeds
//! [`DEFAULT_FLOW_DELAY_CAP`] flows; samples for flows that don't fit are
//! counted in `overflow_samples`, never silently lost.

use crate::hist::Hist;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Most flows a [`FlowDelayMap`] tracks individually before overflow
/// accounting kicks in (~8 MiB of digests at the cap).
const DEFAULT_FLOW_DELAY_CAP: usize = 4096;

/// A compact per-flow delay histogram: 4 linear sub-buckets per octave.
pub type DelayDigest = Hist<2>;

/// A bounded map of per-flow [`DelayDigest`]s keyed by global flow
/// index.
///
/// Samples for flows beyond the bound are tallied in
/// [`overflow_samples`](Self::overflow_samples) rather than silently
/// dropped, so the artifact always discloses its own coverage. Ordered
/// (`BTreeMap`) so iteration — and therefore serialization — is
/// deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowDelayMap {
    cap: usize,
    flows: BTreeMap<u32, DelayDigest>,
    overflow_samples: u64,
}

impl Default for FlowDelayMap {
    fn default() -> Self {
        FlowDelayMap::new(DEFAULT_FLOW_DELAY_CAP)
    }
}

impl FlowDelayMap {
    /// A map tracking at most `cap` distinct flows.
    pub fn new(cap: usize) -> Self {
        FlowDelayMap {
            cap,
            flows: BTreeMap::new(),
            overflow_samples: 0,
        }
    }

    /// Record one delay sample for `flow`. Existing flows always record;
    /// a new flow is admitted only if the map has room, otherwise the
    /// sample lands in the overflow tally.
    pub fn record(&mut self, flow: u32, value: u64) {
        if let Some(d) = self.flows.get_mut(&flow) {
            d.record(value);
        } else if self.flows.len() < self.cap {
            let mut d = DelayDigest::new();
            d.record(value);
            self.flows.insert(flow, d);
        } else {
            self.overflow_samples += 1;
        }
    }

    /// Distinct flows tracked.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow has recorded yet.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Samples that arrived for flows beyond the bound.
    pub fn overflow_samples(&self) -> u64 {
        self.overflow_samples
    }

    /// Total samples across all tracked flows (excludes overflow).
    pub fn total_samples(&self) -> u64 {
        self.flows.values().map(|d| d.count()).sum()
    }

    /// One flow's digest, if tracked.
    pub fn get(&self, flow: u32) -> Option<&DelayDigest> {
        self.flows.get(&flow)
    }

    /// All tracked flows in ascending flow order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &DelayDigest)> + '_ {
        self.flows.iter().map(|(&f, d)| (f, d))
    }

    /// The `k` worst flows by p99, ties broken by ascending flow index
    /// (a total order, so the ranking is deterministic).
    pub fn top_k(&self, k: usize) -> Vec<(u32, &DelayDigest)> {
        let mut rows: Vec<(u32, &DelayDigest)> = self.iter().collect();
        // p99 walks the digest's slots: once per flow, not per comparison.
        rows.sort_by_cached_key(|&(flow, d)| (Reverse(d.p99()), flow));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_tracks_flows_up_to_cap_and_tallies_overflow() {
        let mut m = FlowDelayMap::new(2);
        m.record(7, 100);
        m.record(3, 200);
        m.record(9, 300); // no room → overflow
        m.record(7, 400); // existing flow always records
        assert_eq!(m.len(), 2);
        assert_eq!(m.overflow_samples(), 1);
        assert_eq!(m.total_samples(), 3);
        assert_eq!(m.get(7).unwrap().count(), 2);
        assert!(m.get(9).is_none());
        // Iteration is flow-ordered.
        let flows: Vec<u32> = m.iter().map(|(f, _)| f).collect();
        assert_eq!(flows, vec![3, 7]);
    }

    #[test]
    fn top_k_sorts_by_p99_desc_with_flow_tiebreak() {
        let mut m = FlowDelayMap::default();
        // Flow 5: slow tail. Flows 1 and 2: identical distributions
        // (tie → ascending flow index). Flow 8: fast.
        for _ in 0..100 {
            m.record(5, 1_000_000);
            m.record(1, 50_000);
            m.record(2, 50_000);
            m.record(8, 1_000);
        }
        let top = m.top_k(3);
        let flows: Vec<u32> = top.iter().map(|&(f, _)| f).collect();
        assert_eq!(flows, vec![5, 1, 2]);
        assert_eq!(top[0].1.p99(), 1_000_000);
        // Stability: recomputing gives the same order.
        assert_eq!(
            m.top_k(3).iter().map(|&(f, _)| f).collect::<Vec<_>>(),
            flows
        );
        // k beyond the population returns everything.
        assert_eq!(m.top_k(100).len(), 4);
    }
}
