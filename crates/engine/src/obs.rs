//! Load-scenario observability: what the paper actually argues about.
//!
//! The existing [`LoadReport`](crate::LoadReport) counters say how much got
//! through and how fast in aggregate; [`LoadObs`] says *when each record
//! arrived* — the per-record delivery-delay distribution that separates
//! ordered TCP (head-of-line blocking inflates the tail) from uTCP
//! (unordered delivery keeps later records out of earlier losses' shadow).
//! It bundles:
//!
//! * [`Histogram`]s — delivery delay (send-enqueue → app-deliver), RTO wait
//!   (per-timer arm → fire), and send-stream staging dwell, all in
//!   nanoseconds of backend time (virtual on sim, monotonic on os). Which
//!   flows own the delivery-delay tail is not recorded here: each flow's
//!   report row ([`FlowMetrics`](crate::FlowMetrics)) summarises its own
//!   records' delays exactly;
//! * a [`CounterSet`] over fixed slots (one `C_*` constant names each) and
//!   the coverage high-water mark;
//! * a [`TraceRing`] of per-flow lifecycle events (SYN, first byte, record
//!   delivery, retransmit, RTO, FIN), dumpable as JSONL via
//!   `load_engine --trace-out`.
//!
//! One `LoadObs` records one run in one world, so it is never merged: it is
//! a pure function of the scenario and its seed, and the determinism gates
//! compare it whole.

use minion_obs::{CcObs, CounterSet, Histogram, StreamSink, StreamStats, TraceEvent, TraceRing};
use minion_simnet::{fnv1a, FNV_OFFSET_BASIS};

/// Slot: delivery chunks read from the transport.
pub const C_CHUNKS_DELIVERED: usize = 0;
/// Slot: delivery chunks that arrived out of stream order.
pub const C_CHUNKS_OUT_OF_ORDER: usize = 1;
/// Slot: retransmission edges observed (consecutive duplicates collapse in
/// the connection's event queue, so this undercounts dense bursts; the exact
/// per-flow count lives in `FlowMetrics::retransmissions`).
pub const C_RETRANSMIT_EDGES: usize = 2;
/// Slot: RTO-fired edges observed.
pub const C_RTO_EDGES: usize = 3;
/// Counter slots of [`LoadObs::counters`] (fixed at compile time, so a
/// report's registry has the same slots whichever code paths ran).
const LOAD_COUNTER_SLOTS: usize = C_RTO_EDGES + 1;

/// Deterministic observability of one load-scenario run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadObs {
    /// Per-record delivery delay: send-enqueue → app-deliver, nanoseconds.
    pub delivery_delay: Histogram,
    /// RTO wait: how long each fired retransmission timer was armed
    /// (arm → fire, nanoseconds) — the realized timeout, including backoff.
    pub rto_wait: Histogram,
    /// Staging dwell of send streams: from the stream being built at
    /// connect until the transport has accepted its last byte (0 when the
    /// whole stream fits the send buffer), nanoseconds.
    pub staging_dwell: Histogram,
    /// Event counters, one slot per `C_*` constant.
    pub counters: CounterSet,
    /// Most disjoint coverage ranges any flow's receive stream held at
    /// once: a direct measure of how fragmented unordered delivery got.
    pub coverage_ranges_high_water: u64,
    /// Lifecycle trace, bounded to the last
    /// [`DEFAULT_TRACE_CAP`](minion_obs::DEFAULT_TRACE_CAP) events.
    pub trace: TraceRing,
    /// Accounting of the zero-drop stream, when the run spilled its trace
    /// to a file (all-zero otherwise). The stream itself holds an OS
    /// writer and never enters the report — only its deterministic
    /// counters do.
    pub stream: StreamStats,
    /// Congestion-control window telemetry of the run's client flows,
    /// recorded from their window samples as the driver drains them, so
    /// the trajectory ring holds them in virtual-time order.
    pub cc_obs: CcObs,
}

impl Default for LoadObs {
    fn default() -> Self {
        LoadObs {
            delivery_delay: Histogram::new(),
            rto_wait: Histogram::new(),
            staging_dwell: Histogram::new(),
            counters: CounterSet::new(LOAD_COUNTER_SLOTS),
            coverage_ranges_high_water: 0,
            trace: TraceRing::default(),
            stream: StreamStats::default(),
            cc_obs: CcObs::default(),
        }
    }
}

impl LoadObs {
    /// The trace path: keep `ev` in the ring, then spill it to `stream`.
    pub(crate) fn record_event(&mut self, stream: &mut Option<StreamSink>, ev: TraceEvent) {
        self.trace.push(ev);
        if let Some(s) = stream {
            s.offer(&ev);
        }
    }

    /// Order-sensitive FNV-1a fingerprint of the trace ring's event stream
    /// (the compact form the determinism gates compare).
    pub fn trace_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        for ev in self.trace.events() {
            fnv1a(&mut h, &ev.t_ns.to_be_bytes());
            fnv1a(&mut h, &ev.flow.to_be_bytes());
            fnv1a(&mut h, &ev.seq.to_be_bytes());
            fnv1a(&mut h, ev.kind.as_str().as_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_obs::TraceKind;

    fn event(t_ns: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            flow: t_ns as u32,
            seq: 0,
            kind: TraceKind::Syn,
        }
    }

    #[test]
    fn trace_fingerprint_is_order_sensitive() {
        let trace = |order: [u64; 2]| {
            let mut o = LoadObs::default();
            for t_ns in order {
                o.trace.push(event(t_ns));
            }
            o
        };
        let (ab, ba) = (trace([1, 2]), trace([2, 1]));
        assert_ne!(ab.trace_fingerprint(), ba.trace_fingerprint());
        assert_eq!(ab.trace_fingerprint(), ab.clone().trace_fingerprint());
        assert_eq!(LoadObs::default().trace_fingerprint(), FNV_OFFSET_BASIS);
    }
}
