//! Per-congestion-control window telemetry.
//!
//! PR 8 made the congestion-control algorithm a scenario axis, but its
//! window dynamics were invisible beyond two goodput numbers. [`CcObs`] is
//! the deterministic recorder that turns them into data: a bounded ring of
//! cwnd/ssthresh trajectory samples on the **virtual clock** plus
//! fixed-slot [`Histogram`]s of the window and of recovery episodes
//! (duration and depth), all seed-determined, so the byte-identity gates
//! cover them.
//!
//! A connection keeps none of this: it queues a sample at each **window
//! transition** (recovery entry/exit, RTO, cwnd-changing ACKs), not per-ACK,
//! and the scenario driver records its clients' samples into one recorder
//! per run as it drains them, so the ring holds them in virtual-time order
//! and its size is bounded by `cap`. A histogram allocates its slots on its
//! first sample, so a run without recovery pays nothing for the recovery
//! histograms. Timestamps are nanoseconds by the crate-wide convention.

use crate::hist::Histogram;
use std::collections::VecDeque;

/// Default trajectory-ring capacity per recorder. Connections emit a
/// sample per window *transition*, so a lossy flow produces dozens, not
/// millions; a run with more keeps its last `cap`.
const DEFAULT_CC_SAMPLE_CAP: usize = 4096;

/// One cwnd/ssthresh trajectory point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CwndSample {
    /// Timestamp in nanoseconds (virtual on sim, monotonic on os).
    pub t_ns: u64,
    /// Congestion window in bytes at this instant.
    pub cwnd: u64,
    /// Slow-start threshold in bytes at this instant.
    pub ssthresh: u64,
}

/// Deterministic per-algorithm window telemetry: a bounded cwnd/ssthresh
/// trajectory ring plus window / recovery-duration / recovery-depth
/// histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcObs {
    cap: usize,
    samples: VecDeque<CwndSample>,
    recorded: u64,
    dropped: u64,
    cwnd: Histogram,
    recovery_duration: Histogram,
    recovery_depth: Histogram,
}

impl Default for CcObs {
    fn default() -> Self {
        CcObs::new(DEFAULT_CC_SAMPLE_CAP)
    }
}

impl CcObs {
    /// A recorder keeping at most `cap` trajectory samples (`cap == 0`
    /// records histograms only but still counts samples).
    pub fn new(cap: usize) -> Self {
        CcObs {
            cap,
            samples: VecDeque::new(),
            recorded: 0,
            dropped: 0,
            cwnd: Histogram::new(),
            recovery_duration: Histogram::new(),
            recovery_depth: Histogram::new(),
        }
    }

    /// Record a window transition: one trajectory sample (evicting the
    /// oldest if the ring is full) and one cwnd histogram sample.
    pub fn record_window(&mut self, t_ns: u64, cwnd: u64, ssthresh: u64) {
        self.cwnd.record(cwnd);
        self.recorded += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(CwndSample {
            t_ns,
            cwnd,
            ssthresh,
        });
    }

    /// Record a completed recovery episode: how long the connection spent
    /// in recovery (entry→exit, ns) and how deep the window cut was
    /// (cwnd-before − ssthresh-after, bytes).
    pub fn record_recovery(&mut self, duration_ns: u64, depth_bytes: u64) {
        self.recovery_duration.record(duration_ns);
        self.recovery_depth.record(depth_bytes);
    }

    /// Record a window cut that has no episode duration — an RTO cut. Feeds
    /// the depth histogram only, so duration quantiles stay episode-scoped.
    pub fn record_cut_depth(&mut self, depth_bytes: u64) {
        self.recovery_depth.record(depth_bytes);
    }

    /// Trajectory samples currently held, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &CwndSample> + '_ {
        self.samples.iter()
    }

    /// Number of trajectory samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the recorder holds no trajectory samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total trajectory samples ever recorded (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Trajectory samples evicted or rejected by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Histogram of cwnd (bytes) across all recorded transitions.
    pub fn cwnd_hist(&self) -> &Histogram {
        &self.cwnd
    }

    /// Histogram of recovery-episode durations (ns).
    pub fn recovery_duration(&self) -> &Histogram {
        &self.recovery_duration
    }

    /// Histogram of recovery window cuts (bytes).
    pub fn recovery_depth(&self) -> &Histogram {
        &self.recovery_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_cap_and_counts_drops() {
        let mut c = CcObs::new(2);
        for i in 0..3 {
            c.record_window(i, 10_000 + i, 5_000);
        }
        c.record_recovery(1_000_000, 7_200);
        assert_eq!(c.len(), 2);
        assert_eq!(c.recorded(), 3);
        assert_eq!(c.dropped(), 1);
        let ts: Vec<u64> = c.samples().map(|s| s.t_ns).collect();
        assert_eq!(ts, vec![1, 2]);
        assert_eq!(c.cwnd_hist().count(), 3, "histogram sees evicted samples");
        assert_eq!(c.recovery_duration().count(), 1);
        assert_eq!(c.recovery_depth().max(), 7_200);
    }

    #[test]
    fn a_histogram_costs_its_slots_only_once_it_sees_a_sample() {
        // A run without recovery never feeds the recovery histograms.
        let mut c = CcObs::new(4);
        let slots = |c: &CcObs| {
            [c.cwnd_hist(), c.recovery_duration(), c.recovery_depth()].map(|h| h.slots().len())
        };
        assert_eq!(slots(&c), [0, 0, 0]);
        c.record_window(1, 14_400, 7_200);
        assert_eq!(slots(&c), [1024, 0, 0]);
        c.record_cut_depth(7_200);
        assert_eq!(slots(&c), [1024, 0, 1024]);
        // A clone keeps it so.
        assert_eq!(slots(&c.clone()), [1024, 0, 1024]);
    }
}
