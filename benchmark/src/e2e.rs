//! The timed run of one workload: set-up, timed iterations, and the eight
//! end-to-end metrics.
//!
//! One thread. Every iteration builds a fresh world, so world construction,
//! handshakes and the FIN exchange are inside the timed region: users pay
//! them on every run. Work per iteration is fixed by the shape, so
//! throughput is per-iteration work over the **median** iteration wall.

use crate::report::{Metric, Report};
use crate::spec::{Workload, END_TO_END, SETUPS, SETUP_SECONDS, WARMUP_SEED};
use crate::stats::{ratio, Summary};
use crate::workloads::{dgram_iteration, engine_iteration, shape, NoProbe, Outcome, Shape};
use minion_engine::{Absorb, LoadScenario};
use std::time::{Duration, Instant};

/// One iteration at `seed`: inputs generated, a fresh world run, and
/// everything it built dropped before returning (tear-down is part of what
/// a user pays).
pub fn iterate(workload: &str, seed: u64) -> Outcome {
    match shape(workload, seed) {
        Shape::Engine(scenario) => engine_iteration(&scenario, LoadScenario::run).0,
        Shape::Dgram(shape) => dgram_iteration(&shape, seed, &mut NoProbe).0,
    }
}

/// Virtual-time and count results pooled over a workload's fixed
/// iterations; a function of the seed alone.
#[derive(Default)]
pub struct Pooled {
    pub iterations: usize,
    pub outcome: Outcome,
}

impl Pooled {
    pub fn add(&mut self, outcome: &Outcome) {
        self.iterations += 1;
        self.outcome.absorb(outcome);
    }

    /// The four seed-determined end-to-end metrics, in `END_TO_END` order.
    pub fn virtual_metrics(&self) -> [f64; 4] {
        let o = &self.outcome;
        [
            o.delay.p50() as f64 / 1e6,
            o.delay.p99() as f64 / 1e6,
            ratio((o.payload_bytes * 8) as f64, o.virtual_us as f64),
            ratio(o.wire_bytes as f64, o.payload_bytes as f64),
        ]
    }
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Run one workload for at least `workload.iterations` timed iterations and
/// at least `seconds` of timed wall.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Report {
    // Set-up = one warm-up iteration with its input generation. The first
    // starts at process start and pays the cold caches; the median of
    // several is what a later change is held to. Nothing carries over from
    // set-up into the timed iterations but warm caches.
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < SETUPS || setting_up.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        iterate(workload.name, WARMUP_SEED);
        setups.push(start.elapsed().as_secs_f64());
    }
    let setup = Summary::of(&setups);

    let mut pooled = Pooled::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let timed = Instant::now();
    while walls.len() < workload.iterations || timed.elapsed() < budget {
        let i = walls.len();
        let start = Instant::now();
        let outcome = iterate(workload.name, seed + i as u64);
        walls.push(start.elapsed().as_secs_f64());
        attempted += outcome.attempted;
        failed += outcome.failed;
        if i < workload.iterations {
            pooled.add(&outcome);
        }
    }
    let wall = Summary::of(&walls);

    let per_iteration = |total: u64| total as f64 / pooled.iterations as f64;
    let [p50, p99, goodput, overhead] = pooled.virtual_metrics();
    let values = [
        setup.median,
        per_iteration(pooled.outcome.payload_bytes) / 1e6 / wall.median,
        per_iteration(pooled.outcome.delivered()) / wall.median,
        p50,
        p99,
        goodput,
        overhead,
        peak_rss_mb(),
    ];
    // Run-to-run spread of each metric, for `compare`: the two throughputs
    // share the iteration walls; the rest are single values.
    let spreads = [
        setup.spread_of_median(),
        wall.spread_of_median(),
        wall.spread_of_median(),
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .zip(spreads)
        .map(|((spec, value), spread)| Metric {
            name: spec.name,
            unit: spec.unit,
            value: Some(value),
            spread,
        })
        .collect();

    Report {
        workload: workload.name,
        seed,
        attempted,
        failed,
        metrics,
        samples: vec![("iteration_wall_s", wall), ("setup_s", setup)],
        pooled_iterations: pooled.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{tiny_dgram_shape, DgramShape, Protocol};

    /// Two in-process runs at one seed pool to identical virtual-time
    /// metrics and identical allocation counts.
    #[test]
    fn virtual_time_metrics_and_allocations_repeat_exactly() {
        let engine = LoadScenario {
            seed: 11,
            flows: 24,
            ..LoadScenario::obs_comparison(true)
        };
        let dgram = DgramShape {
            datagrams: 200,
            ..tiny_dgram_shape(Protocol::Ucobs)
        };
        let once = || {
            crate::alloc::counted(|| {
                let mut pooled = Pooled::default();
                for i in 0..3 {
                    let scenario = LoadScenario {
                        seed: engine.seed + i,
                        ..engine.clone()
                    };
                    pooled.add(&engine_iteration(&scenario, LoadScenario::run).0);
                    pooled.add(&dgram_iteration(&dgram, 11 + i, &mut NoProbe).0);
                }
                assert_eq!(pooled.outcome.failed, 0);
                pooled.virtual_metrics()
            })
        };
        let (first, first_allocs) = once();
        let (second, second_allocs) = once();
        assert_eq!(first, second);
        assert_eq!(first_allocs, second_allocs);
        assert!(first.iter().all(|v| *v > 0.0), "{first:?}");
        assert!(first_allocs.allocations > 1000);
    }
}
