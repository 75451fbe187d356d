//! The traced run of one workload: the per-layer table.
//!
//! 1. One untraced iteration under the counting allocator (`alloc.*`).
//! 2. Pairs of untraced and traced iterations at the same seeds: spans
//!    around every call into a layer, each layer's own statistics read out
//!    of the finished world, and the difference between the two medians as
//!    `trace.overhead_pct`.
//! 3. The kernels (`kernels.rs`), and the paired runs some workloads add.
//! 4. `model.explained_share`: kernel cost times that operation's count in
//!    the run, over the untraced median wall.
//!
//! Times are per iteration, medians over the traced iterations. Counts are
//! those of the first traced iteration, which runs `--seed` itself, so they
//! repeat exactly.

use crate::kernels::{self, KernelShape, Records};
use crate::span::{Recorder, Total};
use crate::timed::run_timed;
use minion_benchmark::alloc::{counted, AllocCounts};
use minion_benchmark::report::{write_file, Metric, Report};
use minion_benchmark::spec::{Workload, PER_LAYER};
use minion_benchmark::stats::{median, ratio, Summary};
use minion_benchmark::workloads::{
    dgram_iteration, engine_iteration, shape, DgramShape, DgramWorld, NoProbe, Outcome, Probe,
    Protocol, Shape, Socket,
};
use minion_engine::{Absorb, Histogram, LoadReport, LoadScenario};
use minion_exec::{available_threads, Executor};
use minion_tcp::{ConnStats, SocketOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest pairs of (untraced, traced) iterations, whatever `--seconds` says.
const MIN_PAIRS: usize = 3;
/// Share of `--seconds` the pairs may use; the kernels take the rest.
const PAIRS_SHARE: f64 = 0.7;
/// Iterations behind each side of a paired extra (`tcp.hol_gap_p99_ms`,
/// `obs.stream.overhead_pct`, `exec.shard_speedup`).
const EXTRA_ITERATIONS: u64 = 5;

/// Metrics in virtual milliseconds: seed-determined like the counts, so
/// they too keep the first traced iteration's value.
const VIRTUAL_TIMES: [&str; 3] = [
    "tcp.rto_wait_p99_ms",
    "core.prio.high_p50_ms",
    "core.prio.low_p50_ms",
];

/// Everything one iteration leaves behind that a layer metric reads.
enum World {
    Engine(Box<LoadReport>, ConnStats),
    Dgram(Box<DgramWorld>),
}

/// Per-iteration values by metric name; a workload fills in only the
/// layers it enters.
type Values = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A workload's shape at a seed. The real run passes the table's shapes;
/// the self-tests pass the same shapes shrunk.
type ShapeOf<'a> = &'a dyn Fn(u64) -> Shape;

/// One iteration with spans on: `iteration` is the root span.
fn traced_iteration(shape_of: ShapeOf, seed: u64, rec: &mut Recorder) -> (Outcome, Option<World>) {
    rec.enter("iteration");
    let result = match shape_of(seed) {
        Shape::Engine(scenario) => {
            let mut stats = ConnStats::default();
            let (outcome, report) = engine_iteration(&scenario, |scenario| {
                let (report, client_stats) = run_timed(scenario, rec);
                stats = client_stats;
                report
            });
            (outcome, report.map(|r| World::Engine(Box::new(r), stats)))
        }
        Shape::Dgram(shape) => {
            let (outcome, world) = dgram_iteration(&shape, seed, rec);
            (outcome, world.map(|w| World::Dgram(Box::new(w))))
        }
    };
    rec.exit();
    result
}

/// The same iteration with no spans, keeping what it built (the timed
/// run's `iterate` drops it).
fn untraced_iteration(shape_of: ShapeOf, seed: u64) -> (Outcome, Option<World>) {
    match shape_of(seed) {
        Shape::Engine(scenario) => {
            let (outcome, report) = engine_iteration(&scenario, LoadScenario::run);
            let world = report.map(|r| World::Engine(Box::new(r), ConnStats::default()));
            (outcome, world)
        }
        Shape::Dgram(shape) => {
            let (outcome, world) = dgram_iteration(&shape, seed, &mut NoProbe);
            (outcome, world.map(|w| World::Dgram(Box::new(w))))
        }
    }
}

/// Packets that reached a host in this iteration.
fn packets_delivered(world: &World) -> u64 {
    match world {
        World::Engine(report, _) => report.engine.packets_delivered,
        World::Dgram(w) => both_links(w, |s| s.packets_sent),
    }
}

fn both_links(w: &DgramWorld, field: impl Fn(&minion_simnet::LinkStats) -> u64) -> u64 {
    [(w.sender, w.receiver), (w.receiver, w.sender)]
        .iter()
        .filter_map(|&(a, b)| w.sim.link_stats(a, b))
        .map(field)
        .sum()
}

fn alloc_values(counts: &AllocCounts, outcome: &Outcome, world: &World, values: &mut Values) {
    let allocations = counts.allocations as f64;
    values.insert(
        "alloc.per_packet",
        ratio(allocations, packets_delivered(world) as f64),
    );
    values.insert(
        "alloc.per_record",
        ratio(allocations, outcome.delivered() as f64),
    );
    values.insert(
        "alloc.bytes_per_payload_byte",
        ratio(counts.bytes as f64, outcome.payload_bytes as f64),
    );
    values.insert("alloc.peak_live_mb", counts.peak_live_bytes as f64 / 1e6);
}

/// The values of one traced iteration: span totals plus what each layer
/// says about itself.
fn iteration_values(
    totals: &BTreeMap<&'static str, Total>,
    outcome: &Outcome,
    world: &World,
) -> Values {
    let mut v = Values::new();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let records = outcome.delivered() as f64;
    match world {
        World::Engine(report, stats) => {
            let driver = span("engine.driver");
            v.insert("engine.driver.self_ms", ms(driver.self_ns));
            v.insert(
                "engine.driver.ns_per_record",
                ratio(driver.self_ns as f64, records),
            );
            for (metric, name) in [
                ("engine.transport.new_ms", "engine.transport.new"),
                ("engine.transport.connect_ms", "engine.transport.connect"),
                ("engine.transport.write_ms", "engine.transport.write"),
                ("engine.transport.step_ms", "engine.transport.step"),
                ("engine.transport.read_ms", "engine.transport.read"),
                ("engine.transport.take_ms", "engine.transport.take"),
                ("engine.transport.close_ms", "engine.transport.close"),
            ] {
                v.insert(metric, ms(span(name).total_ns));
            }
            v.insert(
                "engine.transport.step_calls",
                span("engine.transport.step").count as f64,
            );
            v.insert(
                "engine.transport.read_calls",
                span("engine.transport.read").count as f64,
            );

            let phases = report.phases.get();
            for (metric, slot) in [
                ("engine.step.flush_ms", 0),
                ("engine.step.dispatch_ms", 1),
                ("engine.step.timers_ms", 2),
            ] {
                v.insert(metric, ms(phases.nanos(slot)));
            }
            let e = &report.engine;
            v.insert("engine.steps", e.steps as f64);
            v.insert("engine.packets_sent", e.packets_sent as f64);
            v.insert("engine.packets_delivered", e.packets_delivered as f64);
            v.insert("engine.packets_dropped", e.packets_dropped as f64);
            v.insert("engine.timer_fires", e.timer_fires as f64);
            v.insert("engine.flow_polls", e.flow_polls as f64);
            let loop_ns = phases.total_nanos() as f64;
            let packets = e.packets_delivered as f64;
            v.insert("engine.step.ns_per_packet", ratio(loop_ns, packets));
            v.insert("engine.step.packets_per_s", ratio(packets * 1e9, loop_ns));
            v.insert(
                "engine.flow_polls_per_packet",
                ratio(e.flow_polls as f64, packets),
            );

            tcp_values(stats, &mut v);
            v.insert("tcp.rto_wait_p99_ms", ms(report.obs.rto_wait.p99()));
            let counters = &report.obs.counters;
            v.insert(
                "tcp.recvbuf.ooo_share",
                ratio(
                    counters.get(minion_engine::obs::C_CHUNKS_OUT_OF_ORDER) as f64,
                    counters.get(minion_engine::obs::C_CHUNKS_DELIVERED) as f64,
                ),
            );
        }
        World::Dgram(w) => {
            let (send, recv, run) = (span("core.send"), span("core.recv"), span("stack.sim.run"));
            v.insert("core.send.app_ms", ms(send.total_ns));
            v.insert(
                "core.send.ns_per_datagram",
                ratio(send.total_ns as f64, outcome.attempted as f64),
            );
            v.insert("core.recv.app_ms", ms(recv.total_ns));
            v.insert(
                "core.recv.ns_per_datagram",
                ratio(recv.total_ns as f64, records),
            );
            v.insert("stack.sim.run_ms", ms(run.total_ns));
            let offered = both_links(w, |s| s.packets_sent + s.dropped_total());
            v.insert("stack.sim.packets", offered as f64);
            v.insert(
                "stack.sim.ns_per_packet",
                ratio(run.total_ns as f64, offered as f64),
            );
            v.insert(
                "simnet.link.dropped_loss",
                both_links(w, |s| s.dropped_loss) as f64,
            );
            v.insert(
                "simnet.link.dropped_queue",
                both_links(w, |s| s.dropped_queue) as f64,
            );

            let handle = match &w.tx {
                Socket::Ucobs(s) => s.handle(),
                Socket::Utls(s) => s.handle(),
            };
            let stats = w.sim.host(w.sender).tcp_stats(handle);
            tcp_values(stats.expect("sender socket exists"), &mut v);

            if let (Socket::Ucobs(tx), Socket::Ucobs(rx)) = (&w.tx, &w.rx) {
                let s = rx.stats();
                v.insert(
                    "core.ucobs.ooo_share",
                    ratio(s.out_of_order_received as f64, s.datagrams_received as f64),
                );
                v.insert(
                    "core.ucobs.duplicates_suppressed",
                    s.duplicates_suppressed as f64,
                );
                v.insert("core.ucobs.overhead_ratio", tx.stats().overhead_ratio());
            }
            if let Socket::Utls(rx) = &w.rx {
                let s = rx.receiver_stats().expect("uTCP receiver is on");
                let delivered = (s.in_order_delivered + s.out_of_order_delivered) as f64;
                v.insert("tls.utls.candidate_headers", s.candidate_headers as f64);
                v.insert(
                    "tls.utls.mac_attempts_per_record",
                    ratio(s.mac_attempts as f64, delivered),
                );
                v.insert(
                    "tls.utls.ooo_share",
                    ratio(s.out_of_order_delivered as f64, delivered),
                );
                v.insert("tls.utls.prediction_misses", s.prediction_misses as f64);
            }
            if w.high_priority_delay.count() > 0 {
                v.insert("core.prio.high_p50_ms", ms(w.high_priority_delay.p50()));
                v.insert("core.prio.low_p50_ms", ms(w.low_priority_delay.p50()));
            }
        }
    }
    v
}

fn tcp_values(stats: &ConnStats, v: &mut Values) {
    v.insert("tcp.retransmissions", stats.retransmissions as f64);
    v.insert("tcp.fast_retransmits", stats.fast_retransmits as f64);
    v.insert("tcp.rto_fires", stats.timeouts as f64);
    v.insert("tcp.bytes_retransmitted", stats.bytes_retransmitted as f64);
}

/// The kernel inputs a workload's shape calls for.
fn kernel_shape(shape: Shape) -> KernelShape {
    let per_record = |scenario: &LoadScenario| 12 + scenario.record_len;
    match shape {
        Shape::Engine(scenario) => {
            let stream = scenario.records_per_flow * per_record(&scenario);
            let segments = stream.div_ceil(1448);
            KernelShape {
                write_len: stream,
                segment_len: stream.div_ceil(segments),
                flows: scenario.flows,
                writes_per_connection: 1,
                options: if scenario.receiver_utcp {
                    SocketOptions::unordered_receive_only()
                } else {
                    SocketOptions::standard()
                },
                loss: match scenario.loss {
                    minion_simnet::LossConfig::Bernoulli { probability } => probability,
                    _ => 0.0,
                },
                records: Records::Plain,
                priorities: false,
            }
        }
        Shape::Dgram(DgramShape {
            protocol,
            loss,
            datagram_len,
            high_priority_every,
            ..
        }) => {
            // One write and one segment per datagram: its encoded size.
            let (records, on_stream) = match protocol {
                Protocol::Ucobs => (Records::Cobs(datagram_len), datagram_len + 7),
                // Header, explicit IV, MAC, padding to a whole block.
                Protocol::Utls => (
                    Records::Tls(datagram_len),
                    5 + 16 + (datagram_len + 32 + 16) / 16 * 16,
                ),
            };
            KernelShape {
                write_len: on_stream,
                segment_len: on_stream,
                flows: 1,
                writes_per_connection: 200,
                options: SocketOptions::utcp(),
                loss,
                records,
                priorities: high_priority_every.is_some(),
            }
        }
    }
}

/// Σ kernel ns/op × that operation's count in the iteration, in ns. Terms
/// do not overlap: the connection kernel already contains the send and
/// receive buffers and builds (but does not encode) its segments.
fn modelled_ns(kernel: &Values, run: &Values, outcome: &Outcome, shape: &KernelShape) -> f64 {
    let k = |name: &str| kernel.get(name).copied().unwrap_or(0.0);
    let r = |name: &str| run.get(name).copied().unwrap_or(0.0);
    let (sent, delivered) = match shape.records {
        Records::Plain => (r("engine.packets_sent"), r("engine.packets_delivered")),
        _ => (
            r("stack.sim.packets"),
            r("stack.sim.packets") - r("simnet.link.dropped_loss") - r("simnet.link.dropped_queue"),
        ),
    };
    let mut ns = k("tcp.connection.ns_per_segment") * delivered
        + k("stack.wire.encode_ns") * sent
        + k("stack.wire.decode_ns") * delivered
        + k("stack.demux.get_ns") * delivered
        + k("simnet.world.send_drain_ns") * sent;
    let datagrams = outcome.attempted as f64;
    let kb = outcome.payload_bytes as f64 / 1000.0;
    match shape.records {
        Records::Plain => {
            ns += k("engine.wheel.schedule_ns") * r("engine.flow_polls")
                + k("engine.wheel.advance_ns") * r("engine.steps")
                // Delivery delay is recorded twice: pooled and per flow.
                + k("obs.hist.record_ns") * 2.0 * datagrams
                + k("obs.ring.offer_ns") * datagrams;
        }
        Records::Cobs(_) => {
            ns += (k("cobs.encode_ns_per_kb") + k("cobs.scan_ns_per_kb")) * kb
                + k("core.fragment.insert_ns") * datagrams;
        }
        Records::Tls(_) => {
            let ooo = r("tls.utls.ooo_share");
            ns += k("tls.record.seal_ns") * datagrams
                + k("tls.utls.fragment_inorder_ns") * datagrams * (1.0 - ooo)
                + k("tls.utls.fragment_after_hole_ns") * datagrams * ooo;
        }
    }
    ns
}

/// Median wall of `EXTRA_ITERATIONS` runs of each of two variants,
/// alternating which goes first.
fn paired_walls(mut a: impl FnMut(u64), mut b: impl FnMut(u64)) -> (f64, f64) {
    let (mut walls_a, mut walls_b) = (Vec::new(), Vec::new());
    let time = |f: &mut dyn FnMut(u64), i: u64, walls: &mut Vec<f64>| {
        let start = Instant::now();
        f(i);
        walls.push(start.elapsed().as_secs_f64());
    };
    for i in 0..EXTRA_ITERATIONS {
        if i % 2 == 0 {
            time(&mut a, i, &mut walls_a);
            time(&mut b, i, &mut walls_b);
        } else {
            time(&mut b, i, &mut walls_b);
            time(&mut a, i, &mut walls_a);
        }
    }
    (median(&walls_a), median(&walls_b))
}

/// The paired runs only some workloads have.
fn extras(workload: &str, shape_of: ShapeOf, seed: u64, out: Option<&Path>, values: &mut Values) {
    let scenario = |i: u64| match shape_of(seed + i) {
        Shape::Engine(scenario) => scenario,
        Shape::Dgram(_) => unreachable!("extras are engine workloads"),
    };
    match workload {
        "lossy_utcp" => {
            // Head-of-line blocking, measured: the same seeds through an
            // ordered receiver, p99 against p99.
            let mut pooled = [Histogram::new(), Histogram::new()];
            for i in 0..EXTRA_ITERATIONS {
                for (hist, receiver_utcp) in pooled.iter_mut().zip([true, false]) {
                    let variant = LoadScenario {
                        receiver_utcp,
                        ..scenario(i)
                    };
                    hist.absorb(&engine_iteration(&variant, LoadScenario::run).0.delay);
                }
            }
            let [utcp, ordered] = pooled;
            values.insert(
                "tcp.hol_gap_p99_ms",
                (ordered.p99() as f64 - utcp.p99() as f64) / 1e6,
            );

            // The cost of spilling every trace event to a file.
            let dir = out.map_or_else(std::env::temp_dir, Path::to_path_buf);
            let spill = dir.join(format!("stream-{}.jsonl", std::process::id()));
            // Observing is what is measured here, so a directory that
            // cannot be made is an error of the run, not of the metric.
            std::fs::create_dir_all(&dir).expect("output directory");
            let (plain, streamed) = paired_walls(
                |i| drop(scenario(i).run()),
                |i| {
                    let streamed = LoadScenario {
                        trace_stream: Some(spill.display().to_string()),
                        ..scenario(i)
                    };
                    drop(streamed.run());
                },
            );
            let _ = std::fs::remove_file(&spill);
            values.insert(
                "obs.stream.overhead_pct",
                (streamed - plain) / plain * 100.0,
            );
        }
        "churn_small" => {
            // The only place the benchmark starts a second thread.
            let threads = available_threads().min(2);
            let (serial, parallel) = paired_walls(
                |i| drop(scenario(i).run_sharded(1)),
                |i| drop(scenario(i).run_sharded(threads)),
            );
            values.insert("exec.shard_speedup", serial / parallel);

            // What `Executor::run` costs on top of its jobs: one job per
            // shard, each doing nothing.
            let shards = scenario(0).shard_count();
            let runs: Vec<f64> = (0..200)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(Executor::new(1).run(vec![(); shards], |i, ()| i));
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            values.insert("exec.run_overhead_us", median(&runs));
        }
        _ => {}
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: f64, out: Option<&Path>) -> Report {
    run_shapes(
        workload.name,
        &|seed| shape(workload.name, seed),
        seed,
        seconds,
        out,
    )
}

fn run_shapes(
    name: &'static str,
    shape_of: ShapeOf,
    seed: u64,
    seconds: f64,
    out: Option<&Path>,
) -> Report {
    let mut first = Values::new();

    // 1. Allocations: exact, so one iteration says it all.
    let ((outcome, world), counts) = counted(|| untraced_iteration(shape_of, seed));
    if let Some(world) = &world {
        alloc_values(&counts, &outcome, world, &mut first);
    }
    drop(world);

    // 2. Pairs of untraced and traced iterations.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_iteration: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_iteration = None;
    let budget = Duration::from_secs_f64(seconds * PAIRS_SHARE);
    let started = Instant::now();
    while traced_walls.len() < MIN_PAIRS || started.elapsed() < budget {
        let i = traced_walls.len() as u64;
        let start = Instant::now();
        drop(untraced_iteration(shape_of, seed + i));
        untraced_walls.push(start.elapsed().as_secs_f64());

        let mut rec = Recorder::new(i as u32);
        let start = Instant::now();
        let (outcome, world) = traced_iteration(shape_of, seed + i, &mut rec);
        traced_walls.push(start.elapsed().as_secs_f64());
        attempted += outcome.attempted;
        failed += outcome.failed;

        if let Some(world) = &world {
            let values = iteration_values(&rec.totals(), &outcome, world);
            if i == 0 {
                first.extend(values.iter().map(|(k, v)| (*k, *v)));
            }
            for (metric, value) in values {
                per_iteration.entry(metric).or_default().push(value);
            }
        }
        if i == 0 {
            first_iteration = Some((outcome, rec));
        }
    }
    let untraced = Summary::of(&untraced_walls);
    let traced = Summary::of(&traced_walls);
    let (first_outcome, first_spans) = first_iteration.expect("at least one pair ran");
    if let Some(dir) = out {
        let path = dir.join(format!("trace-{name}.jsonl"));
        if let Err(e) = write_file(&path, &first_spans.to_jsonl()) {
            eprintln!("bench-layers: {}: {e}", path.display());
        }
    }

    // Times: medians over the traced iterations. Counts keep the first
    // iteration's value, which the loop above left in `first`.
    let mut values = first.clone();
    let mut spreads = Values::new();
    for (metric, samples) in &per_iteration {
        let unit = PER_LAYER.iter().find(|p| p.name == *metric).map(|p| p.unit);
        if matches!(unit, Some("ms" | "ns" | "1/s")) && !VIRTUAL_TIMES.contains(metric) {
            let summary = Summary::of(samples);
            values.insert(metric, summary.median);
            spreads.insert(metric, summary.spread_of_median());
        }
    }
    values.insert(
        "trace.overhead_pct",
        (traced.median - untraced.median) / untraced.median * 100.0,
    );

    // 3. Kernels and paired extras.
    let kernel_shape = kernel_shape(shape_of(seed));
    let kernel_values: Values = kernels::run(&kernel_shape).into_iter().collect();
    extras(name, shape_of, seed, out, &mut values);

    // 4. How much of the wall the table accounts for.
    let modelled = modelled_ns(&kernel_values, &first, &first_outcome, &kernel_shape);
    values.insert("model.explained_share", modelled / (untraced.median * 1e9));
    values.extend(kernel_values);

    let metrics = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            value: values.get(spec.name).copied(),
            spread: spreads.get(spec.name).copied().unwrap_or(0.0),
        })
        .collect();
    Report {
        workload: name,
        seed,
        attempted,
        failed,
        metrics,
        samples: vec![
            ("untraced_iteration_wall_s", untraced),
            ("traced_iteration_wall_s", traced),
        ],
        pooled_iterations: traced_walls.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_benchmark::spec::WORKLOADS;
    use std::collections::BTreeSet;

    /// Every name a workload emits is in the table, every name in the
    /// table is emitted by some workload, and a workload emits exactly the
    /// layers it enters. (`BENCHMARK.json` equals the table: `spec`'s test.)
    #[test]
    fn emitted_names_are_exactly_the_tables() {
        let table: BTreeSet<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        let mut emitted = BTreeSet::new();
        for workload in &WORKLOADS {
            // The table's shapes, shrunk; `seconds` 0: the fewest pairs.
            let shrunk = |seed| match shape(workload.name, seed) {
                Shape::Engine(scenario) => Shape::Engine(LoadScenario {
                    flows: scenario.flows / 8,
                    ..scenario
                }),
                Shape::Dgram(shape) => Shape::Dgram(DgramShape {
                    datagrams: shape.datagrams / 4,
                    ..shape
                }),
            };
            let report = run_shapes(workload.name, &shrunk, 1, 0.0, None);
            assert_eq!(report.failed, 0, "{}", workload.name);
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            let entered: BTreeSet<&str> = report
                .metrics
                .iter()
                .filter(|m| m.value.is_some())
                .map(|m| m.name)
                .collect();
            let engine = entered.contains("engine.steps");
            assert_eq!(engine, !entered.contains("core.send.app_ms"));
            assert_eq!(
                entered.contains("cobs.scan_ns_per_kb"),
                entered.contains("core.ucobs.ooo_share")
            );
            assert_eq!(
                entered.contains("tls.record.seal_ns"),
                entered.contains("tls.utls.ooo_share")
            );
            assert_eq!(
                entered.contains("core.prio.high_p50_ms"),
                workload.name == "prio_send"
            );
            assert_eq!(
                entered.contains("tcp.hol_gap_p99_ms"),
                workload.name == "lossy_utcp"
            );
            assert_eq!(
                entered.contains("exec.shard_speedup"),
                workload.name == "churn_small"
            );
            for m in &report.metrics {
                assert!(
                    m.value.is_none_or(f64::is_finite),
                    "{} on {}",
                    m.name,
                    workload.name
                );
            }
            emitted.extend(entered);
        }
        assert_eq!(emitted, table);
    }
}
