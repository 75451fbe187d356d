//! The engine load benchmark: drive multi-flow load scenarios through the
//! `minion-engine` scenario driver, each scenario one world whose flows all
//! share one bottleneck link, and write `BENCH_engine.json`.
//!
//! Every simulated figure in the file is seed-determined. The `"scenarios"`
//! and `"cc"` rows run through [`verify_load`] (exactly-once delivery,
//! two-run determinism). Wall-clock speed is the repository benchmark's
//! (`benchmark/`), which measures it with medians and spread; only the
//! `--backend os` rows carry wall-clock figures, because the benchmark has
//! no kernel-socket counterpart.
//!
//! The sections, in file order:
//!
//! - `"obs"`, the paper's figure of merit: per-record delivery-delay
//!   distributions (p50/p99/p999 and the exact mean, in ns) of an ordered-TCP
//!   and a uTCP receiver under the canonical lossy comparison
//!   ([`LoadScenario::obs_comparison`]), plus a kernel-TCP row with
//!   `--backend os`.
//! - `"flow_delay"`: the same runs' per-flow digests
//!   ([`minion_engine::FlowDelayMap`]), the worst flows by p99 beside the
//!   global distribution.
//! - `"trace_stream"`, with `--trace-stream FILE`: the accounting of the
//!   flight-recorder scenario ([`LoadScenario::flight_recorder`]: 1024 flows
//!   × 64 records at 2 % loss, more lifecycle events than the trace ring
//!   holds), every event of which is streamed to `FILE`.
//! - `"cc"` and `"cc_obs"`: the comparison scenario replayed once per
//!   congestion-control algorithm (`--cc`, default all three): goodput beside
//!   fast-retransmit and RTO counts, then the run's last cwnd/ssthresh
//!   transitions, in virtual-time order, and recovery-episode histograms.
//! - `"os"`, with `--backend os`: the `--flows` scenarios over kernel TCP on
//!   loopback (`minion-osnet`, an edge-triggered epoll reactor): wall-clock
//!   goodput, events/sec and syscalls/flow, gated on liveness (the scenario
//!   deadline) and a goodput floor.
//! - `"scenarios"`: one row per `--flows` count.
//!
//! The binary asserts what each section exists to show, and exits non-zero
//! when a claim fails: ordered-TCP p99 above uTCP's, and every receiver's
//! p50 > 0 and p50 ≤ p99 ≤ p999; the worst flow's p99 above the global p99
//! under ordered TCP; for every algorithm goodput > 0, at least one fast
//! retransmit, window samples (held + dropped = recorded) and at least one
//! recovery episode; a trace holding an RTO fire and one SYN per flow; a
//! stream that emitted every event the ring was offered.
//!
//! `--trace-out FILE` dumps the uTCP comparison run's trace ring as JSONL,
//! closed by a `{"summary":true,...}` line carrying recorded/held/dropped/cap,
//! so truncation shows in the dump itself. Both dumps hold every event; slice
//! them when reading (`jq -c 'select(.flow == 7)' TRACE.jsonl`).
//!
//! ```text
//! load_engine [--backend sim|os] [--flows 1,64,1024]
//!             [--cc newreno,cubic,none] [--out BENCH_engine.json]
//!             [--trace-out TRACE.jsonl] [--trace-stream TRACE.jsonl]
//! ```

use minion_bench::cli;
use minion_bench::json::Value;
use minion_engine::{
    verify_load, FlowMetrics, LoadReport, LoadScenario, TraceKind, DEFAULT_TRACE_CAP,
};
use minion_osnet::OsTransport;
use minion_simnet::SimDuration;
use minion_tcp::CcAlgorithm;
use std::time::Instant;

/// Goodput floor of the OS envelope gate, in bits/second. Loopback runs
/// orders of magnitude above this on any plausible machine; the floor only
/// exists to turn "the backend silently crawled" into a failure instead of
/// a quietly absurd JSON row. Liveness (every flow completes before the
/// scenario deadline) is asserted inside the driver itself.
const OS_GOODPUT_FLOOR_BPS: u64 = 1_000_000;

/// A per-flow counter summed over a report's flows.
fn flow_sum(report: &LoadReport, counter: fn(&FlowMetrics) -> u64) -> u64 {
    report.per_flow.iter().map(counter).sum()
}

/// Milliseconds from microseconds, to three decimals.
fn ms(us: u64) -> Value {
    Value::Fixed(us as f64 / 1000.0, 3)
}

/// One `"scenarios"` row: a `--flows` scenario's seed-determined counts.
fn scenario_row(r: &LoadReport) -> Value {
    Value::Object(vec![
        ("label", r.label.as_str().into()),
        ("flows", r.flows.into()),
        ("records_sent", r.records_sent.into()),
        ("records_delivered", r.records_delivered.into()),
        ("total_payload_bytes", r.total_bytes.into()),
        ("completion_sim_ms", ms(r.completion_us)),
        ("goodput_bps", r.goodput_bps.into()),
        ("events", r.engine.events().into()),
        ("events_per_sim_sec", r.events_per_sim_sec.into()),
        ("packets_sent", r.engine.packets_sent.into()),
        ("packets_delivered", r.engine.packets_delivered.into()),
        ("timer_fires", r.engine.timer_fires.into()),
        ("flow_polls", r.engine.flow_polls.into()),
        ("retransmissions", flow_sum(r, |f| f.retransmissions).into()),
        ("rto_fires", flow_sum(r, |f| f.rto_fires).into()),
        ("deterministic", Value::Bool(true)),
    ])
}

struct Args {
    flows: Vec<usize>,
    backend: cli::Backend,
    ccs: Vec<CcAlgorithm>,
    out: String,
    trace_out: Option<String>,
    trace_stream: Option<String>,
}

fn parse_args() -> Args {
    let mut flows: Vec<usize> = vec![1, 64, 1024];
    let mut backend = cli::Backend::Sim;
    // The "cc" section compares algorithms; by default it compares all of
    // them (--cc narrows the list, e.g. for a quick single-algorithm run).
    let mut ccs = CcAlgorithm::ALL.to_vec();
    let mut out = String::from("BENCH_engine.json");
    let mut trace_out: Option<String> = None;
    let mut trace_stream: Option<String> = None;
    let mut args = cli::CliArgs::new(
        "load_engine [--backend sim|os] [--flows 1,64,1024] \
         [--cc newreno,cubic,none] [--out FILE] [--trace-out FILE] [--trace-stream FILE]",
    );
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--backend" => backend = cli::parse_backend(&args.value("--backend")),
            "--flows" => flows = cli::parse_count_list(&args.value("--flows"), "--flows"),
            "--cc" => ccs = cli::parse_cc_list(&args.value("--cc"), "--cc"),
            "--out" => out = args.value("--out"),
            "--trace-out" => trace_out = Some(args.value("--trace-out")),
            "--trace-stream" => trace_stream = Some(args.value("--trace-stream")),
            other => args.unknown(other),
        }
    }
    // Output paths are validated *now*, so a typo'd directory fails in
    // milliseconds with the flag named, not after the whole bench ran.
    cli::validate_out_path("--out", &out);
    if let Some(path) = &trace_out {
        cli::validate_out_path("--trace-out", path);
    }
    // The stream file is created mid-run — a missing directory must fail
    // here, not after the scenarios before it have run.
    if let Some(path) = &trace_stream {
        cli::validate_out_path("--trace-stream", path);
    }
    Args {
        flows,
        backend,
        ccs,
        out,
        trace_out,
        trace_stream,
    }
}

/// One `"os"` row: `flows` concurrent flows replayed against kernel TCP over
/// loopback ([`OsTransport`]), gated on the goodput floor (liveness is
/// asserted inside the driver). All figures are wall-clock.
fn run_os(flows: usize) -> Value {
    let scenario = LoadScenario {
        flows,
        // Kernel TCP delivers in order; the link-shaping fields (rtt, rate,
        // queue, loss) describe the simulated bottleneck and are ignored.
        receiver_utcp: false,
        // The deadline is a wall-clock liveness budget on this backend.
        deadline: SimDuration::from_secs(60),
        ..LoadScenario::default()
    };
    let mut transport = OsTransport::new();
    let t0 = Instant::now();
    let r = scenario.run_on(&mut transport);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let syscalls = minion_engine::Transport::syscalls(&transport);
    // Readiness edges per `epoll_wait`: the reactor's batching profile.
    let wait_batch = transport.wait_batch_histogram();
    assert!(
        r.goodput_bps >= OS_GOODPUT_FLOOR_BPS,
        "[{}] os goodput {} bps below the {} bps envelope floor",
        r.label,
        r.goodput_bps,
        OS_GOODPUT_FLOOR_BPS
    );
    let syscalls_per_flow = syscalls as f64 / flows.max(1) as f64;
    println!(
        "{}  [os backend, {syscalls} syscalls ({syscalls_per_flow:.1}/flow), wall {:.1} ms]",
        r.summary(),
        wall_seconds * 1000.0
    );
    let events = r.engine.events();
    let events_per_sec = if wall_seconds > 0.0 {
        (events as f64 / wall_seconds) as u64
    } else {
        0
    };
    Value::Object(vec![
        ("label", r.label.as_str().into()),
        ("flows", r.flows.into()),
        ("records_sent", r.records_sent.into()),
        ("records_delivered", r.records_delivered.into()),
        ("total_payload_bytes", r.total_bytes.into()),
        ("completion_wall_ms", ms(r.completion_us)),
        ("goodput_bps", r.goodput_bps.into()),
        ("events", events.into()),
        ("events_per_sec", events_per_sec.into()),
        ("syscalls", syscalls.into()),
        ("syscalls_per_flow", Value::Fixed(syscalls_per_flow, 1)),
        ("wait_batches", wait_batch.count().into()),
        ("wait_batch_p50", wait_batch.p50().into()),
        ("wait_batch_p99", wait_batch.p99().into()),
        ("wait_batch_max", wait_batch.max().into()),
        ("wall_ms", Value::Fixed(wall_seconds * 1000.0, 3)),
        ("deterministic", Value::Bool(false)),
    ])
}

/// One row of the `"obs"` section: the delivery-delay distribution and
/// lifecycle counters of one comparison run.
fn obs_row(receiver: &str, report: &LoadReport) -> Vec<(&'static str, Value)> {
    use minion_engine::obs::{C_CHUNKS_OUT_OF_ORDER, C_RETRANSMIT_EDGES, C_RTO_EDGES};
    let d = &report.obs.delivery_delay;
    let counters = &report.obs.counters;
    vec![
        ("receiver", receiver.into()),
        ("label", report.label.as_str().into()),
        ("delivery_delay_count", d.count().into()),
        ("delivery_delay_mean_ns", d.mean().into()),
        ("delivery_delay_p50_ns", d.p50().into()),
        ("delivery_delay_p99_ns", d.p99().into()),
        ("delivery_delay_p999_ns", d.p999().into()),
        ("delivery_delay_max_ns", d.max().into()),
        ("rto_wait_count", report.obs.rto_wait.count().into()),
        ("rto_wait_p99_ns", report.obs.rto_wait.p99().into()),
        (
            "staging_dwell_p99_ns",
            report.obs.staging_dwell.p99().into(),
        ),
        (
            "chunks_out_of_order",
            counters.get(C_CHUNKS_OUT_OF_ORDER).into(),
        ),
        ("retransmit_edges", counters.get(C_RETRANSMIT_EDGES).into()),
        ("rto_edges", counters.get(C_RTO_EDGES).into()),
        ("trace_events", report.obs.trace.recorded().into()),
        (
            "trace_fingerprint",
            format!("{:#018x}", report.obs.trace_fingerprint()).into(),
        ),
    ]
}

/// How many worst-flows-by-p99 rows a `"flow_delay"` row embeds.
const FLOW_DELAY_TOP_K: usize = 8;

/// One row of the `"flow_delay"` section: one receiver's per-flow
/// delivery-delay attribution — the global distribution next to the
/// worst flows by p99 (the top-K of the bounded
/// [`minion_engine::FlowDelayMap`]).
fn flow_delay_row(receiver: &str, report: &LoadReport) -> Value {
    let map = &report.obs.flow_delay;
    let global = &report.obs.delivery_delay;
    let top = map
        .top_k(FLOW_DELAY_TOP_K)
        .iter()
        .map(|(flow, d)| {
            Value::Object(vec![
                ("flow", u64::from(*flow).into()),
                ("count", d.count().into()),
                ("p50_ns", d.p50().into()),
                ("p99_ns", d.p99().into()),
                ("max_ns", d.max().into()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("receiver", receiver.into()),
        ("flows_tracked", map.len().into()),
        ("overflow_samples", map.overflow_samples().into()),
        ("total_samples", map.total_samples().into()),
        ("global_p50_ns", global.p50().into()),
        ("global_p99_ns", global.p99().into()),
        ("global_max_ns", global.max().into()),
        ("worst_flows_by_p99", Value::Array(top)),
    ])
}

/// Run the canonical ordered-vs-unordered comparison
/// ([`LoadScenario::obs_comparison`]) and build the `"obs"` and
/// `"flow_delay"` sections: sim rows for both receivers, plus a kernel-TCP
/// row when the OS backend was requested.
/// Returns both sections and the uTCP run's report (whose trace
/// `--trace-out` dumps). That run goes through [`verify_load`]: it is also
/// the `"cc"` section's NewReno row, the same scenario under the same label.
fn obs_section(backend: cli::Backend) -> (Value, Value, LoadReport) {
    let tcp = LoadScenario::obs_comparison(false).run();
    let utcp = verify_load(&LoadScenario::obs_comparison(true));
    println!(
        "obs: delivery delay under loss ({} records): ordered mean {:.3} ms p99 {:.3} ms \
         p999 {:.3} ms | unordered mean {:.3} ms p99 {:.3} ms p999 {:.3} ms",
        tcp.obs.delivery_delay.count(),
        tcp.obs.delivery_delay.mean() as f64 / 1e6,
        tcp.obs.delivery_delay.p99() as f64 / 1e6,
        tcp.obs.delivery_delay.p999() as f64 / 1e6,
        utcp.obs.delivery_delay.mean() as f64 / 1e6,
        utcp.obs.delivery_delay.p99() as f64 / 1e6,
        utcp.obs.delivery_delay.p999() as f64 / 1e6,
    );
    for (receiver, report) in [("tcp", &tcp), ("utcp", &utcp)] {
        let d = &report.obs.delivery_delay;
        assert!(
            d.p50() > 0 && d.p50() <= d.p99() && d.p99() <= d.p999(),
            "{receiver}: delivery-delay quantiles must be positive and ordered, got \
             p50 {} p99 {} p999 {}",
            d.p50(),
            d.p99(),
            d.p999()
        );
    }
    assert!(
        tcp.obs.delivery_delay.p99() > utcp.obs.delivery_delay.p99(),
        "ordered-TCP p99 must strictly exceed uTCP p99 under the canonical loss scenario"
    );
    // Head-of-line blocking is not spread evenly: the unlucky flows soak up
    // the stalls, so the worst flow's p99 must sit strictly above the
    // all-flows p99 on the ordered receiver. If this ever fails, the
    // per-flow attribution stopped attributing.
    let worst = tcp.obs.flow_delay.top_k(1);
    assert!(
        !worst.is_empty() && worst[0].1.p99() > tcp.obs.delivery_delay.p99(),
        "worst-flow p99 ({}) must strictly exceed the global p99 ({}) under ordered TCP",
        worst.first().map(|(_, d)| d.p99()).unwrap_or(0),
        tcp.obs.delivery_delay.p99()
    );
    println!(
        "flow_delay: ordered worst flow #{} p99 {:.3} ms vs global p99 {:.3} ms \
         ({} flows tracked)",
        worst[0].0,
        worst[0].1.p99() as f64 / 1e6,
        tcp.obs.delivery_delay.p99() as f64 / 1e6,
        tcp.obs.flow_delay.len(),
    );
    let scenario = LoadScenario::obs_comparison(true);
    let mut section = vec![
        ("flows", scenario.flows.into()),
        ("records_per_flow", scenario.records_per_flow.into()),
        ("record_len", scenario.record_len.into()),
        ("loss", "bernoulli 2%".into()),
        (
            "sim",
            Value::Array(vec![
                Value::Object(obs_row("tcp", &tcp)),
                Value::Object(obs_row("utcp", &utcp)),
            ]),
        ),
    ];
    if backend == cli::Backend::Os {
        // Kernel TCP over loopback: the ordered baseline with real clocks.
        // Loss shaping and uTCP receivers are sim-only.
        let scenario = LoadScenario {
            receiver_utcp: false,
            deadline: SimDuration::from_secs(60),
            ..LoadScenario::obs_comparison(false)
        };
        let report = scenario.run_on(&mut OsTransport::new());
        let mut row = obs_row("tcp", &report);
        let phases = report.phases.get().iter();
        let phases = phases
            .map(|(name, nanos, _)| (name, nanos.into()))
            .collect();
        row.push(("phase_nanos", Value::Object(phases)));
        section.push(("os", Value::Array(vec![Value::Object(row)])));
    }
    let flow_delay = Value::Object(vec![
        ("cap", tcp.obs.flow_delay.cap().into()),
        ("top_k", FLOW_DELAY_TOP_K.into()),
        (
            "sim",
            Value::Array(vec![
                flow_delay_row("tcp", &tcp),
                flow_delay_row("utcp", &utcp),
            ]),
        ),
    ]);
    (Value::Object(section), flow_delay, utcp)
}

/// Run the flight-recorder scenario with the zero-drop streaming sink and
/// build the `"trace_stream"` section: 1024 flows × 64 records under 2%
/// loss spill every event to the JSONL file at `path` in virtual-time
/// order. The section is the stream's own accounting — and the driver gates
/// on the property the ring cannot offer: the stream holds every event, and
/// there are more of them than the ring holds.
fn trace_stream_section(path: &str) -> Value {
    let scenario = LoadScenario {
        trace_stream: Some(path.to_string()),
        ..LoadScenario::flight_recorder(true)
    };
    let report = scenario.run();
    let stream = &report.obs.stream;
    let recorded = report.obs.trace.recorded();
    assert_eq!(
        stream.emitted, recorded,
        "every traced event reaches the stream (trailers are not events)"
    );
    assert!(
        recorded > DEFAULT_TRACE_CAP as u64,
        "the flight-recorder run must trace more events ({recorded}) than the \
         trace ring holds ({DEFAULT_TRACE_CAP}); otherwise it proves nothing"
    );
    println!("trace stream: wrote {path} ({recorded} events; ring cap {DEFAULT_TRACE_CAP})");
    Value::Object(vec![
        ("path", path.into()),
        ("flows", scenario.flows.into()),
        ("records_per_flow", scenario.records_per_flow.into()),
        ("emitted", stream.emitted.into()),
        ("flushes", stream.flushes.into()),
        ("ring_cap", DEFAULT_TRACE_CAP.into()),
    ])
}

/// How many cwnd/ssthresh trajectory samples a `"cc_obs"` row embeds: the
/// tail of the ring, the last window transitions of the run across all
/// clients, in virtual-time order (the full
/// ring holds up to `DEFAULT_CC_SAMPLE_CAP` — counts in the row say what
/// was elided).
const CC_OBS_TRAJECTORY_ROWS: usize = 64;

/// One `"cc_obs"` row: the window telemetry of one algorithm's replay —
/// trajectory ring counts, cwnd distribution, and recovery-episode
/// duration/depth histograms.
fn cc_obs_row(algo: &str, report: &LoadReport) -> Value {
    let cc = &report.obs.cc_obs;
    let held = cc.len();
    let trajectory = cc
        .samples()
        .skip(held.saturating_sub(CC_OBS_TRAJECTORY_ROWS))
        .map(|s| {
            Value::Object(vec![
                ("t_ns", s.t_ns.into()),
                ("cwnd", s.cwnd.into()),
                ("ssthresh", s.ssthresh.into()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("algorithm", algo.into()),
        ("cwnd_samples", cc.recorded().into()),
        ("cwnd_samples_held", held.into()),
        ("cwnd_samples_dropped", cc.dropped().into()),
        ("cwnd_p50_bytes", cc.cwnd_hist().p50().into()),
        ("cwnd_p99_bytes", cc.cwnd_hist().p99().into()),
        ("cwnd_max_bytes", cc.cwnd_hist().max().into()),
        ("recovery_episodes", cc.recovery_duration().count().into()),
        (
            "recovery_duration_p50_ns",
            cc.recovery_duration().p50().into(),
        ),
        (
            "recovery_duration_p99_ns",
            cc.recovery_duration().p99().into(),
        ),
        (
            "recovery_duration_max_ns",
            cc.recovery_duration().max().into(),
        ),
        ("recovery_cuts", cc.recovery_depth().count().into()),
        ("recovery_depth_p99_bytes", cc.recovery_depth().p99().into()),
        ("trajectory_tail", Value::Array(trajectory)),
    ])
}

/// The `"cc"` and `"cc_obs"` sections: the canonical lossy comparison
/// scenario ([`LoadScenario::obs_comparison`], uTCP receiver) replayed once
/// per congestion-control algorithm, each run behind the usual two-run
/// determinism gate. `"cc"` is goodput next to fast-recovery and timeout
/// counts — how each sender recovers from the identical loss process —
/// and `"cc_obs"` is the same runs' window telemetry: cwnd/ssthresh
/// trajectories and recovery-episode histograms per algorithm. The row of
/// the comparison scenario's own algorithm (NewReno) reads `obs_run`, the
/// `"obs"` section's verified uTCP run, instead of replaying it: a trace
/// slice moves no figure these rows print.
fn cc_sections(ccs: &[CcAlgorithm], obs_run: &LoadReport) -> (Value, Value) {
    let mut rows = Vec::new();
    let mut obs_rows = Vec::new();
    for &cc in ccs {
        let replayed;
        let report = if cc == LoadScenario::obs_comparison(true).cc {
            obs_run
        } else {
            replayed = verify_load(&LoadScenario {
                cc,
                ..LoadScenario::obs_comparison(true)
            });
            &replayed
        };
        let fast_retransmits = flow_sum(report, |f| f.fast_retransmits);
        let retransmissions = flow_sum(report, |f| f.retransmissions);
        let rto_fires = flow_sum(report, |f| f.rto_fires);
        let window = &report.obs.cc_obs;
        println!(
            "cc={}: goodput {:.2} Mbit/s, {} fast recoveries, {} retransmissions, {} RTOs, \
             {} cwnd samples, {} recovery episodes",
            cc.label(),
            report.goodput_bps as f64 / 1e6,
            fast_retransmits,
            retransmissions,
            rto_fires,
            window.recorded(),
            window.recovery_duration().count(),
        );
        assert!(report.goodput_bps > 0, "cc={}: no goodput", cc.label());
        assert!(
            fast_retransmits >= 1,
            "cc={}: the lossy run must fast-retransmit",
            cc.label()
        );
        assert!(
            window.recorded() > 0 && window.len() as u64 + window.dropped() == window.recorded(),
            "cc={}: window samples must be recorded, each one held or counted dropped \
             ({} recorded, {} held, {} dropped)",
            cc.label(),
            window.recorded(),
            window.len(),
            window.dropped()
        );
        // Recovery does not depend on the window: every algorithm, cc=none
        // included, opens and completes recovery episodes.
        assert!(
            window.recovery_duration().count() >= 1,
            "cc={}: no recovery episode",
            cc.label()
        );
        rows.push(Value::Object(vec![
            ("algorithm", cc.label().into()),
            ("label", report.label.as_str().into()),
            ("goodput_bps", report.goodput_bps.into()),
            ("completion_sim_ms", ms(report.completion_us)),
            ("fast_retransmits", fast_retransmits.into()),
            ("retransmissions", retransmissions.into()),
            ("rto_fires", rto_fires.into()),
            ("deterministic", Value::Bool(true)),
        ]));
        obs_rows.push(cc_obs_row(cc.label(), report));
    }
    (Value::Array(rows), Value::Array(obs_rows))
}

fn main() {
    let args = parse_args();
    let (flows, backend, out) = (args.flows, args.backend, args.out);
    let mut scenarios = Vec::new();
    for &f in &flows {
        let report = verify_load(&LoadScenario::with_flows(f));
        println!("{}", report.summary());
        scenarios.push(scenario_row(&report));
    }

    // The OS backend rides along *in addition to* the sim rows: the point
    // of the section is kernel numbers next to sim numbers for the same
    // workload, in the same file.
    let os = (backend == cli::Backend::Os)
        .then(|| Value::Array(flows.iter().map(|&f| run_os(f)).collect()));

    // The head-of-line-blocking comparison: the figure the paper is about.
    let (obs, flow_delay, utcp_report) = obs_section(backend);
    if let Some(path) = &args.trace_out {
        let trace = &utcp_report.obs.trace;
        cli::write_output("--trace-out", path, &trace.to_jsonl_with_summary());
        let count = |kind| trace.events().filter(|e| e.kind == kind).count() as u64;
        assert!(
            count(TraceKind::RtoFired) >= 1,
            "the lossy uTCP run must trace an RTO fire"
        );
        assert_eq!(
            count(TraceKind::Syn),
            utcp_report.flows,
            "the trace must hold one SYN per flow"
        );
        println!("wrote {path} ({} trace events)", trace.recorded());
    }

    // The flight recorder: every lifecycle event on disk, not a ring's
    // worth. Opt-in (--trace-stream) because it writes a multi-megabyte
    // artifact.
    let trace_stream = args.trace_stream.as_deref().map(trace_stream_section);

    // The congestion-control comparison: same lossy workload, each sender.
    let (cc, cc_obs) = cc_sections(&args.ccs, &utcp_report);

    let mut doc = vec![
        ("bench", "engine_load".into()),
        ("obs", obs),
        ("flow_delay", flow_delay),
    ];
    doc.extend(trace_stream.map(|section| ("trace_stream", section)));
    doc.extend([("cc", cc), ("cc_obs", cc_obs)]);
    doc.extend(os.map(|rows| ("os", rows)));
    doc.push(("scenarios", Value::Array(scenarios)));
    cli::write_output("--out", &out, &format!("{}\n", Value::Object(doc)));
    println!("wrote {out}");
}
