//! The engine load benchmark: drive multi-flow load scenarios through the
//! `minion-engine` scenario driver (sharded across the `minion-exec` executor) and
//! emit `BENCH_engine.json`, the artifact the CI bench trajectory tracks
//! per PR.
//!
//! Each scenario runs through [`minion_engine::verify_load_sharded`], so
//! every emitted number sits behind the exactly-once and two-run
//! determinism gates; the shard decomposition is fixed by the flow count,
//! so `--threads` changes wall time only, never a metric. Wall-clock
//! events/sec measures the runtime itself (timer wheel + batched dispatch +
//! readiness polling); goodput and sim-time events/sec are virtual-time
//! figures and therefore bit-stable across machines.
//!
//! The `"cc"` section replays the canonical lossy comparison scenario once
//! per congestion-control algorithm (`--cc`, default all of
//! newreno/cubic/none): per-algorithm goodput next to fast-recovery and
//! timeout counts under the identical loss process.
//!
//! `--backend os` additionally drives the same flow counts through the
//! OS-socket transport (`minion-osnet`): kernel TCP over loopback under an
//! edge-triggered epoll reactor, same streams and exactly-once checks as
//! the sim driver. Those rows land in an `"os"` section next to the sim
//! numbers — wall-clock goodput, events/sec, and syscalls/flow instead of
//! the sim's virtual-time figures — and gate on liveness (the scenario
//! deadline) plus a goodput floor, not on determinism. `--threads` is
//! sim-only (sharding drives simulated engines) and is rejected with os.
//!
//! The `"obs"` section is the paper's figure of merit: per-record
//! delivery-delay distributions (p50/p99/p999 and the exact integer mean,
//! in ns) for an ordered-TCP receiver vs. a uTCP receiver under the
//! canonical lossy comparison scenario
//! ([`LoadScenario::obs_comparison`]) — head-of-line blocking measured,
//! not inferred. With `--backend os` a kernel-TCP row rides along (ordered
//! baseline; loss shaping and uTCP receivers are sim-only). `--trace-out`
//! dumps the uTCP run's lifecycle trace ring (SYN, first-byte, record
//! deliveries, retransmits, RTO fires, FIN) as JSONL, closed by a
//! `{"summary":true,...}` line carrying recorded/held/dropped counts (plus
//! admitted/suppressed from the attached filters) so ring truncation is
//! visible in the dump itself. `--trace-flow N` focuses that trace on one
//! global flow index, and `--trace-kind retransmit,rto` slices it to an
//! event-kind subset; both predicates compose, and both apply to the
//! streaming path below as well.
//!
//! `--trace-stream FILE` runs the flight-recorder scenario
//! ([`LoadScenario::flight_recorder`]: 1024 flows × 64 records under 2%
//! loss — more lifecycle events than the trace ring can hold) with a
//! zero-drop streaming sink: every shard spills its slice to
//! `FILE.shardNNNNN`, the driver merges them by `(t_ns, shard)` into one
//! ordered JSONL at `FILE` (byte-identical at any `--threads`), and the
//! report gains a `"trace_stream"` section asserting `dropped == 0` while
//! the offered event count exceeds the ring cap. The `"flow_delay"`
//! section rides the same obs comparison: per-flow delivery-delay digests
//! ([`minion_engine::FlowDelayMap`]) surfacing the worst flows by p99 next
//! to the global distribution — under ordered TCP the worst flow's tail
//! strictly exceeds the global one (head-of-line blocking concentrates on
//! unlucky flows), and the driver asserts exactly that.
//!
//! The `"cc_obs"` section rides on the same per-algorithm replays as
//! `"cc"`: cwnd/ssthresh trajectory samples (virtual-time, bounded ring)
//! and recovery-duration/-depth histograms per algorithm — NewReno vs CUBIC
//! window dynamics as data, not two goodput numbers.
//!
//! Usage (one binary for CI and local runs):
//!
//! ```text
//! load_engine [--backend sim|os] [--flows 1,64,1024] [--threads N]
//!             [--cc newreno,cubic,none] [--out BENCH_engine.json]
//!             [--trace-out TRACE.jsonl] [--trace-flow N]
//!             [--trace-kind retransmit,rto] [--trace-stream TRACE.jsonl]
//! ```

use minion_bench::cli;
use minion_engine::{verify_load_sharded, KindSet, LoadReport, LoadScenario, DEFAULT_TRACE_CAP};
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

struct Row {
    report: LoadReport,
    threads: usize,
    shards: usize,
    wall_seconds: f64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn row_json(row: &Row) -> String {
    let r = &row.report;
    let retransmissions: u64 = r.per_flow.iter().map(|f| f.retransmissions).sum();
    let rto_fires: u64 = r.per_flow.iter().map(|f| f.rto_fires).sum();
    let events = r.engine.events();
    let events_per_wall_sec = if row.wall_seconds > 0.0 {
        (events as f64 / row.wall_seconds) as u64
    } else {
        0
    };
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{label}\",\n",
            "      \"flows\": {flows},\n",
            "      \"shards\": {shards},\n",
            "      \"threads\": {threads},\n",
            "      \"records_sent\": {sent},\n",
            "      \"records_delivered\": {delivered},\n",
            "      \"total_payload_bytes\": {bytes},\n",
            "      \"completion_sim_ms\": {completion_ms:.3},\n",
            "      \"goodput_bps\": {goodput},\n",
            "      \"events\": {events},\n",
            "      \"events_per_sim_sec\": {eps_sim},\n",
            "      \"events_per_wall_sec\": {eps_wall},\n",
            "      \"wall_ms\": {wall_ms:.3},\n",
            "      \"packets_sent\": {psent},\n",
            "      \"packets_delivered\": {pdeliv},\n",
            "      \"timer_fires\": {tfires},\n",
            "      \"flow_polls\": {polls},\n",
            "      \"retransmissions\": {retx},\n",
            "      \"rto_fires\": {rto},\n",
            "      \"deterministic\": true\n",
            "    }}"
        ),
        label = json_escape(&r.label),
        flows = r.flows,
        shards = row.shards,
        threads = row.threads,
        sent = r.records_sent,
        delivered = r.records_delivered,
        bytes = r.total_bytes,
        completion_ms = r.completion_us as f64 / 1000.0,
        goodput = r.goodput_bps,
        events = events,
        eps_sim = r.events_per_sim_sec,
        eps_wall = events_per_wall_sec,
        wall_ms = row.wall_seconds * 1000.0,
        psent = r.engine.packets_sent,
        pdeliv = r.engine.packets_delivered,
        tfires = r.engine.timer_fires,
        polls = r.engine.flow_polls,
        retx = retransmissions,
        rto = rto_fires,
    )
}

struct Args {
    flows: Vec<usize>,
    threads: usize,
    backend: cli::Backend,
    ccs: Vec<CcAlgorithm>,
    out: String,
    trace_out: Option<String>,
    trace_flow: Option<u32>,
    trace_kinds: KindSet,
    trace_stream: Option<String>,
}

fn parse_args() -> Args {
    let mut flows: Vec<usize> = vec![1, 64, 1024];
    let mut threads: Option<usize> = None;
    let mut backend = cli::Backend::Sim;
    // The "cc" section compares algorithms; by default it compares all of
    // them (--cc narrows the list, e.g. for a quick single-algorithm run).
    let mut ccs = CcAlgorithm::ALL.to_vec();
    let mut out = std::env::var("BENCH_ENGINE_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    let mut trace_out: Option<String> = None;
    let mut trace_flow: Option<u32> = None;
    let mut trace_kinds = KindSet::all();
    let mut trace_stream: Option<String> = None;
    let mut args = cli::CliArgs::new(
        "load_engine [--backend sim|os] [--flows 1,64,1024] [--threads N] \
         [--cc newreno,cubic,none] [--out FILE] [--trace-out FILE] [--trace-flow N] \
         [--trace-kind retransmit,rto] [--trace-stream FILE]",
    );
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--backend" => backend = cli::parse_backend(&args.value("--backend")),
            "--flows" => flows = cli::parse_count_list(&args.value("--flows"), "--flows"),
            "--threads" => threads = Some(cli::parse_count(&args.value("--threads"), "--threads")),
            "--cc" => ccs = cli::parse_cc_list(&args.value("--cc"), "--cc"),
            "--out" => out = args.value("--out"),
            "--trace-out" => trace_out = Some(args.value("--trace-out")),
            // Flow indices are 0-based, so 0 is a valid focus (unlike the
            // count flags, which require >= 1).
            "--trace-flow" => {
                let v = args.value("--trace-flow");
                trace_flow =
                    Some(v.parse::<u32>().unwrap_or_else(|_| {
                        panic!("--trace-flow expects a flow index, got {v:?}")
                    }));
            }
            "--trace-kind" => {
                trace_kinds = cli::parse_trace_kinds(&args.value("--trace-kind"), "--trace-kind")
            }
            "--trace-stream" => trace_stream = Some(args.value("--trace-stream")),
            other => args.unknown(other),
        }
    }
    cli::validate_backend(backend, threads.is_some());
    // Output paths are validated *now*, so a typo'd directory fails in
    // milliseconds with the flag named, not after the whole bench ran.
    cli::validate_out_path("--out", &out);
    if let Some(path) = &trace_out {
        cli::validate_out_path("--trace-out", path);
    }
    // The stream path also names the per-shard spill files, which are
    // created mid-run — a missing directory must fail here, not after the
    // first shard finishes.
    if let Some(path) = &trace_stream {
        cli::validate_out_path("--trace-stream", path);
    }
    Args {
        flows,
        threads: threads.unwrap_or(1),
        backend,
        ccs,
        out,
        trace_out,
        trace_flow,
        trace_kinds,
        trace_stream,
    }
}

/// One OS-backend row: the scenario replayed against kernel TCP over
/// loopback. All figures are wall-clock.
struct OsRow {
    report: LoadReport,
    syscalls: u64,
    wall_seconds: f64,
    /// Readiness-edges-per-`epoll_wait` distribution (batching profile),
    /// captured before the transport is dropped.
    wait_batch: minion_engine::Histogram,
}

/// Run `flows` concurrent flows through [`OsTransport`] and gate the result
/// on the goodput floor (liveness is asserted inside the driver).
fn run_os(flows: usize) -> OsRow {
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
    let report = scenario.run_on(&mut transport);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let syscalls = minion_engine::Transport::syscalls(&transport);
    let wait_batch = transport.wait_batch_histogram().clone();
    assert!(
        report.goodput_bps >= OS_GOODPUT_FLOOR_BPS,
        "[{}] os goodput {} bps below the {} bps envelope floor",
        report.label,
        report.goodput_bps,
        OS_GOODPUT_FLOOR_BPS
    );
    println!(
        "{}  [os backend, {} syscalls ({:.1}/flow), wall {:.1} ms]",
        report.summary(),
        syscalls,
        syscalls as f64 / flows.max(1) as f64,
        wall_seconds * 1000.0
    );
    OsRow {
        report,
        syscalls,
        wall_seconds,
        wait_batch,
    }
}

fn os_row_json(row: &OsRow) -> String {
    let r = &row.report;
    let events = r.engine.events();
    let events_per_wall_sec = if row.wall_seconds > 0.0 {
        (events as f64 / row.wall_seconds) as u64
    } else {
        0
    };
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{label}\",\n",
            "      \"flows\": {flows},\n",
            "      \"records_sent\": {sent},\n",
            "      \"records_delivered\": {delivered},\n",
            "      \"total_payload_bytes\": {bytes},\n",
            "      \"completion_wall_ms\": {completion_ms:.3},\n",
            "      \"goodput_bps\": {goodput},\n",
            "      \"events\": {events},\n",
            "      \"events_per_sec\": {eps},\n",
            "      \"syscalls\": {syscalls},\n",
            "      \"syscalls_per_flow\": {spf:.1},\n",
            "      \"wait_batches\": {waits},\n",
            "      \"wait_batch_p50\": {wait_p50},\n",
            "      \"wait_batch_p99\": {wait_p99},\n",
            "      \"wait_batch_max\": {wait_max},\n",
            "      \"wall_ms\": {wall_ms:.3},\n",
            "      \"deterministic\": false\n",
            "    }}"
        ),
        label = json_escape(&r.label),
        flows = r.flows,
        sent = r.records_sent,
        delivered = r.records_delivered,
        bytes = r.total_bytes,
        completion_ms = r.completion_us as f64 / 1000.0,
        goodput = r.goodput_bps,
        events = events,
        eps = events_per_wall_sec,
        syscalls = row.syscalls,
        spf = row.syscalls as f64 / r.flows.max(1) as f64,
        waits = row.wait_batch.count(),
        wait_p50 = row.wait_batch.p50(),
        wait_p99 = row.wait_batch.p99(),
        wait_max = row.wait_batch.max(),
        wall_ms = row.wall_seconds * 1000.0,
    )
}

/// One row of the `"obs"` section: the delivery-delay distribution and
/// lifecycle counters of one comparison run, plus the (wall-clock,
/// non-deterministic) phase breakdown of its event loop.
fn obs_row_json(receiver: &str, report: &LoadReport) -> String {
    use minion_engine::obs::{C_CHUNKS_OUT_OF_ORDER, C_RETRANSMIT_EDGES, C_RTO_EDGES};
    let d = &report.obs.delivery_delay;
    let phases = report
        .phases
        .get()
        .iter()
        .map(|(name, nanos, _)| format!("\"{name}\": {nanos}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "      {{\n",
            "        \"receiver\": \"{receiver}\",\n",
            "        \"label\": \"{label}\",\n",
            "        \"delivery_delay_count\": {count},\n",
            "        \"delivery_delay_mean_ns\": {mean},\n",
            "        \"delivery_delay_p50_ns\": {p50},\n",
            "        \"delivery_delay_p99_ns\": {p99},\n",
            "        \"delivery_delay_p999_ns\": {p999},\n",
            "        \"delivery_delay_max_ns\": {max},\n",
            "        \"rto_wait_count\": {rto_waits},\n",
            "        \"rto_wait_p99_ns\": {rto_p99},\n",
            "        \"staging_dwell_p99_ns\": {dwell_p99},\n",
            "        \"chunks_out_of_order\": {ooo},\n",
            "        \"retransmit_edges\": {retx},\n",
            "        \"rto_edges\": {rto},\n",
            "        \"trace_events\": {trace_events},\n",
            "        \"trace_fingerprint\": \"{trace_fp:#018x}\",\n",
            "        \"phase_nanos\": {{ {phases} }}\n",
            "      }}"
        ),
        receiver = receiver,
        label = json_escape(&report.label),
        count = d.count(),
        mean = d.mean(),
        p50 = d.p50(),
        p99 = d.p99(),
        p999 = d.p999(),
        max = d.max(),
        rto_waits = report.obs.rto_wait.count(),
        rto_p99 = report.obs.rto_wait.p99(),
        dwell_p99 = report.obs.staging_dwell.p99(),
        ooo = report.obs.counters.get(C_CHUNKS_OUT_OF_ORDER),
        retx = report.obs.counters.get(C_RETRANSMIT_EDGES),
        rto = report.obs.counters.get(C_RTO_EDGES),
        trace_events = report.obs.trace.recorded(),
        trace_fp = report.obs.trace_fingerprint(),
        phases = phases,
    )
}

/// How many worst-flows-by-p99 rows a `"flow_delay"` row embeds.
const FLOW_DELAY_TOP_K: usize = 8;

/// One row of the `"flow_delay"` section: one receiver's per-flow
/// delivery-delay attribution — the global distribution next to the
/// worst flows by p99 (the top-K of the bounded
/// [`minion_engine::FlowDelayMap`]).
fn flow_delay_row_json(receiver: &str, report: &LoadReport) -> String {
    let map = &report.obs.flow_delay;
    let global = &report.obs.delivery_delay;
    let top = map
        .top_k(FLOW_DELAY_TOP_K)
        .iter()
        .map(|(flow, d)| {
            format!(
                "          {{ \"flow\": {flow}, \"count\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {} }}",
                d.count(),
                d.p50(),
                d.p99(),
                d.max()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "      {{\n",
            "        \"receiver\": \"{receiver}\",\n",
            "        \"flows_tracked\": {tracked},\n",
            "        \"overflow_samples\": {overflow},\n",
            "        \"total_samples\": {total},\n",
            "        \"global_p50_ns\": {gp50},\n",
            "        \"global_p99_ns\": {gp99},\n",
            "        \"global_max_ns\": {gmax},\n",
            "        \"worst_flows_by_p99\": [\n{top}\n        ]\n",
            "      }}"
        ),
        receiver = receiver,
        tracked = map.len(),
        overflow = map.overflow_samples(),
        total = map.total_samples(),
        gp50 = global.p50(),
        gp99 = global.p99(),
        gmax = global.max(),
        top = top,
    )
}

/// Run the canonical ordered-vs-unordered comparison
/// ([`LoadScenario::obs_comparison`]) and build the `"obs"` and
/// `"flow_delay"` sections: sim rows for both receivers (deterministic,
/// sharded at `threads`), plus a kernel-TCP row when the OS backend was
/// requested. Returns both section JSONs and the uTCP run's report (whose
/// trace `--trace-out` dumps, sliced by `trace_flow` / `trace_kinds` when
/// given).
fn obs_section(
    threads: usize,
    backend: cli::Backend,
    trace_flow: Option<u32>,
    trace_kinds: KindSet,
) -> (String, String, LoadReport) {
    let tcp = LoadScenario::obs_comparison(false).run_sharded(threads);
    let utcp = LoadScenario {
        trace_flow,
        trace_kinds,
        ..LoadScenario::obs_comparison(true)
    }
    .run_sharded(threads);
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
    let rows = [obs_row_json("tcp", &tcp), obs_row_json("utcp", &utcp)];
    let os_rows = if backend == cli::Backend::Os {
        // Kernel TCP over loopback: the ordered baseline with real clocks.
        // Loss shaping and uTCP receivers are sim-only.
        let scenario = LoadScenario {
            receiver_utcp: false,
            deadline: SimDuration::from_secs(60),
            ..LoadScenario::obs_comparison(false)
        };
        let report = scenario.run_on(&mut OsTransport::new());
        format!(",\n    \"os\": [\n{}\n    ]", obs_row_json("tcp", &report))
    } else {
        String::new()
    };
    let scenario = LoadScenario::obs_comparison(true);
    let section = format!(
        concat!(
            "  \"obs\": {{\n",
            "    \"flows\": {flows},\n",
            "    \"records_per_flow\": {rpf},\n",
            "    \"record_len\": {len},\n",
            "    \"loss\": \"bernoulli 2%\",\n",
            "    \"sim\": [\n{sim}\n    ]{os}\n",
            "  }}"
        ),
        flows = scenario.flows,
        rpf = scenario.records_per_flow,
        len = scenario.record_len,
        sim = rows.join(",\n"),
        os = os_rows,
    );
    let flow_delay = format!(
        concat!(
            "  \"flow_delay\": {{\n",
            "    \"cap\": {cap},\n",
            "    \"top_k\": {k},\n",
            "    \"sim\": [\n{rows}\n    ]\n",
            "  }}"
        ),
        cap = tcp.obs.flow_delay.cap(),
        k = FLOW_DELAY_TOP_K,
        rows = [
            flow_delay_row_json("tcp", &tcp),
            flow_delay_row_json("utcp", &utcp)
        ]
        .join(",\n"),
    );
    (section, flow_delay, utcp)
}

/// Run the flight-recorder scenario with the zero-drop streaming sink and
/// build the `"trace_stream"` section: 1024 flows × 64 records under 2%
/// loss spill per-shard JSONL slices merged into one `(t_ns, shard)`-ordered
/// file at `path`. The section is the stream's own accounting — and the
/// driver gates on the two properties the ring cannot offer: nothing
/// dropped, and more events offered than the ring holds.
fn trace_stream_section(path: &str, kinds: KindSet, threads: usize) -> String {
    let scenario = LoadScenario {
        trace_stream: Some(path.to_string()),
        trace_kinds: kinds,
        ..LoadScenario::flight_recorder(true)
    };
    let shards = scenario.shard_count();
    let flows = scenario.flows;
    let rpf = scenario.records_per_flow;
    let t0 = Instant::now();
    let report = scenario.run_sharded(threads);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let stream = &report.obs.stream;
    let filter = &report.obs.trace_filter;
    let offered = filter.admitted + filter.suppressed;
    assert_eq!(
        stream.dropped, 0,
        "the streaming sink must never drop an admitted event"
    );
    assert_eq!(
        stream.emitted, filter.admitted,
        "every admitted event reaches the stream (trailers are not events)"
    );
    assert!(
        offered > DEFAULT_TRACE_CAP as u64,
        "the flight-recorder run must offer more events ({offered}) than the \
         trace ring holds ({DEFAULT_TRACE_CAP}); otherwise it proves nothing"
    );
    println!(
        "trace stream: wrote {path} ({} events from {} offered across {shards} shard(s); \
         {} suppressed by the kind/flow slice; ring cap {DEFAULT_TRACE_CAP}; wall {:.1} ms)",
        filter.admitted,
        offered,
        filter.suppressed,
        wall_seconds * 1000.0
    );
    format!(
        concat!(
            "  \"trace_stream\": {{\n",
            "    \"path\": \"{path}\",\n",
            "    \"flows\": {flows},\n",
            "    \"records_per_flow\": {rpf},\n",
            "    \"shards\": {shards},\n",
            "    \"threads\": {threads},\n",
            "    \"kinds\": \"{kinds}\",\n",
            "    \"offered\": {offered},\n",
            "    \"admitted\": {admitted},\n",
            "    \"suppressed\": {suppressed},\n",
            "    \"emitted\": {emitted},\n",
            "    \"dropped\": {dropped},\n",
            "    \"flushes\": {flushes},\n",
            "    \"ring_cap\": {cap},\n",
            "    \"wall_ms\": {wall_ms:.3}\n",
            "  }}"
        ),
        path = json_escape(path),
        flows = flows,
        rpf = rpf,
        shards = shards,
        threads = threads,
        kinds = kinds.labels(),
        offered = offered,
        admitted = filter.admitted,
        suppressed = filter.suppressed,
        emitted = stream.emitted,
        dropped = stream.dropped,
        flushes = stream.flushes,
        cap = DEFAULT_TRACE_CAP,
        wall_ms = wall_seconds * 1000.0,
    )
}

/// How many cwnd/ssthresh trajectory samples a `"cc_obs"` row embeds (the
/// tail of the merged ring; the full ring holds up to
/// `DEFAULT_CC_SAMPLE_CAP` — counts in the row say what was elided).
const CC_OBS_TRAJECTORY_ROWS: usize = 64;

/// One `"cc_obs"` row: the window telemetry of one algorithm's replay —
/// trajectory ring counts, cwnd distribution, and recovery-episode
/// duration/depth histograms.
fn cc_obs_row_json(algo: &str, report: &LoadReport) -> String {
    let cc = &report.obs.cc_obs;
    let held = cc.len();
    let trajectory = cc
        .samples()
        .skip(held.saturating_sub(CC_OBS_TRAJECTORY_ROWS))
        .map(|s| format!("        {}", s.to_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "    {{\n",
            "      \"algorithm\": \"{algo}\",\n",
            "      \"cwnd_samples\": {recorded},\n",
            "      \"cwnd_samples_held\": {held},\n",
            "      \"cwnd_samples_dropped\": {dropped},\n",
            "      \"cwnd_p50_bytes\": {cwnd_p50},\n",
            "      \"cwnd_p99_bytes\": {cwnd_p99},\n",
            "      \"cwnd_max_bytes\": {cwnd_max},\n",
            "      \"recovery_episodes\": {episodes},\n",
            "      \"recovery_duration_p50_ns\": {dur_p50},\n",
            "      \"recovery_duration_p99_ns\": {dur_p99},\n",
            "      \"recovery_duration_max_ns\": {dur_max},\n",
            "      \"recovery_cuts\": {cuts},\n",
            "      \"recovery_depth_p99_bytes\": {depth_p99},\n",
            "      \"trajectory_tail\": [\n{trajectory}\n      ]\n",
            "    }}"
        ),
        algo = algo,
        recorded = cc.recorded(),
        held = held,
        dropped = cc.dropped(),
        cwnd_p50 = cc.cwnd_hist().p50(),
        cwnd_p99 = cc.cwnd_hist().p99(),
        cwnd_max = cc.cwnd_hist().max(),
        episodes = cc.recovery_duration().count(),
        dur_p50 = cc.recovery_duration().p50(),
        dur_p99 = cc.recovery_duration().p99(),
        dur_max = cc.recovery_duration().max(),
        cuts = cc.recovery_depth().count(),
        depth_p99 = cc.recovery_depth().p99(),
        trajectory = trajectory,
    )
}

/// The `"cc"` and `"cc_obs"` sections: the canonical lossy comparison
/// scenario ([`LoadScenario::obs_comparison`], uTCP receiver) replayed once
/// per congestion-control algorithm, each run behind the usual two-run
/// determinism gate. `"cc"` is goodput next to fast-recovery and timeout
/// counts — how each sender recovers from the identical loss process —
/// and `"cc_obs"` is the same runs' window telemetry: cwnd/ssthresh
/// trajectories and recovery-episode histograms per algorithm.
fn cc_sections(ccs: &[CcAlgorithm], threads: usize) -> (String, String) {
    let mut rows = Vec::new();
    let mut obs_rows = Vec::new();
    for &cc in ccs {
        let scenario = LoadScenario {
            cc,
            ..LoadScenario::obs_comparison(true)
        };
        let report = verify_load_sharded(&scenario, threads);
        let fast_retransmits: u64 = report.per_flow.iter().map(|f| f.fast_retransmits).sum();
        let retransmissions: u64 = report.per_flow.iter().map(|f| f.retransmissions).sum();
        let rto_fires: u64 = report.per_flow.iter().map(|f| f.rto_fires).sum();
        println!(
            "cc={}: goodput {:.2} Mbit/s, {} fast recoveries, {} retransmissions, {} RTOs, \
             {} cwnd samples, {} recovery episodes",
            cc.label(),
            report.goodput_bps as f64 / 1e6,
            fast_retransmits,
            retransmissions,
            rto_fires,
            report.obs.cc_obs.recorded(),
            report.obs.cc_obs.recovery_duration().count(),
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"algorithm\": \"{algo}\",\n",
                "      \"label\": \"{label}\",\n",
                "      \"goodput_bps\": {goodput},\n",
                "      \"completion_sim_ms\": {completion_ms:.3},\n",
                "      \"fast_retransmits\": {fast},\n",
                "      \"retransmissions\": {retx},\n",
                "      \"rto_fires\": {rto},\n",
                "      \"deterministic\": true\n",
                "    }}"
            ),
            algo = cc.label(),
            label = json_escape(&report.label),
            goodput = report.goodput_bps,
            completion_ms = report.completion_us as f64 / 1000.0,
            fast = fast_retransmits,
            retx = retransmissions,
            rto = rto_fires,
        ));
        obs_rows.push(cc_obs_row_json(cc.label(), &report));
    }
    (
        format!("  \"cc\": [\n{}\n  ]", rows.join(",\n")),
        format!("  \"cc_obs\": [\n{}\n  ]", obs_rows.join(",\n")),
    )
}

fn main() {
    let args = parse_args();
    let (flows, threads, backend, out) = (args.flows, args.threads, args.backend, args.out);
    let mut rows = Vec::new();
    for &f in &flows {
        let scenario = LoadScenario::with_flows(f);
        let shards = scenario.shard_count();
        let t0 = Instant::now();
        // Two verified runs; charge the scenario with the mean wall time so
        // events/wall-sec reflects one run.
        let report = verify_load_sharded(&scenario, threads);
        let wall_seconds = t0.elapsed().as_secs_f64() / 2.0;
        println!(
            "{}  [{} shard(s) on {} thread(s), wall {:.1} ms/run]",
            report.summary(),
            shards,
            threads,
            wall_seconds * 1000.0
        );
        rows.push(Row {
            report,
            threads,
            shards,
            wall_seconds,
        });
    }

    // The OS backend rides along *in addition to* the sim rows: the point
    // of the section is kernel numbers next to sim numbers for the same
    // workload, in the same file.
    let os_section = if backend == cli::Backend::Os {
        let os_rows: Vec<OsRow> = flows.iter().map(|&f| run_os(f)).collect();
        let body = os_rows
            .iter()
            .map(os_row_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!("  \"os\": [\n{body}\n  ],\n")
    } else {
        String::new()
    };

    // The head-of-line-blocking comparison: the figure the paper is about.
    let (obs, flow_delay, utcp_report) =
        obs_section(threads, backend, args.trace_flow, args.trace_kinds);
    if let Some(path) = &args.trace_out {
        let filter = &utcp_report.obs.trace_filter;
        let jsonl = utcp_report
            .obs
            .trace
            .to_jsonl_with_summary(filter.admitted, filter.suppressed);
        cli::write_output("--trace-out", path, &jsonl);
        if !filter.predicate.is_pass_all() {
            println!(
                "wrote {path} ({} trace events; sliced to flow {:?} kinds {}: \
                 {} admitted, {} suppressed)",
                utcp_report.obs.trace.recorded(),
                filter.predicate.flow,
                filter.predicate.kinds.labels(),
                filter.admitted,
                filter.suppressed
            );
        } else {
            println!(
                "wrote {path} ({} trace events)",
                utcp_report.obs.trace.recorded()
            );
        }
    }

    // The flight recorder: every lifecycle event on disk, not a ring's
    // worth. Opt-in (--trace-stream) because it writes a multi-megabyte
    // artifact.
    let trace_stream = args
        .trace_stream
        .as_deref()
        .map(|path| trace_stream_section(path, args.trace_kinds, threads));

    // The congestion-control comparison: same lossy workload, each sender.
    let (cc, cc_obs) = cc_sections(&args.ccs, threads);

    let body = rows.iter().map(row_json).collect::<Vec<_>>().join(",\n");
    let stream_section = trace_stream.map(|s| format!("{s},\n")).unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"engine_load\",\n{obs},\n{flow_delay},\n{stream_section}{cc},\n{cc_obs},\n{os_section}  \"scenarios\": [\n{body}\n  ]\n}}\n"
    );
    cli::write_output("--out", &out, &json);
    println!("wrote {out}");
}
