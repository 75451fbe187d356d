//! The parallel matrix-sweep benchmark: run the full scenario matrix (the
//! tier-1 protocol×stack×loss matrix plus the `flows ∈ {1, 64, 1024}` load
//! matrix) once per requested thread count on the `minion-exec` batch
//! runner, assert every sweep's reports are byte-identical, and emit
//! `BENCH_sweep.json` with cells/sec per thread count and speedup versus
//! 1 thread.
//!
//! CI runs this as the report-diff gate: `--report-prefix` writes one
//! canonical report file per thread count (full `Debug` dump of every cell
//! report, in cell order), and the job `diff`s the `threads=1` file against
//! the `threads=4` file — any byte of divergence fails the build. The
//! binary additionally asserts the equality in-process.
//!
//! ```text
//! sweep_matrix [--threads 1,4] [--report-prefix PREFIX] [--out BENCH_sweep.json]
//! ```

use minion_bench::cli;
use minion_bench::json::Value;
use minion_exec::ExecStats;
use minion_testkit::{
    run_matrix_once_with_stats, summarize, CcAlgorithm, CellReport, CellSpec, MatrixSpec,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The sweep's cell set: the tier-1 default matrix plus the load matrix —
/// "the full matrix" CI diffs across thread counts. `--cc` multiplies the
/// *load* slice by the requested congestion-control algorithms (the
/// single-flow matrix stays on the default NewReno: its cells pin protocol
/// framing behaviour, not sender dynamics).
fn full_matrix(ccs: &[CcAlgorithm]) -> Vec<CellSpec> {
    let mut cells = MatrixSpec::default().cells();
    let mut load = MatrixSpec::load();
    load.ccs = ccs.to_vec();
    cells.extend(load.cells());
    cells
}

/// The canonical sweep report: the human summary table followed by the
/// complete `Debug` dump of every cell report, in cell order. Every counter
/// and fingerprint a cell produces lands in this text, so two sweeps are
/// byte-identical iff this text is.
fn canonical_report(cells: &[CellSpec], reports: &[CellReport]) -> String {
    let mut out = String::new();
    out.push_str(&summarize(reports));
    out.push('\n');
    for (cell, report) in cells.iter().zip(reports) {
        writeln!(out, "seed={:#018x} {report:?}", cell.seed).expect("write to String");
    }
    out
}

struct Run {
    threads: usize,
    wall_seconds: f64,
    stats: ExecStats,
}

/// The `"obs"` section of `BENCH_sweep.json`: the deterministic
/// delivery-delay columns of every multi-flow cell (identical across
/// thread counts — the report diff proves it) plus each run's batch stats:
/// jobs per worker and time inside jobs (wall-clock; varies run to run by
/// design).
fn obs_section(reports: &[CellReport], runs: &[Run]) -> Value {
    let delivery = reports
        .iter()
        .filter(|r| r.trace_events > 0)
        .map(|r| {
            Value::Object(vec![
                ("label", r.label.as_str().into()),
                ("p50_ns", r.delivery_delay_p50_ns.into()),
                ("p99_ns", r.delivery_delay_p99_ns.into()),
                ("p999_ns", r.delivery_delay_p999_ns.into()),
                ("mean_ns", r.delivery_delay_mean_ns.into()),
                ("trace_events", r.trace_events.into()),
                (
                    "trace_fingerprint",
                    format!("{:#018x}", r.trace_fingerprint).into(),
                ),
            ])
        })
        .collect();
    let exec = runs
        .iter()
        .map(|run| {
            let executed = run.stats.executed.iter().map(|&n| n.into()).collect();
            let phases = run.stats.profile.get().iter();
            let phases = phases
                .map(|(name, nanos, _)| (name, nanos.into()))
                .collect();
            Value::Object(vec![
                ("threads", run.threads.into()),
                ("workers", run.stats.workers.into()),
                ("executed", Value::Array(executed)),
                ("phase_nanos", Value::Object(phases)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("delivery_delay", Value::Array(delivery)),
        ("exec", Value::Array(exec)),
    ])
}

fn parse_args() -> (Vec<usize>, Vec<CcAlgorithm>, Option<String>, String) {
    let mut threads: Vec<usize> = vec![1, 4];
    let mut ccs = vec![CcAlgorithm::NewReno];
    let mut report_prefix: Option<String> = None;
    let mut out = String::from("BENCH_sweep.json");
    let mut args = cli::CliArgs::new(
        "sweep_matrix [--threads 1,4] [--cc newreno,cubic,none] \
         [--report-prefix PREFIX] [--out FILE]",
    );
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--threads" => threads = cli::parse_count_list(&args.value("--threads"), "--threads"),
            "--cc" => ccs = cli::parse_cc_list(&args.value("--cc"), "--cc"),
            "--report-prefix" => report_prefix = Some(args.value("--report-prefix")),
            "--out" => out = args.value("--out"),
            other => args.unknown(other),
        }
    }
    cli::validate_out_path("--out", &out);
    (threads, ccs, report_prefix, out)
}

fn main() {
    let (thread_counts, ccs, report_prefix, out) = parse_args();
    let cells = full_matrix(&ccs);
    println!(
        "sweeping {} cells at threads {:?}, cc {:?} (host parallelism: {})",
        cells.len(),
        thread_counts,
        ccs.iter().map(|c| c.label()).collect::<Vec<_>>(),
        minion_exec::available_threads()
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut reference: Option<String> = None;
    let mut first_reports: Option<Vec<CellReport>> = None;
    for &threads in &thread_counts {
        let t0 = Instant::now();
        let (reports, stats) = run_matrix_once_with_stats(&cells, threads);
        let wall_seconds = t0.elapsed().as_secs_f64();
        let text = canonical_report(&cells, &reports);
        // Write the report file *before* asserting equality: on divergence
        // CI's `diff -u` step then shows the exact divergent bytes instead
        // of a missing-file error.
        if let Some(prefix) = &report_prefix {
            let path = format!("{prefix}-t{threads}.txt");
            std::fs::write(&path, &text).expect("write sweep report");
            println!("wrote {path}");
        }
        match &reference {
            None => reference = Some(text),
            Some(reference) => {
                if &text != reference {
                    let hint = match &report_prefix {
                        Some(prefix) => format!("diff the {prefix}-t*.txt files"),
                        None => "re-run with --report-prefix to capture both reports".into(),
                    };
                    panic!(
                        "threads={threads} produced a different sweep report than \
                         threads={} — parallelism must not perturb results ({hint})",
                        thread_counts[0]
                    );
                }
            }
        }
        println!(
            "threads={threads}: {} cells in {:.1} ms ({:.2} cells/sec)",
            cells.len(),
            wall_seconds * 1000.0,
            cells.len() as f64 / wall_seconds.max(1e-9)
        );
        if first_reports.is_none() {
            first_reports = Some(reports);
        }
        runs.push(Run {
            threads,
            wall_seconds,
            stats,
        });
    }

    // Speedups are measured against the threads=1 run when the list has one
    // (CI's does), else against the first run.
    let baseline = runs
        .iter()
        .find(|r| r.threads == 1)
        .unwrap_or(&runs[0])
        .wall_seconds;
    let rows = runs
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("threads", r.threads.into()),
                ("wall_ms", Value::Fixed(r.wall_seconds * 1000.0, 3)),
                (
                    "cells_per_sec",
                    Value::Fixed(cells.len() as f64 / r.wall_seconds.max(1e-9), 3),
                ),
                (
                    "speedup_vs_1thread",
                    Value::Fixed(baseline / r.wall_seconds.max(1e-9), 3),
                ),
            ])
        })
        .collect();
    let json = Value::Object(vec![
        ("bench", "sweep_matrix".into()),
        ("cells", cells.len().into()),
        (
            "cc",
            Value::Array(ccs.iter().map(|c| c.label().into()).collect()),
        ),
        (
            "available_parallelism",
            minion_exec::available_threads().into(),
        ),
        ("reports_identical", Value::Bool(true)),
        (
            "obs",
            obs_section(first_reports.as_deref().unwrap_or(&[]), &runs),
        ),
        ("runs", Value::Array(rows)),
    ]);
    cli::write_output("--out", &out, &format!("{json}\n"));
    println!("wrote {out}");
}
