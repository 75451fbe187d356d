//! The bench binaries' deterministic surfaces, compared with `goldens/`
//! (`minion_testkit::golden`). Each golden is named after the binary that
//! makes it: `fig05_throughput.txt` is its stdout, `load_engine.json` its
//! `--out` file, and `load_engine.trace.txt` its `--trace-out` file as line
//! count and FNV-1a hash.

use minion_testkit::golden::{assert_goldens, fingerprint, goldens_dir, stdout_of};
use std::path::{Path, PathBuf};

/// Binaries that print wall-clock time: they have no golden.
const WALL_CLOCK: [&str; 3] = ["fig06a_cpu_cobs", "fig06b_cpu_utls", "all_figures"];

const TMP: &str = env!("CARGO_TARGET_TMPDIR");

/// The names of the files in `dir`.
fn names(dir: PathBuf) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("list a directory").flatten();
    entries
        .filter_map(|e| e.file_name().into_string().ok())
        .collect()
}

/// The targets a directory of the workspace holds: its `.rs` files' stems.
fn targets(dir: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rust = names(root.join(dir));
    rust.iter()
        .filter_map(|n| Some(n.strip_suffix(".rs")?.into()))
        .collect()
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).expect("read a surface")
}

#[test]
fn sweep_reports_at_one_and_four_threads_equal_the_golden() {
    let dir = Path::new(TMP).join("sweep_matrix");
    let args = "--threads 1,4 --cc newreno,cubic,none --report-prefix sweep --out BENCH_sweep.json";
    stdout_of(Path::new(env!("CARGO_BIN_EXE_sweep_matrix")), args, &dir);
    let report = |t: u32| ("sweep_matrix.txt", read(&dir, &format!("sweep-t{t}.txt")));
    assert_goldens(Path::new(TMP), &[report(1), report(4)]);
}

#[test]
fn load_engine_json_and_traces_equal_the_goldens() {
    let dir = Path::new(TMP).join("load_engine");
    let args = "--flows 1,64,1024 --cc newreno,cubic,none --out load_engine.json \
                --trace-out trace.jsonl --trace-stream stream.jsonl";
    stdout_of(Path::new(env!("CARGO_BIN_EXE_load_engine")), args, &dir);
    let trace = |file| fingerprint(read(&dir, file).as_bytes());
    let surfaces = [
        ("load_engine.json", read(&dir, "load_engine.json")),
        ("load_engine.trace.txt", trace("trace.jsonl")),
        ("load_engine.stream.txt", trace("stream.jsonl")),
    ];
    assert_goldens(Path::new(TMP), &surfaces);
}

/// Every other binary's surface is its stdout without arguments: the figures
/// at quick scale, and Table 1, whose golden's diff is a change's size.
#[test]
fn every_printing_binary_equals_its_golden() {
    let mut bins = PathBuf::from(env!("CARGO_BIN_EXE_load_engine"));
    bins.pop();
    let skip = [&WALL_CLOCK[..], &["sweep_matrix", "load_engine"]].concat();
    let mut surfaces = Vec::new();
    for bin in targets("crates/bench/src/bin") {
        if !skip.contains(&bin.as_str()) {
            let out = stdout_of(&bins.join(&bin), "", &Path::new(TMP).join("printing"));
            surfaces.push((format!("{bin}.txt"), out));
        }
    }
    assert_goldens(Path::new(TMP), &surfaces);
}

/// No surface escapes the gate: every binary and example has a golden
/// (`TARGET.*`) unless it reads a clock, and every golden has a target.
#[test]
fn every_bin_and_example_has_a_golden_or_reads_a_clock() {
    let goldens = names(goldens_dir());
    let owner = |golden: &String| golden.split('.').next().unwrap_or("").to_string();
    let bins = targets("crates/bench/src/bin");
    let all = [bins.clone(), targets("examples")].concat();
    for target in &all {
        let has_golden = goldens.iter().any(|g| owner(g) == *target);
        let reads_clock = WALL_CLOCK.contains(&target.as_str());
        assert!(has_golden != reads_clock, "{target}: golden xor WALL_CLOCK");
    }
    for golden in &goldens {
        assert!(all.contains(&owner(golden)), "goldens/{golden}: no target");
    }
    let stale = WALL_CLOCK.iter().find(|c| !bins.iter().any(|b| b == *c));
    assert_eq!(stale, None, "WALL_CLOCK names no binary");
}
