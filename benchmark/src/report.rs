//! What one run of one workload reports, how it is printed, and how the two
//! binaries run every workload and write `out/{e2e,layers}.json`.
//!
//! A binary given `--workload` runs that workload in its own process and
//! ends its standard output with the driver's result line. Given none, it
//! re-executes itself once per workload (fresh allocator and peak RSS per
//! workload) and gathers the children's reports into one file.

use crate::json::Json;
use crate::spec::{self, Workload, WORKLOADS};
use crate::stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None`: the workload never enters this metric's layer.
    pub value: Option<f64>,
    /// Distance between the quartiles of the samples behind the value, as
    /// a share of their median (0 for counts and single readings).
    pub spread: f64,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// Records/datagrams offered over all timed iterations.
    pub attempted: u64,
    /// Those not delivered exactly once and byte-identical.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The sample sets behind the timings, by name.
    pub samples: Vec<(&'static str, Summary)>,
    /// Iterations whose virtual-time results were pooled.
    pub pooled_iterations: usize,
}

fn summary_json(s: &Summary) -> Json {
    let mut fields = vec![
        ("n", Json::Num(s.n as f64)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
    ];
    if let Some(p90) = s.p90 {
        fields.push(("p90", Json::Num(p90)));
    }
    Json::obj(fields)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The driver's result line. It wants every metric on every workload,
    /// so a metric of a layer the workload never enters reads 0 there.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value", Json::Num(m.value.unwrap_or(0.0))),
                    ("unit", Json::str(m.unit)),
                ];
                (m.name.to_string(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// This workload's entry in `out/{e2e,layers}.json`: only the metrics
    /// the workload enters, each with its spread, plus the sample sets.
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|m| {
                let fields = vec![
                    ("value", Json::Num(m.value?)),
                    ("unit", Json::str(m.unit)),
                    ("spread", Json::Num(m.spread)),
                ];
                Some((m.name.to_string(), Json::obj(fields)))
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|(name, s)| (name.to_string(), summary_json(s)))
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "pooled_iterations",
                Json::Num(self.pooled_iterations as f64),
            ),
            ("samples", Json::Obj(samples)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, then the two machine-read lines.
    pub fn print(&self) {
        println!("workload {} (seed {})", self.workload, self.seed);
        for (name, s) in &self.samples {
            let p90 = s.p90.map_or(String::new(), |p| format!(", p90 {p:.6}"));
            println!(
                "  {name}: n {}, q1 {:.6}, median {:.6}, q3 {:.6}{p90}",
                s.n, s.q1, s.median, s.q3
            );
        }
        for m in &self.metrics {
            if let Some(value) = m.value {
                println!("  {:<36} {:>16.6} {}", m.name, value, m.unit);
            }
        }
        println!(
            "  ops_attempted {}  ops_failed {}  pooled_iterations {}",
            self.attempted, self.failed, self.pooled_iterations
        );
        println!("{DETAIL_PREFIX}{}", self.detail().line());
        println!("{}", self.result_line().line());
    }
}

const DETAIL_PREFIX: &str = "#detail ";

pub struct Args {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// Where `e2e.json`, `layers.json` and the span dumps go.
    pub out: Option<PathBuf>,
}

impl Args {
    /// `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`,
    /// each optional. `--trace` is accepted and ignored: `run.sh` has
    /// already picked the binary by it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: spec::DEFAULT_SEED,
            seconds: spec::RUN_SECONDS as f64,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => {
                    parsed.workload =
                        Some(spec::workload(&value).ok_or_else(|| bad("no such workload"))?);
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("not a number of seconds"))?;
                }
                "--trace" => {}
                "--out" => parsed.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(parsed)
    }
}

/// The `main` of both binaries: `kind` is `"e2e"` or `"layers"`, `run_one`
/// runs one workload in this process.
pub fn main(kind: &str, args: &Args, run_one: impl Fn(&Workload, &Args) -> Report) -> ExitCode {
    if let Some(workload) = args.workload {
        let report = run_one(workload, args);
        report.print();
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in &WORKLOADS {
        match run_child(workload, args) {
            Ok(detail) => {
                all_correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
                workloads.push((workload.name.to_string(), detail));
            }
            Err(e) => {
                eprintln!("{kind}: workload {}: {e}", workload.name);
                all_correct = false;
            }
        }
    }
    if let Some(out) = &args.out {
        let file = Json::obj(vec![
            ("kind", Json::str(kind)),
            ("meta", metadata(args)),
            ("workloads", Json::Obj(workloads)),
        ]);
        let path = out.join(format!("{kind}.json"));
        if let Err(e) = write_file(&path, &file.pretty()) {
            eprintln!("{kind}: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{kind}: some operations failed or a workload did not run");
        ExitCode::FAILURE
    }
}

pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Run one workload in a child process, echo what it prints, and return
/// its `#detail` object.
fn run_child(workload: &Workload, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdout(Stdio::piped());
    if let Some(out) = &args.out {
        child.arg("--out").arg(out);
    }
    // `output` waits for the child to end.
    let output = child.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    // A child that fails operations still reports them; one that printed
    // no report did not run.
    detail.ok_or(format!("no report ({})", output.status))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Seed, commit, toolchain and machine, for every output file.
fn metadata(args: &Args) -> Json {
    let or_unknown = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "git_sha",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", or_unknown(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", or_unknown(cpu)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "lossy_utcp",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.unwrap().name, "lossy_utcp");
        assert_eq!((args.seed, args.seconds), (42, 10.0));
        let defaults = parse(&[]).unwrap();
        assert!(defaults.workload.is_none());
        assert_eq!(defaults.seed, spec::DEFAULT_SEED);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--scale", "2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let report = Report {
            workload: "w",
            seed: 1,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "a_ms",
                    unit: "ms",
                    value: Some(1.25),
                    spread: 0.01,
                },
                Metric {
                    name: "not_entered",
                    unit: "ns",
                    value: None,
                    spread: 0.0,
                },
            ],
            samples: vec![],
            pooled_iterations: 1,
        };
        let line = report.result_line();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().len(), 2, "every metric, entered or not");
        let a = metrics.get("a_ms").unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ms"));
        let detail = report.detail();
        assert!(detail.get("metrics").unwrap().get("not_entered").is_none());
        assert!(report.correct());
        let failed = Report {
            failed: 1,
            ..report
        };
        assert!(!failed.correct());
    }
}
