//! `bench-e2e compare A.json B.json`: one row per (workload, metric) of two
//! output files of the same kind (`e2e.json` or `layers.json`).
//!
//! End-to-end metrics are held to their bounds (the `spec` table, which a
//! self-test keeps equal to `BENCHMARK.json`). At equal seeds the four
//! virtual-time metrics and every `alloc.*` count must be identical, digit
//! for digit. Other per-layer metrics have no bound and are only shown.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// No worse and no better than the bound.
    Within,
    Improved,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// bound cannot be resolved: a bound or an iteration count is wrong.
    Unresolved,
    /// A seed-determined value, identical on both sides.
    Equal,
    /// A seed-determined value that differs at equal seeds.
    Differs,
    /// Present on one side only.
    Missing,
    /// A per-layer metric: no bound, shown for reading.
    Shown,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Within => "within",
            Status::Improved => "improved",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
            Status::Equal => "equal",
            Status::Differs => "differs",
            Status::Missing => "missing",
            Status::Shown => "-",
        }
    }

    pub fn fails(self) -> bool {
        matches!(
            self,
            Status::Worse | Status::Unresolved | Status::Differs | Status::Missing
        )
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub status: Status,
}

/// How a metric is judged: `(direction, bound, seed-determined)`.
fn rule(metric: &str) -> (Better, Option<f64>, bool) {
    if let Some(e) = END_TO_END.iter().find(|e| e.name == metric) {
        return (e.better, Some(e.bound), e.exact);
    }
    let better = PER_LAYER
        .iter()
        .find(|p| p.name == metric)
        .map_or(Better::Lower, |p| p.better);
    (better, None, metric.starts_with("alloc."))
}

fn judge(metric: &str, a: &Json, b: &Json, same_seed: bool) -> Status {
    let value = |side: &Json| side.get("value").and_then(Json::as_f64);
    let spread = |side: &Json| side.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
    let (Some(va), Some(vb)) = (value(a), value(b)) else {
        return Status::Missing;
    };
    let (better, bound, exact) = rule(metric);
    if exact && same_seed {
        return if va == vb {
            Status::Equal
        } else {
            Status::Differs
        };
    }
    let Some(bound) = bound else {
        return Status::Shown;
    };
    if spread(a).max(spread(b)) > bound {
        return Status::Unresolved;
    }
    let change = (vb - va) / va;
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        Status::Worse
    } else if worse_by < -bound {
        Status::Improved
    } else {
        Status::Within
    }
}

/// The keys of `a`, then those of `b` that `a` lacks.
fn keys_of_both<'a>(a: &'a [(String, Json)], b: &'a [(String, Json)]) -> Vec<&'a str> {
    let mut keys: Vec<&str> = a.iter().map(|(key, _)| key.as_str()).collect();
    for (key, _) in b {
        if !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    keys
}

/// The object under `key` of `parent`'s field `field`, or an empty one.
fn entry<'a>(parent: &'a Json, field: &str, key: &str) -> &'a Json {
    const EMPTY: &Json = &Json::Obj(Vec::new());
    parent.get(field).and_then(|f| f.get(key)).unwrap_or(EMPTY)
}

fn fields<'a>(parent: &'a Json, field: &str) -> &'a [(String, Json)] {
    parent.get(field).map(Json::as_obj).unwrap_or_default()
}

/// Rows for every (workload, metric) present on either side, A's order
/// first. `Err` when the files cannot be compared at all.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let kind = |f: &Json| f.get("kind").and_then(Json::as_str).map(str::to_string);
    if kind(a).is_none() || kind(a) != kind(b) {
        return Err(format!("kinds differ: {:?} vs {:?}", kind(a), kind(b)));
    }
    let seed = |f: &Json| f.get("meta")?.get("seed")?.as_f64();
    let same_seed = seed(a).is_some() && seed(a) == seed(b);

    let mut rows = Vec::new();
    for workload in keys_of_both(fields(a, "workloads"), fields(b, "workloads")) {
        let (da, db) = (
            entry(a, "workloads", workload),
            entry(b, "workloads", workload),
        );
        let failed = |d: &Json| d.get("ops_failed").and_then(Json::as_f64);
        rows.push(Row {
            workload: workload.into(),
            metric: "ops_failed".into(),
            unit: "count".into(),
            a: failed(da),
            b: failed(db),
            status: match (failed(da), failed(db)) {
                (Some(0.0), Some(0.0)) => Status::Equal,
                (Some(_), Some(_)) => Status::Worse,
                _ => Status::Missing,
            },
        });
        for metric in keys_of_both(fields(da, "metrics"), fields(db, "metrics")) {
            let (ma, mb) = (entry(da, "metrics", metric), entry(db, "metrics", metric));
            let unit = |m: &Json| m.get("unit").and_then(Json::as_str).map(str::to_string);
            rows.push(Row {
                workload: workload.into(),
                metric: metric.into(),
                unit: unit(ma).or(unit(mb)).unwrap_or_default(),
                a: ma.get("value").and_then(Json::as_f64),
                b: mb.get("value").and_then(Json::as_f64),
                status: judge(metric, ma, mb, same_seed),
            });
        }
    }
    Ok(rows)
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Json::parse(&text)
    };
    let rows = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => compare(&a, &b),
        (Err(e), _) => Err(format!("{}: {e}", a.display())),
        (_, Err(e)) => Err(format!("{}: {e}", b.display())),
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    println!(
        "{:<12} {:<36} {:>16} {:>16} {:>8}  {:<10} status",
        "workload", "metric", "A", "B", "change", "unit"
    );
    for row in &rows {
        let change = match (row.a, row.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a * 100.0),
            _ => "-".into(),
        };
        println!(
            "{:<12} {:<36} {:>16} {:>16} {:>8}  {:<10} {}",
            row.workload,
            row.metric,
            show(row.a),
            show(row.b),
            change,
            row.unit,
            row.status.as_str()
        );
    }
    let failing = rows.iter().filter(|row| row.status.fails()).count();
    println!("{} rows, {failing} failing", rows.len());
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, metrics: &[(&str, f64, f64)]) -> Json {
        let metrics = metrics
            .iter()
            .map(|&(name, value, spread)| {
                let fields = vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str("u")),
                    ("spread", Json::Num(spread)),
                ];
                (name.to_string(), Json::obj(fields))
            })
            .collect();
        let workload = Json::obj(vec![
            ("ops_failed", Json::Num(0.0)),
            ("metrics", Json::Obj(metrics)),
        ]);
        Json::obj(vec![
            ("kind", Json::str("e2e")),
            ("meta", Json::obj(vec![("seed", Json::Num(seed as f64))])),
            ("workloads", Json::obj(vec![("w", workload)])),
        ])
    }

    fn status_of(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    fn bound(metric: &str) -> f64 {
        rule(metric).1.expect("an end-to-end metric")
    }

    #[test]
    fn bounds_directions_and_exactness_are_applied() {
        let a = file(
            1,
            &[
                ("payload_mb_per_s", 100.0, 0.02),
                ("records_per_s", 100.0, 0.02),
                ("setup_s", 1.0, 0.02),
                ("peak_rss_mb", 50.0, 0.0),
                ("delivery_delay_p99_ms", 200.0, 0.0),
                ("wire_overhead_ratio", 1.1, 0.0),
                ("alloc.per_packet", 23.0, 0.0),
                ("tcp.sendbuf.write_ns", 10.0, 0.5),
            ],
        );
        let past = |metric: &str| bound(metric) + 0.02;
        let b = file(
            1,
            &[
                // Higher is better: lower by more than the bound is worse.
                (
                    "payload_mb_per_s",
                    100.0 * (1.0 - past("payload_mb_per_s")),
                    0.02,
                ),
                ("records_per_s", 100.0 * (1.0 + past("records_per_s")), 0.02),
                ("setup_s", 1.0 + bound("setup_s") / 2.0, 0.02),
                ("peak_rss_mb", 50.0, 0.0),
                ("delivery_delay_p99_ms", 200.0, 0.0),
                ("wire_overhead_ratio", 1.1000001, 0.0),
                ("alloc.per_packet", 23.5, 0.0),
                ("tcp.sendbuf.write_ns", 30.0, 0.5),
            ],
        );
        let rows = compare(&a, &b).unwrap();
        assert_eq!(status_of(&rows, "payload_mb_per_s"), Status::Worse);
        assert_eq!(status_of(&rows, "records_per_s"), Status::Improved);
        assert_eq!(status_of(&rows, "setup_s"), Status::Within);
        assert_eq!(status_of(&rows, "peak_rss_mb"), Status::Within);
        assert_eq!(status_of(&rows, "delivery_delay_p99_ms"), Status::Equal);
        assert_eq!(status_of(&rows, "wire_overhead_ratio"), Status::Differs);
        assert_eq!(status_of(&rows, "alloc.per_packet"), Status::Differs);
        assert_eq!(status_of(&rows, "tcp.sendbuf.write_ns"), Status::Shown);
        assert_eq!(status_of(&rows, "ops_failed"), Status::Equal);
    }

    #[test]
    fn wide_spread_is_unresolved_and_other_seeds_fall_back_to_bounds() {
        let wide = bound("payload_mb_per_s") + 0.01;
        let a = file(
            1,
            &[
                ("payload_mb_per_s", 100.0, wide),
                ("delivery_delay_p99_ms", 200.0, 0.0),
            ],
        );
        let b = file(
            2,
            &[
                ("payload_mb_per_s", 100.0, 0.01),
                ("delivery_delay_p99_ms", 201.0, 0.0),
            ],
        );
        let rows = compare(&a, &b).unwrap();
        assert_eq!(status_of(&rows, "payload_mb_per_s"), Status::Unresolved);
        assert_eq!(status_of(&rows, "delivery_delay_p99_ms"), Status::Within);
        assert!(rows.iter().any(|r| r.status.fails()));
    }

    #[test]
    fn one_sided_metrics_and_mismatched_kinds_are_reported() {
        let a = file(1, &[("payload_mb_per_s", 100.0, 0.0)]);
        let b = file(1, &[("records_per_s", 100.0, 0.0)]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(status_of(&rows, "payload_mb_per_s"), Status::Missing);
        assert_eq!(status_of(&rows, "records_per_s"), Status::Missing);
        let mut layers = file(1, &[]);
        if let Json::Obj(fields) = &mut layers {
            fields[0].1 = Json::str("layers");
        }
        assert!(compare(&a, &layers).is_err());
    }
}
