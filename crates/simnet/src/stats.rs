//! Measurement helpers shared by experiments: distributions (for CDFs),
//! time series (for sliding-window plots), and a small CSV/table writer used
//! by the benchmark harness to print figure data.

use crate::time::SimTime;
use std::fmt::Write as _;

/// A collection of scalar samples supporting quantiles and CDF export.
#[derive(Clone, Debug, Default)]
pub struct Distribution {
    samples: Vec<f64>,
    sorted: bool,
}

impl Distribution {
    /// An empty distribution.
    pub fn new() -> Self {
        Distribution::default()
    }

    /// Add one sample.
    pub fn add(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample (0 if empty).
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        self.samples.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample (0 if empty).
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// The q-quantile (q in `[0,1]`), using nearest-rank interpolation.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = pos - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// Median sample.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples `<= threshold`.
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&v| v <= threshold).count();
        n as f64 / self.samples.len() as f64
    }

    /// All raw samples (unsorted order of insertion is not preserved once
    /// quantiles have been queried).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A time-stamped series of values, supporting sliding-window aggregation
/// (used for the Figure 9 moving PESQ/MOS plot and throughput-vs-time plots).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a point; times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be appended in time order");
        }
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of values with timestamps in `[from, to)`.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// A simple table that renders either as an aligned text table or as CSV.
/// The benchmark binaries use this to print each paper figure's data series.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a row of floating-point cells formatted with 3 decimal places.
    pub fn add_row_f64(&mut self, cells: &[f64]) {
        self.add_row(cells.iter().map(|v| format!("{v:.3}")).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Render as an aligned, human-readable table with the title.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_quantiles() {
        let mut d = Distribution::new();
        for v in 1..=100 {
            d.add(v as f64);
        }
        assert_eq!(d.len(), 100);
        assert_eq!(d.mean(), 50.5);
        assert!((d.median() - 50.5).abs() < 1e-9);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 100.0);
        assert!((d.quantile(0.95) - 95.05).abs() < 0.1);
        assert!((d.fraction_at_most(25.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn distribution_empty_is_safe() {
        let mut d = Distribution::new();
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.median(), 0.0);
    }

    #[test]
    fn time_series_window_aggregation() {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(ts.len(), 10);
        let m = ts
            .window_mean(SimTime::from_secs(2), SimTime::from_secs(5))
            .unwrap();
        assert_eq!(m, 3.0);
        assert!(ts
            .window_mean(SimTime::from_secs(20), SimTime::from_secs(30))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(2), 1.0);
        ts.push(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn table_rendering() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.add_row_f64(&[1.0, 2.0]);
        t.add_row(vec!["3".into(), "4".into()]);
        assert_eq!(t.row_count(), 2);
        let csv = t.to_csv();
        assert!(csv.starts_with("x,y\n"));
        assert!(csv.contains("1.000,2.000"));
        let text = t.to_text();
        assert!(text.contains("== demo =="));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_mismatched_rows() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.add_row(vec!["1".into()]);
    }
}
