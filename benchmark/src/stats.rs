//! Order statistics over wall-clock samples.

/// Quartiles, median-centred spread, and (for large samples) p90 of a set
/// of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Reported only when `n >= 100`, so at least ten samples lie beyond it.
    pub p90: Option<f64>,
}

impl Summary {
    /// Panics on an empty sample: every caller measures at least once.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let [q1, median, q3] = [1, 2, 3].map(|i| quantile(&sorted, i, 4));
        Summary {
            n,
            q1,
            median,
            q3,
            p90: (n >= 100).then(|| quantile(&sorted, 9, 10)),
        }
    }

    /// Distance between the quartiles as a share of the median, narrowed
    /// by √n: how far the **median** of such a sample moves from run to
    /// run, which is what a bound on a median has to resolve. (The samples
    /// themselves spread wider, and on the lossy workloads mostly because
    /// iteration `i`'s seed decides how much work it is.)
    pub fn spread_of_median(&self) -> f64 {
        (self.q3 - self.q1) / self.median / (self.n as f64).sqrt()
    }
}

/// The `i`-th of `parts` cut points of sorted data, by the same "exclusive"
/// rule as Python's `statistics.quantiles`, which the driver applies to
/// this benchmark's outputs.
fn quantile(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / parts).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (sorted[j - 1] * (parts as f64 - delta) + sorted[j] * delta) / parts as f64
}

/// `a / b`, or 0 when `b` is 0 (nothing was delivered: the run is already
/// failed, and the result line must still hold numbers).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.p90, None);
        assert!((s.spread_of_median() - 1.0 / 10f64.sqrt()).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = Summary::of(&many).p90.unwrap();
        assert!((p90 - 90.9).abs() < 1e-9, "p90 = {p90}");
    }
}
