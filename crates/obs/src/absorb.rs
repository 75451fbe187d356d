//! The merge trait for values pooled across runs or workers.

/// Merge another value of the same shape into `self`.
///
/// A load run records into one world, so its observability values are
/// never merged. Two kinds of value are pooled across *separate* runs:
/// [`Histogram`](crate::Histogram), which the repository benchmark pools
/// over its iterations, and [`PhaseProfile`](crate::PhaseProfile), which
/// `minion-exec` sums over its workers. Both merges are exact slot-wise
/// sums, so the pooled value does not depend on which run or worker came
/// first.
pub trait Absorb {
    /// Fold `other` into `self`.
    fn absorb(&mut self, other: &Self);
}
