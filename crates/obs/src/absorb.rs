//! The one merge protocol every observability value speaks.

/// Merge another value of the same shape into `self`.
///
/// Sharded runs produce one value per shard; serial runs produce one value
/// total. The determinism gates require both to report identically, so every
/// mergeable stat implements `Absorb` and the scenario layer folds shard
/// values **in shard order**. The laws implementations must uphold (checked
/// by tests here and in the consuming crates):
///
/// * **associativity** — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`, so a tree-shaped
///   merge (what a future hierarchical collector might do) agrees with the
///   left fold the scenario layer does today;
/// * **identity** — `Default::default()` is a left and right identity, so
///   merge loops can start from a neutral accumulator;
/// * **order-stability** — merging the same multiset of shard values in shard
///   order always yields the same bytes, regardless of which threads produced
///   them (a property of the *caller* discipline, but one the tests pin).
///
/// Commutativity is deliberately **not** required: a trace ring keeps the
/// *last* `cap` events of the concatenated stream, so `a ⊕ b` and `b ⊕ a`
/// legitimately differ. Order comes from shard index, never thread timing.
pub trait Absorb {
    /// Fold `other` into `self`, in caller-supplied (shard) order.
    fn absorb(&mut self, other: &Self);
}

/// Fold an ordered sequence of values into one, starting from the identity.
///
/// This is the canonical shard-merge loop: `merge_ordered(shards)` equals
/// `shards[0] ⊕ shards[1] ⊕ …` by the identity law.
pub fn merge_ordered<'a, T, I>(parts: I) -> T
where
    T: Absorb + Default + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let mut acc = T::default();
    for part in parts {
        acc.absorb(part);
    }
    acc
}

impl Absorb for u64 {
    fn absorb(&mut self, other: &Self) {
        *self = self.saturating_add(*other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ordered_folds_left_from_identity() {
        let parts = [3u64, 4, 5];
        assert_eq!(merge_ordered::<u64, _>(parts.iter()), 12);
        assert_eq!(merge_ordered::<u64, _>(std::iter::empty()), 0);
    }

    #[test]
    fn u64_absorb_saturates() {
        let mut a = u64::MAX - 1;
        a.absorb(&5);
        assert_eq!(a, u64::MAX);
    }
}
