//! The one histogram: two-level HDR, exact order-independent merge, slots
//! allocated on the first sample.
//!
//! An HDR-style histogram trades per-bucket resolution for a fixed memory
//! footprint and an *exact* merge: two histograms over the same bucket
//! boundaries combine by slot-wise addition, so histograms pooled over
//! several runs equal one histogram that recorded every run's samples.
//!
//! [`Histogram`] crosses a **log2 major** axis with a **linear minor**
//! axis. 64 major buckets cover the full `u64` range, and each is split
//! into 16 linear sub-buckets, 1024 slots (8 KiB) in all:
//!
//! * major bucket 0 holds exactly the value `0` (zero-duration samples are
//!   real — a record covered by the same chunk that carried its first byte
//!   has zero delivery delay on the virtual clock);
//! * major bucket `i` (1..=63) holds values in `[2^(i-1), 2^i - 1]`, with
//!   bucket 63 absorbing everything from `2^62` up to and including
//!   `u64::MAX` (saturation, not overflow). Within a major bucket the range
//!   is split into equal linear sub-ranges — for the narrow low buckets
//!   (width ≤ 16) every *value* gets its own exact slot.
//!
//! The two-level split bounds the relative quantile error at a sixteenth
//! of an octave (~3 % of the value) instead of a flat log2 layout's whole
//! octave, and [`Histogram::quantile_milli`] linearly interpolates *within*
//! the resolved slot, which is what lets p99/p999 of delivery delay
//! separate ordered TCP from uTCP under loss instead of collapsing into the
//! same power-of-two bound. It records every global distribution: a load
//! run's delivery delay, RTO waits and staging dwell (`LoadObs`) and a
//! scenario's window telemetry (`CcObs`). A flow's own delays are few (one
//! per record), so the load report summarises them exactly from the flow's
//! records instead, by the same rank rule ([`quantile_rank`]).
//!
//! The slot array is **empty until the first [`Histogram::record`]**: a
//! histogram that never sees a sample owns no heap memory, so a recorder
//! whose distributions a run never feeds (a lossless run's recovery
//! histograms) costs a pointer and four words each. Merging keeps the
//! property: absorbing into an empty histogram adopts the other side's
//! slots, absorbing an empty one changes nothing.
//!
//! All samples are recorded in **nanoseconds** regardless of clock source:
//! the sim's virtual clock ticks in microseconds and the OS backend's
//! monotonic clock reports microseconds since transport creation, and both
//! are multiplied out to ns before recording so the `"obs"` sections of the
//! two backends read in the same unit.

use crate::absorb::Absorb;

/// Number of log2 major buckets; covers the full `u64` range (see module
/// docs).
const BUCKETS: usize = 64;

/// Linear sub-buckets per major bucket, as a shift.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per major bucket.
const SUB: usize = 1 << SUB_BITS;

/// Total slots once allocated.
const SLOTS: usize = BUCKETS << SUB_BITS;

/// A fixed-footprint two-level histogram of `u64` samples (nanoseconds, by
/// convention): 64 log2 major buckets × 16 linear sub-buckets, merged
/// exactly by slot-wise addition, with the slot array allocated on the
/// first sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `major * 16 + sub` order; empty until the first sample, so "no heap
    /// memory" and "no samples" are the same state and `==` needs no
    /// special case.
    slots: Box<[u64]>,
    count: u64,
    /// Saturating sum of all samples (used for the mean, never for
    /// quantiles).
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            slots: Box::default(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The 1-based rank, among `count` samples in ascending order, of the one a
/// quantile given in **milli-percent** selects (`50_000` = p50, `99_000` =
/// p99): ceil(count·q/100000), clamped into `[1, count]`; 0 when there are
/// no samples. Histogram quantiles resolve their slot by it, and the load
/// report's per-flow summary indexes a flow's sorted delays with it, so
/// both select the same order statistic.
pub fn quantile_rank(count: u64, q_milli: u64) -> u64 {
    count
        .saturating_mul(q_milli)
        .div_ceil(100_000)
        .max(1)
        .min(count)
}

/// Major bucket index of a value: 0 for zero, else `min(63, 64 - clz(v))`.
fn major_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// How far a major bucket's offsets shift down to a sub-bucket index: 0 for
/// the narrow buckets, where every value has its own slot.
fn sub_shift(major: usize) -> u32 {
    ((major - 1) as u32).saturating_sub(SUB_BITS)
}

/// Flat slot index of a value.
fn slot_of(value: u64) -> usize {
    let major = major_of(value);
    if major == 0 {
        return 0;
    }
    let lo = 1u64 << (major - 1);
    // Only major 63 can exceed the last sub-index (its range is wider than
    // 2^62); clamp so everything up to u64::MAX saturates into the last
    // slot.
    let sub = ((value - lo) >> sub_shift(major)) as usize;
    major * SUB + sub.min(SUB - 1)
}

/// Inclusive `[lo, hi]` value bounds of a flat slot. (The trailing
/// sub-slots of a narrow major bucket, past its width, are never hit.)
fn slot_bounds(slot: usize) -> (u64, u64) {
    let (major, sub) = (slot / SUB, slot % SUB);
    if major == 0 {
        return (0, 0);
    }
    let shift = sub_shift(major);
    let slot_lo = (1u64 << (major - 1)) + ((sub as u64) << shift);
    if slot == SLOTS - 1 {
        // The saturation slot absorbs everything up to u64::MAX.
        (slot_lo, u64::MAX)
    } else {
        (slot_lo, slot_lo + (1u64 << shift) - 1)
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.slots.is_empty() {
            self.slots = vec![0; SLOTS].into_boxed_slice();
        }
        self.slots[slot_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Integer mean of the samples (0 on an empty histogram).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The raw flat slot array, `major * 16 + sub` order — empty if nothing
    /// was ever recorded (tests, serialization).
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Value at a quantile given in **milli-percent** (`50_000` = p50,
    /// `99_000` = p99, `99_900` = p999).
    ///
    /// The integer rank ([`quantile_rank`]) resolves the slot; the return
    /// value then **linearly interpolates** between the slot's inclusive
    /// value bounds by the rank's position among the slot's samples,
    /// clamped to the observed `[min, max]`. Pure integer math (u128
    /// intermediate), so identical on every platform, and monotone in `q`.
    /// Returns 0 on an empty histogram.
    fn quantile_milli(&self, q_milli: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = quantile_rank(self.count, q_milli);
        let mut seen = 0u64;
        for (slot, &n) in self.slots.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (slot_lo, slot_hi) = slot_bounds(slot);
                // Position of the target rank among this slot's n samples,
                // 1-based: k = n yields slot_hi, k = 1 sits near slot_lo.
                let k = rank - (seen - n);
                let span = (slot_hi - slot_lo) as u128;
                let interp = slot_lo + ((span * k as u128) / n as u128) as u64;
                return interp.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand: median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile_milli(50_000)
    }

    /// Shorthand: p99.
    pub fn p99(&self) -> u64 {
        self.quantile_milli(99_000)
    }

    /// Shorthand: p999.
    pub fn p999(&self) -> u64 {
        self.quantile_milli(99_900)
    }
}

impl Absorb for Histogram {
    /// Slot-wise addition — exact and associative. An empty side has no
    /// slots: absorbing into one adopts `other`'s (a clone of an empty
    /// array allocates nothing), absorbing one adds nothing.
    fn absorb(&mut self, other: &Self) {
        if self.slots.is_empty() {
            self.slots = other.slots.clone();
        } else {
            for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
                *a += *b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// 5000 fixed samples over ~40 octaves, zero and the exact-slot range
    /// included.
    fn golden_samples() -> impl Iterator<Item = u64> {
        let mut x = 1u64;
        (0..5000u64).map(move |i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> (20 + i % 40)
        })
    }

    fn summary(h: &Histogram) -> [u64; 7] {
        [
            h.count(),
            h.min(),
            h.max(),
            h.mean(),
            h.p50(),
            h.p99(),
            h.p999(),
        ]
    }

    /// What the 64 × 16 layout reported for `golden_samples` when it was
    /// introduced, pinned since: the benchmark's delivery-delay metrics are
    /// read from these quantiles and compared digit for digit across
    /// commits.
    #[test]
    fn golden_samples_reproduce_the_pinned_summary() {
        assert_eq!(
            summary(&filled(golden_samples())),
            [
                5000,
                0,
                17_456_155_379_297,
                442_801_827_019,
                8_563_370,
                10_170_482_556_927,
                16_492_674_416_639
            ]
        );
    }

    #[test]
    fn zero_duration_samples_land_in_slot_zero() {
        let h = filled([0, 0]);
        assert_eq!(h.slots()[0], 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn max_value_saturates_into_top_slot() {
        // u64::MAX, the lower edge of the top major bucket, and just below
        // it (major bucket 62).
        let h = filled([u64::MAX, 1 << 62, (1 << 62) - 1]);
        assert_eq!(h.slots().len(), SLOTS);
        assert_eq!(h.slots()[SLOTS - 1], 1, "u64::MAX saturates, no overflow");
        assert_eq!(h.slots()[63 * SUB], 1, "2^62 → first sub-slot");
        assert_eq!(h.slots()[63 * SUB - 1], 1, "2^62 - 1 → last of major 62");
        assert_eq!(slot_bounds(SLOTS - 1).1, u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // sum saturates instead of wrapping
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.p999(), u64::MAX);
    }

    #[test]
    fn slots_tile_the_u64_range() {
        let narrow = SUB_BITS as usize + 1; // majors whose width is ≤ 16
        for i in 1..63usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(major_of(lo), i, "lower edge of major bucket {i}");
            assert_eq!(major_of(hi), i, "upper edge of major bucket {i}");
            // …and within the bucket the sub-slots tile it exactly: the
            // lower edge is sub 0, the upper edge is the last sub (or the
            // exact top value for the narrow buckets).
            assert_eq!(slot_of(lo), i * SUB, "sub 0 at the lower edge");
            let top = slot_of(hi);
            assert_eq!(top / SUB, i);
            if i > narrow {
                assert_eq!(top % SUB, SUB - 1);
            }
        }
        assert_eq!(major_of(0), 0);
        assert_eq!(major_of(1), 1);
        assert_eq!(major_of(u64::MAX), 63);
        // Every *reachable* slot's bounds round-trip through slot_of.
        // (Major 0 has a single value, and narrow major buckets leave the
        // sub-slots past their width permanently empty.)
        for slot in 0..SLOTS {
            let (major, s) = (slot / SUB, slot % SUB);
            let reachable = match major {
                0 => s == 0,
                m if m <= narrow => (s as u64) < (1u64 << (m - 1)),
                _ => true,
            };
            if !reachable {
                continue;
            }
            let (lo, hi) = slot_bounds(slot);
            assert_eq!(slot_of(lo), slot, "slot {slot} lower bound");
            assert_eq!(slot_of(hi), slot, "slot {slot} upper bound");
            if major <= narrow {
                assert_eq!(lo, hi, "narrow buckets hold one value per slot");
            }
        }
    }

    #[test]
    fn sub_bucket_boundaries_are_linear_within_a_major_bucket() {
        // Major bucket 10 covers [512, 1023]: 16 sub-ranges of 32.
        for sub in 0..16u64 {
            let (lo, hi) = (512 + sub * 32, 512 + sub * 32 + 31);
            let slot = 10 * 16 + sub as usize;
            assert_eq!(slot_of(lo), slot);
            assert_eq!(slot_of(hi), slot);
            assert_eq!(slot_bounds(slot), (lo, hi));
        }
    }

    #[test]
    fn a_never_recorded_histogram_owns_no_heap_memory() {
        let empty = Histogram::new();
        assert!(empty.slots().is_empty());
        assert_eq!(empty, Histogram::default());
        assert_eq!(empty.clone(), empty);
        // min() of an empty histogram reads 0, not the u64::MAX sentinel.
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.quantile_milli(99_000), 0);
        // Merging nothing into nothing allocates nothing.
        let mut both = Histogram::default();
        both.absorb(&Histogram::default());
        assert_eq!(both, Histogram::default());
        assert!(both.slots().is_empty());
        // The first sample brings the whole array.
        assert_eq!(filled([5]).slots().len(), SLOTS);
    }

    #[test]
    fn empty_merge_is_identity_both_sides() {
        let x = filled([0, 7, 700, 70_000, u64::MAX]);
        let mut left = Histogram::default();
        left.absorb(&x);
        assert_eq!(left, x, "default ⊕ x == x (adopts x's slots)");
        let mut right = x.clone();
        right.absorb(&Histogram::default());
        assert_eq!(right, x, "x ⊕ default == x");
    }

    #[test]
    fn merge_is_associative_and_exact() {
        let (a, b, c) = (
            filled([1, 2, 3]),
            filled([0, 1 << 20, u64::MAX]),
            filled([42; 5]),
        );
        let fold = |parts: &[&Histogram]| {
            let mut acc = parts[0].clone();
            for part in &parts[1..] {
                acc.absorb(part);
            }
            acc
        };
        // (x ⊕ y) ⊕ z == x ⊕ (y ⊕ z), with the slotless identity in any of
        // the three places too.
        let e = Histogram::default();
        for [x, y, z] in [[&a, &b, &c], [&e, &b, &c], [&a, &e, &c], [&a, &b, &e]] {
            assert_eq!(fold(&[x, y, z]), fold(&[x, &fold(&[y, z])]));
        }
        // Exactness: merged equals recording everything into one histogram.
        let all = filled([1, 2, 3, 0, 1 << 20, u64::MAX, 42, 42, 42, 42, 42]);
        assert_eq!(fold(&[&a, &b, &c]), all);
    }

    #[test]
    fn quantiles_use_integer_rank_math() {
        // 100 samples of 1, 1 sample of 1000 → p50 picks rank 50 (value 1),
        // p999 picks rank 101 (the 1000 sample — its slot holds exactly one
        // sample, so interpolation returns the slot's upper bound clamped to
        // the observed max).
        let h = filled((0..100).map(|_| 1).chain([1000]));
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p999(), 1000);
        let expected_mean = (100u64 + 1000) / h.count();
        assert_eq!(h.mean(), expected_mean);
    }

    #[test]
    fn interpolated_quantiles_resolve_within_an_octave() {
        // A flat 64-bucket layout collapses everything in [2^19, 2^20) to
        // the same upper bound. Two populations inside one octave must
        // produce different p99s.
        assert_eq!(major_of(550_000), major_of(980_000), "same octave");
        let low = filled([550_000; 1000]); // ~2^19.07
        let high = filled([980_000; 1000]); // ~2^19.9
        assert!(
            low.p99() < high.p99(),
            "sub-bucket resolution separates {} vs {}",
            low.p99(),
            high.p99()
        );
        // Interpolation clamps to observed bounds: a single-value
        // population reports that value at every quantile.
        assert_eq!(low.p50(), 550_000);
        assert_eq!(low.p999(), 550_000);
    }

    #[test]
    fn interpolated_quantiles_are_monotone_in_q() {
        // A spread population across several octaves plus in-octave spread.
        let mut x = 1u64;
        let h = filled((0..4096u64).map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 40) + i
        }));
        let mut last = 0u64;
        for q in (0..=100_000u64).step_by(250) {
            let v = h.quantile_milli(q);
            assert!(
                v >= last,
                "quantile must be monotone: q={q} gave {v} after {last}"
            );
            last = v;
        }
        assert_eq!(h.quantile_milli(100_000), h.max());
        assert!(h.quantile_milli(0) >= h.min());
    }

    #[test]
    fn sim_and_os_clock_units_normalize_to_nanoseconds() {
        // Both backends hand the recorder microseconds; the scenario layer
        // multiplies by 1_000 before recording. A 40ms sim RTT and a 40ms
        // wall-clock interval must land in the same slot.
        let sim_us: u64 = 40_000; // virtual µs
        let os_us: u64 = 40_000; // monotonic µs since transport creation
        let sim = filled([sim_us * 1_000]);
        let os = filled([os_us * 1_000]);
        assert_eq!(sim.slots(), os.slots());
    }

    /// Every quantile against the exact order statistic of the same
    /// samples: inside `[min, max]`, and no further from the truth than the
    /// width of the slot the truth sits in.
    fn quantiles_track_a_sorted_oracle(mut values: Vec<u64>) {
        let h = filled(values.iter().copied());
        values.sort_unstable();
        let n = values.len() as u64;
        assert_eq!(h.count(), n);
        assert_eq!((h.min(), h.max()), (values[0], values[values.len() - 1]));
        for q in [0, 1, 25_000, 50_000, 90_000, 99_000, 99_900, 100_000] {
            let rank = (n * q).div_ceil(100_000).clamp(1, n);
            let exact = values[rank as usize - 1];
            let got = h.quantile_milli(q);
            assert!(h.min() <= got && got <= h.max(), "q={q}: {got}");
            let (lo, hi) = slot_bounds(slot_of(exact));
            assert!(
                got.abs_diff(exact) <= hi - lo,
                "q={q}: got {got}, exact {exact}, slot [{lo}, {hi}]"
            );
        }
    }

    proptest! {
        #[test]
        fn quantiles_track_a_sorted_oracle_for_any_samples(
            raw in proptest::collection::vec((any::<u64>(), 0u32..70), 1..400),
        ) {
            // Shifts 0..64 spread samples over every octave (63 and up
            // leave 0 or 1: the exact-slot range); the rest pin the two
            // ends of the range.
            let values: Vec<u64> = raw
                .iter()
                .map(|&(x, shift)| match shift {
                    0..=63 => x >> shift,
                    64..=66 => u64::MAX,
                    _ => 0,
                })
                .collect();
            quantiles_track_a_sorted_oracle(values);
        }
    }
}
