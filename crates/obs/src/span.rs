//! Span-style phase profiling: where did the wall clock go?
//!
//! A [`PhaseProfile`] is a fixed-slot registry of `(nanos, entries)` pairs —
//! one slot per named phase of a loop (engine dispatch, time inside exec
//! jobs, osnet `epoll_wait` batches). Callers bracket the phase with
//! [`std::time::Instant`] and feed the elapsed nanoseconds in; the profile
//! surfaces per-phase totals and milli-percent shares.
//!
//! Phase timings are **wall-clock** and therefore *not* deterministic —
//! they vary run to run even on the sim backend. They must never leak into
//! the byte-identity gates, so reports carry them inside
//! [`NonDeterministic`], a wrapper whose `PartialEq` always answers `true`:
//! the surrounding report keeps its derived equality over everything that
//! *is* deterministic, while the profile rides along for humans.

use crate::absorb::Absorb;

/// Fixed-slot per-phase time accounting (see module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    names: &'static [&'static str],
    nanos: Vec<u64>,
    entries: Vec<u64>,
}

impl PhaseProfile {
    /// A profile over a fixed phase-name list, all slots zero.
    pub fn new(names: &'static [&'static str]) -> Self {
        PhaseProfile {
            names,
            nanos: vec![0; names.len()],
            entries: vec![0; names.len()],
        }
    }

    /// A profile over `names` holding the `(nanos, entries)` a loop counted
    /// in its own plain slots, one per name.
    pub fn from_slots(names: &'static [&'static str], slots: &[(u64, u64)]) -> Self {
        assert_eq!(names.len(), slots.len(), "one slot per phase name");
        PhaseProfile {
            names,
            nanos: slots.iter().map(|s| s.0).collect(),
            entries: slots.iter().map(|s| s.1).collect(),
        }
    }

    /// The phase names.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Credit `nanos` of elapsed time (one entry) to phase `idx`.
    pub fn add(&mut self, idx: usize, nanos: u64) {
        self.nanos[idx] = self.nanos[idx].saturating_add(nanos);
        self.entries[idx] += 1;
    }

    /// Total nanoseconds credited to phase `idx` (0 if out of range).
    pub fn nanos(&self, idx: usize) -> u64 {
        self.nanos.get(idx).copied().unwrap_or(0)
    }

    /// Times phase `idx` was entered (0 if out of range).
    pub fn entries(&self, idx: usize) -> u64 {
        self.entries.get(idx).copied().unwrap_or(0)
    }

    /// Sum of all phase times.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().fold(0u64, |a, &n| a.saturating_add(n))
    }

    /// `(name, nanos, entries)` triples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.names
            .iter()
            .copied()
            .zip(self.nanos.iter().copied())
            .zip(self.entries.iter().copied())
            .map(|((n, t), e)| (n, t, e))
    }
}

impl Absorb for PhaseProfile {
    fn absorb(&mut self, other: &Self) {
        if other.names.is_empty() {
            return;
        }
        if self.names.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.names, other.names,
            "PhaseProfile merge across different phase lists"
        );
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            *a += *b;
        }
    }
}

/// A value excluded from equality: `PartialEq` always answers `true`.
///
/// Deterministic reports (`LoadReport` and friends) derive `PartialEq`/`Eq`
/// and are byte-compared by the determinism gates. Wall-clock phase
/// profiles would break that, so they travel inside this wrapper — visible
/// in `Debug` output and accessors, invisible to `==`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NonDeterministic<T>(pub T);

impl<T> NonDeterministic<T> {
    /// Borrow the wrapped value.
    pub fn get(&self) -> &T {
        &self.0
    }

    /// Mutably borrow the wrapped value.
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> PartialEq for NonDeterministic<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> Eq for NonDeterministic<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    static PHASES: &[&str] = &["dispatch", "timers", "flush"];

    #[test]
    fn profile_accumulates_and_shares_sum_to_whole() {
        let mut p = PhaseProfile::new(PHASES);
        p.add(0, 600);
        p.add(1, 300);
        p.add(2, 100);
        p.add(0, 0); // zero-length span still counts an entry
        assert_eq!(p.total_nanos(), 1000);
        assert_eq!(p.entries(0), 2);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            vec![("dispatch", 600, 2), ("timers", 300, 1), ("flush", 100, 1)]
        );
        let slots = [(600, 2), (300, 1), (100, 1)];
        assert_eq!(PhaseProfile::from_slots(PHASES, &slots), p);
    }

    #[test]
    fn profile_merge_is_associative_with_empty_identity() {
        let mk = |a: u64, b: u64| {
            let mut p = PhaseProfile::new(PHASES);
            p.add(0, a);
            p.add(1, b);
            p
        };
        let (a, b, c) = (mk(1, 2), mk(10, 20), mk(100, 200));
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        assert_eq!(left, right);
        let mut id = PhaseProfile::default();
        id.absorb(&a);
        assert_eq!(id, a);
    }

    #[test]
    fn non_deterministic_is_always_equal_but_visible() {
        let a = NonDeterministic(PhaseProfile::new(PHASES));
        let mut bp = PhaseProfile::new(PHASES);
        bp.add(0, 42);
        let b = NonDeterministic(bp);
        assert_eq!(a, b, "equality ignores the payload");
        assert_eq!(b.get().nanos(0), 42, "the payload is still readable");
    }
}
