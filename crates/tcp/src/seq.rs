//! 32-bit TCP sequence number arithmetic (RFC 793 style modular comparison).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A TCP sequence number with wrapping 32-bit arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Construct from a raw 32-bit value.
    pub const fn new(v: u32) -> Self {
        SeqNum(v)
    }

    /// The raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// `self < other` in modular arithmetic.
    fn lt(self, other: SeqNum) -> bool {
        (other.0.wrapping_sub(self.0) as i32) > 0
    }

    /// `self <= other` in modular arithmetic.
    fn le(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// `self > other` in modular arithmetic.
    pub fn gt(self, other: SeqNum) -> bool {
        other.lt(self)
    }

    /// `self >= other` in modular arithmetic.
    pub fn ge(self, other: SeqNum) -> bool {
        other.le(self)
    }

    /// True if `self` lies in the half-open interval `[start, end)`.
    pub(crate) fn in_range(self, start: SeqNum, end: SeqNum) -> bool {
        start.le(self) && self.lt(end)
    }

    /// The number of bytes from `earlier` to `self` (modular).
    pub(crate) fn distance_from(self, earlier: SeqNum) -> u32 {
        self.0.wrapping_sub(earlier.0)
    }

    /// The smaller (earlier) of two sequence numbers.
    pub fn min(self, other: SeqNum) -> SeqNum {
        if self.le(other) {
            self
        } else {
            other
        }
    }

    /// The larger (later) of two sequence numbers.
    pub fn max(self, other: SeqNum) -> SeqNum {
        if self.ge(other) {
            self
        } else {
            other
        }
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u32> for SeqNum {
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl Sub<SeqNum> for SeqNum {
    type Output = u32;
    fn sub(self, rhs: SeqNum) -> u32 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq({})", self.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_comparison() {
        let a = SeqNum(10);
        let b = SeqNum(20);
        assert!(a.lt(b));
        assert!(a.le(b));
        assert!(b.gt(a));
        assert!(b.ge(a));
        assert!(a.le(a));
        assert!(!a.lt(a));
    }

    #[test]
    fn wrapping_comparison() {
        let near_max = SeqNum(u32::MAX - 5);
        let wrapped = SeqNum(10);
        assert!(near_max.lt(wrapped));
        assert!(wrapped.gt(near_max));
        assert_eq!(wrapped.distance_from(near_max), 16);
        assert_eq!(near_max + 16, wrapped);
    }

    #[test]
    fn in_range_across_wrap() {
        let start = SeqNum(u32::MAX - 2);
        let end = SeqNum(5);
        assert!(SeqNum(u32::MAX).in_range(start, end));
        assert!(SeqNum(0).in_range(start, end));
        assert!(SeqNum(4).in_range(start, end));
        assert!(!SeqNum(5).in_range(start, end));
        assert!(!SeqNum(100).in_range(start, end));
    }

    #[test]
    fn comparison_at_the_half_range_boundary() {
        // RFC 793 modular comparison: `a < b` iff the forward distance from a
        // to b is in (0, 2^31). Exactly 2^31 apart is the ambiguous point; the
        // wrapping-sub-as-i32 rule resolves it as "not less" both ways.
        let a = SeqNum(0);
        let b = SeqNum(1 << 31);
        assert!(!a.lt(b), "distance of exactly 2^31 is not 'less'");
        assert!(!b.lt(a));
        assert!(!a.le(b) && !b.le(a), "2^31 apart: ordered neither way");
        // One below the boundary is unambiguous...
        assert!(a.lt(SeqNum((1 << 31) - 1)));
        // ...and one above flips the direction.
        assert!(SeqNum((1u32 << 31) + 1).lt(a));
    }

    #[test]
    fn comparisons_are_translation_invariant_across_wrap() {
        // Shifting both operands by any offset (including ones that wrap)
        // must not change the comparison.
        let pairs = [(0u32, 1u32), (5, 100), (1000, 1001)];
        let offsets = [0u32, u32::MAX - 2, u32::MAX, 1 << 31, (1 << 31) - 1];
        for &(a, b) in &pairs {
            for &off in &offsets {
                let (sa, sb) = (SeqNum(a) + off, SeqNum(b) + off);
                assert!(sa.lt(sb), "{a}+{off} < {b}+{off}");
                assert!(sb.gt(sa));
                assert_eq!(sb.distance_from(sa), b - a);
            }
        }
    }

    #[test]
    fn min_max_and_range_across_the_wrap_point() {
        let before = SeqNum(u32::MAX - 1);
        let after = SeqNum(3); // 5 bytes later, wrapped
        assert_eq!(before.min(after), before);
        assert_eq!(before.max(after), after);
        assert_eq!(after.min(before), before);
        // Half-open interval semantics survive the wrap.
        assert!(before.in_range(before, after));
        assert!(!after.in_range(before, after), "end is exclusive");
        assert!(SeqNum(0).in_range(before, after));
        // Empty interval contains nothing, wrapped or not.
        assert!(!before.in_range(before, before));
        assert!(!SeqNum(0).in_range(after, after));
        // Arithmetic identities at the wrap.
        assert_eq!(SeqNum(u32::MAX) + 1, SeqNum(0));
        assert_eq!(SeqNum(0) - 1u32, SeqNum(u32::MAX));
        assert_eq!(SeqNum(0) - SeqNum(u32::MAX), 1);
    }

    #[test]
    fn arithmetic() {
        let mut s = SeqNum(100);
        s += 50;
        assert_eq!(s, SeqNum(150));
        assert_eq!(s - 25u32, SeqNum(125));
        assert_eq!(SeqNum(150) - SeqNum(100), 50);
        assert_eq!(SeqNum(10).min(SeqNum(20)), SeqNum(10));
        assert_eq!(SeqNum(10).max(SeqNum(20)), SeqNum(20));
    }
}
