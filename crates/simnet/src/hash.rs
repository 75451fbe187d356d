//! The workspace's canonical FNV-1a hash.
//!
//! One definition, at the bottom of the crate stack, because the determinism
//! gates *compare* these values across crates: load-scenario fingerprints
//! (`minion-engine`, a fold over each delivered chunk's offset, length and
//! order flag) and matrix cell seeds and report fingerprints
//! (`minion-testkit`) must all hash identically. `minion_engine` re-exports
//! these under its historical names.
//!
//! [`fnv1a`] is the published byte-serial function, so its values can be
//! compared with any other FNV-1a implementation.

/// The FNV-1a offset basis, the seed for [`fnv1a`] fingerprints.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, the multiplier of every step.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a running hash.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_test_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c (Noll's reference vectors).
        let mut h = FNV_OFFSET_BASIS;
        fnv1a(&mut h, b"a");
        assert_eq!(h, 0xaf63_dc4c_8601_ec8c);
        // Incremental folding equals one-shot hashing.
        let mut parts = FNV_OFFSET_BASIS;
        fnv1a(&mut parts, b"foo");
        fnv1a(&mut parts, b"bar");
        let mut whole = FNV_OFFSET_BASIS;
        fnv1a(&mut whole, b"foobar");
        assert_eq!(parts, whole);
    }
}
