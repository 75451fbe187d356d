//! The workspace's canonical FNV-1a hash, and its word-wise fold for bulk
//! fingerprints.
//!
//! One definition, at the bottom of the crate stack, because the determinism
//! gates *compare* these values across crates: load-scenario fingerprints
//! (`minion-engine`), matrix cell seeds and report fingerprints
//! (`minion-testkit`), and the host demux table (`minion-stack`) must all
//! hash identically. `minion_engine` re-exports these under its historical
//! names.
//!
//! [`fnv1a`] is the published byte-serial function: use it for keys and for
//! anything compared against values from outside this workspace.
//! [`fnv1a_words`] runs the same xor-multiply step over 8 bytes at a time —
//! an eighth of the dependent multiplies — for fingerprinting whole payload
//! streams, where the value is only ever compared with another run's.

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

/// Fold `bytes` into a running hash 8 bytes per FNV-1a step (little-endian
/// words), the tail of fewer than 8 bytes byte-wise as [`fnv1a`] does.
///
/// Order- and content-sensitive like [`fnv1a`], but a different function:
/// its values are not FNV-1a's, and folding a stream in pieces equals
/// folding it whole only when every piece but the last is a multiple of 8
/// bytes long.
pub fn fnv1a_words(h: &mut u64, bytes: &[u8]) {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        *h ^= u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        *h = h.wrapping_mul(FNV_PRIME);
    }
    fnv1a(h, words.remainder());
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

    #[test]
    fn word_fold_is_order_and_content_sensitive_with_a_bytewise_tail() {
        let fold = |bytes: &[u8]| {
            let mut h = FNV_OFFSET_BASIS;
            fnv1a_words(&mut h, bytes);
            h
        };
        // Under one word it is plain FNV-1a.
        assert_eq!(fold(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold(b""), FNV_OFFSET_BASIS);
        // One word is one xor-multiply of its little-endian value.
        let word = *b"8 bytes!";
        assert_eq!(
            fold(&word),
            (FNV_OFFSET_BASIS ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME)
        );
        // Every byte position matters, in the words and in the tail.
        let base: Vec<u8> = (0..29u8).collect();
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x40;
            assert_ne!(fold(&flipped), fold(&base), "byte {i}");
        }
        let mut swapped = base.clone();
        swapped.swap(3, 12);
        assert_ne!(fold(&swapped), fold(&base), "order");
        assert_ne!(fold(&base[..28]), fold(&base), "length");
        // Folding in word-aligned pieces equals folding whole.
        let mut parts = FNV_OFFSET_BASIS;
        fnv1a_words(&mut parts, &base[..16]);
        fnv1a_words(&mut parts, &base[16..]);
        assert_eq!(parts, fold(&base));
    }
}
