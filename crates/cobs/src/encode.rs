//! Consistent Overhead Byte Stuffing (COBS), Cheshire & Baker 1997.
//!
//! COBS re-encodes an arbitrary byte string so that it contains no zero
//! bytes, at a worst-case expansion of one byte per 254 (≈0.4%). uCOBS uses
//! the freed-up zero byte value as a record delimiter that can be recognised
//! anywhere in a TCP stream, which is what makes records self-delimiting and
//! recoverable from out-of-order stream fragments (paper §5).

/// The byte value COBS removes from the encoded output and uCOBS uses as the
/// record delimiter.
pub const MARKER: u8 = 0x00;

/// Maximum number of non-zero bytes covered by one COBS code byte.
const MAX_RUN: usize = 254;

/// Errors produced when decoding malformed COBS data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CobsError {
    /// The encoded data contained a zero byte, which is reserved for
    /// delimiters and never appears in well-formed COBS output.
    UnexpectedMarker,
    /// A code byte pointed past the end of the input.
    Truncated,
}

impl std::fmt::Display for CobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CobsError::UnexpectedMarker => write!(f, "unexpected zero byte inside COBS data"),
            CobsError::Truncated => write!(f, "COBS data truncated"),
        }
    }
}

impl std::error::Error for CobsError {}

/// Worst-case encoded size for a payload of `len` bytes.
pub fn max_encoded_len(len: usize) -> usize {
    len + len / MAX_RUN + 1
}

/// Offset of the first marker (zero) byte in `bytes`, eight bytes per step.
///
/// The classic zero-byte test on a little-endian word: `(w - 0x01…) & !w &
/// 0x80…` sets the high bit of every zero byte, and may also set it in bytes
/// *above* a zero one (the subtraction's borrow) but never below, so the
/// lowest set bit is exact.
#[inline]
pub(crate) fn find_marker(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        let zeros = w.wrapping_sub(LOW) & !w & HIGH;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == MARKER)?;
    Some(bytes.len() - tail.len() + at)
}

/// COBS-encode `input`, appending to `out`. The appended bytes contain no
/// zero. Reserves [`max_encoded_len`] up front, so it allocates at most once
/// and not at all when `out` already has that much room.
pub fn encode_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(max_encoded_len(input.len()));
    let mut rest = input;
    loop {
        // A run of zeros is a run of empty stretches, one `01` each: taken
        // a byte at a time, which the search below would only slow down.
        while let Some((&MARKER, after)) = rest.split_first() {
            out.push(1);
            rest = after;
        }
        // One zero-free stretch, up to the next zero or the end: whole
        // 254-byte blocks under a maximal code byte, then the remainder
        // (possibly empty) under a code byte that says how long it is.
        let (mut stretch, after) = match find_marker(rest) {
            Some(zero) => (&rest[..zero], Some(&rest[zero + 1..])),
            None => (rest, None),
        };
        while let Some((block, more)) = stretch.split_at_checked(MAX_RUN) {
            out.push(0xFF);
            out.extend_from_slice(block);
            stretch = more;
        }
        out.push(stretch.len() as u8 + 1);
        out.extend_from_slice(stretch);
        match after {
            Some(after) => rest = after,
            None => return,
        }
    }
}

/// COBS-encode `input`. The output contains no zero bytes.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(input, &mut out);
    out
}

/// Decode COBS-encoded data produced by [`encode`], appending to `out`, and
/// return how many bytes were appended (never more than `input.len()`). On
/// error `out` is left as it was.
pub fn decode_into(input: &[u8], out: &mut Vec<u8>) -> Result<usize, CobsError> {
    let start = out.len();
    out.reserve(input.len());
    match decode_blocks(input, out) {
        Ok(()) => Ok(out.len() - start),
        Err(error) => {
            out.truncate(start);
            Err(error)
        }
    }
}

/// The block loop of [`decode_into`]: every block is checked for a stray
/// marker before it is copied whole; nothing is taken on trust.
fn decode_blocks(input: &[u8], out: &mut Vec<u8>) -> Result<(), CobsError> {
    let mut rest = input;
    while let Some((&code, tail)) = rest.split_first() {
        // An empty block stands for one zero, unless it is the last. There
        // is nothing to check or copy, so a run of them (what a run of
        // zeros encodes to) goes a byte at a time.
        if code == 1 {
            if !tail.is_empty() {
                out.push(MARKER);
            }
            rest = tail;
            continue;
        }
        if code == MARKER {
            return Err(CobsError::UnexpectedMarker);
        }
        let run = usize::from(code) - 1;
        if run > tail.len() {
            return Err(CobsError::Truncated);
        }
        let (block, after) = tail.split_at(run);
        if find_marker(block).is_some() {
            return Err(CobsError::UnexpectedMarker);
        }
        out.extend_from_slice(block);
        // A maximal code byte (0xFF) does not imply a following zero.
        if code != 0xFF && !after.is_empty() {
            out.push(MARKER);
        }
        rest = after;
    }
    Ok(())
}

/// Decode COBS-encoded data produced by [`encode`].
pub fn decode(input: &[u8]) -> Result<Vec<u8>, CobsError> {
    let mut out = Vec::new();
    decode_into(input, &mut out)?;
    Ok(out)
}

/// The bandwidth-overhead ratio of encoding `payload_len` bytes: encoded
/// length divided by original length.
pub fn overhead_ratio(payload: &[u8]) -> f64 {
    if payload.is_empty() {
        return 1.0;
    }
    encode(payload).len() as f64 / payload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference examples from the COBS paper / Wikipedia.
    #[test]
    fn known_vectors() {
        assert_eq!(encode(&[]), vec![0x01]);
        assert_eq!(encode(&[0x00]), vec![0x01, 0x01]);
        assert_eq!(encode(&[0x00, 0x00]), vec![0x01, 0x01, 0x01]);
        assert_eq!(
            encode(&[0x11, 0x22, 0x00, 0x33]),
            vec![0x03, 0x11, 0x22, 0x02, 0x33]
        );
        assert_eq!(
            encode(&[0x11, 0x22, 0x33, 0x44]),
            vec![0x05, 0x11, 0x22, 0x33, 0x44]
        );
        assert_eq!(
            encode(&[0x11, 0x00, 0x00, 0x00]),
            vec![0x02, 0x11, 0x01, 0x01, 0x01]
        );
    }

    #[test]
    fn encoded_output_never_contains_zero() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.push((i % 7) as u8); // plenty of zeros
        }
        let enc = encode(&data);
        assert!(enc.iter().all(|&b| b != MARKER));
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 2, 253, 254, 255, 256, 508, 509, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let enc = encode(&data);
            let dec = decode(&enc).expect("valid encoding");
            assert_eq!(dec, data, "roundtrip failed for len={len}");
        }
    }

    #[test]
    fn roundtrip_all_zeros_and_no_zeros() {
        let zeros = vec![0u8; 1000];
        assert_eq!(decode(&encode(&zeros)).unwrap(), zeros);
        let nonzeros = vec![7u8; 1000];
        assert_eq!(decode(&encode(&nonzeros)).unwrap(), nonzeros);
    }

    #[test]
    fn worst_case_overhead_is_under_half_percent() {
        // Long zero-free payloads hit the 1-in-254 worst case.
        let data = vec![0xABu8; 100_000];
        let ratio = overhead_ratio(&data);
        assert!(ratio <= 1.004 + 1e-4, "ratio={ratio}");
        assert!(encode(&data).len() <= max_encoded_len(data.len()));
    }

    #[test]
    fn decode_rejects_embedded_zero() {
        assert_eq!(decode(&[0x02, 0x00]), Err(CobsError::UnexpectedMarker));
        assert_eq!(decode(&[0x00, 0x01]), Err(CobsError::UnexpectedMarker));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[0x05, 0x11, 0x22]), Err(CobsError::Truncated));
        let full = encode(&[0x11u8; 300]);
        assert_eq!(decode(&full[..full.len() - 1]), Err(CobsError::Truncated));
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }
}
