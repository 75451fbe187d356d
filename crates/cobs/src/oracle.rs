//! The byte-at-a-time COBS codec the block-wise one in [`crate::encode`]
//! replaced, and the byte-at-a-time record scanner the marker-to-marker one
//! in [`crate::frame`] replaced, kept as the references their tests compare
//! against: same bytes out for every input, same error for every malformed
//! input, same records at the same positions in every fragment.

#[cfg(test)]
mod tests {
    use crate::encode::{
        decode, decode_into, encode, encode_into, find_marker, max_encoded_len, CobsError, MARKER,
    };
    use crate::frame::{frame_datagram, scan_records, ScannedRecord};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// COBS-encode `input`, one byte per step.
    fn oracle_encode(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(max_encoded_len(input.len()));
        let mut code_idx = out.len();
        out.push(0); // placeholder for the first code byte
        let mut code: u8 = 1;

        for &b in input {
            if b == MARKER {
                out[code_idx] = code;
                code_idx = out.len();
                out.push(0);
                code = 1;
            } else {
                out.push(b);
                code += 1;
                if code == 0xFF {
                    out[code_idx] = code;
                    code_idx = out.len();
                    out.push(0);
                    code = 1;
                }
            }
        }
        out[code_idx] = code;
        out
    }

    /// Decode COBS-encoded data, one byte per step.
    fn oracle_decode(input: &[u8]) -> Result<Vec<u8>, CobsError> {
        let mut out = Vec::with_capacity(input.len());
        let mut i = 0;
        while i < input.len() {
            let code = input[i];
            if code == MARKER {
                return Err(CobsError::UnexpectedMarker);
            }
            let run = code as usize - 1;
            if i + 1 + run > input.len() {
                return Err(CobsError::Truncated);
            }
            for &b in &input[i + 1..i + 1 + run] {
                if b == MARKER {
                    return Err(CobsError::UnexpectedMarker);
                }
                out.push(b);
            }
            i += 1 + run;
            // A maximal code byte (0xFF) does not imply a following zero.
            if code != 0xFF && i < input.len() {
                out.push(MARKER);
            }
        }
        Ok(out)
    }

    /// Scan a fragment for complete records, testing one byte per step.
    fn oracle_scan(fragment: &[u8], is_stream_start: bool) -> Vec<ScannedRecord> {
        let mut records = Vec::new();
        let mut i = 0;

        // Position of the marker (or known boundary) that could open a record.
        let mut open: Option<usize> = if is_stream_start { Some(0) } else { None };
        while i < fragment.len() {
            if fragment[i] == MARKER {
                // This marker closes any open record and opens a new one.
                if let Some(start) = open {
                    let content_start = if fragment.get(start) == Some(&MARKER) {
                        start + 1
                    } else {
                        start
                    };
                    if content_start < i {
                        if let Ok(payload) = decode(&fragment[content_start..i]) {
                            records.push(ScannedRecord {
                                start,
                                end: i + 1,
                                payload,
                            });
                        }
                    }
                }
                open = Some(i);
            }
            i += 1;
        }
        records
    }

    /// Lengths on both sides of one, two and three 254-byte blocks, plus the
    /// benchmark's datagram size and a multi-KB one.
    const LENGTHS: [usize; 11] = [0, 1, 253, 254, 255, 507, 508, 509, 762, 1200, 4096];

    /// `len` bytes with roughly one zero per `one_in` (0: none; 1: all).
    fn input(rng: &mut TestRng, len: usize, one_in: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                let r = rng.next_u64();
                if one_in != 0 && r.is_multiple_of(one_in) {
                    MARKER
                } else {
                    (r >> 8) as u8 | 1
                }
            })
            .collect()
    }

    /// Both codecs on `data`: the same encoding, which both decode to `data`.
    fn assert_same(data: &[u8]) {
        let encoded = encode(data);
        assert_eq!(encoded, oracle_encode(data), "encode, len {}", data.len());
        assert_eq!(decode(&encoded).as_deref(), Ok(data));
        assert_eq!(oracle_decode(&encoded).as_deref(), Ok(data));
    }

    #[test]
    fn block_wise_codec_equals_the_oracle_at_four_zero_densities() {
        let mut rng = TestRng::new(16);
        for one_in in [0, 256, 8, 1] {
            for len in LENGTHS {
                for _ in 0..4 {
                    assert_same(&input(&mut rng, len, one_in));
                }
            }
        }
    }

    #[test]
    fn block_wise_codec_equals_the_oracle_with_a_zero_at_each_block_edge() {
        let mut rng = TestRng::new(17);
        for len in LENGTHS {
            let clean = input(&mut rng, len, 0);
            let edges = [0, 1, 252, 253, 254, 255, 506, 507, 508, 509, 761, 762, 763];
            for at in edges.into_iter().chain([len.saturating_sub(1)]) {
                if at < len {
                    let mut data = clean.clone();
                    data[at] = MARKER;
                    assert_same(&data);
                    // And a second one right behind it: an empty block.
                    if at + 1 < len {
                        data[at + 1] = MARKER;
                        assert_same(&data);
                    }
                }
            }
        }
    }

    #[test]
    fn the_into_forms_append_and_report_what_they_appended() {
        let data = input(&mut TestRng::new(18), 600, 8);
        let mut out = b"kept".to_vec();
        encode_into(&data, &mut out);
        assert_eq!(out[..4], *b"kept");
        assert_eq!(out[4..], oracle_encode(&data));

        let mut back = b"kept".to_vec();
        assert_eq!(decode_into(&out[4..], &mut back), Ok(data.len()));
        assert_eq!(back[..4], *b"kept");
        assert_eq!(back[4..], data);
        // A failed decode leaves the buffer as it found it.
        assert!(decode_into(&out[4..out.len() - 1], &mut back).is_err());
        assert_eq!(back.len(), 4 + data.len());
    }

    #[test]
    fn find_marker_equals_position_at_every_alignment_and_tail() {
        let mut rng = TestRng::new(19);
        let backing = input(&mut rng, 64, 0);
        for align in 0..8 {
            for words in 0..3 {
                for tail in 0..16 {
                    let len = words * 8 + tail;
                    let clean = &backing[align..align + len];
                    assert_eq!(find_marker(clean), None);
                    for first in 0..len {
                        let mut bytes = clean.to_vec();
                        bytes[first] = MARKER;
                        // A later zero, and 0x80 / 0x01 neighbours (the
                        // bytes the word test's borrow could confuse), must
                        // not move the answer.
                        if first + 2 < len {
                            bytes[first + 1] = 0x80;
                            bytes[first + 2] = MARKER;
                        }
                        if first > 0 {
                            bytes[first - 1] = 0x01;
                        }
                        assert_eq!(
                            find_marker(&bytes),
                            bytes.iter().position(|&b| b == MARKER),
                            "align {align}, len {len}, zero at {first}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scan_equals_the_oracle_with_markers_at_every_offset() {
        // Up to two markers anywhere in 0..24 bytes (three words and every
        // tail), with and without a closing one behind them: a leading
        // marker, a `00 00` run, and a record between two. Random filler
        // rarely decodes; `01`s always do.
        let random = input(&mut TestRng::new(20), 32, 0);
        let ones = [0x01; 32];
        for backing in [&random[..], &ones[..]] {
            for align in 0..8 {
                for len in 0..=24 {
                    // A marker at `len` is no marker.
                    for first in 0..=len {
                        for second in first..=len {
                            for closed in [false, true] {
                                let mut bytes = backing[align..align + len].to_vec();
                                for at in [first, second].into_iter().filter(|&at| at < len) {
                                    bytes[at] = MARKER;
                                }
                                if closed {
                                    bytes.push(MARKER);
                                }
                                for start in [false, true] {
                                    assert_eq!(
                                        scan_records(&bytes, start),
                                        oracle_scan(&bytes, start),
                                        "align {align}, len {len}, markers at {first} and \
                                         {second}, closed {closed}, stream start {start}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Damage `bytes` at `edits` seeded places: overwrite, insert, delete,
    /// or cut the rest off.
    fn mutate(bytes: &mut Vec<u8>, edits: usize, seed: u64) {
        let mut rng = TestRng::new(seed);
        for _ in 0..edits {
            if bytes.is_empty() {
                return;
            }
            let at = rng.next_u64() as usize % bytes.len();
            // Zero and the extreme code bytes as often as everything else.
            let value = match rng.next_u64() % 6 {
                0 => MARKER,
                1 => 0x01,
                2 => 0xFF,
                _ => rng.next_u64() as u8,
            };
            match rng.next_u64() % 4 {
                0 => bytes[at] = value,
                1 => bytes.insert(at, value),
                2 => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
    }

    proptest! {
        // Fixed case counts, seeds derived from file + test name; failures
        // are pinned in crates/cobs/proptest-regressions/oracle.txt.
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A damaged encoding never panics the decoder, never decodes to
        /// more bytes than it holds, and fails or succeeds exactly as the
        /// byte-wise decoder does.
        #[test]
        fn decode_of_a_mutated_encoding_equals_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            zero_one_in in 1u8..64,
            edits in 1usize..4,
            seed in any::<u64>(),
        ) {
            let data: Vec<u8> = data
                .into_iter()
                .map(|b| if b.is_multiple_of(zero_one_in) { MARKER } else { b })
                .collect();
            let mut encoded = encode(&data);
            mutate(&mut encoded, edits, seed);
            let got = decode(&encoded);
            prop_assert_eq!(&got, &oracle_decode(&encoded));
            if let Ok(decoded) = got {
                prop_assert!(decoded.len() <= encoded.len());
            }
        }

        /// Arbitrary bytes straight into both decoders.
        #[test]
        fn decode_of_arbitrary_bytes_equals_the_oracle(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            prop_assert_eq!(decode(&bytes), oracle_decode(&bytes));
        }

        /// uCOBS resynchronisation: whatever precedes it — damaged records
        /// or plain noise — a well-formed record behind one marker is
        /// recovered, and the scanner emits nothing it did not validate.
        #[test]
        fn scan_recovers_a_record_behind_garbage(
            noise in proptest::collection::vec(any::<u8>(), 0..300),
            records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..4),
            edits in 0usize..6,
            seed in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            is_stream_start in any::<bool>(),
        ) {
            let mut stream = noise;
            for record in &records {
                stream.extend_from_slice(&frame_datagram(record));
            }
            mutate(&mut stream, edits, seed);
            let garbage = stream.len();
            stream.extend_from_slice(&frame_datagram(&payload));

            let scanned = scan_records(&stream, is_stream_start);
            let mut yielded = 0;
            for record in &scanned {
                prop_assert!(record.start < record.end && record.end <= stream.len());
                let content = &stream[record.start..record.end - 1];
                let content = content.strip_prefix(&[MARKER]).unwrap_or(content);
                prop_assert_eq!(Ok(&record.payload), oracle_decode(content).as_ref());
                yielded += record.payload.len();
            }
            prop_assert!(yielded <= stream.len());
            let last = scanned.last().expect("the well-formed record");
            prop_assert_eq!((last.start, last.end), (garbage, stream.len()));
            prop_assert_eq!(&last.payload, &payload);
        }

        /// Framed records at one zero density behind noise, damaged, then
        /// cut anywhere so the fragment may start mid-record: the scanner
        /// finds exactly the records the byte loop finds, at the same
        /// positions, whether or not the fragment starts the stream.
        #[test]
        fn scan_of_a_damaged_cut_stream_equals_the_oracle(
            noise in proptest::collection::vec(any::<u8>(), 0..40),
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..400), 0..6),
            zero_one_in in 1u8..64,
            edits in 0usize..5,
            seed in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let mut stream = noise;
            for payload in &payloads {
                let payload: Vec<u8> = payload
                    .iter()
                    .map(|&b| if b.is_multiple_of(zero_one_in) { MARKER } else { b })
                    .collect();
                stream.extend_from_slice(&frame_datagram(&payload));
            }
            mutate(&mut stream, edits, seed);
            let fragment = &stream[(cut % (stream.len() as u64 + 1)) as usize..];
            for is_stream_start in [false, true] {
                prop_assert_eq!(
                    scan_records(fragment, is_stream_start),
                    oracle_scan(fragment, is_stream_start)
                );
            }
        }
    }
}
