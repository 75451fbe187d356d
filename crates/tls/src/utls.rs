//! uTLS: out-of-order record recovery from the unmodified TLS wire format
//! (paper §6).
//!
//! The receiver gets arbitrary fragments of the TCP byte stream (from uTCP's
//! unordered delivery) and must recover complete TLS records from them
//! without any framing help:
//!
//! 1. **Locate record headers** — scan the fragment for 5-byte sequences that
//!    are *plausible* headers (right content type, version, sane length).
//!    False positives are possible since ciphertext can contain anything.
//! 2. **Predict the record number** — the MAC covers an implicit per-record
//!    sequence number, but holes earlier in the stream hide how many records
//!    precede an out-of-order fragment. The receiver estimates the number
//!    from the byte offset and the running average record size, and tries a
//!    small window of adjacent candidates.
//! 3. **Confirm with the MAC** — a candidate (header position, record
//!    number) pair is accepted only if the record decrypts and its MAC
//!    verifies; the MAC's unforgeability makes accidental false positives as
//!    hard as deliberate forgeries.
//!
//! Records that cannot be confirmed out of order are still delivered later
//! in order, exactly as standard TLS would.
//!
//! That in-order pass *is* this repo's stream TLS: [`UtlsReceiver`] is the
//! one record parser, [`crate::TlsSession`] receives through it from byte 0
//! of the connection, and it holds the connection's one copy of the received
//! stream. Offsets are the caller's own (uTCP's absolute stream offsets). A
//! receiver lives through up to two *epochs*, each a span of the stream read
//! under one set of keys with record numbers counted from 0: the session's
//! starts in the *handshake epoch* — null protection, so no out-of-order
//! pass (§6.1), only handshake records accepted, and the in-order pass hands
//! over one record and stops, because the keys for everything behind it are
//! about to change — and moves to the *application epoch* when the session
//! installs the derived keys at the in-order point. A receiver built with
//! [`UtlsReceiver::new`] alone starts in the application epoch at offset 0.
//!
//! The ciphertext runs live in a [`FragmentStore`] and are read where they
//! lie: both passes open record bodies in place.
//! Every arrival costs its own bytes and no more: the store is pruned up to
//! the in-order point after each in-order pass (and the anchors with it), so
//! neither grows with the age of the connection, and a record is opened once
//! — when the in-order point reaches a record the out-of-order pass already
//! confirmed, it steps over the length that MAC confirmed. A candidate that
//! fails is not retried under a number it already failed under, so a forged
//! header ahead of a hole costs one window of MACs, not one per arrival.

use crate::fragment::FragmentStore;
use crate::record::{RecordHeader, RecordProtection, CONTENT_HANDSHAKE, RECORD_HEADER_LEN};
use std::collections::BTreeMap;

/// What the record-size estimate starts an epoch at.
const INITIAL_RECORD_WIRE_LEN: f64 = 512.0;

/// A record recovered by the uTLS receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UtlsRecord {
    /// The TLS record number confirmed by the MAC.
    pub record_number: u64,
    /// Stream offset of the record's header, in the offsets the fragments
    /// were fed at.
    pub stream_offset: u64,
    /// Whether the record was recovered out of order (ahead of a hole).
    pub out_of_order: bool,
    /// The decrypted payload.
    pub payload: Vec<u8>,
}

/// Counters describing the receiver's work, used by the Figure 6(b) CPU-cost
/// analysis and the prediction ablation bench.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UtlsStats {
    /// Plausible headers found while scanning out-of-order fragments, each
    /// (offset, length) counted once however often its run is rescanned.
    pub candidate_headers: u64,
    /// Decrypt+MAC attempts made to confirm candidates.
    pub mac_attempts: u64,
    /// Candidates rejected by the MAC (false positives or wrong number).
    pub rejected_candidates: u64,
    /// Records delivered out of order.
    pub out_of_order_delivered: u64,
    /// Records delivered in order.
    pub in_order_delivered: u64,
    /// Records opened (decrypted, MAC verified) at the in-order point; with
    /// `out_of_order_delivered` it counts every record opened exactly once.
    pub in_order_opens: u64,
    /// Records whose number prediction needed a non-zero offset to succeed.
    pub prediction_misses: u64,
    /// Candidates whose first round of record numbers all failed the MAC,
    /// each counted once; a later estimate may still recover one, and
    /// otherwise it is delivered in order.
    pub prediction_failures: u64,
}

/// The out-of-order TLS record receiver.
pub struct UtlsReceiver {
    protection: RecordProtection,
    /// Whether this is still the handshake epoch (see the module docs).
    handshake_epoch: bool,
    /// Contiguous runs of the ciphertext stream at and beyond the in-order
    /// point, keyed by stream offset.
    store: FragmentStore,
    /// Stream offset up to which in-order processing has consumed records.
    in_order_offset: u64,
    /// Record number of the next in-order record.
    next_record_number: u64,
    /// Confirmed (offset → record number, wire length) anchors, one per
    /// record delivered ahead of the in-order point; an entry exists only
    /// because [`RecordProtection::open`] verified that record's MAC at that
    /// offset. They improve later predictions, and a record is delivered
    /// exactly once because it is delivered only when its offset is not a
    /// key here.
    anchors: BTreeMap<u64, (u64, usize)>,
    /// Record numbers already MAC'd without success, per candidate
    /// (offset, wire length) ahead of the in-order point: a rescan tries a
    /// number at an offset at most once, however often the run is scanned.
    /// Pruned with the anchors; forgotten where new bytes arrive over it.
    rejected: BTreeMap<(u64, usize), Vec<u64>>,
    /// Exponentially-weighted average wire length of confirmed records.
    avg_record_wire_len: f64,
    /// How many candidate record numbers to try on each side of the estimate.
    prediction_window: u64,
    /// Whether out-of-order recovery is enabled (disabled for the null
    /// ciphersuite, §6.1).
    out_of_order_enabled: bool,
    stats: UtlsStats,
}

impl UtlsReceiver {
    /// Create a receiver from the session's receive-direction protection.
    ///
    /// `prediction_window` is the number of candidate record numbers tried on
    /// each side of the estimate (the paper's "may try several adjacent
    /// record numbers"); 8 is a good default.
    pub fn new(protection: RecordProtection, prediction_window: u64) -> Self {
        let out_of_order_enabled = protection.suite().supports_out_of_order();
        UtlsReceiver {
            protection,
            handshake_epoch: false,
            store: FragmentStore::new(),
            in_order_offset: 0,
            next_record_number: 0,
            anchors: BTreeMap::new(),
            rejected: BTreeMap::new(),
            avg_record_wire_len: INITIAL_RECORD_WIRE_LEN,
            prediction_window,
            out_of_order_enabled,
            stats: UtlsStats::default(),
        }
    }

    /// Start in the handshake epoch instead; `protection` was the null
    /// suite's.
    pub(crate) fn in_handshake_epoch(mut self) -> Self {
        self.handshake_epoch = true;
        self
    }

    /// Leave the handshake epoch at the in-order point: everything from
    /// there on is read under `protection`, record numbers, the size
    /// estimate and the counters start afresh, and whatever the store
    /// already holds beyond that point is returned if it can be delivered.
    pub(crate) fn install_keys(&mut self, protection: RecordProtection) -> Vec<UtlsRecord> {
        self.out_of_order_enabled = protection.suite().supports_out_of_order();
        self.protection = protection;
        self.handshake_epoch = false;
        self.next_record_number = 0;
        self.rejected.clear();
        self.avg_record_wire_len = INITIAL_RECORD_WIRE_LEN;
        self.stats = UtlsStats::default();
        self.deliverable()
    }

    /// Receiver statistics.
    pub fn stats(&self) -> &UtlsStats {
        &self.stats
    }

    /// Bytes currently buffered in the fragment store.
    pub fn buffered_bytes(&self) -> usize {
        self.store.buffered_bytes()
    }

    /// Stream offset up to which records have been consumed in order.
    pub fn in_order_offset(&self) -> u64 {
        self.in_order_offset
    }

    /// Ingest a fragment of the byte stream at the given stream offset and
    /// return every record that can now be delivered.
    pub fn on_fragment(&mut self, offset: u64, data: &[u8]) -> Vec<UtlsRecord> {
        if self.store.insert(offset, data).is_none() {
            return Vec::new();
        }
        // The bytes there may have changed, and with them every MAC.
        let end = offset + data.len() as u64;
        self.rejected
            .retain(|&(at, wire_len), _| at + wire_len as u64 <= offset || at >= end);
        self.deliverable()
    }

    /// Run both passes over what the store holds.
    fn deliverable(&mut self) -> Vec<UtlsRecord> {
        let mut out = Vec::new();
        self.process_in_order(&mut out);
        // What lies below the in-order point has been delivered: a late
        // duplicate of it is ignored by `insert`, and the estimator falls
        // back to the in-order point itself, which is exact.
        let consumed = self.in_order_offset;
        self.store.prune_below(consumed);
        while let Some(anchor) = self.anchors.first_entry() {
            if *anchor.key() >= consumed {
                break;
            }
            anchor.remove();
        }
        while let Some(candidate) = self.rejected.first_entry() {
            if candidate.key().0 >= consumed {
                break;
            }
            candidate.remove();
        }
        if self.out_of_order_enabled {
            self.process_out_of_order(&mut out);
        }
        out
    }

    /// Process records at the in-order point (standard TLS processing).
    fn process_in_order(&mut self, out: &mut Vec<UtlsRecord>) {
        loop {
            let offset = self.in_order_offset;
            let Some((run_start, run)) = self.store.run_at(offset) else {
                return;
            };
            let slice = &run[(offset - run_start) as usize..];
            let record_number = self.next_record_number;
            // A record the out-of-order pass confirmed under this very
            // number has had its MAC verified over these bytes: step over
            // the confirmed length without opening it again. Anything else
            // goes through `open` below.
            let confirmed = self.anchors.get(&offset).copied();
            if let Some((number, wire_len)) = confirmed {
                if number == record_number && slice.len() >= wire_len {
                    self.next_record_number += 1;
                    self.in_order_offset += wire_len as u64;
                    continue;
                }
            }
            let Some(header) = RecordHeader::decode(slice) else {
                return;
            };
            let wire_len = RECORD_HEADER_LEN + header.length;
            if slice.len() < wire_len {
                return;
            }
            let body = &slice[RECORD_HEADER_LEN..wire_len];
            // An in-order record that fails its MAC is a genuine protocol
            // error in TLS; surface nothing and stop (the owning endpoint
            // decides whether to abort). So is one whose header carries
            // another version: the MAC covers the negotiated version, not
            // the header's two bytes, so only this compare sees them change.
            if header.version != self.protection.version() {
                return;
            }
            if self.handshake_epoch && header.content_type != CONTENT_HANDSHAKE {
                return;
            }
            let Ok(payload) = self.protection.open(record_number, &header, body) else {
                return;
            };
            self.stats.in_order_opens += 1;
            note_record_len(&mut self.avg_record_wire_len, wire_len);
            self.next_record_number += 1;
            self.in_order_offset += wire_len as u64;
            if confirmed.is_none() {
                self.stats.in_order_delivered += 1;
                out.push(UtlsRecord {
                    record_number,
                    stream_offset: offset,
                    out_of_order: false,
                    payload,
                });
            }
            // Nothing behind a handshake record is read under the keys it
            // is about to replace: the null suite has no MAC, so a record
            // opened under it would come out as its own ciphertext.
            if self.handshake_epoch {
                return;
            }
        }
    }

    /// Estimate the record number for a header found at `offset`.
    fn estimate_record_number(&self, offset: u64) -> u64 {
        // Use the nearest confirmed anchor at or below the offset, falling
        // back to the in-order point.
        let (anchor_off, anchor_num) = self.anchors.range(..=offset).next_back().map_or(
            (self.in_order_offset, self.next_record_number),
            |(&o, &(n, _))| (o, n),
        );
        if offset <= anchor_off {
            return anchor_num;
        }
        // The anchor's own record spans some bytes, so a header beyond it is
        // at least one record later.
        let gap = (offset - anchor_off) as f64;
        let estimated_records = (gap / self.avg_record_wire_len).round() as u64;
        anchor_num + estimated_records.max(1)
    }

    /// Scan fragments beyond the in-order point for recoverable records,
    /// confirming each candidate where it lies in the store.
    fn process_out_of_order(&mut self, out: &mut Vec<UtlsRecord>) {
        let version = self.protection.version();
        let window = self.prediction_window as i64;
        // Only runs that start strictly beyond the in-order point are out of
        // order; the run containing the in-order point was handled above.
        for (run_start, run) in self.store.runs_from(self.in_order_offset + 1) {
            let mut i = 0usize;
            while i + RECORD_HEADER_LEN <= run.len() {
                let stream_offset = run_start + i as u64;
                if let Some(&(_, wire_len)) = self.anchors.get(&stream_offset) {
                    // Already delivered: skip the record.
                    i += wire_len;
                    continue;
                }
                let Some(header) = RecordHeader::decode(&run[i..]) else {
                    break;
                };
                let wire_len = RECORD_HEADER_LEN + header.length;
                if !header.is_plausible(version) || i + wire_len > run.len() {
                    i += 1;
                    continue;
                }
                let body = &run[i + RECORD_HEADER_LEN..i + wire_len];
                // Step past this candidate whatever comes of it; if it turns
                // out to be a false positive we lose the chance to find a
                // header hidden inside it this round, but it will be
                // recovered in order later (same trade-off as the paper).
                i += wire_len;

                let estimate = self.estimate_record_number(stream_offset);
                let next = self.next_record_number;
                let key = (stream_offset, wire_len);
                let rejected = self.rejected.get(&key);
                if rejected.is_none() {
                    self.stats.candidate_headers += 1;
                }
                let first_round = rejected.is_none_or(Vec::is_empty);
                // Try the estimate first, then alternate outward: +1, -1,
                // +2, -2… Out-of-order records are necessarily at or beyond
                // the next in-order record number, and a number this
                // candidate already failed under fails again.
                let untried = std::iter::once(0)
                    .chain((1..=window).flat_map(|d| [d, -d]))
                    .filter_map(|d| Some((d, estimate.checked_add_signed(d)?)))
                    .filter(|&(_, n)| n >= next && rejected.is_none_or(|r| !r.contains(&n)));
                let mut tried = false;
                let mut confirmed = None;
                for (d, candidate_number) in untried.clone() {
                    self.stats.mac_attempts += 1;
                    tried = true;
                    match self.protection.open(candidate_number, &header, body) {
                        Ok(payload) => {
                            confirmed = Some((candidate_number, payload));
                            if d != 0 {
                                self.stats.prediction_misses += 1;
                            }
                            break;
                        }
                        Err(_) => self.stats.rejected_candidates += 1,
                    }
                }
                match confirmed {
                    Some((record_number, payload)) => {
                        self.rejected.remove(&key);
                        note_record_len(&mut self.avg_record_wire_len, wire_len);
                        self.anchors
                            .insert(stream_offset, (record_number, wire_len));
                        self.stats.out_of_order_delivered += 1;
                        out.push(UtlsRecord {
                            record_number,
                            stream_offset,
                            out_of_order: true,
                            payload,
                        });
                    }
                    None => {
                        let failed: Vec<u64> = untried.map(|(_, n)| n).collect();
                        if first_round && tried {
                            self.stats.prediction_failures += 1;
                        }
                        self.rejected.entry(key).or_default().extend(failed);
                    }
                }
            }
        }
    }
}

/// Fold one confirmed record's wire length into the running average.
fn note_record_len(avg: &mut f64, wire_len: usize) {
    *avg = 0.875 * *avg + 0.125 * wire_len as f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CipherSuite, CONTENT_APPLICATION_DATA, VERSION_TLS11};

    fn sender_and_receiver(window: u64) -> (RecordProtection, UtlsReceiver) {
        let enc = *b"utls-enc-key-16b";
        let mac = [9u8; 32];
        let tx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        let rx = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        (tx, UtlsReceiver::new(rx, window))
    }

    /// Build a wire stream of `n` records and return (stream, record byte
    /// ranges, payloads).
    #[allow(clippy::type_complexity)]
    fn build_stream(
        tx: &mut RecordProtection,
        payload_lens: &[usize],
    ) -> (Vec<u8>, Vec<(u64, u64)>, Vec<Vec<u8>>) {
        let mut stream = Vec::new();
        let mut ranges = Vec::new();
        let mut payloads = Vec::new();
        for (n, &len) in payload_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| ((i + n * 7) % 256) as u8).collect();
            let wire = tx.seal(n as u64, CONTENT_APPLICATION_DATA, &payload);
            let start = stream.len() as u64;
            stream.extend_from_slice(&wire);
            ranges.push((start, stream.len() as u64));
            payloads.push(payload);
        }
        (stream, ranges, payloads)
    }

    #[test]
    fn in_order_delivery_works_like_tls() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (stream, _, payloads) = build_stream(&mut tx, &[100, 200, 300]);
        let mut got = Vec::new();
        let mut offset = 0u64;
        for chunk in stream.chunks(97) {
            got.extend(rx.on_fragment(offset, chunk));
            offset += chunk.len() as u64;
        }
        assert_eq!(got.len(), 3);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec.record_number, i as u64);
            assert!(!rec.out_of_order);
            assert_eq!(rec.payload, payloads[i]);
        }
        assert_eq!(rx.stats().in_order_delivered, 3);
        assert_eq!(rx.stats().out_of_order_delivered, 0);
    }

    #[test]
    fn record_after_a_hole_is_recovered_out_of_order() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (stream, ranges, payloads) = build_stream(&mut tx, &[500, 600, 700]);
        // Deliver record 0, skip record 1, deliver record 2's bytes.
        let r0 = &stream[ranges[0].0 as usize..ranges[0].1 as usize];
        let r2 = &stream[ranges[2].0 as usize..ranges[2].1 as usize];
        let first = rx.on_fragment(0, r0);
        assert_eq!(first.len(), 1);
        assert!(!first[0].out_of_order);
        let second = rx.on_fragment(ranges[2].0, r2);
        assert_eq!(second.len(), 1, "record 2 delivered despite the hole");
        assert!(second[0].out_of_order);
        assert_eq!(second[0].record_number, 2);
        assert_eq!(second[0].payload, payloads[2]);
        // Now the hole fills: record 1 arrives and is delivered in order,
        // and record 2 is NOT delivered again.
        let r1 = &stream[ranges[1].0 as usize..ranges[1].1 as usize];
        let third = rx.on_fragment(ranges[1].0, r1);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].record_number, 1);
        assert!(!third[0].out_of_order);
        assert_eq!(rx.stats().out_of_order_delivered, 1);
        assert_eq!(rx.stats().in_order_delivered, 2);
        // Each of the three records was opened once: record 2 was stepped
        // over by its confirmed length, not decrypted again.
        assert_eq!(rx.stats().in_order_opens, 2);
        assert_eq!(rx.in_order_offset(), stream.len() as u64);
        // Nothing consumed is kept.
        assert_eq!(rx.buffered_bytes(), 0);
        assert!(rx.anchors.is_empty());
    }

    #[test]
    fn rewritten_bytes_of_a_confirmed_record_neither_redeliver_nor_stall() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (stream, ranges, _) = build_stream(&mut tx, &[500, 600, 700, 300]);
        let at = |r: (u64, u64)| r.0 as usize..r.1 as usize;
        assert_eq!(rx.on_fragment(0, &stream[at(ranges[0])]).len(), 1);
        let early = rx.on_fragment(ranges[2].0, &stream[at(ranges[2])]);
        assert_eq!((early.len(), early[0].record_number), (1, 2));
        // A second arrival over record 2's offsets with other bytes: the
        // store keeps the newer bytes, which no longer pass any MAC.
        let garbage = vec![0x5Au8; (ranges[2].1 - ranges[2].0) as usize];
        assert!(rx.on_fragment(ranges[2].0, &garbage).is_empty());
        // The hole fills: record 1 in order, record 2 stepped over by the
        // length its MAC confirmed, record 3 in order behind it.
        let rest = rx.on_fragment(ranges[1].0, &stream[at(ranges[1])]);
        assert_eq!((rest.len(), rest[0].record_number), (1, 1));
        let last = rx.on_fragment(ranges[3].0, &stream[at(ranges[3])]);
        assert_eq!((last.len(), last[0].record_number), (1, 3));
        assert!(!last[0].out_of_order);
        assert_eq!(rx.in_order_offset(), stream.len() as u64);
        assert_eq!(rx.stats().in_order_opens, 3);
        assert_eq!(rx.stats().out_of_order_delivered, 1);
    }

    #[test]
    fn an_anchor_under_another_number_is_opened_again_and_stalls() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        // The third record is sealed as number 5: ahead of a hole the window
        // confirms it under 5, but in order it has to be number 2.
        let mut stream = Vec::new();
        let mut starts = Vec::new();
        for number in [0u64, 1, 5] {
            starts.push(stream.len());
            stream.extend(tx.seal(number, CONTENT_APPLICATION_DATA, &[number as u8; 400]));
        }
        rx.on_fragment(0, &stream[..starts[1]]);
        let early = rx.on_fragment(starts[2] as u64, &stream[starts[2]..]);
        assert_eq!((early.len(), early[0].record_number), (1, 5));
        // The hole fills; the in-order point reaches the anchor expecting 2.
        let filled = rx.on_fragment(starts[1] as u64, &stream[starts[1]..starts[2]]);
        assert_eq!((filled.len(), filled[0].record_number), (1, 1));
        assert_eq!(rx.in_order_offset(), starts[2] as u64, "stalled at it");
        assert_eq!(
            rx.stats().in_order_opens,
            2,
            "only MAC-verified opens count"
        );
        assert_eq!(rx.buffered_bytes(), stream.len() - starts[2]);
    }

    #[test]
    fn record_number_prediction_copes_with_many_hidden_records() {
        let (mut tx, mut rx) = sender_and_receiver(8);
        // Records of uniform size so the estimate is accurate even when many
        // records are hidden in the hole.
        let lens: Vec<usize> = vec![400; 12];
        let (stream, ranges, payloads) = build_stream(&mut tx, &lens);
        // Deliver the first two records, then skip records 2..9 and deliver
        // records 9..12.
        rx.on_fragment(0, &stream[..ranges[1].1 as usize]);
        let tail_start = ranges[9].0;
        let recs = rx.on_fragment(tail_start, &stream[tail_start as usize..]);
        assert_eq!(recs.len(), 3);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.record_number, 9 + i as u64);
            assert!(rec.out_of_order);
            assert_eq!(rec.payload, payloads[9 + i]);
        }
    }

    #[test]
    fn variable_record_sizes_may_need_nonzero_prediction_offset() {
        let (mut tx, mut rx) = sender_and_receiver(8);
        // Wildly varying sizes make the byte-offset estimate imprecise.
        let lens = vec![100, 1500, 90, 1400, 80, 1300, 70, 1200, 60];
        let (stream, ranges, payloads) = build_stream(&mut tx, &lens);
        rx.on_fragment(0, &stream[..ranges[0].1 as usize]);
        // Skip records 1..7, deliver 7 and 8.
        let tail_start = ranges[7].0;
        let recs = rx.on_fragment(tail_start, &stream[tail_start as usize..]);
        assert_eq!(recs.len(), 2, "both tail records recovered");
        assert_eq!(recs[0].record_number, 7);
        assert_eq!(recs[0].payload, payloads[7]);
        assert_eq!(recs[1].record_number, 8);
    }

    #[test]
    fn prediction_window_of_zero_limits_recovery() {
        let (mut tx, mut rx) = sender_and_receiver(0);
        // With a zero window only the exact estimate is tried; highly
        // variable record sizes then cause some failures (delivered later in
        // order), mirroring the paper's fallback behaviour.
        let lens = vec![100, 1500, 90, 1400, 80, 1300, 70, 1200, 60, 50];
        let (stream, ranges, _payloads) = build_stream(&mut tx, &lens);
        rx.on_fragment(0, &stream[..ranges[0].1 as usize]);
        let tail_start = ranges[8].0;
        let recs = rx.on_fragment(tail_start, &stream[tail_start as usize..]);
        // Recovery is not guaranteed; what matters is no misdelivery.
        for r in &recs {
            assert!(r.record_number >= 8);
        }
        // Whatever could not be recovered is accounted for.
        let total = recs.len() as u64 + rx.stats().prediction_failures;
        assert_eq!(total, 2);
        // Once the hole fills, everything arrives in order exactly once.
        let filled = rx.on_fragment(ranges[0].1, &stream[ranges[0].1 as usize..]);
        let all_numbers: std::collections::BTreeSet<u64> = filled
            .iter()
            .chain(recs.iter())
            .map(|r| r.record_number)
            .collect();
        assert_eq!(
            all_numbers.len(),
            9,
            "records 1..=9 all delivered exactly once"
        );
    }

    #[test]
    fn a_forged_header_ahead_of_a_hole_is_macd_once_not_on_every_arrival() {
        let (mut tx, mut rx) = sender_and_receiver(8);
        let (stream, ranges, payloads) = build_stream(&mut tx, &[400; 32]);
        let at = |r: (u64, u64)| r.0 as usize..r.1 as usize;
        rx.on_fragment(0, &stream[at(ranges[0])]);
        // Records 1–10 are the hole. Record 11's header stays, its body is
        // replaced: plausible, and no number's MAC verifies.
        let mut forged = stream[at(ranges[11])].to_vec();
        forged[RECORD_HEADER_LEN..].fill(0x5A);
        assert!(rx.on_fragment(ranges[11].0, &forged).is_empty());
        let first = rx.stats().clone();
        assert_eq!(first.mac_attempts, 17, "numbers 2..=18, each once");
        assert_eq!(first.prediction_failures, 1);
        // K = 20 genuine segments behind it. Each rescan used to MAC the
        // forged header under all 17 numbers again: mac_attempts grew by
        // 361 = 17·20 + 21, and candidate_headers and prediction_failures
        // by 40 and 20. Now the 20 records cost their own 22 attempts (one
        // of them confirmed on its third number).
        for (n, &range) in ranges.iter().enumerate().skip(12) {
            let got = rx.on_fragment(range.0, &stream[at(range)]);
            assert_eq!(got.len(), 1);
            assert_eq!(
                (got[0].record_number, &got[0].payload),
                (n as u64, &payloads[n])
            );
        }
        let s = rx.stats();
        assert_eq!(s.mac_attempts - first.mac_attempts, 22);
        assert_eq!(s.prediction_misses, 1);
        assert_eq!(s.candidate_headers, first.candidate_headers + 20);
        assert_eq!(s.prediction_failures, 1, "the forged header, counted once");
        // New bytes over the forged header are tried afresh: here, the
        // genuine record 11.
        let got = rx.on_fragment(ranges[11].0, &stream[at(ranges[11])]);
        assert_eq!((got.len(), got[0].record_number), (1, 11));
        // The hole fills; what is consumed is forgotten.
        let rest = rx.on_fragment(
            ranges[0].1,
            &stream[ranges[0].1 as usize..ranges[11].0 as usize],
        );
        assert_eq!(rest.len(), 10);
        assert_eq!(rx.in_order_offset(), stream.len() as u64);
        assert!(rx.rejected.is_empty() && rx.anchors.is_empty());
    }

    #[test]
    fn a_missed_record_is_recovered_once_a_nearer_anchor_moves_its_estimate() {
        let (mut tx, mut rx) = sender_and_receiver(1);
        // Record 2 is three times the others, so ahead of the hole at 1 the
        // byte-offset estimate puts record 3 at 5: it fails under 5, 6, 4.
        let (stream, ranges, payloads) = build_stream(&mut tx, &[450, 450, 1500, 300]);
        let at = |r: (u64, u64)| r.0 as usize..r.1 as usize;
        rx.on_fragment(0, &stream[at(ranges[0])]);
        assert!(rx
            .on_fragment(ranges[3].0, &stream[at(ranges[3])])
            .is_empty());
        assert_eq!(
            (rx.stats().mac_attempts, rx.stats().prediction_failures),
            (3, 1)
        );
        // Record 2 is confirmed under its estimate and becomes the nearer
        // anchor; from it record 3's estimate is 4, and of 4, 5, 3 only 3 is
        // new. Re-trying all three, as every rescan once did, made it 7
        // attempts in all, not 5.
        let got = rx.on_fragment(ranges[2].0, &stream[at(ranges[2])]);
        let numbers: Vec<(u64, bool)> = got
            .iter()
            .map(|r| (r.record_number, r.out_of_order))
            .collect();
        assert_eq!(numbers, [(2, true), (3, true)]);
        assert_eq!(got[1].payload, payloads[3]);
        let s = rx.stats();
        assert_eq!(
            (s.mac_attempts, s.candidate_headers, s.prediction_misses),
            (5, 2, 1)
        );
        assert!(rx.rejected.is_empty());
    }

    #[test]
    fn null_suite_disables_out_of_order_recovery() {
        let tx_keys = (*b"utls-enc-key-16b", [9u8; 32]);
        let mut tx = RecordProtection::new(CipherSuite::Null, tx_keys.0, tx_keys.1, VERSION_TLS11);
        let rx_prot = RecordProtection::new(CipherSuite::Null, tx_keys.0, tx_keys.1, VERSION_TLS11);
        let mut rx = UtlsReceiver::new(rx_prot, 4);
        assert!(!rx.out_of_order_enabled);
        let (stream, ranges, _) = build_stream(&mut tx, &[100, 100, 100]);
        rx.on_fragment(0, &stream[..ranges[0].1 as usize]);
        // A fragment after a hole is NOT delivered early under the null suite.
        let recs = rx.on_fragment(ranges[2].0, &stream[ranges[2].0 as usize..]);
        assert!(recs.is_empty());
    }

    #[test]
    fn corrupted_fragment_is_never_misdelivered() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (stream, ranges, _) = build_stream(&mut tx, &[300, 300, 300]);
        rx.on_fragment(0, &stream[..ranges[0].1 as usize]);
        // Corrupt record 2's body and deliver it out of order: the MAC check
        // must reject it (no delivery), because accepting a corrupted or
        // forged record would be a security failure.
        let mut corrupted = stream[ranges[2].0 as usize..ranges[2].1 as usize].to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xA5;
        let recs = rx.on_fragment(ranges[2].0, &corrupted);
        assert!(recs.is_empty());
        assert!(rx.stats().rejected_candidates > 0);
    }

    #[test]
    fn a_flipped_version_byte_stops_in_order_delivery_at_that_record() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (mut stream, ranges, payloads) = build_stream(&mut tx, &[100, 200, 300]);
        // The MAC is computed over the negotiated version, so it still
        // verifies: only the header compare can see this change.
        stream[ranges[1].0 as usize + 2] ^= 0x01;
        let got = rx.on_fragment(0, &stream);
        assert_eq!(got.len(), 1, "nothing at or past the damaged record");
        assert_eq!(got[0].payload, payloads[0]);
        assert_eq!(rx.in_order_offset(), ranges[1].0);
    }

    #[test]
    fn bytes_behind_a_handshake_record_wait_for_the_epoch_s_keys() {
        let null = || RecordProtection::new(CipherSuite::Null, [0; 16], [0; 32], VERSION_TLS11);
        let (mut tx, keyed) = sender_and_receiver(4);
        let mut stream = null().seal(0, CONTENT_HANDSHAKE, b"hello");
        let hello_len = stream.len() as u64;
        let (records, ranges, payloads) = build_stream(&mut tx, &[300, 300, 300]);
        stream.extend(&records);
        // Record 2 and then everything else arrive ahead of the keys: only
        // the hello comes out, and the in-order point waits behind it.
        let mut rx = UtlsReceiver::new(null(), 4).in_handshake_epoch();
        let tail = (hello_len + ranges[2].0) as usize;
        assert!(rx.on_fragment(tail as u64, &stream[tail..]).is_empty());
        let hello = rx.on_fragment(0, &stream[..tail]);
        assert_eq!((hello.len(), &hello[0].payload[..]), (1, &b"hello"[..]));
        assert_eq!(rx.in_order_offset(), hello_len);
        assert!(rx.on_fragment(0, &stream).is_empty(), "nor on a replay");
        // The keys go in: numbers and counters start at the application
        // epoch, offsets stay the caller's.
        let got = rx.install_keys(keyed.protection);
        assert_eq!(got.len(), 3);
        for (n, rec) in got.iter().enumerate() {
            assert_eq!(rec.record_number, n as u64);
            assert_eq!(rec.stream_offset, hello_len + ranges[n].0);
            assert_eq!(rec.payload, payloads[n]);
        }
        assert_eq!(rx.stats().in_order_opens, 3);
        assert_eq!(rx.in_order_offset(), stream.len() as u64);
        assert_eq!(rx.buffered_bytes(), 0);
    }

    #[test]
    fn duplicate_fragments_do_not_duplicate_deliveries() {
        let (mut tx, mut rx) = sender_and_receiver(4);
        let (stream, ranges, _) = build_stream(&mut tx, &[250, 250]);
        let r0 = &stream[..ranges[0].1 as usize];
        let once = rx.on_fragment(0, r0);
        assert_eq!(rx.buffered_bytes(), 0, "consumed, so pruned");
        let again = rx.on_fragment(0, r0);
        assert_eq!(once.len(), 1);
        assert!(again.is_empty(), "duplicate data is not redelivered");
        assert_eq!(rx.buffered_bytes(), 0, "nor stored again");
    }

    #[test]
    fn empty_fragment_is_ignored() {
        let (_, mut rx) = sender_and_receiver(4);
        assert!(rx.on_fragment(0, &[]).is_empty());
        assert_eq!(rx.buffered_bytes(), 0);
    }
}
