//! uCOBS: unordered datagram delivery over TCP or uTCP (paper §5).
//!
//! Each datagram is COBS-encoded and bracketed by zero marker bytes, then
//! written to the TCP connection in a single `write()` (so uTCP's send-side
//! reordering never splits a record). The receiver reassembles whatever
//! stream fragments uTCP delivers — in or out of order — and extracts every
//! record whose bytes have completely arrived, delivering it immediately.
//!
//! uCOBS works unchanged over a stock TCP stack: records then simply arrive
//! in order, which is the paper's incremental-deployment story (§3.3).
//!
//! Reassembly is the record layer's shared [`FragmentStore`]: `recv` inserts
//! each chunk and scans, in the run the store lends back, only the records
//! the chunk touches — from the last marker before its first byte to the
//! first marker at or after its end. Because every record carries a marker
//! at both ends (§5.3), a record outside that window was complete before the
//! chunk arrived and was delivered then, so each record is decoded once;
//! only bytes uTCP delivers twice are scanned again (`duplicates_suppressed`
//! counts the records found in them).
//!
//! [`Datagram`] and [`DatagramStats`] — what every socket of this crate
//! delivers and the one shape all four count in — are defined here.

use crate::config::MinionConfig;
use minion_cobs::frame::{frame_into, scan_records};
use minion_cobs::MARKER;
use minion_simnet::SimTime;
use minion_stack::{Host, HostError, SocketAddr, SocketHandle};
use minion_tcp::WriteMeta;
use minion_tls::FragmentStore;
use std::collections::BTreeSet;

/// A datagram delivered by a Minion endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// The application payload.
    pub payload: Vec<u8>,
    /// True if the datagram was recovered ahead of a hole in the TCP stream
    /// (only possible when the receive-side uTCP extension is active).
    pub out_of_order: bool,
}

/// Counters for a datagram endpoint: the one shape all four sockets report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatagramStats {
    /// Datagrams submitted for transmission.
    pub datagrams_sent: u64,
    /// Application payload bytes submitted.
    pub payload_bytes_sent: u64,
    /// Bytes handed to the substrate for them: payload plus framing (COBS
    /// and markers, TLS records and the handshake, the TLV length prefix;
    /// a UDP datagram is its payload).
    pub wire_bytes_sent: u64,
    /// Datagrams delivered to the application.
    pub datagrams_received: u64,
    /// Datagrams delivered ahead of a stream hole.
    pub out_of_order_received: u64,
    /// Records uCOBS found again in bytes that uTCP delivered twice
    /// (suppressed). Every other socket reads 0.
    pub duplicates_suppressed: u64,
}

impl DatagramStats {
    /// Bandwidth expansion of the encoding actually observed
    /// (wire bytes / payload bytes).
    pub fn overhead_ratio(&self) -> f64 {
        if self.payload_bytes_sent == 0 {
            1.0
        } else {
            self.wire_bytes_sent as f64 / self.payload_bytes_sent as f64
        }
    }

    /// Count one datagram of `payload` bytes sent as `wire` bytes.
    pub(crate) fn note_sent(&mut self, payload: usize, wire: usize) {
        self.datagrams_sent += 1;
        self.payload_bytes_sent += payload as u64;
        self.wire_bytes_sent += wire as u64;
    }

    /// Count one delivery and wrap it for the application.
    pub(crate) fn deliver(&mut self, payload: Vec<u8>, out_of_order: bool) -> Datagram {
        self.datagrams_received += 1;
        self.out_of_order_received += u64::from(out_of_order);
        Datagram {
            payload,
            out_of_order,
        }
    }
}

/// A uCOBS datagram socket bound to one TCP connection on a simulated host.
pub struct UcobsSocket {
    handle: SocketHandle,
    store: FragmentStore,
    /// Absolute stream offsets of records already delivered: the
    /// exactly-once guard against uTCP delivering a byte twice.
    delivered: BTreeSet<u64>,
    /// Stream offset below which every record has been delivered and the
    /// store has been pruned (always sits on a record-delimiting marker).
    head_floor: u64,
    /// The framing buffer every `send` clears and reuses.
    frame: Vec<u8>,
    stats: DatagramStats,
}

impl UcobsSocket {
    /// Open a uCOBS connection to `remote` (active open).
    pub fn connect(
        host: &mut Host,
        remote: SocketAddr,
        config: &MinionConfig,
        now: SimTime,
    ) -> Self {
        let handle = host.tcp_connect(remote, config.tcp.clone(), config.socket_options, now);
        UcobsSocket::from_handle(handle)
    }

    /// Start listening for uCOBS connections on `port`.
    pub fn listen(host: &mut Host, port: u16, config: &MinionConfig) -> Result<(), HostError> {
        host.tcp_listen(port, config.tcp.clone(), config.socket_options)
    }

    /// Accept a pending connection on a listening port.
    pub fn accept(host: &mut Host, port: u16) -> Option<Self> {
        host.accept(port).map(UcobsSocket::from_handle)
    }

    /// Wrap an already-created TCP socket handle.
    pub(crate) fn from_handle(handle: SocketHandle) -> Self {
        UcobsSocket {
            handle,
            store: FragmentStore::new(),
            delivered: BTreeSet::new(),
            head_floor: 0,
            frame: Vec::new(),
            stats: DatagramStats::default(),
        }
    }

    /// The underlying TCP socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &DatagramStats {
        &self.stats
    }

    /// Whether the underlying connection has completed its handshake.
    pub fn is_established(&self, host: &Host) -> bool {
        host.tcp_established(self.handle).unwrap_or(false)
    }

    /// Free space in the underlying send buffer (for pacing).
    pub fn send_buffer_free(&self, host: &Host) -> usize {
        host.tcp_send_buffer_free(self.handle).unwrap_or(0)
    }

    /// Send one datagram with the given uTCP priority tag.
    ///
    /// The datagram is COBS-encoded, delimited with a marker byte at both
    /// ends, and written in a single `write()` call (§5.2).
    pub fn send(
        &mut self,
        host: &mut Host,
        datagram: &[u8],
        priority: u32,
    ) -> Result<(), HostError> {
        self.frame.clear();
        frame_into(datagram, &mut self.frame);
        host.tcp_write_meta(self.handle, &self.frame, WriteMeta::with_priority(priority))?;
        self.stats.note_sent(datagram.len(), self.frame.len());
        Ok(())
    }

    /// Send with default (zero) priority.
    pub fn send_datagram(&mut self, host: &mut Host, datagram: &[u8]) -> Result<(), HostError> {
        self.send(host, datagram, 0)
    }

    /// Request an orderly close of the underlying connection.
    pub fn close(&mut self, host: &mut Host) -> Result<(), HostError> {
        host.tcp_close(self.handle)
    }

    /// Drain the underlying connection and return every datagram that can now
    /// be delivered.
    pub fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        let mut out = Vec::new();
        while let Ok(Some(chunk)) = host.tcp_read(self.handle) {
            self.on_chunk(chunk.offset, &chunk.data, |stats, _, payload| {
                out.push(stats.deliver(payload, !chunk.in_order));
            });
        }
        out
    }

    /// Store one chunk uTCP delivered at stream offset `offset` and hand each
    /// record it completes to `deliver`, with the record's stream offset,
    /// once.
    fn on_chunk(
        &mut self,
        offset: u64,
        data: &[u8],
        mut deliver: impl FnMut(&mut DatagramStats, u64, Vec<u8>),
    ) {
        // The chunk's bytes the store keeps: none below the head floor.
        let (first, end) = (offset.max(self.head_floor), offset + data.len() as u64);
        let Some((run_start, run)) = self.store.insert(offset, data) else {
            return;
        };
        // Scan only the records the chunk touches: from the last marker
        // before its first byte to the first marker at or after its end.
        // Every other record of the run was complete before the chunk
        // arrived, and was delivered then.
        let (from, to) = ((first - run_start) as usize, (end - run_start) as usize);
        let lo = run[..from].iter().rposition(|&b| b == MARKER).unwrap_or(0);
        let hi = run[to..]
            .iter()
            .position(|&b| b == MARKER)
            .map_or(run.len(), |at| to + at + 1);
        let window_start = run_start + lo as u64;
        for rec in scan_records(&run[lo..hi], window_start == 0) {
            let at = window_start + rec.start as u64;
            if self.delivered.insert(at) {
                deliver(&mut self.stats, at, rec.payload);
            } else {
                self.stats.duplicates_suppressed += 1;
            }
        }
        // Bound memory: the head run begins at a record boundary, so every
        // record before its last marker is complete and has been delivered.
        // Drop them; the marker stays as the next record's leading one.
        if run_start <= self.head_floor {
            if let Some(last) = run.iter().rposition(|&b| b == MARKER) {
                let new_floor = run_start + last as u64;
                if new_floor > self.head_floor {
                    self.store.prune_below(new_floor);
                    self.delivered = self.delivered.split_off(&new_floor);
                    self.head_floor = new_floor;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, LossConfig, SimDuration};
    use minion_stack::Sim;

    /// Two hosts connected by a fast link with optional deterministic loss.
    fn sim_pair(loss: LossConfig) -> (Sim, minion_simnet::NodeId, minion_simnet::NodeId) {
        let mut sim = Sim::new(11);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        sim.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(30)).with_loss(loss),
        );
        (sim, a, b)
    }

    fn establish(
        sim: &mut Sim,
        a: minion_simnet::NodeId,
        b: minion_simnet::NodeId,
        config: &MinionConfig,
    ) -> (UcobsSocket, UcobsSocket) {
        UcobsSocket::listen(sim.host_mut(b), 9000, config).unwrap();
        let now = sim.now();
        let client = UcobsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 9000), config, now);
        sim.run_for(SimDuration::from_millis(200));
        let server = UcobsSocket::accept(sim.host_mut(b), 9000).expect("accepted");
        (client, server)
    }

    #[test]
    fn datagrams_roundtrip_without_loss() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        let sent: Vec<Vec<u8>> = (0..50)
            .map(|i| vec![i as u8; 100 + (i * 13) % 900])
            .collect();
        for d in &sent {
            tx.send_datagram(sim.host_mut(a), d).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        let got = rx.recv(sim.host_mut(b));
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(&g.payload, s);
        }
        assert_eq!(rx.stats().datagrams_received, 50);
        assert!(tx.stats().overhead_ratio() < 1.03, "COBS overhead is small");
    }

    #[test]
    fn datagrams_with_zero_bytes_and_empty_payloads() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        let sent = vec![
            vec![0u8; 64],
            vec![],
            vec![0, 1, 0, 2, 0, 0, 3],
            (0u8..=255).collect::<Vec<u8>>(),
        ];
        for d in &sent {
            tx.send_datagram(sim.host_mut(a), d).unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        let got = rx.recv(sim.host_mut(b));
        // The empty datagram encodes to a single COBS code byte and is
        // delivered as an empty payload.
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(&g.payload, s);
        }
    }

    #[test]
    fn loss_delays_only_the_datagrams_in_the_lost_segment() {
        // With uTCP at the receiver, datagrams in segments after the hole are
        // delivered immediately (out of order); the lost one arrives after
        // the retransmission.
        let (mut sim, a, b) = sim_pair(LossConfig::Explicit { indices: vec![4] });
        let config = MinionConfig::default();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        // Each datagram fits one segment; send enough to straddle the loss.
        for i in 0..10u8 {
            tx.send(sim.host_mut(a), &vec![i; 1000], 0).unwrap();
        }
        // Run long enough for the first flight (including the loss) but not
        // the retransmission.
        sim.run_for(SimDuration::from_millis(100));
        let early: Vec<Datagram> = rx.recv(sim.host_mut(b));
        assert!(
            early.iter().any(|d| d.out_of_order),
            "datagrams past the hole arrive early via uTCP"
        );
        assert!(early.len() < 10, "the lost datagram is not yet available");
        // After recovery everything has arrived exactly once.
        sim.run_for(SimDuration::from_secs(5));
        let late = rx.recv(sim.host_mut(b));
        let mut all: Vec<u8> = early
            .iter()
            .chain(late.iter())
            .map(|d| d.payload[0])
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10u8).collect::<Vec<u8>>());
    }

    #[test]
    fn fallback_on_standard_tcp_still_delivers_in_order() {
        let (mut sim, a, b) = sim_pair(LossConfig::Explicit { indices: vec![4] });
        let config = MinionConfig::without_utcp();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        for i in 0..10u8 {
            tx.send(sim.host_mut(a), &vec![i; 1000], 0).unwrap();
        }
        sim.run_for(SimDuration::from_millis(100));
        let early = rx.recv(sim.host_mut(b));
        assert!(
            early.iter().all(|d| !d.out_of_order),
            "stock TCP never delivers out of order"
        );
        sim.run_for(SimDuration::from_secs(5));
        let late = rx.recv(sim.host_mut(b));
        let all: Vec<u8> = early
            .iter()
            .chain(late.iter())
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(
            all,
            (0..10u8).collect::<Vec<u8>>(),
            "in-order delivery preserved"
        );
    }

    #[test]
    fn priorities_are_passed_to_the_send_queue() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        // Saturate the send buffer with low-priority datagrams, then send a
        // high-priority one; it should arrive before the tail of the bulk.
        for i in 0..40u8 {
            tx.send(sim.host_mut(a), &vec![i; 1400], 0).unwrap();
        }
        tx.send(sim.host_mut(a), b"URGENT", 7).unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let got = rx.recv(sim.host_mut(b));
        let urgent_pos = got
            .iter()
            .position(|d| d.payload == b"URGENT")
            .expect("urgent datagram delivered");
        assert!(
            urgent_pos < got.len() - 1,
            "urgent datagram passed at least some of the bulk data (pos={urgent_pos})"
        );
        assert_eq!(got.len(), 41);
    }

    #[test]
    fn large_transfer_has_bounded_memory() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut tx, mut rx) = establish(&mut sim, a, b, &config);
        let mut received = 0usize;
        for round in 0..30 {
            for i in 0..20u8 {
                tx.send(sim.host_mut(a), &vec![i.wrapping_add(round); 1200], 0)
                    .unwrap();
            }
            sim.run_for(SimDuration::from_millis(300));
            received += rx.recv(sim.host_mut(b)).len();
        }
        sim.run_for(SimDuration::from_secs(2));
        received += rx.recv(sim.host_mut(b)).len();
        assert_eq!(received, 600);
        // The receive-side fragment store must not retain the whole stream.
        assert!(
            rx.store.buffered_bytes() < 64 * 1024,
            "buffered={}",
            rx.store.buffered_bytes()
        );
    }

    /// `recv` as it was before it scanned only what a chunk touches: the
    /// whole run holding each chunk re-scanned, records found again
    /// discarded by offset, the head pruned at its last complete record.
    #[derive(Default)]
    struct RescanOracle {
        store: FragmentStore,
        delivered: BTreeSet<u64>,
        head_floor: u64,
    }

    impl RescanOracle {
        fn on_chunk(&mut self, offset: u64, data: &[u8], found: &mut BTreeSet<(u64, Vec<u8>)>) {
            let Some((run_start, run)) = self.store.insert(offset, data) else {
                return;
            };
            let mut last_end = None;
            for rec in scan_records(run, run_start == 0) {
                last_end = Some(run_start + rec.end as u64 - 1);
                if self.delivered.insert(run_start + rec.start as u64) {
                    found.insert((run_start + rec.start as u64, rec.payload));
                }
            }
            match last_end {
                Some(floor) if run_start <= self.head_floor && floor > self.head_floor => {
                    self.store.prune_below(floor);
                    self.delivered = self.delivered.split_off(&floor);
                    self.head_floor = floor;
                }
                _ => {}
            }
        }
    }

    /// A pseudo-random source: `below(n)` is in `0..n`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % bound
        }
    }

    /// A framed stream of empty, all-zero, zero-free (longer than one COBS
    /// block) and random datagrams, with a few bits flipped and a few
    /// markers injected.
    fn hostile_stream(rng: &mut Lcg) -> Vec<u8> {
        let mut stream = Vec::new();
        for _ in 0..1 + rng.below(24) {
            let datagram: Vec<u8> = match rng.below(4) {
                0 => Vec::new(),
                1 => vec![0; 1 + rng.below(300)],
                2 => (0..255 + rng.below(600))
                    .map(|_| 1 + rng.below(255) as u8)
                    .collect(),
                _ => (0..rng.below(400)).map(|_| rng.below(256) as u8).collect(),
            };
            frame_into(&datagram, &mut stream);
        }
        for _ in 0..rng.below(4) {
            let at = rng.below(stream.len());
            stream[at] ^= 1 << rng.below(8);
        }
        for _ in 0..rng.below(4) {
            let at = rng.below(stream.len());
            stream[at] = 0;
        }
        stream
    }

    /// `0..len` cut into pieces of pseudo-random sizes, as `(start, end)` in
    /// a pseudo-random delivery order, every fifth piece twice if `repeat`.
    fn cut_shuffle(len: usize, rng: &mut Lcg, repeat: bool) -> Vec<(usize, usize)> {
        let mut pieces = Vec::new();
        let mut start = 0;
        while start < len {
            let end = (start + 1 + rng.below(200)).min(len);
            pieces.push((start, end));
            if repeat && pieces.len() % 5 == 0 {
                pieces.push((start, end));
            }
            start = end;
        }
        for i in (1..pieces.len()).rev() {
            pieces.swap(i, rng.below(i + 1));
        }
        pieces
    }

    #[test]
    fn each_record_is_delivered_once_exactly_as_a_whole_run_rescan_finds_it() {
        let (mut delivered, mut suppressed) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = Lcg(seed);
            let stream = hostile_stream(&mut rng);
            let repeat = seed % 2 == 0;
            let pieces = cut_shuffle(stream.len(), &mut rng, repeat);

            let mut oracle = RescanOracle::default();
            let mut expected = BTreeSet::new();
            let mut socket = UcobsSocket::from_handle(SocketHandle(0));
            let mut got = Vec::new();
            for &(start, end) in &pieces {
                let piece = &stream[start..end];
                oracle.on_chunk(start as u64, piece, &mut expected);
                socket.on_chunk(start as u64, piece, |_, at, payload| {
                    got.push((at, payload))
                });
            }

            let offsets: BTreeSet<u64> = got.iter().map(|&(at, _)| at).collect();
            assert_eq!(
                offsets.len(),
                got.len(),
                "seed {seed}: a record delivered twice"
            );
            assert_eq!(BTreeSet::from_iter(got), expected, "seed {seed}");
            delivered += expected.len();
            suppressed += socket.stats().duplicates_suppressed;
            if !repeat {
                assert_eq!(
                    socket.stats().duplicates_suppressed,
                    0,
                    "seed {seed}: no byte arrived twice, so no record was found twice"
                );
            }
        }
        // The streams exercised what they were built to: many records, and
        // repeats that found some of them again.
        println!("{delivered} records delivered, {suppressed} found again");
        assert!(delivered > 2000 && suppressed > 0);
    }
}
