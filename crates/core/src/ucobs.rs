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
//! Reassembly is the record layer's shared [`FragmentStore`]: `recv` scans
//! the run the store lends it for the chunk just inserted and moves each
//! decoded payload out to the application. The scan still re-reads the whole
//! run on every arrival behind a hole (`duplicates_suppressed` counts the
//! records it finds again).
//!
//! [`Datagram`] and [`DatagramStats`] — what every socket of this crate
//! delivers and the one shape all four count in — are defined here.

use crate::config::MinionConfig;
use minion_cobs::frame::{frame_datagram, scan_records};
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
    /// Records seen again after already being delivered (suppressed). Only
    /// uCOBS re-scans what it has delivered; every other socket reads 0.
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
    /// Absolute stream offsets of records already delivered.
    delivered: BTreeSet<u64>,
    /// Stream offset below which every record has been delivered and the
    /// store has been pruned (always sits on a record-delimiting marker).
    head_floor: u64,
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
        let framed = frame_datagram(datagram);
        host.tcp_write_meta(self.handle, &framed, WriteMeta::with_priority(priority))?;
        self.stats.note_sent(datagram.len(), framed.len());
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
            let Some((run_start, run)) = self.store.insert(chunk.offset, &chunk.data) else {
                continue;
            };
            // Scan the (possibly merged) run containing the new data. A run
            // at offset 0 needs no leading marker; a run at the pruned head
            // floor begins with the previous record's trailing marker, so
            // the ordinary marker scan applies.
            let is_head = run_start <= self.head_floor;
            let mut last_complete_end: Option<u64> = None;
            for rec in scan_records(run, run_start == 0) {
                last_complete_end = Some(run_start + rec.end as u64);
                if self.delivered.insert(run_start + rec.start as u64) {
                    out.push(self.stats.deliver(rec.payload, !chunk.in_order));
                } else {
                    self.stats.duplicates_suppressed += 1;
                }
            }
            // Bound memory and re-scan cost: once the stream-head fragment
            // has been fully scanned, drop everything before the last
            // complete record's trailing marker (which doubles as the next
            // record's leading marker).
            if is_head {
                if let Some(end) = last_complete_end {
                    let new_floor = end.saturating_sub(1);
                    if new_floor > self.head_floor {
                        self.store.prune_below(new_floor);
                        self.delivered = self.delivered.split_off(&new_floor);
                        self.head_floor = new_floor;
                    }
                }
            }
        }
        out
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
}
