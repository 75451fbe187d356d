//! uTLS endpoint: secure datagrams over a TCP/uTCP connection, with the
//! unchanged TLS wire format (paper §6).
//!
//! The socket holds no stream bytes of its own: every chunk `tcp_read`
//! yields goes, at its stream offset, straight to the [`TlsSession`], whose
//! receiver is the connection's one store and one record parser from the
//! first byte of the hello on. That receiver moves from its handshake epoch
//! to the application epoch when the session derives its keys; from then on
//! records ahead of a hole are delivered as they arrive when uTCP hands
//! them over and the negotiated ciphersuite permits (explicit-IV block
//! ciphers). Over standard TCP the chunks arrive in order and the same
//! receiver is stream TLS. The send path is plain TLS record sealing — the
//! current uTLS supports only receiver-side unordered delivery, exactly as
//! in the paper (§6.1).
//!
//! The socket counts in the crate's one [`DatagramStats`]; its
//! `wire_bytes_sent` includes the handshake records.

use crate::config::MinionConfig;
use crate::ucobs::{Datagram, DatagramStats};
use minion_simnet::SimTime;
use minion_stack::{Host, HostError, SocketAddr, SocketHandle};
use minion_tls::TlsSession;

/// A uTLS secure datagram socket.
pub struct UtlsSocket {
    handle: SocketHandle,
    session: TlsSession,
    /// Whether records can arrive out of order at all: uTCP receive is on
    /// and the suite allows opening them so.
    unordered: bool,
    stats: DatagramStats,
}

impl UtlsSocket {
    /// Open a uTLS connection to `remote`. The ClientHello is queued
    /// immediately.
    pub fn connect(
        host: &mut Host,
        remote: SocketAddr,
        config: &MinionConfig,
        now: SimTime,
    ) -> Self {
        let handle = host.tcp_connect(remote, config.tcp.clone(), config.socket_options, now);
        let mut session = TlsSession::client(&config.psk, config.tls.clone(), config.seed);
        let hello = session.take_outgoing();
        let _ = host.tcp_write(handle, &hello);
        let mut s = UtlsSocket::new(handle, session, config);
        s.stats.wire_bytes_sent += hello.len() as u64;
        s
    }

    /// Start listening for uTLS connections on `port`.
    pub fn listen(host: &mut Host, port: u16, config: &MinionConfig) -> Result<(), HostError> {
        host.tcp_listen(port, config.tcp.clone(), config.socket_options)
    }

    /// Accept a pending connection on a listening port.
    pub fn accept(host: &mut Host, port: u16, config: &MinionConfig) -> Option<Self> {
        let handle = host.accept(port)?;
        let session = TlsSession::server(&config.psk, config.tls.clone(), config.seed ^ 0x5eed);
        Some(UtlsSocket::new(handle, session, config))
    }

    fn new(handle: SocketHandle, session: TlsSession, config: &MinionConfig) -> Self {
        UtlsSocket {
            handle,
            session,
            unordered: config.socket_options.unordered_receive
                && config.tls.suite.supports_out_of_order(),
            stats: DatagramStats::default(),
        }
    }

    /// The underlying TCP socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Whether the TLS handshake has completed.
    pub fn is_established(&self) -> bool {
        self.session.is_established()
    }

    /// Whether out-of-order recovery is active.
    pub fn out_of_order_active(&self) -> bool {
        self.unordered && self.session.is_established()
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &DatagramStats {
        &self.stats
    }

    /// Receiver statistics (header scans, MAC attempts, prediction quality).
    pub fn receiver_stats(&self) -> Option<&minion_tls::UtlsStats> {
        self.out_of_order_active()
            .then(|| self.session.receiver_stats())
    }

    /// Free space in the underlying send buffer.
    pub fn send_buffer_free(&self, host: &Host) -> usize {
        host.tcp_send_buffer_free(self.handle).unwrap_or(0)
    }

    /// Send one datagram as a single TLS record.
    pub fn send_datagram(&mut self, host: &mut Host, datagram: &[u8]) -> Result<(), HostError> {
        let wire = self
            .session
            .seal_datagram(datagram)
            .map_err(|_| HostError::Tcp(minion_tcp::TcpError::NotConnected))?;
        host.tcp_write(self.handle, &wire)?;
        self.stats.note_sent(datagram.len(), wire.len());
        Ok(())
    }

    /// Request an orderly close of the underlying connection.
    pub fn close(&mut self, host: &mut Host) -> Result<(), HostError> {
        host.tcp_close(self.handle)
    }

    /// Drain the transport and return every datagram that can be delivered.
    pub fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        let mut out = Vec::new();
        while let Ok(Some(chunk)) = host.tcp_read(self.handle) {
            // After a malformed hello nothing is delivered (the connection
            // is effectively dead, as in TLS).
            let records = self.session.on_fragment(chunk.offset, &chunk.data);
            for rec in records.unwrap_or_default() {
                out.push(self.stats.deliver(rec.payload, rec.out_of_order));
            }
            // Send any handshake response the session produced.
            let response = self.session.take_outgoing();
            if !response.is_empty() {
                self.stats.wire_bytes_sent += response.len() as u64;
                let _ = host.tcp_write(self.handle, &response);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, LossConfig, NodeId, SimDuration};
    use minion_stack::Sim;
    use minion_tls::CipherSuite;

    fn sim_pair(loss: LossConfig, seed: u64) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(30)).with_loss(loss),
        );
        (sim, a, b)
    }

    fn establish(
        sim: &mut Sim,
        a: NodeId,
        b: NodeId,
        config: &MinionConfig,
    ) -> (UtlsSocket, UtlsSocket) {
        UtlsSocket::listen(sim.host_mut(b), 443, config).unwrap();
        let now = sim.now();
        let mut client = UtlsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 443), config, now);
        sim.run_for(SimDuration::from_millis(150));
        let mut server = UtlsSocket::accept(sim.host_mut(b), 443, config).expect("accepted");
        // Drive the handshake: server consumes the hello and responds, client
        // consumes the response.
        for _ in 0..4 {
            let _ = server.recv(sim.host_mut(b));
            let _ = client.recv(sim.host_mut(a));
            sim.run_for(SimDuration::from_millis(100));
        }
        assert!(client.is_established(), "client handshake completed");
        assert!(server.is_established(), "server handshake completed");
        (client, server)
    }

    #[test]
    fn secure_datagrams_roundtrip() {
        let (mut sim, a, b) = sim_pair(LossConfig::None, 5);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        assert!(client.out_of_order_active());
        let sent: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 200 + i * 17]).collect();
        for d in &sent {
            client.send_datagram(sim.host_mut(a), d).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        let got = server.recv(sim.host_mut(b));
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(&g.payload, s);
        }
        // Server→client direction too.
        server.send_datagram(sim.host_mut(b), b"response").unwrap();
        sim.run_for(SimDuration::from_millis(500));
        let got = client.recv(sim.host_mut(a));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"response");
    }

    #[test]
    fn loss_triggers_out_of_order_recovery() {
        // Drop one mid-stream data segment: records after it must still be
        // delivered before the retransmission arrives.
        let (mut sim, a, b) = sim_pair(LossConfig::Explicit { indices: vec![8] }, 6);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        for i in 0..12u8 {
            client
                .send_datagram(sim.host_mut(a), &vec![i; 1000])
                .unwrap();
        }
        sim.run_for(SimDuration::from_millis(100));
        let early = server.recv(sim.host_mut(b));
        assert!(
            early.iter().any(|d| d.out_of_order),
            "records past the hole were recovered out of order: {:?}",
            server.receiver_stats()
        );
        sim.run_for(SimDuration::from_secs(5));
        let late = server.recv(sim.host_mut(b));
        let mut firsts: Vec<u8> = early
            .iter()
            .chain(late.iter())
            .map(|d| d.payload[0])
            .collect();
        firsts.sort_unstable();
        assert_eq!(
            firsts,
            (0..12u8).collect::<Vec<u8>>(),
            "every record exactly once"
        );
    }

    #[test]
    fn large_transfer_has_bounded_memory() {
        let (mut sim, a, b) = sim_pair(LossConfig::from_rate(0.01), 10);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let mut received = 0usize;
        for round in 0..30 {
            for i in 0..20u8 {
                client
                    .send_datagram(sim.host_mut(a), &vec![i.wrapping_add(round); 1200])
                    .unwrap();
            }
            sim.run_for(SimDuration::from_millis(300));
            received += server.recv(sim.host_mut(b)).len();
        }
        sim.run_for(SimDuration::from_secs(5));
        received += server.recv(sim.host_mut(b)).len();
        assert_eq!(received, 600);
        let stats = server.receiver_stats().unwrap();
        assert!(stats.out_of_order_delivered > 0, "{stats:?}");
        // The receiver must not retain the stream it has consumed.
        let buffered = server.session.buffered_bytes();
        assert!(buffered < 64 * 1024, "buffered={buffered}");
    }

    #[test]
    fn stream_tls_fallback_stays_in_order() {
        let (mut sim, a, b) = sim_pair(LossConfig::Explicit { indices: vec![8] }, 7);
        let config = MinionConfig::without_utcp();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        assert!(!client.out_of_order_active());
        for i in 0..12u8 {
            client
                .send_datagram(sim.host_mut(a), &vec![i; 1000])
                .unwrap();
        }
        sim.run_for(SimDuration::from_secs(6));
        let got = server.recv(sim.host_mut(b));
        let firsts: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
        assert_eq!(firsts, (0..12u8).collect::<Vec<u8>>(), "in order, complete");
        assert!(got.iter().all(|d| !d.out_of_order));
    }

    #[test]
    fn chained_iv_suite_disables_out_of_order_but_still_works() {
        let (mut sim, a, b) = sim_pair(LossConfig::None, 8);
        let config = MinionConfig::default().with_suite(CipherSuite::Aes128CbcChainedIv);
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        assert!(
            !client.out_of_order_active(),
            "TLS 1.0-style chained IVs cannot support out-of-order delivery"
        );
        for i in 0..5u8 {
            client.send_datagram(sim.host_mut(a), &[i; 100]).unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(server.recv(sim.host_mut(b)).len(), 5);
    }

    #[test]
    fn wire_overhead_matches_tls_not_more() {
        let (mut sim, a, b) = sim_pair(LossConfig::None, 9);
        let config = MinionConfig::default();
        let (mut client, _server) = establish(&mut sim, a, b, &config);
        for _ in 0..20 {
            client
                .send_datagram(sim.host_mut(a), &vec![0u8; 1400])
                .unwrap();
        }
        let s = client.stats();
        let overhead =
            (s.wire_bytes_sent as f64 - s.payload_bytes_sent as f64) / s.payload_bytes_sent as f64;
        // The paper reports TLS overhead of up to 10%; uTLS adds nothing.
        assert!(overhead < 0.10, "overhead={overhead}");
    }
}
