//! A single datagram-transport type unifying every Minion protocol and shim
//! (paper §3.2): applications written against [`MinionTransport`] can run
//! over uCOBS, uTLS, UDP, or the conventional TCP baseline by changing one
//! configuration value — which is how the evaluation harness runs the same
//! workload over each substrate, and reads the same [`DatagramStats`] off
//! each when it is done.

use crate::config::{MinionConfig, Protocol};
use crate::shims::{TcpTlvSocket, UdpShim};
use crate::ucobs::{Datagram, DatagramStats, UcobsSocket};
use crate::utls_socket::UtlsSocket;
use minion_simnet::SimTime;
use minion_stack::{Host, HostError, SocketAddr};

/// A datagram connection over any of Minion's substrates.
pub enum MinionTransport {
    /// uCOBS over TCP/uTCP.
    Ucobs(UcobsSocket),
    /// uTLS over TCP/uTCP.
    Utls(Box<UtlsSocket>),
    /// Plain UDP.
    Udp(UdpShim),
    /// Length-prefixed datagrams over standard TCP (in-order baseline).
    TcpTlv(TcpTlvSocket),
}

impl MinionTransport {
    /// Open a client connection of the chosen protocol to `remote`.
    pub fn connect(
        protocol: Protocol,
        host: &mut Host,
        remote: SocketAddr,
        config: &MinionConfig,
        now: SimTime,
    ) -> Result<Self, HostError> {
        Ok(match protocol {
            Protocol::Ucobs => {
                MinionTransport::Ucobs(UcobsSocket::connect(host, remote, config, now))
            }
            Protocol::Utls => {
                MinionTransport::Utls(Box::new(UtlsSocket::connect(host, remote, config, now)))
            }
            Protocol::Udp => MinionTransport::Udp(UdpShim::bind(host, 0, Some(remote))?),
            Protocol::TcpTlv => {
                MinionTransport::TcpTlv(TcpTlvSocket::connect(host, remote, config, now))
            }
        })
    }

    /// Start listening for the chosen protocol on `port`. UDP is
    /// connectionless and has nothing to listen with: `accept` binds the port.
    pub fn listen(
        protocol: Protocol,
        host: &mut Host,
        port: u16,
        config: &MinionConfig,
    ) -> Result<(), HostError> {
        match protocol {
            Protocol::Ucobs => UcobsSocket::listen(host, port, config),
            Protocol::Utls => UtlsSocket::listen(host, port, config),
            Protocol::Udp => Ok(()),
            Protocol::TcpTlv => TcpTlvSocket::listen(host, port, config),
        }
    }

    /// Accept a pending connection of the chosen protocol on `port`.
    ///
    /// For UDP, which is connectionless, this binds `port` and returns the
    /// shim the first time it is called (the port is in use from then on);
    /// the remote address is learned from the first datagram received.
    pub fn accept(
        protocol: Protocol,
        host: &mut Host,
        port: u16,
        config: &MinionConfig,
    ) -> Option<Self> {
        match protocol {
            Protocol::Ucobs => UcobsSocket::accept(host, port).map(MinionTransport::Ucobs),
            Protocol::Utls => {
                UtlsSocket::accept(host, port, config).map(|s| MinionTransport::Utls(Box::new(s)))
            }
            Protocol::Udp => UdpShim::bind(host, port, None)
                .ok()
                .map(MinionTransport::Udp),
            Protocol::TcpTlv => TcpTlvSocket::accept(host, port).map(MinionTransport::TcpTlv),
        }
    }

    /// Which protocol this transport uses.
    pub fn protocol(&self) -> Protocol {
        match self {
            MinionTransport::Ucobs(_) => Protocol::Ucobs,
            MinionTransport::Utls(_) => Protocol::Utls,
            MinionTransport::Udp(_) => Protocol::Udp,
            MinionTransport::TcpTlv(_) => Protocol::TcpTlv,
        }
    }

    /// Whether the transport is ready to carry datagrams.
    pub fn is_established(&self, host: &Host) -> bool {
        match self {
            MinionTransport::Ucobs(s) => s.is_established(host),
            MinionTransport::Utls(s) => s.is_established(),
            MinionTransport::Udp(_) => true,
            MinionTransport::TcpTlv(s) => s.is_established(host),
        }
    }

    /// Send one datagram with a priority hint (meaningful only for uCOBS over
    /// uTCP; other transports ignore it).
    pub fn send(
        &mut self,
        host: &mut Host,
        datagram: &[u8],
        priority: u32,
    ) -> Result<(), HostError> {
        match self {
            MinionTransport::Ucobs(s) => s.send(host, datagram, priority),
            MinionTransport::Utls(s) => s.send_datagram(host, datagram),
            MinionTransport::Udp(s) => s.send_datagram(host, datagram),
            MinionTransport::TcpTlv(s) => s.send_datagram(host, datagram),
        }
    }

    /// Send with default priority.
    pub fn send_datagram(&mut self, host: &mut Host, datagram: &[u8]) -> Result<(), HostError> {
        self.send(host, datagram, 0)
    }

    /// Receive all datagrams that can currently be delivered.
    pub fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        match self {
            MinionTransport::Ucobs(s) => s.recv(host),
            MinionTransport::Utls(s) => s.recv(host),
            MinionTransport::Udp(s) => s.recv(host),
            MinionTransport::TcpTlv(s) => s.recv(host),
        }
    }

    /// Endpoint statistics, in the one shape every substrate reports.
    pub fn stats(&self) -> &DatagramStats {
        match self {
            MinionTransport::Ucobs(s) => s.stats(),
            MinionTransport::Utls(s) => s.stats(),
            MinionTransport::Udp(s) => s.stats(),
            MinionTransport::TcpTlv(s) => s.stats(),
        }
    }

    /// Free space in the underlying send buffer, if the transport has one
    /// (UDP reports `usize::MAX`).
    pub fn send_buffer_free(&self, host: &Host) -> usize {
        match self {
            MinionTransport::Ucobs(s) => s.send_buffer_free(host),
            MinionTransport::Utls(s) => s.send_buffer_free(host),
            MinionTransport::Udp(_) => usize::MAX,
            MinionTransport::TcpTlv(s) => s.send_buffer_free(host),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, LossConfig, NodeId, SimDuration};
    use minion_stack::Sim;

    /// A client on `a` and the connection `b` accepted from it, handshakes
    /// done, over a link that loses client→server packets as `loss` says.
    fn establish(
        protocol: Protocol,
        loss: LossConfig,
    ) -> (Sim, NodeId, NodeId, MinionTransport, MinionTransport) {
        let mut sim = Sim::new(31);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        let link = LinkConfig::new(10_000_000, SimDuration::from_millis(20));
        sim.link_asymmetric(a, b, link.clone().with_loss(loss), link);
        let config = MinionConfig::default();
        MinionTransport::listen(protocol, sim.host_mut(b), 4000, &config).unwrap();
        let now = sim.now();
        let mut client = MinionTransport::connect(
            protocol,
            sim.host_mut(a),
            SocketAddr::new(b, 4000),
            &config,
            now,
        )
        .unwrap();
        sim.run_for(SimDuration::from_millis(200));

        // Drive handshakes (uTLS needs a few exchanges).
        let mut accepted = MinionTransport::accept(protocol, sim.host_mut(b), 4000, &config);
        for _ in 0..5 {
            if let Some(s) = accepted.as_mut() {
                let _ = s.recv(sim.host_mut(b));
            }
            let _ = client.recv(sim.host_mut(a));
            sim.run_for(SimDuration::from_millis(80));
            if accepted.is_none() {
                accepted = MinionTransport::accept(protocol, sim.host_mut(b), 4000, &config);
            }
        }
        let server = accepted.expect("connection accepted");
        assert_eq!(client.protocol(), protocol);
        assert!(client.is_established(sim.host(a)));
        (sim, a, b, client, server)
    }

    fn exercise(protocol: Protocol) {
        let (mut sim, a, b, mut client, mut server) = establish(protocol, LossConfig::None);
        for i in 0..10u8 {
            client.send(sim.host_mut(a), &vec![i; 300], 0).unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        let got = server.recv(sim.host_mut(b));
        assert_eq!(got.len(), 10, "protocol {protocol:?}");
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.payload, vec![i as u8; 300]);
        }
    }

    #[test]
    fn ucobs_transport_carries_datagrams() {
        exercise(Protocol::Ucobs);
    }

    #[test]
    fn utls_transport_carries_datagrams() {
        exercise(Protocol::Utls);
    }

    #[test]
    fn udp_transport_carries_datagrams() {
        exercise(Protocol::Udp);
    }

    #[test]
    fn tcp_tlv_transport_carries_datagrams() {
        exercise(Protocol::TcpTlv);
    }

    #[test]
    fn stats_count_what_recv_returned_on_every_substrate() {
        for protocol in [
            Protocol::Ucobs,
            Protocol::Utls,
            Protocol::Udp,
            Protocol::TcpTlv,
        ] {
            // A dry run finds how many packets the client's handshake takes
            // (the run repeats exactly); the real one loses the second data
            // packet after them.
            let (sim, a, b, ..) = establish(protocol, LossConfig::None);
            let handshake = sim.link_stats(a, b).expect("linked").packets_sent;
            let loss = LossConfig::Explicit {
                indices: vec![handshake + 2],
            };
            let (mut sim, a, b, mut client, mut server) = establish(protocol, loss);
            for i in 0..10u8 {
                client.send(sim.host_mut(a), &vec![i; 1000], 0).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..200 {
                sim.run_for(SimDuration::from_millis(10));
                got.extend(server.recv(sim.host_mut(b)));
            }
            assert_eq!(sim.link_stats(a, b).expect("linked").dropped_loss, 1);
            let early = got.iter().filter(|d| d.out_of_order).count();

            let rx = server.stats();
            assert_eq!(rx.datagrams_received, got.len() as u64, "{protocol:?}");
            assert_eq!(rx.out_of_order_received, early as u64, "{protocol:?}");
            assert_eq!(
                early > 0,
                matches!(protocol, Protocol::Ucobs | Protocol::Utls),
                "{protocol:?}: only a uTCP substrate delivers past the hole"
            );
            let lost = usize::from(protocol == Protocol::Udp);
            assert_eq!(got.len(), 10 - lost, "{protocol:?}: only UDP loses it");
            if protocol != Protocol::Ucobs {
                assert_eq!(rx.duplicates_suppressed, 0, "{protocol:?}");
            }

            let tx = client.stats();
            assert_eq!(tx.datagrams_sent, 10, "{protocol:?}");
            assert_eq!(tx.payload_bytes_sent, 10_000, "{protocol:?}");
            assert!(tx.wire_bytes_sent >= tx.payload_bytes_sent, "{protocol:?}");
        }
    }
}
