//! Thin shims giving non-Minion substrates the same datagram API (paper §3.2):
//! a UDP shim (OS-level unordered datagrams) and a length-prefixed framing
//! over standard TCP (the conventional in-order baseline the evaluation
//! compares against). Both count in the same [`DatagramStats`] as the Minion
//! protocols, so a harness reads one shape off every substrate.

use crate::config::MinionConfig;
use crate::ucobs::{Datagram, DatagramStats};
use minion_cobs::TlvFramer;
use minion_simnet::SimTime;
use minion_stack::{Host, HostError, SocketAddr, SocketHandle};

/// A UDP datagram socket with the Minion datagram API.
pub struct UdpShim {
    handle: SocketHandle,
    remote: Option<SocketAddr>,
    stats: DatagramStats,
}

impl UdpShim {
    /// Bind to a local port (0 picks an ephemeral port) and optionally set a
    /// default remote for `send_datagram`.
    pub fn bind(host: &mut Host, port: u16, remote: Option<SocketAddr>) -> Result<Self, HostError> {
        let handle = host.udp_bind(port)?;
        Ok(UdpShim {
            handle,
            remote,
            stats: DatagramStats::default(),
        })
    }

    /// The underlying socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &DatagramStats {
        &self.stats
    }

    /// Send a datagram to the default remote.
    pub fn send_datagram(&mut self, host: &mut Host, datagram: &[u8]) -> Result<(), HostError> {
        let remote = self.remote.expect("UdpShim remote not set");
        host.udp_send_to(self.handle, remote, datagram)?;
        self.stats.note_sent(datagram.len(), datagram.len());
        Ok(())
    }

    /// Receive all queued datagrams.
    pub fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        let mut out = Vec::new();
        while let Ok(Some((from, data))) = host.udp_recv(self.handle) {
            if self.remote.is_none() {
                self.remote = Some(from);
            }
            // UDP has no notion of stream order; datagrams simply arrive in
            // whatever order the network delivers them.
            out.push(self.stats.deliver(data.to_vec(), false));
        }
        out
    }
}

/// Length-prefixed datagrams over a standard (in-order) TCP connection: the
/// conventional framing the paper's TCP baselines use.
pub struct TcpTlvSocket {
    handle: SocketHandle,
    deframer: TlvFramer,
    stats: DatagramStats,
}

impl TcpTlvSocket {
    /// Open a connection to `remote`.
    pub fn connect(
        host: &mut Host,
        remote: SocketAddr,
        config: &MinionConfig,
        now: SimTime,
    ) -> Self {
        // The baseline never uses uTCP options: it represents today's stacks.
        let handle = host.tcp_connect(
            remote,
            config.tcp.clone(),
            minion_tcp::SocketOptions::standard(),
            now,
        );
        TcpTlvSocket::from_handle(handle)
    }

    /// Listen for baseline connections on `port`.
    pub fn listen(host: &mut Host, port: u16, config: &MinionConfig) -> Result<(), HostError> {
        host.tcp_listen(
            port,
            config.tcp.clone(),
            minion_tcp::SocketOptions::standard(),
        )
    }

    /// Accept a pending connection.
    pub fn accept(host: &mut Host, port: u16) -> Option<Self> {
        host.accept(port).map(TcpTlvSocket::from_handle)
    }

    /// Wrap an existing TCP socket handle.
    pub(crate) fn from_handle(handle: SocketHandle) -> Self {
        TcpTlvSocket {
            handle,
            deframer: TlvFramer::new(),
            stats: DatagramStats::default(),
        }
    }

    /// The underlying socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Whether the underlying connection has completed its handshake.
    pub fn is_established(&self, host: &Host) -> bool {
        host.tcp_established(self.handle).unwrap_or(false)
    }

    /// Free space in the underlying send buffer.
    pub fn send_buffer_free(&self, host: &Host) -> usize {
        host.tcp_send_buffer_free(self.handle).unwrap_or(0)
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &DatagramStats {
        &self.stats
    }

    /// Send one datagram, length-prefixed.
    pub fn send_datagram(&mut self, host: &mut Host, datagram: &[u8]) -> Result<(), HostError> {
        let framed = TlvFramer::frame(datagram);
        host.tcp_write(self.handle, &framed)?;
        self.stats.note_sent(datagram.len(), framed.len());
        Ok(())
    }

    /// Request an orderly close.
    pub fn close(&mut self, host: &mut Host) -> Result<(), HostError> {
        host.tcp_close(self.handle)
    }

    /// Receive all complete datagrams (strictly in order).
    pub fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        while let Ok(Some(chunk)) = host.tcp_read(self.handle) {
            self.deframer.push(&chunk.data);
        }
        let mut out = Vec::new();
        while let Some(payload) = self.deframer.pop() {
            out.push(self.stats.deliver(payload, false));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, NodeId, SimDuration};
    use minion_stack::Sim;

    fn sim_pair() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(21);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        sim.link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(10)),
        );
        (sim, a, b)
    }

    #[test]
    fn udp_shim_roundtrip() {
        let (mut sim, a, b) = sim_pair();
        let mut tx = UdpShim::bind(sim.host_mut(a), 5000, Some(SocketAddr::new(b, 6000))).unwrap();
        let mut rx = UdpShim::bind(sim.host_mut(b), 6000, None).unwrap();
        for i in 0..5u8 {
            tx.send_datagram(sim.host_mut(a), &[i; 50]).unwrap();
        }
        sim.run_for(SimDuration::from_millis(100));
        let got = rx.recv(sim.host_mut(b));
        assert_eq!(got.len(), 5);
        assert_eq!(tx.stats().datagrams_sent, 5);
        assert_eq!(rx.stats().datagrams_received, 5);
        // The receiver learned the sender's address and can reply.
        rx.send_datagram(sim.host_mut(b), b"reply").unwrap();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(tx.recv(sim.host_mut(a)).len(), 1);
    }

    #[test]
    fn tcp_tlv_roundtrip_preserves_boundaries_and_order() {
        let (mut sim, a, b) = sim_pair();
        let config = MinionConfig::default();
        TcpTlvSocket::listen(sim.host_mut(b), 7000, &config).unwrap();
        let now = sim.now();
        let mut tx = TcpTlvSocket::connect(sim.host_mut(a), SocketAddr::new(b, 7000), &config, now);
        sim.run_for(SimDuration::from_millis(100));
        let mut rx = TcpTlvSocket::accept(sim.host_mut(b), 7000).unwrap();
        assert!(tx.is_established(sim.host(a)));
        let sizes = [1usize, 100, 1448, 3000, 0, 9];
        for (i, &s) in sizes.iter().enumerate() {
            tx.send_datagram(sim.host_mut(a), &vec![i as u8; s])
                .unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        let got = rx.recv(sim.host_mut(b));
        assert_eq!(got.len(), sizes.len());
        for (i, (d, &s)) in got.iter().zip(sizes.iter()).enumerate() {
            assert_eq!(d.payload.len(), s);
            assert!(d.payload.iter().all(|&x| x == i as u8));
            assert!(!d.out_of_order);
        }
    }
}
