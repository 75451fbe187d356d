//! A simulated end host: sockets, port demultiplexing, and a BSD-sockets-like
//! API (listen / connect / accept / read / write / setsockopt) over the
//! userspace TCP and UDP implementations.

use crate::addr::{SocketAddr, SocketHandle};
use crate::demux::TupleTable;
use crate::wire::TransportPacket;
use bytes::Bytes;
use minion_simnet::{NodeId, Packet, SimTime};
use minion_tcp::{
    ConnEvent, ConnStats, DeliveredChunk, Readiness, SocketOptions, TcpConfig, TcpConnection,
    TcpError, TcpSegment, WriteMeta,
};
use std::collections::{BTreeMap, VecDeque};

/// Errors from the host socket API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostError {
    /// The handle does not name a socket on this host.
    BadHandle,
    /// The operation applies to a different socket type.
    WrongSocketType,
    /// The port is already in use.
    PortInUse,
    /// The underlying TCP connection rejected the operation.
    Tcp(TcpError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::BadHandle => write!(f, "unknown socket handle"),
            HostError::WrongSocketType => write!(f, "operation not valid for this socket type"),
            HostError::PortInUse => write!(f, "port already in use"),
            HostError::Tcp(e) => write!(f, "tcp error: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<TcpError> for HostError {
    fn from(e: TcpError) -> Self {
        HostError::Tcp(e)
    }
}

struct TcpSocket {
    conn: TcpConnection,
    remote: SocketAddr,
}

struct UdpSocket {
    local_port: u16,
    recv_queue: VecDeque<(SocketAddr, Bytes)>,
}

// A host holds a handful of sockets; the TCP variant's size is fine.
#[allow(clippy::large_enum_variant)]
enum Socket {
    Tcp(TcpSocket),
    Udp(UdpSocket),
}

struct Listener {
    config: TcpConfig,
    options: SocketOptions,
    /// Connections created by incoming SYNs, awaiting `accept()`.
    pending: VecDeque<SocketHandle>,
}

/// A simulated host with its own port space and sockets.
pub struct Host {
    node: NodeId,
    name: String,
    sockets: BTreeMap<SocketHandle, Socket>,
    listeners: BTreeMap<u16, Listener>,
    /// Demux table for established/opening TCP connections: an
    /// open-addressed `(local port, peer node, peer port)` map (see
    /// [`crate::demux`]), the per-segment hot path at engine load.
    tcp_tuples: TupleTable,
    udp_ports: BTreeMap<u16, SocketHandle>,
    next_handle: u32,
    next_ephemeral_port: u16,
    /// Packets waiting to be handed to the simulator.
    outbox: Vec<Packet>,
    /// Scratch for the segments of one connection poll (no allocation per
    /// poll on the hot path).
    segments: Vec<TcpSegment>,
}

impl Host {
    /// Create a host bound to the given simulated node.
    pub fn new(node: NodeId, name: impl Into<String>) -> Self {
        Host {
            node,
            name: name.into(),
            sockets: BTreeMap::new(),
            listeners: BTreeMap::new(),
            tcp_tuples: TupleTable::new(),
            udp_ports: BTreeMap::new(),
            next_handle: 1,
            next_ephemeral_port: 40_000,
            outbox: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// The node this host is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The host's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn alloc_handle(&mut self) -> SocketHandle {
        let h = SocketHandle(self.next_handle);
        self.next_handle += 1;
        h
    }

    fn alloc_ephemeral_port(&mut self) -> u16 {
        loop {
            let p = self.next_ephemeral_port;
            self.next_ephemeral_port = self.next_ephemeral_port.wrapping_add(1).max(40_000);
            let used = self.udp_ports.contains_key(&p)
                || self.listeners.contains_key(&p)
                || self.tcp_tuples.contains_local_port(p);
            if !used {
                return p;
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP API
    // ------------------------------------------------------------------

    /// Start listening for TCP connections on `port`. Incoming connections
    /// inherit `config` and `options` and are surfaced via [`Host::accept`].
    pub fn tcp_listen(
        &mut self,
        port: u16,
        config: TcpConfig,
        options: SocketOptions,
    ) -> Result<(), HostError> {
        if self.listeners.contains_key(&port) {
            return Err(HostError::PortInUse);
        }
        self.listeners.insert(
            port,
            Listener {
                config,
                options,
                pending: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Open a TCP connection to `remote`, returning the socket handle. The
    /// SYN is emitted on the next poll.
    pub fn tcp_connect(
        &mut self,
        remote: SocketAddr,
        config: TcpConfig,
        options: SocketOptions,
        now: SimTime,
    ) -> SocketHandle {
        let local_port = self.alloc_ephemeral_port();
        let mut conn = TcpConnection::new(local_port, remote.port, config, options);
        conn.open(now);
        let handle = self.alloc_handle();
        self.tcp_tuples
            .insert((local_port, remote.node, remote.port), handle);
        self.sockets
            .insert(handle, Socket::Tcp(TcpSocket { conn, remote }));
        handle
    }

    /// Accept the next pending connection on a listening port, if any.
    /// The returned connection may still be completing its handshake.
    pub fn accept(&mut self, port: u16) -> Option<SocketHandle> {
        self.listeners.get_mut(&port)?.pending.pop_front()
    }

    fn tcp_socket_mut(&mut self, handle: SocketHandle) -> Result<&mut TcpSocket, HostError> {
        Self::tcp_socket_in(&mut self.sockets, handle)
    }

    /// [`tcp_socket_mut`](Self::tcp_socket_mut) over the socket table alone,
    /// for callers that borrow another field of the host alongside.
    fn tcp_socket_in(
        sockets: &mut BTreeMap<SocketHandle, Socket>,
        handle: SocketHandle,
    ) -> Result<&mut TcpSocket, HostError> {
        match sockets.get_mut(&handle) {
            Some(Socket::Tcp(t)) => Ok(t),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    fn tcp_socket(&self, handle: SocketHandle) -> Result<&TcpSocket, HostError> {
        match self.sockets.get(&handle) {
            Some(Socket::Tcp(t)) => Ok(t),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    /// Write data on a TCP socket.
    pub fn tcp_write(&mut self, handle: SocketHandle, data: &[u8]) -> Result<usize, HostError> {
        Ok(self.tcp_socket_mut(handle)?.conn.write(data)?)
    }

    /// Write data with uTCP metadata (priority / squash).
    pub fn tcp_write_meta(
        &mut self,
        handle: SocketHandle,
        data: &[u8],
        meta: WriteMeta,
    ) -> Result<usize, HostError> {
        Ok(self
            .tcp_socket_mut(handle)?
            .conn
            .write_with_meta(data, meta)?)
    }

    /// Read the next delivered chunk from a TCP socket.
    pub fn tcp_read(&mut self, handle: SocketHandle) -> Result<Option<DeliveredChunk>, HostError> {
        Ok(self.tcp_socket_mut(handle)?.conn.read())
    }

    /// Request an orderly close.
    pub fn tcp_close(&mut self, handle: SocketHandle) -> Result<(), HostError> {
        self.tcp_socket_mut(handle)?.conn.close();
        Ok(())
    }

    /// Whether the connection has completed its handshake.
    pub fn tcp_established(&self, handle: SocketHandle) -> Result<bool, HostError> {
        Ok(self.tcp_socket(handle)?.conn.is_established())
    }

    /// Connection statistics.
    pub fn tcp_stats(&self, handle: SocketHandle) -> Result<&ConnStats, HostError> {
        Ok(self.tcp_socket(handle)?.conn.stats())
    }

    /// Free space in the connection's send buffer.
    pub fn tcp_send_buffer_free(&self, handle: SocketHandle) -> Result<usize, HostError> {
        Ok(self.tcp_socket(handle)?.conn.send_buffer_free())
    }

    /// The remote address of a TCP socket.
    pub fn tcp_peer(&self, handle: SocketHandle) -> Result<SocketAddr, HostError> {
        Ok(self.tcp_socket(handle)?.remote)
    }

    /// The local port of a TCP socket.
    pub fn tcp_local_port(&self, handle: SocketHandle) -> Result<u16, HostError> {
        Ok(self.tcp_socket(handle)?.conn.local_port())
    }

    /// Direct access to the underlying connection (used by experiment
    /// instrumentation; not part of the portable API).
    pub fn tcp_connection(&self, handle: SocketHandle) -> Result<&TcpConnection, HostError> {
        Ok(&self.tcp_socket(handle)?.conn)
    }

    // ------------------------------------------------------------------
    // UDP API
    // ------------------------------------------------------------------

    /// Bind a UDP socket to `port` (0 picks an ephemeral port).
    pub fn udp_bind(&mut self, port: u16) -> Result<SocketHandle, HostError> {
        let port = if port == 0 {
            self.alloc_ephemeral_port()
        } else {
            port
        };
        if self.udp_ports.contains_key(&port) {
            return Err(HostError::PortInUse);
        }
        let handle = self.alloc_handle();
        self.udp_ports.insert(port, handle);
        self.sockets.insert(
            handle,
            Socket::Udp(UdpSocket {
                local_port: port,
                recv_queue: VecDeque::new(),
            }),
        );
        Ok(handle)
    }

    /// The local port of a UDP socket.
    fn udp_local_port(&self, handle: SocketHandle) -> Result<u16, HostError> {
        match self.sockets.get(&handle) {
            Some(Socket::Udp(u)) => Ok(u.local_port),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    /// Send a UDP datagram to `remote`.
    pub fn udp_send_to(
        &mut self,
        handle: SocketHandle,
        remote: SocketAddr,
        data: &[u8],
    ) -> Result<(), HostError> {
        let local_port = self.udp_local_port(handle)?;
        let tp = TransportPacket::Udp {
            src_port: local_port,
            dst_port: remote.port,
            payload: Bytes::copy_from_slice(data),
        };
        let pkt = Packet::routed(self.node, remote.node, self.node, remote.node, tp.encode());
        self.outbox.push(pkt);
        Ok(())
    }

    /// Receive the next queued UDP datagram, if any.
    pub fn udp_recv(
        &mut self,
        handle: SocketHandle,
    ) -> Result<Option<(SocketAddr, Bytes)>, HostError> {
        match self.sockets.get_mut(&handle) {
            Some(Socket::Udp(u)) => Ok(u.recv_queue.pop_front()),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    // ------------------------------------------------------------------
    // Packet processing and polling
    // ------------------------------------------------------------------

    /// Process a packet delivered to this host, reporting which socket
    /// consumed it (the demultiplexing result).
    ///
    /// The event loop ([`crate::Sim`]) uses the returned handle to mark
    /// exactly one flow ready instead of rescanning every socket. A newly
    /// created connection (a SYN hitting a listener) returns its fresh
    /// handle; undeliverable packets return `None`.
    pub(crate) fn on_packet_demux(
        &mut self,
        packet: &Packet,
        now: SimTime,
    ) -> Option<SocketHandle> {
        let tp = TransportPacket::decode(&packet.payload)?;
        match tp {
            TransportPacket::Tcp(seg) => self.on_tcp_segment(seg, packet.origin, now),
            TransportPacket::Udp {
                src_port,
                dst_port,
                payload,
            } => {
                let &handle = self.udp_ports.get(&dst_port)?;
                if let Some(Socket::Udp(u)) = self.sockets.get_mut(&handle) {
                    u.recv_queue
                        .push_back((SocketAddr::new(packet.origin, src_port), payload));
                    Some(handle)
                } else {
                    None
                }
            }
        }
    }

    fn on_tcp_segment(
        &mut self,
        seg: TcpSegment,
        from: NodeId,
        now: SimTime,
    ) -> Option<SocketHandle> {
        let key = (seg.dst_port, from, seg.src_port);
        if let Some(handle) = self.tcp_tuples.get(&key) {
            if let Some(Socket::Tcp(t)) = self.sockets.get_mut(&handle) {
                t.conn.on_segment(&seg, now);
                return Some(handle);
            }
            return None;
        }
        // No existing connection: maybe a SYN for a listening port.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(listener) = self.listeners.get(&seg.dst_port) {
                let config = listener.config.clone();
                let options = listener.options;
                let mut conn = TcpConnection::new(seg.dst_port, seg.src_port, config, options);
                conn.listen();
                conn.on_segment(&seg, now);
                let handle = self.alloc_handle();
                let remote = SocketAddr::new(from, seg.src_port);
                self.tcp_tuples.insert(key, handle);
                self.sockets
                    .insert(handle, Socket::Tcp(TcpSocket { conn, remote }));
                self.listeners
                    .get_mut(&seg.dst_port)
                    .expect("listener exists")
                    .pending
                    .push_back(handle);
                return Some(handle);
            }
        }
        None
    }

    /// Poll a single TCP socket for outgoing packets and timer work,
    /// appending the resulting packets to `out`.
    ///
    /// The event loop knows which flows are ready (from arrivals, its timer
    /// wheel and the application's writes) and polls exactly those. The
    /// caller supplies a reusable buffer so the hot path does not allocate
    /// per poll. Returns the number of packets produced.
    pub(crate) fn poll_handle_into(
        &mut self,
        handle: SocketHandle,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) -> Result<usize, HostError> {
        let t = Self::tcp_socket_in(&mut self.sockets, handle)?;
        let to = t.remote.node;
        let produced = t.conn.poll_into(now, &mut self.segments);
        let node = self.node;
        out.extend(
            self.segments
                .drain(..)
                .map(|seg| Packet::routed(node, to, node, to, TransportPacket::Tcp(seg).encode())),
        );
        Ok(produced)
    }

    /// Move the UDP datagrams sent since the last call into `out`.
    pub(crate) fn drain_udp_outbox(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.outbox);
    }

    /// The handle the next socket opened on this host will get. Handles are
    /// sequential, so the sockets opened since an earlier reading are
    /// exactly the handles from that reading up to this one.
    pub(crate) fn next_handle(&self) -> u32 {
        self.next_handle
    }

    /// Whether `handle` names a TCP socket.
    pub(crate) fn is_tcp(&self, handle: SocketHandle) -> bool {
        self.tcp_socket(handle).is_ok()
    }

    /// The earliest timer of a single TCP socket (wheel re-arming).
    pub(crate) fn next_timer_of(&self, handle: SocketHandle) -> Result<Option<SimTime>, HostError> {
        Ok(self.tcp_socket(handle)?.conn.next_timer())
    }

    /// Enable or disable edge-event recording on one connection (see
    /// [`minion_tcp::TcpConnection::set_event_interest`]).
    pub(crate) fn tcp_set_event_interest(
        &mut self,
        handle: SocketHandle,
        enabled: bool,
    ) -> Result<(), HostError> {
        self.tcp_socket_mut(handle)?
            .conn
            .set_event_interest(enabled);
        Ok(())
    }

    /// Drain the queued readiness events of one connection.
    pub(crate) fn tcp_take_events(
        &mut self,
        handle: SocketHandle,
    ) -> Result<impl Iterator<Item = ConnEvent> + '_, HostError> {
        Ok(self.tcp_socket_mut(handle)?.conn.take_events())
    }

    /// Level-triggered readiness snapshot of one connection.
    pub fn tcp_readiness(&self, handle: SocketHandle) -> Result<Readiness, HostError> {
        Ok(self.tcp_socket(handle)?.conn.readiness())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(NodeId(0), "h0")
    }

    #[test]
    fn udp_bind_and_port_conflicts() {
        let mut h = host();
        let a = h.udp_bind(5000).unwrap();
        assert_eq!(h.udp_local_port(a).unwrap(), 5000);
        assert_eq!(h.udp_bind(5000), Err(HostError::PortInUse));
        let b = h.udp_bind(0).unwrap();
        assert!(h.udp_local_port(b).unwrap() >= 40_000);
    }

    #[test]
    fn udp_send_produces_packet_and_recv_round_trips() {
        let mut sender = Host::new(NodeId(0), "a");
        let mut receiver = Host::new(NodeId(1), "b");
        let s = sender.udp_bind(1111).unwrap();
        let r = receiver.udp_bind(2222).unwrap();
        sender
            .udp_send_to(s, SocketAddr::new(NodeId(1), 2222), b"ping")
            .unwrap();
        let mut pkts = Vec::new();
        sender.drain_udp_outbox(&mut pkts);
        assert_eq!(pkts.len(), 1);
        assert_eq!(receiver.on_packet_demux(&pkts[0], SimTime::ZERO), Some(r));
        let (from, data) = receiver.udp_recv(r).unwrap().unwrap();
        assert_eq!(from, SocketAddr::new(NodeId(0), 1111));
        assert_eq!(&data[..], b"ping");
        assert!(receiver.udp_recv(r).unwrap().is_none());
    }

    #[test]
    fn tcp_listen_rejects_duplicate_port() {
        let mut h = host();
        h.tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        assert_eq!(
            h.tcp_listen(80, TcpConfig::default(), SocketOptions::standard()),
            Err(HostError::PortInUse)
        );
    }

    #[test]
    fn bad_handles_are_rejected() {
        let mut h = host();
        let bogus = SocketHandle(999);
        assert_eq!(h.tcp_write(bogus, b"x"), Err(HostError::BadHandle));
        assert_eq!(h.tcp_read(bogus), Err(HostError::BadHandle));
        assert_eq!(h.udp_recv(bogus), Err(HostError::BadHandle));
        let udp = h.udp_bind(0).unwrap();
        assert_eq!(h.tcp_write(udp, b"x"), Err(HostError::WrongSocketType));
    }

    #[test]
    fn demux_reports_consuming_socket_and_per_handle_poll_drives_handshake() {
        let mut client = Host::new(NodeId(0), "client");
        let mut server = Host::new(NodeId(1), "server");
        server
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = client.tcp_connect(
            SocketAddr::new(NodeId(1), 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        );
        client.tcp_set_event_interest(ch, true).unwrap();

        // Drive the handshake purely through the per-handle APIs.
        let mut t = SimTime::ZERO;
        let mut sh = None;
        let mut wire: Vec<Packet> = Vec::new();
        for _ in 0..6 {
            wire.clear();
            client.poll_handle_into(ch, t, &mut wire).unwrap();
            for p in &wire {
                let consumed = server.on_packet_demux(p, t);
                assert!(consumed.is_some(), "server must demux every segment");
                sh = consumed;
            }
            if let Some(sh) = sh {
                wire.clear();
                server.poll_handle_into(sh, t, &mut wire).unwrap();
                for p in &wire {
                    assert_eq!(client.on_packet_demux(p, t), Some(ch));
                }
            }
            t += minion_simnet::SimDuration::from_millis(10);
        }
        let sh = sh.expect("SYN created a server-side socket");
        assert_eq!(server.accept(80), Some(sh));
        assert!(client.tcp_established(ch).unwrap());
        assert!(server.tcp_established(sh).unwrap());
        assert!(client
            .tcp_take_events(ch)
            .unwrap()
            .any(|ev| ev == minion_tcp::ConnEvent::Established));
        assert!(client.tcp_readiness(ch).unwrap().writable);
        assert!(client.next_timer_of(ch).is_ok());
        // Bad handles are rejected across the new APIs.
        let bogus = SocketHandle(999);
        let mut sink = Vec::new();
        assert_eq!(
            client.poll_handle_into(bogus, t, &mut sink),
            Err(HostError::BadHandle)
        );
        assert_eq!(client.next_timer_of(bogus), Err(HostError::BadHandle));
        assert_eq!(
            client.tcp_take_events(bogus).err(),
            Some(HostError::BadHandle)
        );
    }

    /// Carry packets between `client`'s socket `ch` and `server` for six
    /// 10 ms rounds. `sh` is the server-side socket, which exists once a SYN
    /// has been demultiplexed.
    fn exchange(
        client: &mut Host,
        ch: SocketHandle,
        server: &mut Host,
        sh: &mut Option<SocketHandle>,
        t: &mut SimTime,
    ) {
        let mut wire: Vec<Packet> = Vec::new();
        for _ in 0..6 {
            client.poll_handle_into(ch, *t, &mut wire).unwrap();
            for p in wire.drain(..) {
                *sh = server.on_packet_demux(&p, *t).or(*sh);
            }
            if let Some(sh) = *sh {
                server.poll_handle_into(sh, *t, &mut wire).unwrap();
                for p in wire.drain(..) {
                    assert_eq!(client.on_packet_demux(&p, *t), Some(ch));
                }
            }
            *t += minion_simnet::SimDuration::from_millis(10);
        }
    }

    #[test]
    fn tcp_connect_accept_handshake_via_manual_packet_exchange() {
        let mut client = Host::new(NodeId(0), "client");
        let mut server = Host::new(NodeId(1), "server");
        server
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = client.tcp_connect(
            SocketAddr::new(NodeId(1), 80),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        );
        let (mut t, mut sh) = (SimTime::ZERO, None);
        exchange(&mut client, ch, &mut server, &mut sh, &mut t);
        let sh = server.accept(80).expect("pending connection");
        assert!(client.tcp_established(ch).unwrap());
        assert!(server.tcp_established(sh).unwrap());
        assert!(server.accept(80).is_none(), "only one connection pending");

        // Data flows both ways.
        client.tcp_write(ch, b"hello server").unwrap();
        server.tcp_write(sh, b"hello client").unwrap();
        exchange(&mut client, ch, &mut server, &mut Some(sh), &mut t);
        assert_eq!(
            server.tcp_read(sh).unwrap().unwrap().data.as_ref(),
            b"hello server"
        );
        assert_eq!(
            client.tcp_read(ch).unwrap().unwrap().data.as_ref(),
            b"hello client"
        );
    }
}
