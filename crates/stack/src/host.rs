//! A simulated end host: sockets, port demultiplexing, and a BSD-sockets-like
//! API (listen / connect / accept / read / write / setsockopt) over the
//! userspace TCP and UDP implementations.

use crate::addr::{SocketAddr, SocketHandle};
use crate::demux::{TupleKey, TupleTable};
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

// Almost every socket is TCP, so the UDP variant's padding costs little;
// boxing the TCP variant would cost an allocation per connection.
#[allow(clippy::large_enum_variant)]
enum Socket {
    Tcp(TcpSocket),
    Udp(UdpSocket),
}

struct Listener {
    config: TcpConfig,
    options: SocketOptions,
    /// Connections created by incoming SYNs, awaiting [`Host::accept`].
    /// Every driver accepts, the load transport included, so the queue
    /// drains; a socket waiting here is still a flow of the loop.
    pending: VecDeque<SocketHandle>,
}

/// A set of ports, one bit each. It allocates its 8 KiB at the first
/// insert, so a host that opens no TCP connection pays nothing.
#[derive(Default)]
struct PortSet(Vec<u64>);

impl PortSet {
    fn insert(&mut self, port: u16) {
        if self.0.is_empty() {
            self.0 = vec![0; 1 << 10];
        }
        self.0[usize::from(port >> 6)] |= 1 << (port & 63);
    }

    fn contains(&self, port: u16) -> bool {
        self.0
            .get(usize::from(port >> 6))
            .is_some_and(|word| word >> (port & 63) & 1 == 1)
    }
}

/// The first ephemeral port; the range runs to 65535 and wraps.
const FIRST_EPHEMERAL_PORT: u16 = 40_000;

/// A simulated host with its own port space and sockets.
///
/// Socket handles are dense and never reused: the host numbers its sockets
/// 1, 2, 3 … in creation order, UDP and TCP alike, and never removes one.
/// So handle `h` is `sockets[h.0 - 1]`, handle 0 names nothing, and a table
/// indexed by handle stays as dense as the host's sockets. Listeners and
/// demux tuples are never removed either.
pub struct Host {
    node: NodeId,
    name: String,
    sockets: Vec<Socket>,
    listeners: BTreeMap<u16, Listener>,
    /// Demux table for established/opening TCP connections: a
    /// `(local port, peer node, peer port)` map (see [`crate::demux`]), the
    /// per-segment hot path at engine load.
    tcp_tuples: TupleTable,
    /// The local port of every tuple in `tcp_tuples`, connected and
    /// accepted alike: exact, because no tuple is ever removed.
    tcp_ports: PortSet,
    udp_ports: BTreeMap<u16, SocketHandle>,
    next_ephemeral_port: u16,
    /// Packets waiting to be handed to the simulator.
    outbox: Vec<Packet>,
    /// TCP sockets the application acted on since the event loop last
    /// looked ([`Host::drain_acted`]), in call order, with repeats.
    acted: Vec<SocketHandle>,
    /// Scratch for the segments of one connection poll (no allocation per
    /// poll on the hot path).
    segments: Vec<TcpSegment>,
}

/// Where `handle` sits in [`Host`]'s socket table. Handle 0 maps past the
/// end of any table, so it names nothing.
fn index(handle: SocketHandle) -> usize {
    (handle.0 as usize).wrapping_sub(1)
}

impl Host {
    /// Create a host bound to the given simulated node.
    pub fn new(node: NodeId, name: impl Into<String>) -> Self {
        Host {
            node,
            name: name.into(),
            sockets: Vec::new(),
            listeners: BTreeMap::new(),
            tcp_tuples: TupleTable::new(),
            tcp_ports: PortSet::default(),
            udp_ports: BTreeMap::new(),
            next_ephemeral_port: FIRST_EPHEMERAL_PORT,
            outbox: Vec::new(),
            acted: Vec::new(),
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

    /// Add `socket` under the next handle.
    fn add_socket(&mut self, socket: Socket) -> SocketHandle {
        self.sockets.push(socket);
        SocketHandle(u32::try_from(self.sockets.len()).expect("fewer than 2^32 sockets"))
    }

    /// Route the segments of `key` to `handle`, and record its local port
    /// as taken.
    fn add_tuple(&mut self, key: TupleKey, handle: SocketHandle) {
        self.tcp_tuples.insert(key, handle);
        self.tcp_ports.insert(key.0);
    }

    /// The next port from 40000 upward, wrapping after 65535, that no UDP
    /// socket, listener or TCP connection of this host holds.
    ///
    /// # Panics
    ///
    /// When all 25 536 ports of the range are taken.
    fn alloc_ephemeral_port(&mut self) -> u16 {
        for _ in FIRST_EPHEMERAL_PORT..=u16::MAX {
            let p = self.next_ephemeral_port;
            self.next_ephemeral_port = p.wrapping_add(1).max(FIRST_EPHEMERAL_PORT);
            let used = self.udp_ports.contains_key(&p)
                || self.listeners.contains_key(&p)
                || self.tcp_ports.contains(p);
            if !used {
                return p;
            }
        }
        panic!("host {}: ephemeral ports exhausted", self.name);
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

    /// Open a TCP connection to `remote` from the next free ephemeral port,
    /// returning the socket handle. The SYN is emitted on the next poll.
    ///
    /// # Panics
    ///
    /// When every ephemeral port (40000–65535) is taken.
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
        let handle = self.add_socket(Socket::Tcp(TcpSocket { conn, remote }));
        self.add_tuple((local_port, remote.node, remote.port), handle);
        self.acted.push(handle);
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
        sockets: &mut [Socket],
        handle: SocketHandle,
    ) -> Result<&mut TcpSocket, HostError> {
        match sockets.get_mut(index(handle)) {
            Some(Socket::Tcp(t)) => Ok(t),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    fn tcp_socket(&self, handle: SocketHandle) -> Result<&TcpSocket, HostError> {
        match self.sockets.get(index(handle)) {
            Some(Socket::Tcp(t)) => Ok(t),
            Some(_) => Err(HostError::WrongSocketType),
            None => Err(HostError::BadHandle),
        }
    }

    /// Write data on a TCP socket.
    pub fn tcp_write(&mut self, handle: SocketHandle, data: &[u8]) -> Result<usize, HostError> {
        let n = self.tcp_socket_mut(handle)?.conn.write(data)?;
        self.acted.push(handle);
        Ok(n)
    }

    /// Write data with uTCP metadata (priority / squash).
    pub fn tcp_write_meta(
        &mut self,
        handle: SocketHandle,
        data: &[u8],
        meta: WriteMeta,
    ) -> Result<usize, HostError> {
        let n = self
            .tcp_socket_mut(handle)?
            .conn
            .write_with_meta(data, meta)?;
        self.acted.push(handle);
        Ok(n)
    }

    /// Read the next delivered chunk from a TCP socket. A chunk reopens
    /// receive-window space, so it counts as acting on the socket.
    pub fn tcp_read(&mut self, handle: SocketHandle) -> Result<Option<DeliveredChunk>, HostError> {
        let chunk = self.tcp_socket_mut(handle)?.conn.read();
        if chunk.is_some() {
            self.acted.push(handle);
        }
        Ok(chunk)
    }

    /// Request an orderly close.
    pub fn tcp_close(&mut self, handle: SocketHandle) -> Result<(), HostError> {
        self.tcp_socket_mut(handle)?.conn.close();
        self.acted.push(handle);
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
        let handle = self.add_socket(Socket::Udp(UdpSocket {
            local_port: port,
            recv_queue: VecDeque::new(),
        }));
        self.udp_ports.insert(port, handle);
        Ok(handle)
    }

    /// The local port of a UDP socket.
    fn udp_local_port(&self, handle: SocketHandle) -> Result<u16, HostError> {
        match self.sockets.get(index(handle)) {
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
        match self.sockets.get_mut(index(handle)) {
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
                if let Some(Socket::Udp(u)) = self.sockets.get_mut(index(handle)) {
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
            if let Some(Socket::Tcp(t)) = self.sockets.get_mut(index(handle)) {
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
                let remote = SocketAddr::new(from, seg.src_port);
                let handle = self.add_socket(Socket::Tcp(TcpSocket { conn, remote }));
                self.add_tuple(key, handle);
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
    /// The event loop polls a socket only when something happened to it: a
    /// packet arrived for it, its timer fired, or the application acted on
    /// it ([`Host::drain_acted`]). The caller supplies a reusable buffer
    /// so the hot path does not allocate per poll. Returns the number of
    /// packets produced.
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

    /// Move the TCP sockets the application acted on since the last call
    /// (a connect, an accepted write or close, a read that returned a
    /// chunk) into `out`, sorted and without repeats.
    pub(crate) fn drain_acted(&mut self, out: &mut Vec<SocketHandle>) {
        out.append(&mut self.acted);
        out.sort_unstable();
        out.dedup();
    }

    /// Whether the application left work for the event loop: a UDP
    /// datagram to send or a TCP socket it acted on.
    pub(crate) fn has_pending(&self) -> bool {
        !self.outbox.is_empty() || !self.acted.is_empty()
    }

    /// Whether `handle` names a TCP socket.
    pub(crate) fn is_tcp(&self, handle: SocketHandle) -> bool {
        self.tcp_socket(handle).is_ok()
    }

    /// The earliest timer of a single TCP socket (the loop re-arms its
    /// timer queue from it).
    pub(crate) fn next_timer_of(&self, handle: SocketHandle) -> Result<Option<SimTime>, HostError> {
        Ok(self.tcp_socket(handle)?.conn.next_timer())
    }

    /// Turn edge-event recording on for one connection (see
    /// [`minion_tcp::TcpConnection::enable_events`]).
    pub(crate) fn tcp_enable_events(&mut self, handle: SocketHandle) -> Result<(), HostError> {
        self.tcp_socket_mut(handle)?.conn.enable_events();
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

    fn connect(h: &mut Host, to: NodeId, port: u16) -> SocketHandle {
        h.tcp_connect(
            SocketAddr::new(to, port),
            TcpConfig::default(),
            SocketOptions::standard(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn bad_handles_are_rejected() {
        let mut h = host();
        let udp = h.udp_bind(5000).unwrap();
        let tcp = connect(&mut h, NodeId(1), 80);
        assert_eq!((udp, tcp), (SocketHandle(1), SocketHandle(2)));
        // Handle 0 and handles never issued name nothing.
        let to = SocketAddr::new(NodeId(1), 9);
        for bad in [SocketHandle(0), SocketHandle(3), SocketHandle(999)] {
            assert_eq!(h.tcp_write(bad, b"x"), Err(HostError::BadHandle));
            assert_eq!(h.tcp_read(bad), Err(HostError::BadHandle));
            assert_eq!(h.tcp_close(bad), Err(HostError::BadHandle));
            assert_eq!(h.tcp_established(bad), Err(HostError::BadHandle));
            assert_eq!(h.tcp_local_port(bad), Err(HostError::BadHandle));
            assert_eq!(h.udp_recv(bad), Err(HostError::BadHandle));
            assert_eq!(h.udp_send_to(bad, to, b"x"), Err(HostError::BadHandle));
            assert!(!h.is_tcp(bad));
        }
        // UDP and TCP share one numbering: a handle of the other type is
        // the wrong type.
        assert_eq!(h.tcp_write(udp, b"x"), Err(HostError::WrongSocketType));
        assert_eq!(h.tcp_read(udp), Err(HostError::WrongSocketType));
        assert_eq!(h.tcp_close(udp), Err(HostError::WrongSocketType));
        assert_eq!(h.tcp_peer(udp), Err(HostError::WrongSocketType));
        assert_eq!(
            h.poll_handle_into(udp, SimTime::ZERO, &mut Vec::new()),
            Err(HostError::WrongSocketType)
        );
        assert!(!h.is_tcp(udp));
        assert!(h.is_tcp(tcp));
        assert_eq!(h.udp_recv(tcp), Err(HostError::WrongSocketType));
        assert_eq!(
            h.udp_send_to(tcp, to, b"x"),
            Err(HostError::WrongSocketType)
        );
    }

    #[test]
    fn handles_are_numbered_from_one_across_every_kind_of_socket() {
        let mut client = host();
        let mut server = Host::new(NodeId(1), "server");
        assert_eq!(server.udp_bind(53), Ok(SocketHandle(1)));
        server
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let ch = connect(&mut client, NodeId(1), 80);
        assert_eq!(ch, SocketHandle(1));
        assert_eq!(client.udp_bind(0), Ok(SocketHandle(2)));
        let (mut t, mut sh) = (SimTime::ZERO, None);
        exchange(&mut client, ch, &mut server, &mut sh, &mut t);
        // The SYN made the listener's socket: the server's second handle.
        assert_eq!(sh, Some(SocketHandle(2)));
        assert_eq!(server.accept(80), Some(SocketHandle(2)));
        assert_eq!(connect(&mut server, NodeId(0), 7), SocketHandle(3));
        assert_eq!(client.udp_bind(0), Ok(SocketHandle(3)));
    }

    #[test]
    fn ephemeral_ports_count_up_from_40000() {
        let mut h = host();
        let a = connect(&mut h, NodeId(1), 80);
        let b = connect(&mut h, NodeId(1), 80);
        let u = h.udp_bind(0).unwrap();
        let c = connect(&mut h, NodeId(2), 80);
        assert_eq!(h.tcp_local_port(a), Ok(40_000));
        assert_eq!(h.tcp_local_port(b), Ok(40_001));
        assert_eq!(h.udp_local_port(u), Ok(40_002));
        assert_eq!(h.tcp_local_port(c), Ok(40_003));
    }

    #[test]
    fn a_wrapped_port_counter_skips_every_port_in_use() {
        let mut h = host();
        let tcp = connect(&mut h, NodeId(1), 80);
        assert_eq!(h.tcp_local_port(tcp), Ok(40_000));
        h.tcp_listen(40_001, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        h.udp_bind(40_002).unwrap();
        h.next_ephemeral_port = 65_535;
        let last = connect(&mut h, NodeId(1), 80);
        assert_eq!(h.tcp_local_port(last), Ok(65_535));
        let wrapped = connect(&mut h, NodeId(1), 80);
        assert_eq!(h.tcp_local_port(wrapped), Ok(40_003));
    }

    /// A host whose TCP connections hold every ephemeral port but `free`.
    fn host_with_ephemeral_ports_taken_but(free: Option<u16>) -> Host {
        let mut h = host();
        for port in FIRST_EPHEMERAL_PORT..=u16::MAX {
            if Some(port) != free {
                h.tcp_ports.insert(port);
            }
        }
        h
    }

    #[test]
    fn the_one_free_port_is_found_a_full_cycle_on() {
        // The counter stands at 40000; the only free port is 65535.
        let mut h = host_with_ephemeral_ports_taken_but(Some(u16::MAX));
        let c = connect(&mut h, NodeId(1), 80);
        assert_eq!(h.tcp_local_port(c), Ok(u16::MAX));
    }

    #[test]
    #[should_panic(expected = "host h0: ephemeral ports exhausted")]
    fn a_host_out_of_ephemeral_ports_panics_instead_of_spinning() {
        let mut h = host_with_ephemeral_ports_taken_but(None);
        connect(&mut h, NodeId(1), 80);
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
        client.tcp_enable_events(ch).unwrap();

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
    fn tuples_differing_in_one_field_reach_their_own_sockets() {
        // One listener; two peers on the same source port (the tuples differ
        // in the peer node), and one peer on 64 consecutive source ports
        // (the tuples differ in the peer port).
        let mut server = Host::new(NodeId(0), "server");
        server
            .tcp_listen(80, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let mut peers: Vec<Host> = (1..=3).map(|n| Host::new(NodeId(n), "peer")).collect();
        let mut conns: Vec<(usize, SocketHandle)> = Vec::new();
        for p in [0, 1].into_iter().chain([2; 64]) {
            conns.push((p, connect(&mut peers[p], NodeId(0), 80)));
        }
        let ports: Vec<u16> = conns
            .iter()
            .map(|&(p, ch)| peers[p].tcp_local_port(ch).unwrap())
            .collect();
        assert_eq!(ports[..2], [40_000, 40_000]);
        assert!(ports[2..].iter().zip(40_000..).all(|(&a, b)| a == b));

        // Each SYN makes its own socket.
        let mut t = SimTime::ZERO;
        let mut wire: Vec<Packet> = Vec::new();
        let mut accepted = Vec::new();
        for &(p, ch) in &conns {
            peers[p].poll_handle_into(ch, t, &mut wire).unwrap();
            assert_eq!(wire.len(), 1, "one SYN");
            let sh = server
                .on_packet_demux(&wire[0], t)
                .expect("a SYN makes a socket");
            wire.clear();
            assert_eq!(server.accept(80), Some(sh));
            accepted.push(sh);
        }
        let mut distinct = accepted.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), conns.len(), "one socket per tuple");

        // Every later segment, either way, reaches the socket of its tuple.
        let mut rounds = |peers: &mut [Host], server: &mut Host, t: &mut SimTime| {
            for _ in 0..6 {
                for (&(p, ch), &sh) in conns.iter().zip(&accepted) {
                    server.poll_handle_into(sh, *t, &mut wire).unwrap();
                    for pkt in wire.drain(..) {
                        assert_eq!(peers[p].on_packet_demux(&pkt, *t), Some(ch));
                    }
                    peers[p].poll_handle_into(ch, *t, &mut wire).unwrap();
                    for pkt in wire.drain(..) {
                        assert_eq!(server.on_packet_demux(&pkt, *t), Some(sh));
                    }
                }
                *t += minion_simnet::SimDuration::from_millis(10);
            }
        };
        rounds(&mut peers, &mut server, &mut t);
        for (i, &(p, ch)) in conns.iter().enumerate() {
            assert!(server.tcp_established(accepted[i]).unwrap());
            peers[p]
                .tcp_write(ch, format!("flow {i}").as_bytes())
                .unwrap();
        }
        rounds(&mut peers, &mut server, &mut t);
        for (i, &sh) in accepted.iter().enumerate() {
            let chunk = server.tcp_read(sh).unwrap().expect("the flow's data");
            assert_eq!(chunk.data.as_ref(), format!("flow {i}").as_bytes());
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
