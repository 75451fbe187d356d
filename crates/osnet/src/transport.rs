//! [`OsTransport`]: the engine's [`Transport`] over real kernel sockets.
//!
//! The transport owns both ends of every connection — N nonblocking
//! clients and one nonblocking listener on loopback — and multiplexes them
//! through one edge-triggered [`Reactor`]. Sockets move through per-phase
//! states the way Demikernel's catnap backend models them:
//!
//! ```text
//! client:  Connecting --EPOLLOUT, SO_ERROR==0--> Established
//! server:  (accept)  ----------------------------Established
//! ```
//!
//! Every socket's epoll token carries its flow index, under one namespace
//! bit for clients and one for accepted connections, so a readiness event
//! names its flow without a lookup. `finish` drops the sockets.
//!
//! Time is a `MonotonicClock`: wall microseconds since the transport was
//! created, feeding both the scenario deadline and a timer queue
//! ([`TimerWheel`]) of connect watchdogs (a flow whose handshake has not
//! resolved when its timer fires fails the run immediately, rather than
//! stalling to the scenario deadline).
//!
//! Every syscall is counted; [`Transport::syscalls`] reports the total so
//! the bench can put syscalls/flow next to the sim's allocs/flow.

use crate::clock::MonotonicClock;
use crate::reactor::{Event, Reactor};
use crate::sys;
use bytes::Bytes;
use minion_engine::{
    EngineMetrics, FlowId, Histogram, PhaseProfile, TimerWheel, Transport, TransportChunk,
    TransportFlowStats,
};
use minion_simnet::{SimDuration, SimTime};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd};

/// Reactor token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Token namespace of client flows: `CLIENT_BASE | flow index`.
const CLIENT_BASE: u64 = 1 << 32;
/// Token namespace of accepted flows: `SERVER_BASE | flow index`.
const SERVER_BASE: u64 = 2 << 32;

/// Handshake watchdog: a loopback connect that has not resolved in this
/// long is dead, not slow.
const CONNECT_WATCHDOG: SimDuration = SimDuration::from_secs(5);

/// How long `finish` drains FIN exchanges before dropping the sockets.
const FINISH_DRAIN: SimDuration = SimDuration::from_millis(500);

/// `epoll_wait` timeout per [`Transport::step`] — long enough to batch,
/// short enough that deadline/watchdog checks stay responsive.
const WAIT_MS: i32 = 20;

/// Read scratch size; also the upper bound on one [`TransportChunk`].
const READ_CHUNK: usize = 64 * 1024;

/// Phase names of the OS event loop's wall-clock profile: blocked in
/// `epoll_wait` vs. dispatching the readiness edges it returned (including
/// the connect-watchdog sweep).
pub const OS_PHASES: &[&str] = &["wait", "dispatch"];
const PHASE_WAIT: usize = 0;
const PHASE_DISPATCH: usize = 1;

/// Lifecycle phase of one flow socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Nonblocking connect in flight; resolves on the first `EPOLLOUT`.
    Connecting,
    /// Connected; bytes move.
    Established,
}

/// One flow's socket and receive-side bookkeeping.
#[derive(Debug)]
struct FlowSock {
    sock: TcpStream,
    phase: Phase,
    /// Stream offset of the next byte `read` will deliver.
    read_offset: u64,
    /// Peer FIN observed (read returned 0).
    recv_closed: bool,
    /// Our FIN sent (`close` called).
    send_closed: bool,
}

/// Syscall counters, one bump per syscall issued (including ones that
/// return `WouldBlock` — the kernel crossing is what costs).
#[derive(Clone, Copy, Debug, Default)]
struct Syscalls {
    connects: u64,
    accepts: u64,
    reads: u64,
    writes: u64,
    shutdowns: u64,
    sockopts: u64,
}

/// The OS-socket [`Transport`]: nonblocking loopback TCP under an
/// edge-triggered epoll reactor.
pub struct OsTransport {
    reactor: Reactor,
    listener: TcpListener,
    server_port: u16,
    clock: MonotonicClock,
    /// Connect watchdogs, keyed by flow index, fed monotonic time.
    wheel: TimerWheel<u32>,
    flows: Vec<FlowSock>,
    accepted: Vec<(FlowId, u64)>,
    readable: Vec<FlowId>,
    writable: Vec<FlowId>,
    events: Vec<Event>,
    scratch: Vec<u8>,
    sys: Syscalls,
    // Metric counters (EngineMetrics mapping: see `metrics`).
    reads_with_data: u64,
    writes_with_progress: u64,
    bytes_written: u64,
    events_handled: u64,
    timer_fires: u64,
    finished: bool,
    /// Wall-clock wait/dispatch profile of [`Transport::step`].
    phases: PhaseProfile,
    /// Readiness edges returned per `epoll_wait` call — the batching
    /// profile of the reactor (how much each kernel crossing amortizes).
    wait_batch: Histogram,
}

impl OsTransport {
    /// Bind a loopback listener (ephemeral port, nonblocking, backlog
    /// raised to 1024 so hundreds of concurrent connects don't overflow
    /// the accept queue) and create the reactor.
    ///
    /// # Panics
    /// On any setup failure — there is no meaningful recovery from "the
    /// host cannot epoll loopback sockets" in a bench/test context.
    pub fn new() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        // std hardcodes backlog 128; re-issue listen(2) on the same fd to
        // raise it (Linux allows this on an already-listening socket).
        let rc = unsafe { sys::listen(listener.as_raw_fd(), 1024) };
        assert!(
            rc == 0,
            "raise listener backlog: {}",
            io::Error::last_os_error()
        );
        let server_port = listener.local_addr().expect("listener addr").port();
        let mut reactor = Reactor::new(256).expect("epoll_create1");
        reactor
            .register(listener.as_raw_fd(), LISTENER_TOKEN)
            .expect("register listener");
        OsTransport {
            reactor,
            listener,
            server_port,
            clock: MonotonicClock::new(),
            wheel: TimerWheel::new(),
            flows: Vec::new(),
            accepted: Vec::new(),
            readable: Vec::new(),
            writable: Vec::new(),
            events: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            sys: Syscalls::default(),
            reads_with_data: 0,
            writes_with_progress: 0,
            bytes_written: 0,
            events_handled: 0,
            timer_fires: 0,
            finished: false,
            phases: PhaseProfile::new(OS_PHASES),
            wait_batch: Histogram::new(),
        }
    }

    /// Readiness-edges-per-`epoll_wait` histogram (batching profile).
    pub fn wait_batch_histogram(&self) -> &Histogram {
        &self.wait_batch
    }

    fn flow(&self, id: FlowId) -> &FlowSock {
        &self.flows[id.0 as usize]
    }

    fn flow_mut(&mut self, id: FlowId) -> &mut FlowSock {
        &mut self.flows[id.0 as usize]
    }

    /// Accept until the listener reports `WouldBlock`, registering each
    /// connection as a server flow.
    fn drain_accepts(&mut self) {
        loop {
            self.sys.accepts += 1;
            match self.listener.accept() {
                Ok((sock, peer)) => {
                    sock.set_nonblocking(true)
                        .expect("nonblocking accepted socket");
                    let idx = self.flows.len() as u32;
                    self.reactor
                        .register(sock.as_raw_fd(), SERVER_BASE | u64::from(idx))
                        .expect("register accepted socket");
                    self.flows.push(FlowSock {
                        sock,
                        phase: Phase::Established,
                        read_offset: 0,
                        recv_closed: false,
                        send_closed: false,
                    });
                    self.accepted.push((FlowId(idx), u64::from(peer.port())));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    /// Handle one readiness event.
    fn dispatch(&mut self, ev: Event) {
        self.events_handled += 1;
        if ev.token == LISTENER_TOKEN {
            if ev.readable {
                self.drain_accepts();
            }
            return;
        }
        let idx = (ev.token & 0xffff_ffff) as usize;
        let id = FlowId(idx as u32);
        if (ev.token & SERVER_BASE) != 0 {
            if ev.readable || ev.hangup || ev.error {
                self.readable.push(id);
            }
            return;
        }
        if self.flows[idx].phase == Phase::Connecting && (ev.writable || ev.error || ev.hangup) {
            self.sys.sockopts += 1;
            match self.flows[idx].sock.take_error() {
                Ok(None) => {
                    self.flows[idx].phase = Phase::Established;
                    self.wheel.cancel(idx as u32);
                    self.writable.push(id);
                }
                Ok(Some(e)) | Err(e) => panic!("flow {idx}: loopback connect failed: {e}"),
            }
            return;
        }
        if ev.writable && self.flows[idx].phase == Phase::Established {
            self.writable.push(id);
        }
        // Clients never read payload; FIN edges need no driver work.
    }
}

impl Default for OsTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for OsTransport {
    fn backend(&self) -> &'static str {
        "os"
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn connect(&mut self) -> (FlowId, u64) {
        // Raw nonblocking socket + connect: EINPROGRESS is the expected
        // result, and the handshake resolves as an EPOLLOUT edge. (std's
        // TcpStream::connect would block per flow and serialise the open.)
        let fd = unsafe {
            sys::socket(
                sys::AF_INET,
                sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
                0,
            )
        };
        assert!(fd >= 0, "socket: {}", io::Error::last_os_error());
        let addr = sys::SockAddrIn::loopback(self.server_port);
        self.sys.connects += 1;
        let rc = unsafe { sys::connect(fd, &addr, std::mem::size_of::<sys::SockAddrIn>() as u32) };
        if rc != 0 {
            let err = io::Error::last_os_error();
            assert_eq!(
                err.raw_os_error(),
                Some(sys::EINPROGRESS),
                "nonblocking connect: {err}"
            );
        }
        let sock = unsafe { TcpStream::from_raw_fd(fd) };
        let local_port = sock.local_addr().expect("connected socket addr").port();
        let idx = self.flows.len() as u32;
        self.reactor
            .register(fd, CLIENT_BASE | u64::from(idx))
            .expect("register client socket");
        self.wheel
            .schedule(idx, self.clock.now().saturating_add(CONNECT_WATCHDOG));
        self.flows.push(FlowSock {
            sock,
            phase: Phase::Connecting,
            read_offset: 0,
            recv_closed: false,
            send_closed: false,
        });
        (FlowId(idx), u64::from(local_port))
    }

    fn write(&mut self, flow: FlowId, data: &[u8]) -> usize {
        if self.flow(flow).phase != Phase::Established {
            return 0; // still connecting: the driver retries on writable
        }
        self.sys.writes += 1;
        let idx = flow.0 as usize;
        match self.flows[idx].sock.write(data) {
            Ok(n) => {
                self.writes_with_progress += 1;
                self.bytes_written += n as u64;
                n
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("flow {idx}: write: {e}"),
        }
    }

    fn read(&mut self, flow: FlowId) -> Option<TransportChunk> {
        let idx = flow.0 as usize;
        if self.flows[idx].recv_closed {
            return None;
        }
        self.sys.reads += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.flows[idx].sock.read(&mut scratch);
        let out = match result {
            Ok(0) => {
                self.flows[idx].recv_closed = true; // peer FIN
                None
            }
            Ok(n) => {
                self.reads_with_data += 1;
                let offset = self.flows[idx].read_offset;
                self.flows[idx].read_offset += n as u64;
                Some(TransportChunk {
                    offset,
                    data: Bytes::copy_from_slice(&scratch[..n]),
                    in_order: true, // kernel TCP delivers in order
                })
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => panic!("flow {idx}: read: {e}"),
        };
        self.scratch = scratch;
        out
    }

    fn close(&mut self, flow: FlowId) {
        let idx = flow.0 as usize;
        if self.flows[idx].send_closed {
            return;
        }
        self.sys.shutdowns += 1;
        // FIN our write side; the read side stays open so pending inbound
        // data (and the peer's FIN) still drain in `finish`.
        if let Err(e) = self.flows[idx].sock.shutdown(Shutdown::Write) {
            // A peer reset between the last read and this close is not an
            // error worth failing a load run over.
            assert!(
                e.kind() == io::ErrorKind::NotConnected,
                "flow {idx}: shutdown: {e}"
            );
        }
        self.flow_mut(flow).send_closed = true;
    }

    fn step(&mut self) -> bool {
        if self.finished || self.flows.is_empty() {
            // Finished, or no flow was ever opened: no event can arrive.
            return false;
        }
        self.events.clear();
        let mut events = std::mem::take(&mut self.events);
        let span = std::time::Instant::now();
        let n = self.reactor.wait(WAIT_MS, &mut events).expect("epoll_wait");
        self.phases
            .add(PHASE_WAIT, span.elapsed().as_nanos() as u64);
        self.wait_batch.record(n as u64);
        let span = std::time::Instant::now();
        for ev in events.drain(..) {
            self.dispatch(ev);
        }
        self.events = events;
        // Fire connect watchdogs on monotonic time: a flow still
        // connecting past its deadline fails the run now, with a message
        // that says what actually went wrong.
        let mut expired = Vec::new();
        self.wheel.advance(self.clock.now(), &mut expired);
        for idx in expired {
            self.timer_fires += 1;
            assert!(
                self.flows[idx as usize].phase != Phase::Connecting,
                "flow {idx}: loopback connect unresolved after {CONNECT_WATCHDOG:?}"
            );
        }
        self.phases
            .add(PHASE_DISPATCH, span.elapsed().as_nanos() as u64);
        true
    }

    fn take_accepted(&mut self) -> Vec<(FlowId, u64)> {
        std::mem::take(&mut self.accepted)
    }

    fn take_readable(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.readable)
    }

    fn take_writable(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.writable)
    }

    fn phases(&self) -> PhaseProfile {
        self.phases.clone()
    }

    fn flow_stats(&self, _flow: FlowId) -> TransportFlowStats {
        // Kernel retransmissions are invisible without TCP_INFO; report
        // zeros rather than guesses.
        TransportFlowStats::default()
    }

    fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            steps: self.reactor.waits,
            packets_delivered: self.reads_with_data,
            packets_sent: self.writes_with_progress,
            bytes_sent: self.bytes_written,
            packets_dropped: 0,
            timer_fires: self.timer_fires,
            flow_polls: self.events_handled,
        }
    }

    fn syscalls(&self) -> u64 {
        self.reactor.waits
            + self.reactor.ctls
            + self.sys.connects
            + self.sys.accepts
            + self.sys.reads
            + self.sys.writes
            + self.sys.shutdowns
            + self.sys.sockopts
    }

    fn finish(&mut self) {
        // Drain FIN exchanges for a bounded wall interval: keep servicing
        // readable edges until every flow has seen its peer's FIN (or the
        // drain budget runs out — teardown completeness is best-effort,
        // the delivery checks already passed).
        let deadline = self.clock.now().saturating_add(FINISH_DRAIN);
        let mut events = Vec::new();
        while self.clock.now() < deadline && self.flows.iter().any(|f| !f.recv_closed) {
            events.clear();
            self.reactor.wait(WAIT_MS, &mut events).expect("epoll_wait");
            let pending: Vec<FlowId> = (0..self.flows.len() as u32).map(FlowId).collect();
            for id in pending {
                while self.read(id).is_some() {}
            }
        }
        // Dropping the sockets closes the fds, which deregisters them from
        // the epoll set implicitly.
        self.flows.clear();
        self.finished = true;
    }
}
