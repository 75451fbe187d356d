//! The TCP connection state machine.
//!
//! This is a userspace reimplementation of the parts of a kernel TCP stack
//! that the paper's mechanisms depend on: the three-way handshake, cumulative
//! and selective acknowledgments, retransmission (RTO and fast retransmit
//! with NewReno recovery), congestion and flow control, delayed ACKs, and
//! orderly close — plus the two uTCP socket options layered on top of the
//! send and receive buffers.
//!
//! The connection is a passive, poll-driven state machine in the smoltcp
//! style: the owner feeds it arriving segments via [`TcpConnection::on_segment`],
//! asks it for outgoing segments via [`TcpConnection::poll`], and schedules
//! the next call using [`TcpConnection::next_timer`]. All timing comes from
//! the caller's virtual clock, which keeps experiments deterministic.
//!
//! The control path has one owner per question. `recovery` knows whether
//! the connection is in fast recovery, since when, up to where, and whether
//! the segment at the ACK point is due again; `reliability` holds the
//! outstanding-data scoreboard, whose lost marks are what go-back-N still
//! owes after an RTO, and the RTO timer; `cc` is the window arithmetic and
//! is only ever *told* which rule applies. This file wires them to the
//! protocol: sequence-number mapping, segment parsing/emission, and state
//! transitions — and it asks `recovery`, never the congestion controller,
//! what phase it is in.
//!
//! # Phases
//!
//! Where the connection is in RFC 9293's state diagram is one private enum,
//! `Phase`, whose variants carry only their own phase's data: a handshake's
//! "SYN due" flag and send time, whether `close()` is waiting on the send
//! queue, our FIN's offset, the offset of a peer FIN that arrived ahead of a
//! hole, TIME-WAIT's expiry. [`TcpState`] is its data-free public name.
//! Every change of phase happens in one function, `transition`, which the
//! inputs feed: `open`/`listen`/`close`, each arriving segment, the FIN going
//! out, each poll (TIME-WAIT expiry). RFC 9293 §3.3.2 Figure 5, as
//! `transition` implements it:
//!
//! | state | event | action | next state |
//! |---|---|---|---|
//! | CLOSED | active OPEN ([`open`](TcpConnection::open)) | snd SYN | SYN-SENT |
//! | CLOSED | passive OPEN ([`listen`](TcpConnection::listen)) | | LISTEN |
//! | LISTEN | rcv SYN | snd SYN,ACK | SYN-RCVD |
//! | LISTEN | CLOSE | | CLOSED |
//! | SYN-SENT | rcv SYN,ACK acking our SYN | snd ACK | ESTABLISHED |
//! | SYN-SENT | rcv RST acking our SYN (§3.10.7.3) | | CLOSED |
//! | SYN-RCVD | rcv ACK of SYN | | ESTABLISHED |
//! | ESTABLISHED | CLOSE | snd FIN | FIN-WAIT-1 |
//! | ESTABLISHED | rcv FIN | snd ACK | CLOSE-WAIT |
//! | FIN-WAIT-1 | rcv ACK of FIN | | FIN-WAIT-2 |
//! | FIN-WAIT-1 | rcv FIN | snd ACK | CLOSING |
//! | FIN-WAIT-1 | rcv FIN with the ACK of our FIN | snd ACK | TIME-WAIT |
//! | FIN-WAIT-2 | rcv FIN | snd ACK | TIME-WAIT |
//! | CLOSE-WAIT | CLOSE | snd FIN | LAST-ACK |
//! | CLOSING | rcv ACK of FIN | | TIME-WAIT |
//! | LAST-ACK | rcv ACK of FIN | | CLOSED |
//! | TIME-WAIT | timeout = 2 MSL (2 s) | | CLOSED |
//! | SYN-RCVD and later | rcv RST in the receive window (§3.10.7.4) | | CLOSED |
//!
//! "rcv FIN" means the peer's FIN has been *reached*: every byte before it
//! has arrived. A FIN ahead of a hole is remembered and counts on the
//! segment that fills the hole. No phase moves on an RTO: the poll it fires
//! in re-sends whatever SYN, SYN-ACK or FIN is still unacknowledged, under
//! its first sequence number. TIME-WAIT re-ACKs a retransmitted FIN, and
//! ESTABLISHED and later re-ACK a retransmitted SYN-ACK.
//!
//! Deviations from the RFC that are kept:
//! - No simultaneous open: SYN-SENT ignores a bare SYN.
//! - No RST is ever sent. An unacceptable segment is dropped silently, and
//!   an RST outside the window gets no challenge ACK (RFC 5961 §3).
//! - The 2 MSL timer is not restarted by a retransmitted FIN.
//! - Writes in SYN-RCVD are refused; writes in SYN-SENT are queued.
//! - SYN-RCVD takes in the data of a segment that does not acknowledge our
//!   SYN, where the RFC drops the segment (its FIN is dropped).
//! - CLOSE leaves ESTABLISHED or CLOSE-WAIT only when the FIN goes out,
//!   after the queued data. In SYN-SENT or SYN-RCVD it waits for the
//!   handshake to finish.

use crate::cc::CongestionControl;
use crate::config::{SocketOptions, TcpConfig, WriteMeta};
use crate::delivered::DeliveredChunk;
use crate::event::{ConnEvent, EventQueue, Readiness};
use crate::recovery::{Episode, RecoveryState};
use crate::recvbuf::ReceiveBuffer;
use crate::reliability::Reliability;
use crate::rtt::RttEstimator;
use crate::segment::{SackBlock, TcpFlags, TcpOption, TcpSegment};
use crate::sendbuf::SendBuffer;
use crate::seq::SeqNum;
use bytes::Bytes;
use minion_simnet::{SimDuration, SimTime};

/// How long an ACK for plain in-order progress may be held back when
/// [`TcpConfig::delayed_ack`] is on.
const DELAYED_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);

/// How long TIME-WAIT lasts: 2 MSL, with an MSL of one second.
const TIME_WAIT: SimDuration = SimDuration::from_secs(2);

/// Errors surfaced by the socket-level API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpError {
    /// The connection is not in a state that allows the operation.
    NotConnected,
    /// The send buffer cannot accept the write.
    BufferFull,
    /// The connection has been closed locally.
    Closed,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::NotConnected => write!(f, "connection not established"),
            TcpError::BufferFull => write!(f, "send buffer full"),
            TcpError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for TcpError {}

/// TCP connection states (RFC 9293 §3.3.2), as
/// [`TcpConnection::state`] reports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open, waiting for a SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer state.
    Established,
    /// Local close requested, FIN sent.
    FinWait1,
    /// Our FIN acknowledged, waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both sides closed simultaneously.
    Closing,
    /// We closed after the peer; waiting for our FIN's ACK.
    LastAck,
    /// Waiting out 2·MSL before releasing state.
    TimeWait,
}

/// Per-connection statistics used throughout the evaluation harness.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Segments emitted (including retransmissions and pure ACKs).
    pub segments_sent: u64,
    /// Segments received and processed.
    pub segments_received: u64,
    /// Payload bytes transmitted the first time.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub bytes_retransmitted: u64,
    /// Payload bytes cumulatively acknowledged by the peer.
    pub bytes_acked: u64,
    /// Payload bytes received (before reassembly de-duplication).
    pub bytes_received: u64,
    /// Data segments retransmitted.
    pub retransmissions: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Pure ACK segments sent.
    pub acks_sent: u64,
}

/// Pending-ACK state for the delayed-ACK machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AckPending {
    None,
    Delayed(SimTime),
    Immediate,
}

/// Where the connection is in RFC 9293's state diagram, with only that
/// phase's data (see the module doc's table). `close`: `close()` was called
/// and the FIN waits for the send queue. `fin`: our FIN's stream offset, one
/// past our last data byte. `eof`: the offset of the peer's FIN, the end of
/// the receive stream, seen but not reached yet. TIME-WAIT holds its expiry,
/// 2 MSL after entry.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Closed,
    Listen,
    SynSent(Handshake),
    SynRcvd(Handshake),
    Established { close: bool, eof: Option<u64> },
    FinWait1 { fin: u64, eof: Option<u64> },
    FinWait2 { eof: Option<u64> },
    CloseWait { close: bool },
    Closing { fin: u64 },
    LastAck { fin: u64 },
    TimeWait(SimTime),
}

/// A handshake under way: SYN-SENT or SYN-RCVD.
#[derive(Clone, Copy, Debug)]
struct Handshake {
    /// Our SYN (or SYN-ACK) has not gone out yet.
    due: bool,
    /// When the phase began; the handshake's RTT sample is timed from here.
    sent_at: SimTime,
    /// The RTO re-sent our SYN (or SYN-ACK), so Karn's rule forbids timing
    /// its ACK.
    resent: bool,
    /// `close()` was called; the FIN follows the handshake.
    close: bool,
}

/// An input to `TcpConnection::transition`: the table's "event" column.
#[derive(Clone, Copy, Debug)]
enum Event {
    ActiveOpen(SimTime),
    PassiveOpen,
    Close,
    /// A SYN arrived in LISTEN.
    Syn(SimTime),
    /// The ACK of our SYN: a SYN-ACK in SYN-SENT, an ACK in SYN-RCVD.
    SynAcked(SimTime),
    /// The ACK of our FIN.
    FinAcked(SimTime),
    /// A segment was taken in, with the offset of its FIN if it carries one.
    Received(SimTime, Option<u64>),
    /// An acceptable RST.
    Rst,
    /// Our FIN went out for the first time, at this offset.
    SentFin(u64),
    /// A poll: TIME-WAIT may have expired.
    Poll(SimTime),
}

/// A TCP connection endpoint.
#[derive(Clone, Debug)]
pub struct TcpConnection {
    config: TcpConfig,
    opts: SocketOptions,
    phase: Phase,
    local_port: u16,
    remote_port: u16,

    // ---- Send state ----
    iss: SeqNum,
    send_buf: SendBuffer,
    /// Offset of the highest cumulatively acknowledged data byte.
    snd_una: u64,
    /// Outstanding-data scoreboard (what an RTO presumed lost included) and
    /// RTO timer.
    reliability: Reliability,
    /// The fast-recovery episode, recover point, duplicate-ACK run and
    /// whether the head is due to be resent.
    recovery: RecoveryState,
    peer_window: usize,
    peer_mss: usize,
    cc: CongestionControl,
    rtt: RttEstimator,

    // ---- Receive state ----
    irs: SeqNum,
    recv_buf: ReceiveBuffer,
    ack_pending: AckPending,

    /// Edge events and window samples for poll-driven drivers (gated; see
    /// [`crate::ConnEvent`]).
    events: EventQueue,
    /// The last `(cwnd, ssthresh)` queued as a sample, so samples mark
    /// window *transitions* rather than every ACK; `(0, 0)` before the first
    /// (the window is never zero).
    last_window: (u64, u64),
    stats: ConnStats,
}

impl TcpConnection {
    /// Create a connection endpoint in the `Closed` state.
    pub fn new(local_port: u16, remote_port: u16, config: TcpConfig, opts: SocketOptions) -> Self {
        let isn = config.fixed_isn.unwrap_or_else(|| {
            // Deterministic but port-dependent ISN.
            (u32::from(local_port) << 16) ^ u32::from(remote_port) ^ 0x5EED_1234
        });
        let send_buf = SendBuffer::new(config.send_buffer);
        let recv_buf = ReceiveBuffer::new(config.recv_buffer, opts.unordered_receive);
        let cc = CongestionControl::new(config.cc, config.mss);
        let rtt = RttEstimator::default();
        TcpConnection {
            config,
            opts,
            phase: Phase::Closed,
            local_port,
            remote_port,
            iss: SeqNum(isn),
            send_buf,
            snd_una: 0,
            reliability: Reliability::new(),
            recovery: RecoveryState::new(),
            peer_window: 65535,
            peer_mss: 536,
            cc,
            rtt,
            irs: SeqNum(0),
            recv_buf,
            ack_pending: AckPending::None,
            events: EventQueue::default(),
            last_window: (0, 0),
            stats: ConnStats::default(),
        }
    }

    /// Begin an active open (client side). The SYN is emitted by the next
    /// [`poll`](Self::poll).
    pub fn open(&mut self, now: SimTime) {
        self.transition(Event::ActiveOpen(now));
    }

    /// Begin a passive open (server side).
    pub fn listen(&mut self) {
        self.transition(Event::PassiveOpen);
    }

    /// The connection's current state.
    pub fn state(&self) -> TcpState {
        match self.phase {
            Phase::Closed => TcpState::Closed,
            Phase::Listen => TcpState::Listen,
            Phase::SynSent(_) => TcpState::SynSent,
            Phase::SynRcvd(_) => TcpState::SynRcvd,
            Phase::Established { .. } => TcpState::Established,
            Phase::FinWait1 { .. } => TcpState::FinWait1,
            Phase::FinWait2 { .. } => TcpState::FinWait2,
            Phase::CloseWait { .. } => TcpState::CloseWait,
            Phase::Closing { .. } => TcpState::Closing,
            Phase::LastAck { .. } => TcpState::LastAck,
            Phase::TimeWait(_) => TcpState::TimeWait,
        }
    }

    /// True once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state(),
            TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait
                | TcpState::Closing
                | TcpState::LastAck
        )
    }

    /// True once the connection has fully closed (or was reset).
    pub fn is_closed(&self) -> bool {
        matches!(self.state(), TcpState::Closed | TcpState::TimeWait)
    }

    /// Local port number.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// The socket options currently in effect.
    pub fn options(&self) -> SocketOptions {
        self.opts
    }

    /// Connection statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Readiness (poll-driven driver API)
    // ------------------------------------------------------------------

    /// A level-triggered snapshot of what the connection can currently do.
    pub fn readiness(&self) -> Readiness {
        Readiness {
            readable: self.recv_buf.readable(),
            writable: matches!(
                self.phase,
                Phase::Established { close: false, .. } | Phase::CloseWait { close: false }
            ) && self.send_buf.free_space() > 0,
            established: self.is_established(),
            closed: self.is_closed(),
        }
    }

    /// Turn event recording on ([`ConnEvent`]: edges and window samples).
    /// It is off by default, and nothing turns it off again; a driver opts
    /// in (`stack::Sim::register`) and drains
    /// [`take_events`](Self::take_events) after each dispatch so the queue
    /// stays small. Turned on before the first [`poll`](Self::poll), as a
    /// connecting driver does, it also records the first window sample.
    pub fn enable_events(&mut self) {
        self.events.enable();
    }

    /// Drain the queued edge events in arrival order. Dropping the iterator
    /// discards whatever it has not yielded.
    pub fn take_events(&mut self) -> impl Iterator<Item = ConnEvent> + '_ {
        self.events.drain()
    }

    /// Whether any edge events are queued.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Record readiness edges relative to a snapshot taken before a state
    /// transition (segment input or poll).
    fn record_edges(&mut self, before: Readiness) {
        if !self.events.enabled() {
            return;
        }
        let after = self.readiness();
        if !before.established && after.established {
            self.events.push(ConnEvent::Established);
        }
        if !before.readable && after.readable {
            self.events.push(ConnEvent::Readable);
        }
        if !before.writable && after.writable && before.established {
            self.events.push(ConnEvent::Writable);
        }
        if !before.closed && after.closed {
            self.events.push(ConnEvent::Closed);
        }
    }

    /// Smoothed RTT estimate, if one exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Number of RTT samples incorporated (Karn's rule: neither an ACK that
    /// retires retransmitted bytes nor a re-sent SYN contributes one).
    pub fn rtt_samples(&self) -> u64 {
        self.rtt.sample_count()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// Queue a window sample if the window moved since the last one
    /// (called at cc transition sites, so the per-ACK cost is one
    /// comparison; the queue drops it while event interest is off).
    fn note_window(&mut self, at: SimTime) {
        let (cwnd, ssthresh) = (self.cc.cwnd() as u64, self.cc.ssthresh() as u64);
        if self.last_window != (cwnd, ssthresh) {
            self.last_window = (cwnd, ssthresh);
            self.events.push(ConnEvent::Window { at, cwnd, ssthresh });
        }
    }

    /// Queue a window cut as a sample: `depth` bytes, and how long the
    /// fast-recovery episode it closes lasted, if it closes one (a full ACK
    /// ends an episode, an RTO truncates it; either way its depth is the
    /// cut taken at entry).
    fn note_cut(&mut self, depth: u64, recovery: Option<SimDuration>) {
        self.events.push(ConnEvent::Cut { depth, recovery });
    }

    /// Free space in the send buffer.
    pub fn send_buffer_free(&self) -> usize {
        self.send_buf.free_space()
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Queue data for transmission with default (priority-0) metadata.
    pub fn write(&mut self, data: &[u8]) -> Result<usize, TcpError> {
        self.write_with_meta(data, WriteMeta::normal())
    }

    /// Queue data for transmission with uTCP write metadata (§4.2). When the
    /// `SO_UNORDEREDSEND` option is off the metadata is ignored, matching the
    /// paper's fallback behaviour on stock TCP stacks.
    pub fn write_with_meta(&mut self, data: &[u8], meta: WriteMeta) -> Result<usize, TcpError> {
        match self.phase {
            Phase::SynSent(Handshake { close: false, .. })
            | Phase::Established { close: false, .. }
            | Phase::CloseWait { close: false } => {}
            Phase::Closed | Phase::Listen | Phase::SynRcvd(_) | Phase::TimeWait(_) => {
                return Err(TcpError::NotConnected)
            }
            _ => return Err(TcpError::Closed),
        }
        let unordered = self.opts.unordered_send;
        // Small writes coalesce into the tail skbuff when both fit in one
        // MSS (§8.1's mitigation).
        let result = if unordered {
            self.send_buf.write_with_priority(
                data,
                meta.priority,
                meta.squash,
                true,
                self.config.mss,
                true,
            )
        } else {
            self.send_buf.write(data)
        };
        result.map_err(|_| TcpError::BufferFull)
    }

    /// Read the next chunk of received data, if any.
    ///
    /// With `SO_UNORDERED` enabled, chunks may arrive out of order and carry
    /// their stream offset (the paper's 5-byte read header); otherwise chunks
    /// are in-order byte-stream data.
    pub fn read(&mut self) -> Option<DeliveredChunk> {
        self.recv_buf.read()
    }

    /// True if a `read()` would return data.
    pub fn readable(&self) -> bool {
        self.recv_buf.readable()
    }

    /// Request an orderly close. Queued data is still delivered; the FIN is
    /// sent once the send queue drains.
    pub fn close(&mut self) {
        self.transition(Event::Close);
    }

    // ------------------------------------------------------------------
    // Phase transitions
    // ------------------------------------------------------------------

    /// Every change of phase, row by row as the module doc's table lists
    /// them, with the timer and RTT work each row implies. An event a phase
    /// has no row for leaves it as it is.
    fn transition(&mut self, event: Event) {
        use Event::*;
        use Phase::*;
        self.phase = match (self.phase, event) {
            (Closed, ActiveOpen(now)) => SynSent(self.begin_handshake(now)),
            (Closed, PassiveOpen) => Listen,
            (phase, ActiveOpen(_) | PassiveOpen) => panic!("opening a used connection: {phase:?}"),
            (Listen, Syn(now)) => SynRcvd(self.begin_handshake(now)),
            (Listen, Close) => Closed,
            (SynSent(hs), Close) => SynSent(Handshake { close: true, ..hs }),
            (SynRcvd(hs), Close) => SynRcvd(Handshake { close: true, ..hs }),
            (Established { eof, .. }, Close) => Established { close: true, eof },
            (CloseWait { .. }, Close) => CloseWait { close: true },
            (SynSent(hs) | SynRcvd(hs), SynAcked(now)) => {
                if !hs.resent {
                    self.rtt.on_sample(now.saturating_since(hs.sent_at));
                }
                self.reliability.clear_rto();
                let close = hs.close;
                Established { close, eof: None }
            }
            (Established { close, eof }, SentFin(fin)) if close => FinWait1 { fin, eof },
            (CloseWait { close }, SentFin(fin)) if close => LastAck { fin },
            (FinWait1 { eof, .. }, FinAcked(_)) => FinWait2 { eof },
            (Closing { .. }, FinAcked(now)) => TimeWait(now + TIME_WAIT),
            (LastAck { .. }, FinAcked(_)) => Closed,
            // The peer's FIN counts once every byte before it has arrived:
            // on its own segment, or on a later one that fills a hole.
            (Established { close, eof }, Received(_, seen)) => match seen.or(eof) {
                Some(f) if self.recv_buf.rcv_nxt() >= f => CloseWait { close },
                eof => Established { close, eof },
            },
            (FinWait1 { fin, eof }, Received(_, seen)) => match seen.or(eof) {
                Some(f) if self.recv_buf.rcv_nxt() >= f => Closing { fin },
                eof => FinWait1 { fin, eof },
            },
            (FinWait2 { eof }, Received(now, seen)) => match seen.or(eof) {
                Some(f) if self.recv_buf.rcv_nxt() >= f => TimeWait(now + TIME_WAIT),
                eof => FinWait2 { eof },
            },
            (TimeWait(expiry), Poll(now)) if now >= expiry => Closed,
            (_, Rst) => Closed,
            (phase, _) => phase,
        };
    }

    /// A handshake beginning at `now`: its SYN is due and its timer armed.
    fn begin_handshake(&mut self, now: SimTime) -> Handshake {
        self.reliability.arm_rto(now, now + self.rtt.rto());
        Handshake {
            due: true,
            sent_at: now,
            resent: false,
            close: false,
        }
    }

    // ------------------------------------------------------------------
    // Sequence-number mapping helpers
    // ------------------------------------------------------------------

    /// Sequence number corresponding to a send-stream byte offset.
    fn seq_of_offset(&self, offset: u64) -> SeqNum {
        self.iss + 1 + offset as u32
    }

    /// Send-stream offset corresponding to an acknowledgment number.
    fn offset_of_ack(&self, ack: SeqNum) -> u64 {
        u64::from(ack.distance_from(self.iss + 1))
    }

    /// Receive-stream offset for a received segment's sequence number.
    fn offset_of_seq(&self, seq: SeqNum) -> u64 {
        u64::from(seq.distance_from(self.irs + 1))
    }

    /// The acknowledgment number to advertise, covering in-order data and the
    /// peer's FIN once it has been reached (the phases that follow it).
    fn ack_to_send(&self) -> SeqNum {
        let fin_reached = matches!(
            self.state(),
            TcpState::CloseWait | TcpState::Closing | TcpState::LastAck | TcpState::TimeWait
        );
        self.irs + 1 + self.recv_buf.rcv_nxt() as u32 + u32::from(fin_reached)
    }

    /// Highest sequence number we have transmitted (exclusive).
    fn snd_max_offset(&self) -> u64 {
        self.send_buf.transmitted_offset()
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Process an arriving segment.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime) {
        self.stats.segments_received += 1;
        let before = self.readiness();
        match self.phase {
            Phase::Closed => {}
            // RFC 9293 §3.10.7.2: LISTEN takes only a SYN.
            Phase::Listen if seg.flags.syn && !seg.flags.ack && !seg.flags.rst => {
                self.on_peer_syn(seg);
                self.transition(Event::Syn(now));
            }
            // §3.10.7.3: SYN-SENT takes only a segment acknowledging our SYN,
            // an RST included.
            Phase::SynSent(_) if seg.flags.ack && seg.ack == self.iss + 1 => {
                if seg.flags.rst {
                    self.transition(Event::Rst);
                } else if seg.flags.syn {
                    self.on_peer_syn(seg);
                    self.transition(Event::SynAcked(now));
                    // Complete the handshake with an ACK.
                    self.ack_pending = AckPending::Immediate;
                }
            }
            Phase::Listen | Phase::SynSent(_) => {}
            _ => self.on_segment_synchronized(seg, now),
        }
        self.record_edges(before);
    }

    /// Take in the sequence number, MSS and window of the peer's SYN.
    fn on_peer_syn(&mut self, seg: &TcpSegment) {
        self.irs = seg.seq;
        if let Some(mss) = seg.mss_option() {
            self.peer_mss = mss as usize;
        }
        self.peer_window = seg.window as usize;
    }

    fn on_segment_synchronized(&mut self, seg: &TcpSegment, now: SimTime) {
        if seg.flags.rst {
            // RFC 9293 §3.10.7.4: valid only if its sequence number is in the
            // receive window, or is RCV.NXT when the window is closed.
            let offset = u64::from(seg.seq.distance_from(self.ack_to_send()));
            if offset < (self.recv_buf.window() as u64).max(1) {
                self.transition(Event::Rst);
            }
            return;
        }

        // A retransmitted SYN-ACK while we are established means our final
        // handshake ACK was lost: re-acknowledge.
        if seg.flags.syn && seg.flags.ack {
            self.ack_pending = AckPending::Immediate;
            return;
        }

        // Complete a passive open.
        if matches!(self.phase, Phase::SynRcvd(_)) && seg.flags.ack && seg.ack == self.iss + 1 {
            self.transition(Event::SynAcked(now));
        }

        self.peer_window = seg.window as usize;

        if seg.flags.ack {
            self.process_ack(seg, now);
        }

        if !seg.payload.is_empty() {
            self.process_payload(seg, now);
        }

        let fin = seg.flags.fin.then(|| {
            self.ack_pending = AckPending::Immediate;
            self.offset_of_seq(seg.seq) + seg.payload.len() as u64
        });
        self.transition(Event::Received(now, fin));
    }

    fn process_payload(&mut self, seg: &TcpSegment, _now: SimTime) {
        let offset = self.offset_of_seq(seg.seq);
        // Reject data far outside the window (e.g. wildly out-of-range
        // offsets from a confused peer); the receive buffer handles overlap.
        let window_limit = self.recv_buf.rcv_nxt() + self.config.recv_buffer as u64;
        if offset > window_limit {
            return;
        }
        self.stats.bytes_received += seg.payload.len() as u64;
        let before = self.recv_buf.rcv_nxt();
        self.recv_buf.on_bytes(offset, seg.payload.clone());
        let after = self.recv_buf.rcv_nxt();

        // Immediate ACK for out-of-order arrivals, duplicates, and gap fills
        // (RFC 5681 §4.2); only plain in-order progress may be delayed.
        let out_of_order =
            offset > before || after == before || after > offset + seg.payload.len() as u64;
        if out_of_order || !self.config.delayed_ack {
            // Out-of-order (or gap-filling) data elicits an immediate ACK so
            // the sender sees duplicate ACKs / SACK promptly.
            self.ack_pending = AckPending::Immediate;
        } else {
            match self.ack_pending {
                AckPending::None => {
                    self.ack_pending = AckPending::Delayed(_now + DELAYED_ACK_TIMEOUT);
                }
                AckPending::Delayed(_) => {
                    // Second in-order segment: ACK now (RFC 1122).
                    self.ack_pending = AckPending::Immediate;
                }
                AckPending::Immediate => {}
            }
        }
    }

    fn process_ack(&mut self, seg: &TcpSegment, now: SimTime) {
        let ack_off = self.offset_of_ack(seg.ack);
        // Account for a FIN acknowledgment.
        let fin_acked = matches!(
            self.phase,
            Phase::FinWait1 { fin, .. } | Phase::Closing { fin } | Phase::LastAck { fin }
                if ack_off == fin + 1
        );
        let data_ack_off = ack_off - u64::from(fin_acked);

        // Ignore ACKs for data beyond what we have sent (stale/corrupt).
        if data_ack_off > self.snd_max_offset() {
            return;
        }

        // Record SACK information on the scoreboard. SACK blocks beyond the
        // cumulative point are also the RFC 6582 §4 evidence that a duplicate
        // ACK marks a genuine fresh hole (see `on_duplicate_ack`).
        let sack_evidence = if seg.sack_blocks().is_empty() {
            false
        } else {
            self.apply_sack(seg.sack_blocks(), now)
        };

        if data_ack_off > self.snd_una {
            self.on_new_ack(data_ack_off, now);
        } else if data_ack_off == self.snd_una
            && self.snd_max_offset() > self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && !seg.flags.syn
        {
            self.on_duplicate_ack(now, sack_evidence);
        }

        if fin_acked {
            self.transition(Event::FinAcked(now));
            // With the FIN, every byte before it is acknowledged: there is
            // nothing left to retransmit.
            self.reliability.clear_rto();
        }
        self.reliability
            .debug_check(self.snd_una, self.recovery.recover());
    }

    /// Record SACK blocks on the scoreboard, taking an RTT sample from each
    /// block that newly covers data sent only once. Returns whether any
    /// valid block covers data beyond the cumulative ACK point — proof that
    /// newer data is reaching the receiver, which `on_duplicate_ack` uses as
    /// the RFC 6582 §4 heuristic. It comes from the blocks themselves, so a
    /// block that only repeats what the scoreboard already holds counts.
    fn apply_sack(&mut self, blocks: &[SackBlock], now: SimTime) -> bool {
        let mut beyond_cumulative = false;
        for block in blocks {
            let start = self.offset_of_ack(block.start);
            let end = self.offset_of_ack(block.end);
            if end <= start || end > self.snd_max_offset() + 1 {
                continue;
            }
            if end > self.snd_una {
                beyond_cumulative = true;
            }
            if let Some(sent_at) = self.reliability.mark_sacked(start, end) {
                self.rtt.on_sample(now.saturating_since(sent_at));
            }
        }
        beyond_cumulative
    }

    fn on_new_ack(&mut self, ack_off: u64, now: SimTime) {
        let newly_acked = (ack_off - self.snd_una) as usize;
        self.stats.bytes_acked += newly_acked as u64;
        self.recovery.on_new_ack();

        // Retire the acknowledged bytes; Karn's rule permits an RTT sample
        // only from an ACK that retires nothing retransmitted.
        if let Some(sent_at) = self.reliability.retire_acked(ack_off) {
            self.rtt.on_sample(now.saturating_since(sent_at));
        }

        self.snd_una = ack_off;
        self.send_buf.acknowledge(ack_off);

        if self.recovery.in_recovery() {
            if self.recovery.is_full_ack(ack_off) {
                // Full acknowledgment: leave recovery. The flight size *after*
                // retiring feeds RFC 6582 §3.2 step 3's conservative deflation
                // (`min(ssthresh, max(flight, MSS) + MSS)`), which prevents a
                // post-recovery burst when little data is left outstanding.
                let flight = self.reliability.flight_charge();
                self.cc.on_exit_recovery(flight);
                if let Some(ended) = self.recovery.exit() {
                    self.note_cut(ended.cut_depth, Some(now.saturating_since(ended.entered)));
                }
            } else {
                // Partial ACK (NewReno): retransmit the next lost segment,
                // one full segment starting at the new `snd_una`.
                self.cc.on_partial_ack(newly_acked);
                self.recovery.on_partial_ack();
            }
        } else {
            self.cc.on_ack(newly_acked, now, self.rtt.srtt());
        }
        self.note_window(now);

        // Restart the retransmission timer.
        if !self.reliability.has_unacked() && self.snd_una >= self.snd_max_offset() {
            self.reliability.clear_rto();
        } else {
            self.reliability.arm_rto(now, now + self.rtt.rto());
        }
    }

    fn on_duplicate_ack(&mut self, now: SimTime, sack_evidence: bool) {
        self.stats.dup_acks += 1;
        let run = self.recovery.on_dup_ack();
        if self.recovery.in_recovery() {
            self.cc.on_recovery_dup_ack();
            return;
        }
        // RFC 6582 §3.2 step 1: enter fast retransmit on the third duplicate
        // ACK only if the cumulative ACK point has passed the recover point,
        // or (the §4 heuristic, via SACK) the duplicates carry SACK blocks
        // proving newer data is reaching the receiver — a genuine fresh hole.
        // A *bare* duplicate-ACK burst for data sent before the last
        // congestion event (arriving just after recovery exit, or the echoes
        // of a go-back-N retransmission after an RTO) must not cut cwnd
        // again.
        if run == 3 && self.recovery.may_enter(self.snd_una, sack_evidence) {
            // Fast retransmit: resend the first unacknowledged segment and
            // enter NewReno recovery.
            let flight = self.reliability.flight_charge();
            let cwnd_before = self.cc.cwnd() as u64;
            self.cc.on_enter_recovery(flight);
            // Stamp the episode: exit (or a truncating RTO) queues it as a
            // `ConnEvent::Cut` sample.
            let episode = Episode {
                entered: now,
                cut_depth: cwnd_before.saturating_sub(self.cc.ssthresh() as u64),
            };
            self.note_window(now);
            self.recovery.enter(episode, self.snd_max_offset());
            self.stats.fast_retransmits += 1;
            self.reliability.arm_rto(now, now + self.rtt.rto());
        }
    }

    // ------------------------------------------------------------------
    // Timers and output
    // ------------------------------------------------------------------

    /// The earliest time at which [`poll`](Self::poll) should next be called.
    pub fn next_timer(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                earliest = Some(match earliest {
                    Some(e) => e.min(t),
                    None => t,
                });
            }
        };
        consider(self.reliability.rto_expiry());
        if let Phase::TimeWait(expiry) = self.phase {
            consider(Some(expiry));
        }
        if let AckPending::Delayed(t) = self.ack_pending {
            consider(Some(t));
        }
        earliest
    }

    fn on_rto(&mut self, now: SimTime) {
        self.stats.timeouts += 1;
        // Per-timer arm→fire wait: the arm time is re-stamped on every ACK
        // that re-arms the timer, so this measures the timer instance that
        // actually fired, not the connection's lifetime.
        let wait_us = self
            .reliability
            .rto_armed_at()
            .map(|armed| now.saturating_since(armed).as_micros())
            .unwrap_or(0);
        self.events.push(ConnEvent::RtoFired { wait_us });
        let flight = self.reliability.flight_charge();
        let cwnd_before = self.cc.cwnd() as u64;
        self.cc.on_rto(flight);
        // The timeout is a congestion event: it truncates any fast-recovery
        // episode, moves the recover point up to snd_max (RFC 6582 §3.2 step
        // 4) so the duplicate ACKs that the go-back-N retransmissions elicit
        // cannot re-cut the window, and is itself a window cut worth a depth
        // sample.
        if let Some(ended) = self.recovery.on_rto(self.snd_max_offset()) {
            self.note_cut(ended.cut_depth, Some(now.saturating_since(ended.entered)));
        }
        self.note_cut(cwnd_before.saturating_sub(self.cc.ssthresh() as u64), None);
        self.note_window(now);
        self.rtt.backoff();
        // Go-back-N: everything outstanding the receiver has not SACKed is
        // marked lost and leaves the flight; `emit_data` resends the lost
        // entries lowest first (window permitting), and each re-enters the
        // flight as it goes.
        self.reliability.mark_unsacked_lost();
        self.reliability.arm_rto(now, now + self.rtt.rto());
    }

    /// Advance timers and produce any segments that should be transmitted now.
    pub fn poll(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`poll`](Self::poll), appending to a buffer the caller reuses from
    /// poll to poll. Returns the number of segments produced.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) -> usize {
        let produced_before = out.len();
        let before = self.readiness();

        // Nothing is ever retransmitted once the connection has terminated;
        // dropping the timer also lets callers' event loops go idle.
        if self.is_closed() {
            self.reliability.clear_rto();
        }

        // Retransmission / handshake timer. An unacknowledged SYN or FIN is
        // presumed lost with the data ahead of it, and this poll sends it
        // again under the same sequence number; a FIN goes behind whatever
        // go-back-N data the poll emits.
        let rto_fired = self.reliability.rto_expiry().is_some_and(|t| now >= t);
        if rto_fired {
            self.on_rto(now);
        }

        // TIME-WAIT expiry.
        self.transition(Event::Poll(now));

        // Handshake segments. The first SYN (or SYN-ACK) also takes the
        // first window sample: by then a driver has turned events on (a
        // re-sent one finds the RTO's sample already taken).
        let syn_ack = matches!(self.phase, Phase::SynRcvd(_));
        if let Phase::SynSent(hs) | Phase::SynRcvd(hs) = &mut self.phase {
            hs.resent |= rto_fired;
            if std::mem::take(&mut hs.due) || rto_fired {
                out.push(self.make_syn(syn_ack));
                self.note_window(now);
            }
        }

        if self.is_established() {
            self.emit_data(now, out);
            self.maybe_emit_fin(now, rto_fired, out);
        }

        // A pure ACK if one is still owed after data emission (data segments
        // piggyback the ACK and clear the pending state).
        let ack_due = match self.ack_pending {
            AckPending::Immediate => true,
            AckPending::Delayed(t) => now >= t,
            AckPending::None => false,
        };
        let can_ack = !matches!(
            self.state(),
            TcpState::Closed | TcpState::Listen | TcpState::SynSent | TcpState::SynRcvd
        );
        if ack_due && can_ack {
            out.push(self.make_ack());
            self.stats.acks_sent += 1;
            self.ack_pending = AckPending::None;
        }

        let produced = out.len() - produced_before;
        self.stats.segments_sent += produced as u64;
        self.record_edges(before);
        produced
    }

    fn make_syn(&self, is_syn_ack: bool) -> TcpSegment {
        let mut seg = TcpSegment::bare(
            self.local_port,
            self.remote_port,
            self.iss,
            if is_syn_ack { self.irs + 1 } else { SeqNum(0) },
            if is_syn_ack {
                TcpFlags::SYN_ACK
            } else {
                TcpFlags::SYN
            },
        );
        seg.window = self.recv_buf.window() as u32;
        seg.options = vec![
            TcpOption::Mss(self.config.mss.min(usize::from(u16::MAX)) as u16),
            TcpOption::SackPermitted,
        ];
        seg
    }

    fn make_ack(&self) -> TcpSegment {
        let mut seg = TcpSegment::bare(
            self.local_port,
            self.remote_port,
            self.seq_of_offset(self.snd_max_offset()),
            self.ack_to_send(),
            TcpFlags::ACK,
        );
        seg.window = self.recv_buf.window() as u32;
        let sacks = self.recv_buf.sack_blocks(self.irs, 3);
        if !sacks.is_empty() {
            seg.options = vec![TcpOption::Sack(sacks)];
        }
        seg
    }

    fn make_data_segment(&mut self, offset: u64, data: Bytes, retransmit: bool) -> TcpSegment {
        let mut seg = TcpSegment::bare(
            self.local_port,
            self.remote_port,
            self.seq_of_offset(offset),
            self.ack_to_send(),
            TcpFlags {
                psh: true,
                ..TcpFlags::ACK
            },
        );
        seg.window = self.recv_buf.window() as u32;
        let sacks = self.recv_buf.sack_blocks(self.irs, 3);
        if !sacks.is_empty() {
            seg.options = vec![TcpOption::Sack(sacks)];
        }
        if retransmit {
            self.stats.bytes_retransmitted += data.len() as u64;
        } else {
            self.stats.bytes_sent += data.len() as u64;
        }
        seg.payload = data;
        // Data segments carry the ACK, satisfying any pending ACK obligation.
        self.ack_pending = AckPending::None;
        seg
    }

    /// The maximum payload for one segment: our MSS clamped by the peer's
    /// and by what the segment's 16-bit length field can carry
    /// ([`TcpConfig::mss`] is a `usize`).
    fn effective_mss(&self) -> usize {
        self.config
            .mss
            .min(self.peer_mss.max(1))
            .min(usize::from(u16::MAX))
    }

    /// Whether segments must respect application write boundaries
    /// (uTCP unordered send keeps each write in its own skbuffs).
    fn respect_write_boundaries(&self) -> bool {
        self.opts.unordered_send
    }

    /// The congestion-window charge for a segment of `len` payload bytes.
    fn window_charge(&self, len: usize) -> usize {
        if self.opts.unordered_send {
            // Linux counts skbuffs, not bytes: an under-filled skbuff consumes
            // as much window as a full one (§7, §8.1).
            self.effective_mss()
        } else {
            len
        }
    }

    fn emit_data(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        let mss = self.effective_mss();
        let respect_boundaries = self.respect_write_boundaries();
        let effective_window = self.cc.cwnd().min(self.peer_window.max(mss));

        // 1. Retransmissions. In fast recovery only the head goes again, the
        // segment at `snd_una`: once on entry and once per partial ACK
        // (NewReno). Entries an earlier RTO marked lost wait: the full ACK
        // that ends the episode lies at or above the recover point and
        // retires them. Otherwise the lost entries go, lowest first
        // (go-back-N after an RTO), pausing whenever the congestion window
        // is full and resuming on later polls as ACKs open it again.
        let mut resent_any = false;
        loop {
            let offset = if self.recovery.in_recovery() {
                if !self.recovery.head_due() {
                    break;
                }
                self.snd_una
            } else if let Some(lost) = self.reliability.first_lost(self.recovery.recover()) {
                lost
            } else {
                break;
            };
            if self.reliability.flight_charge() >= effective_window {
                // Window-limited: the same offset comes up on a later poll.
                break;
            }
            // A full segment starting at the offset, wherever the original
            // segment boundaries fell.
            let max_len = mss.min((self.snd_max_offset() - offset) as usize);
            let Some(data) = self.send_buf.data_at(offset, max_len, respect_boundaries) else {
                break;
            };
            let end = offset + data.len() as u64;
            let charge = self.window_charge(data.len());
            let seg = self.make_data_segment(offset, data, true);
            out.push(seg);
            self.record_transmission(offset, end, charge, now, true);
            self.recovery.head_resent();
            resent_any = true;
        }
        if resent_any {
            self.reliability.ensure_rto(now, now + self.rtt.rto());
        }

        // 2. New data, limited by the usable window.
        loop {
            let next = self.snd_max_offset();
            let available = self.send_buf.available_from(next);
            if available == 0 {
                break;
            }
            let flight = self.reliability.flight_charge();
            if flight >= effective_window {
                break;
            }
            let max_len = mss.min(available);
            let Some(data) = self.send_buf.data_at(next, max_len, respect_boundaries) else {
                break;
            };
            let charge = self.window_charge(data.len());
            if flight > 0 && flight + charge > effective_window {
                break;
            }
            let end = next + data.len() as u64;
            let seg = self.make_data_segment(next, data, false);
            out.push(seg);
            self.send_buf.mark_transmitted(end);
            self.record_transmission(next, end, charge, now, false);
            self.reliability.ensure_rto(now, now + self.rtt.rto());
        }
        self.reliability
            .debug_check(self.snd_una, self.recovery.recover());
    }

    fn record_transmission(
        &mut self,
        start: u64,
        end: u64,
        charge: usize,
        now: SimTime,
        retransmitted: bool,
    ) {
        if retransmitted {
            self.stats.retransmissions += 1;
            self.events.push(ConnEvent::Retransmit);
        }
        self.reliability
            .record_transmission(start, end, charge, now, retransmitted);
    }

    fn maybe_emit_fin(&mut self, now: SimTime, rto_fired: bool, out: &mut Vec<TcpSegment>) {
        // The first FIN after `close()`, or again one the RTO presumed lost.
        let due = match self.phase {
            Phase::Established { close, .. } | Phase::CloseWait { close } => close,
            Phase::FinWait1 { .. } | Phase::Closing { .. } | Phase::LastAck { .. } => rto_fired,
            _ => false,
        };
        // Send the FIN only once all queued data has been transmitted.
        if !due || self.send_buf.available_from(self.snd_max_offset()) > 0 {
            return;
        }
        let fin_off = self.send_buf.end_offset();
        let mut seg = TcpSegment::bare(
            self.local_port,
            self.remote_port,
            self.seq_of_offset(fin_off),
            self.ack_to_send(),
            TcpFlags::FIN_ACK,
        );
        seg.window = self.recv_buf.window() as u32;
        out.push(seg);
        self.ack_pending = AckPending::None;
        self.transition(Event::SentFin(fin_off));
        self.reliability.ensure_rto(now, now + self.rtt.rto());
    }
}
