//! Conformance walk over the RFC 9293 §3.3.2 state machine: one test per
//! (state, event) pair the connection implements, each driven by crafted
//! segments so every arrival lands at a chosen time and offset.
//!
//! Our endpoint's ISS is 42 and the peer's 9000. Offsets in the helpers are
//! stream offsets: `peer(.., seq_off, ack_off, ..)` carries sequence number
//! `9001 + seq_off` and acknowledges `43 + ack_off`. Our FIN, sent with no
//! data queued, sits at offset 0, so its ACK is `ack_off = 1`.

use minion_simnet::{SimDuration, SimTime};
use minion_tcp::{
    SeqNum, SocketOptions, TcpConfig, TcpConnection, TcpError, TcpFlags, TcpSegment, TcpState,
};

const ISS: SeqNum = SeqNum(42);
const IRS: SeqNum = SeqNum(9000);

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn config() -> TcpConfig {
    TcpConfig::default()
        .with_fixed_isn(ISS.raw())
        .with_delayed_ack(false)
}

const FIN_ACK: TcpFlags = TcpFlags {
    fin: true,
    ..TcpFlags::ACK
};
const RST: TcpFlags = TcpFlags {
    syn: false,
    ack: false,
    fin: false,
    rst: true,
    psh: false,
};
const RST_ACK: TcpFlags = TcpFlags {
    rst: true,
    ..TcpFlags::ACK
};

/// A segment from the peer at receive offset `seq_off`, acknowledging our
/// send offset `ack_off`.
fn peer(flags: TcpFlags, seq_off: u32, ack_off: u32, payload: &[u8]) -> TcpSegment {
    let mut seg = TcpSegment::bare(2, 1, IRS + 1 + seq_off, ISS + 1 + ack_off, flags);
    seg.window = 1 << 20;
    seg.payload = payload.to_vec().into();
    seg
}

/// The peer's SYN-ACK for our SYN.
fn syn_ack() -> TcpSegment {
    let mut seg = TcpSegment::bare(2, 1, IRS, ISS + 1, TcpFlags::SYN_ACK);
    seg.window = 1 << 20;
    seg
}

/// An active open whose SYN is out, answered at 1 ms.
fn established() -> TcpConnection {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    c.on_segment(&syn_ack(), ms(1));
    let _ = c.poll(ms(1));
    assert_eq!(c.state(), TcpState::Established);
    c
}

/// A passive open that has seen the peer's SYN and sent its SYN-ACK.
fn syn_rcvd() -> TcpConnection {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.listen();
    let mut syn = TcpSegment::bare(2, 1, IRS, SeqNum(0), TcpFlags::SYN);
    syn.window = 1 << 20;
    c.on_segment(&syn, ms(1));
    let out = c.poll(ms(1));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].flags, TcpFlags::SYN_ACK);
    assert_eq!(c.state(), TcpState::SynRcvd);
    c
}

/// `close()` on an established connection and the FIN it sends at 10 ms.
fn fin_wait_1() -> TcpConnection {
    let mut c = established();
    c.close();
    let out = c.poll(ms(10));
    assert_eq!(fins(&out), 1);
    assert_eq!(c.state(), TcpState::FinWait1);
    c
}

/// Our FIN acknowledged at 20 ms.
fn fin_wait_2() -> TcpConnection {
    let mut c = fin_wait_1();
    c.on_segment(&peer(TcpFlags::ACK, 0, 1, &[]), ms(20));
    assert_eq!(c.state(), TcpState::FinWait2);
    c
}

/// The peer's in-order FIN at 10 ms.
fn close_wait() -> TcpConnection {
    let mut c = established();
    c.on_segment(&peer(FIN_ACK, 0, 0, &[]), ms(10));
    assert_eq!(c.state(), TcpState::CloseWait);
    c
}

fn fins(segs: &[TcpSegment]) -> usize {
    segs.iter().filter(|s| s.flags.fin).count()
}

/// The single pure ACK a poll produced, as the sequence number it acknowledges.
fn sole_ack(segs: &[TcpSegment]) -> SeqNum {
    assert_eq!(segs.len(), 1, "{segs:?}");
    assert_eq!(segs[0].flags, TcpFlags::ACK);
    segs[0].ack
}

// ---- CLOSED -------------------------------------------------------------

#[test]
fn closed_open_sends_a_syn_and_arms_the_rto() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    assert_eq!(c.state(), TcpState::Closed);
    c.open(SimTime::ZERO);
    assert_eq!(c.state(), TcpState::SynSent);
    let out = c.poll(SimTime::ZERO);
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].flags, out[0].seq), (TcpFlags::SYN, ISS));
    assert_eq!(c.next_timer(), Some(SimTime::from_secs(1)));
}

#[test]
fn closed_listen_waits_silently() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.listen();
    assert_eq!(c.state(), TcpState::Listen);
    assert!(c.poll(ms(5)).is_empty());
    assert_eq!(c.next_timer(), None);
}

#[test]
fn closed_ignores_segments() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.on_segment(&syn_ack(), ms(1));
    c.on_segment(&peer(TcpFlags::ACK, 0, 0, b"data"), ms(2));
    assert_eq!(c.state(), TcpState::Closed);
    assert!(c.poll(ms(3)).is_empty());
}

// ---- LISTEN -------------------------------------------------------------

#[test]
fn listen_syn_goes_syn_rcvd_and_sends_a_syn_ack() {
    let c = syn_rcvd();
    assert_eq!(c.next_timer(), Some(ms(1) + SimDuration::from_secs(1)));
}

#[test]
fn listen_ignores_everything_but_a_bare_syn() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.listen();
    c.on_segment(&syn_ack(), ms(1));
    c.on_segment(&peer(TcpFlags::ACK, 0, 0, b"x"), ms(1));
    c.on_segment(&peer(RST, 0, 0, &[]), ms(1));
    assert_eq!(c.state(), TcpState::Listen);
    assert!(c.poll(ms(2)).is_empty());
}

#[test]
fn listen_close_goes_closed() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.listen();
    c.close();
    assert_eq!(c.state(), TcpState::Closed);
}

// ---- SYN-SENT -----------------------------------------------------------

#[test]
fn syn_sent_close_sends_the_fin_after_the_handshake_and_queued_data() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    c.write(&[4; 200]).unwrap();
    c.close();
    assert_eq!(c.write(b"late"), Err(TcpError::Closed));
    assert_eq!(c.state(), TcpState::SynSent);
    c.on_segment(&syn_ack(), ms(30));
    let out = c.poll(ms(30));
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].payload.len(), 200);
    assert!(out[1].flags.fin && out[1].seq == ISS + 1 + 200);
    assert_eq!(c.state(), TcpState::FinWait1);
}

#[test]
fn syn_sent_syn_ack_establishes_and_acks() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    c.on_segment(&syn_ack(), ms(30));
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(c.srtt(), Some(SimDuration::from_millis(30)));
    assert_eq!(sole_ack(&c.poll(ms(30))), IRS + 1);
    assert_eq!(c.next_timer(), None, "the handshake timer is cleared");
}

#[test]
fn syn_sent_ignores_a_syn_ack_for_another_syn() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    let mut wrong = syn_ack();
    wrong.ack = ISS + 7;
    c.on_segment(&wrong, ms(30));
    assert_eq!(c.state(), TcpState::SynSent);
}

#[test]
fn syn_sent_rto_resends_the_syn() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    let out = c.poll(SimTime::from_secs(1));
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].flags, out[0].seq), (TcpFlags::SYN, ISS));
    assert_eq!(c.state(), TcpState::SynSent);
    assert_eq!(c.stats().timeouts, 1);
    assert_eq!(c.next_timer(), Some(SimTime::from_secs(3)), "backed off");
}

#[test]
fn syn_sent_rst_acking_our_syn_closes() {
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    let mut rst = TcpSegment::bare(2, 1, SeqNum(0), ISS + 1, RST_ACK);
    rst.window = 0;
    c.on_segment(&rst, ms(5));
    assert_eq!(c.state(), TcpState::Closed);
}

#[test]
fn syn_sent_rst_without_an_ack_of_our_syn_is_ignored() {
    // RFC 9293 §3.10.7.3: in SYN-SENT an RST is acceptable only if its ACK
    // field acknowledges the SYN.
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    c.on_segment(&TcpSegment::bare(2, 1, SeqNum(0), SeqNum(0), RST), ms(5));
    assert_eq!(c.state(), TcpState::SynSent);
    c.on_segment(&TcpSegment::bare(2, 1, SeqNum(0), ISS + 9, RST_ACK), ms(6));
    assert_eq!(c.state(), TcpState::SynSent);
    c.on_segment(&syn_ack(), ms(30));
    assert_eq!(c.state(), TcpState::Established);
}

#[test]
fn a_retransmitted_syn_is_not_sampled() {
    // Karn's rule: a SYN re-sent by the 1 s RTO and answered 60 ms later
    // may be answering either copy, so the handshake takes no sample
    // (timed from `open` it would read 1060 ms).
    let mut c = TcpConnection::new(1, 2, config(), SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    let resent = c.poll(SimTime::from_secs(1));
    assert_eq!(resent[0].flags, TcpFlags::SYN);
    c.on_segment(&syn_ack(), ms(1060));
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(c.rtt_samples(), 0);
    assert_eq!(c.srtt(), None);
}

// ---- SYN-RECEIVED -------------------------------------------------------

#[test]
fn syn_rcvd_ack_of_our_syn_establishes() {
    let mut c = syn_rcvd();
    c.on_segment(&peer(TcpFlags::ACK, 0, 0, &[]), ms(41));
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(c.srtt(), Some(SimDuration::from_millis(40)));
    assert_eq!(c.next_timer(), None);
}

#[test]
fn a_retransmitted_syn_ack_is_not_sampled() {
    // Karn's rule on the passive side: the ACK of a SYN-ACK sent twice may
    // answer either copy, so it is not timed.
    let mut c = syn_rcvd();
    let rto = c.next_timer().unwrap();
    assert_eq!(c.poll(rto)[0].flags, TcpFlags::SYN_ACK);
    c.on_segment(
        &peer(TcpFlags::ACK, 0, 0, &[]),
        rto + SimDuration::from_millis(40),
    );
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(c.rtt_samples(), 0);
    assert_eq!(c.srtt(), None);
}

#[test]
fn syn_rcvd_rto_resends_the_syn_ack() {
    let mut c = syn_rcvd();
    let rto = c.next_timer().unwrap();
    let out = c.poll(rto);
    assert_eq!(out.len(), 1);
    assert_eq!(
        (out[0].flags, out[0].seq, out[0].ack),
        (TcpFlags::SYN_ACK, ISS, IRS + 1)
    );
    assert_eq!(c.state(), TcpState::SynRcvd);
}

#[test]
fn syn_rcvd_refuses_writes() {
    let mut c = syn_rcvd();
    assert!(c.write(b"early").is_err());
}

#[test]
fn syn_rcvd_in_window_rst_closes() {
    let mut c = syn_rcvd();
    c.on_segment(&peer(RST, 0, 0, &[]), ms(5));
    assert_eq!(c.state(), TcpState::Closed);
}

// ---- ESTABLISHED --------------------------------------------------------

#[test]
fn established_retransmitted_syn_ack_is_re_acked() {
    // Our handshake ACK was lost, so the peer's RTO re-sent its SYN-ACK.
    let mut c = established();
    c.on_segment(&syn_ack(), ms(1001));
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(sole_ack(&c.poll(ms(1001))), IRS + 1);
}

#[test]
fn established_in_order_fin_goes_close_wait() {
    let mut c = established();
    c.on_segment(&peer(FIN_ACK, 0, 0, b"bye"), ms(10));
    assert_eq!(c.state(), TcpState::CloseWait);
    assert_eq!(sole_ack(&c.poll(ms(10))), IRS + 1 + 4, "covers the FIN");
    assert_eq!(c.read().unwrap().data.as_ref(), b"bye");
}

#[test]
fn established_fin_ahead_of_a_hole_closes_once_the_hole_fills() {
    let mut c = established();
    c.on_segment(&peer(FIN_ACK, 100, 0, &[]), ms(10));
    assert_eq!(
        c.state(),
        TcpState::Established,
        "the FIN is not reached yet"
    );
    assert_eq!(sole_ack(&c.poll(ms(10))), IRS + 1, "nothing to cover yet");

    c.on_segment(&peer(TcpFlags::ACK, 0, 0, &[7; 100]), ms(20));
    assert_eq!(c.state(), TcpState::CloseWait);
    assert_eq!(sole_ack(&c.poll(ms(20))), IRS + 1 + 101, "covers the FIN");

    c.close();
    let out = c.poll(ms(30));
    assert_eq!(fins(&out), 1);
    assert_eq!(c.state(), TcpState::LastAck);
    c.on_segment(&peer(TcpFlags::ACK, 101, 1, &[]), ms(40));
    assert_eq!(c.state(), TcpState::Closed);
    assert_eq!(c.next_timer(), None);
    assert!(c.poll(SimTime::from_secs(100)).is_empty());
}

#[test]
fn established_close_sends_the_fin_after_queued_data() {
    let mut c = established();
    c.write(&[1; 500]).unwrap();
    c.close();
    assert!(c.write(b"late").is_err());
    let out = c.poll(ms(10));
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].payload.len(), 500);
    assert!(out[1].flags.fin && out[1].seq == ISS + 1 + 500);
    assert_eq!(c.state(), TcpState::FinWait1);
}

#[test]
fn established_in_window_rst_closes() {
    let mut c = established();
    c.on_segment(&peer(RST, 0, 0, &[]), ms(5));
    assert_eq!(c.state(), TcpState::Closed);
}

#[test]
fn established_out_of_window_rst_is_ignored() {
    // RFC 9293 §3.10.7.4: an RST is valid only if its sequence number is in
    // the receive window.
    let mut c = established();
    c.on_segment(&peer(RST, u32::MAX, 0, &[]), ms(5));
    c.on_segment(&peer(RST, 1 << 30, 0, &[]), ms(5));
    assert_eq!(c.state(), TcpState::Established);
    c.on_segment(&peer(RST, 1000, 0, &[]), ms(6));
    assert_eq!(c.state(), TcpState::Closed, "inside the window");
}

#[test]
fn established_rto_retransmits_data() {
    let mut c = established();
    c.write(&[3; 300]).unwrap();
    let _ = c.poll(ms(2));
    let rto = c.next_timer().unwrap();
    let out = c.poll(rto);
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].seq, out[0].payload.len()), (ISS + 1, 300));
    assert_eq!(c.state(), TcpState::Established);
}

// ---- FIN-WAIT-1 ---------------------------------------------------------

#[test]
fn fin_wait_1_ack_of_our_fin_goes_fin_wait_2() {
    let c = fin_wait_2();
    assert_eq!(c.next_timer(), None);
}

#[test]
fn fin_wait_1_rto_resends_a_lost_fin() {
    let mut c = fin_wait_1();
    let rto = c.next_timer().unwrap();
    let out = c.poll(rto);
    assert_eq!(fins(&out), 1);
    assert_eq!(out[0].seq, ISS + 1, "under the same sequence number");
    assert_eq!(c.state(), TcpState::FinWait1);
    c.on_segment(
        &peer(TcpFlags::ACK, 0, 1, &[]),
        rto + SimDuration::from_millis(5),
    );
    assert_eq!(c.state(), TcpState::FinWait2);
}

#[test]
fn fin_wait_1_peer_fin_is_a_simultaneous_close() {
    // Both ends close at once: each sees the other's FIN before the ACK of
    // its own, goes CLOSING, and TIME-WAIT on that ACK.
    let mut c = fin_wait_1();
    c.on_segment(&peer(FIN_ACK, 0, 0, &[]), ms(15));
    assert_eq!(c.state(), TcpState::Closing);
    assert_eq!(sole_ack(&c.poll(ms(15))), IRS + 2);
    c.on_segment(&peer(TcpFlags::ACK, 1, 1, &[]), ms(25));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(c.next_timer(), Some(ms(25) + SimDuration::from_secs(2)));
}

#[test]
fn fin_wait_1_fin_acking_our_fin_goes_time_wait() {
    let mut c = fin_wait_1();
    c.on_segment(&peer(FIN_ACK, 0, 1, &[]), ms(15));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(sole_ack(&c.poll(ms(15))), IRS + 2);
}

// ---- FIN-WAIT-2 ---------------------------------------------------------

#[test]
fn fin_wait_2_peer_fin_goes_time_wait() {
    let mut c = fin_wait_2();
    c.on_segment(&peer(FIN_ACK, 0, 1, &[]), ms(30));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(sole_ack(&c.poll(ms(30))), IRS + 2);
}

#[test]
fn fin_wait_2_fin_ahead_of_a_hole_waits_for_the_hole() {
    let mut c = fin_wait_2();
    c.on_segment(&peer(FIN_ACK, 50, 1, &[]), ms(30));
    assert_eq!(c.state(), TcpState::FinWait2);
    c.on_segment(&peer(TcpFlags::ACK, 0, 1, &[9; 50]), ms(31));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(sole_ack(&c.poll(ms(31))), IRS + 1 + 51);
}

#[test]
fn fin_wait_2_rst_must_be_in_window() {
    let mut c = fin_wait_2();
    c.on_segment(&peer(RST, u32::MAX - 10, 1, &[]), ms(30));
    assert_eq!(c.state(), TcpState::FinWait2);
    c.on_segment(&peer(RST, 0, 1, &[]), ms(31));
    assert_eq!(c.state(), TcpState::Closed);
}

// ---- CLOSE-WAIT / LAST-ACK ----------------------------------------------

#[test]
fn close_wait_still_sends() {
    let mut c = close_wait();
    c.write(b"reply").unwrap();
    let out = c.poll(ms(11));
    assert_eq!(out[0].payload.as_ref(), b"reply");
    assert_eq!(c.state(), TcpState::CloseWait);
}

#[test]
fn close_wait_close_goes_last_ack_and_its_ack_closes() {
    let mut c = close_wait();
    c.close();
    let out = c.poll(ms(11));
    assert_eq!(fins(&out), 1);
    assert_eq!(c.state(), TcpState::LastAck);
    c.on_segment(&peer(TcpFlags::ACK, 1, 1, &[]), ms(20));
    assert_eq!(c.state(), TcpState::Closed);
    assert_eq!(c.next_timer(), None);
}

#[test]
fn last_ack_rto_resends_a_lost_fin() {
    let mut c = close_wait();
    c.close();
    let _ = c.poll(ms(11));
    let rto = c.next_timer().unwrap();
    let out = c.poll(rto);
    assert_eq!(fins(&out), 1);
    assert_eq!(c.state(), TcpState::LastAck);
}

// ---- CLOSING / TIME-WAIT ------------------------------------------------

#[test]
fn closing_rto_resends_a_lost_fin() {
    let mut c = fin_wait_1();
    c.on_segment(&peer(FIN_ACK, 0, 0, &[]), ms(15));
    let _ = c.poll(ms(15));
    let rto = c.next_timer().unwrap();
    let out = c.poll(rto);
    assert_eq!(fins(&out), 1);
    assert_eq!(c.state(), TcpState::Closing);
}

#[test]
fn time_wait_re_acks_a_retransmitted_fin() {
    // The peer's copy of our final ACK was lost, so its RTO re-sends the
    // FIN. The 2·MSL timer is not restarted (a deviation from RFC 9293).
    let mut c = fin_wait_2();
    c.on_segment(&peer(FIN_ACK, 0, 1, &[]), ms(30));
    let _ = c.poll(ms(30));
    let expiry = c.next_timer().unwrap();
    c.on_segment(&peer(FIN_ACK, 0, 1, &[]), ms(1030));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(sole_ack(&c.poll(ms(1030))), IRS + 2);
    assert_eq!(c.next_timer(), Some(expiry));
}

#[test]
fn time_wait_expires_after_two_seconds() {
    let mut c = fin_wait_2();
    c.on_segment(&peer(FIN_ACK, 0, 1, &[]), ms(30));
    let _ = c.poll(ms(30));
    let expiry = ms(30) + SimDuration::from_secs(2);
    assert_eq!(c.next_timer(), Some(expiry));
    let _ = c.poll(expiry - SimDuration::from_millis(1));
    assert_eq!(c.state(), TcpState::TimeWait);
    assert!(c.poll(expiry).is_empty());
    assert_eq!(c.state(), TcpState::Closed);
    assert_eq!(c.next_timer(), None);
}
