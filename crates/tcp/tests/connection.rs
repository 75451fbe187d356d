//! End-to-end tests of the TCP connection state machine, driven entirely
//! through the public API: two endpoints joined by an in-memory wire with
//! controllable loss, plus manually crafted segments for the choreographed
//! regression tests (recover-point guard, partial-ACK retransmit semantics,
//! conservative recovery exit).

use minion_simnet::{SimDuration, SimTime};
use minion_tcp::{
    CcAlgorithm, ConnEvent, Readiness, SackBlock, SeqNum, SocketOptions, TcpConfig, TcpConnection,
    TcpError, TcpFlags, TcpOption, TcpSegment, TcpState, WriteMeta,
};

const MSS: usize = 1448;

/// Drive two connections against each other through an in-memory "wire"
/// that can drop chosen data segments. Returns when both sides go idle.
struct Harness {
    client: TcpConnection,
    server: TcpConnection,
    now: SimTime,
    /// One-way delay of the wire.
    delay: SimDuration,
    /// In-flight segments: (arrival time, to_server?, segment)
    wire: Vec<(SimTime, bool, TcpSegment)>,
    /// Data-segment indices (1-based count of data segments sent by the
    /// client) to drop once.
    drop_client_data: Vec<u64>,
    client_data_count: u64,
    /// When each dropped data segment left the client.
    dropped_at: Vec<SimTime>,
    /// Drop the client's next FIN (once).
    drop_client_fin: bool,
}

impl Harness {
    fn new(client_opts: SocketOptions, server_opts: SocketOptions) -> Self {
        Harness::with_isn(client_opts, server_opts, 1000)
    }

    fn with_isn(client_opts: SocketOptions, server_opts: SocketOptions, isn: u32) -> Self {
        Harness::with_config(
            TcpConfig::default().with_fixed_isn(isn),
            client_opts,
            server_opts,
        )
    }

    fn with_config(cfg: TcpConfig, client_opts: SocketOptions, server_opts: SocketOptions) -> Self {
        let mut client = TcpConnection::new(10000, 80, cfg.clone(), client_opts);
        let mut server = TcpConnection::new(80, 10000, cfg, server_opts);
        client.open(SimTime::ZERO);
        server.listen();
        Harness {
            client,
            server,
            now: SimTime::ZERO,
            delay: SimDuration::from_millis(30),
            wire: Vec::new(),
            drop_client_data: Vec::new(),
            client_data_count: 0,
            dropped_at: Vec::new(),
            drop_client_fin: false,
        }
    }

    fn transfer(&mut self) {
        // Collect outgoing segments from both endpoints.
        for seg in self.client.poll(self.now) {
            let is_data = !seg.payload.is_empty();
            if is_data {
                self.client_data_count += 1;
                if self.drop_client_data.contains(&self.client_data_count) {
                    self.dropped_at.push(self.now);
                    continue;
                }
            }
            if seg.flags.fin && std::mem::take(&mut self.drop_client_fin) {
                continue;
            }
            self.wire.push((self.now + self.delay, true, seg));
        }
        for seg in self.server.poll(self.now) {
            self.wire.push((self.now + self.delay, false, seg));
        }
    }

    /// Advance time to the next event and deliver due segments.
    fn step(&mut self) -> bool {
        self.transfer();
        // Find next event time: wire arrival or connection timer.
        let mut next: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        };
        consider(self.wire.iter().map(|(t, _, _)| *t).min());
        consider(self.client.next_timer());
        consider(self.server.next_timer());
        let Some(next) = next else { return false };
        self.now = self.now.max(next);
        // Deliver all due segments.
        let due: Vec<(SimTime, bool, TcpSegment)> = {
            let mut due = vec![];
            let mut keep = vec![];
            for item in self.wire.drain(..) {
                if item.0 <= self.now {
                    due.push(item);
                } else {
                    keep.push(item);
                }
            }
            self.wire = keep;
            due
        };
        for (_, to_server, seg) in due {
            if to_server {
                self.server.on_segment(&seg, self.now);
            } else {
                self.client.on_segment(&seg, self.now);
            }
        }
        true
    }

    fn run_until(&mut self, deadline: SimTime) {
        let mut guard = 0u32;
        while self.now < deadline {
            if !self.step() {
                break;
            }
            guard += 1;
            assert!(guard < 500_000, "harness stopped making progress");
        }
    }

    fn run_until_idle(&mut self, max_time: SimTime) {
        let mut guard = 0u32;
        loop {
            self.transfer();
            if self.wire.is_empty()
                && self.client.next_timer().is_none()
                && self.server.next_timer().is_none()
            {
                break;
            }
            if !self.step() || self.now >= max_time {
                break;
            }
            guard += 1;
            assert!(guard < 500_000, "harness stopped making progress");
        }
    }

    fn drain_server_bytes(&mut self) -> Vec<u8> {
        let mut chunks = vec![];
        while let Some(c) = self.server.read() {
            chunks.push(c);
        }
        // Reassemble by offset (handles unordered delivery).
        let mut out = vec![];
        chunks.sort_by_key(|c| c.offset);
        for c in chunks {
            let off = c.offset as usize;
            if out.len() < off + c.len() {
                out.resize(off + c.len(), 0);
            }
            out[off..off + c.len()].copy_from_slice(&c.data);
        }
        out
    }
}

// ----------------------------------------------------------------------
// Manually choreographed connections (fixed ISN 42, peer seq 9000)
// ----------------------------------------------------------------------

const ISS: SeqNum = SeqNum(42);

/// Open a client connection and complete the handshake by hand so every
/// subsequent segment can be injected at a chosen time.
fn establish(cfg: TcpConfig) -> TcpConnection {
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::standard());
    c.open(SimTime::ZERO);
    let syn = &c.poll(SimTime::ZERO)[0];
    let mut synack = TcpSegment::bare(2, 1, SeqNum(9000), syn.seq + 1, TcpFlags::SYN_ACK);
    synack.options = vec![TcpOption::Mss(1448), TcpOption::SackPermitted];
    synack.window = 1 << 20;
    c.on_segment(&synack, SimTime::from_millis(1));
    assert!(c.is_established());
    c
}

/// Inject a bare ACK for stream offset `ack_off` (a duplicate ACK when it
/// matches the current cumulative point and data is outstanding).
fn inject_ack(c: &mut TcpConnection, ack_off: u64, now: SimTime) {
    let mut ack = TcpSegment::bare(2, 1, SeqNum(9001), ISS + 1 + ack_off as u32, TcpFlags::ACK);
    ack.window = 1 << 20;
    c.on_segment(&ack, now);
}

/// Inject a bare ACK for stream offset `ack_off` carrying one SACK block
/// over the stream offsets `[start, end)`.
fn inject_sack(c: &mut TcpConnection, ack_off: u64, block: (u64, u64), now: SimTime) {
    inject_sacks(c, ack_off, &[block], now);
}

/// Inject a bare ACK for stream offset `ack_off` carrying a SACK block for
/// each `[start, end)` range of stream offsets.
fn inject_sacks(c: &mut TcpConnection, ack_off: u64, blocks: &[(u64, u64)], now: SimTime) {
    let mut ack = TcpSegment::bare(2, 1, SeqNum(9001), ISS + 1 + ack_off as u32, TcpFlags::ACK);
    ack.window = 1 << 20;
    let blocks = blocks.iter().map(|&(start, end)| SackBlock {
        start: ISS + 1 + start as u32,
        end: ISS + 1 + end as u32,
    });
    ack.options = vec![TcpOption::Sack(blocks.collect())];
    c.on_segment(&ack, now);
}

/// The stream offset and length of each data segment in `segs`.
fn data_ranges(segs: &[TcpSegment]) -> Vec<(u64, usize)> {
    segs.iter()
        .filter(|s| !s.payload.is_empty())
        .map(|s| (u64::from(s.seq.0.wrapping_sub(ISS.0 + 1)), s.payload.len()))
        .collect()
}

fn data_payload(segs: &[TcpSegment]) -> usize {
    segs.iter().map(|s| s.payload.len()).sum()
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

#[test]
fn dup_ack_burst_after_rto_does_not_reenter_recovery() {
    // Regression for the RFC 6582 §3.2 recover-point guard. An RTO is a
    // congestion event: it must arm `recover` at snd_max so the duplicate
    // ACKs elicited by the go-back-N retransmissions cannot trigger a fast
    // retransmit — i.e. cut cwnd a *second* time for the same loss. The old
    // code entered recovery on any third duplicate ACK.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 20 * MSS]).unwrap();
    let first = c.poll(ms(2));
    assert_eq!(
        first.iter().filter(|s| !s.payload.is_empty()).count(),
        3,
        "initial window"
    );

    // No ACKs arrive: the retransmission timer fires.
    let rto_at = c.next_timer().expect("RTO armed");
    let resent = c.poll(rto_at);
    assert!(resent.iter().any(|s| !s.payload.is_empty()));
    assert_eq!(c.stats().timeouts, 1);

    // The retransmission elicits a burst of duplicate ACKs at the old
    // cumulative point (offset 0), all for data sent before the timeout.
    for i in 0..3 {
        inject_ack(&mut c, 0, rto_at + SimDuration::from_millis(10 + i));
    }
    assert_eq!(c.stats().dup_acks, 3);
    assert_eq!(
        c.stats().fast_retransmits,
        0,
        "post-RTO duplicate ACKs must not re-enter recovery (double cut)"
    );
}

#[test]
fn dup_ack_burst_after_recovery_exit_does_not_cut_twice() {
    // The other half of the double-cut trace: duplicate ACKs arriving just
    // after a full acknowledgment ends recovery refer to segments sent
    // before the congestion event and must be ignored, not treated as a
    // fresh loss.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 10 * MSS]).unwrap();
    let first = c.poll(ms(2));
    assert_eq!(first.iter().filter(|s| !s.payload.is_empty()).count(), 3);

    // Three duplicate ACKs at offset 0: genuine first entry into recovery
    // (recover point arms at snd_max = 3 segments).
    for i in 0..3 {
        inject_ack(&mut c, 0, ms(10 + i));
    }
    assert_eq!(c.stats().fast_retransmits, 1);
    let _recovery_segs = c.poll(ms(15));

    // Full ACK covering the recover point ends the episode.
    inject_ack(&mut c, 3 * MSS as u64, ms(60));
    assert_eq!(c.stats().fast_retransmits, 1);

    // A stale duplicate-ACK burst lands exactly at the recover point.
    for i in 0..3 {
        inject_ack(&mut c, 3 * MSS as u64, ms(61 + i));
    }
    assert_eq!(
        c.stats().fast_retransmits,
        1,
        "dup ACKs at the recover point must not start a second episode"
    );
}

#[test]
fn partial_ack_mid_segment_resends_a_full_segment() {
    // A NewReno partial ACK landing *mid-segment* asks for one segment at the
    // ACK point, and the emit path reads a full MSS from there — so the
    // retransmission is 1448 bytes starting at the new snd_una, crossing the
    // original segment boundary, never the rest of the old segment.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 8 * MSS]).unwrap();
    let first = c.poll(ms(2));
    assert_eq!(first.iter().filter(|s| !s.payload.is_empty()).count(), 3);

    // ACK the first segment; the opened window sends two more (snd_max = 5).
    inject_ack(&mut c, MSS as u64, ms(10));
    let more = c.poll(ms(10));
    assert_eq!(more.iter().filter(|s| !s.payload.is_empty()).count(), 2);

    // Lose segment 2: three duplicate ACKs at offset 1448 enter recovery and
    // fast-retransmit one full segment from offset 1448.
    for i in 0..3 {
        inject_ack(&mut c, MSS as u64, ms(20 + i));
    }
    let retx = c.poll(ms(25));
    let retx_data: Vec<&TcpSegment> = retx.iter().filter(|s| !s.payload.is_empty()).collect();
    assert_eq!(
        retx_data.len(),
        2,
        "the retransmission charges no extra flight"
    );
    assert_eq!(
        retx_data[0].payload.len(),
        MSS,
        "fast retransmit is full-MSS"
    );

    // A partial ACK lands mid-segment at offset 2000 (inside the original
    // [1448, 2896) segment). The scheduled retransmission must be a full
    // segment [2000, 3448), not one byte and not the old boundary.
    inject_ack(&mut c, 2000, ms(60));
    let partial_retx = c.poll(ms(61));
    let data: Vec<&TcpSegment> = partial_retx
        .iter()
        .filter(|s| !s.payload.is_empty())
        .collect();
    assert_eq!(data.len(), 1, "partial ACK triggers exactly one retransmit");
    assert_eq!(
        data[0].seq,
        ISS + 1 + 2000,
        "resend starts at the ACK point"
    );
    assert_eq!(
        data[0].payload.len(),
        MSS,
        "a full segment is resent, crossing the original boundary"
    );
}

#[test]
fn partial_ack_retransmits_the_next_hole_under_every_cc() {
    // Loss recovery does not depend on the choice of window: every
    // algorithm — `none` included, which used to wait for the RTO here —
    // answers a partial ACK by resending the segment at the new ACK point,
    // and leaves recovery on the full ACK.
    for algo in CcAlgorithm::ALL {
        let label = algo.label();
        let cfg = TcpConfig::default()
            .with_fixed_isn(42)
            .with_delayed_ack(false)
            .with_cc(algo);
        let mut c = establish(cfg);
        c.write(&vec![0u8; 8 * MSS]).unwrap();
        let _ = c.poll(ms(2));

        // Segments 1 and 2 are lost: three duplicate ACKs at 0 fast-retransmit
        // the first, and the ACK of that retransmission is a partial one.
        for i in 0..3 {
            inject_ack(&mut c, 0, ms(10 + i));
        }
        assert_eq!(c.stats().fast_retransmits, 1, "cc={label}");
        let retx = c.poll(ms(15));
        assert!(retx
            .iter()
            .any(|s| s.seq == ISS + 1 && s.payload.len() == MSS));
        inject_ack(&mut c, MSS as u64, ms(60));
        let second_hole = c.poll(ms(61));
        assert_eq!(
            second_hole
                .iter()
                .filter(|s| s.seq == ISS + 1 + MSS as u32 && s.payload.len() == MSS)
                .count(),
            1,
            "cc={label}: the partial ACK resends the next hole"
        );
        assert_eq!(c.stats().timeouts, 0, "cc={label}");

        // A full ACK of everything sent so far ends the episode: once the
        // ACK point is beyond the recover point, a third duplicate ACK is a
        // new loss and fast-retransmits again (inside the old episode it
        // would only have inflated the window).
        let sent = c.stats().bytes_sent;
        inject_ack(&mut c, sent, ms(120));
        c.write(&vec![0u8; 4 * MSS]).unwrap();
        let fresh = c.poll(ms(121));
        assert!(data_payload(&fresh) >= 2 * MSS, "cc={label}");
        inject_ack(&mut c, sent + MSS as u64, ms(180));
        let _ = c.poll(ms(180));
        for i in 0..3 {
            inject_ack(&mut c, sent + MSS as u64, ms(190 + i));
        }
        assert_eq!(
            c.stats().fast_retransmits,
            2,
            "cc={label}: the full ACK left recovery"
        );
    }
}

#[test]
fn recovery_exit_window_is_conservative() {
    // RFC 6582 §3.2 step 3, conservative variant: on a full acknowledgment
    // the window deflates to min(ssthresh, max(flight, MSS) + MSS). The old
    // unconditional `cwnd = ssthresh` licensed an ssthresh-sized burst on the
    // next poll when recovery ended with (almost) nothing in flight.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 64 * MSS]).unwrap();
    let mut now = ms(2);
    let _ = c.poll(now);

    // Grow the window to 16 segments by ACKing one MSS at a time (slow
    // start), letting each ACK clock out new data.
    let mut acked = 0u64;
    while c.cwnd() < 16 * MSS {
        now += SimDuration::from_millis(5);
        acked += MSS as u64;
        inject_ack(&mut c, acked, now);
        let _ = c.poll(now);
    }
    assert_eq!(c.cwnd(), 16 * MSS);
    let snd_max = c.stats().bytes_sent; // everything sent exactly once so far

    // Three duplicate ACKs: enter recovery with a 16-segment flight.
    for i in 0..3 {
        inject_ack(&mut c, acked, now + SimDuration::from_millis(10 + i));
    }
    assert_eq!(c.stats().fast_retransmits, 1);

    // A full acknowledgment of everything outstanding ends recovery with
    // zero bytes in flight: the exit window must be max(0, MSS) + MSS =
    // 2 segments, NOT ssthresh (8 segments).
    now += SimDuration::from_millis(50);
    inject_ack(&mut c, snd_max, now);
    assert_eq!(c.cwnd(), 2 * MSS, "conservative exit, not cwnd = ssthresh");

    // And the next poll's burst honours it: two segments, not eight.
    let burst = c.poll(now + SimDuration::from_millis(1));
    assert_eq!(
        data_payload(&burst),
        2 * MSS,
        "post-recovery burst bounded by the deflated window"
    );
    assert!(data_payload(&burst) <= c.cwnd());
}

#[test]
fn bulk_transfer_with_loss_delivers_under_every_cc_algorithm() {
    // The pluggable window response must not affect reliability: the same
    // lossy transfer completes exactly under NewReno, CUBIC, and disabled
    // congestion control, and each run is deterministic.
    for algo in CcAlgorithm::ALL {
        let run = || {
            let cfg = TcpConfig::default().with_fixed_isn(77).with_cc(algo);
            let mut h =
                Harness::with_config(cfg, SocketOptions::standard(), SocketOptions::standard());
            h.run_until(SimTime::from_millis(200));
            let data: Vec<u8> = (0..60_000u32).map(|i| (i % 233) as u8).collect();
            h.client.write(&data).unwrap();
            h.drop_client_data = vec![4];
            h.run_until_idle(SimTime::from_secs(60));
            assert_eq!(
                h.drain_server_bytes(),
                data,
                "cc={} must still deliver everything",
                algo.label()
            );
            (
                h.client.stats().segments_sent,
                h.client.stats().retransmissions,
                h.client.stats().bytes_retransmitted,
            )
        };
        assert_eq!(run(), run(), "cc={} is deterministic", algo.label());
    }
}

// ----------------------------------------------------------------------
// Wire-driven end-to-end behaviour
// ----------------------------------------------------------------------

#[test]
fn three_way_handshake_establishes_both_sides() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(500));
    assert_eq!(h.client.state(), TcpState::Established);
    assert_eq!(h.server.state(), TcpState::Established);
    assert!(
        h.client.srtt().is_some(),
        "client sampled RTT from handshake"
    );
}

#[test]
fn bulk_transfer_without_loss_delivers_all_bytes_in_order() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    h.client.write(&data).unwrap();
    h.run_until_idle(SimTime::from_secs(30));
    let received = h.drain_server_bytes();
    assert_eq!(received.len(), data.len());
    assert_eq!(received, data);
    assert_eq!(h.client.stats().retransmissions, 0);
}

#[test]
fn lost_segment_is_recovered_by_fast_retransmit() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 253) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![5];
    h.run_until_idle(SimTime::from_secs(60));
    let received = h.drain_server_bytes();
    assert_eq!(received, data, "all data eventually delivered despite loss");
    assert!(h.client.stats().retransmissions >= 1);
    assert!(
        h.client.stats().fast_retransmits >= 1,
        "loss with plenty of following data should trigger fast retransmit, stats={:?}",
        h.client.stats()
    );
}

#[test]
fn lost_segment_at_tail_is_recovered_by_rto() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    // Two-segment write, drop the last data segment: not enough dupacks,
    // so recovery must come from the retransmission timeout.
    let data: Vec<u8> = vec![7u8; 2000];
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![2];
    h.run_until_idle(SimTime::from_secs(120));
    let received = h.drain_server_bytes();
    assert_eq!(received, data);
    assert!(
        h.client.stats().timeouts >= 1,
        "stats={:?}",
        h.client.stats()
    );
}

#[test]
fn standard_receiver_blocks_delivery_behind_a_hole() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..4000u32).map(|i| (i % 250) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![1];
    // Run just long enough for the first window of segments to arrive but
    // not long enough for loss recovery (RTO is at least 200 ms away).
    h.run_until(h.now + SimDuration::from_millis(150));
    // Standard TCP: nothing readable, the first segment is missing.
    assert!(
        !h.server.readable(),
        "hole blocks all delivery on standard TCP"
    );
}

#[test]
fn unordered_receiver_delivers_past_a_hole_immediately() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::utcp());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..4000u32).map(|i| (i % 250) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![1];
    h.run_until(h.now + SimDuration::from_millis(150));
    // uTCP: segments after the hole are already available, with offsets.
    assert!(h.server.readable(), "uTCP delivers out-of-order data early");
    let mut saw_out_of_order = false;
    while let Some(c) = h.server.read() {
        if !c.in_order {
            saw_out_of_order = true;
            assert!(c.offset > 0);
            let expected: Vec<u8> = (c.offset..c.offset + c.len() as u64)
                .map(|i| (i % 250) as u8)
                .collect();
            assert_eq!(&c.data[..], &expected[..], "offset metadata is accurate");
        }
    }
    assert!(saw_out_of_order);
}

#[test]
fn wire_format_is_identical_for_utcp() {
    // Run the same deterministic transfer with and without uTCP options on
    // the receiver and compare every segment the *sender* puts on the wire
    // as well as the receiver's ACK stream lengths: uTCP must not change
    // wire-visible behaviour when no loss occurs.
    fn run(receiver_opts: SocketOptions) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut h = Harness::new(SocketOptions::standard(), receiver_opts);
        let mut client_wire: Vec<Vec<u8>> = vec![];
        let mut server_wire: Vec<Vec<u8>> = vec![];
        h.run_until(SimTime::from_millis(200));
        h.client.write(&vec![42u8; 30_000]).unwrap();
        // Manually step so we can capture segments.
        for _ in 0..2000 {
            for seg in h.client.poll(h.now) {
                client_wire.push(seg.encode().to_vec());
                h.wire.push((h.now + h.delay, true, seg));
            }
            for seg in h.server.poll(h.now) {
                server_wire.push(seg.encode().to_vec());
                h.wire.push((h.now + h.delay, false, seg));
            }
            let next = h
                .wire
                .iter()
                .map(|(t, _, _)| *t)
                .min()
                .into_iter()
                .chain(h.client.next_timer())
                .chain(h.server.next_timer())
                .min();
            let Some(next) = next else { break };
            h.now = h.now.max(next);
            let mut keep = vec![];
            for (t, to_server, seg) in h.wire.drain(..) {
                if t <= h.now {
                    if to_server {
                        h.server.on_segment(&seg, h.now);
                    } else {
                        h.client.on_segment(&seg, h.now);
                    }
                } else {
                    keep.push((t, to_server, seg));
                }
            }
            h.wire = keep;
            while h.server.read().is_some() {}
        }
        (client_wire, server_wire)
    }
    let (tcp_client, tcp_server) = run(SocketOptions::standard());
    let (utcp_client, utcp_server) = run(SocketOptions::utcp());
    assert_eq!(tcp_client, utcp_client, "sender wire behaviour unchanged");
    assert_eq!(tcp_server, utcp_server, "receiver ACK stream unchanged");
}

#[test]
fn unordered_send_prioritization_reorders_untransmitted_data() {
    let cfg = TcpConfig::default().with_fixed_isn(1);
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::utcp());
    c.open(SimTime::ZERO);
    // Complete handshake manually.
    let syn = &c.poll(SimTime::ZERO)[0];
    let mut synack = TcpSegment::bare(2, 1, SeqNum(5000), syn.seq + 1, TcpFlags::SYN_ACK);
    synack.options = vec![TcpOption::Mss(1448), TcpOption::SackPermitted];
    synack.window = 1 << 20;
    c.on_segment(&synack, SimTime::from_millis(1));
    assert!(c.is_established());
    // Ten low-priority bulk writes; the initial congestion window only
    // lets the first three leave immediately.
    for _ in 0..10 {
        c.write_with_meta(&[0u8; 1448], WriteMeta::with_priority(0))
            .unwrap();
    }
    let first = c.poll(SimTime::from_millis(2));
    assert_eq!(first.iter().filter(|s| !s.payload.is_empty()).count(), 3);
    // A high-priority message written afterwards must pass the seven bulk
    // writes still waiting in the send queue (but not the three already
    // transmitted).
    c.write_with_meta(b"URGENT", WriteMeta::with_priority(9))
        .unwrap();
    let mut ack = TcpSegment::bare(
        2,
        1,
        SeqNum(5001),
        first.last().unwrap().seq_end(),
        TcpFlags::ACK,
    );
    ack.window = 1 << 20;
    c.on_segment(&ack, SimTime::from_millis(60));
    let next = c.poll(SimTime::from_millis(60));
    let data_segs: Vec<&TcpSegment> = next.iter().filter(|s| !s.payload.is_empty()).collect();
    assert!(!data_segs.is_empty());
    assert_eq!(
        data_segs[0].payload.as_ref(),
        b"URGENT",
        "urgent data leads the next flight, ahead of queued bulk"
    );
    // The remaining bulk data still follows afterwards.
    assert!(data_segs[1..]
        .iter()
        .any(|s| s.payload.iter().all(|&b| b == 0)));
}

#[test]
fn cc_disabled_sends_entire_window_at_once() {
    let cfg = TcpConfig::default()
        .with_fixed_isn(1)
        .with_cc(CcAlgorithm::None);
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::standard());
    c.open(SimTime::ZERO);
    let syn = &c.poll(SimTime::ZERO)[0];
    let mut synack = TcpSegment::bare(2, 1, SeqNum(5000), syn.seq + 1, TcpFlags::SYN_ACK);
    synack.options = vec![TcpOption::Mss(1448), TcpOption::SackPermitted];
    synack.window = 1 << 20;
    c.on_segment(&synack, SimTime::from_millis(1));
    c.write(&vec![0u8; 100 * 1448]).unwrap();
    let segs = c.poll(SimTime::from_millis(2));
    // Without congestion control, the whole backlog goes out (peer window
    // permitting) in a single poll.
    assert_eq!(
        segs.iter().map(|s| s.payload.len()).sum::<usize>(),
        100 * 1448
    );
}

#[test]
fn orderly_close_reaches_closed_states_on_both_sides() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    h.client.write(b"goodbye").unwrap();
    h.client.close();
    h.run_until(SimTime::from_millis(400));
    h.server.close();
    h.run_until_idle(SimTime::from_secs(10));
    assert_eq!(h.drain_server_bytes(), b"goodbye");
    assert!(h.client.is_closed(), "client state: {:?}", h.client.state());
    assert!(h.server.is_closed(), "server state: {:?}", h.server.state());
}

#[test]
fn lost_fin_is_retransmitted_by_the_rto() {
    // The FIN used to be sent exactly once: losing it left the client in
    // FIN-WAIT-1 with the retransmission timer re-arming and firing for ever.
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    h.client.write(&[5u8; 100]).unwrap();
    h.run_until(SimTime::from_millis(400));
    assert_eq!(h.client.stats().bytes_acked, 100);
    h.client.close();
    h.server.close();
    h.drop_client_fin = true;
    h.run_until_idle(SimTime::from_secs(400));
    assert!(!h.drop_client_fin, "the first FIN was dropped");
    assert!(h.client.is_closed(), "client state: {:?}", h.client.state());
    assert!(h.server.is_closed(), "server state: {:?}", h.server.state());
    assert_eq!(h.client.stats().timeouts, 1, "one RTO re-sends the FIN");
    assert_eq!(h.client.stats().retransmissions, 0, "which is not data");
    assert_eq!(h.client.next_timer(), None, "nothing left armed");
    assert!(h.now < SimTime::from_secs(10), "idle at {:?}", h.now);
}

#[test]
fn lost_final_segment_and_fin_are_retransmitted_together() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..2000u32).map(|i| (i % 239) as u8).collect();
    h.client.write(&data).unwrap();
    h.client.close();
    h.server.close();
    h.drop_client_data = vec![2];
    h.drop_client_fin = true;
    h.run_until_idle(SimTime::from_secs(400));
    assert!(
        !h.drop_client_fin && h.dropped_at.len() == 1,
        "both dropped"
    );
    assert_eq!(h.drain_server_bytes(), data);
    assert!(h.client.is_closed(), "client state: {:?}", h.client.state());
    assert!(h.server.is_closed(), "server state: {:?}", h.server.state());
    assert_eq!(h.client.stats().timeouts, 1, "one RTO covers both");
    assert_eq!(h.client.stats().retransmissions, 1, "the data segment");
    assert_eq!(h.client.next_timer(), None, "nothing left armed");
    assert!(h.now < SimTime::from_secs(10), "idle at {:?}", h.now);
}

#[test]
fn write_before_connect_fails() {
    let mut c = TcpConnection::new(1, 2, TcpConfig::default(), SocketOptions::standard());
    assert_eq!(c.write(b"x"), Err(TcpError::NotConnected));
}

#[test]
fn write_after_close_fails() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    h.client.close();
    assert_eq!(h.client.write(b"x"), Err(TcpError::Closed));
}

#[test]
fn send_buffer_backpressure_reports_full() {
    let cfg = TcpConfig::default()
        .with_buffers(1000, 65536)
        .with_fixed_isn(3);
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _ = c.poll(SimTime::ZERO);
    // Can't transmit (no handshake reply), so the buffer fills and then
    // reports backpressure.
    assert!(c.write(&vec![0u8; 900]).is_ok());
    assert_eq!(c.write(&[0u8; 200]), Err(TcpError::BufferFull));
}

#[test]
fn duplicate_acks_are_counted() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = vec![1u8; 80_000];
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![3];
    h.run_until_idle(SimTime::from_secs(60));
    assert!(h.client.stats().dup_acks >= 3);
    assert_eq!(h.drain_server_bytes(), data);
}

#[test]
fn transfer_across_the_sequence_wrap_is_exact() {
    // Both endpoints' ISNs sit just below 2^32, so data sequence numbers
    // (and the ACK stream back) wrap mid-transfer. 60 kB cross the wrap
    // regardless of where inside the first segment it lands.
    for isn in [u32::MAX, u32::MAX - 1, u32::MAX - 1448, u32::MAX - 30_000] {
        let mut h = Harness::with_isn(SocketOptions::standard(), SocketOptions::standard(), isn);
        h.run_until(SimTime::from_millis(200));
        assert_eq!(h.client.state(), TcpState::Established, "isn={isn}");
        let data: Vec<u8> = (0..60_000u32).map(|i| (i % 249) as u8).collect();
        h.client.write(&data).unwrap();
        h.run_until_idle(SimTime::from_secs(30));
        assert_eq!(h.drain_server_bytes(), data, "isn={isn}");
        assert_eq!(h.client.stats().retransmissions, 0, "isn={isn}");
    }
}

#[test]
fn loss_recovery_works_across_the_sequence_wrap() {
    // Drop a mid-stream segment whose retransmission lands on the other
    // side of the 2^32 boundary: SACK blocks and the fast-retransmit
    // cursor must all survive the wrap.
    let mut h = Harness::with_isn(
        SocketOptions::standard(),
        SocketOptions::standard(),
        u32::MAX - 4000,
    );
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![3];
    h.run_until_idle(SimTime::from_secs(60));
    assert_eq!(h.drain_server_bytes(), data);
    assert!(h.client.stats().retransmissions >= 1);
}

#[test]
fn unordered_delivery_offsets_are_correct_across_the_wrap() {
    // A uTCP receiver tags chunks with 64-bit stream offsets derived from
    // wrapped 32-bit sequence numbers; a hole right at the boundary must
    // not corrupt them.
    let mut h = Harness::with_isn(
        SocketOptions::standard(),
        SocketOptions::utcp(),
        u32::MAX - 2000,
    );
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 247) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = vec![2];
    h.run_until_idle(SimTime::from_secs(60));
    assert_eq!(h.drain_server_bytes(), data, "offset-keyed reassembly");
    assert!(h.server.stats().segments_received > 0);
}

#[test]
fn karns_rule_skips_samples_from_retransmitted_segments() {
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::standard());
    c.open(SimTime::ZERO);
    let syn = &c.poll(SimTime::ZERO)[0];
    let mut synack = TcpSegment::bare(2, 1, SeqNum(9000), syn.seq + 1, TcpFlags::SYN_ACK);
    synack.options = vec![TcpOption::Mss(1448), TcpOption::SackPermitted];
    synack.window = 1 << 20;
    c.on_segment(&synack, SimTime::from_millis(50));
    assert_eq!(c.rtt_samples(), 1, "handshake RTT sampled");
    let srtt_after_handshake = c.srtt().unwrap();

    // One data segment, never acknowledged: the RTO fires and the
    // retransmission eventually gets ACKed. Karn's rule forbids sampling
    // that ACK (the send time is ambiguous).
    c.write(&[1u8; 500]).unwrap();
    let segs = c.poll(SimTime::from_millis(50));
    assert_eq!(segs.iter().filter(|s| !s.payload.is_empty()).count(), 1);
    let rto_at = c.next_timer().expect("RTO armed");
    let resent = c.poll(rto_at);
    assert!(
        resent.iter().any(|s| !s.payload.is_empty()),
        "RTO must retransmit"
    );
    assert_eq!(c.stats().timeouts, 1);
    let mut ack = TcpSegment::bare(2, 1, SeqNum(9001), segs[0].seq_end(), TcpFlags::ACK);
    ack.window = 1 << 20;
    c.on_segment(&ack, rto_at + SimDuration::from_millis(400));
    assert_eq!(
        c.rtt_samples(),
        1,
        "the retransmitted segment's ACK must not be sampled (Karn)"
    );
    assert_eq!(c.srtt(), Some(srtt_after_handshake), "estimate untouched");

    // A fresh, cleanly acknowledged segment samples again.
    let now = rto_at + SimDuration::from_millis(500);
    c.write(&[2u8; 500]).unwrap();
    let segs = c.poll(now);
    let data_seg = segs.iter().find(|s| !s.payload.is_empty()).unwrap();
    let mut ack2 = TcpSegment::bare(2, 1, SeqNum(9001), data_seg.seq_end(), TcpFlags::ACK);
    ack2.window = 1 << 20;
    c.on_segment(&ack2, now + SimDuration::from_millis(80));
    assert_eq!(c.rtt_samples(), 2, "clean transmission samples normally");
}

#[test]
fn an_ack_that_retires_a_retransmission_takes_no_sample() {
    // Karn's rule holds for the whole ACK: one that retires a retransmitted
    // segment may have been sent for the retransmission, so it is not timed
    // even though it also retires segments sent only once.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 3 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 3 * MSS);
    for i in 0..3 {
        inject_ack(&mut c, 0, ms(60 + i));
    }
    assert_eq!(c.stats().fast_retransmits, 1);
    assert_eq!(data_payload(&c.poll(ms(63))), MSS, "segment 0 resent");
    let samples = c.rtt_samples();
    inject_ack(&mut c, 3 * MSS as u64, ms(123));
    assert_eq!(c.rtt_samples(), samples, "segments 1 and 2 are not timed");
}

#[test]
fn a_newly_sacked_segment_sent_once_is_sampled() {
    // A SACK block that newly covers segments sent only once times the most
    // recently sent of them; the same block repeated on the next ACK covers
    // nothing new and times nothing.
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 3 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 3 * MSS);
    let samples = c.rtt_samples();
    inject_sack(&mut c, 0, (MSS as u64, 2 * MSS as u64), ms(62));
    assert_eq!(c.rtt_samples(), samples + 1, "segment 1 is timed");
    inject_sack(&mut c, 0, (MSS as u64, 2 * MSS as u64), ms(63));
    assert_eq!(c.rtt_samples(), samples + 1, "nothing newly SACKed");
}

#[test]
fn rto_resends_only_the_hole_the_receiver_sacked_around() {
    // Segment 0 of a ten-segment window is lost, then lost again as the
    // fast retransmit, while the receiver SACKs segments 1–9. The RTO's
    // go-back-N pass resends segment 0 and skips the nine the receiver
    // holds. (No congestion control, so the window does not hide the
    // difference: a pass that forgot the SACKs would resend all ten.)
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false)
        .with_cc(CcAlgorithm::None);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 10 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 10 * MSS);
    for i in 0..3 {
        inject_sack(&mut c, 0, (MSS as u64, 10 * MSS as u64), ms(60 + i));
    }
    assert_eq!(c.stats().fast_retransmits, 1);
    let fast = c.poll(ms(63));
    assert_eq!(data_payload(&fast), MSS, "the fast retransmit is the hole");

    let rto_at = c.next_timer().expect("RTO armed");
    let resent = c.poll(rto_at);
    assert_eq!(c.stats().timeouts, 1);
    let data: Vec<&TcpSegment> = resent.iter().filter(|s| !s.payload.is_empty()).collect();
    assert_eq!(data.len(), 1, "only the hole is resent");
    assert_eq!((data[0].seq, data[0].payload.len()), (ISS + 1, MSS));
    assert_eq!(c.stats().bytes_retransmitted, 2 * MSS as u64);

    // The hole's ACK covers the whole window: nothing more is sent.
    let acked_at = rto_at + SimDuration::from_millis(60);
    inject_ack(&mut c, 10 * MSS as u64, acked_at);
    assert_eq!(data_payload(&c.poll(acked_at)), 0);
    assert_eq!(c.next_timer(), None, "nothing outstanding");
}

#[test]
fn an_rto_pass_skips_every_range_the_receiver_sacked() {
    // Segments 0 and 5 of ten are lost and the receiver SACKs the rest in
    // two blocks. The fast retransmit resends segment 0 alone; the RTO's
    // pass resends segments 0 and 5, each once, and skips both blocks.
    let m = MSS as u64;
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false)
        .with_cc(CcAlgorithm::None);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 10 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 10 * MSS);
    for i in 0..3 {
        inject_sacks(&mut c, 0, &[(m, 5 * m), (6 * m, 10 * m)], ms(60 + i));
    }
    assert_eq!(c.stats().fast_retransmits, 1);
    assert_eq!(data_ranges(&c.poll(ms(63))), [(0, MSS)], "the head alone");

    let rto_at = c.next_timer().expect("RTO armed");
    let resent = c.poll(rto_at);
    assert_eq!(c.stats().timeouts, 1);
    assert_eq!(data_ranges(&resent), [(0, MSS), (5 * m, MSS)]);
    assert_eq!(data_payload(&c.poll(rto_at)), 0, "the pass is over");
}

#[test]
fn a_window_limited_rto_pass_resumes_where_it_paused() {
    // Three segments time out. The window after the RTO is one segment, so
    // the pass resends segment 0 and pauses; a poll with the window still
    // full sends nothing, and the ACK of segment 0 opens two segments, which
    // go to segments 1 and 2, where the pass paused.
    let m = MSS as u64;
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 3 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 3 * MSS);
    let rto_at = c.next_timer().expect("RTO armed");
    assert_eq!(data_ranges(&c.poll(rto_at)), [(0, MSS)]);
    let later = rto_at + SimDuration::from_millis(1);
    assert_eq!(data_payload(&c.poll(later)), 0, "the window is full");

    let acked_at = rto_at + SimDuration::from_millis(60);
    inject_ack(&mut c, m, acked_at);
    assert_eq!(data_ranges(&c.poll(acked_at)), [(m, MSS), (2 * m, MSS)]);
    assert_eq!(c.stats().retransmissions, 3);
}

#[test]
fn data_sent_after_an_rto_is_not_part_of_its_pass() {
    // The pass covers what was outstanding when the timer fired. Data
    // written afterwards goes out once, as new data, behind the pass.
    let m = MSS as u64;
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 2 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 2 * MSS);
    let rto_at = c.next_timer().expect("RTO armed");
    assert_eq!(data_ranges(&c.poll(rto_at)), [(0, MSS)]);
    c.write(&vec![0u8; 4 * MSS]).unwrap();

    // ACK one segment at a time; each ACK lets more go out.
    let mut now = rto_at;
    let mut sent = Vec::new();
    for acked in 1..=6 {
        now += SimDuration::from_millis(60);
        inject_ack(&mut c, acked * m, now);
        sent.extend(data_ranges(&c.poll(now)));
    }
    let each_once: Vec<(u64, usize)> = (1..6).map(|i| (i * m, MSS)).collect();
    assert_eq!(sent, each_once);
    assert_eq!(c.stats().retransmissions, 2, "segments 0 and 1");
    assert_eq!(c.stats().bytes_sent, 6 * m, "each byte once as new data");
}

#[test]
fn each_partial_ack_resends_one_segment() {
    // Segments 0, 2 and 4 of eight are lost. With no window to hide
    // anything, fast recovery still resends exactly one segment at the ACK
    // point: on entry, then once per partial ACK.
    let m = MSS as u64;
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false)
        .with_cc(CcAlgorithm::None);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 8 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 8 * MSS);
    let sacked = [(m, 2 * m), (3 * m, 4 * m), (5 * m, 8 * m)];
    for i in 0..3 {
        inject_sacks(&mut c, 0, &sacked, ms(60 + i));
    }
    assert_eq!(data_ranges(&c.poll(ms(63))), [(0, MSS)]);
    assert_eq!(data_payload(&c.poll(ms(64))), 0, "one segment per entry");
    inject_sacks(&mut c, 2 * m, &sacked[1..], ms(123));
    assert_eq!(data_ranges(&c.poll(ms(123))), [(2 * m, MSS)]);
    assert_eq!(data_payload(&c.poll(ms(124))), 0, "one per partial ACK");
    inject_sacks(&mut c, 4 * m, &sacked[2..], ms(183));
    assert_eq!(data_ranges(&c.poll(ms(183))), [(4 * m, MSS)]);
    inject_ack(&mut c, 8 * m, ms(243));
    assert_eq!(data_payload(&c.poll(ms(243))), 0);
    assert_eq!(c.stats().timeouts, 0);
    assert_eq!(c.stats().retransmissions, 3);
}

#[test]
fn fast_recovery_entered_while_rto_lost_data_remains_resends_only_the_head() {
    // NewReno's rule holds after an RTO too: in fast recovery only the
    // segment at the ACK point is resent, once on entry and once per partial
    // ACK. Segments the RTO presumed lost and the pass has not reached yet
    // wait, and the full ACK that ends the episode retires them.
    let m = MSS as u64;
    let cfg = TcpConfig::default()
        .with_fixed_isn(42)
        .with_delayed_ack(false);
    let mut c = establish(cfg);
    c.write(&vec![0u8; 3 * MSS]).unwrap();
    assert_eq!(data_payload(&c.poll(ms(2))), 3 * MSS);
    // The timeout leaves a one-segment window: the pass resends segment 0
    // and pauses with segments 1 and 2 presumed lost.
    let rto_at = c.next_timer().expect("RTO armed");
    assert_eq!(data_ranges(&c.poll(rto_at)), [(0, MSS)]);

    // Three duplicate ACKs SACK segment 2: a fresh hole, so fast recovery
    // starts, with room in the window for more than the head.
    for i in 0..3 {
        inject_sack(
            &mut c,
            0,
            (2 * m, 3 * m),
            rto_at + SimDuration::from_millis(10 + i),
        );
    }
    assert_eq!(c.stats().fast_retransmits, 1);
    assert!(c.cwnd() >= 3 * MSS);
    let now = rto_at + SimDuration::from_millis(13);
    assert_eq!(
        data_ranges(&c.poll(now)),
        [(0, MSS)],
        "the head, not segment 1"
    );
    assert_eq!(data_payload(&c.poll(now)), 0);

    // The partial ACK resends the new head, segment 1; the full ACK ends
    // the episode with nothing left to resend.
    let now = now + SimDuration::from_millis(60);
    inject_sack(&mut c, m, (2 * m, 3 * m), now);
    assert_eq!(data_ranges(&c.poll(now)), [(m, MSS)]);
    let now = now + SimDuration::from_millis(60);
    inject_ack(&mut c, 3 * m, now);
    assert_eq!(data_payload(&c.poll(now)), 0);
    assert_eq!(c.next_timer(), None, "nothing outstanding");
    assert_eq!(c.stats().bytes_retransmitted, 3 * m);
}

#[test]
fn rto_backoff_is_exponential_and_resets_on_progress() {
    let cfg = TcpConfig::default().with_fixed_isn(7);
    let mut c = TcpConnection::new(1, 2, cfg, SocketOptions::standard());
    c.open(SimTime::ZERO);
    let _syn = c.poll(SimTime::ZERO);
    // No SYN-ACK ever arrives: consecutive handshake RTOs must double.
    let t1 = c.next_timer().expect("first RTO");
    let _ = c.poll(t1);
    let t2 = c.next_timer().expect("second RTO");
    let _ = c.poll(t2);
    let t3 = c.next_timer().expect("third RTO");
    let gap1 = t2.saturating_since(t1);
    let gap2 = t3.saturating_since(t2);
    assert_eq!(
        gap2,
        gap1.saturating_mul(2),
        "RTO doubles per expiry: {gap1} then {gap2}"
    );
    assert_eq!(c.stats().timeouts, 2);
}

#[test]
fn readiness_events_fire_on_edges() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.client.enable_events();
    h.server.enable_events();
    assert_eq!(h.client.readiness(), Readiness::default());
    h.run_until(SimTime::from_millis(200));
    let client_events = h.client.take_events().collect::<Vec<_>>();
    assert!(
        client_events.contains(&ConnEvent::Established),
        "events={client_events:?}"
    );
    assert!(h.client.readiness().writable);
    assert!(!h.client.readiness().readable);

    h.client.write(b"ping").unwrap();
    h.run_until(h.now + SimDuration::from_millis(200));
    assert!(h.server.readiness().readable);
    assert!(h
        .server
        .take_events()
        .collect::<Vec<_>>()
        .contains(&ConnEvent::Readable));

    h.client.close();
    h.server.close();
    h.run_until_idle(SimTime::from_secs(20));
    assert!(h
        .client
        .take_events()
        .collect::<Vec<_>>()
        .contains(&ConnEvent::Closed));
    assert!(h.client.readiness().closed);
}

#[test]
fn rto_event_fires_on_timeout() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.client.enable_events();
    h.run_until(SimTime::from_millis(200));
    h.client.write(&[7u8; 2000]).unwrap();
    h.drop_client_data = vec![2];
    h.run_until_idle(SimTime::from_secs(120));
    let events = h.client.take_events().collect::<Vec<_>>();
    let waits: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ConnEvent::RtoFired { wait_us } => Some(*wait_us),
            _ => None,
        })
        .collect();
    assert!(!waits.is_empty());
    assert!(
        waits.iter().all(|&w| w > 0),
        "arm->fire wait must be a positive per-timer delta: {waits:?}"
    );
    assert!(
        events.contains(&ConnEvent::Retransmit),
        "recovering the dropped segment must surface a Retransmit edge"
    );
}

#[test]
fn events_are_not_recorded_without_interest() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    h.client.write(b"data").unwrap();
    h.run_until(h.now + SimDuration::from_millis(200));
    assert!(!h.client.has_events());
    assert!(!h.server.has_events());
    assert!(h.server.take_events().collect::<Vec<_>>().is_empty());
}

#[test]
fn writable_event_fires_when_a_full_buffer_drains() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    h.client.enable_events();
    let _ = h.client.take_events().collect::<Vec<_>>();
    // Fill the send buffer completely, then let ACKs drain it.
    let free = h.client.send_buffer_free();
    h.client.write(&vec![0u8; free]).unwrap();
    assert!(!h.client.readiness().writable);
    h.run_until_idle(SimTime::from_secs(60));
    assert!(
        h.client
            .take_events()
            .collect::<Vec<_>>()
            .contains(&ConnEvent::Writable),
        "ACKs freeing a full buffer must surface a Writable edge"
    );
}

#[test]
fn stats_track_bytes_sent_and_acked() {
    let mut h = Harness::new(SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data = vec![9u8; 10_000];
    h.client.write(&data).unwrap();
    h.run_until_idle(SimTime::from_secs(10));
    assert_eq!(h.client.stats().bytes_sent, 10_000);
    assert_eq!(h.client.stats().bytes_acked, 10_000);
    assert_eq!(h.server.stats().bytes_received, 10_000);
}

// ----------------------------------------------------------------------
// Several losses in one window (ROADMAP item 1's "before" numbers)
// ----------------------------------------------------------------------

/// What a lossy 60 kB transfer cost the client, and when the server held
/// the last byte.
#[derive(Debug, PartialEq, Eq)]
struct LossOutcome {
    fast_retransmits: u64,
    timeouts: u64,
    retransmissions: u64,
    bytes_retransmitted: u64,
    final_cwnd: usize,
    completed_ms: u64,
}

/// Send 60 kB through the harness, losing the `drops`-th client data
/// segments once each — all of them from one window (one poll) — and
/// asserting every byte arrives. The harness hands a whole window to the
/// server between two polls, so each window draws one (duplicate) ACK.
fn lossy_transfer(algo: CcAlgorithm, drops: [u64; 3]) -> LossOutcome {
    let cfg = TcpConfig::default().with_fixed_isn(1000).with_cc(algo);
    let mut h = Harness::with_config(cfg, SocketOptions::standard(), SocketOptions::standard());
    h.run_until(SimTime::from_millis(200));
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 241) as u8).collect();
    h.client.write(&data).unwrap();
    h.drop_client_data = drops.to_vec();
    let mut received = Vec::new();
    let mut completed = None;
    while completed.is_none() && h.step() {
        while let Some(chunk) = h.server.read() {
            received.extend_from_slice(&chunk.data);
        }
        if received.len() == data.len() {
            completed = Some(h.now);
        }
        assert!(h.now < SimTime::from_secs(60), "transfer stalled");
    }
    assert_eq!(received, data, "cc={}: every byte delivered", algo.label());
    assert_eq!(h.dropped_at.len(), 3);
    assert!(
        h.dropped_at.iter().all(|&t| t == h.dropped_at[0]),
        "the three losses share one window: {:?}",
        h.dropped_at
    );
    h.run_until_idle(SimTime::from_secs(60));
    let stats = h.client.stats();
    LossOutcome {
        fast_retransmits: stats.fast_retransmits,
        timeouts: stats.timeouts,
        retransmissions: stats.retransmissions,
        bytes_retransmitted: stats.bytes_retransmitted,
        final_cwnd: h.client.cwnd(),
        completed_ms: completed.expect("loop ended on completion").as_micros() / 1000,
    }
}

// The sixth window of the transfer is data segments 26..=33.
const CONSECUTIVE: [u64; 3] = [26, 27, 28];
const ALTERNATING: [u64; 3] = [26, 28, 30];

#[test]
fn three_consecutive_losses_in_one_window_newreno() {
    assert_eq!(
        lossy_transfer(CcAlgorithm::NewReno, CONSECUTIVE),
        LossOutcome {
            fast_retransmits: 1,
            timeouts: 0,
            retransmissions: 3,
            bytes_retransmitted: 4344,
            final_cwnd: 2896,
            completed_ms: 800,
        }
    );
}

#[test]
fn three_alternating_losses_in_one_window_newreno() {
    // One hole is repaired per round trip. With the retransmissions charged
    // once and new data admitted in their place, the duplicate ACKs last
    // until the third hole: no RTO, item 1(b)'s gate.
    assert_eq!(
        lossy_transfer(CcAlgorithm::NewReno, ALTERNATING),
        LossOutcome {
            fast_retransmits: 1,
            timeouts: 0,
            retransmissions: 3,
            bytes_retransmitted: 4344,
            final_cwnd: 2896,
            completed_ms: 720,
        }
    );
}

#[test]
fn three_consecutive_losses_in_one_window_cubic() {
    assert_eq!(
        lossy_transfer(CcAlgorithm::Cubic, CONSECUTIVE),
        LossOutcome {
            fast_retransmits: 1,
            timeouts: 0,
            retransmissions: 3,
            bytes_retransmitted: 4344,
            final_cwnd: 2896,
            completed_ms: 800,
        }
    );
}

#[test]
fn three_alternating_losses_in_one_window_cubic() {
    assert_eq!(
        lossy_transfer(CcAlgorithm::Cubic, ALTERNATING),
        LossOutcome {
            fast_retransmits: 1,
            timeouts: 0,
            retransmissions: 3,
            bytes_retransmitted: 4344,
            final_cwnd: 2896,
            completed_ms: 720,
        }
    );
}
