//! Cross-crate integration tests: whole-system scenarios spanning the
//! simulator, the TCP/uTCP stack, the Minion endpoints, and the application
//! models.

use minion_repro::core::{
    choose_protocol, AppRequirements, MinionConfig, PathCapabilities, Protocol, UcobsSocket,
    UtlsSocket,
};
use minion_repro::simnet::{LinkConfig, LossConfig, NodeId, SimDuration};
use minion_repro::stack::{MiddleboxBehavior, Sim, SocketAddr};
use minion_repro::tcp::SocketOptions;

fn lossy_pair(seed: u64, loss: LossConfig) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(seed);
    let a = sim.add_host("a");
    let b = sim.add_host("b");
    sim.link(
        a,
        b,
        LinkConfig::new(10_000_000, SimDuration::from_millis(30)).with_loss(loss),
    );
    (sim, a, b)
}

/// The Figure 4 scenario: a middlebox re-segments the TCP stream so record
/// boundaries no longer align with segments, and a segment is lost. uCOBS
/// must still deliver every record exactly once, and the records following
/// the loss must not wait for the retransmission.
#[test]
fn ucobs_survives_middlebox_resegmentation_and_loss() {
    let mut sim = Sim::new(4242);
    let sender = sim.add_host("sender");
    let mb = sim.add_middlebox("resegmenter", MiddleboxBehavior::Split { max_payload: 700 });
    let receiver = sim.add_host("receiver");
    sim.link(
        sender,
        mb,
        LinkConfig::new(10_000_000, SimDuration::from_millis(15)),
    );
    sim.link(
        mb,
        receiver,
        LinkConfig::new(10_000_000, SimDuration::from_millis(15))
            .with_loss(LossConfig::Explicit { indices: vec![9] }),
    );
    sim.add_route(sender, receiver, mb);
    sim.add_route(receiver, sender, mb);

    let config = MinionConfig::with_utcp();
    UcobsSocket::listen(sim.host_mut(receiver), 9000, &config).unwrap();
    let now = sim.now();
    let mut tx = UcobsSocket::connect(
        sim.host_mut(sender),
        SocketAddr::new(receiver, 9000),
        &config,
        now,
    );
    sim.run_for(SimDuration::from_millis(200));
    let mut rx = UcobsSocket::accept(sim.host_mut(receiver), 9000).expect("accepted");

    let sent: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 900]).collect();
    for d in &sent {
        tx.send_datagram(sim.host_mut(sender), d).unwrap();
    }
    // Early phase: loss not yet repaired, but later records already flow.
    sim.run_for(SimDuration::from_millis(120));
    let early = rx.recv(sim.host_mut(receiver));
    assert!(
        early.iter().any(|d| d.out_of_order),
        "records behind the hole are delivered early despite re-segmentation"
    );
    // Eventually everything arrives exactly once.
    sim.run_for(SimDuration::from_secs(10));
    let late = rx.recv(sim.host_mut(receiver));
    let mut all: Vec<u8> = early
        .iter()
        .chain(late.iter())
        .map(|d| d.payload[0])
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..40u8).collect::<Vec<u8>>());
    assert!(
        sim.middlebox(mb).stats().splits > 0,
        "the middlebox did re-segment"
    );
}

/// Incremental deployment (§3.3): only one endpoint runs uTCP. The connection
/// still works; upgrading the receiver alone already yields out-of-order
/// delivery for data flowing toward it.
#[test]
fn mixed_utcp_deployment_interoperates() {
    for (sender_opts, receiver_opts, expect_ooo) in [
        (SocketOptions::standard(), SocketOptions::standard(), false),
        (SocketOptions::utcp(), SocketOptions::standard(), false),
        (SocketOptions::standard(), SocketOptions::utcp(), true),
        (SocketOptions::utcp(), SocketOptions::utcp(), true),
    ] {
        let (mut sim, a, b) = lossy_pair(7, LossConfig::Explicit { indices: vec![4] });
        let sender_config = MinionConfig {
            socket_options: sender_opts,
            ..MinionConfig::default()
        };
        let receiver_config = MinionConfig {
            socket_options: receiver_opts,
            ..MinionConfig::default()
        };

        UcobsSocket::listen(sim.host_mut(b), 9000, &receiver_config).unwrap();
        let now = sim.now();
        let mut tx = UcobsSocket::connect(
            sim.host_mut(a),
            SocketAddr::new(b, 9000),
            &sender_config,
            now,
        );
        sim.run_for(SimDuration::from_millis(200));
        let mut rx = UcobsSocket::accept(sim.host_mut(b), 9000).expect("accepted");

        for i in 0..10u8 {
            tx.send(sim.host_mut(a), &vec![i; 1000], 0).unwrap();
        }
        sim.run_for(SimDuration::from_millis(120));
        let early = rx.recv(sim.host_mut(b));
        let saw_ooo = early.iter().any(|d| d.out_of_order);
        assert_eq!(
            saw_ooo, expect_ooo,
            "sender_opts={sender_opts:?} receiver_opts={receiver_opts:?}"
        );
        sim.run_for(SimDuration::from_secs(5));
        let late = rx.recv(sim.host_mut(b));
        assert_eq!(
            early.len() + late.len(),
            10,
            "all datagrams delivered in every mix"
        );
    }
}

/// uTLS end to end over a lossy path: secure datagrams are recovered out of
/// order and every record is delivered exactly once with intact contents.
#[test]
fn utls_end_to_end_over_lossy_path() {
    let (mut sim, a, b) = lossy_pair(99, LossConfig::Bernoulli { probability: 0.01 });
    let config = MinionConfig::with_utcp().with_psk(b"integration-test-key");
    UtlsSocket::listen(sim.host_mut(b), 443, &config).unwrap();
    let now = sim.now();
    let mut tx = UtlsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 443), &config, now);
    sim.run_for(SimDuration::from_millis(150));
    let mut rx = UtlsSocket::accept(sim.host_mut(b), 443, &config).expect("accepted");
    for _ in 0..6 {
        let _ = rx.recv(sim.host_mut(b));
        let _ = tx.recv(sim.host_mut(a));
        sim.run_for(SimDuration::from_millis(100));
    }
    assert!(tx.is_established() && rx.is_established());
    assert!(tx.out_of_order_active());

    let sent: Vec<Vec<u8>> = (0..120u32)
        .map(|i| vec![(i % 251) as u8; 400 + (i as usize * 7) % 800])
        .collect();
    let mut received = Vec::new();
    let mut sent_iter = sent.iter();
    for _ in 0..200 {
        for _ in 0..3 {
            if let Some(d) = sent_iter.next() {
                tx.send_datagram(sim.host_mut(a), d).unwrap();
            }
        }
        sim.run_for(SimDuration::from_millis(50));
        received.extend(rx.recv(sim.host_mut(b)));
        if received.len() == sent.len() {
            break;
        }
    }
    assert_eq!(
        received.len(),
        sent.len(),
        "stats: {:?}",
        rx.receiver_stats()
    );
    // Every payload delivered exactly once, contents intact (MAC-checked).
    let mut got: Vec<&Vec<u8>> = received.iter().map(|d| &d.payload).collect();
    let mut expected: Vec<&Vec<u8>> = sent.iter().collect();
    got.sort();
    expected.sort();
    assert_eq!(got, expected);
}

/// The negotiation helper steers applications to the right Minion protocol,
/// and the chosen protocol actually carries traffic end to end.
#[test]
fn negotiated_protocol_carries_traffic() {
    let app = AppRequirements {
        needs_security: true,
        wants_unordered: true,
        needs_reliability: true,
    };
    let path = PathCapabilities {
        udp_allowed: false,
        tcp_allowed: true,
        requires_tls_appearance: true,
    };
    let protocol = choose_protocol(&app, &path).expect("a protocol fits");
    assert_eq!(protocol, Protocol::Utls);

    let (mut sim, a, b) = lossy_pair(55, LossConfig::None);
    let config = MinionConfig::with_utcp();
    minion_repro::core::MinionTransport::listen(protocol, sim.host_mut(b), 443, &config).unwrap();
    let now = sim.now();
    let mut client = minion_repro::core::MinionTransport::connect(
        protocol,
        sim.host_mut(a),
        SocketAddr::new(b, 443),
        &config,
        now,
    )
    .unwrap();
    sim.run_for(SimDuration::from_millis(200));
    let mut server =
        minion_repro::core::MinionTransport::accept(protocol, sim.host_mut(b), 443, &config)
            .unwrap();
    for _ in 0..5 {
        let _ = server.recv(sim.host_mut(b));
        let _ = client.recv(sim.host_mut(a));
        sim.run_for(SimDuration::from_millis(80));
    }
    client
        .send_datagram(sim.host_mut(a), b"negotiated hello")
        .unwrap();
    sim.run_for(SimDuration::from_millis(300));
    let got = server.recv(sim.host_mut(b));
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload, b"negotiated hello");
}

/// What a 200-datagram uCOBS session under 1 % loss puts on the wire, driven
/// through the host front door in 10 ms ticks: both links' packet and byte
/// counts, the sender's retransmissions and the virtual time of the last
/// delivery, taken at the commit before `stack::Sim` stopped polling every
/// socket on every step. The counts are seed-determined, so they cannot
/// flake, and they trip on any change of polling behaviour.
#[test]
fn ucobs_session_wire_counts_are_pinned() {
    let (mut sim, a, b) = lossy_pair(77, LossConfig::Bernoulli { probability: 0.01 });
    let config = MinionConfig::with_utcp();
    UcobsSocket::listen(sim.host_mut(b), 9000, &config).unwrap();
    let now = sim.now();
    let mut tx = UcobsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 9000), &config, now);
    sim.run_for(SimDuration::from_millis(200));
    let mut rx = UcobsSocket::accept(sim.host_mut(b), 9000).expect("accepted");

    let (mut sent, mut delivered, mut last_delivery) = (0u32, 0usize, sim.now());
    while delivered < 200 {
        while sent < 200 && tx.send_buffer_free(sim.host(a)) > 4 * 1200 {
            let datagram = vec![sent as u8; 1200];
            tx.send_datagram(sim.host_mut(a), &datagram).unwrap();
            sent += 1;
        }
        sim.run_for(SimDuration::from_millis(10));
        let got = rx.recv(sim.host_mut(b)).len();
        if got > 0 {
            delivered += got;
            last_delivery = sim.now();
        }
        assert!(sim.now().as_micros() < 60_000_000, "session stalled");
    }
    let (ab, ba) = (sim.link_stats(a, b).unwrap(), sim.link_stats(b, a).unwrap());
    assert_eq!((ab.packets_sent, ab.bytes_sent), (202, 253_724));
    assert_eq!((ba.packets_sent, ba.bytes_sent), (141, 9_591));
    assert_eq!(ab.dropped_loss, 2);
    let sender = sim.host(a).tcp_stats(tx.handle()).unwrap();
    assert_eq!(sender.retransmissions, 2);
    assert_eq!(last_delivery.as_micros(), 870_000);
}
