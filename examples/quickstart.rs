//! Quickstart: unordered datagrams over a TCP connection with Minion.
//!
//! Two simulated hosts exchange uCOBS datagrams over a lossy path. Datagrams
//! carried in segments after a loss are delivered immediately (out of
//! order), while standard TCP would have held them back.
//!
//! Run with: `cargo run --example quickstart`

use minion_repro::core::{MinionConfig, UcobsSocket};
use minion_repro::simnet::{LinkConfig, LossConfig, SimDuration, SimTime};
use minion_repro::stack::{Reaction, Sim, SocketAddr};

fn main() {
    // 1. Build a two-host topology: 10 Mbps, 60 ms RTT, 1% loss.
    let mut sim = Sim::new(7);
    let alice = sim.add_host("alice");
    let bob = sim.add_host("bob");
    sim.link(
        alice,
        bob,
        LinkConfig::new(10_000_000, SimDuration::from_millis(30))
            .with_loss(LossConfig::Bernoulli { probability: 0.01 }),
    );

    // 2. Open a uCOBS connection (datagrams over TCP/uTCP).
    let config = MinionConfig::with_utcp();
    UcobsSocket::listen(sim.host_mut(bob), 9000, &config).expect("listen");
    let now = sim.now();
    let mut sender = UcobsSocket::connect(
        sim.host_mut(alice),
        SocketAddr::new(bob, 9000),
        &config,
        now,
    );
    // The listener hands the connection over as soon as the SYN lands.
    let mut receiver = None;
    sim.drive(SimTime::from_secs(5), |sim| {
        receiver = UcobsSocket::accept(sim.host_mut(bob), 9000);
        match receiver {
            Some(_) => Reaction::Done,
            None => Reaction::Wait(None),
        }
    });
    let mut receiver = receiver.expect("accepted");

    // 3. Send 200 datagrams. Each is padded to ~600 bytes so the stream
    //    spans many segments and the 1% loss reliably leaves a mid-stream
    //    hole for uTCP to deliver around.
    for i in 0..200u32 {
        let payload = format!("datagram number {i:<3} {:=<580}", "");
        sender
            .send_datagram(sim.host_mut(alice), payload.as_bytes())
            .expect("send");
    }

    // 4. Run the simulation, collecting datagrams the moment they arrive.
    let mut delivered = 0usize;
    let mut out_of_order = 0usize;
    let deadline = sim.now() + SimDuration::from_secs(5);
    sim.drive(deadline, |sim| {
        for datagram in receiver.recv(sim.host_mut(bob)) {
            delivered += 1;
            if datagram.out_of_order {
                out_of_order += 1;
            }
        }
        if delivered < 200 {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });

    println!("delivered {delivered} datagrams, {out_of_order} of them ahead of a stream hole");
    println!(
        "sender overhead ratio: {:.4} (COBS + markers)",
        sender.stats().overhead_ratio()
    );
    println!(
        "receiver stats: {} received, {} out of order, {} duplicates suppressed",
        receiver.stats().datagrams_received,
        receiver.stats().out_of_order_received,
        receiver.stats().duplicates_suppressed
    );
    assert_eq!(delivered, 200, "reliable delivery despite 1% loss");
}
