//! Send-side prioritization with uTCP (paper §4.2, Figure 10).
//!
//! A sender saturates a slow link with bulk messages and occasionally sends
//! an urgent message. With uTCP's unordered send, the urgent write passes the
//! queued bulk data; over standard TCP it waits its turn.
//!
//! Run with: `cargo run --example priority_messaging`

use minion_repro::core::{MinionConfig, UcobsSocket};
use minion_repro::simnet::{Distribution, LinkConfig, SimDuration, SimTime};
use minion_repro::stack::{Reaction, Sim, SocketAddr};

fn run(use_utcp: bool) -> (f64, f64) {
    let mut sim = Sim::new(3);
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    sim.link(
        a,
        b,
        LinkConfig::new(2_000_000, SimDuration::from_millis(30)),
    );
    let config = if use_utcp {
        MinionConfig::with_utcp()
    } else {
        MinionConfig::without_utcp()
    };
    UcobsSocket::listen(sim.host_mut(b), 7000, &config).unwrap();
    let now = sim.now();
    let mut tx = UcobsSocket::connect(sim.host_mut(a), SocketAddr::new(b, 7000), &config, now);
    let mut rx = None;
    sim.drive(SimTime::from_secs(5), |sim| {
        rx = UcobsSocket::accept(sim.host_mut(b), 7000);
        match rx {
            Some(_) => Reaction::Done,
            None => Reaction::Wait(None),
        }
    });
    let mut rx = rx.expect("accepted");

    let mut sent_at: Vec<(SimTime, bool)> = Vec::new();
    let mut bulk = Distribution::new();
    let mut urgent = Distribution::new();
    let total = 800usize;
    let delivered_all = sim.drive(SimTime::from_secs(120), |sim| {
        let now = sim.now();
        // Keep the send buffer topped up; every 100th message is urgent.
        while sent_at.len() < total && tx.send_buffer_free(sim.host(a)) > 4096 {
            let is_urgent = sent_at.len() % 100 == 99;
            let mut msg = vec![0u8; 1000];
            msg[..8].copy_from_slice(&(sent_at.len() as u64).to_be_bytes());
            tx.send(sim.host_mut(a), &msg, if is_urgent { 9 } else { 0 })
                .unwrap();
            sent_at.push((now, is_urgent));
        }
        for d in rx.recv(sim.host_mut(b)) {
            let id = u64::from_be_bytes(d.payload[..8].try_into().unwrap()) as usize;
            let (t, is_urgent) = sent_at[id];
            let delay = (now - t).as_millis_f64();
            if is_urgent {
                urgent.add(delay)
            } else {
                bulk.add(delay)
            }
        }
        if bulk.len() + urgent.len() < total {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });
    assert!(delivered_all, "every message arrives");
    (bulk.mean(), urgent.mean())
}

fn main() {
    let (tcp_bulk, tcp_urgent) = run(false);
    let (utcp_bulk, utcp_urgent) = run(true);
    println!(
        "standard TCP : bulk mean delay {tcp_bulk:7.1} ms, urgent mean delay {tcp_urgent:7.1} ms"
    );
    println!(
        "uTCP         : bulk mean delay {utcp_bulk:7.1} ms, urgent mean delay {utcp_urgent:7.1} ms"
    );
    println!(
        "urgent messages are {:.1}x faster with uTCP's send-queue prioritization",
        tcp_urgent / utcp_urgent
    );
}
