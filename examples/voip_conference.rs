//! A VoIP call over Minion vs standard TCP vs UDP (paper §8.2).
//!
//! A 256 kbps voice stream crosses a congested 3 Mbps path; the example
//! prints latency percentiles, missed playout deadlines, and an estimated
//! quality (MOS) score for each transport. Every frame the callee hears
//! goes through a delivery check, whose violation fails the call, and a
//! frame the caller's transport refuses is counted and, if any is, named.
//!
//! Run with: `cargo run --release --example voip_conference`

use minion_repro::apps::{CompetingFlow, VoipReceiver, VoipSource, VoipSourceConfig};
use minion_repro::core::{MinionConfig, MinionTransport, Protocol};
use minion_repro::simnet::{LinkConfig, SimDuration, SimTime};
use minion_repro::stack::{Reaction, Sim, SocketAddr};

fn run_call(protocol: Protocol) -> (f64, f64, f64, f64, u64) {
    let mut sim = Sim::new(11);
    let caller = sim.add_host("caller");
    let callee = sim.add_host("callee");
    sim.link(
        caller,
        callee,
        LinkConfig::new(3_000_000, SimDuration::from_millis(30)).with_queue_bytes(48 * 1024),
    );
    let config = MinionConfig::with_utcp();
    MinionTransport::listen(protocol, sim.host_mut(callee), 9999, &config).unwrap();
    let now = sim.now();
    let mut tx = MinionTransport::connect(
        protocol,
        sim.host_mut(caller),
        SocketAddr::new(callee, 9999),
        &config,
        now,
    )
    .unwrap();
    let mut rx = None;
    sim.drive(SimTime::from_secs(5), |sim| {
        rx = MinionTransport::accept(protocol, sim.host_mut(callee), 9999, &config);
        match rx {
            Some(_) => Reaction::Done,
            None => Reaction::Wait(None),
        }
    });
    let mut rx = rx.expect("accepted");

    let source_config = VoipSourceConfig {
        duration: SimDuration::from_secs(30),
        ..Default::default()
    };
    let start = sim.now();
    let mut source = VoipSource::new(source_config.clone(), start);
    let mut receiver = VoipReceiver::new(source_config, SimDuration::from_millis(200), start);
    // Two competing bulk flows congest the path.
    let mut flows: Vec<CompetingFlow> = (0..2)
        .map(|i| CompetingFlow::new(caller, callee, 6000 + i, start))
        .collect();

    // The call wakes for each frame it sends and reacts to everything else
    // as it happens.
    let mut refused = 0;
    sim.drive(start + SimDuration::from_secs(32), |sim| {
        let now = sim.now();
        refused += source.send_due(now, |frame| tx.send(sim.host_mut(caller), frame, 0).is_ok());
        for d in rx.recv(sim.host_mut(callee)) {
            receiver.on_frame(&d.payload, now);
        }
        for f in flows.iter_mut() {
            f.react(sim);
        }
        let wakes = flows.iter().filter_map(CompetingFlow::next_wake);
        Reaction::Wait(wakes.chain(source.next_send_time()).min())
    });
    if let Err(violation) = receiver.check().verdict() {
        panic!("{protocol:?} call: voice frames: {violation}");
    }
    for (i, check) in flows.iter().filter_map(CompetingFlow::check).enumerate() {
        if let Err(violation) = check.verdict() {
            panic!("{protocol:?} call: competing flow {i}: {violation}");
        }
    }
    let report = receiver.report(SimDuration::from_secs(2));
    let mut lat = report.latencies_ms.clone();
    (
        lat.median(),
        lat.quantile(0.95),
        report.miss_fraction * 100.0,
        report.overall_mos,
        refused,
    )
}

fn main() {
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>8}",
        "transport", "median (ms)", "p95 (ms)", "missed (%)", "MOS"
    );
    for (name, protocol) in [
        ("uCOBS", Protocol::Ucobs),
        ("TCP", Protocol::TcpTlv),
        ("UDP", Protocol::Udp),
    ] {
        let (median, p95, missed, mos, refused) = run_call(protocol);
        println!("{name:<10} {median:>12.1} {p95:>12.1} {missed:>12.1} {mos:>8.2}");
        if refused > 0 {
            println!("{name:<10} the sender refused {refused} frames");
        }
    }
}
