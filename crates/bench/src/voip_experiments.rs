//! Figures 7, 8, 9: the conferencing experiments of §8.2.
//!
//! A constant-rate voice stream (20 ms frames, 256 kbps) crosses a 3 Mbps /
//! 60 ms-RTT bottleneck while competing TCP file transfers congest it.
//! Figure 7 plots the CDF of one-way frame latency with 4 competing flows;
//! Figure 8 plots the CDF of codec-perceived loss-burst lengths under a
//! 200 ms playout buffer; Figure 9 plots a sliding-window quality score over
//! a longer call as competing flows are added one per minute.

use minion_apps::{CompetingFlow, VoipReceiver, VoipReport, VoipSource, VoipSourceConfig};
use minion_core::{MinionConfig, Protocol};
use minion_simnet::{Distribution, LinkConfig, SimDuration, SimTime, Table};
use minion_stack::{Reaction, Sim};

/// Parameters of one VoIP run.
#[derive(Clone, Debug)]
pub struct VoipRunConfig {
    /// Transport carrying the voice frames.
    pub protocol: Protocol,
    /// Length of the call.
    pub duration: SimDuration,
    /// Playout (jitter) buffer depth.
    pub jitter_buffer: SimDuration,
    /// Times at which competing TCP flows start (relative to call start).
    pub competing_flow_starts: Vec<SimDuration>,
    /// Simulation seed.
    pub seed: u64,
}

impl VoipRunConfig {
    /// The Figure 7 / 8 setup: a one-minute call under 4 competing flows.
    fn heavy_contention(protocol: Protocol, seed: u64) -> Self {
        VoipRunConfig {
            protocol,
            duration: SimDuration::from_secs(60),
            jitter_buffer: SimDuration::from_millis(200),
            competing_flow_starts: vec![SimDuration::ZERO; 4],
            seed,
        }
    }

    /// The Figure 9 setup: competing flows added at one-minute intervals
    /// (scaled down from the paper's 4-minute call via `minutes`).
    fn progressive_contention(protocol: Protocol, minutes: u64, seed: u64) -> Self {
        VoipRunConfig {
            protocol,
            duration: SimDuration::from_secs(60 * minutes),
            jitter_buffer: SimDuration::from_millis(200),
            competing_flow_starts: (0..minutes)
                .map(|m| SimDuration::from_secs(60 * m))
                .collect(),
            seed,
        }
    }
}

/// Run one VoIP call; returns the receiver's report and how many frames
/// the sending transport refused. Every frame and every competing flow's
/// bytes go through a delivery check, and a violation fails the call.
pub fn run_call(config: &VoipRunConfig) -> (VoipReport, u64) {
    let mut sim = Sim::new(config.seed);
    let sender = sim.add_host("caller");
    let receiver = sim.add_host("callee");
    sim.link(
        sender,
        receiver,
        LinkConfig::new(3_000_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
    );

    let minion_config = MinionConfig::default();
    let source_config = VoipSourceConfig {
        duration: config.duration,
        ..Default::default()
    };

    let (mut tx, mut rx) = crate::connect_pair(
        &mut sim,
        config.protocol,
        &minion_config,
        sender,
        receiver,
        9999,
    );

    // Competing flows share the same direction as the voice traffic.
    let call_start = sim.now();
    let mut competing: Vec<CompetingFlow> = config
        .competing_flow_starts
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            CompetingFlow::new(sender, receiver, 6000 + i as u16, call_start + offset)
        })
        .collect();

    let mut source = VoipSource::new(source_config.clone(), call_start);
    let mut voip_rx = VoipReceiver::new(source_config, config.jitter_buffer, call_start);

    let end = call_start + config.duration + SimDuration::from_secs(2);
    let mut refused = 0;
    sim.drive(end, |sim| {
        let now = sim.now();
        refused += source.send_due(now, |frame| tx.send(sim.host_mut(sender), frame, 0).is_ok());
        for datagram in rx.recv(sim.host_mut(receiver)) {
            voip_rx.on_frame(&datagram.payload, now);
        }
        for flow in competing.iter_mut() {
            flow.react(sim);
        }
        let wakes = competing.iter().filter_map(CompetingFlow::next_wake);
        Reaction::Wait(wakes.chain(source.next_send_time()).min())
    });

    let call = format!("{:?} call", config.protocol);
    crate::assert_delivered(&format!("{call}: voice frames"), voip_rx.check());
    for (i, flow) in competing.iter().enumerate() {
        if let Some(check) = flow.check() {
            crate::assert_delivered(&format!("{call}: competing flow {i}"), check);
        }
    }
    (voip_rx.report(SimDuration::from_secs(2)), refused)
}

/// One call per transport the figures compare (uCOBS, TCP, UDP), each
/// configured by `config`; returns the figure's table, titled `title`,
/// which names every transport whose sender refused frames, beside the
/// calls' reports.
fn run_arms(
    title: &str,
    columns: &[&str],
    config: impl Fn(Protocol) -> VoipRunConfig,
) -> (Table, Vec<VoipReport>) {
    let mut refused = Vec::new();
    let reports = [Protocol::Ucobs, Protocol::TcpTlv, Protocol::Udp].map(|protocol| {
        let (report, n) = run_call(&config(protocol));
        if n > 0 {
            refused.push(format!("{protocol:?} {n}"));
        }
        report
    });
    let title = match refused.is_empty() {
        true => title.to_string(),
        false => format!(
            "{title} [frames the sender refused: {}]",
            refused.join(", ")
        ),
    };
    (Table::new(title, columns), reports.into())
}

/// Figure 7: CDF of one-way frame latency for uCOBS, TCP, and UDP.
pub fn run_fig7(duration: SimDuration, seed: u64) -> Table {
    let (mut table, reports) = run_arms(
        "Figure 7: one-way frame latency CDF (ms)",
        &["percentile", "ucobs_ms", "tcp_ms", "udp_ms"],
        |protocol| VoipRunConfig {
            duration,
            ..VoipRunConfig::heavy_contention(protocol, seed)
        },
    );
    for pct in [10, 25, 50, 75, 80, 90, 95, 99] {
        let q = pct as f64 / 100.0;
        let row: Vec<String> = std::iter::once(pct.to_string())
            .chain(reports.iter().map(|r| {
                let mut d: Distribution = r.latencies_ms.clone();
                format!("{:.1}", d.quantile(q))
            }))
            .collect();
        table.add_row(row);
    }
    table
}

/// Figure 8: CDF of codec-perceived loss-burst lengths (in frames).
pub fn run_fig8(duration: SimDuration, seed: u64) -> Table {
    let (mut table, reports) = run_arms(
        "Figure 8: loss-burst length CDF (200 ms jitter buffer)",
        &["burst_length_frames", "ucobs_cdf", "tcp_cdf", "udp_cdf"],
        |protocol| VoipRunConfig {
            duration,
            ..VoipRunConfig::heavy_contention(protocol, seed)
        },
    );
    let dists: Vec<Distribution> = reports
        .iter()
        .map(|report| {
            let mut d = Distribution::new();
            for &b in &report.burst_lengths {
                d.add(b as f64);
            }
            if d.is_empty() {
                d.add(0.0);
            }
            d
        })
        .collect();
    for burst in [1usize, 2, 3, 5, 10, 20, 30, 50] {
        let row: Vec<String> = std::iter::once(burst.to_string())
            .chain(
                dists
                    .iter()
                    .map(|d| format!("{:.3}", d.fraction_at_most(burst as f64))),
            )
            .collect();
        table.add_row(row);
    }
    table
}

/// Figure 9: sliding-window quality (MOS) over a call with competing flows
/// added each minute.
pub fn run_fig9(minutes: u64, seed: u64) -> Table {
    let (mut table, reports) = run_arms(
        "Figure 9: moving quality score (MOS) under increasing contention",
        &["time_s", "ucobs_mos", "tcp_mos", "udp_mos"],
        |protocol| VoipRunConfig::progressive_contention(protocol, minutes, seed),
    );
    // Sample each timeline on a common 10-second grid.
    let total = minutes * 60;
    let mut t = 0u64;
    while t < total {
        let from = SimTime::from_secs(t);
        let to = SimTime::from_secs(t + 10);
        let row: Vec<String> = std::iter::once(t.to_string())
            .chain(reports.iter().map(|r| {
                format!(
                    "{:.2}",
                    r.mos_timeline.window_mean(from, to).unwrap_or(f64::NAN)
                )
            }))
            .collect();
        table.add_row(row);
        t += 10;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_call_shows_ucobs_beating_tcp_under_contention() {
        let duration = SimDuration::from_secs(20);
        let mut ucobs_cfg = VoipRunConfig::heavy_contention(Protocol::Ucobs, 5);
        ucobs_cfg.duration = duration;
        let mut tcp_cfg = VoipRunConfig::heavy_contention(Protocol::TcpTlv, 5);
        tcp_cfg.duration = duration;
        let (ucobs, _) = run_call(&ucobs_cfg);
        let (tcp, _) = run_call(&tcp_cfg);
        // Both deliver most frames eventually, but uCOBS keeps the latency
        // tail lower and misses no more playout deadlines.
        assert!(ucobs.latencies_ms.len() > 500);
        assert!(tcp.latencies_ms.len() > 500);
        assert!(
            ucobs.miss_fraction <= tcp.miss_fraction,
            "ucobs misses {} vs tcp {}",
            ucobs.miss_fraction,
            tcp.miss_fraction
        );
        let mut u = ucobs.latencies_ms.clone();
        let mut t = tcp.latencies_ms.clone();
        assert!(
            u.quantile(0.99) < t.quantile(0.99),
            "99th percentile latency: ucobs {} vs tcp {}",
            u.quantile(0.99),
            t.quantile(0.99)
        );
    }

    /// A frame is heard when it arrives: the fastest take the 30 ms
    /// propagation plus their serialisation at 3 Mbit/s, not a multiple of
    /// some polling interval.
    #[test]
    fn udp_frame_latency_is_not_rounded_up() {
        let mut cfg = VoipRunConfig::heavy_contention(Protocol::Udp, 6);
        cfg.duration = SimDuration::from_secs(5);
        let mut lat = run_call(&cfg).0.latencies_ms;
        let p10 = lat.quantile(0.1);
        assert!((30.0..35.0).contains(&p10), "p10 {p10}");
    }

    #[test]
    fn udp_frames_are_never_delayed_by_retransmission() {
        let mut cfg = VoipRunConfig::heavy_contention(Protocol::Udp, 6);
        cfg.duration = SimDuration::from_secs(15);
        let (report, refused) = run_call(&cfg);
        assert_eq!(refused, 0, "UDP sends are never refused");
        // UDP never retransmits: frames either arrive within one queue's
        // worth of delay or are dropped outright (they are never delivered
        // late after a recovery, which is what inflates the TCP tail).
        let mut lat = report.latencies_ms.clone();
        assert!(lat.quantile(0.5) < 250.0, "median {}", lat.quantile(0.5));
        assert!(lat.quantile(0.99) < 400.0, "p99 {}", lat.quantile(0.99));
        assert!(report.latencies_ms.len() > 400, "most frames delivered");
    }
}
