//! Figure 5: throughput as a function of application message size, TCP vs
//! uTCP (§8.1).
//!
//! The paper sends a bulk transfer over a 60 ms-RTT path while varying the
//! size of each application `write()`. With uTCP's unordered send enabled,
//! Linux's skbuff-granularity congestion accounting means writes that do not
//! pack MSS-sized buffers waste window, so throughput dips between the
//! "nice" sizes (divisors and multiples of the 1448-byte MSS) and matches
//! TCP at them.

use minion_apps::{BulkSender, BulkSink};
use minion_simnet::{LinkConfig, SimDuration, Table};
use minion_stack::{Reaction, Sim, SocketAddr};
use minion_tcp::{SocketOptions, TcpConfig};

/// Result of one bulk-transfer run with each stack.
#[derive(Clone, Debug)]
pub struct ThroughputSample {
    /// Application write size in bytes.
    pub message_size: usize,
    /// The transfer with standard TCP.
    pub tcp: Transfer,
    /// The transfer with uTCP (unordered send, skbuff accounting).
    pub utcp: Transfer,
}

/// One bulk transfer: its goodput and the sender's loss recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct Transfer {
    /// Goodput in Mbps.
    pub mbps: f64,
    /// Retransmission timeouts the sender took.
    pub rto_fires: u64,
    /// Fast retransmits the sender made.
    pub fast_retransmits: u64,
}

/// A bottleneck of `bits_per_sec` with a 60 ms RTT and a drop-tail queue of
/// `queue_bytes`. The figure's is 2 Mbps with 64 KiB (the paper plots
/// throughputs up to ~2 Mbps).
fn path(bits_per_sec: u64, queue_bytes: usize) -> LinkConfig {
    LinkConfig::new(bits_per_sec, SimDuration::from_millis(30)).with_queue_bytes(queue_bytes)
}

/// Run one transfer of `total_bytes` in `message_size` writes over `link`,
/// both ends configured with `config`.
fn run_bulk_transfer(
    link: LinkConfig,
    config: TcpConfig,
    message_size: usize,
    total_bytes: u64,
    options: SocketOptions,
    seed: u64,
) -> Transfer {
    let mut sim = Sim::new(seed);
    let sender_node = sim.add_host("sender");
    let receiver_node = sim.add_host("receiver");
    sim.link(sender_node, receiver_node, link);
    sim.host_mut(receiver_node)
        .tcp_listen(5001, config.clone(), SocketOptions::standard())
        .expect("listen");
    let mut sender = BulkSender::connect(
        &mut sim,
        sender_node,
        SocketAddr::new(receiver_node, 5001),
        config,
        options,
        message_size,
        total_bytes,
    );
    let mut sink = None;
    let deadline = sim.now() + SimDuration::from_secs(600);
    sim.drive(deadline, |sim| {
        sender.react(sim);
        if sink.is_none() {
            let accepted = sim.host_mut(receiver_node).accept(5001);
            sink = accepted.map(|h| BulkSink::new(receiver_node, h));
        }
        let Some(sink) = sink.as_mut() else {
            return Reaction::Wait(None);
        };
        sink.react(sim);
        if sink.received() < total_bytes {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });
    if let Some(sink) = &sink {
        let flow = format!("Fig. 5 transfer of {message_size} B writes");
        crate::assert_delivered(&flow, sink.check());
    }
    let stats = sender.stats(&sim);
    Transfer {
        mbps: sink.map_or(0.0, |s| s.goodput_bps() / 1_000_000.0),
        rto_fires: stats.timeouts,
        fast_retransmits: stats.fast_retransmits,
    }
}

/// Run the Figure 5 sweep.
pub fn run(message_sizes: &[usize], total_bytes: u64, seed: u64) -> Vec<ThroughputSample> {
    let transfer = |size, options| {
        let link = path(2_000_000, 64 * 1024);
        run_bulk_transfer(link, TcpConfig::default(), size, total_bytes, options, seed)
    };
    message_sizes
        .iter()
        .map(|&size| ThroughputSample {
            message_size: size,
            tcp: transfer(size, SocketOptions::standard()),
            utcp: transfer(size, SocketOptions::utcp()),
        })
        .collect()
}

/// The message sizes highlighted by the paper's figure: fractions and
/// multiples of the 1448-byte MSS plus awkward in-between sizes.
pub fn paper_message_sizes() -> Vec<usize> {
    vec![200, 362, 500, 724, 1000, 1448, 2000, 2896]
}

/// Render the sweep as the figure's data table, with each stack's loss
/// recovery beside its goodput.
pub fn to_table(samples: &[ThroughputSample]) -> Table {
    let mut table = Table::new(
        "Figure 5: throughput vs application message size (Mbps)",
        &[
            "message_size_bytes",
            "tcp_mbps",
            "utcp_mbps",
            "tcp_rto_fires",
            "tcp_fast_retransmits",
            "utcp_rto_fires",
            "utcp_fast_retransmits",
        ],
    );
    for s in samples {
        table.add_row(vec![
            s.message_size.to_string(),
            format!("{:.3}", s.tcp.mbps),
            format!("{:.3}", s.utcp.mbps),
            s.tcp.rto_fires.to_string(),
            s.tcp.fast_retransmits.to_string(),
            s.utcp.rto_fires.to_string(),
            s.utcp.fast_retransmits.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_tcp::CcAlgorithm;

    #[test]
    fn utcp_matches_tcp_at_mss_and_dips_at_awkward_sizes() {
        let total = 400_000u64;
        let at_mss = run(&[1448], total, 1)[0].clone();
        let awkward = run(&[1000], total, 1)[0].clone();
        // At exactly one MSS per write, uTCP keeps pace with TCP.
        assert!(
            (at_mss.utcp.mbps - at_mss.tcp.mbps).abs() / at_mss.tcp.mbps < 0.15,
            "at MSS: tcp={} utcp={}",
            at_mss.tcp.mbps,
            at_mss.utcp.mbps
        );
        // At 1000 bytes (not a divisor of the MSS), uTCP's skbuff-granularity
        // accounting costs it throughput relative to TCP.
        assert!(
            awkward.utcp.mbps < awkward.tcp.mbps * 0.9,
            "awkward size: tcp={} utcp={}",
            awkward.tcp.mbps,
            awkward.utcp.mbps
        );
        // TCP itself should not care about the write size.
        assert!((at_mss.tcp.mbps - awkward.tcp.mbps).abs() / at_mss.tcp.mbps < 0.15);
    }

    /// ROADMAP item 1's clean-pipe characterisation: one TCP bulk flow in
    /// 1448 B writes over each of four paths with no random loss, every
    /// loss a queue overflow of the sender's own making. Pinned per path
    /// as (goodput in Mbit/s to 3 decimals, RTOs, fast retransmits), under
    /// NewReno and then CUBIC. Item 1's target, a share of the link of at
    /// least 0.85 on every path, is met only by NewReno at 10 Mbit/s: the
    /// 2 Mbit/s paths reach 57–80 %, CUBIC at 10 Mbit/s 84 %.
    #[test]
    fn clean_pipe() {
        let paths = [
            (2_000_000, 64 * 1024, 1_500_000),
            (2_000_000, 64 * 1024, 30_000_000),
            (2_000_000, 32 * 1024, 3_000_000),
            (10_000_000, 128 * 1024, 30_000_000),
        ];
        let run_all = |cc| -> Vec<String> {
            paths
                .iter()
                .map(|&(rate, queue, bytes)| {
                    let config = TcpConfig::default().with_cc(cc);
                    let link = path(rate, queue);
                    let options = SocketOptions::standard();
                    let t = run_bulk_transfer(link, config, 1448, bytes, options, 1);
                    format!("{:.3} {} {}", t.mbps, t.rto_fires, t.fast_retransmits)
                })
                .collect()
        };
        assert_eq!(
            run_all(CcAlgorithm::NewReno),
            ["1.527 1 2", "1.599 18 41", "1.346 5 10", "8.540 0 3"],
            "NewReno"
        );
        assert_eq!(
            run_all(CcAlgorithm::Cubic),
            ["1.526 1 2", "1.420 10 42", "1.142 10 11", "8.383 0 6"],
            "CUBIC"
        );
    }

    #[test]
    fn table_has_one_row_per_size() {
        let samples = vec![
            ThroughputSample {
                message_size: 100,
                tcp: Transfer {
                    mbps: 1.0,
                    ..Transfer::default()
                },
                utcp: Transfer {
                    mbps: 0.5,
                    rto_fires: 2,
                    fast_retransmits: 3,
                },
            },
            ThroughputSample {
                message_size: 1448,
                tcp: Transfer {
                    mbps: 1.9,
                    ..Transfer::default()
                },
                utcp: Transfer {
                    mbps: 1.9,
                    ..Transfer::default()
                },
            },
        ];
        let t = to_table(&samples);
        assert_eq!(t.row_count(), 2);
        assert!(t.to_csv().contains("1448"));
        assert!(t.to_csv().contains("100,1.000,0.500,0,0,2,3"));
    }
}
