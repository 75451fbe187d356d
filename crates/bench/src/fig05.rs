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

/// Run one transfer.
fn run_bulk_transfer(
    message_size: usize,
    total_bytes: u64,
    options: SocketOptions,
    seed: u64,
) -> Transfer {
    let mut sim = Sim::new(seed);
    let sender_node = sim.add_host("sender");
    let receiver_node = sim.add_host("receiver");
    // A 2 Mbps bottleneck with 60 ms RTT, as in the paper's figure (which
    // plots throughputs up to ~2 Mbps).
    sim.link(
        sender_node,
        receiver_node,
        LinkConfig::new(2_000_000, SimDuration::from_millis(30)).with_queue_bytes(64 * 1024),
    );
    sim.host_mut(receiver_node)
        .tcp_listen(5001, TcpConfig::default(), SocketOptions::standard())
        .expect("listen");
    let mut sender = BulkSender::connect(
        &mut sim,
        sender_node,
        SocketAddr::new(receiver_node, 5001),
        TcpConfig::default(),
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
    let stats = sender.stats(&sim);
    Transfer {
        mbps: sink.map_or(0.0, |s| s.goodput_bps() / 1_000_000.0),
        rto_fires: stats.timeouts,
        fast_retransmits: stats.fast_retransmits,
    }
}

/// Run the Figure 5 sweep.
pub fn run(message_sizes: &[usize], total_bytes: u64, seed: u64) -> Vec<ThroughputSample> {
    message_sizes
        .iter()
        .map(|&size| ThroughputSample {
            message_size: size,
            tcp: run_bulk_transfer(size, total_bytes, SocketOptions::standard(), seed),
            utcp: run_bulk_transfer(size, total_bytes, SocketOptions::utcp(), seed),
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
