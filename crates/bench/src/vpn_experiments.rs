//! Figures 11 and 12: VPN tunneling over the residential path (§8.4).
//!
//! Figure 11 measures the throughput of one tunneled download while a
//! varying number of tunneled uploads compete inside the same tunnel, for
//! the original (in-order TCP tunnel) and modified (uCOBS + prioritized
//! ACKs) OpenVPN. Figure 12 decomposes the two modifications: unordered
//! delivery and ACK prioritization are toggled independently and the total
//! upload/download utilisation is reported for three traffic mixes.

use minion_apps::TunnelGateway;
use minion_core::{MinionConfig, MinionTransport, Protocol};
use minion_simnet::{LinkConfig, SimDuration, Table};
use minion_stack::{Sim, SocketAddr};

/// One tunnel variant (which protocol carries the tunnel, and whether
/// tunneled ACKs are prioritized).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunnelVariant {
    /// Transport protocol of the tunnel itself.
    pub protocol: Protocol,
    /// Expedite tunneled pure ACKs with a high uTCP priority.
    pub prioritize_acks: bool,
    /// Human-readable label used in tables.
    pub label: &'static str,
}

/// The four variants of Figure 12 (and the two of Figure 11).
pub(crate) fn variants() -> Vec<TunnelVariant> {
    vec![
        TunnelVariant {
            protocol: Protocol::TcpTlv,
            prioritize_acks: false,
            label: "TCP",
        },
        TunnelVariant {
            protocol: Protocol::TcpTlv,
            prioritize_acks: true,
            label: "TCP+priACKs",
        },
        TunnelVariant {
            protocol: Protocol::Ucobs,
            prioritize_acks: false,
            label: "uCOBS",
        },
        TunnelVariant {
            protocol: Protocol::Ucobs,
            prioritize_acks: true,
            label: "uCOBS+priACKs",
        },
    ]
}

/// Result of one tunnel run.
#[derive(Clone, Debug, PartialEq)]
pub struct TunnelRunResult {
    /// Total download goodput through the tunnel, in Mbps.
    pub download_mbps: f64,
    /// Total upload goodput through the tunnel, in Mbps.
    pub upload_mbps: f64,
}

/// Run one VPN scenario: `downloads` tunneled download flows and `uploads`
/// tunneled upload flows for `duration` of simulated time.
fn run_tunnel(
    variant: TunnelVariant,
    downloads: usize,
    uploads: usize,
    duration: SimDuration,
    seed: u64,
) -> TunnelRunResult {
    let mut sim = Sim::new(seed);
    let client = sim.add_host("home-client");
    let server = sim.add_host("vpn-server");
    // Residential path: 3 Mbps down, 0.5 Mbps up, 60 ms RTT.
    sim.link_asymmetric(
        client,
        server,
        LinkConfig::new(500_000, SimDuration::from_millis(30)).with_queue_bytes(24 * 1024),
        LinkConfig::new(3_000_000, SimDuration::from_millis(30)).with_queue_bytes(24 * 1024),
    );

    let config = MinionConfig::default();
    MinionTransport::listen(variant.protocol, sim.host_mut(server), 1194, &config).unwrap();
    let now = sim.now();
    let client_transport = MinionTransport::connect(
        variant.protocol,
        sim.host_mut(client),
        SocketAddr::new(server, 1194),
        &config,
        now,
    )
    .unwrap();
    sim.run_for(SimDuration::from_millis(300));
    let server_transport =
        MinionTransport::accept(variant.protocol, sim.host_mut(server), 1194, &config)
            .expect("tunnel accepted");

    let mut client_gw = TunnelGateway::new(client_transport, variant.prioritize_acks);
    let mut server_gw = TunnelGateway::new(server_transport, variant.prioritize_acks);

    // Download flows: server gateway sources, client gateway sinks.
    let huge = 1_000_000_000u64;
    for i in 0..downloads {
        let id = 1 + i as u32;
        server_gw.add_source_flow(id, huge, sim.now());
        client_gw.add_sink_flow(id);
    }
    // Upload flows: client gateway sources, server gateway sinks.
    for i in 0..uploads {
        let id = 100 + i as u32;
        client_gw.add_source_flow(id, huge, sim.now());
        server_gw.add_sink_flow(id);
    }

    let start = sim.now();
    let tick = SimDuration::from_millis(10);
    while sim.now() - start < duration {
        let now = sim.now();
        client_gw.tick(sim.host_mut(client), now);
        server_gw.tick(sim.host_mut(server), now);
        sim.run_for(tick);
    }

    let elapsed = (sim.now() - start).as_secs_f64();
    let downloaded: u64 = (0..downloads)
        .map(|i| client_gw.sink_received(1 + i as u32))
        .sum();
    let uploaded: u64 = (0..uploads)
        .map(|i| server_gw.sink_received(100 + i as u32))
        .sum();
    TunnelRunResult {
        download_mbps: downloaded as f64 * 8.0 / elapsed / 1_000_000.0,
        upload_mbps: uploaded as f64 * 8.0 / elapsed / 1_000_000.0,
    }
}

/// The seed and simulated duration of each run, for a figure's title.
fn run_label(duration: SimDuration, seed: u64) -> String {
    format!("seed {seed}, {} s per run", duration.as_secs_f64())
}

/// Figure 11: download throughput vs number of competing uploads, for the
/// original and modified tunnel.
pub fn run_fig11(upload_counts: &[usize], duration: SimDuration, seed: u64) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 11: tunneled download throughput vs competing uploads (Mbps; {})",
            run_label(duration, seed)
        ),
        &["uploads", "original_openvpn_mbps", "modified_openvpn_mbps"],
    );
    let original = TunnelVariant {
        protocol: Protocol::TcpTlv,
        prioritize_acks: false,
        label: "original",
    };
    let modified = TunnelVariant {
        protocol: Protocol::Ucobs,
        prioritize_acks: true,
        label: "modified",
    };
    for &uploads in upload_counts {
        let orig = run_tunnel(original, 1, uploads, duration, seed);
        let modi = run_tunnel(modified, 1, uploads, duration, seed);
        table.add_row(vec![
            uploads.to_string(),
            format!("{:.3}", orig.download_mbps),
            format!("{:.3}", modi.download_mbps),
        ]);
    }
    table
}

/// Figure 12: upload/download utilisation of each variant under three
/// traffic mixes (upload only, download only, 3 downloads + 1 upload).
pub fn run_fig12(duration: SimDuration, seed: u64) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 12: contribution of each modification to network utilisation (Mbps; {})",
            run_label(duration, seed)
        ),
        &["scenario", "variant", "download_mbps", "upload_mbps"],
    );
    let scenarios: [(&str, usize, usize); 3] =
        [("UL only", 0, 1), ("DL only", 1, 0), ("3 DL + 1 UL", 3, 1)];
    for (scenario, downloads, uploads) in scenarios {
        for variant in variants() {
            let result = run_tunnel(variant, downloads, uploads, duration, seed);
            table.add_row(vec![
                scenario.to_string(),
                variant.label.to_string(),
                format!("{:.3}", result.download_mbps),
                format!("{:.3}", result.upload_mbps),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modified_tunnel_beats_original_under_upload_contention() {
        let duration = SimDuration::from_secs(25);
        let original = run_tunnel(
            TunnelVariant {
                protocol: Protocol::TcpTlv,
                prioritize_acks: false,
                label: "orig",
            },
            1,
            2,
            duration,
            7,
        );
        let modified = run_tunnel(
            TunnelVariant {
                protocol: Protocol::Ucobs,
                prioritize_acks: true,
                label: "mod",
            },
            1,
            2,
            duration,
            7,
        );
        assert!(original.download_mbps > 0.0);
        assert!(modified.download_mbps > 0.0);
        assert!(
            modified.download_mbps > original.download_mbps * 1.2,
            "modified tunnel should clearly improve the tunneled download: \
             original {:.3} Mbps vs modified {:.3} Mbps",
            original.download_mbps,
            modified.download_mbps
        );
    }

    #[test]
    fn download_only_scenario_fills_a_good_share_of_the_link() {
        let result = run_tunnel(
            TunnelVariant {
                protocol: Protocol::Ucobs,
                prioritize_acks: true,
                label: "mod",
            },
            1,
            0,
            SimDuration::from_secs(20),
            8,
        );
        assert!(
            result.download_mbps > 1.0,
            "single download over a 3 Mbps link: {:.3} Mbps",
            result.download_mbps
        );
        assert_eq!(result.upload_mbps, 0.0);
    }

    /// The gateways decide send order by walking their flow maps. With
    /// several flows a side over the in-order tunnel, where one flow's
    /// segments hold up another's, the totals move with that order — so two
    /// runs must be the same run.
    #[test]
    fn tunnel_runs_repeat_exactly() {
        let run = || {
            run_tunnel(
                TunnelVariant {
                    protocol: Protocol::TcpTlv,
                    prioritize_acks: false,
                    label: "orig",
                },
                3,
                3,
                SimDuration::from_secs(5),
                9,
            )
        };
        assert_eq!(run(), run());
    }
}
