//! The VPN tunneling application of §8.4.
//!
//! The paper modifies OpenVPN to (a) carry tunneled IP packets over uCOBS
//! instead of a plain TCP stream — giving the tunnel unordered delivery — and
//! (b) send tunneled TCP ACKs at a higher uTCP priority than bulk payload.
//! The tunneled flows are ordinary TCP connections that experience the
//! classic TCP-in-TCP meltdown when the tunnel is a reliable, in-order byte
//! stream.
//!
//! This module reproduces the structure with a pair of [`TunnelGateway`]s:
//! each gateway owns the *inner* TCP endpoints (driven directly as protocol
//! state machines), encapsulates every inner segment as one tunnel datagram
//! tagged with a flow id, and carries it over any [`MinionTransport`] — the
//! original OpenVPN corresponds to the in-order `TcpTlv` transport, the
//! modified one to `Ucobs` with ACK prioritisation.

use minion_core::MinionTransport;
use minion_simnet::SimTime;
use minion_stack::Host;
use minion_tcp::{SocketOptions, TcpConfig, TcpConnection, TcpSegment, WriteMeta};
use std::collections::BTreeMap;

/// Priority used for tunneled pure ACKs when ACK prioritisation is on.
const ACK_PRIORITY: u32 = 7;

/// What one gateway does for a given inner flow.
enum InnerRole {
    /// This gateway's inner endpoint sends `total` bytes.
    Source { total: u64, written: u64 },
    /// This gateway's inner endpoint receives and counts bytes.
    Sink { received: u64 },
}

struct InnerFlow {
    conn: TcpConnection,
    role: InnerRole,
}

/// One end of the VPN tunnel.
pub struct TunnelGateway {
    transport: MinionTransport,
    prioritize_acks: bool,
    flows: BTreeMap<u32, InnerFlow>,
    /// Tunnel datagrams sent / received (for utilisation accounting).
    pub datagrams_sent: u64,
    /// Tunnel datagrams received.
    pub datagrams_received: u64,
}

fn encapsulate(flow_id: u32, segment: &TcpSegment) -> Vec<u8> {
    let mut out = vec![0u8; 4 + segment.wire_len()];
    out[..4].copy_from_slice(&flow_id.to_be_bytes());
    segment.encode_into(&mut out[4..]);
    out
}

fn decapsulate(datagram: &[u8]) -> Option<(u32, TcpSegment)> {
    if datagram.len() < 4 {
        return None;
    }
    let flow_id = u32::from_be_bytes([datagram[0], datagram[1], datagram[2], datagram[3]]);
    // The datagram is an owned `Vec`; the segment keeps its own copy.
    TcpSegment::decode(&datagram[4..].into()).map(|seg| (flow_id, seg))
}

/// Configuration for inner (tunneled) TCP connections: a slightly smaller MSS
/// so an encapsulated inner segment plus tunnel overhead still fits nicely in
/// outer segments.
fn inner_tcp_config(flow_id: u32) -> TcpConfig {
    TcpConfig::default()
        .with_mss(1400)
        .with_fixed_isn(0x1000_0000 + flow_id)
}

impl TunnelGateway {
    /// Wrap a tunnel transport. `prioritize_acks` enables the paper's
    /// modified-OpenVPN behaviour of expediting tunneled TCP ACKs.
    pub fn new(transport: MinionTransport, prioritize_acks: bool) -> Self {
        TunnelGateway {
            transport,
            prioritize_acks,
            flows: BTreeMap::new(),
            datagrams_sent: 0,
            datagrams_received: 0,
        }
    }

    /// Whether the tunnel transport is established.
    pub fn is_established(&self, host: &Host) -> bool {
        self.transport.is_established(host)
    }

    /// Add an inner flow for which this gateway is the *sender* of
    /// `total_bytes` (the peer gateway must add the matching sink). The
    /// sending side performs the inner active open.
    pub fn add_source_flow(&mut self, flow_id: u32, total_bytes: u64, now: SimTime) {
        let mut conn = TcpConnection::new(
            10_000 + flow_id as u16,
            20_000 + flow_id as u16,
            inner_tcp_config(flow_id),
            SocketOptions::standard(),
        );
        conn.open(now);
        self.flows.insert(
            flow_id,
            InnerFlow {
                conn,
                role: InnerRole::Source {
                    total: total_bytes,
                    written: 0,
                },
            },
        );
    }

    /// Add an inner flow for which this gateway is the receiver.
    pub fn add_sink_flow(&mut self, flow_id: u32) {
        let mut conn = TcpConnection::new(
            20_000 + flow_id as u16,
            10_000 + flow_id as u16,
            inner_tcp_config(flow_id),
            SocketOptions::standard(),
        );
        conn.listen();
        self.flows.insert(
            flow_id,
            InnerFlow {
                conn,
                role: InnerRole::Sink { received: 0 },
            },
        );
    }

    /// Bytes delivered so far to the inner receiver of `flow_id` (0 for
    /// source flows or unknown ids).
    pub fn sink_received(&self, flow_id: u32) -> u64 {
        match self.flows.get(&flow_id).map(|f| &f.role) {
            Some(InnerRole::Sink { received }) => *received,
            _ => 0,
        }
    }

    /// Drive the gateway: decapsulate arriving tunnel datagrams, run the inner
    /// TCP state machines, and encapsulate their outgoing segments. Call once
    /// per simulation tick.
    pub fn tick(&mut self, host: &mut Host, now: SimTime) {
        // 1. Tunnel → inner connections.
        for datagram in self.transport.recv(host) {
            self.datagrams_received += 1;
            if let Some((flow_id, segment)) = decapsulate(&datagram.payload) {
                if let Some(flow) = self.flows.get_mut(&flow_id) {
                    flow.conn.on_segment(&segment, now);
                }
            }
        }

        if !self.transport.is_established(host) {
            return;
        }

        // 2. Application behaviour of the inner endpoints.
        for flow in self.flows.values_mut() {
            match &mut flow.role {
                InnerRole::Source { total, written } => {
                    if flow.conn.is_established() {
                        while *written < *total && flow.conn.send_buffer_free() >= 16 * 1024 {
                            let chunk = (16 * 1024).min((*total - *written) as usize);
                            match flow
                                .conn
                                .write_with_meta(&vec![0xAB; chunk], WriteMeta::normal())
                            {
                                Ok(n) => *written += n as u64,
                                Err(_) => break,
                            }
                        }
                    }
                }
                InnerRole::Sink { received } => {
                    while let Some(chunk) = flow.conn.read() {
                        *received += chunk.len() as u64;
                    }
                }
            }
        }

        // 3. Inner connections → tunnel.
        let mut to_send: Vec<(u32, Vec<u8>, u32)> = Vec::new();
        for (&flow_id, flow) in self.flows.iter_mut() {
            for segment in flow.conn.poll(now) {
                let priority = if self.prioritize_acks && segment.payload.is_empty() {
                    ACK_PRIORITY
                } else {
                    0
                };
                to_send.push((flow_id, encapsulate(flow_id, &segment), priority));
            }
        }
        for (_flow, payload, priority) in to_send {
            if self.transport.send(host, &payload, priority).is_ok() {
                self.datagrams_sent += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_core::{MinionConfig, Protocol};
    use minion_simnet::{LinkConfig, NodeId, SimDuration};
    use minion_stack::{Sim, SocketAddr};

    /// Build a residential-style path and an established tunnel over it.
    fn tunnel_pair(
        protocol: Protocol,
        prioritize_acks: bool,
    ) -> (Sim, NodeId, NodeId, TunnelGateway, TunnelGateway) {
        let mut sim = Sim::new(9);
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.link_asymmetric(
            client,
            server,
            LinkConfig::new(500_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
            LinkConfig::new(3_000_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
        );
        let config = MinionConfig::default();
        MinionTransport::listen(protocol, sim.host_mut(server), 1194, &config).unwrap();
        let now = sim.now();
        let client_transport = MinionTransport::connect(
            protocol,
            sim.host_mut(client),
            SocketAddr::new(server, 1194),
            &config,
            now,
        )
        .unwrap();
        sim.run_for(SimDuration::from_millis(300));
        let server_transport =
            MinionTransport::accept(protocol, sim.host_mut(server), 1194, &config).unwrap();
        let cg = TunnelGateway::new(client_transport, prioritize_acks);
        let sg = TunnelGateway::new(server_transport, prioritize_acks);
        (sim, client, server, cg, sg)
    }

    fn run_ticks(
        sim: &mut Sim,
        client: NodeId,
        server: NodeId,
        cg: &mut TunnelGateway,
        sg: &mut TunnelGateway,
        ticks: usize,
        tick_len: SimDuration,
    ) {
        for _ in 0..ticks {
            let now = sim.now();
            cg.tick(sim.host_mut(client), now);
            sg.tick(sim.host_mut(server), now);
            sim.run_for(tick_len);
        }
    }

    #[test]
    fn a_download_flows_through_the_tunnel() {
        let (mut sim, client, server, mut cg, mut sg) = tunnel_pair(Protocol::Ucobs, true);
        // Download: the server gateway sources 300 KB, the client gateway sinks.
        sg.add_source_flow(1, 300_000, sim.now());
        cg.add_sink_flow(1);
        run_ticks(
            &mut sim,
            client,
            server,
            &mut cg,
            &mut sg,
            800,
            SimDuration::from_millis(10),
        );
        assert_eq!(
            cg.sink_received(1),
            300_000,
            "entire download delivered through the tunnel"
        );
        assert!(cg.datagrams_received > 0 && sg.datagrams_received > 0);
    }

    #[test]
    fn bidirectional_flows_share_the_tunnel() {
        let (mut sim, client, server, mut cg, mut sg) = tunnel_pair(Protocol::Ucobs, true);
        // One download and one upload.
        sg.add_source_flow(1, 150_000, sim.now());
        cg.add_sink_flow(1);
        cg.add_source_flow(2, 40_000, sim.now());
        sg.add_sink_flow(2);
        run_ticks(
            &mut sim,
            client,
            server,
            &mut cg,
            &mut sg,
            1500,
            SimDuration::from_millis(10),
        );
        assert_eq!(cg.sink_received(1), 150_000);
        assert_eq!(sg.sink_received(2), 40_000);
    }

    #[test]
    fn in_order_tcp_tunnel_also_works_but_is_the_baseline() {
        let (mut sim, client, server, mut cg, mut sg) = tunnel_pair(Protocol::TcpTlv, false);
        sg.add_source_flow(1, 100_000, sim.now());
        cg.add_sink_flow(1);
        run_ticks(
            &mut sim,
            client,
            server,
            &mut cg,
            &mut sg,
            800,
            SimDuration::from_millis(10),
        );
        assert_eq!(cg.sink_received(1), 100_000);
    }

    #[test]
    fn encapsulation_roundtrip() {
        let seg = TcpSegment::bare(
            1,
            2,
            minion_tcp::SeqNum(77),
            minion_tcp::SeqNum(88),
            minion_tcp::TcpFlags::ACK,
        );
        let enc = encapsulate(42, &seg);
        let (flow, dec) = decapsulate(&enc).unwrap();
        assert_eq!(flow, 42);
        assert_eq!(dec, seg);
        assert!(decapsulate(&[1, 2]).is_none());
    }
}
