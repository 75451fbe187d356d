//! Bulk-transfer workloads (§8.1): a source that keeps the connection's send
//! buffer full with fixed-size application messages and a sink that checks
//! and counts the delivered bytes. Used for the throughput-vs-message-size
//! experiment (Figure 5) and as the competing traffic in the conferencing
//! experiments. Each is an application for [`Sim::drive`]: its `react` is
//! what to do after an event.
//!
//! The bulk stream is one endless headerless [`Record`] of the delivery
//! check's formula: the sender writes it from one reused buffer, and the
//! sink hands each chunk it reads to an ordered [`DeliveryCheck`], which
//! compares it in place. What the sink counts as received is what the
//! check accepted; a figure ends by asking the check for its verdict.

use minion_simnet::{NodeId, SimTime};
use minion_stack::{Sim, SocketAddr, SocketHandle};
use minion_tcp::{
    fill_stream, ConnStats, DeliveryCheck, Record, SocketOptions, TcpConfig, WriteMeta,
};

/// The record holding byte `at` of a bulk stream: the whole stream is one
/// record with no header, byte `o` being `31·o mod 251`.
fn bulk_stream(_at: u64) -> Record {
    Record::keyed(0, 0, 0, u64::MAX)
}

/// A greedy sender that writes `message_size`-byte application messages to a
/// TCP socket whenever the send buffer has room, up to `total_bytes`.
pub struct BulkSender {
    node: NodeId,
    handle: SocketHandle,
    message_size: usize,
    total_bytes: u64,
    written: u64,
    /// One message's worth of the stream, rebuilt for each write.
    scratch: Vec<u8>,
}

impl BulkSender {
    /// Connect from `node` to `remote` and prepare to send `total_bytes` in
    /// `message_size`-byte writes.
    pub fn connect(
        sim: &mut Sim,
        node: NodeId,
        remote: SocketAddr,
        config: TcpConfig,
        options: SocketOptions,
        message_size: usize,
        total_bytes: u64,
    ) -> Self {
        let now = sim.now();
        let handle = sim.host_mut(node).tcp_connect(remote, config, options, now);
        BulkSender {
            node,
            handle,
            message_size,
            total_bytes,
            written: 0,
            scratch: vec![0; message_size],
        }
    }

    /// Bytes accepted by the socket so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The sending connection's counters: retransmission timeouts, fast
    /// retransmits and the rest.
    pub fn stats<'a>(&self, sim: &'a Sim) -> &'a ConnStats {
        sim.host(self.node)
            .tcp_stats(self.handle)
            .expect("the sender's socket lives as long as the simulation")
    }

    /// Top up the send buffer with whole messages once the connection is
    /// established.
    pub fn react(&mut self, sim: &mut Sim) {
        let host = sim.host_mut(self.node);
        while self.written < self.total_bytes {
            let size = self
                .message_size
                .min((self.total_bytes - self.written) as usize);
            if !host.tcp_established(self.handle).unwrap_or(false)
                || host.tcp_send_buffer_free(self.handle).unwrap_or(0) < size
            {
                break;
            }
            let msg = &mut self.scratch[..size];
            fill_stream(self.written, msg, bulk_stream);
            match host.tcp_write_meta(self.handle, msg, WriteMeta::normal()) {
                Ok(n) => self.written += n as u64,
                Err(_) => break,
            }
        }
    }
}

/// A sink that checks and counts the bytes delivered on an accepted
/// connection.
pub struct BulkSink {
    node: NodeId,
    handle: SocketHandle,
    check: DeliveryCheck,
    first_byte_at: Option<SimTime>,
    last_byte_at: Option<SimTime>,
}

impl BulkSink {
    /// Wrap a connection `node` accepted.
    pub fn new(node: NodeId, handle: SocketHandle) -> Self {
        BulkSink {
            node,
            handle,
            check: DeliveryCheck::stream(u64::MAX, true),
            first_byte_at: None,
            last_byte_at: None,
        }
    }

    /// Payload bytes delivered to the application so far, in order and
    /// intact: the bytes the check accepted.
    pub fn received(&self) -> u64 {
        self.check.delivered()
    }

    /// The delivered stream's check.
    pub fn check(&self) -> &DeliveryCheck {
        &self.check
    }

    /// Application-level goodput in bits per second between first and last
    /// delivered byte.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_byte_at, self.last_byte_at) {
            (Some(first), Some(last)) if last > first => {
                self.received() as f64 * 8.0 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Drain what the connection delivered into the check, stamping it
    /// with the current time. A refused chunk is the check's to remember.
    pub fn react(&mut self, sim: &mut Sim) {
        let now = sim.now();
        let host = sim.host_mut(self.node);
        while let Ok(Some(chunk)) = host.tcp_read(self.handle) {
            if self.first_byte_at.is_none() {
                self.first_byte_at = Some(now);
            }
            self.last_byte_at = Some(now);
            let _refused = self.check.on_chunk(&chunk, now.as_micros(), bulk_stream);
        }
    }
}

/// A competing long-lived TCP flow from `from` to `to` used to create
/// congestion in the conferencing experiments. The flow starts at `start`
/// and keeps the path busy indefinitely.
pub struct CompetingFlow {
    sender: Option<BulkSender>,
    sink: Option<BulkSink>,
    listen_port: u16,
    from: NodeId,
    to: NodeId,
    start: SimTime,
}

impl CompetingFlow {
    /// Prepare a competing flow that will start at `start`.
    pub fn new(from: NodeId, to: NodeId, listen_port: u16, start: SimTime) -> Self {
        CompetingFlow {
            sender: None,
            sink: None,
            listen_port,
            from,
            to,
            start,
        }
    }

    /// Whether the flow has started.
    pub fn started(&self) -> bool {
        self.sender.is_some()
    }

    /// Bytes delivered by this flow so far.
    pub fn delivered(&self) -> u64 {
        self.sink.as_ref().map(|s| s.received()).unwrap_or(0)
    }

    /// The check of what the flow delivered, once its sink exists.
    pub fn check(&self) -> Option<&DeliveryCheck> {
        self.sink.as_ref().map(BulkSink::check)
    }

    /// When the flow wants to be called next on its own account: its start,
    /// until it has started. After that it reacts to its sockets' events.
    pub fn next_wake(&self) -> Option<SimTime> {
        (!self.started()).then_some(self.start)
    }

    /// React to the current time: start the flow when its time comes, accept
    /// its connection, keep its send buffer full, and drain its sink.
    pub fn react(&mut self, sim: &mut Sim) {
        let Some(sender) = self.sender.as_mut() else {
            if sim.now() >= self.start {
                // A practically unbounded transfer keeps the path congested.
                sim.host_mut(self.to)
                    .tcp_listen(
                        self.listen_port,
                        TcpConfig::default(),
                        SocketOptions::standard(),
                    )
                    .expect("listen for competing flow");
                self.sender = Some(BulkSender::connect(
                    sim,
                    self.from,
                    SocketAddr::new(self.to, self.listen_port),
                    TcpConfig::default(),
                    SocketOptions::standard(),
                    64 * 1024,
                    u64::MAX / 2,
                ));
            }
            return;
        };
        sender.react(sim);
        if self.sink.is_none() {
            if let Some(handle) = sim.host_mut(self.to).accept(self.listen_port) {
                self.sink = Some(BulkSink::new(self.to, handle));
            }
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.react(sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, SimDuration};
    use minion_stack::Reaction;

    #[test]
    fn bulk_transfer_reaches_link_rate() {
        let mut sim = Sim::new(3);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        // 8 Mbps, 20 ms RTT, with a queue of roughly four bandwidth-delay
        // products so overflow losses stay occasional.
        sim.link(
            a,
            b,
            LinkConfig::new(8_000_000, SimDuration::from_millis(10)).with_queue_bytes(128 * 1024),
        );
        sim.host_mut(b)
            .tcp_listen(5001, TcpConfig::default(), SocketOptions::standard())
            .unwrap();
        let mut sender = BulkSender::connect(
            &mut sim,
            a,
            SocketAddr::new(b, 5001),
            TcpConfig::default(),
            SocketOptions::standard(),
            1448,
            2_000_000,
        );
        let mut sink = None;
        let done = sim.drive(SimTime::from_secs(15), |sim| {
            sender.react(sim);
            if sink.is_none() {
                sink = sim.host_mut(b).accept(5001).map(|h| BulkSink::new(b, h));
            }
            let Some(sink) = sink.as_mut() else {
                return Reaction::Wait(None);
            };
            sink.react(sim);
            if sink.received() >= 2_000_000 {
                Reaction::Done
            } else {
                Reaction::Wait(None)
            }
        });
        assert!(done);
        assert_eq!(sender.written(), 2_000_000);
        let sink = sink.expect("accepted");
        assert_eq!(sink.received(), 2_000_000);
        assert_eq!(sink.check().verdict(), Ok(()));
        let goodput = sink.goodput_bps();
        assert!(
            goodput > 3_500_000.0 && goodput < 8_200_000.0,
            "goodput should use a healthy share of the 8 Mbps link: {goodput}"
        );
    }

    #[test]
    fn competing_flow_starts_at_its_scheduled_time() {
        let mut sim = Sim::new(4);
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        sim.link(
            a,
            b,
            LinkConfig::new(3_000_000, SimDuration::from_millis(30)),
        );
        let start = SimTime::from_secs(1);
        let mut flow = CompetingFlow::new(a, b, 6000, start);
        flow.react(&mut sim);
        assert!(!flow.started());
        assert_eq!(flow.next_wake(), Some(start));
        let mut started_at = None;
        sim.drive(SimTime::from_secs(5), |sim| {
            flow.react(sim);
            if flow.started() && started_at.is_none() {
                started_at = Some(sim.now());
            }
            Reaction::Wait(flow.next_wake())
        });
        assert!(flow.started());
        assert_eq!(started_at, Some(start), "started on its own wake, exactly");
        assert_eq!(flow.next_wake(), None);
        assert!(flow.delivered() > 100_000, "delivered={}", flow.delivered());
    }
}
