//! Bulk-transfer workloads (§8.1): a source that keeps the connection's send
//! buffer full with fixed-size application messages and a sink that counts
//! delivered bytes. Used for the throughput-vs-message-size experiment
//! (Figure 5) and as the competing traffic in the conferencing and VPN
//! experiments.

use minion_simnet::{NodeId, SimTime};
use minion_stack::{Host, SocketAddr, SocketHandle};
use minion_tcp::{SocketOptions, TcpConfig, WriteMeta};

/// A greedy sender that writes `message_size`-byte application messages to a
/// TCP socket whenever the send buffer has room, up to `total_bytes`.
pub struct BulkSender {
    handle: SocketHandle,
    message_size: usize,
    total_bytes: u64,
    written: u64,
    next_byte: u8,
}

impl BulkSender {
    /// Connect to `remote` and prepare to send `total_bytes` in
    /// `message_size`-byte writes.
    pub fn connect(
        host: &mut Host,
        remote: SocketAddr,
        config: TcpConfig,
        options: SocketOptions,
        message_size: usize,
        total_bytes: u64,
        now: SimTime,
    ) -> Self {
        let handle = host.tcp_connect(remote, config, options, now);
        BulkSender {
            handle,
            message_size,
            total_bytes,
            written: 0,
            next_byte: 0,
        }
    }

    /// The underlying socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Bytes accepted by the socket so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Top up the send buffer. Call this every tick.
    pub fn pump(&mut self, host: &mut Host) {
        if !host.tcp_established(self.handle).unwrap_or(false) {
            return;
        }
        while self.written < self.total_bytes {
            let remaining = (self.total_bytes - self.written) as usize;
            let size = self.message_size.min(remaining);
            if host.tcp_send_buffer_free(self.handle).unwrap_or(0) < size {
                break;
            }
            let msg = vec![self.next_byte; size];
            self.next_byte = self.next_byte.wrapping_add(1);
            match host.tcp_write_meta(self.handle, &msg, WriteMeta::normal()) {
                Ok(n) => self.written += n as u64,
                Err(_) => break,
            }
        }
    }
}

/// A sink that accepts a connection and counts delivered bytes.
pub struct BulkSink {
    handle: SocketHandle,
    received: u64,
    first_byte_at: Option<SimTime>,
    last_byte_at: Option<SimTime>,
}

impl BulkSink {
    /// Wrap an accepted connection handle.
    pub fn new(handle: SocketHandle) -> Self {
        BulkSink {
            handle,
            received: 0,
            first_byte_at: None,
            last_byte_at: None,
        }
    }

    /// The underlying socket handle.
    pub fn handle(&self) -> SocketHandle {
        self.handle
    }

    /// Total payload bytes delivered to the application so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Application-level goodput in bits per second between first and last
    /// delivered byte.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_byte_at, self.last_byte_at) {
            (Some(first), Some(last)) if last > first => {
                self.received as f64 * 8.0 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Drain delivered data. Call this every tick.
    pub fn pump(&mut self, host: &mut Host, now: SimTime) {
        while let Ok(Some(chunk)) = host.tcp_read(self.handle) {
            if self.first_byte_at.is_none() {
                self.first_byte_at = Some(now);
            }
            self.last_byte_at = Some(now);
            self.received += chunk.len() as u64;
        }
    }
}

/// A competing long-lived TCP flow from `from` to `to` used to create
/// congestion in the conferencing and VPN experiments. The flow starts at
/// `start` and keeps the path busy indefinitely.
pub struct CompetingFlow {
    sender: Option<BulkSender>,
    sink: Option<BulkSink>,
    listen_port: u16,
    from: NodeId,
    to: NodeId,
    start: SimTime,
    started: bool,
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
            started: false,
        }
    }

    /// Whether the flow has started.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Bytes delivered by this flow so far.
    pub fn delivered(&self) -> u64 {
        self.sink.as_ref().map(|s| s.received()).unwrap_or(0)
    }

    /// Drive the flow: start it when its time comes, keep its buffer full, and
    /// drain its sink. `sim_hosts` gives mutable access to the two endpoint
    /// hosts; call once per tick.
    pub fn tick(&mut self, sim: &mut minion_stack::Sim, now: SimTime) {
        if !self.started {
            if now < self.start {
                return;
            }
            // A practically unbounded transfer keeps the path congested.
            sim.host_mut(self.to)
                .tcp_listen(
                    self.listen_port,
                    TcpConfig::default(),
                    SocketOptions::standard(),
                )
                .expect("listen for competing flow");
            let sender = BulkSender::connect(
                sim.host_mut(self.from),
                SocketAddr::new(self.to, self.listen_port),
                TcpConfig::default(),
                SocketOptions::standard(),
                64 * 1024,
                u64::MAX / 2,
                now,
            );
            self.sender = Some(sender);
            self.started = true;
            return;
        }
        if self.sink.is_none() {
            if let Some(handle) = sim.host_mut(self.to).accept(self.listen_port) {
                self.sink = Some(BulkSink::new(handle));
            }
        }
        if let Some(sender) = self.sender.as_mut() {
            sender.pump(sim.host_mut(self.from));
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.pump(sim.host_mut(self.to), now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, SimDuration};
    use minion_stack::Sim;

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
            sim.host_mut(a),
            SocketAddr::new(b, 5001),
            TcpConfig::default(),
            SocketOptions::standard(),
            1448,
            2_000_000,
            SimTime::ZERO,
        );
        sim.run_for(SimDuration::from_millis(100));
        let sh = sim.host_mut(b).accept(5001).expect("accepted");
        let mut sink = BulkSink::new(sh);
        for _ in 0..300 {
            sender.pump(sim.host_mut(a));
            sim.run_for(SimDuration::from_millis(50));
            let now = sim.now();
            sink.pump(sim.host_mut(b), now);
            if sink.received() >= 2_000_000 {
                break;
            }
        }
        assert_eq!(sender.written(), 2_000_000);
        assert_eq!(sink.received(), 2_000_000);
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
        let mut flow = CompetingFlow::new(a, b, 6000, SimTime::from_secs(1));
        flow.tick(&mut sim, SimTime::ZERO);
        assert!(!flow.started());
        sim.run_until(SimTime::from_secs(1));
        for _ in 0..40 {
            let now = sim.now();
            flow.tick(&mut sim, now);
            sim.run_for(SimDuration::from_millis(100));
        }
        assert!(flow.started());
        assert!(flow.delivered() > 100_000, "delivered={}", flow.delivered());
    }
}
