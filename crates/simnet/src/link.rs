//! Unidirectional links with rate limiting, propagation delay, a drop-tail
//! queue, and a configurable loss model.
//!
//! This reproduces the role dummynet plays in the paper's testbed: each
//! experiment configures a bottleneck with a bandwidth, a delay, and a loss
//! rate, and all other behaviour (queueing delay, overflow drops) emerges from
//! the model.

use crate::loss::{LossConfig, LossModel};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Configuration of a unidirectional link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Link rate in bits per second. `0` means infinite rate (no serialization
    /// delay and no queueing).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Maximum backlog the drop-tail queue will hold, in bytes (wire size).
    pub queue_limit_bytes: usize,
    /// Random loss applied to packets that were admitted to the queue.
    pub loss: LossConfig,
}

impl LinkConfig {
    /// A link with the given rate (bits/second) and one-way delay, a default
    /// queue of 64 KiB, and no random loss.
    pub fn new(rate_bps: u64, delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps,
            delay,
            queue_limit_bytes: 64 * 1024,
            loss: LossConfig::None,
        }
    }

    /// An infinitely fast, zero-delay, lossless link (useful in unit tests).
    pub fn ideal() -> Self {
        LinkConfig {
            rate_bps: 0,
            delay: SimDuration::ZERO,
            queue_limit_bytes: usize::MAX,
            loss: LossConfig::None,
        }
    }

    /// Set the drop-tail queue limit in bytes.
    pub fn with_queue_bytes(mut self, bytes: usize) -> Self {
        self.queue_limit_bytes = bytes;
        self
    }

    /// Set the random loss model.
    pub fn with_loss(mut self, loss: LossConfig) -> Self {
        self.loss = loss;
        self
    }

    /// Set a simple Bernoulli loss rate (e.g. `0.01` for 1%).
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        self.loss = LossConfig::from_rate(rate);
        self
    }
}

/// Counters describing what a link has done so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and delivered onto the wire.
    pub packets_sent: u64,
    /// Wire bytes (payload + per-packet overhead) delivered onto the wire.
    pub bytes_sent: u64,
    /// Packets dropped because the drop-tail queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by the random loss model.
    pub dropped_loss: u64,
}

impl LinkStats {
    /// All packets dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue + self.dropped_loss
    }
}

/// Outcome of offering a packet to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The packet will arrive at the far end at the given time.
    Delivered(SimTime),
    /// The packet was dropped because the queue was full.
    DroppedQueue,
    /// The packet was dropped by the random loss model.
    DroppedLoss,
}

/// A unidirectional link instance.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    loss: LossModel,
    /// The time at which the transmitter finishes serializing everything
    /// currently queued. Backlog is derived from this.
    next_free: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Create a link from its configuration, drawing loss randomness from the
    /// provided stream.
    pub fn new(config: LinkConfig, rng: SimRng) -> Self {
        let loss = LossModel::new(config.loss.clone(), rng);
        Link {
            config,
            loss,
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Current queue backlog in bytes, derived from the transmitter's
    /// busy-until time.
    pub(crate) fn backlog_bytes(&self, now: SimTime) -> usize {
        if self.config.rate_bps == 0 {
            return 0;
        }
        let busy = self.next_free.saturating_since(now);
        // bytes = rate_bps * seconds / 8
        ((self.config.rate_bps as u128 * busy.as_micros() as u128) / 8_000_000) as usize
    }

    /// Offer a packet to the link at time `now`.
    pub fn transmit(&mut self, now: SimTime, packet: &Packet) -> TransmitOutcome {
        let size = packet.wire_size();

        // Drop-tail admission check against the current backlog.
        if self.config.rate_bps != 0 {
            let backlog = self.backlog_bytes(now);
            if backlog + size > self.config.queue_limit_bytes {
                self.stats.dropped_queue += 1;
                return TransmitOutcome::DroppedQueue;
            }
        }

        // Random loss: the packet still occupies its slot in the queue (it is
        // "transmitted" and lost in flight), matching dummynet's plr behaviour.
        let tx_start = now.max(self.next_free);
        let tx_time = SimDuration::transmission_time(size, self.config.rate_bps);
        let tx_end = tx_start + tx_time;
        self.next_free = tx_end;

        if self.loss.should_drop() {
            self.stats.dropped_loss += 1;
            return TransmitOutcome::DroppedLoss;
        }

        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size as u64;
        TransmitOutcome::Delivered(tx_end + self.config.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PER_PACKET_OVERHEAD};

    fn pkt(len: usize) -> Packet {
        Packet::new(NodeId(0), NodeId(1), vec![0u8; len])
    }

    #[test]
    fn ideal_link_delivers_instantly() {
        let mut link = Link::new(LinkConfig::ideal(), SimRng::new(0));
        let now = SimTime::from_millis(5);
        match link.transmit(now, &pkt(1000)) {
            TransmitOutcome::Delivered(t) => assert_eq!(t, now),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(link.stats().packets_sent, 1);
    }

    #[test]
    fn serialization_and_propagation_delay() {
        // 1 Mbps, 10 ms delay: a packet of 1460+40=1500 bytes takes 12 ms to
        // serialize and arrives 22 ms after an idle start.
        let cfg = LinkConfig::new(1_000_000, SimDuration::from_millis(10));
        let mut link = Link::new(cfg, SimRng::new(0));
        let out = link.transmit(SimTime::ZERO, &pkt(1500 - PER_PACKET_OVERHEAD));
        assert_eq!(out, TransmitOutcome::Delivered(SimTime::from_millis(22)));
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let cfg = LinkConfig::new(1_000_000, SimDuration::ZERO).with_queue_bytes(1 << 20);
        let mut link = Link::new(cfg, SimRng::new(0));
        let p = pkt(1500 - PER_PACKET_OVERHEAD);
        let a = link.transmit(SimTime::ZERO, &p);
        let b = link.transmit(SimTime::ZERO, &p);
        assert_eq!(a, TransmitOutcome::Delivered(SimTime::from_millis(12)));
        assert_eq!(b, TransmitOutcome::Delivered(SimTime::from_millis(24)));
        assert_eq!(link.backlog_bytes(SimTime::ZERO), 3000);
        // After everything drains the backlog returns to zero.
        assert_eq!(link.backlog_bytes(SimTime::from_millis(24)), 0);
    }

    #[test]
    fn drop_tail_queue_overflow() {
        // Queue of 3000 bytes: the third back-to-back 1500-byte packet must be
        // dropped because two are already backlogged.
        let cfg = LinkConfig::new(1_000_000, SimDuration::ZERO).with_queue_bytes(3000);
        let mut link = Link::new(cfg, SimRng::new(0));
        let p = pkt(1500 - PER_PACKET_OVERHEAD);
        assert!(matches!(
            link.transmit(SimTime::ZERO, &p),
            TransmitOutcome::Delivered(_)
        ));
        assert!(matches!(
            link.transmit(SimTime::ZERO, &p),
            TransmitOutcome::Delivered(_)
        ));
        assert_eq!(
            link.transmit(SimTime::ZERO, &p),
            TransmitOutcome::DroppedQueue
        );
        assert_eq!(link.stats().dropped_queue, 1);
    }

    #[test]
    fn random_loss_counts() {
        let cfg = LinkConfig::ideal().with_loss(LossConfig::Periodic { every: 2 });
        let mut link = Link::new(cfg, SimRng::new(0));
        let p = pkt(100);
        let outcomes: Vec<TransmitOutcome> =
            (0..4).map(|_| link.transmit(SimTime::ZERO, &p)).collect();
        assert!(matches!(outcomes[0], TransmitOutcome::Delivered(_)));
        assert_eq!(outcomes[1], TransmitOutcome::DroppedLoss);
        assert!(matches!(outcomes[2], TransmitOutcome::Delivered(_)));
        assert_eq!(outcomes[3], TransmitOutcome::DroppedLoss);
        assert_eq!(link.stats().dropped_loss, 2);
        assert_eq!(link.stats().packets_sent, 2);
    }

    #[test]
    fn queueing_delay_reflects_backlog() {
        let cfg = LinkConfig::new(8_000_000, SimDuration::ZERO).with_queue_bytes(1 << 20);
        let mut link = Link::new(cfg, SimRng::new(0));
        // 8 Mbps => 1000 bytes take 1 ms.
        let p = pkt(1000 - PER_PACKET_OVERHEAD);
        link.transmit(SimTime::ZERO, &p);
        assert_eq!(link.backlog_bytes(SimTime::ZERO), 1000);
        assert_eq!(link.backlog_bytes(SimTime::from_millis(1)), 0);
    }
}
