//! Figure 10: send-side prioritization (§8.3).
//!
//! A synthetic application sends messages at a network-limited rate; one in
//! every 100 messages is high-priority. Over standard TCP all messages queue
//! FIFO in the send buffer, so high-priority messages see the same delay as
//! the backlog; over uTCP the high-priority writes pass the queued bulk data
//! and see far lower delay.

use minion_core::{MinionConfig, Protocol};
use minion_simnet::{Distribution, LinkConfig, SimDuration, SimTime, Table};
use minion_stack::{Reaction, Sim};

/// How long the experiment waits without a delivery before it gives up on
/// the messages still missing.
const IDLE_LIMIT: SimDuration = SimDuration::from_secs(50);

/// Delay statistics for one priority class.
#[derive(Clone, Debug)]
pub struct PriorityDelays {
    /// End-to-end delays of ordinary messages, in milliseconds.
    pub low_priority_ms: Distribution,
    /// End-to-end delays of high-priority messages, in milliseconds.
    pub high_priority_ms: Distribution,
    /// Ordinary messages sent.
    pub low_sent: usize,
    /// High-priority messages sent.
    pub high_sent: usize,
    /// The longest wait between two consecutive deliveries.
    pub longest_gap: SimDuration,
}

/// Run the prioritization experiment over uCOBS, with or without uTCP's
/// send-side extension. It ends when every message has arrived or after
/// [`IDLE_LIMIT`] of virtual time without a delivery.
fn run_priority_experiment(
    use_utcp: bool,
    messages: usize,
    message_size: usize,
    seed: u64,
) -> PriorityDelays {
    let mut sim = Sim::new(seed);
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    // A modest link so the send queue backs up (that is the point).
    sim.link(
        a,
        b,
        LinkConfig::new(2_000_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
    );
    let config = if use_utcp {
        MinionConfig::with_utcp()
    } else {
        MinionConfig::without_utcp()
    };
    let (mut tx, mut rx) = crate::connect_pair(&mut sim, Protocol::Ucobs, &config, a, b, 7100);

    let mut low = Distribution::new();
    let mut high = Distribution::new();
    let mut send_times: Vec<(SimTime, bool)> = Vec::with_capacity(messages);
    let mut last_delivery = sim.now();
    let mut longest_gap = SimDuration::ZERO;

    // The idle limit is a wake time, so the run ends without a deadline.
    sim.drive(SimTime::MAX, |sim| {
        let now = sim.now();
        // Sender: keep the send buffer topped up, network-limited.
        while send_times.len() < messages && tx.send_buffer_free(sim.host(a)) > 4 * message_size {
            let sent = send_times.len();
            let high_priority = sent % 100 == 99;
            let mut payload = vec![0u8; message_size];
            payload[..8].copy_from_slice(&(sent as u64).to_be_bytes());
            payload[8] = high_priority as u8;
            let priority = if high_priority { 7 } else { 0 };
            if tx.send(sim.host_mut(a), &payload, priority).is_err() {
                break;
            }
            send_times.push((now, high_priority));
        }
        for d in rx.recv(sim.host_mut(b)) {
            if d.payload.len() < 9 {
                continue;
            }
            if low.len() + high.len() > 0 {
                longest_gap = longest_gap.max(now - last_delivery);
            }
            last_delivery = now;
            let id = u64::from_be_bytes(d.payload[..8].try_into().expect("8 bytes")) as usize;
            let (sent_at, high_priority) = send_times[id];
            let delay_ms = (now - sent_at).as_millis_f64();
            if high_priority {
                high.add(delay_ms);
            } else {
                low.add(delay_ms);
            }
        }
        let give_up = last_delivery + IDLE_LIMIT;
        if low.len() + high.len() == messages || now >= give_up {
            Reaction::Done
        } else {
            Reaction::Wait(Some(give_up))
        }
    });

    let high_sent = send_times.iter().filter(|&&(_, high)| high).count();
    PriorityDelays {
        low_priority_ms: low,
        high_priority_ms: high,
        low_sent: send_times.len() - high_sent,
        high_sent,
        longest_gap,
    }
}

/// Render Figure 10's data: per priority class, TCP vs uTCP, how many
/// messages arrived of those sent and their delay statistics.
pub fn run(messages: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 10: end-to-end message delay by priority (ms)",
        &[
            "transport",
            "class",
            "delivered",
            "sent",
            "mean_ms",
            "p50_ms",
            "p95_ms",
        ],
    );
    for (label, use_utcp) in [("tcp", false), ("utcp", true)] {
        let delays = run_priority_experiment(use_utcp, messages, 1000, seed);
        for (class, mut d, sent) in [
            ("low", delays.low_priority_ms, delays.low_sent),
            ("high", delays.high_priority_ms, delays.high_sent),
        ] {
            table.add_row(vec![
                label.to_string(),
                class.to_string(),
                d.len().to_string(),
                sent.to_string(),
                format!("{:.1}", d.mean()),
                format!("{:.1}", d.median()),
                format!("{:.1}", d.quantile(0.95)),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_priority_messages_jump_the_queue_only_with_utcp() {
        let utcp = run_priority_experiment(true, 600, 1000, 2);
        let tcp = run_priority_experiment(false, 600, 1000, 2);
        assert!(utcp.high_priority_ms.len() >= 4);
        assert!(tcp.high_priority_ms.len() >= 4);
        // With uTCP, high-priority messages see much lower delay than bulk.
        assert!(
            utcp.high_priority_ms.mean() < utcp.low_priority_ms.mean() * 0.6,
            "utcp: high {} vs low {}",
            utcp.high_priority_ms.mean(),
            utcp.low_priority_ms.mean()
        );
        // Over standard TCP both classes queue FIFO and see similar delays.
        assert!(
            tcp.high_priority_ms.mean() > tcp.low_priority_ms.mean() * 0.5,
            "tcp: high {} vs low {}",
            tcp.high_priority_ms.mean(),
            tcp.low_priority_ms.mean()
        );
        // And uTCP's high-priority delay beats TCP's high-priority delay.
        assert!(utcp.high_priority_ms.mean() < tcp.high_priority_ms.mean());
    }

    /// ROADMAP item 1's gate on Fig. 10: both stacks deliver every message
    /// they sent, and the receiver never waits more than a second between
    /// two deliveries.
    #[test]
    fn every_message_is_delivered_without_a_long_silence() {
        for (messages, seed) in [(1500, 1), (3000, 2)] {
            for use_utcp in [false, true] {
                let d = run_priority_experiment(use_utcp, messages, 1000, seed);
                let at = format!("{messages} messages, seed {seed}, utcp {use_utcp}");
                assert_eq!(
                    (d.low_priority_ms.len(), d.high_priority_ms.len()),
                    (d.low_sent, d.high_sent),
                    "delivered, {at}"
                );
                assert_eq!(d.low_sent + d.high_sent, messages, "sent, {at}");
                assert!(
                    d.longest_gap <= SimDuration::from_secs(1),
                    "longest gap {}, {at}",
                    d.longest_gap
                );
            }
        }
    }
}
