//! Figure 6: relative CPU cost of the application-level encoding layers
//! (§8.1).
//!
//! Figure 6(a) compares the processing cost of COBS framing over standard
//! TCP and uCOBS over uTCP against a raw TCP transfer, at several loss
//! rates; Figure 6(b) compares uTLS against stream TLS. The paper measures
//! user/kernel CPU time on its testbed; here we measure the wall-clock time
//! this process spends inside the endpoint code (send-side encoding and
//! receive-side decoding/scanning) and inside the transport simulation, and
//! report the same normalised ratios. Absolute numbers depend on the
//! machine, but the *relative* costs — what the paper reports — carry over.

use minion_core::{MinionConfig, Protocol};
use minion_simnet::{LinkConfig, LossConfig, SimDuration, Table};
use minion_stack::{Reaction, Sim};
use std::time::{Duration, Instant};

/// Measured cost of one transfer run.
#[derive(Clone, Debug)]
pub struct CpuSample {
    /// Which protocol was measured.
    pub protocol: Protocol,
    /// Loss rate applied to the path.
    pub loss_rate: f64,
    /// Seconds of host CPU spent in the sender's application-level code.
    pub sender_app_seconds: f64,
    /// Seconds of host CPU spent in the receiver's application-level code.
    pub receiver_app_seconds: f64,
    /// Seconds spent driving the transport/stack simulation (the "kernel"
    /// share of the cost).
    pub stack_seconds: f64,
    /// Bytes of application payload delivered.
    pub bytes_delivered: u64,
}

/// Transfer `total_bytes` of `datagram_size`-byte datagrams over the given
/// protocol at the given loss rate, measuring where the time goes. `config`
/// picks the bar: [`MinionConfig::default`] for the unordered variants,
/// [`MinionConfig::without_utcp`] for "COBS over standard TCP", "stream TLS"
/// and the raw-TCP baseline.
fn run_transfer(
    protocol: Protocol,
    config: &MinionConfig,
    loss_rate: f64,
    total_bytes: u64,
    datagram_size: usize,
    seed: u64,
) -> CpuSample {
    assert!(
        protocol != Protocol::Udp,
        "figure 6 measures the TCP-borne protocols"
    );
    let mut sim = Sim::new(seed);
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    sim.link(
        a,
        b,
        LinkConfig::new(20_000_000, SimDuration::from_millis(30))
            .with_queue_bytes(256 * 1024)
            .with_loss(LossConfig::from_rate(loss_rate)),
    );

    let (mut tx, mut rx) = crate::connect_pair(&mut sim, protocol, config, a, b, 7000);

    let mut sender_app = Duration::ZERO;
    let mut receiver_app = Duration::ZERO;
    let mut delivered = 0u64;
    let datagram = vec![0xA5u8; datagram_size];
    let total_datagrams = total_bytes / datagram_size as u64;
    let mut sent = 0u64;
    let started = Instant::now();
    let deadline = sim.now() + SimDuration::from_secs(600);
    let done = sim.drive(deadline, |sim| {
        // Sender: keep the pipe reasonably full.
        let t = Instant::now();
        while sent < total_datagrams && tx.send_buffer_free(sim.host(a)) > 4 * datagram.len() {
            if tx.send_datagram(sim.host_mut(a), &datagram).is_err() {
                break;
            }
            sent += 1;
        }
        sender_app += t.elapsed();

        let t = Instant::now();
        for d in rx.recv(sim.host_mut(b)) {
            delivered += d.payload.len() as u64;
        }
        receiver_app += t.elapsed();
        if delivered < total_datagrams * datagram.len() as u64 {
            Reaction::Wait(None)
        } else {
            Reaction::Done
        }
    });
    assert!(done, "transfer did not complete");
    // The loop's own time is what the two applications did not spend.
    let stack = started.elapsed().saturating_sub(sender_app + receiver_app);

    CpuSample {
        protocol,
        loss_rate,
        sender_app_seconds: sender_app.as_secs_f64(),
        receiver_app_seconds: receiver_app.as_secs_f64(),
        stack_seconds: stack.as_secs_f64(),
        bytes_delivered: delivered,
    }
}

/// Figure 6(a): COBS / uCOBS processing cost normalised to raw TCP.
pub fn run_fig6a(loss_rates: &[f64], total_bytes: u64, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 6(a): processing cost normalised to raw TCP",
        &[
            "loss_rate",
            "tcp_send",
            "cobs_send",
            "ucobs_send",
            "tcp_recv",
            "cobs_recv",
            "ucobs_recv",
        ],
    );
    let (unordered, ordered) = (MinionConfig::default(), MinionConfig::without_utcp());
    for &loss in loss_rates {
        let run = |protocol, config| run_transfer(protocol, config, loss, total_bytes, 1200, seed);
        let tcp = run(Protocol::TcpTlv, &ordered);
        let cobs = run(Protocol::Ucobs, &ordered);
        let ucobs = run(Protocol::Ucobs, &unordered);
        // Normalise each side's application cost (plus its share of stack
        // cost) to the raw-TCP sender/receiver cost.
        let tcp_send = tcp.sender_app_seconds + tcp.stack_seconds / 2.0;
        let tcp_recv = tcp.receiver_app_seconds + tcp.stack_seconds / 2.0;
        let row = [
            loss,
            1.0,
            (cobs.sender_app_seconds + cobs.stack_seconds / 2.0) / tcp_send,
            (ucobs.sender_app_seconds + ucobs.stack_seconds / 2.0) / tcp_send,
            1.0,
            (cobs.receiver_app_seconds + cobs.stack_seconds / 2.0) / tcp_recv,
            (ucobs.receiver_app_seconds + ucobs.stack_seconds / 2.0) / tcp_recv,
        ];
        table.add_row_f64(&row);
    }
    table
}

/// Figure 6(b): uTLS processing cost normalised to stream TLS.
pub fn run_fig6b(loss_rates: &[f64], total_bytes: u64, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 6(b): processing cost normalised to TLS",
        &[
            "loss_rate",
            "tls_send",
            "utls_send",
            "tls_recv",
            "utls_recv",
        ],
    );
    let (unordered, ordered) = (MinionConfig::default(), MinionConfig::without_utcp());
    for &loss in loss_rates {
        let run = |config| run_transfer(Protocol::Utls, config, loss, total_bytes, 1200, seed);
        let tls = run(&ordered);
        let utls = run(&unordered);
        let row = [
            loss,
            1.0,
            utls.sender_app_seconds / tls.sender_app_seconds.max(1e-9),
            1.0,
            utls.receiver_app_seconds / tls.receiver_app_seconds.max(1e-9),
        ];
        table.add_row_f64(&row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_complete_and_account_time() {
        let s = run_transfer(
            Protocol::Ucobs,
            &MinionConfig::default(),
            0.0,
            120_000,
            1200,
            3,
        );
        assert_eq!(s.bytes_delivered, 120_000);
        assert!(s.sender_app_seconds + s.receiver_app_seconds + s.stack_seconds > 0.0);
        let ordered = MinionConfig::without_utcp();
        for protocol in [Protocol::TcpTlv, Protocol::Utls] {
            let t = run_transfer(protocol, &ordered, 0.01, 120_000, 1200, 3);
            assert_eq!(t.bytes_delivered, 120_000, "{protocol:?}");
        }
    }

    #[test]
    fn fig6a_table_shape() {
        let table = run_fig6a(&[0.01], 120_000, 4);
        assert_eq!(table.row_count(), 1);
        let csv = table.to_csv();
        assert!(csv.starts_with("loss_rate,"));
    }
}
