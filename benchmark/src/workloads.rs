//! The six workload shapes and one iteration of each, through the
//! top-level API only: `engine::LoadScenario`/`LoadReport`, `stack::Sim`,
//! `simnet::LinkConfig`, `core::{MinionConfig, UcobsSocket, UtlsSocket}`.
//! All traffic crosses the in-process simulated link: no sockets, no
//! loopback.
//!
//! Shapes are literal. To change how long a run takes, change
//! `spec::Workload::iterations`, never a shape.

use minion_core::{Datagram, MinionConfig, UcobsSocket, UtlsSocket};
use minion_engine::{Absorb, Histogram, LoadReport, LoadScenario};
use minion_simnet::{LinkConfig, LossConfig, NodeId, SimDuration, SimTime};
use minion_stack::{Host, Sim, SocketAddr};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which protocol a datagram workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    Ucobs,
    Utls,
}

/// One closed-loop client sending datagrams to one receiver over a duplex
/// link, as in the paper's Fig. 6 and Fig. 10 set-ups.
#[derive(Clone, Copy, Debug)]
pub struct DgramShape {
    pub protocol: Protocol,
    pub rate_bps: u64,
    pub rtt_ms: u64,
    pub queue_bytes: usize,
    /// Bernoulli loss rate, each direction.
    pub loss: f64,
    pub datagrams: usize,
    pub datagram_len: usize,
    /// Every `n`-th datagram goes out at priority 7 (`None`: all at 0).
    pub high_priority_every: Option<usize>,
    /// Datagrams undelivered at this virtual time count as failed.
    pub deadline: SimDuration,
}

pub enum Shape {
    Engine(LoadScenario),
    Dgram(DgramShape),
}

/// The literal shape of a workload (the engine shapes carry `seed`; a
/// datagram shape is seeded per iteration).
///
/// An engine scenario's streams are a function of its flow indices alone,
/// and its seed drives only the loss model, so without loss every seed
/// would run byte-identical inputs. `first_flow` slides the window of flow
/// indices with the seed: same flow count, same record sizes on average
/// (total payload moves by under 0.1 %), different bytes and boundaries.
/// It stays below 1000 so per-flow streams stay under the send buffer, and
/// it is hashed because record sizes repeat with a period in the flow
/// index: consecutive offsets over a run's iterations would cover whole
/// periods and pool to the same totals at every seed.
pub fn shape(workload: &str, seed: u64) -> Shape {
    let first_flow = (splitmix64(seed) % 1000) as usize;
    let fig6_path = DgramShape {
        protocol: Protocol::Ucobs,
        rate_bps: 20_000_000,
        rtt_ms: 60,
        queue_bytes: 256 * 1024,
        loss: 0.01,
        datagrams: 4000,
        datagram_len: 1200,
        high_priority_every: None,
        deadline: SimDuration::from_secs(120),
    };
    match workload {
        // Per-flow streams stay near 226 KB: `SimTransport::write` panics
        // with `BufferFull` past the 256 KiB send buffer (README, defect 1).
        "bulk_clean" => Shape::Engine(LoadScenario {
            flows: 64,
            records_per_flow: 160,
            record_len: 1400,
            rtt_ms: 10,
            rate_bps: 1_000_000_000,
            queue_bytes: 4 << 20,
            loss: LossConfig::None,
            receiver_utcp: false,
            seed,
            first_flow,
            ..LoadScenario::default()
        }),
        "churn_small" => Shape::Engine(LoadScenario {
            seed,
            first_flow,
            ..LoadScenario::smoke_1k()
        }),
        "lossy_utcp" => Shape::Engine(LoadScenario {
            seed,
            first_flow,
            ..LoadScenario::obs_comparison(true)
        }),
        "dgram_ucobs" => Shape::Dgram(fig6_path),
        "dgram_utls" => Shape::Dgram(DgramShape {
            protocol: Protocol::Utls,
            datagrams: 2000,
            ..fig6_path
        }),
        // 800 datagrams, not more: past ~1000 the uTCP priority sender
        // stalls for good (README, defect 2); `failed` is the tripwire.
        "prio_send" => Shape::Dgram(DgramShape {
            protocol: Protocol::Ucobs,
            rate_bps: 2_000_000,
            rtt_ms: 60,
            queue_bytes: 32 * 1024,
            loss: 0.0,
            datagrams: 800,
            datagram_len: 1000,
            high_priority_every: Some(100),
            deadline: SimDuration::from_secs(60),
        }),
        other => panic!("unknown workload {other:?}"),
    }
}

/// What one iteration did, as a user of the system sees it.
#[derive(Default)]
pub struct Outcome {
    /// Records/datagrams offered.
    pub attempted: u64,
    /// Offered but not delivered exactly once, byte-identical, by the
    /// virtual deadline.
    pub failed: u64,
    /// Verified application payload bytes delivered.
    pub payload_bytes: u64,
    /// Virtual time at which the last record was delivered.
    pub virtual_us: u64,
    /// Bytes put on the simulated links, both directions.
    pub wire_bytes: u64,
    /// Send-enqueue to app-deliver, virtual nanoseconds.
    pub delay: Histogram,
}

impl Outcome {
    pub fn delivered(&self) -> u64 {
        self.attempted - self.failed
    }

    /// An iteration that panicked inside the library: every record failed.
    fn all_failed(attempted: u64) -> Outcome {
        Outcome {
            attempted,
            failed: attempted,
            ..Outcome::default()
        }
    }
}

/// Sum of several iterations' outcomes (delays pooled).
impl Absorb for Outcome {
    fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.payload_bytes += other.payload_bytes;
        self.virtual_us += other.virtual_us;
        self.wire_bytes += other.wire_bytes;
        self.delay.absorb(&other.delay);
    }
}

/// Hooks the traced run hangs its spans on; the timed run uses [`NoProbe`],
/// which compiles to nothing.
pub trait Probe {
    fn enter(&mut self, name: &'static str);
    fn exit(&mut self);
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One datagram iteration's inputs, generated from its seed.
struct Inputs {
    /// Datagram `s` carries its sequence number, then
    /// `datagram_bytes[s % 256..]`: position-dependent, cheap to build and
    /// cheap to check.
    datagram_bytes: Vec<u8>,
}

/// The benchmark's own generator, so inputs do not move when the library's
/// `SimRng` does: the `n`-th output of splitmix64 seeded with `s` is
/// `splitmix64(s + n * GOLDEN)`.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let datagram_bytes = (0..2048 / 8)
            .flat_map(|n| splitmix64(seed.wrapping_add(GOLDEN.wrapping_mul(n))).to_le_bytes())
            .collect();
        Inputs { datagram_bytes }
    }

    fn fill(&self, seq: u64, out: &mut [u8]) {
        let (head, body) = out.split_at_mut(8);
        head.copy_from_slice(&seq.to_be_bytes());
        let start = (seq % 256) as usize;
        body.copy_from_slice(&self.datagram_bytes[start..start + body.len()]);
    }

    /// The sequence number of a received datagram, if it is byte-identical
    /// to what was sent under that number.
    fn check(&self, payload: &[u8], len: usize) -> Option<u64> {
        let seq = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
        let start = (seq % 256) as usize;
        (payload.len() == len && payload[8..] == self.datagram_bytes[start..start + len - 8])
            .then_some(seq)
    }
}

/// Run an engine scenario once and verify it. `run` is `LoadScenario::run`
/// for the timed run; the traced run substitutes its timed transport.
pub fn engine_iteration(
    scenario: &LoadScenario,
    run: impl FnOnce(&LoadScenario) -> LoadReport,
) -> (Outcome, Option<LoadReport>) {
    let attempted = (scenario.flows * scenario.records_per_flow) as u64;
    // `run_on` asserts its invariants; a panic is a failed iteration, not
    // a lost benchmark run.
    match catch_unwind(AssertUnwindSafe(|| run(scenario))) {
        Ok(report) => {
            let outcome = Outcome {
                attempted,
                failed: attempted - report.records_delivered.min(attempted),
                payload_bytes: report.total_bytes,
                virtual_us: report.completion_us,
                wire_bytes: report.engine.bytes_sent,
                delay: report.obs.delivery_delay.clone(),
            };
            (outcome, Some(report))
        }
        Err(_) => (Outcome::all_failed(attempted), None),
    }
}

pub enum Socket {
    Ucobs(UcobsSocket),
    Utls(Box<UtlsSocket>),
}

impl Socket {
    fn send(&mut self, host: &mut Host, data: &[u8], priority: u32) -> bool {
        match self {
            Socket::Ucobs(s) => s.send(host, data, priority).is_ok(),
            Socket::Utls(s) => s.send_datagram(host, data).is_ok(),
        }
    }

    fn recv(&mut self, host: &mut Host) -> Vec<Datagram> {
        match self {
            Socket::Ucobs(s) => s.recv(host),
            Socket::Utls(s) => s.recv(host),
        }
    }

    fn send_buffer_free(&self, host: &Host) -> usize {
        match self {
            Socket::Ucobs(s) => s.send_buffer_free(host),
            Socket::Utls(s) => s.send_buffer_free(host),
        }
    }

    fn close(&mut self, host: &mut Host) {
        // Closing an already-closed connection is not an error here.
        let _ = match self {
            Socket::Ucobs(s) => s.close(host),
            Socket::Utls(s) => s.close(host),
        };
    }
}

/// The world of a finished datagram iteration, kept so the traced run can
/// read each layer's own statistics out of it.
pub struct DgramWorld {
    pub sim: Sim,
    pub sender: NodeId,
    pub receiver: NodeId,
    pub tx: Socket,
    pub rx: Socket,
    /// Delivery delay of the high-priority class alone (virtual ns).
    pub high_priority_delay: Histogram,
    /// Delivery delay of the ordinary class alone (virtual ns).
    pub low_priority_delay: Histogram,
}

const PORT: u16 = 7000;
const TICK: SimDuration = SimDuration::from_millis(5);

fn connect(shape: &DgramShape, seed: u64) -> DgramWorld {
    let mut sim = Sim::new(seed);
    let sender = sim.add_host("sender");
    let receiver = sim.add_host("receiver");
    sim.link(
        sender,
        receiver,
        LinkConfig::new(shape.rate_bps, SimDuration::from_millis(shape.rtt_ms / 2))
            .with_queue_bytes(shape.queue_bytes)
            .with_loss_rate(shape.loss),
    );
    let config = MinionConfig::default().with_seed(seed);
    let remote = SocketAddr::new(receiver, PORT);
    let now = sim.now();
    let (tx, rx) = match shape.protocol {
        Protocol::Ucobs => {
            UcobsSocket::listen(sim.host_mut(receiver), PORT, &config).expect("fresh host");
            let tx = UcobsSocket::connect(sim.host_mut(sender), remote, &config, now);
            let rx = accept(&mut sim, |sim| {
                UcobsSocket::accept(sim.host_mut(receiver), PORT)
            });
            (Socket::Ucobs(tx), Socket::Ucobs(rx))
        }
        Protocol::Utls => {
            UtlsSocket::listen(sim.host_mut(receiver), PORT, &config).expect("fresh host");
            let mut tx = UtlsSocket::connect(sim.host_mut(sender), remote, &config, now);
            let mut rx = accept(&mut sim, |sim| {
                UtlsSocket::accept(sim.host_mut(receiver), PORT, &config)
            });
            // Drive the TLS handshake; a lost flight needs an RTO to recover.
            let mut rounds = 0;
            while !(tx.is_established() && rx.is_established()) {
                rounds += 1;
                assert!(rounds < 400, "uTLS handshake did not complete");
                let _ = rx.recv(sim.host_mut(receiver));
                let _ = tx.recv(sim.host_mut(sender));
                sim.run_for(SimDuration::from_millis(20));
            }
            (Socket::Utls(Box::new(tx)), Socket::Utls(Box::new(rx)))
        }
    };
    DgramWorld {
        sim,
        sender,
        receiver,
        tx,
        rx,
        high_priority_delay: Histogram::new(),
        low_priority_delay: Histogram::new(),
    }
}

/// Run the sim until the listener has a connection to accept (a lost SYN
/// needs its ~1 s retransmission).
fn accept<S>(sim: &mut Sim, mut try_accept: impl FnMut(&mut Sim) -> Option<S>) -> S {
    for _ in 0..400 {
        sim.run_for(SimDuration::from_millis(20));
        if let Some(socket) = try_accept(sim) {
            return socket;
        }
    }
    panic!("connection was not accepted within 8 virtual seconds");
}

/// One datagram session on a fresh world: connect, pump until everything
/// is delivered or the deadline passes, close. The client tops up the send
/// buffer whenever more than four datagrams of space are free, advances a
/// 5 ms virtual tick, and drains the receiver.
pub fn dgram_iteration<P: Probe>(
    shape: &DgramShape,
    seed: u64,
    probe: &mut P,
) -> (Outcome, Option<DgramWorld>) {
    let attempted = shape.datagrams as u64;
    match catch_unwind(AssertUnwindSafe(|| pump(shape, seed, probe))) {
        Ok((outcome, world)) => (outcome, Some(world)),
        Err(_) => (Outcome::all_failed(attempted), None),
    }
}

fn pump<P: Probe>(shape: &DgramShape, seed: u64, probe: &mut P) -> (Outcome, DgramWorld) {
    let inputs = Inputs::generate(seed);
    let mut world = connect(shape, seed);
    let w = &mut world;
    let (sim, sender, receiver) = (&mut w.sim, w.sender, w.receiver);
    let n = shape.datagrams;
    let len = shape.datagram_len;
    let deadline = sim.now() + shape.deadline;
    let is_high = |seq: usize| shape.high_priority_every.is_some_and(|k| seq % k == k - 1);

    let mut payload = vec![0u8; len];
    let mut sent_at: Vec<SimTime> = Vec::with_capacity(n);
    let mut deliveries = vec![0u32; n];
    let mut delivered_once = 0usize;
    let mut delay = Histogram::new();
    let mut last_delivery = sim.now();

    while delivered_once < n && sim.now() < deadline {
        probe.enter("core.send");
        let now = sim.now();
        while sent_at.len() < n && w.tx.send_buffer_free(sim.host(sender)) > 4 * len {
            let seq = sent_at.len();
            inputs.fill(seq as u64, &mut payload);
            let priority = if is_high(seq) { 7 } else { 0 };
            if !w.tx.send(sim.host_mut(sender), &payload, priority) {
                break;
            }
            sent_at.push(now);
        }
        probe.exit();

        probe.enter("stack.sim.run");
        sim.run_for(TICK);
        probe.exit();

        probe.enter("core.recv");
        let now = sim.now();
        for datagram in w.rx.recv(sim.host_mut(receiver)) {
            let Some(seq) = inputs
                .check(&datagram.payload, len)
                .map(|seq| seq as usize)
                .filter(|&seq| seq < sent_at.len())
            else {
                // Altered or foreign: its sequence number stays undelivered.
                continue;
            };
            deliveries[seq] += 1;
            if deliveries[seq] > 1 {
                continue;
            }
            delivered_once += 1;
            last_delivery = now;
            let ns = (now - sent_at[seq]).as_micros() * 1000;
            delay.record(ns);
            if is_high(seq) {
                w.high_priority_delay.record(ns);
            } else {
                w.low_priority_delay.record(ns);
            }
        }
        probe.exit();
    }

    // Links count only what they carried; the FIN exchange below is paid
    // for in wall time but, as in the engine workloads, not counted here.
    let wire_bytes = [(sender, receiver), (receiver, sender)]
        .iter()
        .filter_map(|&(a, b)| sim.link_stats(a, b))
        .map(|stats| stats.bytes_sent)
        .sum();

    probe.enter("stack.sim.run");
    w.tx.close(sim.host_mut(sender));
    w.rx.close(sim.host_mut(receiver));
    sim.run_for(SimDuration::from_secs(1));
    probe.exit();

    // Exactly once: a datagram delivered twice, never, or altered fails.
    let ok = deliveries.iter().filter(|&&count| count == 1).count() as u64;
    let outcome = Outcome {
        attempted: n as u64,
        failed: n as u64 - ok,
        payload_bytes: ok * len as u64,
        virtual_us: last_delivery.as_micros(),
        wire_bytes,
        delay,
    };
    (outcome, world)
}

/// A small shape on the Fig. 6 path, for this crate's tests.
#[cfg(test)]
pub(crate) fn tiny_dgram_shape(protocol: Protocol) -> DgramShape {
    DgramShape {
        protocol,
        rate_bps: 20_000_000,
        rtt_ms: 60,
        queue_bytes: 256 * 1024,
        loss: 0.01,
        datagrams: 120,
        datagram_len: 1200,
        high_priority_every: None,
        deadline: SimDuration::from_secs(60),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny_dgram_shape as tiny;

    #[test]
    fn every_datagram_arrives_exactly_once_and_intact() {
        for protocol in [Protocol::Ucobs, Protocol::Utls] {
            let (outcome, world) = dgram_iteration(&tiny(protocol), 3, &mut NoProbe);
            assert!(world.is_some());
            assert_eq!(outcome.failed, 0, "{protocol:?}");
            assert_eq!(outcome.attempted, 120);
            assert_eq!(outcome.payload_bytes, 120 * 1200);
            assert_eq!(outcome.delay.count(), 120);
            assert!(
                outcome.wire_bytes > outcome.payload_bytes,
                "headers and ACKs cost something"
            );
            assert!(outcome.virtual_us > 60_000, "at least one RTT");
        }
    }

    /// A delivery cut short is counted as failed, not dropped from the
    /// denominator.
    #[test]
    fn a_truncated_delivery_counts_as_failed() {
        let cut = DgramShape {
            deadline: SimDuration::from_millis(400),
            datagrams: 2000,
            ..tiny(Protocol::Ucobs)
        };
        let (outcome, _) = dgram_iteration(&cut, 3, &mut NoProbe);
        assert_eq!(outcome.attempted, 2000);
        assert!(
            outcome.failed > 0 && outcome.failed < 2000,
            "{}",
            outcome.failed
        );
        assert_eq!(outcome.delivered() * 1200, outcome.payload_bytes);
        assert_eq!(outcome.delay.count(), outcome.delivered());
    }

    #[test]
    fn an_altered_or_foreign_datagram_does_not_verify() {
        let inputs = Inputs::generate(9);
        let mut payload = vec![0u8; 64];
        inputs.fill(300, &mut payload);
        assert_eq!(inputs.check(&payload, 64), Some(300));
        assert_eq!(inputs.check(&payload[..63], 64), None, "truncated");
        payload[40] ^= 1;
        assert_eq!(inputs.check(&payload, 64), None, "altered");
        assert_eq!(Inputs::generate(10).check(&payload, 64), None, "other seed");
        assert_eq!(inputs.check(&[1, 2, 3], 64), None, "no sequence number");
    }

    #[test]
    fn a_panicking_engine_run_fails_every_record() {
        let Shape::Engine(scenario) = shape("churn_small", 1) else {
            panic!("churn_small is an engine workload");
        };
        let (outcome, report) = engine_iteration(&scenario, |_| panic!("library assert"));
        assert!(report.is_none());
        assert_eq!(outcome.attempted, 1024 * 12);
        assert_eq!(outcome.failed, outcome.attempted);
    }

    #[test]
    fn engine_outcome_is_read_from_the_report() {
        let scenario = LoadScenario {
            seed: 5,
            ..LoadScenario::with_flows(8)
        };
        let (outcome, report) = engine_iteration(&scenario, LoadScenario::run);
        let report = report.expect("ran");
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.attempted, report.records_sent);
        assert_eq!(outcome.delay.count(), report.records_sent);
        assert!(outcome.wire_bytes > outcome.payload_bytes);
    }

    #[test]
    fn every_workload_has_a_shape() {
        for w in &crate::spec::WORKLOADS {
            let _ = shape(w.name, 1);
        }
    }
}
