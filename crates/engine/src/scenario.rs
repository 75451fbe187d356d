//! Multi-flow load scenarios: N concurrent uTCP flows through one engine.
//!
//! This is the workload the ROADMAP's "heavy traffic" regime needs and the
//! single-connection scenario matrix cannot express: hundreds to thousands of
//! concurrent connections multiplexed over one shared link, driven entirely
//! by readiness events and the timer queue. Each flow sends a deterministic
//! sequence of framed records; the run asserts, per flow:
//!
//! * **exactly-once delivery** — every delivered chunk equals the sent
//!   stream at its offset byte for byte, and the chunks cover the stream
//!   completely (no loss or corruption survives; a duplicate is harmless
//!   only if it, too, is identical). Each record's header carries its flow
//!   and index, so a byte-exact chunk is also one in the right flow and
//!   the right place;
//! * **in-order-only for standard receivers** — on a non-uTCP receiver
//!   each chunk starts exactly where the flow's delivered prefix ends, and
//!   none is flagged out of order.
//!
//! The driver keeps no stream. A flow's stream is a formula of (flow,
//! offset): its records are [`Record::framed`], and
//! [`minion_tcp::fill_stream`] builds any range of it. The writer builds
//! what it offers from the flow's send cursor into one scratch buffer, and
//! the flow's [`DeliveryCheck`], the one delivery check the figure apps
//! and the scenario matrix use too, compares each delivered chunk with the
//! formula at its offset and then drops it. What a flow keeps is its
//! cursor, its check (coverage, arrival fingerprint, completion stamp) and
//! its records' delivery delays.
//!
//! [`LoadScenario::run_on`] is only the readiness loop: it opens the
//! flows, steps the transport, hands each event to its flow's `FlowState`,
//! closes the flows and reports. The per-flow work lives on `FlowState`:
//! `flush` writes, `on_lifecycle` takes the client's edges and window
//! samples, `on_chunk` hands each chunk to the check and stamps the
//! records it completes, and `metrics` is the flow's report row, its delay
//! quantiles read exactly from its records.
//!
//! [`verify_load`] additionally runs the scenario twice and asserts the two
//! [`LoadReport`]s are identical — the determinism acceptance gate.
//!
//! ## One world per scenario
//!
//! Every flow of a scenario shares one [`SimTransport`]: one link, one
//! queue, one loss process, as the paper's flows share one bottleneck.
//! Parallelism lives one level up, across independent runs (sweep cells,
//! replications). The one exception is [`LoadScenario::run_sharded`], kept
//! only as the repository benchmark's `exec.shard_speedup` probe.

use crate::metrics::{EngineMetrics, FlowMetrics, LoadReport};
use crate::obs::{
    LoadObs, C_CHUNKS_DELIVERED, C_CHUNKS_OUT_OF_ORDER, C_RETRANSMIT_EDGES, C_RTO_EDGES,
};
use crate::transport::{SimTransport, Transport, TransportChunk};
use minion_exec::Executor;
use minion_obs::{quantile_rank, CcObs, NonDeterministic, StreamSink, TraceEvent, TraceKind};
use minion_simnet::{LossConfig, SimDuration, SimTime};
use minion_stack::FlowId;
use minion_tcp::{
    fill_stream, CcAlgorithm, ConnEvent, DeliveryCheck, Record, SendBuffer, Violation,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Record a window sample into the window telemetry; any other event is
/// ignored.
fn record_window_sample(cc: &mut CcObs, ev: ConnEvent) {
    match ev {
        ConnEvent::Window { at, cwnd, ssthresh } => cc.record_window(ns_of(at), cwnd, ssthresh),
        ConnEvent::Cut {
            depth,
            recovery: Some(lasted),
        } => cc.record_recovery(lasted.as_micros().saturating_mul(1_000), depth),
        ConnEvent::Cut { depth, .. } => cc.record_cut_depth(depth),
        _ => {}
    }
}

/// Nanoseconds of backend time (virtual µs on sim, monotonic µs on os —
/// both normalized to ns so the two backends' histograms share units).
fn ns_of(t: SimTime) -> u64 {
    t.as_micros().saturating_mul(1_000)
}

/// The TCP port load-scenario servers listen on.
pub(crate) const LOAD_PORT: u16 = 7000;

/// The most the writer offers a transport in one call: two of the send
/// buffer's storage pieces, so every write starts on a piece boundary and
/// the buffer holds the stream in the same pieces one whole-stream write
/// would leave.
const WRITE_SPAN: usize = 2 * SendBuffer::STREAM_PIECE;

/// Flows per shard of [`LoadScenario::run_sharded`]. Fixed (never derived
/// from the thread count), so the shards are the same however many workers
/// run them.
const SHARD_FLOWS: usize = 128;

/// Configuration of one load scenario.
#[derive(Clone, Debug)]
pub struct LoadScenario {
    /// Number of concurrent flows.
    pub flows: usize,
    /// Framed records each flow sends.
    pub records_per_flow: usize,
    /// Nominal record payload size (individual records vary around it).
    pub record_len: usize,
    /// Round-trip propagation time in milliseconds.
    pub rtt_ms: u64,
    /// Bottleneck rate in bits/second (shared by all flows, each way).
    pub rate_bps: u64,
    /// Drop-tail queue of the shared link, in bytes.
    pub queue_bytes: usize,
    /// Loss process on the data direction (toward the receiver).
    pub loss: LossConfig,
    /// Whether the receiving endpoint runs uTCP's unordered receive.
    pub receiver_utcp: bool,
    /// Congestion-control algorithm both endpoints run.
    pub cc: CcAlgorithm,
    /// Scenario seed (drives loss models and everything derived).
    pub seed: u64,
    /// Virtual-time budget; the run panics if flows are incomplete at it.
    pub deadline: SimDuration,
    /// Spill every trace event to this JSONL path through a
    /// zero-drop [`StreamSink`] (the ring still records in parallel, so
    /// in-memory consumers are unaffected), in virtual-time order, closed
    /// by the sink's trailer. `None` disables spilling.
    pub trace_stream: Option<String>,
    /// Global index of this scenario's first flow: flow `i` builds, traces
    /// and reports as flow `first_flow + i`, so a scenario can stand for a
    /// window of a larger flow population. `0` for a whole scenario.
    pub first_flow: usize,
}

impl Default for LoadScenario {
    fn default() -> Self {
        LoadScenario {
            flows: 64,
            records_per_flow: 12,
            record_len: 160,
            rtt_ms: 40,
            rate_bps: 100_000_000,
            queue_bytes: 1 << 20,
            loss: LossConfig::None,
            receiver_utcp: true,
            cc: CcAlgorithm::NewReno,
            seed: 0x10ad_5eed,
            deadline: SimDuration::from_secs(300),
            trace_stream: None,
            first_flow: 0,
        }
    }
}

impl LoadScenario {
    /// A scenario with the given flow count and defaults otherwise.
    pub fn with_flows(flows: usize) -> Self {
        LoadScenario {
            flows,
            ..LoadScenario::default()
        }
    }

    /// The 1024-flow acceptance scenario (the "1k-flow load scenario").
    pub fn smoke_1k() -> Self {
        LoadScenario::with_flows(1024)
    }

    /// The canonical delivery-delay comparison scenario: 256 flows with
    /// heavy per-flow streams (32 × ~600-byte records, so each stream spans
    /// many segments) under 2% Bernoulli loss. Run once with a uTCP receiver
    /// and once with a standard one, this is the repo's ordered-vs-unordered
    /// delivery-delay figure: head-of-line blocking inflates the ordered
    /// receiver's mean/tail delay, while the loss pattern and recovery
    /// timeline stay identical.
    pub fn obs_comparison(receiver_utcp: bool) -> Self {
        LoadScenario {
            flows: 256,
            records_per_flow: 32,
            record_len: 600,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            receiver_utcp,
            ..LoadScenario::default()
        }
    }

    /// The flight-recorder scenario: 1024 flows × 64 records each under
    /// 2% loss. Sized so record-delivery events **alone** fill
    /// [`minion_obs::DEFAULT_TRACE_CAP`] (1024 × 64 = 65,536) and the
    /// SYN/first-byte/FIN/recovery events push the full lifecycle stream
    /// structurally past it — the run that proves a ring-only design
    /// truncates while the streaming sink keeps every event.
    pub fn flight_recorder(receiver_utcp: bool) -> Self {
        LoadScenario {
            flows: 1024,
            records_per_flow: 64,
            record_len: 200,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            receiver_utcp,
            ..LoadScenario::default()
        }
    }

    /// Human-readable label of the scenario's axes.
    pub fn label(&self) -> String {
        let loss = match &self.loss {
            LossConfig::None => "loss=none".to_string(),
            LossConfig::Bernoulli { probability } => {
                format!("loss=bern{:.0}pct", probability * 100.0)
            }
            LossConfig::GilbertElliott { .. } => "loss=burst".to_string(),
            LossConfig::Explicit { indices } => format!("loss=explicit{}", indices.len()),
        };
        let mut base = format!(
            "flows{}/{}/rtt{}ms/{}bps/{}",
            self.flows,
            loss,
            self.rtt_ms,
            self.rate_bps,
            if self.receiver_utcp { "utcp" } else { "tcp" },
        );
        // Labels predating the cc axis stay stable: only non-default
        // algorithms appear.
        if self.cc != CcAlgorithm::NewReno {
            base.push_str("/cc=");
            base.push_str(self.cc.label());
        }
        if self.first_flow > 0 {
            format!("{base}@{}", self.first_flow)
        } else {
            base
        }
    }

    /// Payload length of one record (varies deterministically around the
    /// nominal size so flows and records are tellable apart; `flow` is the
    /// **global** index).
    fn record_payload_len(&self, flow: usize, rec: usize) -> usize {
        self.record_len / 2 + (flow * 31 + rec * 131) % self.record_len.max(2)
    }

    /// The records of flow `flow` (**global** index), none yet enqueued or
    /// delivered: their stream byte ranges `[start, end)`, the units
    /// delivery delay is measured over.
    fn records(&self, flow: usize) -> Vec<RecordTrack> {
        let mut end = 0;
        (0..self.records_per_flow)
            .map(|rec| {
                let start = end;
                end += 12 + self.record_payload_len(flow, rec) as u64;
                RecordTrack {
                    start,
                    end,
                    enqueue_ns: 0,
                    delay_ns: None,
                }
            })
            .collect()
    }

    /// Run the scenario once on the simulator, asserting the per-flow
    /// invariants ([`SimTransport`] + [`LoadScenario::run_on`]).
    pub fn run(&self) -> LoadReport {
        let mut transport = SimTransport::new(self);
        self.run_on(&mut transport)
    }

    /// Run the scenario's driver loop over any [`Transport`], asserting the
    /// per-flow invariants (exactly-once delivery, in-order-only for
    /// standard receivers) against whatever stack sits behind it.
    ///
    /// Over [`SimTransport`] this is byte-identical to the pre-trait sim
    /// driver (pinned by the parallel-sweep gates). Over the OS transport
    /// (`minion-osnet`), "time" is wall-clock microseconds and the deadline
    /// is a liveness gate; the same per-chunk checks apply, the receiver is
    /// kernel TCP, so each chunk must start where the last one ended, and
    /// retransmission counters read zero.
    pub fn run_on(&self, transport: &mut dyn Transport) -> LoadReport {
        let label = match transport.backend() {
            "sim" => self.label(),
            backend => format!("{}/{}", self.label(), backend),
        };
        // An empty stream never receives a chunk, so it never completes.
        assert!(
            self.records_per_flow > 0,
            "[{label}] records_per_flow is 0: a flow needs at least one record"
        );
        let mut obs = LoadObs::default();
        let mut spill = self.open_spill(&label);

        // Open every flow and offer its whole stream; what the transport does
        // not take yet is flushed on writable edges, built into `scratch`.
        let mut scratch = vec![0u8; WRITE_SPAN];
        let mut states: Vec<FlowState> = Vec::with_capacity(self.flows);
        // Which end of which flow each transport `FlowId` (dense) names.
        let mut end_of: Vec<End> = Vec::with_capacity(2 * self.flows);
        // Pairing key for accepted server flows: the client's ephemeral port.
        let mut flow_of_key: BTreeMap<u64, usize> = BTreeMap::new();
        for flow in 0..self.flows {
            let global_flow = self.first_flow + flow;
            let (id, pair_key) = transport.connect();
            push_end(&mut end_of, id, End::Client(flow), &label);
            let clash = flow_of_key.insert(pair_key, flow);
            assert!(
                clash.is_none(),
                "[{label}] duplicate ephemeral port {pair_key}"
            );
            let now_ns = ns_of(transport.now());
            let records = self.records(global_flow);
            let ordered = !self.receiver_utcp;
            let mut state = FlowState::new(id, global_flow as u32, now_ns, records, ordered);
            obs.record_event(&mut spill, state.event(now_ns, 0, TraceKind::Syn));
            state.flush(transport, &mut scratch, now_ns, &mut obs);
            states.push(state);
        }

        // Event-driven main loop: pair accepted servers with their clients
        // by port, then hand each flow its client's edges, its server's chunks.
        let deadline = transport.now() + self.deadline;
        let mut completed = 0usize;
        while completed < self.flows && transport.now() < deadline {
            if !transport.step() {
                break;
            }
            for (sf, peer_key) in transport.take_accepted() {
                let flow = *flow_of_key
                    .get(&peer_key)
                    .unwrap_or_else(|| panic!("[{label}] unknown peer port {peer_key}"));
                states[flow].server = Some(sf);
                push_end(&mut end_of, sf, End::Server(flow), &label);
            }
            for (f, ev) in transport.take_lifecycle() {
                if let Some(&End::Client(flow)) = end_of.get(f.index()) {
                    let now_ns = ns_of(transport.now());
                    states[flow].on_lifecycle(ev, now_ns, &mut obs, &mut spill);
                }
            }
            for f in transport.take_writable() {
                if let Some(&End::Client(flow)) = end_of.get(f.index()) {
                    let now_ns = ns_of(transport.now());
                    states[flow].flush(transport, &mut scratch, now_ns, &mut obs);
                }
            }
            for f in transport.take_readable() {
                let Some(&End::Server(flow)) = end_of.get(f.index()) else {
                    continue;
                };
                let now = transport.now();
                while let Some(chunk) = transport.read(f) {
                    let state = &mut states[flow];
                    obs.counters.inc(C_CHUNKS_DELIVERED);
                    if state.check.covered().is_empty() {
                        let first_byte = state.event(ns_of(now), 0, TraceKind::FirstByte);
                        obs.record_event(&mut spill, first_byte);
                    }
                    let completes = state
                        .on_chunk(&chunk, now, |record, delay_ns| {
                            obs.delivery_delay.record(delay_ns);
                            obs.record_event(&mut spill, record);
                        })
                        .unwrap_or_else(|e| panic!("[{label}] flow {flow}: {e}"));
                    obs.coverage_ranges_high_water = obs
                        .coverage_ranges_high_water
                        .max(state.check.covered().len() as u64);
                    completed += usize::from(completes);
                }
            }
        }
        assert_eq!(
            completed,
            self.flows,
            "[{label}] {} of {} flows incomplete at {} (deadline {})",
            self.flows - completed,
            self.flows,
            transport.now(),
            deadline,
        );

        // Snapshot the runtime counters now: the report's rates describe the
        // load phase, not the FIN/TIME-WAIT close-out below.
        let engine_metrics = transport.metrics();
        // Orderly close both sides and drive the FIN exchanges.
        let fin_ns = ns_of(transport.now());
        for state in &states {
            obs.record_event(&mut spill, state.event(fin_ns, 0, TraceKind::Fin));
            transport.close(state.client);
            if let Some(sf) = state.server {
                transport.close(sf);
            }
        }
        transport.finish();
        // The close-out moves windows too; its edges are not traced.
        for (f, ev) in transport.take_lifecycle() {
            if let Some(End::Client(_)) = end_of.get(f.index()) {
                record_window_sample(&mut obs.cc_obs, ev);
            }
        }

        // A streaming run closes the file with its trailer and keeps only
        // the stream's counters.
        if let Some(s) = spill {
            obs.stream = s.finish();
        }

        self.report(label, &states, transport, engine_metrics, obs)
    }

    /// The run's zero-drop JSONL spill, when `trace_stream` is set: every
    /// lifecycle event enters the bounded ring and then this spill. The
    /// spill holds an OS writer, so it stays beside the recorder until the
    /// run ends, and only its accounting enters the report.
    fn open_spill(&self, label: &str) -> Option<StreamSink> {
        self.trace_stream.as_deref().map(|path| {
            StreamSink::create(Path::new(path))
                .unwrap_or_else(|e| panic!("[{label}] trace stream {path}: {e}"))
        })
    }

    /// The run's report: one row per flow with the transport's sender
    /// statistics, the totals, rates over the load phase (`engine` is its
    /// snapshot), and the out-of-order count the flows kept.
    fn report(
        &self,
        label: String,
        states: &[FlowState],
        transport: &dyn Transport,
        engine: EngineMetrics,
        mut obs: LoadObs,
    ) -> LoadReport {
        let per_flow: Vec<FlowMetrics> = states.iter().map(|s| s.metrics(transport)).collect();
        let total_bytes = per_flow.iter().map(|f| f.bytes_delivered).sum::<u64>();
        let completion_us = per_flow.iter().map(|f| f.completion_us).max().unwrap_or(0);
        let per_sec = |n: u64| (n * 1_000_000).checked_div(completion_us).unwrap_or(0);
        let out_of_order = per_flow.iter().map(|f| f.chunks_out_of_order).sum();
        obs.counters.add(C_CHUNKS_OUT_OF_ORDER, out_of_order);
        LoadReport {
            label,
            seed: self.seed,
            flows: self.flows as u64,
            records_sent: (self.flows * self.records_per_flow) as u64,
            records_delivered: per_flow.iter().map(|f| f.records_delivered).sum(),
            total_bytes,
            completion_us,
            goodput_bps: per_sec(total_bytes * 8),
            events_per_sim_sec: per_sec(engine.events()),
            engine,
            obs,
            phases: NonDeterministic(transport.phases()),
            per_flow,
        }
    }

    // ------------------------------------------------------------------
    // The repository benchmark's speedup probe
    // ------------------------------------------------------------------

    /// Number of `SHARD_FLOWS`-flow shards [`LoadScenario::run_sharded`]
    /// cuts this scenario into: a property of the flow count only.
    pub fn shard_count(&self) -> usize {
        self.flows.div_ceil(SHARD_FLOWS).max(1)
    }

    /// Shard `s`: flows `[s · SHARD_FLOWS, (s+1) · SHARD_FLOWS)` as a
    /// scenario of their own, with a seed derived from `(seed, s)`.
    fn shard(&self, s: usize) -> LoadScenario {
        assert!(s < self.shard_count(), "shard {s} out of range");
        let start = s * SHARD_FLOWS;
        LoadScenario {
            flows: SHARD_FLOWS.min(self.flows - start),
            first_flow: self.first_flow + start,
            seed: shard_seed(self.seed, s as u64),
            ..self.clone()
        }
    }

    /// Run the shards on `threads` executor workers and return their
    /// reports in shard order, unmerged. Each shard is a world of its own,
    /// so together they are not this scenario: [`LoadScenario::run`] is.
    /// The one caller is the repository benchmark's `exec.shard_speedup`
    /// probe, which times this at 1 and at N threads; the function goes
    /// with that probe (ROADMAP 9(5)).
    pub fn run_sharded(&self, threads: usize) -> Vec<LoadReport> {
        assert!(
            self.trace_stream.is_none(),
            "[{}] a sharded run cannot stream its trace",
            self.label()
        );
        let shards = (0..self.shard_count()).map(|s| self.shard(s)).collect();
        Executor::new(threads).run(shards, |_, shard: LoadScenario| shard.run())
    }
}

/// Derive shard `s`'s seed from the scenario seed (splitmix64-style mixing:
/// nearby shard indices get statistically unrelated seeds).
fn shard_seed(seed: u64, s: u64) -> u64 {
    let mut z = seed ^ s.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run a scenario **twice** under its fixed seed, assert byte-identical
/// reports (the determinism gate), and return the verified report.
pub fn verify_load(scenario: &LoadScenario) -> LoadReport {
    let first = scenario.run();
    let second = scenario.run();
    assert_eq!(
        first,
        second,
        "[{}] same seed must reproduce identical load metrics",
        scenario.label()
    );
    first
}

/// Delivery tracking of one framed record: its stream byte range, when the
/// transport accepted its last byte, and, once its full range has reached
/// the application, its delivery delay (ns).
struct RecordTrack {
    start: u64,
    end: u64,
    enqueue_ns: u64,
    delay_ns: Option<u64>,
}

/// Which end of which flow (index into the driver's `FlowState`s) a
/// transport [`FlowId`] names.
enum End {
    Client(usize),
    Server(usize),
}

/// Record that `id` names `end`, holding the transport to dense ids.
fn push_end(end_of: &mut Vec<End>, id: FlowId, end: End, label: &str) {
    assert_eq!(
        id.index(),
        end_of.len(),
        "[{label}] transport flow ids must be dense"
    );
    end_of.push(end);
}

/// The record holding stream byte `at` of flow `flow`, the **global**
/// index ([`LoadScenario::first_flow`] plus the local one). Record `r` spans
/// `records[r]`: a 12-byte header (flow, record index, payload length),
/// then a payload whose byte `j` is `(flow·197 + r·131 + j·31) mod 251`
/// ([`Record::framed`]).
fn record_at(flow: u32, records: &[RecordTrack], at: u64) -> Record {
    let r = records.partition_point(|t| t.end <= at);
    Record::framed(flow, r as u32, records[r].start, records[r].end)
}

/// Both ends' bookkeeping for one flow.
struct FlowState {
    client: FlowId,
    server: Option<FlowId>,
    /// Global flow index: with `records`, what [`record_at`] needs to
    /// rebuild any range of the stream.
    flow: u32,
    /// Bytes of the stream the transport has accepted; the rest is flushed
    /// on writable edges.
    sent: u64,
    /// Backend time (ns) the stream was staged, for the staging-dwell
    /// histogram.
    staged_ns: u64,
    /// The delivered stream's check: coverage, arrival fingerprint
    /// ([`FlowMetrics::fingerprint`]), out-of-order count and the backend
    /// time (µs) the stream was first delivered whole.
    check: DeliveryCheck,
    /// Per-record delivery-delay tracking, in stream order: the source of
    /// the flow's delay quantiles.
    records: Vec<RecordTrack>,
    /// Records `[0, enqueued)` have been accepted whole by the transport
    /// and carry their enqueue stamp.
    enqueued: usize,
    /// When the connection was established: an enqueue stamp earlier than
    /// this counts from here. The driver offers whole streams at connect
    /// time, so without it a lost SYN charges its ~1 s handshake RTO to
    /// every record of the flow — identically under both receiver modes —
    /// burying the ordered-vs-unordered tail separation under
    /// connection-setup noise. Delivery delay measures the transport's
    /// *delivery* path, so the clock starts no earlier than the moment data
    /// could first move.
    enqueue_floor_ns: u64,
    /// Per-flow sequence numbers of traced RTO / retransmit edges.
    rto_seq: u32,
    rtx_seq: u32,
}

impl FlowState {
    /// A flow whose stream is `records`; an `ordered` receiver must
    /// deliver it in order.
    fn new(
        client: FlowId,
        flow: u32,
        staged_ns: u64,
        records: Vec<RecordTrack>,
        ordered: bool,
    ) -> Self {
        let len = records.last().map_or(0, |r| r.end);
        FlowState {
            client,
            server: None,
            flow,
            sent: 0,
            staged_ns,
            check: DeliveryCheck::stream(len, ordered),
            records,
            enqueued: 0,
            enqueue_floor_ns: 0,
            rto_seq: 0,
            rtx_seq: 0,
        }
    }

    /// The stream's length: where its last record ends.
    fn stream_len(&self) -> u64 {
        self.records.last().map_or(0, |r| r.end)
    }

    /// A lifecycle trace event of this flow (the trace carries **global**
    /// flow indices).
    fn event(&self, t_ns: u64, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns,
            flow: self.flow,
            seq,
            kind,
        }
    }

    /// React to a lifecycle edge or window sample of the client end at
    /// `now_ns`: RTO and retransmit edges feed the trace and the RTO-wait
    /// histogram, establishment floors the records' enqueue stamps, and
    /// window samples go to the window telemetry.
    fn on_lifecycle(
        &mut self,
        ev: ConnEvent,
        now_ns: u64,
        obs: &mut LoadObs,
        spill: &mut Option<StreamSink>,
    ) {
        match ev {
            ConnEvent::RtoFired { wait_us } => {
                obs.rto_wait.record(wait_us.saturating_mul(1_000));
                obs.counters.inc(C_RTO_EDGES);
                obs.record_event(spill, self.event(now_ns, self.rto_seq, TraceKind::RtoFired));
                self.rto_seq += 1;
            }
            ConnEvent::Retransmit => {
                obs.counters.inc(C_RETRANSMIT_EDGES);
                obs.record_event(
                    spill,
                    self.event(now_ns, self.rtx_seq, TraceKind::Retransmit),
                );
                self.rtx_seq += 1;
            }
            ConnEvent::Established => self.enqueue_floor_ns = now_ns,
            ev => record_window_sample(&mut obs.cc_obs, ev),
        }
    }

    /// Hand a chunk the server end delivered at `now` to the flow's check,
    /// which compares it with the stream in place and drops it (nothing is
    /// kept for a later reassembly). For an accepted chunk, `delivered` is
    /// handed the trace event and delivery delay (ns) of each record it
    /// completed. Returns whether the chunk completed the flow.
    fn on_chunk(
        &mut self,
        chunk: &TransportChunk,
        now: SimTime,
        mut delivered: impl FnMut(TraceEvent, u64),
    ) -> Result<bool, Violation> {
        let was_complete = self.check.is_complete();
        let (flow, records) = (self.flow, &self.records);
        let run = self
            .check
            .on_chunk(chunk, now.as_micros(), |at| record_at(flow, records, at))?;
        // Records whose full byte range just became covered are
        // *delivered*. uTCP receivers complete later records while earlier
        // holes persist; ordered TCP cannot — that asymmetry is the
        // paper's figure of merit.
        let now_ns = ns_of(now);
        let mut record = self.event(now_ns, 0, TraceKind::RecordDelivered);
        let span = (chunk.offset, chunk.end_offset());
        for (rec, delay_ns) in self.complete_records(span, run, now_ns) {
            record.seq = rec as u32;
            delivered(record, delay_ns);
        }
        Ok(!was_complete && self.check.is_complete())
    }

    /// The flow's report row, with the sender statistics `transport` keeps.
    /// Every chunk was compared with the stream's formula as it arrived and
    /// the coverage is complete, so the delivered stream *is* the sent one:
    /// delivered bytes, the fingerprint and the completion time come from
    /// the check, records and their delay quantiles from the records'
    /// delays.
    fn metrics(&self, transport: &dyn Transport) -> FlowMetrics {
        let stats = transport.flow_stats(self.client);
        let [delay_p50_ns, delay_p99_ns, delay_max_ns] = self.delay_summary();
        FlowMetrics {
            flow: self.flow,
            bytes_delivered: self.check.delivered(),
            records_delivered: self.records.iter().filter(|r| r.delay_ns.is_some()).count() as u64,
            chunks_out_of_order: self.check.out_of_order(),
            retransmissions: stats.retransmissions,
            fast_retransmits: stats.fast_retransmits,
            rto_fires: stats.timeouts,
            completion_us: self.check.completed_us().unwrap_or(0),
            delay_p50_ns,
            delay_p99_ns,
            delay_max_ns,
            fingerprint: self.check.fingerprint(),
        }
    }

    /// The flow's delivery delay as `[p50, p99, max]` (ns), exact: each
    /// quantile is the delay [`quantile_rank`] selects among the delivered
    /// records' delays in ascending order, the global histogram's rank
    /// rule. All 0 before the first delivery.
    fn delay_summary(&self) -> [u64; 3] {
        let mut delays = Vec::with_capacity(self.records.len());
        delays.extend(self.records.iter().filter_map(|r| r.delay_ns));
        delays.sort_unstable();
        let at = |q_milli| match quantile_rank(delays.len() as u64, q_milli) {
            0 => 0,
            rank => delays[rank as usize - 1],
        };
        [at(50_000), at(99_000), delays.last().copied().unwrap_or(0)]
    }

    /// Offer the transport the stream from the send cursor on, built into
    /// `scratch` one span at a time, until it is all sent or the transport
    /// takes less than it was offered; then stamp the records it now holds
    /// whole, and once the whole stream is in, sample how long it was
    /// staged: the one flush path of the open and of writable edges. A flow
    /// with nothing left to send ignores the call.
    fn flush(
        &mut self,
        transport: &mut dyn Transport,
        scratch: &mut [u8],
        now_ns: u64,
        obs: &mut LoadObs,
    ) {
        if self.sent == self.stream_len() {
            return;
        }
        while self.sent < self.stream_len() {
            let end = self.stream_len().min(self.sent + scratch.len() as u64);
            let len = (end - self.sent) as usize;
            let (flow, records) = (self.flow, &self.records);
            fill_stream(self.sent, &mut scratch[..len], |at| {
                record_at(flow, records, at)
            });
            let taken = transport.write(self.client, &scratch[..len]);
            self.sent += taken as u64;
            if taken < len {
                break;
            }
        }
        self.mark_enqueued(now_ns);
        if self.sent == self.stream_len() {
            obs.staging_dwell
                .record(now_ns.saturating_sub(self.staged_ns));
        }
    }

    /// Stamp every record whose last byte the transport has now accepted
    /// (`self.sent` is the flow's send cursor).
    fn mark_enqueued(&mut self, now_ns: u64) {
        while let Some(r) = self.records.get_mut(self.enqueued) {
            if r.end > self.sent {
                break;
            }
            r.enqueue_ns = now_ns;
            self.enqueued += 1;
        }
    }

    /// Stamp with its delivery delay at `now_ns` every record whose full
    /// byte range just became covered, yielding each one's index and delay
    /// (stamping happens as the iterator is consumed). A delay counts from
    /// the record's enqueue stamp or the connection's establishment,
    /// whichever is later. Only records the chunk `[chunk.0, chunk.1)`
    /// touches can have completed, and they complete iff `run`, the
    /// coverage run the chunk joined, holds them whole.
    fn complete_records(
        &mut self,
        chunk: (u64, u64),
        run: (u64, u64),
        now_ns: u64,
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        let floor_ns = self.enqueue_floor_ns;
        let first = self.records.partition_point(|r| r.end <= chunk.0);
        self.records[first..]
            .iter_mut()
            .take_while(move |r| r.start < chunk.1)
            .enumerate()
            .filter(move |(_, r)| r.delay_ns.is_none() && run.0 <= r.start && r.end <= run.1)
            .map(move |(i, r)| {
                let delay_ns = now_ns.saturating_sub(r.enqueue_ns.max(floor_ns));
                r.delay_ns = Some(delay_ns);
                (first + i, delay_ns)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{fnv1a, FNV_OFFSET_BASIS};

    fn flow_state(bounds: Vec<(u64, u64)>) -> FlowState {
        let records = bounds.into_iter().map(|(start, end)| RecordTrack {
            start,
            end,
            enqueue_ns: 0,
            delay_ns: None,
        });
        FlowState::new(FlowId(0), 0, 0, records.collect(), false)
    }

    fn chunk(offset: u64, data: &[u8], in_order: bool) -> TransportChunk {
        TransportChunk {
            offset,
            data: data.into(),
            in_order,
        }
    }

    /// Offer `chunk` to `s` as an unordered receiver's, at time zero,
    /// dropping the records it completes.
    fn accept(s: &mut FlowState, chunk: TransportChunk) -> Result<bool, Violation> {
        s.on_chunk(&chunk, SimTime::ZERO, |_, _| {})
    }

    /// Bytes `[from, to)` of `s`'s stream, as the generator builds them.
    fn bytes(s: &FlowState, from: u64, to: u64) -> Vec<u8> {
        let mut out = vec![0; (to - from) as usize];
        fill_stream(from, &mut out, |at| record_at(s.flow, &s.records, at));
        out
    }

    /// Flow `flow`'s whole stream, byte by byte from the documented formula.
    fn formula_stream(sc: &LoadScenario, flow: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in 0..sc.records_per_flow {
            let len = sc.record_payload_len(flow, rec);
            for field in [flow, rec, len] {
                out.extend_from_slice(&(field as u32).to_be_bytes());
            }
            out.extend((0..len).map(|j| ((flow * 197 + rec * 131 + j * 31) % 251) as u8));
        }
        out
    }

    #[test]
    fn coverage_merging_detects_completion() {
        let mut s = flow_state(vec![(0, 10)]);
        let stream = bytes(&s, 0, 10);
        let deliver = |s: &mut FlowState, from: usize, to: usize| {
            accept(s, chunk(from as u64, &stream[from..to], true)).unwrap()
        };
        assert!(!deliver(&mut s, 4, 7));
        assert_eq!(s.check.prefix_end(), 0, "a hole at the front");
        assert!(!deliver(&mut s, 0, 4), "[0,4) abuts");
        assert_eq!(s.check.covered(), [(0, 7)]);
        assert!(!deliver(&mut s, 8, 10), "gap at 7");
        assert_eq!(s.check.covered(), [(0, 7), (8, 10)]);
        assert_eq!(s.check.prefix_end(), 7);
        assert!(deliver(&mut s, 5, 9), "[5,9) bridges");
        assert_eq!(s.check.prefix_end(), 10);
        // Duplicates change nothing and complete nothing again.
        assert!(!deliver(&mut s, 0, 10));
        assert_eq!(s.check.covered(), [(0, 10)]);
        // Nor does an empty chunk, wherever it claims to sit.
        assert!(!deliver(&mut s, 3, 3));
        assert_eq!(s.check.covered(), [(0, 10)]);
    }

    #[test]
    fn every_chunk_is_compared_with_the_sent_stream_in_place() {
        let mut s = flow_state(vec![(0, 20), (20, 45)]);
        let stream = bytes(&s, 0, 45);
        assert_eq!(accept(&mut s, chunk(8, &stream[8..30], true)), Ok(false));
        assert_eq!(s.check.covered(), [(8, 30)]);
        // Right bytes, wrong place; one flipped bit; a duplicate that
        // differs from what was accepted before; a chunk past the end;
        // another flow's bytes at the right offset.
        assert!(accept(&mut s, chunk(9, &stream[8..30], true)).is_err());
        let mut flipped = stream[30..45].to_vec();
        flipped[5] ^= 1;
        assert!(accept(&mut s, chunk(30, &flipped, true)).is_err());
        let mut duplicate = stream[8..30].to_vec();
        duplicate[0] ^= 0x80;
        assert!(accept(&mut s, chunk(8, &duplicate, true)).is_err());
        assert!(accept(&mut s, chunk(40, &[0; 6], true)).is_err());
        let other = FlowState {
            flow: 1,
            ..flow_state(vec![(0, 20), (20, 45)])
        };
        assert!(accept(&mut s, chunk(0, &bytes(&other, 0, 8), true)).is_err());
        // None of the rejects counted as coverage or entered the
        // fingerprint: that is (offset, len, in_order) of the one accepted.
        assert_eq!(s.check.covered(), [(8, 30)]);
        let mut expected = FNV_OFFSET_BASIS;
        fnv1a(&mut expected, &8u64.to_le_bytes());
        fnv1a(&mut expected, &22u64.to_le_bytes());
        fnv1a(&mut expected, &[1]);
        assert_eq!(s.check.fingerprint(), expected);
        // The same bytes flagged out of order fold differently.
        let before = s.check.fingerprint();
        assert!(accept(&mut s, chunk(8, &stream[8..30], false)).is_ok());
        let mut in_order = before;
        for field in [&8u64.to_le_bytes()[..], &22u64.to_le_bytes(), &[1]] {
            fnv1a(&mut in_order, field);
        }
        assert_ne!(s.check.fingerprint(), in_order);
    }

    /// An ordered receiver's chunk must be flagged in order and start where
    /// the delivered prefix ends; each completed record is handed on once,
    /// stamped with its delivery, and a flow completes once.
    #[test]
    fn an_ordered_receiver_takes_only_its_prefix_and_a_flow_completes_once() {
        let mut s = FlowState {
            check: DeliveryCheck::stream(45, true),
            ..flow_state(vec![(0, 20), (20, 45)])
        };
        let stream = bytes(&s, 0, 45);
        let mut records = Vec::new();
        let mut offer = |s: &mut FlowState, from: usize, to: usize, in_order: bool, us: u64| {
            let c = chunk(from as u64, &stream[from..to], in_order);
            s.on_chunk(&c, SimTime::from_micros(us), |ev, delay_ns| {
                records.push((ev.seq, ev.kind, ev.t_ns, delay_ns))
            })
        };
        let ahead = offer(&mut s, 10, 20, true, 1).unwrap_err().to_string();
        assert!(ahead.contains("ordered receiver"), "{ahead}");
        assert!(
            offer(&mut s, 0, 10, false, 1).is_err(),
            "flagged out of order"
        );
        assert_eq!(offer(&mut s, 0, 30, true, 2), Ok(false));
        assert!(offer(&mut s, 0, 30, true, 3).is_err(), "a duplicate");
        assert_eq!(offer(&mut s, 30, 45, true, 4), Ok(true));
        assert_eq!(s.check.completed_us(), Some(4));
        let kind = TraceKind::RecordDelivered;
        assert_eq!(
            records,
            vec![(0, kind, 2_000, 2_000), (1, kind, 4_000, 4_000)]
        );
        // An unordered receiver takes duplicates; the flow still completes
        // once, at the first chunk that made its coverage whole.
        let mut u = flow_state(vec![(0, 20)]);
        let whole = bytes(&u, 0, 20);
        let mut at =
            |us: u64| u.on_chunk(&chunk(0, &whole, true), SimTime::from_micros(us), |_, _| {});
        assert_eq!((at(5), at(9)), (Ok(true), Ok(false)));
        assert_eq!(u.check.completed_us(), Some(5));
    }

    #[test]
    fn enqueue_stamps_follow_the_send_cursor() {
        let bounds = vec![(0, 10), (10, 25), (25, 40)];
        let mut s = flow_state(bounds);
        s.sent = 9;
        s.mark_enqueued(100);
        assert_eq!(s.enqueued, 0, "no record accepted whole yet");
        s.sent = 25;
        s.mark_enqueued(200);
        assert_eq!(s.enqueued, 2);
        s.sent = 40;
        s.mark_enqueued(300);
        assert_eq!(s.enqueued, 3);
        s.mark_enqueued(400);
        let stamps: Vec<u64> = s.records.iter().map(|r| r.enqueue_ns).collect();
        assert_eq!(stamps, vec![200, 200, 300]);
    }

    #[test]
    fn records_complete_when_a_coverage_run_holds_them_whole() {
        let bounds = vec![(0, 10), (10, 25), (25, 40), (40, 50)];
        let mut s = flow_state(bounds);
        s.sent = 50;
        s.mark_enqueued(100);
        s.enqueue_floor_ns = 150;
        // Delivered at 1 000 ns, so a delay of 850 counts from
        // establishment and 900 would count from the enqueue stamp.
        let deliver = |s: &mut FlowState, from: u64, to: u64| -> Vec<(usize, u64)> {
            let (data, mut done) = (bytes(s, from, to), Vec::new());
            let at = SimTime::from_micros(1);
            s.on_chunk(&chunk(from, &data, true), at, |ev, delay_ns| {
                done.push((ev.seq as usize, delay_ns))
            })
            .unwrap();
            done
        };
        // [12, 30) holds no record whole: #1 lacks [10, 12), #2 lacks
        // [30, 40).
        assert_eq!(deliver(&mut s, 12, 30), vec![]);
        // Out of order: #3 completes while the holes before it persist,
        // and its delay counts from establishment, not the earlier stamp.
        assert_eq!(deliver(&mut s, 40, 50), vec![(3, 850)]);
        // [30, 40) joins [12, 50): #2 completes; #3, touched at its
        // boundary only, is neither re-examined nor re-delivered.
        assert_eq!(deliver(&mut s, 30, 40), vec![(2, 850)]);
        // One chunk can complete several records.
        assert_eq!(deliver(&mut s, 0, 12), vec![(0, 850), (1, 850)]);
        assert!(s.check.is_complete());
        // A duplicate delivers nothing twice.
        assert_eq!(deliver(&mut s, 0, 50), vec![]);
        // Each record keeps the delay it was delivered with.
        let delays: Vec<Option<u64>> = s.records.iter().map(|r| r.delay_ns).collect();
        assert_eq!(delays, vec![Some(850); 4]);
        // A stamp later than establishment counts from itself.
        let mut late = flow_state(vec![(0, 10)]);
        late.sent = 10;
        late.mark_enqueued(500);
        late.enqueue_floor_ns = 150;
        assert_eq!(deliver(&mut late, 0, 10), vec![(0, 500)]);
    }

    /// The flow's delay summary against a brute-force oracle over the same
    /// delays: a quantile is the smallest delay with at least that share of
    /// the delivered records at or below it. Undelivered records take no
    /// part; a flow with none delivered reads all zeros.
    #[test]
    fn a_flows_delay_summary_is_exact() {
        let oracle = |delays: &[u64]| -> [u64; 3] {
            let n = delays.len() as u64;
            let at_or_below = |v: u64| delays.iter().filter(|&&d| d <= v).count() as u64;
            let quantile = |percent: u64| {
                let mut sorted = delays.to_vec();
                sorted.sort_unstable();
                sorted
                    .into_iter()
                    .find(|&v| 100 * at_or_below(v) >= percent * n)
                    .unwrap()
            };
            [quantile(50), quantile(99), *delays.iter().max().unwrap()]
        };
        let summary = |delays: &[Option<u64>]| {
            let bounds = (0..delays.len() as u64).map(|r| (r * 10, r * 10 + 10));
            let mut s = flow_state(bounds.collect());
            for (r, &delay_ns) in s.records.iter_mut().zip(delays) {
                r.delay_ns = delay_ns;
            }
            s.delay_summary()
        };
        let all_delivered =
            |delays: &[u64]| summary(&delays.iter().copied().map(Some).collect::<Vec<_>>());
        // 32 distinct delays, scrambled.
        let spread: Vec<u64> = (0..32u64).map(|i| (i * 7919) % 32 * 1_000 + 5).collect();
        let cases: [&[u64]; 5] = [&[7], &[42; 9], &[0, 3, 9, 1], &[0, 0, 5_000], &spread];
        for delays in cases {
            assert_eq!(all_delivered(delays), oracle(delays), "delays {delays:?}");
        }
        // Of 32 records, p50 is the 16th smallest and p99 the largest.
        assert_eq!(all_delivered(&spread), [15_005, 31_005, 31_005]);
        // Undelivered records take no part.
        assert_eq!(
            summary(&[None, Some(30), None, Some(10)]),
            oracle(&[30, 10])
        );
        assert_eq!(summary(&[None, None]), [0, 0, 0]);
    }

    #[test]
    fn streams_are_distinct_per_flow_and_framed() {
        let sc = LoadScenario::with_flows(2);
        let state =
            |flow: u32| FlowState::new(FlowId(0), flow, 0, sc.records(flow as usize), false);
        let (a, b) = (state(0), state(1));
        assert_ne!(bytes(&a, 0, a.stream_len()), bytes(&b, 0, b.stream_len()));
        // Each record header reads back as (flow, index, payload length).
        for (rec, r) in b.records.iter().enumerate() {
            let header = bytes(&b, r.start, r.start + 12);
            let field = |i: usize| u32::from_be_bytes(header[i..i + 4].try_into().unwrap());
            let len = sc.record_payload_len(1, rec) as u32;
            assert_eq!((field(0), field(4), field(8)), (1, rec as u32, len));
        }
    }

    /// The range generator against the documented formula: every range
    /// between cut points inside a header, at its end, inside a payload,
    /// one period into it and at a record's last byte — so ranges within
    /// one piece, across record boundaries and past one 251-byte period —
    /// at record sizes under, at and past the period and at flows that
    /// shift the payload's phase.
    #[test]
    fn stream_payloads_follow_the_documented_formula_past_one_period() {
        for record_len in [2, 100, 251, 502, 1400] {
            let sc = LoadScenario {
                record_len,
                records_per_flow: 4,
                ..LoadScenario::default()
            };
            for flow in [0, 1, 250, 1007] {
                let whole = formula_stream(&sc, flow);
                let s = FlowState::new(FlowId(0), flow as u32, 0, sc.records(flow), false);
                assert_eq!(s.stream_len(), whole.len() as u64);
                let mut cuts = vec![s.stream_len()];
                for r in &s.records {
                    let inside = [0, 5, 12, 13, 12 + 251, 12 + 300, r.end - r.start - 1];
                    cuts.extend(inside.iter().map(|d| r.start + d).filter(|&at| at < r.end));
                }
                for &a in &cuts {
                    for &b in cuts.iter().filter(|&&b| b >= a) {
                        assert_eq!(
                            bytes(&s, a, b),
                            whole[a as usize..b as usize],
                            "len {record_len} flow {flow} range [{a}, {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_flow_scenario_completes_without_loss() {
        let report = LoadScenario::with_flows(1).run();
        assert_eq!(report.records_delivered, report.records_sent);
        assert_eq!(report.per_flow.len(), 1);
        assert_eq!(report.per_flow[0].retransmissions, 0);
        assert!(report.goodput_bps > 0);
        assert!(report.engine.events() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn a_scenario_without_records_is_refused_up_front() {
        LoadScenario {
            flows: 2,
            records_per_flow: 0,
            ..LoadScenario::default()
        }
        .run();
    }

    #[test]
    fn lossy_multi_flow_scenario_is_exactly_once_and_deterministic() {
        let scenario = LoadScenario {
            flows: 16,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            ..LoadScenario::default()
        };
        let report = verify_load(&scenario);
        assert_eq!(report.records_delivered, report.records_sent);
        assert!(
            report.per_flow.iter().any(|f| f.retransmissions > 0),
            "2% loss across 16 flows must force at least one retransmission"
        );
        // uTCP receivers may deliver out of order; with random loss across 16
        // flows at least one early delivery is overwhelmingly likely.
        assert!(report.per_flow.iter().any(|f| f.chunks_out_of_order > 0));
    }

    #[test]
    fn shard_decomposition_partitions_the_flow_range() {
        let sc = LoadScenario::with_flows(300);
        assert_eq!(sc.shard_count(), 3);
        let shards: Vec<LoadScenario> = (0..3).map(|s| sc.shard(s)).collect();
        assert_eq!(shards[0].flows, 128);
        assert_eq!(shards[1].flows, 128);
        assert_eq!(shards[2].flows, 44);
        assert_eq!(shards[0].first_flow, 0);
        assert_eq!(shards[1].first_flow, 128);
        assert_eq!(shards[2].first_flow, 256);
        assert_eq!(shards.iter().map(|s| s.flows).sum::<usize>(), 300);
        // Shard seeds are fixed, distinct, and derived from the scenario's.
        let seeds: std::collections::BTreeSet<u64> = shards.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 3);
        assert_eq!(sc.shard(1).seed, shards[1].seed);
        // Labels carry the shard offset, so per-shard assertion messages
        // identify the shard.
        assert!(shards[1].label().ends_with("@128"));
        // A shard's streams are the global scenario's streams: the stream
        // is a formula of the global flow index and the record bounds.
        let bounds = |sc: &LoadScenario| -> Vec<(u64, u64)> {
            sc.records(130).iter().map(|r| (r.start, r.end)).collect()
        };
        assert_eq!(bounds(&shards[1]), bounds(&sc));
        // Sub-SHARD_FLOWS scenarios are a single shard.
        assert_eq!(LoadScenario::with_flows(1).shard_count(), 1);
        assert_eq!(LoadScenario::with_flows(128).shard_count(), 1);
    }

    /// The benchmark's speedup probe: each shard's report, unmerged, in
    /// shard order, the same at any thread count.
    #[test]
    fn sharded_run_is_identical_at_any_thread_count() {
        let sc = LoadScenario {
            flows: 256,
            loss: LossConfig::Bernoulli { probability: 0.01 },
            ..LoadScenario::default()
        };
        let serial = sc.run_sharded(1);
        assert_eq!(serial.len(), sc.shard_count());
        for (s, report) in serial.iter().enumerate() {
            assert_eq!(*report, sc.shard(s).run(), "shard {s}");
        }
        assert_eq!(
            sc.run_sharded(4),
            serial,
            "shard reports must be byte-identical across thread counts"
        );
    }

    #[test]
    #[should_panic(expected = "cannot stream its trace")]
    fn a_sharded_run_refuses_to_stream_its_trace() {
        let streaming = LoadScenario {
            trace_stream: Some("never-created.jsonl".into()),
            ..LoadScenario::default()
        };
        streaming.run_sharded(1);
    }

    #[test]
    fn delivery_delay_separates_ordered_from_unordered_receivers() {
        let mk = |utcp| LoadScenario {
            flows: 128,
            ..LoadScenario::obs_comparison(utcp)
        };
        let utcp = mk(true).run();
        let tcp = mk(false).run();
        // The histogram saw every record exactly once, and every flow's
        // records are in its own summary.
        let delivered: u64 = utcp.per_flow.iter().map(|f| f.records_delivered).sum();
        assert_eq!(
            (utcp.obs.delivery_delay.count(), delivered),
            (utcp.records_sent, utcp.records_sent)
        );
        // The paper's claim, measured: head-of-line blocking makes the
        // ordered receiver's mean delivery delay strictly worse, and its
        // tail no better, under the identical loss process.
        assert!(
            tcp.obs.delivery_delay.mean() > utcp.obs.delivery_delay.mean(),
            "ordered mean {} must exceed unordered mean {}",
            tcp.obs.delivery_delay.mean(),
            utcp.obs.delivery_delay.mean(),
        );
        assert!(
            tcp.obs.delivery_delay.p99() > utcp.obs.delivery_delay.p99(),
            "interpolated p99 must strictly separate ordered TCP ({}) from uTCP ({})",
            tcp.obs.delivery_delay.p99(),
            utcp.obs.delivery_delay.p99()
        );
        // Unordered delivery fragments stream coverage; ordered never does.
        assert!(utcp.obs.coverage_ranges_high_water > 1);
        assert_eq!(tcp.obs.coverage_ranges_high_water, 1);
        assert!(utcp.obs.counters.get(C_CHUNKS_OUT_OF_ORDER) > 0);
        assert_eq!(tcp.obs.counters.get(C_CHUNKS_OUT_OF_ORDER), 0);
        // Loss recovery leaves its fingerprints in the trace ring.
        assert!(utcp.obs.rto_wait.count() > 0);
        for kind in [
            TraceKind::Syn,
            TraceKind::FirstByte,
            TraceKind::RecordDelivered,
            TraceKind::Retransmit,
            TraceKind::RtoFired,
            TraceKind::Fin,
        ] {
            assert!(
                utcp.obs.trace.events().any(|e| e.kind == kind),
                "trace must contain a {kind:?} event"
            );
        }
        // Staging dwell recorded one sample per flow's send stream.
        assert_eq!(utcp.obs.staging_dwell.count(), utcp.flows);
    }

    /// The trace path, pinned: every lifecycle event of a lossy run enters
    /// the ring and the attached stream alike. Pins the counts the report
    /// keeps of it, the ring's event sequence and the stream file's event
    /// lines (its trailer excluded), and checks that the stream's events
    /// are exactly the ring's.
    #[test]
    fn unsliced_trace_path_is_pinned() {
        let dir = std::env::temp_dir().join(format!("minion_scn_pin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin.jsonl");
        let report = LoadScenario {
            flows: 16,
            records_per_flow: 32,
            record_len: 600,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            trace_stream: Some(path.display().to_string()),
            ..LoadScenario::default()
        }
        .run();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let obs = &report.obs;
        let mut lines: Vec<&str> = text.lines().collect();
        let trailer = lines.pop().unwrap();
        assert!(trailer.starts_with("{\"summary\":true"), "{trailer}");
        let ring: Vec<String> = obs.trace.events().map(|e| e.to_json()).collect();
        assert_eq!(lines, ring, "stream and ring disagree");
        let mut lines_hash = FNV_OFFSET_BASIS;
        for line in &lines {
            fnv1a(&mut lines_hash, line.as_bytes());
            fnv1a(&mut lines_hash, b"\n");
        }
        let got = (
            obs.trace.recorded(),
            obs.trace.dropped(),
            obs.stream.emitted,
            obs.stream.flushes,
            obs.trace_fingerprint(),
            lines_hash,
        );
        assert_eq!(
            got,
            (571, 0, 571, 1, 0xb599_cc04_172c_4032, 0xfc0f_6d2f_225c_2e36)
        );
    }

    /// The clients' window telemetry, pinned on a run whose trajectory ring
    /// does not wrap: every count and quantile the report keeps, and every
    /// sample. The samples are compared sorted, so the order the ring holds
    /// them in is free, but not one may be lost, added or moved in time —
    /// the first one each client takes as it opens included.
    #[test]
    fn client_window_telemetry_is_pinned() {
        let report = LoadScenario {
            flows: 16,
            records_per_flow: 64,
            record_len: 1200,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            ..LoadScenario::default()
        }
        .run();
        let cc = &report.obs.cc_obs;
        let counts = (cc.recorded(), cc.len() as u64, cc.dropped());
        let cwnd = cc.cwnd_hist();
        let cwnd = (cwnd.p50(), cwnd.p99(), cwnd.max());
        let episodes = cc.recovery_duration();
        let episodes = (
            episodes.count(),
            episodes.p50(),
            episodes.p99(),
            episodes.max(),
        );
        let cuts = (cc.recovery_depth().count(), cc.recovery_depth().p99());
        let mut samples: Vec<(u64, u64, u64)> =
            cc.samples().map(|s| (s.t_ns, s.cwnd, s.ssthresh)).collect();
        samples.sort_unstable();
        let mut hash = FNV_OFFSET_BASIS;
        for (t_ns, cwnd, ssthresh) in &samples {
            for word in [t_ns, cwnd, ssthresh] {
                fnv1a(&mut hash, &word.to_le_bytes());
            }
        }
        assert_eq!(counts, (325, 325, 0), "recorded, held, dropped");
        assert_eq!(cwnd, (14_482, 45_567, 46_032), "cwnd p50, p99, max");
        assert_eq!(
            episodes,
            (16, 44_040_191, 279_285_000, 279_285_000),
            "recovery episodes: count, duration p50, p99, max"
        );
        assert_eq!(cuts, (19, 59_368), "window cuts: count, depth p99");
        assert_eq!(
            (samples.len(), samples[0], hash),
            (325, (0, 4_344, i64::MAX as u64), 0xe1b9_bfd5_c203_fb04),
            "the trajectory samples, sorted"
        );
    }

    #[test]
    fn standard_receiver_never_sees_out_of_order_chunks() {
        let scenario = LoadScenario {
            flows: 8,
            receiver_utcp: false,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            ..LoadScenario::default()
        };
        let report = scenario.run();
        assert!(report.per_flow.iter().all(|f| f.chunks_out_of_order == 0));
        assert_eq!(report.records_delivered, report.records_sent);
    }
}
