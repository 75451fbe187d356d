//! Multi-flow load scenarios: N concurrent uTCP flows through one engine.
//!
//! This is the workload the ROADMAP's "heavy traffic" regime needs and the
//! single-connection scenario matrix cannot express: hundreds to thousands of
//! concurrent connections multiplexed over one shared link, driven entirely
//! by readiness events and the timer wheel. Each flow sends a deterministic
//! sequence of framed records; the run asserts, per flow:
//!
//! * **exactly-once delivery** — every delivered chunk equals the sent
//!   stream at its offset byte for byte, and the chunks cover the stream
//!   completely (no loss or corruption survives; a duplicate is harmless
//!   only if it, too, is identical);
//! * **per-stream order** — record framing reassembles in send order;
//! * **in-order-only for standard receivers** — a non-uTCP receiver never
//!   sees an out-of-order chunk.
//!
//! [`verify_load`] additionally runs the scenario twice and asserts the two
//! [`LoadReport`]s are identical — the determinism acceptance gate.
//!
//! ## Sharded execution
//!
//! [`LoadScenario::run_sharded`] decomposes the `flows` axis into fixed
//! `SHARD_FLOWS`-flow shards — each an independent
//! [`SimTransport`] with its own link and a seed derived from
//! `(seed, shard index)` — and runs them as one `minion-exec` batch,
//! merging the per-shard [`LoadReport`]s **by shard index**. The
//! decomposition is a property of the scenario (flow count), never of the
//! thread count, so the merged report is byte-identical at any `threads`
//! value; threads only decide how many shards run concurrently.

use crate::metrics::{EngineMetrics, FlowMetrics, LoadReport, FNV_OFFSET_BASIS};
use crate::obs::{
    LoadObs, C_CHUNKS_DELIVERED, C_CHUNKS_OUT_OF_ORDER, C_RECORDS_DELIVERED, C_RECORDS_ENQUEUED,
    C_RETRANSMIT_EDGES, C_RTO_EDGES, G_COVERAGE_RANGES_HIGH_WATER,
};
use crate::transport::{SimTransport, Transport};
use minion_exec::Executor;
use minion_obs::{
    merge_stream_files, shard_trailer_json, Absorb, CcObs, KindSet, NonDeterministic, PhaseProfile,
    StreamSink, TraceEvent, TraceKind, TracePredicate,
};
use minion_simnet::{fnv1a_words, LossConfig, SimDuration, SimTime};
use minion_stack::FlowId;
use minion_tcp::{CcAlgorithm, ConnEvent};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// Flows per shard of a sharded load run. Fixed (never derived from the
/// thread count) so the shard decomposition — and therefore the merged
/// report — is identical however many workers execute the shards.
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
    /// Focus the lifecycle trace on one **global** flow index: only its
    /// events enter the ring and the stream (suppressed events are still
    /// counted in `LoadObs::trace_filter`). `None` traces every flow.
    pub trace_flow: Option<u32>,
    /// Kind slice of the lifecycle trace: only these event kinds enter
    /// the ring and the stream. [`KindSet::all`] (the default) traces every kind;
    /// `--trace-kind retransmit,rto` narrows the stream to recovery
    /// events the same way `trace_flow` narrows it to one flow.
    pub trace_kinds: KindSet,
    /// Spill every admitted trace event to this JSONL path through a
    /// zero-drop [`StreamSink`] (the ring still records in parallel, so
    /// in-memory consumers are unaffected). A shard produced by
    /// [`LoadScenario::shard`] spills to `"{path}.shard{s:05}"`;
    /// [`LoadScenario::run_sharded`] then k-way-merges the shard files
    /// into `path` ordered by `(t_ns, shard)` — byte-identical at any
    /// thread count. An unsharded [`LoadScenario::run`] writes `path`
    /// directly as a single-shard stream. `None` disables spilling.
    pub trace_stream: Option<String>,
    /// Global index of this scenario's first flow. `0` for a whole scenario;
    /// a shard produced by [`LoadScenario::shard`] carries its offset here so
    /// stream contents and per-flow metrics keep their global flow indices.
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
            trace_flow: None,
            trace_kinds: KindSet::all(),
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
            LossConfig::Periodic { every } => format!("loss=periodic{every}"),
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

    /// A lifecycle trace event of this scenario's flow `flow` (the trace
    /// carries **global** flow indices).
    fn event(&self, t_ns: u64, flow: usize, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns,
            flow: (self.first_flow + flow) as u32,
            seq,
            kind,
        }
    }

    /// Payload length of one record (varies deterministically around the
    /// nominal size so flows and records are tellable apart; `flow` is the
    /// **global** index, so shard streams match the unsharded scenario's).
    fn record_payload_len(&self, flow: usize, rec: usize) -> usize {
        self.record_len / 2 + (flow * 31 + rec * 131) % self.record_len.max(2)
    }

    /// Stream byte range `[start, end)` of each record of flow `flow`
    /// (**global** index) — the units delivery delay is measured over.
    fn record_bounds(&self, flow: usize) -> Vec<(u64, u64)> {
        let mut bounds = Vec::with_capacity(self.records_per_flow);
        let mut pos = 0u64;
        for rec in 0..self.records_per_flow {
            let end = pos + 12 + self.record_payload_len(flow, rec) as u64;
            bounds.push((pos, end));
            pos = end;
        }
        bounds
    }

    /// Append flow `flow`'s whole framed stream to `out`: each record is a
    /// 12-byte header (flow, record index, payload length — all `u32` BE)
    /// followed by a position-dependent payload, byte `j` of which is
    /// `(flow·197 + rec·131 + j·31) mod 251`. `flow` is the **global** flow
    /// index ([`LoadScenario::first_flow`] + local index).
    pub fn build_stream(&self, flow: usize, out: &mut Vec<u8>) {
        /// 31 and 251 are coprime, so a payload repeats every 251 bytes.
        const PERIOD: usize = 251;
        /// `STEPS[i]` = 31·i mod 251, two periods of it. As 31·81 ≡ 1
        /// (mod 251), a payload starting at `base` is `STEPS[k..]` with
        /// k = 81·base mod 251, so one period of it is one slice.
        const STEPS: [u8; 2 * PERIOD] = {
            let mut steps = [0; 2 * PERIOD];
            let mut i = 0;
            while i < 2 * PERIOD {
                steps[i] = (i * 31 % PERIOD) as u8;
                i += 1;
            }
            steps
        };
        for rec in 0..self.records_per_flow {
            let len = self.record_payload_len(flow, rec);
            out.extend_from_slice(&(flow as u32).to_be_bytes());
            out.extend_from_slice(&(rec as u32).to_be_bytes());
            out.extend_from_slice(&(len as u32).to_be_bytes());
            // One period copied from the table, the rest from it in doubling
            // runs.
            let start = out.len();
            let k = (flow * 197 + rec * 131) % PERIOD * 81 % PERIOD;
            out.extend_from_slice(&STEPS[k..k + len.min(PERIOD)]);
            while out.len() - start < len {
                let have = out.len() - start;
                out.extend_from_within(start..start + have.min(len - have));
            }
        }
    }

    /// Run the scenario once on the simulator, asserting the per-flow
    /// invariants ([`SimTransport`] + [`LoadScenario::run_on`]).
    pub fn run(&self) -> LoadReport {
        let mut transport = SimTransport::new(self);
        self.run_on(&mut transport)
    }

    /// Run the scenario's driver loop over any [`Transport`], asserting the
    /// per-flow invariants (exactly-once delivery, per-stream order,
    /// in-order-only for standard receivers) against whatever stack sits
    /// behind it.
    ///
    /// Over [`SimTransport`] this is byte-identical to the pre-trait sim
    /// driver (pinned by the parallel-sweep gates). Over the OS transport
    /// (`minion-osnet`), "time" is wall-clock microseconds and the deadline
    /// is a liveness gate; the same reassembly checks apply, but the
    /// receiver is kernel TCP, so chunks are always in order and
    /// retransmission counters read zero.
    pub fn run_on(&self, transport: &mut dyn Transport) -> LoadReport {
        let label = match transport.backend() {
            "sim" => self.label(),
            backend => format!("{}/{}", self.label(), backend),
        };
        let mut obs = LoadObs::default();

        // The trace path: every lifecycle event is counted against the
        // flow × kind slice in `obs.trace_filter`; an admitted one enters
        // the bounded ring (in-memory consumers, merged via Absorb) and,
        // when `trace_stream` is set, a zero-drop JSONL spill. The stream
        // holds an OS writer, so it lives here as a run-local; only its
        // deterministic accounting enters `obs` at the end.
        obs.trace_filter.predicate = TracePredicate {
            flow: self.trace_flow,
            kinds: self.trace_kinds,
        };
        let mut spill = self.trace_stream.as_deref().map(|path| {
            StreamSink::create(Path::new(path))
                .unwrap_or_else(|e| panic!("[{label}] trace stream {path}: {e}"))
        });

        // Open every flow and offer its whole stream. A transport may accept
        // only a prefix (a stream longer than the send buffer; or nothing,
        // while an OS connect is in flight): the flow keeps a cursor and the
        // remainder is flushed on writable edges. The stream itself stays
        // with the flow for the whole run — it is what every delivered chunk
        // is compared against.
        let mut states: Vec<FlowState> = Vec::with_capacity(self.flows);
        // Transports number flows 0, 1, 2 … as they open and accept them,
        // so which end of which flow a `FlowId` names is an index away.
        let mut end_of: Vec<End> = Vec::with_capacity(2 * self.flows);
        for flow in 0..self.flows {
            let global_flow = self.first_flow + flow;
            let (id, pair_key) = transport.connect();
            push_end(&mut end_of, id, End::Client(flow), &label);
            let now_ns = ns_of(transport.now());
            obs.record_event(&mut spill, self.event(now_ns, flow, 0, TraceKind::Syn));
            let bounds = self.record_bounds(global_flow);
            let stream_len = bounds.last().map_or(0, |&(_, end)| end as usize);
            // The exact length up front: a stream costs one allocation.
            let mut stream = Vec::with_capacity(stream_len);
            self.build_stream(global_flow, &mut stream);
            assert_eq!(
                stream.len(),
                stream_len,
                "[{label}] flow {flow}: stream and record bounds disagree"
            );
            let mut state = FlowState::new(id, pair_key, stream, now_ns, bounds);
            state.sent = transport.write(id, &state.stream);
            let enqueued = state.mark_enqueued(now_ns);
            obs.counters.add(C_RECORDS_ENQUEUED, enqueued);
            if state.sent == state.stream.len() {
                obs.staging_dwell.record(0);
            }
            states.push(state);
        }
        // Pairing key for accepted server flows: the client's ephemeral port.
        let mut flow_of_key: BTreeMap<u64, usize> = BTreeMap::new();
        for (flow, state) in states.iter().enumerate() {
            let clash = flow_of_key.insert(state.pair_key, flow);
            assert!(
                clash.is_none(),
                "[{label}] duplicate ephemeral port {}",
                state.pair_key
            );
        }

        // Event-driven main loop: react to accepts, writability (pending
        // stream flushes), and readability only.
        let deadline = transport.now() + self.deadline;
        let mut completed = 0usize;
        while completed < self.flows && transport.now() < deadline {
            if !transport.step() {
                break;
            }
            for (sf, peer_key) in transport.take_accepted() {
                // Pair the accepted server flow with its client by peer port.
                let flow = *flow_of_key
                    .get(&peer_key)
                    .unwrap_or_else(|| panic!("[{label}] unknown peer port {peer_key}"));
                states[flow].server = Some(sf);
                push_end(&mut end_of, sf, End::Server(flow), &label);
            }
            // Lifecycle edges feed the trace ring and the RTO-latency
            // histogram, window samples the window telemetry. Only the
            // sender side (the client) is recorded: the servers' own
            // edges and windows carry no load insight.
            for (f, ev) in transport.take_lifecycle() {
                let Some(&End::Client(flow)) = end_of.get(f.index()) else {
                    continue;
                };
                let now_ns = ns_of(transport.now());
                let state = &mut states[flow];
                match ev {
                    ConnEvent::RtoFired { wait_us } => {
                        obs.rto_wait.record(wait_us.saturating_mul(1_000));
                        obs.counters.inc(C_RTO_EDGES);
                        obs.record_event(
                            &mut spill,
                            self.event(now_ns, flow, state.rto_seq, TraceKind::RtoFired),
                        );
                        state.rto_seq += 1;
                    }
                    ConnEvent::Retransmit => {
                        obs.counters.inc(C_RETRANSMIT_EDGES);
                        obs.record_event(
                            &mut spill,
                            self.event(now_ns, flow, state.rtx_seq, TraceKind::Retransmit),
                        );
                        state.rtx_seq += 1;
                    }
                    ConnEvent::Established => state.enqueue_floor_ns = now_ns,
                    ev => record_window_sample(&mut obs.cc_obs, ev),
                }
            }
            for f in transport.take_writable() {
                let Some(&End::Client(flow)) = end_of.get(f.index()) else {
                    continue;
                };
                let state = &mut states[flow];
                if state.sent == state.stream.len() {
                    continue;
                }
                while state.sent < state.stream.len() {
                    let n = transport.write(f, &state.stream[state.sent..]);
                    if n == 0 {
                        break;
                    }
                    state.sent += n;
                }
                let now_ns = ns_of(transport.now());
                let enqueued = state.mark_enqueued(now_ns);
                obs.counters.add(C_RECORDS_ENQUEUED, enqueued);
                if state.sent == state.stream.len() {
                    obs.staging_dwell
                        .record(now_ns.saturating_sub(state.staged_ns));
                }
            }
            for f in transport.take_readable() {
                let Some(&End::Server(flow)) = end_of.get(f.index()) else {
                    continue;
                };
                let now_us = transport.now().as_micros();
                let now_ns = now_us.saturating_mul(1_000);
                while let Some(chunk) = transport.read(f) {
                    let state = &mut states[flow];
                    obs.counters.inc(C_CHUNKS_DELIVERED);
                    if !chunk.in_order {
                        state.ooo_chunks += 1;
                        obs.counters.inc(C_CHUNKS_OUT_OF_ORDER);
                    }
                    if !state.first_chunk_seen {
                        state.first_chunk_seen = true;
                        obs.record_event(
                            &mut spill,
                            self.event(now_ns, flow, 0, TraceKind::FirstByte),
                        );
                    }
                    // Checked against the sent bytes here, in place, and then
                    // dropped: nothing is kept for a later reassembly.
                    let run = state
                        .accept_chunk(chunk.offset, &chunk.data)
                        .unwrap_or_else(|e| panic!("[{label}] flow {flow}: {e}"));
                    // Records whose full byte range just became covered are
                    // *delivered*: stamp their delay. uTCP receivers complete
                    // later records while earlier holes persist; ordered TCP
                    // cannot — that asymmetry is the paper's figure of merit.
                    let chunk_end = chunk.offset + chunk.data.len() as u64;
                    for (rec, enqueue_ns) in state.complete_records((chunk.offset, chunk_end), run)
                    {
                        let delay_ns = now_ns.saturating_sub(enqueue_ns);
                        obs.delivery_delay.record(delay_ns);
                        obs.flow_delay
                            .record((self.first_flow + flow) as u32, delay_ns);
                        obs.counters.inc(C_RECORDS_DELIVERED);
                        obs.record_event(
                            &mut spill,
                            self.event(now_ns, flow, rec as u32, TraceKind::RecordDelivered),
                        );
                    }
                    obs.gauges
                        .observe(G_COVERAGE_RANGES_HIGH_WATER, state.covered.len() as u64);
                    if state.completion_us.is_none() && state.is_complete() {
                        state.completion_us = Some(now_us);
                        completed += 1;
                    }
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
        let completion_us = states
            .iter()
            .map(|s| s.completion_us.expect("all complete"))
            .max()
            .unwrap_or(0);

        // Snapshot the runtime counters now: the report's rates describe the
        // load phase, not the FIN/TIME-WAIT close-out below.
        let engine_metrics = transport.metrics();
        let events = engine_metrics.events();

        // Orderly close both sides and drive the FIN exchanges.
        let fin_ns = ns_of(transport.now());
        for (flow, state) in states.iter().enumerate() {
            obs.record_event(&mut spill, self.event(fin_ns, flow, 0, TraceKind::Fin));
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

        // A streaming run appends its self-describing shard trailer and
        // keeps only the stream's counters.
        if let Some(mut s) = spill {
            let shard = (self.first_flow / SHARD_FLOWS) as u32;
            let filter = &obs.trace_filter;
            let trailer = shard_trailer_json(
                shard,
                &s.stats(),
                filter.admitted,
                filter.suppressed,
                filter.predicate.kinds,
            );
            s.write_line(&trailer);
            obs.stream = s.finish();
        }

        // Assemble the report. Every chunk was compared with the sent stream
        // as it arrived and the coverage is complete, so the sent stream *is*
        // the delivered one, byte for byte: delivered bytes come from the
        // coverage ranges, records and the fingerprint from walking it.
        let mut per_flow = Vec::with_capacity(self.flows);
        let mut total_bytes = 0u64;
        let mut records_delivered = 0u64;
        for (flow, state) in states.iter().enumerate() {
            let global_flow = self.first_flow + flow;
            assert!(
                state.is_complete(),
                "[{label}] flow {flow}: delivered chunks do not cover the sent stream"
            );
            if !self.receiver_utcp {
                assert_eq!(
                    state.ooo_chunks, 0,
                    "[{label}] flow {flow}: standard receiver saw out-of-order chunks"
                );
            }
            let bytes_covered: u64 = state.covered.iter().map(|(s, e)| e - s).sum();
            let flow_records = parse_records(&state.stream, global_flow as u32)
                .unwrap_or_else(|e| panic!("[{label}] flow {global_flow}: {e}"));
            let stats = transport.flow_stats(state.client);
            let mut fingerprint: u64 = FNV_OFFSET_BASIS;
            fnv1a_words(&mut fingerprint, &state.stream);
            per_flow.push(FlowMetrics {
                flow: global_flow as u32,
                bytes_delivered: bytes_covered,
                records_delivered: flow_records,
                chunks_out_of_order: state.ooo_chunks,
                retransmissions: stats.retransmissions,
                fast_retransmits: stats.fast_retransmits,
                rto_fires: stats.rto_fires,
                completion_us: state.completion_us.expect("all complete"),
                fingerprint,
            });
            total_bytes += bytes_covered;
            records_delivered += flow_records;
        }
        LoadReport {
            label,
            seed: self.seed,
            flows: self.flows as u64,
            records_sent: (self.flows * self.records_per_flow) as u64,
            records_delivered,
            total_bytes,
            completion_us,
            goodput_bps: (total_bytes * 8 * 1_000_000)
                .checked_div(completion_us)
                .unwrap_or(0),
            events_per_sim_sec: (events * 1_000_000).checked_div(completion_us).unwrap_or(0),
            engine: engine_metrics,
            obs,
            phases: NonDeterministic(transport.phases()),
            per_flow,
        }
    }

    // ------------------------------------------------------------------
    // Sharded execution (the parallel sweep substrate)
    // ------------------------------------------------------------------

    /// Number of `SHARD_FLOWS`-flow shards this scenario decomposes into.
    /// A property of the flow count only — never of the thread count.
    pub fn shard_count(&self) -> usize {
        self.flows.div_ceil(SHARD_FLOWS).max(1)
    }

    /// Shard `s` of the decomposition: flows
    /// `[s · SHARD_FLOWS, (s+1) · SHARD_FLOWS)` of this scenario as an
    /// independent sub-scenario — its own engine, its own link, and a seed
    /// derived from `(seed, s)` so shards' loss processes are independent
    /// but fixed.
    pub fn shard(&self, s: usize) -> LoadScenario {
        assert!(s < self.shard_count(), "shard {s} out of range");
        let start = s * SHARD_FLOWS;
        LoadScenario {
            flows: SHARD_FLOWS.min(self.flows - start),
            first_flow: self.first_flow + start,
            seed: shard_seed(self.seed, s as u64),
            trace_stream: self
                .trace_stream
                .as_ref()
                .map(|base| shard_stream_path(base, s)),
            ..self.clone()
        }
    }

    /// Run the scenario sharded across `threads` executor workers and merge
    /// the per-shard reports **by shard index**.
    ///
    /// Byte-identical at any `threads` value: the shard decomposition and
    /// every shard's seed are fixed by the scenario, each shard runs in its
    /// own deterministic [`SimTransport`], and the executor hands the shard
    /// reports back in shard order. Note the sharded model gives each shard
    /// its own bottleneck link — cross-shard congestion coupling is
    /// deliberately out of scope (each shard is the unit of fidelity), so a
    /// sharded report is not comparable to an unsharded
    /// [`LoadScenario::run`] of the same flow count.
    pub fn run_sharded(&self, threads: usize) -> LoadReport {
        let shards: Vec<LoadScenario> = (0..self.shard_count()).map(|s| self.shard(s)).collect();
        let reports = Executor::new(threads).run(shards, |_, shard| shard.run());
        let merged = self.merge_shard_reports(&reports);
        // Merge per-shard spill files (named by shard index, so identical
        // whatever worker ran which shard) into one `(t_ns, shard)`-ordered
        // JSONL at the base path, then drop the spills: the merged artifact
        // is the deliverable and is byte-identical at any thread count.
        if let Some(base) = &self.trace_stream {
            let paths: Vec<PathBuf> = (0..self.shard_count())
                .map(|s| PathBuf::from(shard_stream_path(base, s)))
                .collect();
            let m = merge_stream_files(&paths, Path::new(base))
                .unwrap_or_else(|e| panic!("[{}] merging trace stream {base}: {e}", self.label()));
            assert_eq!(
                m.emitted,
                merged.obs.stream.emitted,
                "[{}] merged stream trailer disagrees with stream accounting",
                self.label()
            );
            assert_eq!(
                m.events,
                m.emitted,
                "[{}] merged stream lost events",
                self.label()
            );
            for p in &paths {
                let _ = std::fs::remove_file(p);
            }
        }
        merged
    }

    /// Merge per-shard reports (in shard order) into one scenario report:
    /// counters sum, completion is the latest shard's, rates are recomputed
    /// from the merged totals, and `per_flow` concatenates in shard order —
    /// which is global flow order, since shards partition the flow range
    /// contiguously.
    fn merge_shard_reports(&self, reports: &[LoadReport]) -> LoadReport {
        assert_eq!(reports.len(), self.shard_count());
        let mut engine = EngineMetrics::default();
        let mut obs = LoadObs::default();
        let mut phases = PhaseProfile::default();
        let mut per_flow = Vec::with_capacity(self.flows);
        let (mut records_sent, mut records_delivered, mut total_bytes) = (0u64, 0u64, 0u64);
        let mut completion_us = 0u64;
        for report in reports {
            engine.absorb(&report.engine);
            obs.absorb(&report.obs);
            phases.absorb(report.phases.get());
            records_sent += report.records_sent;
            records_delivered += report.records_delivered;
            total_bytes += report.total_bytes;
            completion_us = completion_us.max(report.completion_us);
            per_flow.extend(report.per_flow.iter().cloned());
        }
        let events = engine.events();
        LoadReport {
            label: format!("{}/shards{}", self.label(), reports.len()),
            seed: self.seed,
            flows: self.flows as u64,
            records_sent,
            records_delivered,
            total_bytes,
            completion_us,
            goodput_bps: (total_bytes * 8 * 1_000_000)
                .checked_div(completion_us)
                .unwrap_or(0),
            events_per_sim_sec: (events * 1_000_000).checked_div(completion_us).unwrap_or(0),
            engine,
            obs,
            phases: NonDeterministic(phases),
            per_flow,
        }
    }
}

/// Per-shard spill path of a streamed trace: named by **shard index**
/// (never worker thread), the invariant the thread-count byte-identity
/// of the merged stream rests on.
fn shard_stream_path(base: &str, s: usize) -> String {
    format!("{base}.shard{s:05}")
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

/// Run a scenario sharded, **twice**, assert byte-identical merged reports,
/// and return the verified report. The two passes may use different worker
/// counts without affecting the result ([`LoadScenario::run_sharded`]).
pub fn verify_load_sharded(scenario: &LoadScenario, threads: usize) -> LoadReport {
    let first = scenario.run_sharded(threads);
    let second = scenario.run_sharded(threads);
    assert_eq!(
        first,
        second,
        "[{}] same seed must reproduce identical sharded load metrics",
        scenario.label()
    );
    first
}

/// Walk a reassembled stream's record framing and return how many complete,
/// well-formed records it contains: each must carry the owning flow's id and
/// a sequential record index, and the final record must end exactly at the
/// stream end. This is the *measured* per-stream-order check the delivery
/// metrics are derived from.
fn parse_records(stream: &[u8], flow: u32) -> Result<u64, String> {
    let mut records = 0u64;
    let mut pos = 0usize;
    while pos < stream.len() {
        if pos + 12 > stream.len() {
            return Err(format!("truncated record header at offset {pos}"));
        }
        let f = u32::from_be_bytes(stream[pos..pos + 4].try_into().expect("4 bytes"));
        let rec = u32::from_be_bytes(stream[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let len =
            u32::from_be_bytes(stream[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        if f != flow {
            return Err(format!("record at offset {pos} carries flow id {f}"));
        }
        if u64::from(rec) != records {
            return Err(format!(
                "record at offset {pos} is #{rec}, expected #{records} (order violated)"
            ));
        }
        if pos + 12 + len > stream.len() {
            return Err(format!("record #{rec} payload runs past the stream end"));
        }
        pos += 12 + len;
        records += 1;
    }
    Ok(records)
}

/// Delivery tracking of one framed record: its stream byte range, when the
/// transport accepted its last byte, and whether its full range has reached
/// the application.
struct RecordTrack {
    start: u64,
    end: u64,
    enqueue_ns: u64,
    delivered: bool,
}

/// Which end of which flow (index into the driver's `FlowState`s) a
/// transport [`FlowId`] names.
#[derive(Clone, Copy)]
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

/// Both ends' bookkeeping for one flow.
struct FlowState {
    client: FlowId,
    server: Option<FlowId>,
    /// Pairing key for accepts: the client's ephemeral port.
    pair_key: u64,
    /// The stream as sent. Delivered chunks are compared against it in
    /// place (duplicates too: uTCP delivers at-least-once), so it lives as
    /// long as chunks can arrive.
    stream: Vec<u8>,
    /// Bytes of `stream` the transport has accepted; the rest is flushed
    /// on writable edges.
    sent: usize,
    /// Backend time (ns) the stream was staged, for the staging-dwell
    /// histogram.
    staged_ns: u64,
    /// Merged, sorted coverage ranges of the received stream.
    covered: Vec<(u64, u64)>,
    ooo_chunks: u64,
    completion_us: Option<u64>,
    /// Per-record delivery-delay tracking (obs), in stream order.
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
    first_chunk_seen: bool,
    /// Per-flow sequence numbers of traced RTO / retransmit edges.
    rto_seq: u32,
    rtx_seq: u32,
}

impl FlowState {
    fn new(
        client: FlowId,
        pair_key: u64,
        stream: Vec<u8>,
        staged_ns: u64,
        bounds: Vec<(u64, u64)>,
    ) -> Self {
        FlowState {
            client,
            server: None,
            pair_key,
            stream,
            sent: 0,
            staged_ns,
            covered: Vec::new(),
            ooo_chunks: 0,
            completion_us: None,
            records: bounds
                .into_iter()
                .map(|(start, end)| RecordTrack {
                    start,
                    end,
                    enqueue_ns: 0,
                    delivered: false,
                })
                .collect(),
            enqueued: 0,
            enqueue_floor_ns: 0,
            first_chunk_seen: false,
            rto_seq: 0,
            rtx_seq: 0,
        }
    }

    /// Stamp every record whose last byte the transport has now accepted
    /// (`self.sent` is the flow's send cursor); returns how many records
    /// this call enqueued.
    fn mark_enqueued(&mut self, now_ns: u64) -> u64 {
        let from = self.enqueued;
        while let Some(r) = self.records.get_mut(self.enqueued) {
            if r.end > self.sent as u64 {
                break;
            }
            r.enqueue_ns = now_ns;
            self.enqueued += 1;
        }
        (self.enqueued - from) as u64
    }

    /// Check a delivered chunk against the sent stream and merge it into the
    /// coverage set; returns the coverage run it now belongs to.
    fn accept_chunk(&mut self, offset: u64, data: &[u8]) -> Result<(u64, u64), &'static str> {
        let end = offset + data.len() as u64;
        if end > self.stream.len() as u64 {
            return Err("chunk past stream end");
        }
        if data != &self.stream[offset as usize..end as usize] {
            return Err("delivered chunk differs from the sent stream");
        }
        Ok(self.cover(offset, end))
    }

    /// Merge `[start, end)` into the coverage set; returns the merged run.
    /// An empty range joins nothing and changes nothing.
    fn cover(&mut self, start: u64, end: u64) -> (u64, u64) {
        if start == end {
            return (start, end);
        }
        let idx = self.covered.partition_point(|&(_, e)| e < start);
        let mut start = start;
        let mut end = end;
        let mut remove_until = idx;
        while remove_until < self.covered.len() && self.covered[remove_until].0 <= end {
            start = start.min(self.covered[remove_until].0);
            end = end.max(self.covered[remove_until].1);
            remove_until += 1;
        }
        self.covered.splice(idx..remove_until, [(start, end)]);
        (start, end)
    }

    /// Mark delivered every record whose full byte range just became
    /// covered, yielding each one's index and the time its delivery delay
    /// counts from (marking happens as the iterator is consumed). Only
    /// records the chunk `[chunk.0, chunk.1)` touches can have completed,
    /// and they complete iff `run`, the coverage run the chunk joined
    /// ([`FlowState::accept_chunk`]), holds them whole.
    fn complete_records(
        &mut self,
        chunk: (u64, u64),
        run: (u64, u64),
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        let floor_ns = self.enqueue_floor_ns;
        let first = self.records.partition_point(|r| r.end <= chunk.0);
        self.records[first..]
            .iter_mut()
            .take_while(move |r| r.start < chunk.1)
            .enumerate()
            .filter(move |(_, r)| !r.delivered && run.0 <= r.start && r.end <= run.1)
            .map(move |(i, r)| {
                r.delivered = true;
                (first + i, r.enqueue_ns.max(floor_ns))
            })
    }

    fn is_complete(&self) -> bool {
        self.covered == [(0, self.stream.len() as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_state(stream: Vec<u8>, bounds: Vec<(u64, u64)>) -> FlowState {
        FlowState::new(FlowId(0), 0, stream, 0, bounds)
    }

    #[test]
    fn coverage_merging_detects_completion() {
        let mut s = flow_state(vec![0u8; 10], vec![(0, 10)]);
        assert_eq!(s.accept_chunk(4, &[0u8; 3]), Ok((4, 7)));
        assert!(!s.is_complete());
        assert_eq!(s.accept_chunk(0, &[0u8; 4]), Ok((0, 7)), "[0,4) abuts");
        assert_eq!(s.covered, vec![(0, 7)]);
        assert_eq!(s.accept_chunk(8, &[0u8; 2]), Ok((8, 10)), "gap at 7");
        assert_eq!(s.covered, vec![(0, 7), (8, 10)]);
        assert_eq!(s.accept_chunk(5, &[0u8; 4]), Ok((0, 10)), "[5,9) bridges");
        assert!(s.is_complete());
        // Duplicates change nothing.
        assert_eq!(s.accept_chunk(0, &[0u8; 10]), Ok((0, 10)));
        assert_eq!(s.covered, vec![(0, 10)]);
        // Nor does an empty chunk, wherever it claims to sit.
        assert_eq!(s.accept_chunk(3, &[]), Ok((3, 3)));
        assert_eq!(s.covered, vec![(0, 10)]);
    }

    #[test]
    fn every_chunk_is_compared_with_the_sent_stream_in_place() {
        let stream: Vec<u8> = (0..32u8).collect();
        let mut s = flow_state(stream.clone(), vec![(0, 32)]);
        assert!(s.accept_chunk(8, &stream[8..20]).is_ok());
        // Right bytes, wrong place; one flipped bit; a duplicate that
        // differs from what was accepted before; a chunk past the end.
        assert!(s.accept_chunk(9, &stream[8..20]).is_err());
        let mut flipped = stream[20..32].to_vec();
        flipped[5] ^= 1;
        assert!(s.accept_chunk(20, &flipped).is_err());
        let mut duplicate = stream[8..20].to_vec();
        duplicate[0] ^= 0x80;
        assert!(s.accept_chunk(8, &duplicate).is_err());
        assert!(s.accept_chunk(30, &[30, 31, 32]).is_err());
        // None of the rejects counted as coverage.
        assert_eq!(s.covered, vec![(8, 20)]);
    }

    #[test]
    fn enqueue_stamps_follow_the_send_cursor() {
        let bounds = vec![(0, 10), (10, 25), (25, 40)];
        let mut s = flow_state(vec![0u8; 40], bounds);
        s.sent = 9;
        assert_eq!(s.mark_enqueued(100), 0, "no record accepted whole yet");
        s.sent = 25;
        assert_eq!(s.mark_enqueued(200), 2);
        s.sent = 40;
        assert_eq!(s.mark_enqueued(300), 1);
        assert_eq!(s.mark_enqueued(400), 0);
        let stamps: Vec<u64> = s.records.iter().map(|r| r.enqueue_ns).collect();
        assert_eq!(stamps, vec![200, 200, 300]);
    }

    #[test]
    fn records_complete_when_a_coverage_run_holds_them_whole() {
        let bounds = vec![(0, 10), (10, 25), (25, 40), (40, 50)];
        let mut s = flow_state(vec![0u8; 50], bounds);
        s.sent = 50;
        s.mark_enqueued(100);
        s.enqueue_floor_ns = 150;
        let deliver = |s: &mut FlowState, from: u64, to: u64| -> Vec<(usize, u64)> {
            let run = s
                .accept_chunk(from, &vec![0u8; (to - from) as usize])
                .unwrap();
            s.complete_records((from, to), run).collect()
        };
        // [12, 30) holds no record whole: #1 lacks [10, 12), #2 lacks
        // [30, 40).
        assert_eq!(deliver(&mut s, 12, 30), vec![]);
        // Out of order: #3 completes while the holes before it persist,
        // and its delay counts from establishment, not the earlier stamp.
        assert_eq!(deliver(&mut s, 40, 50), vec![(3, 150)]);
        // [30, 40) joins [12, 50): #2 completes; #3, touched at its
        // boundary only, is neither re-examined nor re-delivered.
        assert_eq!(deliver(&mut s, 30, 40), vec![(2, 150)]);
        // One chunk can complete several records.
        assert_eq!(deliver(&mut s, 0, 12), vec![(0, 150), (1, 150)]);
        assert!(s.is_complete());
        // A duplicate delivers nothing twice.
        assert_eq!(deliver(&mut s, 0, 50), vec![]);
        // A stamp later than establishment counts from itself.
        let mut late = flow_state(vec![0u8; 10], vec![(0, 10)]);
        late.sent = 10;
        late.mark_enqueued(500);
        late.enqueue_floor_ns = 150;
        assert_eq!(deliver(&mut late, 0, 10), vec![(0, 500)]);
    }

    #[test]
    fn streams_are_distinct_per_flow_and_framed() {
        let sc = LoadScenario::with_flows(2);
        let mut a = Vec::new();
        let mut b = Vec::new();
        sc.build_stream(0, &mut a);
        sc.build_stream(1, &mut b);
        assert_ne!(a, b);
        assert_eq!(a.len() as u64, sc.record_bounds(0).last().unwrap().1);
        // First record header parses back.
        assert_eq!(u32::from_be_bytes(a[0..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_be_bytes(a[4..8].try_into().unwrap()), 0);
        let len = u32::from_be_bytes(a[8..12].try_into().unwrap()) as usize;
        assert_eq!(len, sc.record_payload_len(0, 0));
    }

    #[test]
    fn stream_payloads_follow_the_documented_formula_past_one_period() {
        // Records shorter than, equal to and several times the 251-byte
        // period, at flow indices that move the starting phase.
        for record_len in [2, 100, 251, 502, 1400] {
            let sc = LoadScenario {
                record_len,
                records_per_flow: 5,
                ..LoadScenario::default()
            };
            for flow in [0, 1, 250, 1007] {
                let mut stream = Vec::new();
                sc.build_stream(flow, &mut stream);
                let mut pos = 0;
                for rec in 0..sc.records_per_flow {
                    let len = sc.record_payload_len(flow, rec);
                    let payload = &stream[pos + 12..pos + 12 + len];
                    for (j, &byte) in payload.iter().enumerate() {
                        let expected = ((flow * 197 + rec * 131 + j * 31) % 251) as u8;
                        assert_eq!(
                            byte, expected,
                            "len {record_len} flow {flow} rec {rec} byte {j}"
                        );
                    }
                    pos += 12 + len;
                }
                assert_eq!(pos, stream.len());
            }
        }
    }

    #[test]
    fn record_parsing_measures_order_and_completeness() {
        let sc = LoadScenario::with_flows(1);
        let mut stream = Vec::new();
        sc.build_stream(0, &mut stream);
        assert_eq!(
            parse_records(&stream, 0).unwrap(),
            sc.records_per_flow as u64
        );
        // Wrong flow id, truncation, and a swapped record all fail.
        assert!(parse_records(&stream, 1).is_err());
        assert!(parse_records(&stream[..stream.len() - 1], 0).is_err());
        let mut two = Vec::new();
        LoadScenario {
            records_per_flow: 1,
            ..sc.clone()
        }
        .build_stream(0, &mut two);
        let second_start = two.len();
        let mut swapped = Vec::new();
        // Build records #0 and #1, then present #1 first.
        LoadScenario {
            records_per_flow: 2,
            ..sc.clone()
        }
        .build_stream(0, &mut swapped);
        let mut reordered = swapped[second_start..].to_vec();
        reordered.extend_from_slice(&swapped[..second_start]);
        assert!(parse_records(&reordered, 0).is_err(), "order is checked");
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
        // A shard's streams are the global scenario's streams.
        let mut from_shard = Vec::new();
        shards[1].build_stream(130, &mut from_shard);
        let mut from_whole = Vec::new();
        sc.build_stream(130, &mut from_whole);
        assert_eq!(from_shard, from_whole);
        // Sub-SHARD_FLOWS scenarios are a single shard.
        assert_eq!(LoadScenario::with_flows(1).shard_count(), 1);
        assert_eq!(LoadScenario::with_flows(128).shard_count(), 1);
    }

    #[test]
    fn sharded_run_is_identical_at_any_thread_count() {
        let sc = LoadScenario {
            flows: 256,
            loss: LossConfig::Bernoulli { probability: 0.01 },
            ..LoadScenario::default()
        };
        let serial = sc.run_sharded(1);
        assert_eq!(serial.flows, 256);
        assert_eq!(serial.records_delivered, serial.records_sent);
        assert_eq!(serial.per_flow.len(), 256);
        // per_flow concatenates in shard order == global flow order.
        for (i, f) in serial.per_flow.iter().enumerate() {
            assert_eq!(f.flow as usize, i);
        }
        assert!(serial.label.ends_with("/shards2"));
        let parallel = sc.run_sharded(4);
        assert_eq!(
            serial, parallel,
            "sharded reports must be byte-identical across thread counts"
        );
        // And the two-run determinism gate holds for the sharded path too.
        let verified = verify_load_sharded(&sc, 2);
        assert_eq!(verified, serial);
    }

    #[test]
    fn delivery_delay_separates_ordered_from_unordered_receivers() {
        let mk = |utcp| LoadScenario {
            flows: 128,
            ..LoadScenario::obs_comparison(utcp)
        };
        let utcp = mk(true).run();
        let tcp = mk(false).run();
        // The histograms saw every record exactly once.
        assert_eq!(utcp.obs.delivery_delay.count(), utcp.records_sent);
        assert_eq!(
            utcp.obs.counters.get(C_RECORDS_DELIVERED),
            utcp.records_sent
        );
        assert_eq!(utcp.obs.counters.get(C_RECORDS_ENQUEUED), utcp.records_sent);
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
        assert!(utcp.obs.gauges.get(G_COVERAGE_RANGES_HIGH_WATER) > 1);
        assert_eq!(tcp.obs.gauges.get(G_COVERAGE_RANGES_HIGH_WATER), 1);
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

    #[test]
    fn streamed_trace_merges_byte_identically_across_thread_counts() {
        let dir = std::env::temp_dir().join(format!("minion_scn_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc = |path: &std::path::Path| LoadScenario {
            flows: 256,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            trace_stream: Some(path.display().to_string()),
            ..LoadScenario::default()
        };
        let p1 = dir.join("t1.jsonl");
        let p4 = dir.join("t4.jsonl");
        let r1 = sc(&p1).run_sharded(1);
        let r4 = sc(&p4).run_sharded(4);
        assert_eq!(r1, r4, "reports identical across thread counts");
        let b1 = std::fs::read(&p1).unwrap();
        let b4 = std::fs::read(&p4).unwrap();
        assert_eq!(
            b1, b4,
            "merged streamed JSONL identical across thread counts"
        );
        // Zero-drop: the stream saw exactly what the filter admitted, and
        // the ring agrees on the recorded count.
        assert_eq!(r1.obs.stream.emitted, r1.obs.trace_filter.admitted);
        assert_eq!(r1.obs.stream.dropped, 0);
        assert_eq!(r1.obs.trace.recorded(), r1.obs.trace_filter.admitted);
        // Spill files were cleaned up; only the merged artifact remains.
        assert!(!dir.join("t1.jsonl.shard00000").exists());
        // The merged file is (t_ns, shard)-ordered with one trailer.
        let text = String::from_utf8(b1).unwrap();
        let mut last_t = 0u64;
        let mut events = 0u64;
        for line in text.lines() {
            if line.contains("\"summary\":true") {
                assert!(line.contains("\"shards\":2"), "{line}");
                continue;
            }
            let t: u64 = line
                .split("\"t_ns\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(t >= last_t, "t_ns must be non-decreasing");
            last_t = t;
            events += 1;
        }
        assert_eq!(events, r1.obs.stream.emitted);
        // Per-flow attribution survived the sharded merge: every flow has
        // a digest, sample counts add up, and the worst flow's p99 bounds
        // the global histogram's interpolated p99 from above.
        assert_eq!(r1.obs.flow_delay.len(), 256);
        assert_eq!(
            r1.obs.flow_delay.total_samples(),
            r1.obs.delivery_delay.count()
        );
        let top = r1.obs.flow_delay.top_k(5);
        assert_eq!(top.len(), 5);
        assert!(top[0].1.p99() >= top[4].1.p99(), "sorted by p99 desc");
        assert!(
            top[0].1.max() >= r1.obs.delivery_delay.p99(),
            "worst flow owns the global tail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_sliced_trace_counts_suppression_and_keeps_only_the_slice() {
        let sc = LoadScenario {
            flows: 16,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            trace_kinds: minion_obs::KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]),
            ..LoadScenario::default()
        };
        let report = sc.run();
        assert!(
            report
                .obs
                .trace
                .events()
                .all(|e| matches!(e.kind, TraceKind::Retransmit | TraceKind::RtoFired)),
            "only recovery events enter the sinks"
        );
        assert!(report.obs.trace.recorded() > 0, "2% loss forces recovery");
        assert_eq!(
            report.obs.trace_filter.admitted,
            report.obs.trace.recorded()
        );
        assert!(
            report.obs.trace_filter.suppressed >= (sc.flows * 3) as u64,
            "syn/first_byte/fin of every flow are suppressed and counted"
        );
    }

    /// `trace_flow` keeps one flow in the ring and the stream alike, counts
    /// every other flow's events as suppressed, and conjoins with a kind
    /// slice.
    #[test]
    fn flow_sliced_trace_keeps_one_flow_in_ring_and_stream() {
        let dir = std::env::temp_dir().join(format!("minion_scn_flow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recovery = minion_obs::KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]);
        for (name, kinds) in [("all", minion_obs::KindSet::all()), ("recovery", recovery)] {
            let path = dir.join(format!("{name}.jsonl"));
            let report = LoadScenario {
                flows: 16,
                // Long enough streams that flow 7 itself retransmits.
                records_per_flow: 32,
                record_len: 600,
                loss: LossConfig::Bernoulli { probability: 0.02 },
                trace_flow: Some(7),
                trace_kinds: kinds,
                trace_stream: Some(path.display().to_string()),
                ..LoadScenario::default()
            }
            .run();
            let (trace, filter) = (&report.obs.trace, &report.obs.trace_filter);
            assert!(trace.recorded() > 0, "{name}: flow 7 traced nothing");
            assert!(
                trace
                    .events()
                    .all(|e| e.flow == 7 && kinds.contains(e.kind)),
                "{name}: an event outside the slice entered the ring"
            );
            assert_eq!(filter.admitted, trace.recorded());
            assert_eq!(report.obs.stream.emitted, filter.admitted);
            assert!(filter.suppressed > 0, "{name}: other flows were offered");
            // The stream holds exactly the ring's events (the ring kept all
            // of them), then its trailer.
            assert_eq!(trace.dropped(), 0);
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            let trailer = lines.pop().unwrap();
            assert!(trailer.contains("\"summary\":true"), "{trailer}");
            let ring: Vec<String> = trace.events().map(|e| e.to_json()).collect();
            assert_eq!(lines, ring, "{name}: stream and ring disagree");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sliced trace path, pinned: a flow × kind slice with a stream
    /// attached, every count the report keeps of it, the ring's event
    /// sequence and the stream file's exact bytes (trailer included).
    #[test]
    fn flow_and_kind_sliced_trace_path_is_pinned() {
        let dir = std::env::temp_dir().join(format!("minion_scn_pin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin.jsonl");
        let report = LoadScenario {
            flows: 16,
            records_per_flow: 32,
            record_len: 600,
            loss: LossConfig::Bernoulli { probability: 0.02 },
            trace_flow: Some(7),
            trace_kinds: KindSet::of(&[TraceKind::Retransmit, TraceKind::RtoFired]),
            trace_stream: Some(path.display().to_string()),
            ..LoadScenario::default()
        }
        .run();
        let obs = &report.obs;
        let mut bytes_hash = FNV_OFFSET_BASIS;
        crate::metrics::fnv1a(&mut bytes_hash, &std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        let got = (
            obs.trace_filter.admitted,
            obs.trace_filter.suppressed,
            obs.trace.recorded(),
            obs.stream.emitted,
            obs.stream.flushes,
            obs.trace_fingerprint(),
            bytes_hash,
        );
        assert_eq!(
            got,
            (
                2,
                569,
                2,
                2,
                1,
                0xd163_8510_d762_bd43,
                0x2759_5545_079b_4fce
            )
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
                crate::metrics::fnv1a(&mut hash, &word.to_le_bytes());
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
