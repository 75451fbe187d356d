//! The benchmark's fixed tables: workloads, iteration counts, metric names
//! with unit, direction and bound. `BENCHMARK.json` at the repo root states
//! the same tables for the driver; a self-test keeps the two equal.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// How long one run measures when `--seconds` is not given (the driver
/// always passes `run_seconds` from `BENCHMARK.json`, which is this value).
pub const RUN_SECONDS: u64 = 10;

/// Set-ups (one warm-up iteration, inputs included) per run: at least this
/// many, and at least `SETUP_SECONDS` of them; `setup_s` is their median.
/// Seven, so that the first one, which alone pays the cold start, lies
/// outside the quartiles; the seconds, so that a workload with short
/// iterations does not report the process's first tenth of a second.
pub const SETUPS: usize = 7;
pub const SETUP_SECONDS: f64 = 0.5;

/// The warm-up iterations always run this seed, whatever `--seed` says:
/// warming caches does not care which inputs it runs, and a fixed draw
/// makes `setup_s` measure the machine and the code, not the draw.
pub const WARMUP_SEED: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Timed iterations whose virtual-time results are pooled. Iteration
    /// `i` runs the workload's shape with seed `seed + i`, so these
    /// results depend on the seed alone. A run keeps timing further
    /// iterations until `--seconds` have passed; those add wall-clock
    /// samples only. Scale every count by the same factor or none, and
    /// never touch a shape.
    pub iterations: usize,
    /// One line: which layers the workload stresses, and what it guards.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "bulk_clean",
        iterations: 80,
        why: "64 flows x 160 x 1400 B, 1 Gbit/s, no loss, ordered receiver: \
              per-byte data path (sendbuf, segment/wire codec, recvbuf in order); copies show here",
    },
    Workload {
        name: "churn_small",
        iterations: 160,
        why: "1024 flows x 12 x 160 B, uTCP receiver: per-flow and per-step fixed cost \
              (handshake/FIN, demux, timer wheel, driver maps); a copy optimisation predicts no change",
    },
    Workload {
        name: "lossy_utcp",
        iterations: 200,
        why: "256 flows x 32 x 600 B under 2 % loss, uTCP receiver: loss recovery and \
              out-of-order recvbuf; carries the paper's delivery-delay figure of merit",
    },
    Workload {
        name: "dgram_ucobs",
        iterations: 50,
        why: "4000 x 1200 B uCOBS datagrams, 20 Mbit/s, 1 % loss, over stack::Sim: COBS \
              encode/scan/decode and FragmentStore (Fig. 6a); guards the second event loop",
    },
    Workload {
        name: "dgram_utls",
        iterations: 20,
        why: "2000 x 1200 B uTLS datagrams on the same path: AES-CBC + HMAC record layer and \
              the out-of-order uTLS receiver (Fig. 6b); a TCP-path change predicts no change",
    },
    Workload {
        name: "prio_send",
        iterations: 200,
        why: "800 x 1000 B uCOBS datagrams, every 100th at priority 7, 2 Mbit/s deep backlog \
              (Fig. 10): mid-queue sendbuf insertion, where every other workload only appends",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// The driver holds medians over runs at *different* seeds to it, so
    /// it is three times the widest quartile spread seen across ten seeds
    /// on any workload (README, "Bounds"), capped at the contract's 0.25.
    /// At *equal* seeds `compare` holds the `exact` metrics to equality.
    pub bound: f64,
    /// Seed-determined: two runs at one seed must agree byte for byte.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("payload_mb_per_s", "MB/s", Better::Higher, 0.25, false),
    e2e("records_per_s", "records/s", Better::Higher, 0.25, false),
    e2e("delivery_delay_p50_ms", "ms", Better::Lower, 0.25, true),
    e2e("delivery_delay_p99_ms", "ms", Better::Lower, 0.25, true),
    e2e("virtual_goodput_mbps", "Mbit/s", Better::Higher, 0.25, true),
    e2e("wire_overhead_ratio", "ratio", Better::Lower, 0.01, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, grouped by layer in the order of README's table.
/// Times are per iteration (medians over the traced iterations); counts
/// are those of the first traced iteration and repeat exactly.
pub const PER_LAYER: [PerLayer; 94] = [
    // engine driver (LoadScenario::run_on minus the Transport calls)
    lower("engine.driver.self_ms", "ms"),
    lower("engine.driver.ns_per_record", "ns"),
    // engine transport boundary (one span per Transport call)
    lower("engine.transport.new_ms", "ms"),
    lower("engine.transport.connect_ms", "ms"),
    lower("engine.transport.write_ms", "ms"),
    lower("engine.transport.step_ms", "ms"),
    lower("engine.transport.step_calls", "count"),
    lower("engine.transport.read_ms", "ms"),
    lower("engine.transport.read_calls", "count"),
    lower("engine.transport.take_ms", "ms"),
    lower("engine.transport.close_ms", "ms"),
    // engine loop (LoadReport.phases / LoadReport.engine)
    lower("engine.step.flush_ms", "ms"),
    lower("engine.step.dispatch_ms", "ms"),
    lower("engine.step.timers_ms", "ms"),
    lower("engine.steps", "count"),
    lower("engine.packets_sent", "count"),
    lower("engine.packets_delivered", "count"),
    lower("engine.packets_dropped", "count"),
    lower("engine.timer_fires", "count"),
    lower("engine.flow_polls", "count"),
    lower("engine.step.ns_per_packet", "ns"),
    higher("engine.step.packets_per_s", "1/s"),
    lower("engine.flow_polls_per_packet", "ratio"),
    // tcp reliability
    lower("tcp.retransmissions", "count"),
    lower("tcp.fast_retransmits", "count"),
    lower("tcp.rto_fires", "count"),
    lower("tcp.bytes_retransmitted", "count"),
    lower("tcp.rto_wait_p99_ms", "ms"),
    higher("tcp.recvbuf.ooo_share", "ratio"),
    higher("tcp.hol_gap_p99_ms", "ms"),
    // core sockets (Fig. 6's sender/receiver split)
    lower("core.send.app_ms", "ms"),
    lower("core.send.ns_per_datagram", "ns"),
    lower("core.recv.app_ms", "ms"),
    lower("core.recv.ns_per_datagram", "ns"),
    // stack::Sim and its links
    lower("stack.sim.run_ms", "ms"),
    lower("stack.sim.packets", "count"),
    lower("stack.sim.ns_per_packet", "ns"),
    lower("simnet.link.dropped_loss", "count"),
    lower("simnet.link.dropped_queue", "count"),
    // record-layer statistics
    higher("core.ucobs.ooo_share", "ratio"),
    lower("core.ucobs.duplicates_suppressed", "count"),
    lower("core.ucobs.overhead_ratio", "ratio"),
    lower("tls.utls.candidate_headers", "count"),
    lower("tls.utls.mac_attempts_per_record", "ratio"),
    higher("tls.utls.ooo_share", "ratio"),
    lower("tls.utls.prediction_misses", "count"),
    lower("core.prio.high_p50_ms", "ms"),
    lower("core.prio.low_p50_ms", "ms"),
    // allocation (counting GlobalAlloc, one untraced iteration)
    lower("alloc.per_packet", "ratio"),
    lower("alloc.per_record", "ratio"),
    lower("alloc.bytes_per_payload_byte", "ratio"),
    lower("alloc.peak_live_mb", "MB"),
    // kernels: tcp::sendbuf
    lower("tcp.sendbuf.write_ns", "ns"),
    lower("tcp.sendbuf.data_at_ns", "ns"),
    lower("tcp.sendbuf.ack_ns", "ns"),
    lower("tcp.sendbuf.prio_insert_ns", "ns"),
    lower("tcp.sendbuf.allocs_per_segment", "ratio"),
    // kernels: tcp::segment, stack::wire
    lower("tcp.segment.encode_ns", "ns"),
    lower("tcp.segment.decode_ns", "ns"),
    lower("tcp.segment.allocs_per_segment", "ratio"),
    lower("stack.wire.encode_ns", "ns"),
    lower("stack.wire.decode_ns", "ns"),
    lower("stack.wire.allocs_per_packet", "ratio"),
    // kernels: tcp::recvbuf
    lower("tcp.recvbuf.on_data_inorder_ns", "ns"),
    lower("tcp.recvbuf.on_data_ooo_ns", "ns"),
    lower("tcp.recvbuf.read_ns", "ns"),
    lower("tcp.recvbuf.allocs_per_segment", "ratio"),
    // kernels: tcp::connection (two connections back to back, no sim)
    lower("tcp.connection.ns_per_segment", "ns"),
    lower("tcp.connection.allocs_per_segment", "ratio"),
    // kernels: stack::demux, simnet, engine::wheel
    lower("stack.demux.get_ns", "ns"),
    lower("simnet.world.send_drain_ns", "ns"),
    lower("simnet.link.transmit_ns", "ns"),
    lower("engine.wheel.schedule_ns", "ns"),
    lower("engine.wheel.advance_ns", "ns"),
    // kernels: cobs, core::FragmentStore
    lower("cobs.encode_ns_per_kb", "ns/KB"),
    lower("cobs.decode_ns_per_kb", "ns/KB"),
    lower("cobs.scan_ns_per_kb", "ns/KB"),
    lower("cobs.allocs_per_record", "ratio"),
    lower("core.fragment.insert_ns", "ns"),
    // kernels: crypto, tls
    lower("crypto.hmac_ns_per_kb", "ns/KB"),
    lower("crypto.aes_cbc_enc_ns_per_kb", "ns/KB"),
    lower("crypto.aes_cbc_dec_ns_per_kb", "ns/KB"),
    lower("tls.record.seal_ns", "ns"),
    lower("tls.record.open_ns", "ns"),
    lower("tls.utls.fragment_inorder_ns", "ns"),
    lower("tls.utls.fragment_after_hole_ns", "ns"),
    lower("tls.utls.allocs_per_fragment", "ratio"),
    // kernels and paired runs: obs, exec (diagnostic only)
    lower("obs.hist.record_ns", "ns"),
    lower("obs.ring.offer_ns", "ns"),
    lower("obs.stream.overhead_pct", "%"),
    higher("exec.shard_speedup", "ratio"),
    lower("exec.run_overhead_us", "us"),
    // how much of the wall the table accounts for
    higher("model.explained_share", "ratio"),
    lower("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    /// Names, units, directions, bounds and whys: the manifest says exactly
    /// what the tables say, in both directions.
    #[test]
    fn benchmark_json_states_these_tables() {
        let m = manifest();
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            m.get("paths").map(Json::as_arr),
            Some(&[Json::str("benchmark")][..])
        );

        let listed = m.get("workloads").expect("workloads").as_arr();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(field(entry, "why"), why);
            assert!(why.len() <= 200, "{}: why has {} chars", w.name, why.len());
        }

        let listed = m.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, e) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), e.name);
            assert_eq!(field(entry, "unit"), e.unit);
            assert_eq!(field(entry, "better"), e.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(e.bound));
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }

        let listed = m.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, p) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), p.name);
            assert_eq!(field(entry, "unit"), p.unit);
            assert_eq!(field(entry, "better"), p.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, "s"))
            .chain(END_TO_END.iter().map(|e| (e.name, e.unit)))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)));
        for (name, unit) in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        let largest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }
}
