//! The streaming flight-recorder gate: per-flow delay attribution must
//! actually attribute (the worst flow's tail sits strictly above the
//! global tail under ordered TCP), and the streaming trace sink must keep
//! every lifecycle event of a run that structurally overflows the bounded
//! trace ring.

use minion_repro::engine::{LoadScenario, DEFAULT_TRACE_CAP};

/// The paper's head-of-line-blocking story, per flow: under the canonical
/// ordered-TCP comparison scenario the stalls concentrate on the unlucky
/// flows, so the worst flow's p99 delivery delay strictly exceeds the
/// all-flows p99. This is the acceptance assertion for the `"flow_delay"`
/// section of `BENCH_engine.json` — the bench binary asserts it on every
/// run, and this test pins it in tier-1.
#[test]
fn worst_flow_p99_strictly_exceeds_global_p99_under_ordered_tcp() {
    let report = LoadScenario::obs_comparison(false).run();
    let global = &report.obs.delivery_delay;

    // Every flow has samples, and every delay sample is some flow's.
    assert_eq!(report.per_flow.len() as u64, report.flows);
    for f in &report.per_flow {
        assert!(f.records_delivered > 0, "flow {} has samples", f.flow);
    }
    let samples: u64 = report.per_flow.iter().map(|f| f.records_delivered).sum();
    assert_eq!(samples, global.count());

    // The ranking the `"flow_delay"` section prints: p99 descending, ties
    // by ascending flow.
    let mut top: Vec<_> = report.per_flow.iter().collect();
    top.sort_by_key(|f| (std::cmp::Reverse(f.delay_p99_ns), f.flow));
    top.truncate(8);
    assert!(
        top[0].delay_p99_ns > global.p99(),
        "worst flow #{} p99 {} ns must strictly exceed the global p99 {} ns",
        top[0].flow,
        top[0].delay_p99_ns,
        global.p99()
    );
    // The ranking is what it claims: non-increasing p99 down the list, and
    // every flow stays inside the global envelope.
    for pair in top.windows(2) {
        assert!(
            pair[0].delay_p99_ns >= pair[1].delay_p99_ns,
            "top-K sorted by p99"
        );
    }
    for f in &report.per_flow {
        assert!(
            f.delay_max_ns <= global.max(),
            "flow {} max exceeds the global max",
            f.flow
        );
    }
}

/// The flight-recorder scenario offers more lifecycle events than the
/// trace ring can hold — and with `--trace-stream`, loses none of them:
/// the run writes one JSONL in virtual-time order whose event-line count
/// equals the stream's emitted count exactly, closed by the sink's trailer.
/// The ring, meanwhile, demonstrably truncated.
#[test]
fn flight_recorder_streams_every_event_past_the_ring_cap() {
    let dir = std::env::temp_dir().join(format!("minion_flight_rec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    let scenario = LoadScenario {
        trace_stream: Some(path.display().to_string()),
        ..LoadScenario::flight_recorder(true)
    };
    let report = scenario.run();
    let offered = report.obs.trace.recorded();

    // The run is sized to overflow the ring: record deliveries alone fill
    // it, and SYN/first-byte/FIN/recovery events push past.
    assert!(
        offered > DEFAULT_TRACE_CAP as u64,
        "flight recorder offered {offered} events, ring holds {DEFAULT_TRACE_CAP}"
    );
    assert!(report.obs.trace.dropped() > 0, "the ring truncated");

    // The stream did not: every event the ring was offered is emitted.
    assert_eq!(report.obs.stream.emitted, offered);

    // The artifact agrees line-for-line: one JSONL line per emitted event
    // in non-decreasing t_ns order, then the trailer.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let (events, trailer) = lines.split_at(lines.len() - 1);
    assert_eq!(events.len() as u64, report.obs.stream.emitted);
    assert_eq!(
        trailer[0],
        format!("{{\"summary\":true,\"stream\":true,\"emitted\":{offered}}}"),
        "the trailer must close the file"
    );
    let mut last_t = 0u64;
    for line in events {
        let t_pos = line.find("\"t_ns\":").expect("event line carries t_ns") + 7;
        let t: u64 = line[t_pos..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(t >= last_t, "stream ordered by t_ns");
        last_t = t;
    }
    std::fs::remove_dir_all(&dir).ok();
}
