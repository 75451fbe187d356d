//! Batch-runner stress tests: results in submission order under uneven job
//! durations, and free workers that keep taking jobs past a stuck one.

use minion_exec::Executor;

/// Burn CPU for a deterministic, input-dependent amount of work and return a
/// value derived from it (so the work cannot be optimised away).
fn spin_work(units: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..units * 500 {
        h ^= i;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Job durations vary by ~50× across the batch (index-dependent), finishing
/// far out of submission order — the results must still come back strictly
/// by index at every thread count.
#[test]
fn uneven_job_durations_still_collect_in_submission_order() {
    let inputs: Vec<u64> = (0..96).map(|i| 1 + (i * 37) % 50).collect();
    let expected: Vec<(usize, u64)> = inputs
        .iter()
        .enumerate()
        .map(|(i, &units)| (i, spin_work(units)))
        .collect();
    for threads in [1, 2, 8] {
        let out = Executor::new(threads).run(inputs.clone(), |i, units| (i, spin_work(units)));
        assert_eq!(out, expected, "{threads} threads");
    }
}

/// The first job to start blocks until some other job has completed, so its
/// worker is stuck for as long as nobody else makes progress. The batch
/// finishes only if the free workers keep taking jobs from the shared
/// cursor — nothing is parcelled out to a worker ahead of time.
#[test]
fn a_stuck_worker_does_not_hold_the_batch() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let inputs: Vec<u64> = (0..128).map(|i| 1 + i % 7).collect();
    let serial = Executor::new(1).run(inputs.clone(), |i, u| spin_work(u) ^ i as u64);
    let started = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let (out, stats) = Executor::new(4).run_with_stats(inputs, |i, u| {
        if started.fetch_add(1, Ordering::SeqCst) == 0 {
            while completed.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }
        let v = spin_work(u) ^ i as u64;
        completed.fetch_add(1, Ordering::SeqCst);
        v
    });
    assert_eq!(out, serial, "who ran what must not change the output");
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.executed.iter().sum::<u64>(), 128);
    assert!(
        stats.executed.iter().filter(|&&n| n > 0).count() >= 2,
        "the stuck job waited for a completion only another worker could \
         supply; stats: {stats:?}"
    );
}
