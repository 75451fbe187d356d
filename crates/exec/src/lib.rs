//! # minion-exec
//!
//! The **flat batch runner** under the Minion reproduction's sweeps:
//! scenario-matrix cells, every one independently seeded, run across worker
//! threads **without perturbing results** — output is byte-identical at any
//! thread count.
//!
//! What it serves is one flat batch per call, submitted whole, whose jobs are
//! milliseconds each and never spawn jobs. Handing that out takes a cursor,
//! not a scheduler: the batch sits behind one `Mutex` as an enumerated
//! iterator, a free worker takes the next job in submission order and keeps
//! `(index, value)`, and the submitting thread sorts what the workers hand
//! back by index. Every job is a pure function of its stable index and
//! input, so who ran what when is unobservable in the output.
//!
//! A panicking job stops the batch: the other workers take no further job,
//! and the job's own payload is re-raised on the submitting thread, so an
//! assertion message from a scenario cell surfaces as it would serially.
//!
//! Built on `std` only, matching the workspace's offline `shims` policy.
//! Consumers: `minion_testkit::run_matrix` (cells across workers) and the
//! `sweep_matrix` bench binary behind `BENCH_sweep.json`. A load scenario
//! is one world and runs on one thread; the one batch of engine runs left
//! is the repository benchmark's shard-speedup probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use minion_obs::{Absorb, NonDeterministic, PhaseProfile};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Phase names of the wall-clock profile in [`ExecStats::profile`]: time
/// spent inside jobs.
const EXEC_PHASES: &[&str] = &["run"];
const PHASE_RUN: usize = 0;

/// What one [`Executor::run_with_stats`] batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Workers the batch actually used.
    pub workers: usize,
    /// Jobs executed by each worker (sums to the batch size).
    pub executed: Vec<u64>,
    /// Wall-clock profile of the jobs (`EXEC_PHASES`), merged across
    /// workers in worker-index order. Profiling only: the wrapper compares
    /// equal to everything, so batch stats stay usable in byte-identity
    /// gates.
    pub profile: NonDeterministic<PhaseProfile>,
}

/// A batch runner over a fixed worker count.
#[derive(Clone, Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A runner with `threads` workers (0 is treated as 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every input, returning results in submission order.
    ///
    /// Equivalent to `inputs.into_iter().enumerate().map(f).collect()` — the
    /// parallel schedule is unobservable in the output.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.run_with_stats(inputs, f).0
    }

    /// [`Executor::run`], also returning the batch's [`ExecStats`].
    pub fn run_with_stats<I, T, F>(&self, inputs: Vec<I>, f: F) -> (Vec<T>, ExecStats)
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        // Never more workers than jobs.
        let workers = self.threads.min(inputs.len().max(1));
        let batch = Mutex::new(inputs.into_iter().enumerate());
        let abort = AtomicBool::new(false);
        let worker = || {
            let mut done = Vec::new();
            let mut profile = PhaseProfile::new(EXEC_PHASES);
            while !abort.load(Ordering::SeqCst) {
                let next = batch.lock().expect("no job runs under the lock").next();
                let Some((index, input)) = next else { break };
                let span = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| f(index, input)));
                profile.add(PHASE_RUN, span.elapsed().as_nanos() as u64);
                match outcome {
                    Ok(value) => done.push((index, value)),
                    Err(payload) => {
                        abort.store(true, Ordering::SeqCst);
                        return Err(payload);
                    }
                }
            }
            Ok((done, profile))
        };
        // One worker runs on the submitting thread: same closure, no spawn.
        let outcomes = if workers == 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a worker catches its job's panic"))
                    .collect()
            })
        };

        let mut stats = ExecStats {
            workers,
            executed: Vec::with_capacity(workers),
            profile: NonDeterministic(PhaseProfile::new(EXEC_PHASES)),
        };
        let mut indexed = Vec::new();
        for outcome in outcomes {
            let (done, profile) = outcome.unwrap_or_else(|payload| resume_unwind(payload));
            stats.executed.push(done.len() as u64);
            stats.profile.get_mut().absorb(&profile);
            indexed.extend(done);
        }
        indexed.sort_unstable_by_key(|&(index, _)| index);
        (indexed.into_iter().map(|(_, value)| value).collect(), stats)
    }
}

/// The machine's available parallelism (1 if it cannot be determined): the
/// worker count for a caller that has no reason to pick another.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod executor {
    // Nested so the tests keep the ids (`executor::tests::…`) they had when
    // the runner was a module of its own: the suite's history tracks them.
    mod tests {
        use crate::*;
        use std::sync::atomic::AtomicUsize;

        /// The message a caught panic carries, as `panic!` and `assert!` box it.
        fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }

        #[test]
        fn empty_batch_returns_empty_output() {
            let out: Vec<u32> = Executor::new(4).run(Vec::<u32>::new(), |_, x| x);
            assert!(out.is_empty());
        }

        #[test]
        fn single_thread_runs_inline_in_order() {
            let caller = std::thread::current().id();
            let (out, stats) = Executor::new(1).run_with_stats((0..10).collect(), |i, x: usize| {
                assert_eq!(i, x);
                assert_eq!(std::thread::current().id(), caller, "no thread spawned");
                x * x
            });
            assert_eq!(out, (0..10).map(|x| x * x).collect::<Vec<_>>());
            assert_eq!(stats.workers, 1);
            assert_eq!(stats.executed, [10]);
        }

        #[test]
        fn parallel_output_matches_serial_output() {
            let inputs: Vec<u64> = (0..257).collect();
            let serial = Executor::new(1).run(inputs.clone(), |i, x| x.wrapping_mul(31) ^ i as u64);
            for threads in [2, 3, 8] {
                let parallel = Executor::new(threads)
                    .run(inputs.clone(), |i, x| x.wrapping_mul(31) ^ i as u64);
                assert_eq!(parallel, serial, "{threads} threads");
            }
        }

        #[test]
        fn worker_count_is_capped_by_job_count() {
            let (out, stats) = Executor::new(64).run_with_stats(vec![1, 2, 3], |_, x| x);
            assert_eq!(out, vec![1, 2, 3]);
            assert_eq!(stats.workers, 3);
            assert_eq!(stats.executed.len(), 3);
            assert_eq!(stats.executed.iter().sum::<u64>(), 3);
        }

        #[test]
        fn worker_profile_counts_every_job_and_compares_equal() {
            for threads in [1, 4] {
                let (_, stats) = Executor::new(threads)
                    .run_with_stats((0..64).collect(), |_, x: u64| x.wrapping_mul(2654435761));
                let profile = stats.profile.get();
                assert_eq!(profile.names(), EXEC_PHASES);
                assert_eq!(profile.entries(PHASE_RUN), 64, "{threads} threads");
            }
            // The wrapper quarantines wall-clock values from Eq: two batches
            // with different timings still compare equal stats-to-stats.
            let (_, a) = Executor::new(2).run_with_stats(vec![1u64, 2, 3], |_, x| x);
            let (_, b) = Executor::new(2).run_with_stats(vec![1u64, 2, 3], |_, x| x);
            assert_eq!(
                ExecStats {
                    profile: a.profile.clone(),
                    ..b.clone()
                },
                b
            );
            assert_eq!(a.profile, b.profile);
        }

        #[test]
        fn job_panics_propagate_with_their_message() {
            for threads in [1, 4] {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    Executor::new(threads).run((0..32).collect(), |_, x: usize| {
                        assert!(x != 17, "cell 17 violated an invariant");
                        x
                    })
                }));
                let msg = panic_message(result.expect_err("the batch must panic"));
                assert!(
                    msg.contains("cell 17 violated an invariant"),
                    "{threads} threads: panic payload must be the job's own: {msg}"
                );
            }
        }

        /// The abort flag, where a schedule cannot hide it: on one worker no job
        /// starts after the one that panicked. (Across workers a job may be
        /// taken in the instant between a sibling's panic and its flag.)
        #[test]
        fn a_panic_stops_the_batch() {
            let started = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                Executor::new(1).run((0..32).collect(), |_, x: usize| {
                    started.fetch_add(1, Ordering::SeqCst);
                    assert!(x != 5, "job 5 gave up");
                    x
                })
            }));
            assert!(
                panic_message(result.expect_err("the batch must panic")).contains("job 5 gave up")
            );
            assert_eq!(started.load(Ordering::SeqCst), 6, "jobs 0..=5 and no other");
        }
    }
}
