//! The parallel-sweep determinism gates (see `minion_exec`): the full
//! scenario matrix and the load matrix must produce byte-identical reports
//! at `threads ∈ {1, 2, 8}` — parallelism may change wall-clock and which
//! worker runs what, never a result.

use minion_repro::testkit::{run_matrix_once, summarize, CcAlgorithm, MatrixSpec};

/// The full tier-1 scenario matrix, swept serially and on 2 and 8 workers:
/// every cell report — counters, fingerprints, completion times — must be
/// byte-identical, because each cell owns a seeded world whose seed is a
/// stable hash of its coordinates ("serial == sharded seeds") and reports
/// commit in cell order.
#[test]
fn full_matrix_reports_are_byte_identical_across_thread_counts() {
    let cells = MatrixSpec::default().cells();
    assert!(cells.len() >= 24, "the full matrix");
    let serial = run_matrix_once(&cells, 1);
    println!("{}", summarize(&serial));
    for threads in [2, 8] {
        let parallel = run_matrix_once(&cells, threads);
        assert_eq!(
            parallel, serial,
            "a {threads}-thread sweep diverged from the serial sweep"
        );
    }
}

/// The multi-flow load matrix (`flows ∈ {1, 64, 1024}`) under the same
/// gate: each multi-flow cell is one engine world on one worker, so the
/// sweep's thread count cannot reach its results either.
#[test]
fn load_matrix_reports_are_byte_identical_across_thread_counts() {
    let cells = MatrixSpec::load().cells();
    assert_eq!(cells.len(), 12);
    let serial = run_matrix_once(&cells, 1);
    for threads in [2, 8] {
        let parallel = run_matrix_once(&cells, threads);
        assert_eq!(
            parallel, serial,
            "a {threads}-thread load sweep diverged from the serial sweep"
        );
    }
}

/// The congestion-control axis under the same gate: the load matrix swept
/// once per algorithm (`cc ∈ {newreno, cubic, none}` — a 12-cell sweep per
/// slice, mirroring the sweep golden's `sweep_matrix --cc` run) must be
/// byte-identical at `threads ∈ {1, 4}`. CUBIC's window arithmetic is
/// integer-only over virtual time and NoCc has no sender state at all, so
/// neither may perturb under parallelism; the slices must also differ from
/// one another (the axis actually reaches the sender).
#[test]
fn cc_slices_are_byte_identical_across_thread_counts_and_distinct() {
    let mut slices = Vec::new();
    for cc in CcAlgorithm::ALL {
        let mut spec = MatrixSpec::load();
        spec.ccs = vec![cc];
        let cells = spec.cells();
        assert_eq!(cells.len(), 12, "one 12-cell sweep per algorithm");
        for cell in &cells {
            assert_eq!(cell.cc, cc);
            if cc == CcAlgorithm::NewReno {
                assert!(
                    !cell.label().contains("/cc="),
                    "default-cc labels stay stable: {}",
                    cell.label()
                );
            } else {
                assert!(
                    cell.label().contains(&format!("/cc={}", cc.label())),
                    "non-default cc must be visible in the label: {}",
                    cell.label()
                );
            }
        }
        let serial = run_matrix_once(&cells, 1);
        let parallel = run_matrix_once(&cells, 4);
        assert_eq!(
            parallel,
            serial,
            "a 4-thread cc={} sweep diverged from the serial sweep",
            cc.label()
        );
        slices.push(serial);
    }
    // The axis reaches the sender: compared label-blind, the slices must
    // not all tell the same story. (Individual cells may coincide — below
    // ssthresh every algorithm slow-starts identically — but across the
    // lossy 1024-flow cells the recovery dynamics have to show.)
    let timings = |reports: &[minion_repro::testkit::CellReport]| {
        reports
            .iter()
            .map(|r| (r.completion_time_us, r.wire_bytes_sent))
            .collect::<Vec<_>>()
    };
    assert_ne!(timings(&slices[0]), timings(&slices[2]), "newreno vs none");
}
