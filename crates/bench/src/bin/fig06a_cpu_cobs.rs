//! Regenerates Figure 6(a): COBS/uCOBS processing cost relative to raw TCP,
//! and fails when the figure's claim — uCOBS receives at a small multiple of
//! COBS's cost — does not hold on the table it printed.
use minion_bench::{fig06, Scale, DEFAULT_SEED};

fn main() {
    let scale = Scale::from_env();
    let table = fig06::run_fig6a(
        &[0.005, 0.01, 0.02],
        scale.transfer_bytes() / 2,
        DEFAULT_SEED,
    );
    let csv = table.to_csv();
    print!("{}", table.to_text());
    print!("{csv}");

    // `cobs_recv` and `ucobs_recv` are the last two columns, both normalised
    // to the same run's `tcp_recv`. Their ratio is wall clock, but of two
    // transfers timed back to back, so most of a shared machine's noise
    // cancels.
    const BOUND: f64 = 2.0;
    let worst = csv
        .lines()
        .skip(1)
        .filter_map(|row| {
            let mut columns = row.rsplit(',').map(str::parse::<f64>);
            let ucobs = columns.next()?.ok()?;
            let cobs = columns.next()?.ok()?;
            Some(ucobs / cobs)
        })
        .fold(0.0, f64::max);
    if worst > BOUND {
        eprintln!("fig06a: ucobs_recv reads {worst:.3} x cobs_recv (bound {BOUND})");
        std::process::exit(1);
    }
}
