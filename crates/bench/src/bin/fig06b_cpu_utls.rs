//! Regenerates Figure 6(b): uTLS processing cost relative to stream TLS, and
//! fails when the figure's claim — uTLS receives at about TLS's cost — does
//! not hold on the table it printed.
use minion_bench::{fig06, Scale, DEFAULT_SEED};

fn main() {
    let scale = Scale::from_env();
    let table = fig06::run_fig6b(
        &[0.005, 0.01, 0.02],
        scale.transfer_bytes() / 2,
        DEFAULT_SEED,
    );
    let csv = table.to_csv();
    print!("{}", table.to_text());
    print!("{csv}");

    // `utls_recv` is the last column, already normalised to `tls_recv`. The
    // ratio is wall clock, so the bound leaves room for a shared machine.
    const BOUND: f64 = 1.6;
    let worst = csv
        .lines()
        .skip(1)
        .filter_map(|row| row.rsplit(',').next()?.parse::<f64>().ok())
        .fold(0.0, f64::max);
    if worst > BOUND {
        eprintln!("fig06b: utls_recv reads {worst:.3} x tls_recv (bound {BOUND})");
        std::process::exit(1);
    }
}
