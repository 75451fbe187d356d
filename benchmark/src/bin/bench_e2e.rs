//! `bench-e2e [--workload W] [--seed N] [--seconds S] [--out DIR]`: the
//! timed run. `bench-e2e compare A.json B.json`: do two sets of runs agree?

use minion_benchmark::report::Args;
use minion_benchmark::{compare, e2e, report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("usage: bench-e2e compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    match Args::parse(args) {
        Ok(args) => report::main("e2e", &args, |workload, args| {
            e2e::run(workload, args.seed, args.seconds)
        }),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
