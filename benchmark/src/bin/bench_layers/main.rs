//! `bench-layers [--workload W] [--seed N] [--seconds S] [--out DIR]`: the
//! traced run. Binds to each layer's public functions; end-to-end numbers
//! never come from here.

mod kernels;
mod span;
mod timed;
mod traced;

use minion_benchmark::report::{self, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)) {
        Ok(args) => report::main("layers", &args, |workload, args| {
            traced::run(workload, args.seed, args.seconds, args.out.as_deref())
        }),
        Err(e) => {
            eprintln!("bench-layers: {e}");
            ExitCode::from(2)
        }
    }
}
