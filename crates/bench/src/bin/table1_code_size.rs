//! Regenerates Table 1: implementation size of each component. With
//! `--json`, prints the per-crate rows as JSON instead (the size
//! trajectory CI uploads next to `BENCH_engine.json`).
use minion_bench::table1;

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {
            let table = table1::run();
            print!("{}", table.to_text());
            print!("{}", table.to_csv());
        }
        Some("--json") => print!(
            "{}",
            table1::to_json(&table1::workspace_loc(&table1::workspace_root()))
        ),
        Some(other) => panic!("table1_code_size takes --json or nothing, got {other:?}"),
    }
}
