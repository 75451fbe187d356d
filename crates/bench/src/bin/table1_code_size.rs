//! Regenerates Table 1: implementation size of each component, as text and
//! then as CSV. The output is `goldens/table1_code_size.txt`, so a PR's size
//! change is that file's diff.
use minion_bench::table1;

fn main() {
    let table = table1::run();
    print!("{}", table.to_text());
    print!("{}", table.to_csv());
}
