//! The examples' stdout, compared with `goldens/EXAMPLE.txt`
//! (`minion_testkit::golden`). `cargo test` builds the examples, in debug
//! with overflow checks and `debug_assert!`s on, into `examples/` beside the
//! test executable's `deps/`; `cargo test --test goldens` alone does not.

use minion_repro::testkit::golden::{assert_goldens, stdout_of};
use std::path::Path;

#[test]
fn every_example_prints_its_golden() {
    let exe = std::env::current_exe().expect("the test executable");
    let built = exe.ancestors().nth(2).unwrap().join("examples");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let sources = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples"));
    let mut surfaces = Vec::new();
    for file in sources.expect("list examples/").flatten() {
        let name = file.file_name().into_string().expect("a UTF-8 name");
        let example = name.strip_suffix(".rs").expect("an example source");
        let out = stdout_of(&built.join(example), "", &tmp.join("examples"));
        surfaces.push((format!("{example}.txt"), out));
    }
    assert_eq!(surfaces.len(), 5, "the five examples");
    assert_goldens(tmp, &surfaces);
}
