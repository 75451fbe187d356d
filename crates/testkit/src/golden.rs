//! Goldens: every deterministic output of the repository, checked in under
//! `goldens/` and compared byte for byte by `cargo test`. A surface that
//! moved is written to `SCRATCH/goldens/NAME`, and the test fails naming it,
//! its first differing line and the `cp` that blesses it.

use minion_simnet::{fnv1a, FNV_OFFSET_BASIS};
use std::path::{Path, PathBuf};

/// The checked-in `goldens/` directory.
pub fn goldens_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
    dir.canonicalize().unwrap_or(dir)
}

/// A surface too large to check in, as its line count and FNV-1a hash.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut hash = FNV_OFFSET_BASIS;
    fnv1a(&mut hash, bytes);
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    format!("lines {lines}\nfnv1a {hash:#018x}\n")
}

/// Run `exe` with the space-separated `args` in `dir` and return its stdout;
/// a failed run panics with its stderr.
pub fn stdout_of(exe: &Path, args: &str, dir: &Path) -> String {
    std::fs::create_dir_all(dir).expect("create the run directory");
    let run = std::process::Command::new(exe)
        .args(args.split_whitespace())
        .current_dir(dir)
        .output();
    let out = run.unwrap_or_else(|e| panic!("run {}: {e}", exe.display()));
    let (status, stderr) = (out.status, String::from_utf8_lossy(&out.stderr));
    assert!(status.success(), "{exe:?} {args}: {status}\n{stderr}");
    String::from_utf8(out.stdout).expect("a surface is UTF-8 text")
}

/// Compare every `(name, fresh)` surface with `goldens/name`. Each one that
/// differs, or has no golden yet, is written under `scratch`; then the call
/// panics naming all of them.
pub fn assert_goldens<N: AsRef<str>>(scratch: &Path, surfaces: &[(N, String)]) {
    let mut moved = String::new();
    for (name, fresh) in surfaces {
        let name = name.as_ref();
        let golden = std::fs::read_to_string(goldens_dir().join(name)).ok();
        if golden.as_ref() == Some(fresh) {
            continue;
        }
        let path = scratch.join("goldens").join(name);
        std::fs::create_dir_all(scratch.join("goldens")).expect("create the fresh goldens");
        std::fs::write(&path, fresh).expect("write the fresh surface");
        let (line, old, new) = first_difference(golden.as_deref().unwrap_or(""), fresh);
        let (from, to) = (path.display(), goldens_dir().join(name));
        moved += &format!("{name}: first differs at line {line}\n  golden: {old}\n");
        moved += &format!("  fresh:  {new}\n  bless: cp {from} {}\n", to.display());
    }
    assert!(moved.is_empty(), "surfaces moved:\n{moved}");
}

/// The 1-based number of the first line where `a` and `b` differ, and that
/// line of each (`<end>` past the last), cut to 240 characters.
fn first_difference(a: &str, b: &str) -> (usize, String, String) {
    let (mut a, mut b) = (a.split('\n'), b.split('\n'));
    let cut = |line: Option<&str>| line.unwrap_or("<end>").chars().take(240).collect();
    (1..)
        .find_map(|n| {
            let (x, y) = (a.next(), b.next());
            (x != y || x.is_none()).then(|| (n, cut(x), cut(y)))
        })
        .expect("an unbounded range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line_and_both_sides() {
        let (b, x, end) = ("b".to_string(), "x".to_string(), "<end>".to_string());
        assert_eq!(first_difference("a\nb\nc\n", "a\nx\nc\n"), (2, b, x));
        assert_eq!(first_difference("a", "a\n"), (2, end, String::new()));
    }

    #[test]
    fn fingerprint_is_line_count_and_fnv1a() {
        assert_eq!(fingerprint(b""), "lines 0\nfnv1a 0xcbf29ce484222325\n");
        assert_ne!(fingerprint(b"x\ny\n"), fingerprint(b"y\nx\n"));
    }
}
