//! Minimal shared flag parsing for the bench binaries (`load_engine`,
//! `sweep_matrix`): `--flag value` pairs with count / count-list values.
//! One definition so the binaries validate identically and cannot drift.

/// The process's flag arguments (everything after the binary name).
pub struct CliArgs {
    iter: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl CliArgs {
    /// Capture `std::env::args()`, remembering `usage` for error messages.
    pub fn new(usage: &'static str) -> Self {
        CliArgs {
            iter: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
            usage,
        }
    }

    /// The next flag, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.iter.next()
    }

    /// The value following `flag`; panics (with usage) if it is missing.
    pub fn value(&mut self, flag: &str) -> String {
        self.iter
            .next()
            .unwrap_or_else(|| panic!("{flag} requires a value\nusage: {}", self.usage))
    }

    /// Panic (with usage) over an unrecognised flag.
    pub fn unknown(&self, flag: &str) -> ! {
        panic!("unknown argument {flag:?}\nusage: {}", self.usage)
    }
}

/// Which transport backend a bench binary drives: the deterministic
/// simulator or real kernel sockets over loopback (`minion-osnet`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic simulator (byte-identical reports).
    #[default]
    Sim,
    /// Kernel TCP over loopback via the epoll reactor (liveness/goodput
    /// gates, no determinism promise).
    Os,
}

/// Parse a `--backend` value.
pub fn parse_backend(raw: &str) -> Backend {
    match raw.trim() {
        "sim" => Backend::Sim,
        "os" => Backend::Os,
        other => panic!("--backend takes sim|os, got {other:?}"),
    }
}

/// Validate an output path at parse time: fail *before* minutes of bench
/// work, and with a message naming the flag and the missing directory
/// instead of a bare `io::Error` panic at the final write.
pub fn validate_out_path(flag: &str, path: &str) {
    assert!(!path.trim().is_empty(), "{flag} needs a non-empty path");
    let parent = std::path::Path::new(path).parent();
    if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty()) {
        assert!(
            dir.is_dir(),
            "{flag} {path:?}: directory {dir:?} does not exist (create it first)"
        );
    }
}

/// Write an output file, converting an I/O failure into a message that
/// names the flag and path (the parse-time [`validate_out_path`] check
/// catches missing directories; this covers races and permission errors).
pub fn write_output(flag: &str, path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        panic!("{flag} {path:?}: cannot write: {e}");
    }
}

/// Parse a positive integer flag value.
pub fn parse_count(raw: &str, flag: &str) -> usize {
    let n = raw
        .trim()
        .parse::<usize>()
        .unwrap_or_else(|_| panic!("{flag} takes positive integers, got {raw:?}"));
    assert!(n >= 1, "{flag} takes positive integers, got {raw:?}");
    n
}

/// Parse a non-empty comma-separated list of positive integers.
pub fn parse_count_list(raw: &str, flag: &str) -> Vec<usize> {
    let list: Vec<usize> = raw.split(',').map(|s| parse_count(s, flag)).collect();
    assert!(!list.is_empty(), "{flag} needs at least one entry");
    list
}

/// Parse a non-empty comma-separated list of congestion-control algorithms
/// (`newreno|cubic|none`), rejecting duplicates (a doubled entry would
/// silently double a sweep's cell count).
pub fn parse_cc_list(raw: &str, flag: &str) -> Vec<minion_tcp::CcAlgorithm> {
    let list: Vec<minion_tcp::CcAlgorithm> = raw
        .split(',')
        .map(|s| {
            minion_tcp::CcAlgorithm::parse(s)
                .unwrap_or_else(|| panic!("{flag} takes newreno|cubic|none, got {s:?}"))
        })
        .collect();
    assert!(!list.is_empty(), "{flag} needs at least one entry");
    for (i, cc) in list.iter().enumerate() {
        assert!(
            !list[..i].contains(cc),
            "{flag}: duplicate entry {:?}",
            cc.label()
        );
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_lists_parse_and_validate() {
        assert_eq!(parse_count_list("1,64, 1024", "--flows"), vec![1, 64, 1024]);
        assert_eq!(parse_count("8", "--threads"), 8);
    }

    #[test]
    #[should_panic(expected = "--threads takes positive integers")]
    fn zero_counts_are_rejected() {
        parse_count("0", "--threads");
    }

    #[test]
    #[should_panic(expected = "--flows takes positive integers")]
    fn junk_entries_are_rejected() {
        parse_count_list("1,banana", "--flows");
    }

    #[test]
    fn cc_lists_parse_and_validate() {
        use minion_tcp::CcAlgorithm;
        assert_eq!(
            parse_cc_list("newreno, cubic,none", "--cc"),
            vec![CcAlgorithm::NewReno, CcAlgorithm::Cubic, CcAlgorithm::None]
        );
    }

    #[test]
    #[should_panic(expected = "--cc takes newreno|cubic|none")]
    fn unknown_cc_entries_are_rejected() {
        parse_cc_list("newreno,vegas", "--cc");
    }

    #[test]
    #[should_panic(expected = "duplicate entry")]
    fn duplicate_cc_entries_are_rejected() {
        parse_cc_list("cubic,cubic", "--cc");
    }

    #[test]
    fn out_paths_validate() {
        validate_out_path("--out", "BENCH_engine.json"); // cwd-relative: fine
        let dir = std::env::temp_dir();
        validate_out_path("--out", dir.join("x.json").to_str().unwrap());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn missing_out_directory_is_rejected_at_parse_time() {
        validate_out_path("--out", "/no-such-bench-dir-1b2c/x.json");
    }

    #[test]
    fn backends_parse() {
        assert_eq!(parse_backend("sim"), Backend::Sim);
        assert_eq!(parse_backend(" os "), Backend::Os);
    }

    #[test]
    #[should_panic(expected = "--backend takes sim|os")]
    fn unknown_backends_are_rejected() {
        parse_backend("dpdk");
    }
}
