//! Table 1: implementation complexity (§8.6).
//!
//! The paper reports the size of the uTCP kernel delta, the uCOBS library,
//! and the uTLS delta to OpenSSL, alongside native out-of-order transports
//! for comparison. This reproduction reports the analogous quantities for
//! its own code: every workspace crate, implementation and test lines
//! apart, plus the lines implementing the uTCP extensions within the TCP
//! crate and the uTLS receiver within the TLS crate, and beside the lines
//! the public items each crate declares — the API surface ROADMAP tracks.
//! `table1_code_size --json` emits the per-crate rows so CI can keep size as
//! a trajectory next to speed.

use minion_simnet::Table;
use std::path::{Path, PathBuf};

/// Non-blank, non-comment lines of Rust, split into implementation and
/// test code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Lines outside `#[cfg(test)]` modules and `tests/` directories.
    pub implementation: u64,
    /// Lines inside them.
    pub test: u64,
    /// Implementation lines that declare a public item: `pub fn`, `pub
    /// struct` and the like. Fields, `pub(crate)` items and re-exports are
    /// not items.
    pub public_items: u64,
}

/// What follows `pub ` on a line that declares a public item.
const PUBLIC_ITEMS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "type", "static", "mod",
];

impl std::ops::AddAssign for Loc {
    fn add_assign(&mut self, other: Loc) {
        self.implementation += other.implementation;
        self.test += other.test;
        self.public_items += other.public_items;
    }
}

/// Count the lines of one Rust file. A `#[cfg(test)]` attribute at column 0
/// followed by a `mod … {` line opens a test module, which runs to the next
/// `}` at column 0 (where rustfmt puts a top-level module's closing brace).
pub fn count_loc(path: &Path) -> Loc {
    let Ok(content) = std::fs::read_to_string(path) else {
        return Loc::default();
    };
    let mut loc = Loc::default();
    let mut in_test = false;
    let mut lines = content.lines().peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|l| l.starts_with("mod ")) {
            in_test = true;
        }
        let code = line.trim();
        if !code.is_empty() && !code.starts_with("//") {
            if in_test {
                loc.test += 1;
            } else {
                loc.implementation += 1;
                let item = code
                    .strip_prefix("pub ")
                    .and_then(|rest| rest.split(' ').next());
                loc.public_items += u64::from(item.is_some_and(|kw| PUBLIC_ITEMS.contains(&kw)));
            }
        }
        if in_test && line == "}" {
            in_test = false;
        }
    }
    loc
}

/// Sum [`count_loc`] over every `.rs` file under `dir`.
fn count_dir_loc(dir: &Path) -> Loc {
    let mut total = Loc::default();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                total += count_loc(&path);
            }
        }
    }
    total
}

/// Count a crate: its `src` directory as [`count_loc`] splits it, plus its
/// integration tests (`tests/`), which are test lines whole.
fn count_crate_loc(crate_dir: &Path) -> Loc {
    let mut loc = count_dir_loc(&crate_dir.join("src"));
    let tests = count_dir_loc(&crate_dir.join("tests"));
    loc.test += tests.implementation + tests.test;
    loc
}

/// Locate the workspace root (the directory containing `crates/`).
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // crates/bench -> crates -> workspace root
    dir.pop();
    dir.pop();
    dir
}

/// The quoted strings of the `key = [ … ]` array in a manifest, and the
/// quoted value of a `key = "…"` line: all this module reads of TOML.
fn manifest_strings(manifest: &str, key: &str) -> Vec<String> {
    let Some(at) = manifest.find(&format!("\n{key} = ")) else {
        return Vec::new();
    };
    let value = &manifest[at + key.len() + 4..];
    let value = match value.strip_prefix('[') {
        Some(array) => array.split(']').next().unwrap_or(""),
        None => value.lines().next().unwrap_or(""),
    };
    value
        .split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// One workspace member's size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrateLoc {
    /// Package name (`minion-engine`).
    pub name: String,
    /// Directory relative to the workspace root (`crates/engine`).
    pub path: String,
    /// Its lines.
    pub loc: Loc,
}

/// Every member of the workspace at `root`, in manifest order.
pub fn workspace_loc(root: &Path) -> Vec<CrateLoc> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    manifest_strings(&manifest, "members")
        .into_iter()
        .map(|path| {
            let dir = root.join(&path);
            let package = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
            CrateLoc {
                name: manifest_strings(&package, "name")
                    .pop()
                    .unwrap_or_else(|| path.clone()),
                loc: count_crate_loc(&dir),
                path,
            }
        })
        .collect()
}

/// Build the Table 1 analogue for this repository.
pub fn run() -> Table {
    let root = workspace_root();
    let mut table = Table::new(
        "Table 1: implementation size of this reproduction (non-blank, non-comment LoC)",
        &["component", "implementation", "tests", "public items"],
    );
    let mut add = |name: String, loc: Loc| {
        table.add_row(vec![
            name,
            loc.implementation.to_string(),
            loc.test.to_string(),
            loc.public_items.to_string(),
        ]);
    };
    let file_loc = |files: &[&str]| {
        let mut loc = Loc::default();
        for rel in files {
            loc += count_loc(&root.join(rel));
        }
        loc
    };
    let mut total = Loc::default();
    for c in workspace_loc(&root) {
        total += c.loc;
        add(format!("{} ({})", c.name, c.path), c.loc);
        // The paper's deltas: the uTCP-specific pieces (send-buffer priority
        // machinery, the unordered receive path) and the uTLS receiver.
        match c.name.as_str() {
            "minion-tcp" => add(
                "  of which uTCP buffer/delivery extensions".into(),
                file_loc(&[
                    "crates/tcp/src/sendbuf.rs",
                    "crates/tcp/src/recvbuf.rs",
                    "crates/tcp/src/delivered.rs",
                ]),
            ),
            "minion-tls" => add(
                "  of which the uTLS out-of-order receiver".into(),
                file_loc(&["crates/tls/src/utls.rs"]),
            ),
            _ => {}
        }
    }
    add("workspace total".into(), total);
    table
}

/// The per-crate rows as one JSON object (`table1_code_size --json`).
pub fn to_json(crates: &[CrateLoc]) -> String {
    let mut total = Loc::default();
    let rows: Vec<String> = crates
        .iter()
        .map(|c| {
            total += c.loc;
            format!(
                "    {{\"crate\": \"{}\", \"path\": \"{}\", \"impl_loc\": {}, \"test_loc\": {}, \
                 \"public_items\": {}}}",
                c.name, c.path, c.loc.implementation, c.loc.test, c.loc.public_items
            )
        })
        .collect();
    format!(
        "{{\n  \"crates\": [\n{}\n  ],\n  \"total\": {{\"impl_loc\": {}, \"test_loc\": {}, \
         \"public_items\": {}}}\n}}\n",
        rows.join(",\n"),
        total.implementation,
        total.test,
        total.public_items
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workspace_member_is_counted_with_tests_apart() {
        let root = workspace_root();
        let crates = workspace_loc(&root);
        // Every directory with a manifest under crates/ and crates/shims/
        // is a member, and every member is a row.
        let manifests = |dir: &str| {
            std::fs::read_dir(root.join(dir))
                .unwrap()
                .flatten()
                .filter(|e| e.path().join("Cargo.toml").exists())
                .count()
        };
        assert_eq!(
            crates.len(),
            manifests("crates") + manifests("crates/shims")
        );
        for c in &crates {
            assert!(c.loc.implementation > 0, "{c:?}");
        }
        let by_name = |name: &str| crates.iter().find(|c| c.name == name).unwrap().loc;
        let tcp = by_name("minion-tcp");
        assert!(tcp.implementation > 1000, "tcp is substantial: {tcp:?}");
        assert!(tcp.test > 500, "and so are its unit tests: {tcp:?}");
        let utls = count_loc(&root.join("crates/tls/src/utls.rs"));
        assert!(utls.implementation > 100);
        assert!(utls.implementation < by_name("minion-tls").implementation);
        // One row per member, the two deltas, and the total.
        assert_eq!(run().row_count(), crates.len() + 3);
        let json = to_json(&crates);
        assert_eq!(json.matches("\"crate\":").count(), crates.len());
        assert!(json.contains("\"crate\": \"minion-engine\", \"path\": \"crates/engine\""));
    }

    #[test]
    fn count_loc_ignores_comments_and_blanks_and_splits_off_test_modules() {
        let dir = std::env::temp_dir().join(format!("minion-table1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("sample.rs");
        std::fs::write(
            &file,
            "// comment\n\nfn main() {\n    let x = 1;\n}\n//! doc\n\
             #[cfg(test)]\nfn helper() {}\n\
             pub fn api() {}\npub(crate) fn internal() {}\n\
             pub struct S {\n    pub field: u8,\n}\n\
             #[cfg(test)]\nmod tests {\n    // note\n    #[test]\n    fn t() {\n    }\n    \
             pub fn fixture() {}\n}\n\
             fn after() {}\n",
        )
        .unwrap();
        assert_eq!(
            count_loc(&file),
            Loc {
                // main (3), the cfg(test) helper that is no module (2), api
                // and internal (2), S with its field (3), after (1)
                implementation: 11,
                // attribute, mod line, #[test], fn, its brace, fixture, the
                // module's brace
                test: 7,
                // api and S: not the field, the pub(crate) fn or the fixture
                public_items: 2,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_strings_reads_arrays_and_values() {
        let manifest = "[workspace]\nmembers = [\n    \"crates/a\",\n    \"crates/b\",\n]\n\n\
                        [package]\nname = \"x-y\"\nversion = \"1\"\n";
        assert_eq!(
            manifest_strings(manifest, "members"),
            ["crates/a", "crates/b"]
        );
        assert_eq!(manifest_strings(manifest, "name"), ["x-y"]);
        assert!(manifest_strings(manifest, "absent").is_empty());
    }
}
