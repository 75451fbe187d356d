//! Table 1: implementation complexity (§8.6).
//!
//! The paper reports the size of the uTCP kernel delta, the uCOBS library,
//! and the uTLS delta to OpenSSL, alongside native out-of-order transports
//! for comparison. This reproduction reports the analogous quantities for
//! its own code: every workspace crate, implementation and test lines
//! apart, plus the lines implementing the uTCP extensions within the TCP
//! crate and the uTLS receiver within the TLS crate, and beside the lines
//! the public items each crate declares — the API surface ROADMAP tracks —
//! and which of them nothing but their own file's tests call.
//! `table1_code_size`'s table is a golden (`goldens/`), so the size
//! trajectory is that file's history.

use minion_simnet::Table;
use std::collections::HashMap;
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
    /// struct` and the like, and named `pub` fields. `pub(crate)` items and
    /// re-exports are not items.
    pub public_items: u64,
}

/// What follows `pub ` on a line that declares a public item. The unused
/// scan looks at the first six: a `static` or a `mod` has no caller to find.
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

/// The non-blank, non-comment lines of a Rust source, trimmed, each with
/// whether it sits in a test module. A `#[cfg(test)]` attribute at column 0
/// followed by a `mod … {` line opens a test module, which runs to the next
/// `}` at column 0 (where rustfmt puts a top-level module's closing brace).
fn code_lines(content: &str) -> Vec<(bool, &str)> {
    let mut out = Vec::new();
    let mut in_test = false;
    let mut lines = content.lines().peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|l| l.starts_with("mod ")) {
            in_test = true;
        }
        let code = line.trim();
        if !code.is_empty() && !code.starts_with("//") {
            out.push((in_test, code));
        }
        if in_test && line == "}" {
            in_test = false;
        }
    }
    out
}

/// The keyword and name of the public item `code` declares, if it does. A
/// named field (`pub name: Type,`) is an item of keyword `field`, which the
/// unused scan passes over: a field is reached through its struct.
fn public_item(code: &str) -> Option<(&str, &str)> {
    let code = code.strip_prefix("pub ")?;
    if let Some((name, ty)) = code.split_once(':') {
        if !ty.starts_with(':') && words(name).eq([name]) {
            return Some(("field", name));
        }
    }
    let (kw, rest) = code.split_once(' ')?;
    let rest = match kw {
        "const" => rest.strip_prefix("fn ").unwrap_or(rest),
        _ => rest,
    };
    PUBLIC_ITEMS
        .contains(&kw)
        .then(|| (kw, words(rest).next().unwrap_or("")))
}

/// The identifiers on a line.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// Count the lines of one Rust file, as `code_lines` splits them.
pub fn count_loc(path: &Path) -> Loc {
    let content = std::fs::read_to_string(path).unwrap_or_default();
    let mut loc = Loc::default();
    for (in_test, code) in code_lines(&content) {
        if in_test {
            loc.test += 1;
        } else {
            loc.implementation += 1;
            loc.public_items += u64::from(public_item(code).is_some());
        }
    }
    loc
}

/// Every `.rs` file under `dir`, sorted; build output (`target`) is skipped.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Sum [`count_loc`] over every `.rs` file under `dir`.
fn count_dir_loc(dir: &Path) -> Loc {
    let mut total = Loc::default();
    for path in rust_files(dir) {
        total += count_loc(&path);
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

/// The directories, relative to the workspace root, whose `.rs` files can
/// call a public item: the crates, the root package, and the frozen
/// benchmark, which binds the crates by name.
const CALLER_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark"];

/// The public items only their own file's tests call, as `(file, name)` with
/// the file relative to `root`, in path order.
///
/// A `pub fn|struct|enum|trait|const|type` declared in the implementation
/// lines of a file under `crates/` is unused when no line of another file
/// names it — comments and `pub use` re-exports aside — and no
/// implementation line of its own file does but the one declaring it. A
/// type reached only through a public function's return value is named by
/// that function's signature, so it is used. This is a text scan: two items
/// of one name hide each other, so it under-reports, which is the safe side.
pub fn unused_public_items(root: &Path) -> Vec<(String, String)> {
    let sources: Vec<(String, String)> = CALLER_ROOTS
        .iter()
        .flat_map(|top| rust_files(&root.join(top)))
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            (
                rel.to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).unwrap_or_default(),
            )
        })
        .collect();
    // Each file's lines, less its `pub use` items (which run to their `;`).
    let files: Vec<Vec<(bool, &str)>> = sources
        .iter()
        .map(|(_, content)| {
            let mut in_reexport = false;
            let mut lines = code_lines(content);
            lines.retain(|(_, code)| {
                let reexport = in_reexport || code.starts_with("pub use ");
                in_reexport = reexport && !code.ends_with(';');
                !reexport
            });
            lines
        })
        .collect();
    // For each identifier, the one file that names it, or `None` for several.
    let mut named_in: HashMap<&str, Option<usize>> = HashMap::new();
    for (index, lines) in files.iter().enumerate() {
        for word in lines.iter().flat_map(|(_, code)| words(code)) {
            named_in
                .entry(word)
                .and_modify(|file| *file = file.filter(|&f| f == index))
                .or_insert(Some(index));
        }
    }
    let mut unused = Vec::new();
    for (index, lines) in files.iter().enumerate() {
        let path = &sources[index].0;
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        let implementation = || lines.iter().filter(|(in_test, _)| !in_test);
        let named_once_here = |name: &str| {
            let named = implementation().flat_map(|(_, code)| words(code));
            named.filter(|&w| w == name).count() == 1
        };
        for (_, code) in implementation() {
            match public_item(code) {
                Some((kw, name))
                    if PUBLIC_ITEMS[..6].contains(&kw)
                        && named_in[name] == Some(index)
                        && named_once_here(name) =>
                {
                    unused.push((path.clone(), name.to_string()))
                }
                _ => {}
            }
        }
    }
    unused
}

/// Locate the workspace root (the directory containing `crates/`).
fn workspace_root() -> PathBuf {
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
struct CrateLoc {
    /// Package name (`minion-engine`).
    name: String,
    /// Directory relative to the workspace root (`crates/engine`).
    path: String,
    /// Its lines.
    loc: Loc,
    /// Its share of [`unused_public_items`], as `(file, name)`.
    unused: Vec<(String, String)>,
}

/// Every member of the workspace at `root`, in manifest order.
fn workspace_loc(root: &Path) -> Vec<CrateLoc> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let unused = unused_public_items(root);
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
                unused: unused
                    .iter()
                    .filter(|(file, _)| file.starts_with(&format!("{path}/src/")))
                    .cloned()
                    .collect(),
                path,
            }
        })
        .collect()
}

/// One row of the table. The unused column is the count and, after it, the
/// names.
fn table_row<'a>(
    component: String,
    loc: Loc,
    unused: impl Iterator<Item = &'a (String, String)>,
) -> Vec<String> {
    let names: Vec<&str> = unused.map(|(_, name)| name.as_str()).collect();
    let mut unused = names.len().to_string();
    for name in names {
        unused.push(' ');
        unused.push_str(name);
    }
    vec![
        component,
        loc.implementation.to_string(),
        loc.test.to_string(),
        loc.public_items.to_string(),
        unused,
    ]
}

/// Build the Table 1 analogue for this repository.
pub fn run() -> Table {
    let root = workspace_root();
    let mut table = Table::new(
        "Table 1: implementation size of this reproduction (non-blank, non-comment LoC)",
        &[
            "component",
            "implementation",
            "tests",
            "public items",
            "unused",
        ],
    );
    let mut total = Loc::default();
    let crates = workspace_loc(&root);
    for c in &crates {
        total += c.loc;
        let component = format!("{} ({})", c.name, c.path);
        table.add_row(table_row(component, c.loc, c.unused.iter()));
        // The paper's deltas: the uTCP-specific pieces (send-buffer priority
        // machinery, the unordered receive path) and the uTLS receiver.
        let (delta, files): (&str, &[&str]) = match c.name.as_str() {
            "minion-tcp" => (
                "  of which uTCP buffer/delivery extensions",
                &[
                    "crates/tcp/src/sendbuf.rs",
                    "crates/tcp/src/recvbuf.rs",
                    "crates/tcp/src/delivered.rs",
                ],
            ),
            "minion-tls" => (
                "  of which the uTLS out-of-order receiver",
                &["crates/tls/src/utls.rs"],
            ),
            _ => continue,
        };
        let mut loc = Loc::default();
        for rel in files {
            loc += count_loc(&root.join(rel));
        }
        let in_files = |(file, _): &&(String, String)| files.contains(&file.as_str());
        table.add_row(table_row(
            delta.into(),
            loc,
            c.unused.iter().filter(in_files),
        ));
    }
    let unused = crates.iter().flat_map(|c| &c.unused);
    table.add_row(table_row("workspace total".into(), total, unused));
    table
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
        let table = run();
        assert_eq!(table.row_count(), crates.len() + 3);
        assert!(table.to_text().contains("minion-engine (crates/engine)"));
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
                // api, S and its field: not the pub(crate) fn or the fixture
                public_items: 3,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_unused_public_item_is_on_the_checked_in_list() {
        // The gate: a `pub` item that only its own file's tests call fails
        // here until it gets a caller, loses its `pub`, or is deleted.
        let expected: Vec<(String, String)> = include_str!("../unused_public_items.txt")
            .lines()
            .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
            .map(|line| {
                let mut fields = line.split(' ');
                let (file, name) = (fields.next().unwrap(), fields.next().unwrap());
                assert!(fields.next().is_some(), "{name} needs a reason");
                (file.to_string(), name.to_string())
            })
            .collect();
        assert_eq!(
            unused_public_items(&workspace_root()),
            expected,
            "left: what the scan finds; right: crates/bench/unused_public_items.txt"
        );
    }

    #[test]
    fn an_item_is_unused_when_only_its_own_tests_name_it() {
        let root = std::env::temp_dir().join(format!("minion-unused-{}", std::process::id()));
        let src = root.join("crates/a/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(root.join("tests")).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn called_from_a_test_file() {}\n\
             pub fn called_above_the_tests() {}\n\
             pub fn only_tested() {}\n\
             pub fn only_reexported() {}\n\
             // only_mentioned_in_a_comment\n\
             pub const fn only_mentioned_in_a_comment() {}\n\
             pub struct OnlyReturned;\n\
             pub fn caller() -> OnlyReturned {\n    called_above_the_tests();\n    OnlyReturned\n}\n\
             pub(crate) fn not_public() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             super::only_tested();\n    }\n}\n",
        )
        .unwrap();
        std::fs::write(
            root.join("tests/it.rs"),
            "pub use a::only_reexported;\nfn main() {\n    a::called_from_a_test_file();\n    a::caller();\n}\n",
        )
        .unwrap();
        let unused = unused_public_items(&root);
        std::fs::remove_dir_all(&root).ok();
        let names: Vec<&str> = unused.iter().map(|(_, name)| &**name).collect();
        assert_eq!(
            names,
            [
                "only_tested",
                "only_reexported",
                "only_mentioned_in_a_comment"
            ]
        );
        assert!(unused.iter().all(|(file, _)| file == "crates/a/src/lib.rs"));
    }

    #[test]
    fn a_named_pub_field_is_a_public_item() {
        assert_eq!(public_item("pub flows: usize,"), Some(("field", "flows")));
        assert_eq!(
            public_item("pub obs: minion_obs::CcObs,"),
            Some(("field", "obs"))
        );
        assert_eq!(public_item("pub(crate) flows: usize,"), None);
        assert_eq!(public_item("pub use minion_obs::Histogram;"), None);
        assert_eq!(
            public_item("pub use crate::obs::{LoadObs, C_RTO_EDGES};"),
            None
        );
        // Items whose line holds a colon keep their own keyword.
        assert_eq!(
            public_item("pub fn new(flows: usize) -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            public_item("pub const CAP: usize = 8;"),
            Some(("const", "CAP"))
        );
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
