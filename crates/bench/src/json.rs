//! The one JSON writer of the bench binaries (`load_engine`,
//! `sweep_matrix`): a small value tree rendered pretty, two spaces per level.
//!
//! Objects keep their keys in insertion order, so a file's layout is the
//! order the binary pushed its keys. Strings are escaped per RFC 8259 §7, control
//! characters included, and a non-finite float renders as `null` (JSON has
//! no NaN or infinity).

use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Debug)]
pub enum Value {
    /// Ordered `(key, value)` pairs.
    Object(Vec<(&'static str, Value)>),
    /// A list of values.
    Array(Vec<Value>),
    /// An unsigned integer, written exactly.
    U64(u64),
    /// A float written with a fixed number of decimals (`null` if not finite).
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::U64(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::U64(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl Value {
    /// Write `self` with its nested lines indented `depth` levels.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = |f: &mut fmt::Formatter<'_>, depth: usize| write!(f, "{:1$}", "", 2 * depth);
        match self {
            Value::Object(pairs) if pairs.is_empty() => f.write_str("{}"),
            Value::Array(items) if items.is_empty() => f.write_str("[]"),
            Value::Object(pairs) => {
                f.write_str("{\n")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    pad(f, depth + 1)?;
                    write_str(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, depth + 1)?;
                    f.write_str(if i + 1 < pairs.len() { ",\n" } else { "\n" })?;
                }
                pad(f, depth)?;
                f.write_char('}')
            }
            Value::Array(items) => {
                f.write_str("[\n")?;
                for (i, item) in items.iter().enumerate() {
                    pad(f, depth + 1)?;
                    item.write(f, depth + 1)?;
                    f.write_str(if i + 1 < items.len() { ",\n" } else { "\n" })?;
                }
                pad(f, depth)?;
                f.write_char(']')
            }
            Value::U64(n) => write!(f, "{n}"),
            Value::Fixed(x, decimals) if x.is_finite() => write!(f, "{x:.decimals$}"),
            Value::Fixed(..) => f.write_str("null"),
            Value::Str(s) => write_str(f, s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The pretty rendering, without a trailing newline.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// `s` as a JSON string literal (RFC 8259 §7).
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Value::from("a\"b\\c\nd\u{1}e\u{1f}f\tg");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\u0001e\u001ff\tg""#);
        assert_eq!(Value::from("µs → ok").to_string(), "\"µs → ok\"");
    }

    #[test]
    fn numbers_are_exact_or_fixed_and_non_finite_floats_are_null() {
        assert_eq!(Value::U64(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Value::Fixed(1234.5, 3).to_string(), "1234.500");
        assert_eq!(Value::Fixed(2.0 / 3.0, 1).to_string(), "0.7");
        assert_eq!(Value::Fixed(7.0, 0).to_string(), "7");
        assert_eq!(Value::Fixed(f64::NAN, 3).to_string(), "null");
        assert_eq!(Value::Fixed(f64::INFINITY, 3).to_string(), "null");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn empty_and_nested_containers_indent_two_spaces_per_level() {
        assert_eq!(Value::Object(vec![]).to_string(), "{}");
        assert_eq!(Value::Array(vec![]).to_string(), "[]");
        let doc = Value::Object(vec![
            ("empty", Value::Array(vec![])),
            (
                "rows",
                Value::Array(vec![Value::Object(vec![("n", 1u64.into())]), 2u64.into()]),
            ),
            ("none", Value::Object(vec![])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"empty\": [],\n  \"rows\": [\n    {\n      \"n\": 1\n    },\n    2\n  ],\n  \
             \"none\": {}\n}"
        );
    }

    /// A `"cc"` row of `BENCH_engine.json`, built as `load_engine` builds it.
    #[test]
    fn a_load_engine_row_renders_end_to_end() {
        let row = Value::Object(vec![
            ("algorithm", "newreno".into()),
            ("label", "obs/flows256/\"q\"".into()),
            ("goodput_bps", 8_571_000u64.into()),
            ("completion_sim_ms", Value::Fixed(19_912.063_4, 3)),
            ("fast_retransmits", 102u64.into()),
            ("deterministic", Value::Bool(true)),
        ]);
        assert_eq!(
            row.to_string(),
            concat!(
                "{\n",
                "  \"algorithm\": \"newreno\",\n",
                "  \"label\": \"obs/flows256/\\\"q\\\"\",\n",
                "  \"goodput_bps\": 8571000,\n",
                "  \"completion_sim_ms\": 19912.063,\n",
                "  \"fast_retransmits\": 102,\n",
                "  \"deterministic\": true\n",
                "}"
            )
        );
    }
}
