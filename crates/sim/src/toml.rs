//! A minimal TOML reader, translating documents into [`Json`] trees.
//!
//! Config files for `tenways` may be written in TOML or JSON; this module
//! covers the TOML subset those configs need — top-level key/value pairs,
//! `[section]` tables (one level deep, nested via dotted headers), strings,
//! integers, floats, booleans, and arrays — without pulling in an
//! external crate (the build environment is offline). Everything parses
//! into the same [`Json`] value model the rest of the observability layer
//! uses, so `SimConfig::from_json` is the single decode path.
//!
//! `serve` reads TOML request bodies and answers, caches and forwards
//! them as JSON, so every tree the reader accepts is one [`Json::parse`]
//! accepts back unchanged. Nesting is bounded the way `Json::parse`
//! bounds it: at most [`MAX_DEPTH`] containers deep, counting the root
//! table, each section-header component and each enclosing array.
//! Numbers take the JSON parser's lanes, and a float that overflows to
//! infinity is an error.
//!
//! ```rust
//! use tenways_sim::toml::parse_toml;
//!
//! let doc = parse_toml(r#"
//! workload = "oltp"
//! threads = 16
//!
//! [machine]
//! dram_latency = 200
//! "#).unwrap();
//! assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("oltp"));
//! assert_eq!(
//!     doc.get("machine").and_then(|m| m.get("dram_latency")).and_then(|v| v.as_u64()),
//!     Some(200),
//! );
//! ```

use crate::json::Json;
use crate::MAX_DEPTH;
use std::fmt;

/// A TOML parse error with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "toml error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML document into a [`Json::Obj`] tree.
pub fn parse_toml(text: &str) -> Result<Json, TomlError> {
    let mut root: Vec<(String, Json)> = Vec::new();
    // Path of the currently open `[section]` (empty = top level).
    let mut section: Vec<String> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |msg: &str| TomlError {
            line: lineno,
            msg: msg.to_string(),
        };
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err("unterminated section header"))?
                .trim();
            if header.is_empty() || header.starts_with('[') {
                return Err(err("unsupported section header"));
            }
            section = header.split('.').map(|s| s.trim().to_string()).collect();
            if section.iter().any(|s| s.is_empty()) {
                return Err(err("empty section name component"));
            }
            if section.len() >= MAX_DEPTH {
                return Err(err(&format!("nesting deeper than {MAX_DEPTH}")));
            }
            // Materialize the table so empty sections still appear.
            table_at(&mut root, &section).map_err(|m| err(&m))?;
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        let key = unquote_key(key.trim()).ok_or_else(|| err("bad key"))?;
        let value = parse_value(value.trim(), section.len() + 1).map_err(|m| err(&m))?;
        let table = table_at(&mut root, &section).map_err(|m| err(&m))?;
        if table.iter().any(|(k, _)| *k == key) {
            return Err(err(&format!("duplicate key `{key}`")));
        }
        table.push((key, value));
    }
    Ok(Json::Obj(root))
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote_key(key: &str) -> Option<String> {
    if let Some(inner) = key.strip_prefix('"').and_then(|k| k.strip_suffix('"')) {
        return Some(inner.to_string());
    }
    if !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Some(key.to_string());
    }
    None
}

/// Walks (creating as needed) to the table named by `path`.
fn table_at<'a>(
    root: &'a mut Vec<(String, Json)>,
    path: &[String],
) -> Result<&'a mut Vec<(String, Json)>, String> {
    let mut cur = root;
    for name in path {
        if !cur.iter().any(|(k, _)| k == name) {
            cur.push((name.clone(), Json::Obj(Vec::new())));
        }
        let slot = cur
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .expect("just ensured present");
        match slot {
            Json::Obj(pairs) => cur = pairs,
            _ => return Err(format!("`{name}` is both a value and a table")),
        }
    }
    Ok(cur)
}

/// Parses one value inside `depth` containers: the root table, one per
/// section-header component, and one per enclosing array.
fn parse_value(text: &str, depth: usize) -> Result<Json, String> {
    if text.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or("unterminated string")?;
        return unescape(inner).map(Json::Str);
    }
    if text == "true" {
        return Ok(Json::Bool(true));
    }
    if text == "false" {
        return Ok(Json::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[') {
        if depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?.trim();
        if inner.is_empty() {
            return Ok(Json::Arr(Vec::new()));
        }
        return split_top_level(inner)?
            .into_iter()
            .map(|item| parse_value(item.trim(), depth + 1))
            .collect::<Result<Vec<_>, _>>()
            .map(Json::Arr);
    }
    // Numbers. TOML allows `_` separators.
    let num = text.replace('_', "");
    if let Some(hex) = num.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16)
            .map(Json::U64)
            .map_err(|_| format!("bad hex integer `{text}`"));
    }
    if num.contains(['.', 'e', 'E']) {
        return match num.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(format!("float `{text}` overflows to infinity")),
            Err(_) => Err(format!("bad float `{text}`")),
        };
    }
    if num.starts_with('-') {
        // `-0` is zero, which lives in the unsigned lane, as in
        // `Json::parse`.
        return match num.parse::<i64>() {
            Ok(0) => Ok(Json::U64(0)),
            Ok(v) => Ok(Json::I64(v)),
            Err(_) => Err(format!("bad integer `{text}`")),
        };
    }
    num.parse::<u64>()
        .map(Json::U64)
        .map_err(|_| format!("bad value `{text}`"))
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Splits `a, b, c` on commas that are not inside strings or nested arrays.
fn split_top_level(s: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.checked_sub(1).ok_or("unbalanced array")?,
            ',' if !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str || depth != 0 {
        return Err("unbalanced array or string".to_string());
    }
    parts.push(&s[start..]);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_document() {
        let doc = parse_toml("a = 1\nb = \"two\"\nc = true\nd = -3\ne = 2.5\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Json::U64(1)));
        assert_eq!(doc.get("b"), Some(&Json::Str("two".into())));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::I64(-3)));
        assert_eq!(doc.get("e"), Some(&Json::F64(2.5)));
    }

    #[test]
    fn sections_and_comments() {
        let doc = parse_toml(
            "# top\nseed = 0x7ea5 # hex\n[machine]\ncores = 16\n[spec]\nmode = \"continuous\"\n",
        )
        .unwrap();
        assert_eq!(doc.get("seed"), Some(&Json::U64(0x7ea5)));
        assert_eq!(
            doc.get("machine").and_then(|m| m.get("cores")),
            Some(&Json::U64(16))
        );
        assert_eq!(
            doc.get("spec")
                .and_then(|m| m.get("mode"))
                .and_then(Json::as_str),
            Some("continuous")
        );
    }

    #[test]
    fn arrays_and_underscores() {
        let doc = parse_toml("xs = [1, 2, 3]\nbig = 1_000_000\n").unwrap();
        assert_eq!(
            doc.get("xs"),
            Some(&Json::arr([Json::U64(1), Json::U64(2), Json::U64(3)]))
        );
        assert_eq!(doc.get("big"), Some(&Json::U64(1_000_000)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_toml("ok = 1\nnot a pair\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            parse_toml("a = 1\na = 2\n").is_err(),
            "duplicate keys rejected"
        );
        assert!(parse_toml("[bad\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse_toml("s = \"a#b\"\n").unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a#b"));
    }

    /// `key = [[…]]` with `depth` brackets.
    fn nested_arrays(depth: usize) -> String {
        format!("a = {}{}\n", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn array_nesting_is_bounded() {
        // The root table is one level, so MAX_DEPTH - 1 arrays fit.
        let doc = parse_toml(&nested_arrays(MAX_DEPTH - 1)).unwrap();
        let mut v = doc.get("a").unwrap();
        for _ in 1..MAX_DEPTH - 1 {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v, &Json::Arr(Vec::new()));
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        let e = parse_toml(&format!("ok = 1\n{}", nested_arrays(MAX_DEPTH))).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("nesting deeper than"), "{e}");
        // Far past the bound (a stack overflow before the bound existed).
        assert!(parse_toml(&nested_arrays(5_000)).is_err());
        // A section header is one level of its own.
        assert!(parse_toml(&format!("[s]\n{}", nested_arrays(MAX_DEPTH - 1))).is_err());
    }

    #[test]
    fn header_nesting_is_bounded() {
        let header = |n: usize| format!("[{}]\nk = 1\n", vec!["t"; n].join("."));
        let doc = parse_toml(&header(MAX_DEPTH - 1)).unwrap();
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        let e = parse_toml(&header(MAX_DEPTH)).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("nesting deeper than"), "{e}");
    }

    #[test]
    fn numbers_take_the_json_lanes() {
        let doc = parse_toml("z = -0\nn = -0_0\n").unwrap();
        assert_eq!(doc.get("z"), Some(&Json::U64(0)));
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        for text in ["f = 1e400\n", "f = -1.5e999\n"] {
            let e = parse_toml(text).unwrap_err();
            assert!(e.msg.contains("overflows to infinity"), "{e}");
        }
    }
}
