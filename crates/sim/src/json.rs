//! A minimal, dependency-free JSON value model: [`Json`].
//!
//! The build environment for this workspace is fully offline, so instead of
//! `serde`/`serde_json` the observability layer serializes through this
//! small in-tree module. It provides:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion order, so
//!   emitted documents are byte-stable across runs — a requirement for the
//!   determinism guarantees of the results schema);
//! * a compact rendering ([`std::fmt::Display`]) and a pretty one
//!   ([`Json::pretty`]), both produced by one recursive writer that
//!   appends into a single `String`, copies unescaped text a run at a
//!   time, and allocates nothing per line or key;
//! * a strict parser ([`Json::parse`]), and the same parser driven
//!   without building values ([`Json::validate`]), which checks a
//!   document against the one grammar and allocates nothing;
//! * the string escaping and float formatting of the writer
//!   ([`write_escaped`], [`write_f64`]), for callers that render a
//!   document straight from a struct;
//! * the [`ToJson`] conversion trait implemented by every reportable type
//!   in the workspace.
//!
//! The parser is on every `tenways serve` and `tenways route` request
//! path: request bodies, cache entries, and every reply the clients read
//! (the router only validates the replies it relays). It runs in time
//! linear in its input
//! (a string is copied a run at a time between `"` and `\` delimiters),
//! and it reads hostile input safely: nesting deeper than
//! [`MAX_DEPTH`] and number literals that overflow to infinity are parse
//! errors with a byte position, never a stack overflow or a value that
//! would render as `null`.
//!
//! Numbers are kept in three lanes (`U64`, `I64`, `F64`) so counters never
//! lose precision and floats render with a decimal point (via `{:?}`),
//! which keeps `parse(render(v)) == v` for every value this workspace
//! produces and every value the parser accepts (`-0` parses into the
//! `U64` lane, the lane `0` renders back into).
//!
//! # Example
//!
//! ```rust
//! use tenways_sim::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::from("tenways")),
//!     ("cycles", Json::from(1234u64)),
//!     ("useful", Json::from(0.75)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"tenways","cycles":1234,"useful":0.75}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use crate::MAX_DEPTH;
use std::fmt;

/// A JSON value. Object keys preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, cycles, ids).
    U64(u64),
    /// A negative-capable integer.
    I64(i64),
    /// A floating-point number (never NaN/inf; those render as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            Json::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A short name for the value's type (for error messages and the
    /// results-schema validator).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) => "uint",
            Json::I64(_) => "int",
            Json::F64(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Renders with two-space indentation and a trailing newline-free body.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, Some(0));
        out
    }

    /// The one writer behind both renderings: appends `self` to `out`,
    /// compact when `indent` is `None`, else pretty with `self` sitting
    /// `indent` levels deep. Empty containers render as `[]` / `{}` in
    /// both forms.
    fn write_to(&self, out: &mut String, indent: Option<usize>) {
        use fmt::Write;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing into a `String` cannot fail.
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    separate(out, i, indent);
                    v.write_to(out, indent.map(|d| d + 1));
                }
                close(out, indent, ']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    separate(out, i, indent);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write_to(out, indent.map(|d| d + 1));
                }
                close(out, indent, '}');
            }
        }
    }

    /// Parses a JSON document. Strict: trailing garbage, nesting deeper
    /// than [`MAX_DEPTH`] and number literals that overflow to infinity
    /// are errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::<true>::document(text)
    }

    /// Checks that `text` is one JSON document without building it: the
    /// parser of [`Json::parse`] with every value dropped as it is read,
    /// so it allocates nothing unless it fails. It accepts exactly what
    /// `parse` accepts, and fails with the same [`JsonError`].
    pub fn validate(text: &str) -> Result<(), JsonError> {
        Parser::<false>::document(text).map(drop)
    }
}

/// Pretty indentation: two spaces per level.
const INDENT: &str = "  ";

/// Starts container member `i`: a comma after the first, and in pretty
/// mode a newline and the member's indentation (`indent` is the
/// container's own level).
fn separate(out: &mut String, i: usize, indent: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    if let Some(depth) = indent {
        out.push('\n');
        push_indent(out, depth + 1);
    }
}

/// Closes a non-empty container, on a line of its own in pretty mode.
fn close(out: &mut String, indent: Option<usize>, bracket: char) {
    if let Some(depth) = indent {
        out.push('\n');
        push_indent(out, depth);
    }
    out.push(bracket);
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str(INDENT);
    }
}

/// Appends `s` as a quoted JSON string, escaped as the writer escapes
/// it. Bytes that need no escape are copied a run at a time; every
/// escaped byte is ASCII, so each run starts and ends on a char
/// boundary.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `v` as the writer renders a float: with a decimal point or an
/// exponent (via `{:?}`), and `null` when it is not finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        use fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out, None);
        f.write_str(&out)
    }
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// The one JSON grammar. With `BUILD` it returns the values it reads;
/// without, it reads the same bytes and makes the same decisions but
/// keeps nothing: strings, arrays and objects come back empty, so no
/// value allocates.
struct Parser<'a, const BUILD: bool> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    /// The document that is the whole of `text`, between optional
    /// whitespace.
    fn document(text: &'a str) -> Result<Json, JsonError> {
        let mut p = Parser::<BUILD> {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => self.nested(open),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The array or object opening at `pos`, one level deeper than the
    /// value around it.
    fn nested(&mut self, open: u8) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = if open == b'[' {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if BUILD {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if BUILD {
                pairs.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A quoted string. Each run up to the next `"` or `\` is copied with
    /// one `push_str` (when building); both delimiters are ASCII, so
    /// every run is a char-boundary slice of the (already valid UTF-8)
    /// input and the whole string costs time linear in its length.
    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            let rest = &self.bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            if BUILD {
                out.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if BUILD {
                        out.push(c);
                    }
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`
    /// and ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                let c = char::from_u32(code).ok_or_else(|| self.err("non-scalar \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII was consumed, so this slice is on char boundaries.
        let text = &self.text[start..self.pos];
        if float {
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Json::F64(v)),
                Ok(_) => Err(self.err("number overflows to infinity")),
                Err(_) => Err(self.err("invalid float")),
            }
        } else if text.starts_with('-') {
            // `-0` is zero, which lives in the unsigned lane: the lane it
            // renders back into.
            match text.parse::<i64>() {
                Ok(0) => Ok(Json::U64(0)),
                Ok(v) => Ok(Json::I64(v)),
                Err(_) => Err(self.err("invalid integer")),
            }
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("invalid integer"))
        }
    }
}

/// Conversion into a [`Json`] tree; the workspace-wide serialization trait.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::U64(u64::from(v))
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Validates `doc` against a minimal JSON-Schema-style `schema`.
///
/// Supported keywords (a deliberate subset, enough for the
/// `results/schema/*.v1.json` contracts):
///
/// * `type` — one of `"object"`, `"array"`, `"string"`, `"number"`
///   (accepts any numeric lane), `"integer"`, `"boolean"`, `"null"`.
/// * `required` — array of keys an object must contain.
/// * `properties` — per-key subschemas for object members (keys absent
///   from `properties` are allowed and unchecked).
/// * `items` — subschema every array element must satisfy.
/// * `const` — the value must equal this literal exactly.
///
/// Returns the first violation as `Err(path: message)`.
pub fn validate_schema(doc: &Json, schema: &Json) -> Result<(), String> {
    fn check(doc: &Json, schema: &Json, path: &str) -> Result<(), String> {
        if let Some(expected) = schema.get("const") {
            if doc != expected {
                return Err(format!("{path}: expected constant {expected}, got {doc}"));
            }
        }
        if let Some(ty) = schema.get("type").and_then(Json::as_str) {
            let ok = match ty {
                "object" => matches!(doc, Json::Obj(_)),
                "array" => matches!(doc, Json::Arr(_)),
                "string" => matches!(doc, Json::Str(_)),
                "number" => matches!(doc, Json::U64(_) | Json::I64(_) | Json::F64(_)),
                "integer" => matches!(doc, Json::U64(_) | Json::I64(_)),
                "boolean" => matches!(doc, Json::Bool(_)),
                "null" => matches!(doc, Json::Null),
                other => return Err(format!("{path}: schema names unknown type `{other}`")),
            };
            if !ok {
                return Err(format!("{path}: expected {ty}, got {}", doc.type_name()));
            }
        }
        if let Some(required) = schema.get("required").and_then(Json::as_array) {
            for key in required {
                let key = key
                    .as_str()
                    .ok_or_else(|| format!("{path}: `required` entries must be strings"))?;
                if doc.get(key).is_none() {
                    return Err(format!("{path}: missing required key `{key}`"));
                }
            }
        }
        if let Some(props) = schema.get("properties").and_then(Json::as_object) {
            for (key, sub) in props {
                if let Some(value) = doc.get(key) {
                    check(value, sub, &format!("{path}.{key}"))?;
                }
            }
        }
        if let Some(items) = schema.get("items") {
            if let Some(elems) = doc.as_array() {
                for (i, elem) in elems.iter().enumerate() {
                    check(elem, items, &format!("{path}[{i}]"))?;
                }
            }
        }
        Ok(())
    }
    check(doc, schema, "$")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_validation_accepts_and_rejects() {
        let schema = Json::parse(
            r#"{
                "type": "object",
                "required": ["version", "rows"],
                "properties": {
                    "version": {"type": "integer", "const": 1},
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["label"],
                            "properties": {"label": {"type": "string"}}
                        }
                    }
                }
            }"#,
        )
        .unwrap();
        let good = Json::parse(r#"{"version":1,"rows":[{"label":"a","extra":true}]}"#).unwrap();
        assert_eq!(validate_schema(&good, &schema), Ok(()));
        let missing = Json::parse(r#"{"version":1}"#).unwrap();
        assert!(validate_schema(&missing, &schema)
            .unwrap_err()
            .contains("rows"));
        let mistyped = Json::parse(r#"{"version":1,"rows":[{"label":7}]}"#).unwrap();
        assert!(validate_schema(&mistyped, &schema)
            .unwrap_err()
            .contains("$.rows[0].label"));
        let wrong_const = Json::parse(r#"{"version":2,"rows":[]}"#).unwrap();
        assert!(validate_schema(&wrong_const, &schema)
            .unwrap_err()
            .contains("constant"));
    }

    #[test]
    fn scalars_render_and_parse() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::U64(42), "42"),
            (Json::I64(-7), "-7"),
            (Json::F64(0.5), "0.5"),
            (Json::Str("hi \"there\"\n".into()), r#""hi \"there\"\n""#),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        // `1.0` must not collapse to the integer `1` — round-trip typing.
        assert_eq!(Json::F64(1.0).to_string(), "1.0");
        assert_eq!(Json::parse("1.0").unwrap(), Json::F64(1.0));
        assert_eq!(Json::parse("1").unwrap(), Json::U64(1));
    }

    #[test]
    fn object_round_trip_preserves_order() {
        let doc = Json::obj([
            ("z", Json::U64(1)),
            ("a", Json::arr([Json::Null, Json::Bool(false)])),
            ("m", Json::obj([("inner", Json::Str("x".into()))])),
        ]);
        let text = doc.to_string();
        assert!(text.starts_with(r#"{"z":"#), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::obj([("n", Json::U64(3)), ("f", Json::F64(2.5))]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(5).get("x"), None);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        let ctrl = Json::Str("\u{1}".into());
        assert_eq!(Json::parse(&ctrl.to_string()).unwrap(), ctrl);
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    /// One document holding every variant and every escaping case.
    fn golden_doc() -> Json {
        Json::obj([
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::Obj(Vec::new())),
            (
                "nested_empty",
                Json::arr([
                    Json::arr([Json::arr([])]),
                    Json::obj([("e", Json::Obj(Vec::new()))]),
                ]),
            ),
            (
                "lits",
                Json::arr([Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            (
                "text",
                Json::from(
                    "tab\t nl\n cr\r nul\u{0} bel\u{7} us\u{1f} del\u{7f} \"q\" back\\slash /",
                ),
            ),
            ("unicode", Json::from("é ß 日本 🎉")),
            ("k\"e\\y\n", Json::Str(String::new())),
            (
                "ints",
                Json::arr([
                    Json::U64(0),
                    Json::U64(u64::MAX),
                    Json::I64(i64::MIN),
                    Json::I64(-1),
                ]),
            ),
            (
                "floats",
                Json::arr([
                    Json::F64(1.0),
                    Json::F64(-0.0),
                    Json::F64(0.1),
                    Json::F64(1e300),
                    Json::F64(-1.5e-7),
                    Json::F64(123456789.125),
                    Json::F64(f64::NAN),
                    Json::F64(f64::INFINITY),
                    Json::F64(f64::NEG_INFINITY),
                ]),
            ),
            (
                "deep",
                Json::obj([(
                    "a",
                    Json::arr([Json::obj([("b", Json::arr([Json::U64(7)]))])]),
                )]),
            ),
        ])
    }

    /// The rendering of [`golden_doc`], pinned byte for byte. DEL (0x7f)
    /// is the one character that passes through unescaped yet is
    /// invisible, so it is spliced in by escape.
    #[test]
    fn writer_output_is_pinned() {
        const COMPACT: &str = concat!(
            r#"{"empty_arr":[],"empty_obj":{},"nested_empty":[[[]],{"e":{}}],"#,
            r#""lits":[null,true,false],"#,
            r#""text":"tab\t nl\n cr\r nul\u0000 bel\u0007 us\u001f del"#,
            "\u{7f}",
            r#" \"q\" back\\slash /","unicode":"é ß 日本 🎉","k\"e\\y\n":"","#,
            r#""ints":[0,18446744073709551615,-9223372036854775808,-1],"#,
            r#""floats":[1.0,-0.0,0.1,1e300,-1.5e-7,123456789.125,null,null,null],"#,
            r#""deep":{"a":[{"b":[7]}]}}"#,
        );
        const PRETTY: &str = concat!(
            r#"{
  "empty_arr": [],
  "empty_obj": {},
  "nested_empty": [
    [
      []
    ],
    {
      "e": {}
    }
  ],
  "lits": [
    null,
    true,
    false
  ],
  "text": "tab\t nl\n cr\r nul\u0000 bel\u0007 us\u001f del"#,
            "\u{7f}",
            r#" \"q\" back\\slash /",
  "unicode": "é ß 日本 🎉",
  "k\"e\\y\n": "",
  "ints": [
    0,
    18446744073709551615,
    -9223372036854775808,
    -1
  ],
  "floats": [
    1.0,
    -0.0,
    0.1,
    1e300,
    -1.5e-7,
    123456789.125,
    null,
    null,
    null
  ],
  "deep": {
    "a": [
      {
        "b": [
          7
        ]
      }
    ]
  }
}"#,
        );
        let doc = golden_doc();
        assert_eq!(doc.to_string(), COMPACT);
        assert_eq!(doc.pretty(), PRETTY);
        // `{}` and `to_string` agree, and so do nested renderings.
        assert_eq!(format!("{doc}"), COMPACT);
        let deep = doc.get("deep").unwrap();
        assert_eq!(deep.to_string(), r#"{"a":[{"b":[7]}]}"#);
    }

    #[test]
    fn nesting_is_bounded_for_arrays_and_objects() {
        for (kind, open, inner, close) in [
            ("arrays", "[", "", "]"),
            ("objects", r#"{"k":"#, "null", "}"),
        ] {
            let doc = |n: usize| format!("{}{inner}{}", open.repeat(n), close.repeat(n));
            let deepest = Json::parse(&doc(MAX_DEPTH)).unwrap();
            assert_eq!(
                Json::parse(&deepest.to_string()).unwrap(),
                deepest,
                "{kind}"
            );
            let e = Json::parse(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.msg.contains("nesting deeper than"), "{kind}: {e}");
            // The error points at the bracket that went one too deep.
            assert_eq!(e.pos, MAX_DEPTH * open.len(), "{kind}");
            // Far past the bound (a stack overflow before the bound existed).
            assert!(Json::parse(&doc(20_000)).is_err(), "{kind}");
        }
    }

    #[test]
    fn number_literals_overflowing_to_infinity_are_rejected() {
        for text in ["1e400", "-1e400", "[0, 2e308]", "1.8e308"] {
            let e = Json::parse(text).unwrap_err();
            assert!(e.msg.contains("infinity"), "{text}: {e}");
        }
        // The largest finite double and underflow to zero still parse.
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap(),
            Json::F64(f64::MAX)
        );
        assert_eq!(Json::parse("1e-400").unwrap(), Json::F64(0.0));
    }

    #[test]
    fn minus_zero_lands_in_the_lane_it_renders_back_into() {
        assert_eq!(Json::parse("-0").unwrap(), Json::U64(0));
        assert_eq!(Json::parse("-1").unwrap(), Json::I64(-1));
        assert_eq!(Json::parse("-0.0").unwrap().to_string(), "-0.0");
    }

    #[test]
    fn validate_gives_the_verdict_of_parse() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let long = format!("\"{}\"", "x\\n".repeat(1000));
        for text in [
            "null",
            " {\"a\": [1, -0, 2.5e-3, \"\\u00e9\", true]} ",
            &long,
            &deep(MAX_DEPTH),
            &deep(MAX_DEPTH + 1),
            "1e400",
            "[0, -1e400]",
            "18446744073709551616",
            "-",
            r#""a\x""#,
            r#""a\ud800""#,
            r#"{"k" 1}"#,
            "[1,]",
            "12 34",
            "",
        ] {
            assert_eq!(
                Json::validate(text),
                Json::parse(text).map(drop),
                "{text:.40}"
            );
        }
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        let text = r#""plain é 日本 \"q\" a\\b \/ \u00e9\u0001 \b\f\n\r\t end""#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::from("plain é 日本 \"q\" a\\b / é\u{1} \u{8}\u{c}\n\r\t end")
        );
        for (bad, pos) in [
            (r#""abc"#, 4),
            (r#""a\x""#, 3),
            (r#""a\u12""#, 3),
            (r#""a\ud800""#, 3),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err().pos, pos, "{bad}");
        }
    }
}
