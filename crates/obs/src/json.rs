//! Minimal JSON support for the trace sink: a builder that emits the
//! exact subset the trace schema uses (objects of strings, unsigned
//! integers, booleans, arrays, nested objects) and a strict parser for
//! validating emitted lines. No external dependencies, mirroring the
//! hand-rolled JSON in `bench_study`.
//!
//! The parser is deliberately *narrower* than full JSON: numbers must be
//! unsigned integers (the schema never emits floats or negatives), which
//! keeps round-trips exact — no `f64` precision cliff for nanosecond
//! values.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (trace-schema subset: integers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the schema emits).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted (BTreeMap) for deterministic comparisons.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON text. Objects render their
    /// keys in sorted order, so `parse` ∘ `render` is a canonical form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Parses one JSON document (trace-schema subset).
///
/// # Errors
///
/// Returns a byte-offset-annotated description of the first syntax
/// error, trailing garbage, or unsupported construct (floats, negative
/// numbers).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(want), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(b'-') => Err(format!(
            "negative number at byte {} (schema emits unsigned integers only)",
            *pos
        )),
        Some(&other) => Err(format!(
            "unexpected byte `{}` at {}",
            char::from(other),
            *pos
        )),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if let Some(b'.' | b'e' | b'E') = bytes.get(*pos) {
        return Err(format!(
            "non-integer number at byte {start} (schema emits unsigned integers only)"
        ));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Json::U64)
        .ok_or_else(|| format!("bad integer at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u code point at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from &str, so
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest)
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        if map.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Incremental builder for one JSONL object line. Keys render in
/// insertion order (the builder's callers put `type` first by
/// convention); values are escaped on the way in.
#[derive(Debug)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    /// Starts a line of the given schema `type`.
    #[must_use]
    pub fn new(type_: &str) -> Obj {
        Obj {
            parts: vec![format!("\"type\":\"{}\"", escape(type_))],
        }
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> Obj {
        self.parts.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.parts.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a field whose value is already-rendered JSON (arrays, nested
    /// objects). The caller is responsible for its validity.
    #[must_use]
    pub fn raw(mut self, key: &str, raw_json: &str) -> Obj {
        self.parts.push(format!("\"{}\":{raw_json}", escape(key)));
        self
    }

    /// Finishes the line.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Renders a `[...]` JSON array of strings.
#[must_use]
pub fn str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Renders a `{...}` JSON object of unsigned integers, keys in the
/// order given.
#[must_use]
pub fn u64_object<'a>(entries: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    let fields: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_parses_back() {
        let line = Obj::new("span")
            .str("bomb", "decl_time")
            .str("profile", "BAP \"quoted\"\n")
            .u64("ns", u64::MAX)
            .bool("ok", true)
            .raw("profiles", &str_array(&["a".to_string(), "b".to_string()]))
            .finish();
        let parsed = parse(&line).expect("parse");
        let obj = parsed.as_obj().expect("object");
        assert_eq!(obj["type"].as_str(), Some("span"));
        assert_eq!(obj["profile"].as_str(), Some("BAP \"quoted\"\n"));
        assert_eq!(obj["ns"].as_u64(), Some(u64::MAX));
        assert_eq!(obj["ok"], Json::Bool(true));
        assert_eq!(
            obj["profiles"],
            Json::Arr(vec![Json::Str("a".to_string()), Json::Str("b".to_string())])
        );
    }

    #[test]
    fn canonical_render_round_trips() {
        let line = "{\"b\":1,\"a\":[true,null,\"x\\u0001\"],\"c\":{\"k\":0}}";
        let parsed = parse(line).expect("parse");
        let rendered = parsed.render();
        assert_eq!(parse(&rendered).expect("reparse"), parsed);
    }

    #[test]
    fn rejects_floats_negatives_garbage() {
        assert!(parse("{\"x\":1.5}").is_err());
        assert!(parse("{\"x\":-3}").is_err());
        assert!(parse("{\"x\":1e9}").is_err());
        assert!(parse("{\"x\":}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(
            parse("{\"a\":1,\"a\":2}").is_err(),
            "duplicate keys rejected"
        );
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
