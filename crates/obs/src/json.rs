//! A self-contained JSON value tree with compact and pretty renderers **and** a
//! parser — the workspace's one JSON implementation (the build container has no
//! network access, so no serde).
//!
//! [`ObsSnapshot::to_json`](crate::ObsSnapshot::to_json) must round-trip — an
//! exported registry snapshot is re-loadable for offline diffing — and the
//! report binaries archive their numbers as pretty JSON (`BENCH_norm.json`) that
//! later changes parse and diff. Only what those need is implemented: objects,
//! arrays, strings, unsigned integers and finite floats, booleans and null.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        Self::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn array<I: IntoIterator<Item = JsonValue>>(values: I) -> Self {
        Self::Array(values.into_iter().collect())
    }

    /// Looks up `key` in an object (`None` for other variants or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Number(n) if *n >= 0.0 && *n == n.trunc() && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders compactly (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders with two-space indentation, one member per line; empty
    /// containers stay inline and there is no trailing newline.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// Renders compactly when `indent` is `None`, else pretty at that depth.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Number(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1.8e19 {
                        // Render integral values without an exponent or point so
                        // u64 counters survive the round trip exactly.
                        if *n >= 0.0 {
                            let _ = write!(out, "{}", *n as u64);
                        } else {
                            let _ = write!(out, "{}", *n as i64);
                        }
                    } else {
                        // `{}` prints the shortest representation that parses
                        // back to the same f64, so gauges round-trip too.
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Self::String(s) => render_string(out, s),
            Self::Array(values) => {
                render_container(out, ['[', ']'], indent, values.iter().map(|v| (None, v)));
            }
            Self::Object(pairs) => render_container(
                out,
                ['{', '}'],
                indent,
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a one-line description with a byte offset when the input is not
    /// valid JSON (or uses a feature this parser does not implement, e.g.
    /// `\u` escapes outside the BMP).
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }
}

/// Renders one array or object: its `items` (keyed for an object) between the
/// `brackets`, compact or pretty as [`JsonValue::render_into`] asks.
fn render_container<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    indent: Option<usize>,
    items: impl Iterator<Item = (Option<&'a str>, &'a JsonValue)>,
) {
    out.push(open);
    let inner = indent.map(|level| level + 1);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = inner {
            out.push('\n');
            push_indent(out, level);
        }
        if let Some(key) = key {
            render_string(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.render_into(out, inner);
    }
    if let (Some(level), false) = (indent, empty) {
        out.push('\n');
        push_indent(out, level);
    }
    out.push(close);
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        Self::String(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        Self::String(value)
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        Self::Number(value)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> Self {
        Self::Number(value as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        Self::Number(value as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        Self::Bool(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(values));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| "surrogate \\u escape".to_string())?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_documents() {
        let doc = JsonValue::object([
            ("name", JsonValue::String("obs".to_string())),
            ("count", JsonValue::Number(4096.0)),
            ("rate", JsonValue::Number(0.125)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "series",
                JsonValue::array([JsonValue::Number(1.0), JsonValue::Number(2.5)]),
            ),
        ]);
        let rendered = doc.render();
        assert_eq!(JsonValue::parse(&rendered).expect("round trip"), doc);
        assert!(rendered.contains("\"count\":4096"));
        assert!(rendered.contains("\"rate\":0.125"));
    }

    #[test]
    fn large_u64_values_round_trip_through_get_accessors() {
        // 2^53-scale counters survive: f64 holds integers exactly to 2^53 and
        // snapshots clamp render at integral values.
        let doc = JsonValue::object([("big", JsonValue::Number(9_007_199_254_740_992.0))]);
        let parsed = JsonValue::parse(&doc.render()).expect("parses");
        assert_eq!(parsed.get("big").and_then(JsonValue::as_u64), Some(1 << 53));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(JsonValue::Null.get("big"), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(2.5).as_u64(), None);
        assert_eq!(JsonValue::Bool(true).as_number(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = JsonValue::String("a\"b\\c\nd\te\u{1}π".to_string());
        assert_eq!(JsonValue::parse(&doc.render()).expect("round trip"), doc);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "12 34", "nul", "--1"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn renders_nested_documents() {
        let doc = JsonValue::object([
            ("name", JsonValue::from("norm")),
            ("ok", JsonValue::from(true)),
            ("none", JsonValue::Null),
            (
                "series",
                JsonValue::array([JsonValue::from(1.0), JsonValue::from(2.5)]),
            ),
        ]);
        let rendered = doc.render_pretty();
        assert!(rendered.starts_with("{\n  \"name\": \"norm\""));
        assert!(rendered.contains("\"series\": [\n    1,\n    2.5\n  ]"));
        assert!(rendered.ends_with('}'));
        assert_eq!(
            JsonValue::parse(&rendered).expect("pretty output parses"),
            doc
        );
    }

    #[test]
    fn escapes_strings_and_handles_non_finite() {
        let doc = JsonValue::object([
            ("quote", JsonValue::from("a\"b\\c\nd")),
            ("nan", JsonValue::Number(f64::NAN)),
        ]);
        let rendered = doc.render_pretty();
        assert!(rendered.contains("\\\"b\\\\c\\n"));
        assert!(rendered.contains("\"nan\": null"));
    }

    #[test]
    fn empty_containers_render_inline() {
        assert_eq!(JsonValue::array([]).render_pretty(), "[]");
        assert_eq!(
            JsonValue::object(Vec::<(String, JsonValue)>::new()).render_pretty(),
            "{}"
        );
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(JsonValue::from(4096u64).render_pretty(), "4096");
        assert_eq!(JsonValue::from(0.125).render_pretty(), "0.125");
    }

    #[test]
    fn whitespace_and_empty_containers_parse() {
        let parsed = JsonValue::parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("parses");
        assert_eq!(parsed.get("a"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(parsed.get("b"), Some(&JsonValue::Object(Vec::new())));
    }
}
