//! Minimal JSON parsing and rendering for the serve protocol (the
//! workspace has no serde).
//!
//! It is the workspace's only JSON parser. [`render`] is the protocol's
//! inverse: object keys come out of the `BTreeMap` in sorted order and
//! numbers with no fractional part print as integers, so a rendered line
//! is a byte-stable function of the value — the property the `flh serve`
//! determinism gate diffs on.

use std::collections::BTreeMap;

/// A parsed JSON value (numbers are kept as `f64`; good enough for the
/// protocol and report schemas, which never use integers outside `f64`'s
/// exact range).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. No
/// protocol document or report nests more than a few levels; the cap keeps
/// the recursive descent from overflowing the stack on hostile input.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse_json`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed input, with a byte-offset message.
    Syntax(String),
    /// The array or object opened at byte `at` nests deeper than
    /// [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the opening bracket past the limit.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(message) => f.write_str(message),
            JsonError::TooDeep { at } => {
                write!(f, "byte {at}: nesting deeper than {MAX_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(message: String) -> Self {
        JsonError::Syntax(message)
    }
}

impl From<&str> for JsonError {
    fn from(message: &str) -> Self {
        JsonError::Syntax(message.into())
    }
}

/// Protocol and report code reports errors as text.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "byte {}: expected {:?}, found {:?}",
                self.pos,
                b as char,
                self.peek().map(|c| c as char)
            )
            .into())
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("byte {}: expected {word}", self.pos).into())
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => {
                            return Err(format!(
                                "byte {}: unsupported escape \\{}",
                                self.pos, other as char
                            )
                            .into())
                        }
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // input is valid UTF-8 (it came from `str`).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("run is cut at ASCII delimiters of a str-backed buffer");
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("byte {start}: bad number {text:?}: {e}").into())
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { at: self.pos });
                }
                self.pos += 1;
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// An object's members, after its `{`.
    fn object(&mut self) -> Result<Json, JsonError> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => {
                    return Err(
                        format!("byte {}: expected ',' or '}}', found {other:?}", self.pos).into(),
                    )
                }
            }
        }
    }

    /// An array's items, after its `[`.
    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(
                        format!("byte {}: expected ',' or ']', found {other:?}", self.pos).into(),
                    )
                }
            }
        }
    }
}

/// Parses a JSON document (object, array or scalar).
///
/// # Errors
///
/// [`JsonError::Syntax`] with a byte-offset message on malformed input or
/// trailing garbage, [`JsonError::TooDeep`] past [`MAX_DEPTH`] levels of
/// nesting.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("byte {}: trailing garbage", p.pos).into());
    }
    Ok(value)
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => {
            // Whole numbers in i64 range render without a fraction, so a
            // parse → render round trip of protocol integers (job counts,
            // seeds, fault totals) is the identity.
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::String(s) => render_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Renders a value as a single compact line: sorted object keys, no
/// whitespace, whole numbers as integers. `parse_json(render(v)) == v` for
/// every value this module itself produces.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse_json(
            "{\n  \"op\": \"submit\",\n  \"quick\": false,\n  \"nested\": {\"speedup\": 5.25},\n  \"xs\": [1, -2.5, 3e2],\n  \"none\": null\n}\n",
        )
        .unwrap();
        let Json::Object(map) = v else { panic!() };
        assert_eq!(map["op"], Json::String("submit".into()));
        assert_eq!(map["quick"], Json::Bool(false));
        assert_eq!(
            map["xs"],
            Json::Array(vec![
                Json::Number(1.0),
                Json::Number(-2.5),
                Json::Number(300.0)
            ])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": 01x}").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        // Deep enough to overflow the stack of an unbounded recursive parser.
        let hostile = "[".repeat(200_000);
        assert_eq!(
            parse_json(&hostile),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(
            parse_json(&objects),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn render_is_compact_sorted_and_reparses() {
        let v = Json::object([
            ("zeta", Json::Number(3.0)),
            ("alpha", Json::String("a \"quoted\"\nline".into())),
            (
                "mid",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::Number(2.5)]),
            ),
        ]);
        let line = render(&v);
        assert!(line.starts_with("{\"alpha\":"), "sorted keys in {line}");
        assert!(line.contains("\"zeta\":3"), "whole float as int in {line}");
        assert!(line.contains("\\\"quoted\\\"") && line.contains("\\n"));
        assert_eq!(parse_json(&line).unwrap(), v);
    }

    #[test]
    fn render_round_trips_numbers() {
        for n in [0.0, -7.0, 71.32, 1.0e9, -2.5] {
            let line = render(&Json::Number(n));
            assert_eq!(parse_json(&line).unwrap(), Json::Number(n), "{line}");
        }
    }
}
