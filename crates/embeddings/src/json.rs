//! The workspace's one JSON codec: the string escape and its decoder, a
//! push-style writer for flat records, and a value parser.
//!
//! The workspace is offline (no serde). Three formats carry JSON strings:
//! explab's JSONL trial records, the quoted construction name of the
//! [`crate::plan`] text format, and the `BENCH_*.json` baselines the bench
//! gate reads. All of them go through this module, so there is exactly one
//! escaper ([`escape_into`]) and one decoder ([`decode_string`]).
//!
//! **Writing** is deterministic. Strings escape `"`, `\` and the control
//! characters (`\n`, `\r`, `\t`, otherwise lowercase `\u00XX`); everything
//! else, non-ASCII included, passes through as raw UTF-8. Integers are
//! written as-is and floats with a fixed six-decimal format, so records
//! compare bit-identically across runs and worker counts.
//!
//! **Reading** accepts RFC 8259's full escape set (`\"`, `\\`, `\/`, `\b`,
//! `\f`, `\n`, `\r`, `\t` and `\uXXXX`, with surrogate pairs for astral code
//! points) and rejects every malformation with a byte-offset [`ParseError`].
//! Arrays and objects nest at most [`MAX_DEPTH`] levels deep, so hostile
//! input is a typed error, never a stack overflow.
//!
//! # Example
//!
//! ```
//! use embeddings::json::{self, Json, Object};
//!
//! let line = Object::new().string("name", "µ \"q\"").u64("nodes", 24).finish();
//! assert_eq!(line, r#"{"name":"µ \"q\"","nodes":24}"#);
//! let parsed = json::parse(&line).unwrap();
//! assert_eq!(parsed.get("name").and_then(Json::as_str), Some("µ \"q\""));
//! assert_eq!(parsed.get("nodes").and_then(Json::as_f64), Some(24.0));
//! ```

use core::fmt::{self, Write as _};
use std::collections::BTreeMap;

/// The deepest array/object nesting [`parse`] accepts. Deeper input is a
/// [`ParseErrorKind::TooDeep`] error: the parser recurses once per level,
/// and the cap keeps that recursion far inside any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Formats a float with the fixed precision used across all records.
pub fn number(value: f64) -> String {
    format!("{value:.6}")
}

/// A JSON object under construction.
#[derive(Default)]
pub struct Object {
    fields: Vec<String>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Object {
        self.fields.push(format!("{}:{value}", escape(key)));
        self
    }

    /// Adds a float field (fixed six-decimal format).
    pub fn f64(mut self, key: &str, value: f64) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), number(value)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Object {
        self.fields.push(format!("{}:{value}", escape(key)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, or `null`).
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), value.into()));
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", elements.into_iter().collect::<Vec<_>>().join(","))
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. A repeated key keeps its last value.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.get(key),
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

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a JSON text could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the defect within the input.
    pub offset: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The kinds of [`ParseError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not well-formed JSON; the message says why.
    Malformed(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::Malformed(message) => f.write_str(message),
            ParseErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// [`ParseError`] at the first defect: malformed syntax, an unsupported
/// escape, a lone surrogate, trailing characters, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_whitespace();
    if reader.pos != text.len() {
        return Err(reader.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Decodes the JSON string literal whose opening quote is at byte `start`
/// of `text`, returning the decoded string and the offset just past its
/// closing quote. The inverse of [`escape_into`].
///
/// # Errors
///
/// [`ParseError`] if no well-formed string literal starts at `start`.
pub fn decode_string(text: &str, start: usize) -> Result<(String, usize), ParseError> {
    let mut reader = Reader { text, pos: start };
    let decoded = reader.string()?;
    Ok((decoded, reader.pos))
}

/// A byte cursor over the input. It only ever stops on ASCII bytes, so
/// every slice it takes falls on a `char` boundary.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            kind: ParseErrorKind::Malformed(message.into()),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_whitespace();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
            }),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| ParseError {
                offset: start,
                kind: ParseErrorKind::Malformed(format!("invalid number {text:?}")),
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1, // the backslash
            }
            let Some(escaped) = self.text[self.pos..].chars().next() else {
                return Err(self.error("unterminated escape"));
            };
            let decoded = match escaped {
                '"' | '\\' | '/' => escaped,
                'b' => '\u{8}',
                'f' => '\u{c}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                other => return Err(self.error(format!("unsupported escape \\{other}"))),
            };
            out.push(decoded);
            self.pos += 1;
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape whose `\u` is consumed,
    /// pairing a high surrogate with the `\uXXXX` low surrogate that must
    /// follow it.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.error("high surrogate not followed by a \\u escape"));
                }
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error(format!(
                        "high surrogate {first:04x} followed by non-surrogate {second:04x}"
                    )));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error(format!("lone low surrogate {first:04x}"))),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error(format!("non-scalar code point {code:x}")))
    }

    /// Consumes exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let value = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(value)
    }

    /// Parses an object whose `{` is next; `depth` counts this object.
    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value(depth)?;
            members.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    /// Parses an array whose `[` is next; `depth` counts this array.
    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let json = Object::new()
            .string("name", "trial")
            .u64("nodes", 24)
            .f64("avg", 1.5)
            .bool("ok", true)
            .raw("steps", array(vec!["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(
            json,
            "{\"name\":\"trial\",\"nodes\":24,\"avg\":1.500000,\"ok\":true,\"steps\":[1,2]}"
        );
    }

    #[test]
    fn numbers_are_fixed_precision() {
        assert_eq!(number(1.0), "1.000000");
        assert_eq!(number(2.0 / 3.0), "0.666667");
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        let doc = r#"{"a": 1.5, "b": [true, false, null, "x\n\"y\""], "c": {"d": -2e3}}"#;
        let json = parse(doc).unwrap();
        assert_eq!(json.get("a").unwrap().as_f64(), Some(1.5));
        let items = json.get("b").unwrap().as_array().unwrap();
        assert_eq!(items[0], Json::Bool(true));
        assert_eq!(items[2], Json::Null);
        assert_eq!(items[3].as_str(), Some("x\n\"y\""));
        assert_eq!(
            json.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        for (literal, expected) in [
            (r#""plain""#, "plain"),
            (r#""\"\\\/""#, "\"\\/"),
            (r#""\b\f\n\r\t""#, "\u{8}\u{c}\n\r\t"),
            (r#""\u0001\u001f""#, "\u{1}\u{1f}"),
            // BMP escapes: µ (two UTF-8 bytes) and ✓ (three).
            (r#""\u00b5s""#, "µs"),
            (r#""\u2713""#, "✓"),
            // Astral code points arrive as surrogate pairs (RFC 8259 §7).
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uDBFF\uDFFF""#, "\u{10FFFF}"),
            // Escaped and raw spellings agree.
            (r#""µ✓😀""#, "µ✓😀"),
            (r#""\u00b5\u2713\ud83d\ude00""#, "µ✓😀"),
        ] {
            assert_eq!(
                decode_string(literal, 0),
                Ok((expected.to_string(), literal.len())),
                "{literal}"
            );
            assert_eq!(
                parse(literal),
                Ok(Json::String(expected.into())),
                "{literal}"
            );
        }
        for (literal, defect) in [
            (r#""\ud800""#, "lone high surrogate"),
            (r#""\ud800x""#, "high surrogate, no second escape"),
            (r#""\ud800\u0041""#, "high surrogate + non-surrogate"),
            (r#""\udc00""#, "lone low surrogate"),
            (r#""\uzzzz""#, "non-hex digits"),
            (r#""\u+abc""#, "sign instead of a hex digit"),
            (r#""\ud8"#, "truncated \\u escape"),
            (r#""\x""#, "unsupported escape"),
            (r#""\é""#, "non-ASCII escape"),
            ("\"open", "unterminated string"),
            ("\"open\\", "unterminated escape"),
        ] {
            assert!(
                matches!(
                    decode_string(literal, 0),
                    Err(ParseError {
                        kind: ParseErrorKind::Malformed(_),
                        ..
                    })
                ),
                "{defect}"
            );
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "tru",
            "{1:2}",
            "-",
            "}",
            "{\"a\":1} trailing",
        ] {
            assert!(
                matches!(
                    parse(bad),
                    Err(ParseError {
                        kind: ParseErrorKind::Malformed(_),
                        ..
                    })
                ),
                "{bad:?}"
            );
        }
        // A string literal must start where the caller says.
        assert!(decode_string("x\"y\"", 0).is_err());
        assert_eq!(decode_string("x\"y\"", 1), Ok(("y".to_string(), 4)));
        assert!(decode_string("\"µ\"", 2).is_err());
        assert!(decode_string("", 5).is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(ParseError {
                offset: MAX_DEPTH,
                kind: ParseErrorKind::TooDeep
            })
        );
        // Far past the cap — deep enough to overflow an uncapped recursive
        // parser — is the same typed error, not a crash.
        let deep = nested(200_000);
        assert_eq!(
            parse(&deep).map_err(|e| e.kind),
            Err(ParseErrorKind::TooDeep)
        );
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(
            parse(&objects).map_err(|e| e.kind),
            Err(ParseErrorKind::TooDeep)
        );
        assert!(parse(&objects.replacen("{\"k\":", "", 1).replacen('}', "", 1)).is_ok());
    }
}
