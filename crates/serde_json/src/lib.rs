//! Offline stand-in for `serde_json`: serializes the vendored [`serde`]
//! [`Value`] model to JSON text and parses JSON text back.
//!
//! Output conventions match the real crate where they matter to this
//! workspace: objects keep field order, floats print in Rust's shortest
//! round-trip form, non-finite floats become `null`, and
//! [`to_string_pretty`] indents with two spaces. The parser, like the real
//! one, rejects nesting deeper than 128 arrays or objects, decodes a `\u`
//! surrogate pair to its one scalar and rejects a lone surrogate.

#![warn(missing_docs)]

#[cfg(test)]
mod oracle;

use serde::{Deserialize, Serialize};

/// Re-export of the shared data model, mirroring `serde_json::Value`.
pub use serde::Value;

/// Error type for JSON serialization and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes `value` as a compact JSON string.
///
/// # Errors
///
/// Infallible for the vendored data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as a two-space-indented JSON string.
///
/// # Errors
///
/// Infallible for the vendored data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some("  "), 0);
    Ok(out)
}

/// Parses a JSON string into a deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::deserialize_value(&value)?)
}

// ---- writer ----------------------------------------------------------------
//
// Everything is written straight into the one output `String`: integers and
// floats are formatted in place, and strings are copied a run at a time,
// breaking only at a byte that needs an escape.

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            write_u64(out, i.unsigned_abs());
        }
        Value::UInt(u) => write_u64(out, *u),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            write_seq(
                out,
                items.len(),
                indent,
                depth,
                '[',
                ']',
                |out, i, ind, d| {
                    write_value(out, &items[i], ind, d);
                },
            );
        }
        Value::Object(fields) => {
            write_seq(
                out,
                fields.len(),
                indent,
                depth,
                '{',
                '}',
                |out, i, ind, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    write_value(out, v, ind, d);
                },
            );
        }
    }
}

fn write_seq(
    out: &mut String,
    len: usize,
    indent: Option<&str>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, usize, Option<&str>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(ind) = indent {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str(ind);
            }
        }
        write_item(out, i, indent, depth + 1);
    }
    if let Some(ind) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(ind);
        }
    }
    out.push(close);
}

/// Appends the decimal digits of `u`, as `u.to_string()` would spell them.
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

fn write_f64(out: &mut String, f: f64) {
    use std::fmt::Write as _;
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's Display is the shortest round-trip form. Ensure a decimal
    // point (or exponent) so the token reads as a float.
    let start = out.len();
    write!(out, "{f}").expect("writing to a String cannot fail");
    if !out.as_bytes()[start..]
        .iter()
        .any(|b| matches!(b, b'.' | b'e' | b'E'))
    {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte that needs an escape is ASCII, so each break between runs
    // falls on a char boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

/// Arrays and objects nested deeper than this are rejected with an
/// [`Error`] rather than recursing until the stack overflows. Upstream
/// serde_json uses the same limit.
const MAX_DEPTH: usize = 128;

/// A recursive-descent parser over the input `&str`.
///
/// String runs without escapes are copied from the input in one slice.
/// Container elements are parsed onto two scratch stacks shared by the
/// whole parse, then moved out into one exactly sized `Vec` when the
/// container closes, so a container costs one allocation however many
/// elements it has.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    items: Vec<Value>,
    fields: Vec<(String, Value)>,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        fields: Vec::new(),
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::new("invalid keyword"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.keyword("null", Value::Null),
            b't' => self.keyword("true", Value::Bool(true)),
            b'f' => self.keyword("false", Value::Bool(false)),
            b'"' => {
                self.pos += 1;
                self.string().map(Value::Str)
            }
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    /// Steps into a container, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), Error> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            )));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let base = self.items.len();
        if self.peek()? == b']' {
            self.pos += 1;
        } else {
            loop {
                let item = self.value()?;
                self.items.push(item);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error::new("expected `,` or `]` in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Array(self.items.drain(base..).collect()))
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let base = self.fields.len();
        if self.peek()? == b'}' {
            self.pos += 1;
        } else {
            loop {
                self.expect(b'"')?;
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                self.fields.push((key, value));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error::new("expected `,` or `}` in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Object(self.fields.drain(base..).collect()))
    }

    /// Parses a string body; the opening quote is already consumed.
    fn string(&mut self) -> Result<String, Error> {
        let mut out = String::new();
        loop {
            let start = self.pos;
            let end = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map(|n| start + n)
                .ok_or_else(|| Error::new("unterminated string"))?;
            if self.bytes[end] < 0x20 {
                return Err(Error::new(format!(
                    "unescaped control character in string at byte {end}"
                )));
            }
            // Quotes and backslashes are ASCII, so `start..end` is a
            // char-boundary slice of the input.
            let run = &self.src[start..end];
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                if out.is_empty() {
                    return Ok(run.to_owned());
                }
                out.push_str(run);
                return Ok(out);
            }
            out.push_str(run);
            self.escape(&mut out)?;
        }
    }

    /// Decodes one escape; the backslash is already consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| Error::new("unterminated escape"))?;
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => self.unicode_escape()?,
            _ => return Err(Error::new("unknown escape")),
        };
        out.push(c);
        Ok(())
    }

    /// Decodes the code point of a `\u` escape, joining a UTF-16
    /// surrogate pair written as two escapes. A lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let lone = || Error::new("lone surrogate in \\u escape");
        let code = match self.hex4()? {
            high @ 0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(lone());
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(lone());
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(lone()),
            code => code,
        };
        Ok(char::from_u32(code).expect("a non-surrogate code point is a scalar"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            let digit = char::from(h)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Parses a number in JSON's grammar, `-? (0 | [1-9][0-9]*) (.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`. Integers become `UInt` or, when negative,
    /// `Int`; one past `u64` becomes a `Float`, as in the oracle.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bytes = self.bytes;
        let digits = |from: usize| {
            from + bytes.get(from..).map_or(0, |rest| {
                rest.iter().take_while(|b| b.is_ascii_digit()).count()
            })
        };
        let invalid = || Error::new(format!("invalid number at byte {start}"));
        let neg = usize::from(bytes.get(start) == Some(&b'-'));
        // The integer part, accumulated as it is scanned: plain unsigned
        // integers are the bulk of every stored block.
        let mut end = start + neg;
        let mut acc = Some(0u64);
        while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
            acc = acc.and_then(|a| a.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            end += 1;
        }
        match &bytes[start + neg..end] {
            [] if neg == 0 => {
                return Err(Error::new(format!("unexpected character at byte {start}")))
            }
            [] | [b'0', _, ..] => return Err(invalid()),
            _ => {}
        }
        let int_end = end;
        if bytes.get(end) == Some(&b'.') {
            end = digits(end + 1);
            if end == int_end + 1 {
                return Err(invalid());
            }
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let exp = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            end = digits(exp);
            if end == exp {
                return Err(invalid());
            }
        }
        self.pos = end;
        // The grammar is ASCII, so this is a char-boundary slice.
        let text = &self.src[start..end];
        if end == int_end {
            match (neg, acc) {
                (0, Some(u)) => return Ok(Value::UInt(u)),
                (_, Some(_)) => {
                    return text
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| Error::new("integer out of range"))
                }
                _ => {}
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_forms() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("vi".into())),
            ("rate".into(), Value::Float(0.5)),
            ("rounds".into(), Value::UInt(500)),
            ("ld".into(), Value::Null),
            (
                "ci".into(),
                Value::Array(vec![Value::Float(0.25), Value::Float(0.75)]),
            ),
        ]);
        assert_eq!(
            to_string(&ValueWrap(&v)).unwrap(),
            r#"{"name":"vi","rate":0.5,"rounds":500,"ld":null,"ci":[0.25,0.75]}"#
        );
        let pretty = to_string_pretty(&ValueWrap(&v)).unwrap();
        assert!(pretty.contains("\n  \"name\": \"vi\""), "{pretty}");
    }

    /// Test helper: serialize an existing Value verbatim.
    struct ValueWrap<'a>(&'a Value);
    impl serde::Serialize for ValueWrap<'_> {
        fn serialize_value(&self) -> Value {
            self.0.clone()
        }
    }

    #[test]
    fn parses_back_what_it_writes() {
        let json = r#"{"a": [1, -2, 3.5], "b": "x\nyA", "c": true, "d": null}"#;
        let v = parse_value(json).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Array(vec![Value::UInt(1), Value::Int(-2), Value::Float(3.5),])
        );
        assert_eq!(v.get("b").unwrap(), &Value::Str("x\nyA".into()));
        assert_eq!(v.get("c").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("d").unwrap(), &Value::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("12 34").is_err());
        assert!(parse_value("nulL").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut out = String::new();
        write_value(&mut out, &Value::Float(f64::NAN), None, 0);
        assert_eq!(out, "null");
    }

    #[test]
    fn unicode_survives() {
        let v = parse_value("\"héllo — ≤µs\"").unwrap();
        assert_eq!(v, Value::Str("héllo — ≤µs".into()));
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        assert_eq!(
            from_str::<Value>(r#""\ud83d\ude00""#),
            Ok(Value::Str("\u{1f600}".into()))
        );
        assert_eq!(
            from_str::<Value>(r#""a\uD834\uDD1Eb\u00e9""#),
            Ok(Value::Str("a\u{1d11e}bé".into()))
        );
    }

    #[test]
    fn lone_surrogates_are_clean_errors() {
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ude0""#,
        ] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(err.to_string().contains("escape"), "{text}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_at_the_depth_limit() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Far past the limit, unclosed, and through objects as well as
        // arrays: an error, not a stack overflow.
        assert!(parse_value(&"[".repeat(1_000_000)).is_err());
        assert!(parse_value(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_outside_the_unsigned_fast_path_parse_as_before() {
        for text in [
            "0",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "-99999999999999999999",
            "1.5",
            "-0.25",
            "1e3",
            "2E-2",
            "0e+7",
            "-0",
            "[0,-1.5e3]",
        ] {
            assert_eq!(parse_value(text), oracle::parse_value(text), "{text}");
        }
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_errors() {
        // The oracle's scan-then-`str::parse` accepted these.
        for text in ["+5", "007", "-01", "1.", ".5", "1.e3", "[00]"] {
            assert!(oracle::parse_value(text).is_ok(), "{text}");
            assert!(parse_value(text).is_err(), "{text}");
        }
        for text in ["1e", "1e+", "-", "-.5", "12-3", "1.5.2", "--1"] {
            assert!(parse_value(text).is_err(), "{text}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_errors() {
        for text in ["\"a\nb\"", "\"\u{0}\"", "\"\u{1f}\"", "{\"k\t\":1}"] {
            let err = parse_value(text).unwrap_err();
            assert!(
                err.to_string().contains("control character"),
                "{text:?}: {err}"
            );
        }
        assert_eq!(parse_value("\"\u{7f}\""), Ok(Value::Str("\u{7f}".into())));
        assert_eq!(parse_value(r#""a\nb""#), Ok(Value::Str("a\nb".into())));
    }

    #[test]
    fn control_characters_escape_like_the_oracle() {
        let all: String = (0u8..0x80).map(char::from).collect();
        let v = Value::Str(all + "é—😀");
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(out, oracle::to_text(&v, None));
        // Bytes below 0x20 get a \u escape (lower-case hex); DEL does not.
        assert!(out.contains(r##"\u001f !\"#"##), "{out}");
        assert!(out.contains("~\u{7f}é—😀"), "{out}");
    }

    /// Random `Value` trees for the differential tests: bounded depth,
    /// strings over a palette of escapes, control characters and one- to
    /// four-byte UTF-8, and the integer and float edge cases.
    struct Trees {
        depth: u32,
    }

    const PALETTE: &str =
        "aZ0 \"\\/\n\r\t\u{0}\u{8}\u{c}\u{1b}\u{1f}\u{7f}éµ—≤\u{ffff}😀\u{10ffff}";

    fn tree(rng: &mut proptest::TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.next_below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::Int(match rng.next_below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -1,
                _ => rng.next_u64() as i64,
            }),
            3 => Value::UInt(match rng.next_below(4) {
                0 => u64::MAX,
                1 => 0,
                2 => rng.next_below(1000),
                _ => rng.next_u64(),
            }),
            4 => Value::Float(match rng.next_below(9) {
                0 => -0.0,
                1 => f64::from_bits(1),
                2 => f64::MIN_POSITIVE / 3.0,
                3 => f64::NAN,
                4 => f64::NEG_INFINITY,
                5 => f64::MAX,
                6 => rng.next_below(100) as f64,
                7 => rng.next_unit_f64() * 1e-3,
                _ => f64::from_bits(rng.next_u64()),
            }),
            5 => Value::Str(string(rng)),
            6 => {
                let n = rng.next_below(5) as usize;
                Value::Array((0..n).map(|_| tree(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.next_below(5) as usize;
                Value::Object(
                    (0..n)
                        .map(|_| (string(rng), tree(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    fn string(rng: &mut proptest::TestRng) -> String {
        let palette: Vec<char> = PALETTE.chars().collect();
        let n = rng.next_below(12) as usize;
        (0..n)
            .map(|_| palette[rng.next_below(palette.len() as u64) as usize])
            .collect()
    }

    impl proptest::Strategy for Trees {
        type Value = Value;

        fn generate(&self, rng: &mut proptest::TestRng) -> Value {
            tree(rng, self.depth)
        }
    }

    fn text(value: &Value, indent: Option<&str>) -> String {
        let mut out = String::new();
        write_value(&mut out, value, indent, 0);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn writer_and_parser_match_the_oracle(v in Trees { depth: 4 }) {
            for indent in [None, Some("  ")] {
                let new = text(&v, indent);
                proptest::prop_assert_eq!(&new, &oracle::to_text(&v, indent));
                let parsed = parse_value(&new).map_err(proptest::TestCaseError::fail)?;
                let expected = oracle::parse_value(&new).map_err(proptest::TestCaseError::fail)?;
                // Debug spells out -0.0 and NaN, which `==` would blur.
                proptest::prop_assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
                // Writing what was parsed reproduces the text.
                proptest::prop_assert_eq!(text(&parsed, indent), new);
            }
        }
    }
}
