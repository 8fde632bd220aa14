//! The byte-at-a-time parser and writer that the bulk text layer in the
//! crate root replaced, kept as a test-only oracle for it (see the
//! differential proptest there): the reference for every output byte. Its
//! two known faults are out of the tests' reach: it recurses without limit
//! on deep nesting (the generated trees are shallow), and it rejects
//! surrogate-pair escapes (the writer never emits a `\u` escape above
//! U+001F).

use crate::Error;
use serde::Value;

/// The oracle's compact (`indent = None`) or pretty text of `value`.
pub(crate) fn to_text(value: &Value, indent: Option<&str>) -> String {
    let mut out = String::new();
    write_value(&mut out, value, indent, 0);
    out
}

// ---- writer ----------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's Display is the shortest round-trip form. Ensure a
                // decimal point (or exponent) so the token reads as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
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

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

pub(crate) fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new("invalid keyword"))
                }
            }
            b't' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new("invalid keyword"))
                }
            }
            b'f' => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new("invalid keyword"))
                }
            }
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::new("expected `,` or `]` in array")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error::new("expected `,` or `}` in object")),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("non-ASCII \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid unicode scalar"))?,
                            );
                        }
                        _ => return Err(Error::new("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error::new("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() {
            return Err(Error::new(format!("unexpected character at byte {start}")));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| Error::new("integer out of range"));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new("invalid number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}
