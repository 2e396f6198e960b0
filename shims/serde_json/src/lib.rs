//! Offline stand-in for `serde_json`, paired with the `serde` shim.
//!
//! Renders the shim's [`serde::value::Value`] tree to JSON text and parses
//! JSON text back. Numbers parse to `Int` when they are integral without
//! exponent/fraction syntax, `Float` otherwise; non-finite floats render as
//! `null` (matching real serde_json) and `null` deserializes into `f64` as
//! `+∞` (the contract `er-rules::io` documents for open range bounds).

pub use serde::value::Value;

use serde::{Deserialize, Serialize};

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn parse(pos: usize, msg: impl Into<String>) -> Self {
        Error(format!("JSON parse error at byte {pos}: {}", msg.into()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to human-indented JSON (two spaces, like serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(p.pos, "trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------- writing

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest-round-trip float formatting; ensure the
                // token re-parses as a float, not an integer.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            '[',
            ']',
            |out, item, indent, depth| {
                write_value(out, item, indent, depth);
            },
        ),
        Value::Object(fields) => write_seq(
            out,
            fields.iter(),
            fields.len(),
            indent,
            depth,
            '{',
            '}',
            |out, (k, fv), indent, depth| {
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, fv, indent, depth);
            },
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn write_seq<I: Iterator>(
    out: &mut String,
    items: I,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------- parsing

/// Deepest array/object nesting the parser accepts — upstream serde_json's
/// limit. The parser recurses once per level, so without a cap one line of
/// `[` overflows the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::parse(self.pos, "expected a JSON value")),
        }
    }

    /// Parse one array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::parse(self.pos, "recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::parse(start, "invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::parse(self.pos, "unterminated escape"))?;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::parse(self.pos, "lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(
                                c.ok_or_else(|| Error::parse(self.pos, "invalid code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::parse(
                                self.pos,
                                format!("invalid escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                _ => return Err(Error::parse(self.pos, "unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| Error::parse(self.pos, "truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| Error::parse(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse(start, "invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::parse(start, format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-1.5f64).unwrap(), "-1.5");
        assert_eq!(from_str::<f64>("-1.5").unwrap(), -1.5);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn float_tokens_always_reparse_as_floats() {
        // 2.0 renders with a ".0" so the document stays typed.
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(from_str::<f64>("null").unwrap(), f64::INFINITY);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "he said \"hi\",\nthen\tleft\\ \u{1F980} \u{1}";
        let json = to_string(&nasty.to_string()).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), nasty);
        // Explicit surrogate-pair escape decodes.
        assert_eq!(
            from_str::<String>("\"\\ud83e\\udd80\"").unwrap(),
            "\u{1F980}"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u32, String)> = vec![(1, "a".into()), (2, "b,c".into())];
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<(u32, String)>>(&json).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let json = to_string_pretty(&vec![1u8, 2]).unwrap();
        assert_eq!(json, "[\n  1,\n  2\n]");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u32>("4x").is_err());
        assert!(from_str::<Vec<u8>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<u32>("").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_upstream_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        // One line of openers is an error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(200_000)).is_err());
    }
}
