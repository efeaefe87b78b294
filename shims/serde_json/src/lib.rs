//! Offline shim for the `serde_json` crate: writes JSON text straight from
//! the `serde` shim's serialization events, and parses JSON into its
//! [`Value`] data model. See `shims/README.md`.
//!
//! Encoding notes (self-consistent, shared with the real crate where it
//! matters): maps keep insertion order, non-finite floats render as `null`,
//! integral floats render with a trailing `.0` so they parse back as floats.

use serde::ser::Sink;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

pub use serde::value::Value;

/// JSON serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Renders any serializable value into the data model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(serde::to_value(value))
}

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_json(value, None))
}

/// Serializes to human-readable JSON (two-space indentation).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_json(value, Some(2)))
}

/// Deserializes any value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v).map_err(|e| Error::new(e.to_string()))
}

fn write_json<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut w = JsonWriter {
        out: String::new(),
        indent,
        open: Vec::new(),
    };
    value.serialize(&mut w);
    debug_assert!(w.open.is_empty(), "serialize left a container open");
    w.out
}

/// The JSON-text [`Sink`]: writes each event as it arrives, so no
/// [`Value`] tree is built. Maps keep emission order, non-finite floats
/// render as `null`, and empty containers render as `[]` / `{}` in both
/// layouts.
struct JsonWriter {
    out: String,
    /// Pretty-printing indent width; `None` is compact.
    indent: Option<usize>,
    /// Open containers, innermost last.
    open: Vec<Open>,
}

struct Open {
    map: bool,
    /// Whether an entry has been written.
    started: bool,
}

impl JsonWriter {
    fn write_indent(&mut self, level: usize) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            for _ in 0..width * level {
                self.out.push(' ');
            }
        }
    }

    /// Starts an entry of the innermost container: separator and indent.
    fn next_entry(&mut self) {
        let level = self.open.len();
        if let Some(top) = self.open.last_mut() {
            if std::mem::replace(&mut top.started, true) {
                self.out.push(',');
            }
            self.write_indent(level);
        }
    }

    /// Called before every value: a sequence element starts an entry, a
    /// map value follows its key directly.
    fn before_value(&mut self) {
        if self.open.last().is_some_and(|top| !top.map) {
            self.next_entry();
        }
    }

    fn begin(&mut self, map: bool) {
        self.before_value();
        self.out.push(if map { '{' } else { '[' });
        self.open.push(Open {
            map,
            started: false,
        });
    }

    fn end(&mut self) {
        let top = self.open.pop().expect("end without an open container");
        if top.started {
            self.write_indent(self.open.len());
        }
        self.out.push(if top.map { '}' } else { ']' });
    }
}

impl Sink for JsonWriter {
    fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }
    fn bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }
    fn i64(&mut self, v: i64) {
        self.before_value();
        write_int(&mut self.out, v < 0, v.unsigned_abs());
    }
    fn u64(&mut self, v: u64) {
        self.before_value();
        write_int(&mut self.out, false, v);
    }
    fn f64(&mut self, v: f64) {
        self.before_value();
        write_f64(&mut self.out, v);
    }
    fn str(&mut self, v: &str) {
        self.before_value();
        write_escaped(&mut self.out, v);
    }
    fn begin_seq(&mut self) {
        self.begin(false);
    }
    fn end_seq(&mut self) {
        self.end();
    }
    fn begin_map(&mut self) {
        self.begin(true);
    }
    fn key(&mut self, k: &str) {
        self.next_entry();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }
    fn end_map(&mut self) {
        self.end();
    }
}

/// Writes an integer in decimal without a temporary `String`.
fn write_int(out: &mut String, negative: bool, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole; every byte that needs an escape is ASCII,
    // so the run boundaries are char boundaries.
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
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
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{08}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{0C}');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00)
                                } else {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                            } else {
                                hi as u32
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        let v: f64 = from_str("2.0").unwrap();
        assert_eq!(v, 2.0);
        let n: i64 = from_str("-99").unwrap();
        assert_eq!(n, -99);
    }

    #[test]
    fn roundtrip_containers() {
        let xs = vec![(1usize, 2u64), (3, 4)];
        let json = to_string(&xs).unwrap();
        assert_eq!(json, "[[1,2],[3,4]]");
        let back: Vec<(usize, u64)> = from_str(&json).unwrap();
        assert_eq!(back, xs);
        let opt: Option<u32> = from_str("null").unwrap();
        assert_eq!(opt, None);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::I64(1)),
            ("b".to_string(), Value::Seq(vec![Value::Bool(false)])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": [\n    false\n  ]\n}");
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }
}
