//! A minimal, std-only JSON reader and writer.
//!
//! The workspace has no serialization dependency, so every document it
//! reads is parsed here ([`JsonValue`]) and every document it writes is
//! built here ([`Val`], [`Obj`], [`Arr`]). The reader's grammar is full
//! RFC 8259 minus `\u` surrogate-pair pedantry (lone surrogates are
//! replaced, not rejected). The writer is compact (no whitespace), takes
//! an explicit precision for every fixed-point float, writes a non-finite
//! float as `null`, and has no value tree: fields go straight into the
//! caller's `String` in the order they are written.

use std::fmt::{Display, Write};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object (insertion-ordered key/value pairs).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Field `key` as the exact unsigned integer the sender wrote. `Ok(None)`
    /// when it is absent or not a number; an error when it is a number that
    /// is negative, fractional, non-finite or above `max` — never a silently
    /// clamped or truncated stand-in.
    pub fn uint_field(&self, key: &str, max: u64) -> Result<Option<u64>, String> {
        match self.get(key).and_then(|n| n.as_f64()) {
            None => Ok(None),
            Some(f) if f >= 0.0 && f.fract() == 0.0 && f <= max as f64 => Ok(Some(f as u64)),
            Some(_) => Err(format!("`{key}` must be an integer in 0..={max}")),
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
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
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number {text:?}")))
    }
}

/// The integer types [`Val::int`] prints. Floats are not among them on
/// purpose: they go through [`Val::f64`] / [`Val::fixed`], which know that
/// `inf` and `NaN` are not JSON.
pub trait Int: Display {}
impl Int for u32 {}
impl Int for u64 {}
impl Int for usize {}

/// The place the next value goes: the start of a document
/// ([`Val::new`]), after a key ([`Obj::key`]) or the next array element
/// ([`Arr::item`]). Every method writes exactly one value and uses the
/// slot up.
#[must_use = "a slot without a value is not JSON"]
pub struct Val<'a>(&'a mut String);

/// An open JSON object; see [`Val::obj`].
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

/// An open JSON array; see [`Val::arr`].
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

fn separate(out: &mut String, first: &mut bool) {
    if !std::mem::take(first) {
        out.push(',');
    }
}

impl<'a> Val<'a> {
    /// A document appended to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Val(out)
    }

    /// An integer.
    pub fn int<T: Int>(self, v: T) {
        let _ = write!(self.0, "{v}");
    }

    /// The one place a float is written: `null` when it is not finite.
    fn float(self, v: f64, shown: std::fmt::Arguments<'_>) {
        if v.is_finite() {
            let _ = self.0.write_fmt(shown);
        } else {
            self.0.push_str("null");
        }
    }

    /// A float in its shortest round-trip form.
    pub fn f64(self, v: f64) {
        self.float(v, format_args!("{v}"));
    }

    /// A float with exactly `places` decimals.
    pub fn fixed(self, v: f64, places: usize) {
        self.float(v, format_args!("{v:.places$}"));
    }

    /// `true` / `false`.
    pub fn bool(self, v: bool) {
        self.0.push_str(if v { "true" } else { "false" });
    }

    /// A string: whatever `v` displays as, quoted and escaped.
    pub fn str<T: Display>(self, v: T) {
        self.0.push('"');
        let _ = write!(Escaped(self.0), "{v}");
        self.0.push('"');
    }

    /// An already-rendered JSON value, spliced in verbatim.
    pub fn raw(self, json: &str) {
        self.0.push_str(json);
    }

    /// `{…}` with the fields `fill` writes.
    pub fn obj(self, fill: impl FnOnce(&mut Obj<'_>)) {
        self.0.push('{');
        fill(&mut Obj {
            out: self.0,
            first: true,
        });
        self.0.push('}');
    }

    /// `[…]` with the elements `fill` writes.
    pub fn arr(self, fill: impl FnOnce(&mut Arr<'_>)) {
        self.0.push('[');
        fill(&mut Arr {
            out: self.0,
            first: true,
        });
        self.0.push(']');
    }
}

impl Obj<'_> {
    /// `"key":` — the returned slot takes the field's value.
    pub fn key(&mut self, key: &str) -> Val<'_> {
        separate(self.out, &mut self.first);
        self.out.push('"');
        let _ = Escaped(self.out).write_str(key);
        self.out.push_str("\":");
        Val(self.out)
    }

    /// The field `key` written by `write` when there is a value, and
    /// nothing at all when there is none: `o.opt("batch", batch, Val::int)`.
    pub fn opt<'s, T>(&'s mut self, key: &str, v: Option<T>, write: impl FnOnce(Val<'s>, T)) {
        if let Some(v) = v {
            write(self.key(key), v);
        }
    }
}

impl Arr<'_> {
    /// The slot of the next element.
    pub fn item(&mut self) -> Val<'_> {
        separate(self.out, &mut self.first);
        Val(self.out)
    }
}

/// One object as a fresh `String` — for documents off the served path,
/// where [`Val::new`] over a pre-sized buffer buys nothing.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::with_capacity(256);
    Val(&mut out).obj(fill);
    out
}

/// A `fmt::Write` that escapes what passes through it into a JSON string
/// body: quote, backslash and every control character below 0x20 (DEL and
/// everything above pass through; JSON allows them raw).
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is a char boundary.
            self.0.push_str(&s[clean..i]);
            if esc.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            } else {
                self.0.push_str(esc);
            }
            clean = i + 1;
        }
        self.0.push_str(&s[clean..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v =
            JsonValue::parse(r#"{"a": 1.5, "b": [true, false, null], "s": "x\ny", "neg": -3e2}"#)
                .unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("neg").and_then(JsonValue::as_f64), Some(-300.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\ny"));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "tru", "\"unterminated", "{\"a\":1}x", "1 2"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote \" backslash \\ newline \n tab \t unicode é";
        let v = JsonValue::parse(&object(|o| o.key("k").str(s))).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(s));
    }

    #[test]
    fn unicode_escapes() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn deep_nesting_and_empty_containers() {
        let v = JsonValue::parse(r#"[[[{}]], [], {"o": {}}]"#).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 3);
    }
}
