//! The streaming JSON reader.

use crate::{Deserialize, Error};
use std::borrow::Cow;
use std::fmt;

/// Nesting depth limit guarding against stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

/// A number token before any coercion: integers keep full 64-bit
/// precision.
#[derive(Clone, Copy)]
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

/// A strict pull parser over JSON text (RFC 8259).
///
/// [`Deserialize`] impls pull one value at a time: `read_*` for
/// scalars, [`begin_array`](Reader::begin_array) +
/// [`next_element`](Reader::next_element) for arrays, and
/// [`begin_object`](Reader::begin_object) +
/// [`next_key`](Reader::next_key) for objects, whose unwanted members
/// go to [`skip_value`](Reader::skip_value). Nothing is materialized
/// beyond the values the caller keeps; object keys without escapes are
/// borrowed from the input.
///
/// Errors carry the byte offset where the input went wrong. The reader
/// rejects what RFC 8259 rejects (number shapes Rust would accept, raw
/// control characters in strings, lone surrogates, trailing
/// characters) plus numbers that overflow `f64` and nesting deeper than
/// 128 levels, skipped values included.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// First byte of the value being read (error positions).
    start: usize,
    depth: usize,
    /// No member read yet in the innermost open container.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the first value of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            start: 0,
            depth: 0,
            first: true,
        }
    }

    /// Checks that only whitespace follows the value just read.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    /// An error about the value being read, positioned at its first
    /// byte.
    pub fn invalid(&self, msg: impl fmt::Display) -> Error {
        Error::custom(format!("{msg} at byte {}", self.start))
    }

    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Moves to the next value and returns its first byte.
    fn start_value(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.start = self.pos;
        if self.depth > MAX_DEPTH {
            return Err(self.err("JSON nesting too deep"));
        }
        self.peek()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// The error for a value starting with `b` where `expected` was
    /// wanted.
    fn mismatch(&self, expected: &str, b: u8) -> Error {
        let kind = match b {
            b'n' => "null",
            b't' | b'f' => "bool",
            b'"' => "string",
            b'[' => "array",
            b'{' => "object",
            b'-' | b'0'..=b'9' => "number",
            _ => return self.err("unexpected character"),
        };
        self.invalid(format_args!("expected {expected}, got {kind}"))
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Consumes a `null` if one comes next; any other value is left
    /// unread.
    pub fn read_null(&mut self) -> Result<bool, Error> {
        if self.start_value()? == b'n' {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        match self.start_value()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            b => Err(self.mismatch("bool", b)),
        }
    }

    fn read_number(&mut self, expected: &str) -> Result<Number, Error> {
        match self.start_value()? {
            b'-' | b'0'..=b'9' => self.number(),
            b => Err(self.mismatch(expected, b)),
        }
    }

    fn not_a(&self, expected: &str) -> Error {
        let text = &self.src[self.start..self.pos];
        self.invalid(format_args!("expected {expected}, got `{text}`"))
    }

    /// Reads a non-negative integer; an integral float such as `3.0`
    /// also qualifies.
    pub fn read_u64(&mut self) -> Result<u64, Error> {
        let n = match self.read_number("unsigned integer")? {
            Number::UInt(n) => Some(n),
            Number::Int(n) => u64::try_from(n).ok(),
            Number::Float(f) if f.fract() == 0.0 && f >= 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        };
        n.ok_or_else(|| self.not_a("unsigned integer"))
    }

    /// Reads an integer in `i64` range; an integral float such as `-3.0`
    /// also qualifies.
    pub fn read_i64(&mut self) -> Result<i64, Error> {
        let n = match self.read_number("integer")? {
            Number::Int(n) => Some(n),
            Number::UInt(n) => i64::try_from(n).ok(),
            Number::Float(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        };
        n.ok_or_else(|| self.not_a("integer"))
    }

    /// Reads any number as an `f64` (always finite).
    pub fn read_f64(&mut self) -> Result<f64, Error> {
        Ok(match self.read_number("number")? {
            Number::Float(f) => f,
            Number::UInt(n) => n as f64,
            Number::Int(n) => n as f64,
        })
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, Error> {
        match self.start_value()? {
            b'"' => self.string(),
            b => Err(self.mismatch("string", b)),
        }
    }

    /// Opens an array; read its elements with
    /// [`next_element`](Reader::next_element).
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "array")
    }

    /// Whether another element of the innermost array follows (it is
    /// then the next value to read); `false` consumes the closing `]`.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.eat(b']') {
            self.close();
            return Ok(false);
        }
        if !std::mem::take(&mut self.first) && !self.eat(b',') {
            return Err(self.err("expected `,` or `]` in array"));
        }
        Ok(true)
    }

    /// Opens an object; read its members with
    /// [`next_key`](Reader::next_key).
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "object")
    }

    /// The key of the next member of the innermost object (its value is
    /// the next value to read); `None` consumes the closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        self.skip_ws();
        if self.eat(b'}') {
            self.close();
            return Ok(None);
        }
        if !std::mem::take(&mut self.first) {
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
            self.skip_ws();
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key in object"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected `:` after object key"));
        }
        Ok(Some(key))
    }

    /// Reads the value of the member [`next_key`](Reader::next_key) just
    /// returned into `slot`. The first of duplicate keys wins: a filled
    /// slot makes this skip the value instead.
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>) -> Result<(), Error> {
        if slot.is_none() {
            *slot = Some(T::deserialize(self)?);
            Ok(())
        } else {
            self.skip_value()
        }
    }

    /// Steps into the next element of an array that must hold exactly
    /// `len` elements.
    pub fn fixed_element(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(self.err(&format!("expected an array of {len}, got fewer")))
        }
    }

    /// Closes an array that must hold exactly `len` elements.
    pub fn end_fixed(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            Err(self.err(&format!("expected an array of {len}, got more")))
        } else {
            Ok(())
        }
    }

    /// Reads the tag of an externally tagged enum value: a string names
    /// a unit variant (`false`); a one-key object names a newtype
    /// variant (`true`) whose payload is the next value to read, after
    /// which [`end_variant`](Reader::end_variant) closes the object.
    pub fn begin_variant(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        match self.start_value()? {
            b'"' => Ok((self.string()?, false)),
            b'{' => {
                self.begin_object()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(self.invalid("expected a one-key object for an enum variant")),
                }
            }
            b => Err(self.mismatch("enum variant", b)),
        }
    }

    /// Closes a newtype variant's one-key object.
    pub fn end_variant(&mut self) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.err("expected a one-key object for an enum variant")),
        }
    }

    /// Parses and discards one value of any shape.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.start_value()? {
            b'[' => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'"' => self.string().map(drop),
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn open(&mut self, bracket: u8, kind: &str) -> Result<(), Error> {
        let b = self.start_value()?;
        if b != bracket {
            return Err(self.mismatch(kind, b));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    fn close(&mut self) {
        self.depth -= 1;
        // The closed container was a member of its parent.
        self.first = false;
    }

    /// Reads a string token (the cursor is on its opening quote).
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.pos += 1;
        let run = self.pos;
        self.plain_run();
        if self.eat(b'"') {
            return Ok(Cow::Borrowed(&self.src[run..self.pos - 1]));
        }
        let mut out = String::from(&self.src[run..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(&self.src[run..self.pos]);
                }
            }
        }
    }

    /// Advances over bytes that stand for themselves in a string. It
    /// stops only at ASCII bytes (or the end), so the cursor stays on a
    /// char boundary.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
            self.pos += 1;
        }
    }

    /// Decodes one escape (the cursor is past the backslash).
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.err("lone high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads a number token (the cursor is on its first byte).
    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let _ = self.eat(b'-');
        // RFC 8259 grammar: the integer part is `0` or a nonzero digit
        // followed by digits — no leading zeros, at least one digit.
        let int_digits = self.digit_run();
        match int_digits {
            0 => return Err(self.err("number has no integer digits")),
            1 => {}
            _ if self.src.as_bytes()[self.pos - int_digits] == b'0' => {
                return Err(self.err("number has a leading zero"));
            }
            _ => {}
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if self.digit_run() == 0 {
                return Err(self.err("number has no digits after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            if self.digit_run() == 0 {
                return Err(self.err("number has no exponent digits"));
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            Ok(_) => Err(self.invalid(format_args!("number `{text}` overflows f64"))),
            Err(_) => Err(self.err("invalid number")),
        }
    }

    /// Consumes a run of ASCII digits, returning how many were consumed.
    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}
