//! The streaming JSON writer.

use crate::float::eight_digits;
use std::io::{self, Write as _};

/// Buffered bytes at which a [`Writer`] with a sink hands them over.
const FLUSH_AT: usize = 1 << 16;

/// Headroom above [`FLUSH_AT`]: the buffer is flushed before each
/// element, so one element's text past the mark fits without growing it.
const SLACK: usize = 1 << 12;

/// A line break and the indentation of up to 32 levels: one copy lays
/// out a pretty member's line start.
const INDENT: &[u8; 65] = b"\n                                                                ";

/// Streams JSON text, compact or pretty (2-space indent), into memory or
/// an [`io::Write`] sink.
///
/// [`Serialize`](crate::Serialize) impls drive it with a small event
/// API: [`begin_object`](Writer::begin_object) /
/// [`field`](Writer::field) / [`end_object`](Writer::end_object),
/// [`begin_array`](Writer::begin_array) /
/// [`element`](Writer::element) / [`end_array`](Writer::end_array),
/// and one `write_*` call per scalar. Separators, newlines and
/// indentation follow from the calls, and empty containers render as
/// `{}` / `[]`. The writer keeps no per-level stack, so its memory is
/// one buffer however deep or long the value, and its layout state is
/// just its [`position`](Writer::position): a value can be rendered in
/// pieces by writers [resumed](Writer::resume) at each piece's start.
///
/// The event methods are `#[inline]`, so a `Serialize` impl in another
/// crate compiles them into its own loop. Integers are written by a
/// digit kernel (no `core::fmt`), and a string with nothing to escape,
/// such as every derived key, is copied whole after one scan.
pub struct Writer<'a> {
    /// UTF-8 text: every write is a `&str` or ASCII.
    buf: Vec<u8>,
    /// Buffered length at which the buffer goes to the sink:
    /// [`FLUSH_AT`] with a sink, never without one.
    flush_at: usize,
    sink: Option<&'a mut dyn io::Write>,
    error: Option<io::Error>,
    pretty: bool,
    level: usize,
    /// No field or element written yet in the innermost open container.
    first: bool,
}

impl Writer<'static> {
    /// A writer that collects the text in memory (see
    /// [`Writer::into_string`]).
    pub fn new(pretty: bool) -> Self {
        Writer {
            buf: Vec::new(),
            flush_at: usize::MAX,
            sink: None,
            error: None,
            pretty,
            level: 0,
            first: true,
        }
    }

    /// An in-memory writer that appends to `buf` from a position inside
    /// a value: `level` open containers, and `first` when the innermost
    /// has no member yet. The writer keeps no other state, so it writes
    /// exactly the bytes a writer at that position writes next, and a
    /// value can be rendered in pieces, each by its own writer, then
    /// joined in order. [`Writer::position`] reads a writer's position.
    pub fn resume(buf: Vec<u8>, pretty: bool, (level, first): (usize, bool)) -> Self {
        Writer {
            buf,
            level,
            first,
            ..Writer::new(pretty)
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        String::from_utf8(self.buf).expect("the writer writes only UTF-8")
    }
}

impl<'a> Writer<'a> {
    /// A writer that streams into `sink` through one fixed-size buffer.
    /// The first I/O error stops output; [`Writer::finish`] returns it.
    pub fn with_sink(sink: &'a mut dyn io::Write, pretty: bool) -> Self {
        Writer {
            buf: Vec::with_capacity(FLUSH_AT + SLACK),
            flush_at: FLUSH_AT,
            sink: Some(sink),
            error: None,
            pretty,
            level: 0,
            first: true,
        }
    }

    /// Where the writer is inside the value: open containers, and
    /// whether the innermost has no member yet (see [`Writer::resume`]).
    pub fn position(&self) -> (usize, bool) {
        (self.level, self.first)
    }

    /// Hands the buffered tail to the sink and flushes it.
    pub fn finish(mut self) -> io::Result<()> {
        self.flush_buf();
        match (self.error.take(), self.sink.take()) {
            (Some(e), _) => Err(e),
            (None, Some(sink)) => sink.flush(),
            (None, None) => Ok(()),
        }
    }

    #[cold]
    #[inline(never)]
    fn flush_buf(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                if let Err(e) = sink.write_all(&self.buf) {
                    self.error = Some(e);
                }
            }
            self.buf.clear();
        }
    }

    #[inline]
    fn newline(&mut self) {
        if self.pretty {
            let n = 2 * self.level;
            if n < INDENT.len() {
                self.buf.extend_from_slice(&INDENT[..=n]);
            } else {
                self.deep_newline(n);
            }
        }
    }

    #[cold]
    fn deep_newline(&mut self, mut n: usize) {
        self.buf.push(b'\n');
        while n > 0 {
            let k = n.min(INDENT.len() - 1);
            self.buf.extend_from_slice(&INDENT[1..=k]);
            n -= k;
        }
    }

    /// Separator and line break before the next member of the innermost
    /// container; a writer with a sink flushes a full buffer first.
    #[inline]
    fn next_member(&mut self) {
        if self.buf.len() >= self.flush_at {
            self.flush_buf();
        }
        if !self.first {
            self.buf.push(b',');
        }
        self.first = false;
        self.newline();
    }

    #[inline]
    fn close(&mut self, bracket: u8) {
        self.level -= 1;
        if !self.first {
            self.newline();
        }
        self.buf.push(bracket);
        self.first = false;
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.buf.push(b'{');
        self.level += 1;
        self.first = true;
    }

    /// Starts the member `key`; its value is the next thing written.
    #[inline]
    pub fn field(&mut self, key: &str) {
        self.next_member();
        self.write_str(key);
        self.buf
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.buf.push(b'[');
        self.level += 1;
        self.first = true;
    }

    /// Starts the next element; its value is the next thing written.
    #[inline]
    pub fn element(&mut self) {
        self.next_member();
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Writes an array of `items`.
    pub fn seq<T: crate::Serialize>(&mut self, items: impl IntoIterator<Item = T>) {
        self.begin_array();
        for item in items {
            self.element();
            item.serialize(self);
        }
        self.end_array();
    }

    /// Writes `null`.
    #[inline]
    pub fn write_null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn write_bool(&mut self, b: bool) {
        self.buf
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer, in exactly the text `format!("{n}")`
    /// gives.
    #[inline]
    pub fn write_u64(&mut self, n: u64) {
        push_u64(&mut self.buf, n);
    }

    /// Writes a signed integer, in exactly the text `format!("{n}")`
    /// gives.
    #[inline]
    pub fn write_i64(&mut self, n: i64) {
        if n < 0 {
            self.buf.push(b'-');
        }
        push_u64(&mut self.buf, n.unsigned_abs());
    }

    /// Writes a float as the shortest decimal that parses back to the
    /// same bits, in exactly the text `format!("{x:?}")` gives (the
    /// formatter is the crate's own Ryu kernel, checked against `{:?}`
    /// by its tests). JSON has no NaN or infinity, so non-finite values
    /// are written as `null`, as upstream serde_json does.
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        if x.is_finite() {
            crate::float::push_shortest(&mut self.buf, x);
        } else {
            self.write_null();
        }
    }

    /// Writes a string literal with JSON escapes. A string with nothing
    /// to escape is copied whole.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            self.buf.push(b'"');
            self.buf.extend_from_slice(s.as_bytes());
            self.buf.push(b'"');
        } else {
            self.write_escaped(s);
        }
    }

    /// [`write_str`](Writer::write_str) for a string with at least one
    /// byte to escape.
    fn write_escaped(&mut self, s: &str) {
        self.buf.push(b'"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0C => "\\f",
                0x00..=0x1F => "",
                _ => continue,
            };
            // Every byte that needs escaping is ASCII, so `i` is a char
            // boundary.
            self.buf.extend_from_slice(&s.as_bytes()[run..i]);
            if escape.is_empty() {
                let _ = write!(self.buf, "\\u{b:04x}");
            } else {
                self.buf.extend_from_slice(escape.as_bytes());
            }
            run = i + 1;
        }
        self.buf.extend_from_slice(&s.as_bytes()[run..]);
        self.buf.push(b'"');
    }
}

/// Appends the decimal digits of `n`, without leading zeros: up to
/// three 8-digit SWAR blocks of [`eight_digits`], the first one cut to
/// its significant digits.
fn push_u64(buf: &mut Vec<u8>, n: u64) {
    const E8: u64 = 100_000_000;
    if n < E8 {
        push_short(buf, n as u32);
    } else if n < E8 * E8 {
        push_short(buf, (n / E8) as u32);
        buf.extend_from_slice(&eight_digits((n % E8) as u32));
    } else {
        let high = n / E8;
        push_short(buf, (high / E8) as u32);
        buf.extend_from_slice(&eight_digits((high % E8) as u32));
        buf.extend_from_slice(&eight_digits((n % E8) as u32));
    }
}

/// Appends `v < 10^8` without leading zeros (`0` as one digit).
#[inline]
fn push_short(buf: &mut Vec<u8>, v: u32) {
    let digits = eight_digits(v);
    // Digit values, most significant in the low byte: the leading
    // zeros are the low zero bytes. The top byte's bit keeps the last
    // digit even when `v` is 0.
    let values = u64::from_le_bytes(digits) ^ 0x3030_3030_3030_3030;
    let zeros = ((values | 1 << 56).trailing_zeros() / 8) as usize;
    buf.extend_from_slice(&digits[zeros..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::tests::Bits;
    use std::fmt::Write as _;

    /// Checks `write_u64` and `write_i64` against `{}` on `n`, and on
    /// `n` read as an `i64` and negated.
    struct IntOracle {
        w: Writer<'static>,
        want: String,
    }

    impl IntOracle {
        fn new() -> Self {
            IntOracle {
                w: Writer::new(false),
                want: String::new(),
            }
        }

        #[track_caller]
        fn check(&mut self, n: u64) {
            self.w.buf.clear();
            self.w.write_u64(n);
            self.want.clear();
            let _ = write!(self.want, "{n}");
            assert_eq!(self.w.buf, self.want.as_bytes(), "u64 {n}");
            for i in [n as i64, (n as i64).wrapping_neg()] {
                self.w.buf.clear();
                self.w.write_i64(i);
                self.want.clear();
                let _ = write!(self.want, "{i}");
                assert_eq!(self.w.buf, self.want.as_bytes(), "i64 {i}");
            }
        }
    }

    /// `count` random integers of every digit length: a random pattern
    /// shifted right by a random amount.
    fn random_integers(seed: u64, count: usize) {
        let mut oracle = IntOracle::new();
        let mut r = Bits(seed);
        for _ in 0..count {
            let n = r.next() >> (r.next() % 64);
            oracle.check(n);
        }
    }

    #[test]
    fn integers_match_display_at_the_edges() {
        let mut oracle = IntOracle::new();
        let mut pow = 1u64;
        for _ in 0..=19 {
            oracle.check(pow - 1);
            oracle.check(pow);
            pow = pow.wrapping_mul(10);
        }
        for k in 0..64 {
            let p = 1u64 << k;
            oracle.check(p - 1);
            oracle.check(p);
            oracle.check(p + 1);
        }
        for n in [u64::MAX, i64::MAX as u64, i64::MIN as u64, 0] {
            oracle.check(n);
        }
        for n in 0..100_000 {
            oracle.check(n);
        }
    }

    #[test]
    fn random_integers_match_display() {
        random_integers(6, 1_000_000);
    }

    /// 10^8 more integers; run with
    /// `cargo test --release -p serde -- --ignored`.
    #[test]
    #[ignore = "tens of seconds in a debug build"]
    fn random_integers_match_display_large() {
        random_integers(7, 100_000_000);
    }

    #[test]
    fn pretty_indentation_past_the_indent_slice() {
        // 40 levels: the innermost lines need more than the 64 spaces
        // one copy of `INDENT` holds.
        let mut w = Writer::new(true);
        for _ in 0..40 {
            w.begin_array();
            w.element();
        }
        w.write_u64(7);
        for _ in 0..40 {
            w.end_array();
        }
        let mut want = String::new();
        for level in 0..40 {
            want.push('[');
            want.push('\n');
            want.push_str(&" ".repeat(2 * (level + 1)));
        }
        want.push('7');
        for level in (0..40).rev() {
            want.push('\n');
            want.push_str(&" ".repeat(2 * level));
            want.push(']');
        }
        assert_eq!(w.into_string(), want);
    }

    #[test]
    fn a_value_rendered_in_pieces_joins_to_the_whole() {
        // `{"a": [[1, 2], [], [3]], "b": {}}`, cut after every event:
        // each piece, by a writer resumed where the whole one stood,
        // writes exactly the whole one's next bytes.
        let events: [fn(&mut Writer<'_>); 19] = [
            |w| w.begin_object(),
            |w| w.field("a"),
            |w| w.begin_array(),
            |w| w.element(),
            |w| w.seq([1u8, 2]),
            |w| w.element(),
            |w| w.begin_array(),
            |w| w.end_array(),
            |w| w.element(),
            |w| w.begin_array(),
            |w| w.element(),
            |w| w.write_u64(3),
            |w| w.end_array(),
            |w| w.end_array(),
            |w| w.field("b"),
            |w| w.begin_object(),
            |w| w.end_object(),
            |w| w.end_object(),
            |_| {},
        ];
        for pretty in [false, true] {
            let mut whole = Writer::new(pretty);
            let mut joined = Vec::new();
            for event in events {
                let mut piece = Writer::resume(Vec::new(), pretty, whole.position());
                event(&mut piece);
                event(&mut whole);
                assert_eq!(piece.position(), whole.position());
                joined.extend_from_slice(piece.into_string().as_bytes());
            }
            assert_eq!(String::from_utf8(joined).unwrap(), whole.into_string());
        }
    }

    #[track_caller]
    fn check_str(s: &str) {
        let mut plain = Writer::new(false);
        plain.write_str(s);
        let mut escaped = Writer::new(false);
        escaped.write_escaped(s);
        assert_eq!(plain.buf, escaped.buf, "{s:?}");
    }

    #[test]
    fn plain_strings_are_written_as_the_escaping_path_writes_them() {
        for c in (0u32..=0xFF).filter_map(char::from_u32) {
            check_str(&c.to_string());
            check_str(&format!("key{c}"));
        }
        // Runs of plain text around every kind of escape, and multibyte
        // characters on both sides of the check.
        let pool = [
            "a", "Z", "0", " ", "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1}", "\u{1f}",
            "\u{7f}", "é", "€", "😀", "/",
        ];
        let mut r = Bits(8);
        for _ in 0..20_000 {
            let len = (r.next() % 12) as usize;
            let s: String = (0..len)
                .map(|_| pool[(r.next() % pool.len() as u64) as usize])
                .collect();
            check_str(&s);
        }
    }
}
