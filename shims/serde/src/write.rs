//! The streaming JSON writer.

use std::io::{self, Write as _};

/// Buffered bytes at which a [`Writer`] with a sink hands them over.
const FLUSH_AT: usize = 1 << 16;

/// Headroom above [`FLUSH_AT`]: the buffer is flushed before each
/// element, so one element's text past the mark fits without growing it.
const SLACK: usize = 1 << 12;

const SPACES: &[u8] = b"                                                                ";

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
/// one buffer however deep or long the value.
pub struct Writer<'a> {
    /// UTF-8 text: every write is a `&str` or ASCII.
    buf: Vec<u8>,
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
            sink: None,
            error: None,
            pretty,
            level: 0,
            first: true,
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
            sink: Some(sink),
            error: None,
            pretty,
            level: 0,
            first: true,
        }
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

    fn newline(&mut self) {
        if self.pretty {
            self.buf.push(b'\n');
            let mut n = 2 * self.level;
            while n > 0 {
                let k = n.min(SPACES.len());
                self.buf.extend_from_slice(&SPACES[..k]);
                n -= k;
            }
        }
    }

    /// Separator and line break before the next member of the innermost
    /// container; a writer with a sink flushes a full buffer first.
    fn next_member(&mut self) {
        if self.buf.len() >= FLUSH_AT {
            self.flush_buf();
        }
        if !self.first {
            self.buf.push(b',');
        }
        self.first = false;
        self.newline();
    }

    fn close(&mut self, bracket: u8) {
        self.level -= 1;
        if !self.first {
            self.newline();
        }
        self.buf.push(bracket);
        self.first = false;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.buf.push(b'{');
        self.level += 1;
        self.first = true;
    }

    /// Starts the member `key`; its value is the next thing written.
    pub fn field(&mut self, key: &str) {
        self.next_member();
        self.write_str(key);
        self.buf
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.buf.push(b'[');
        self.level += 1;
        self.first = true;
    }

    /// Starts the next element; its value is the next thing written.
    pub fn element(&mut self) {
        self.next_member();
    }

    /// Closes the innermost array.
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
    pub fn write_null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn write_bool(&mut self, b: bool) {
        self.buf
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer.
    pub fn write_u64(&mut self, n: u64) {
        let _ = write!(self.buf, "{n}");
    }

    /// Writes a signed integer.
    pub fn write_i64(&mut self, n: i64) {
        let _ = write!(self.buf, "{n}");
    }

    /// Writes a float as the shortest decimal that parses back to the
    /// same bits, in exactly the text `format!("{x:?}")` gives (the
    /// formatter is the crate's own Ryu kernel, checked against `{:?}`
    /// by its tests). JSON has no NaN or infinity, so non-finite values
    /// are written as `null`, as upstream serde_json does.
    pub fn write_f64(&mut self, x: f64) {
        if x.is_finite() {
            crate::float::push_shortest(&mut self.buf, x);
        } else {
            self.write_null();
        }
    }

    /// Writes a string literal with JSON escapes.
    pub fn write_str(&mut self, s: &str) {
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
