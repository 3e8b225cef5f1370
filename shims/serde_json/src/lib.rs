//! Offline shim for `serde_json`: the front-end over the vendored serde
//! shim's streaming [`serde::Writer`] and [`serde::Reader`].
//!
//! Writing goes straight from the value to text, into a `String`
//! ([`to_string`], [`to_string_pretty`]) or through one fixed buffer
//! into any `io::Write` ([`to_writer_pretty`]), so a large document
//! never exists in memory twice. Reading ([`from_str`]) parses while it
//! builds the target type and then insists on nothing but whitespace
//! after the value.
//!
//! Floats are written as the shortest decimal that reads back to the
//! same bits, so `f64` values survive `to_string` → `from_str` exactly —
//! the archival tests of the scheduler rely on that. The text is byte
//! for byte what `format!("{x:?}")` prints, but it comes from the serde
//! shim's own Ryu kernel (static power-of-5 tables, no `core::fmt` on
//! the path), which costs well under half of `{:?}` per float. Its tests
//! compare it with `{:?}` on every binade edge, the exact-tie classes,
//! the layout thresholds and 10^6 random bit patterns, and an ignored
//! release test checks 10^8 more
//! (`cargo test --release -p serde -- --ignored`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Reader, Serialize, Writer};
use std::fmt;
use std::io;

/// A JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error(e.to_string())
    }
}

/// `Result` alias matching upstream `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

fn render<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(pretty);
    value.serialize(&mut w);
    w.into_string()
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, false))
}

/// Serializes `value` as human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, true))
}

/// Streams `value` as [`to_string_pretty`]'s text into `writer`, through
/// one fixed-size buffer. Fails with the first I/O error.
pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    let mut w = Writer::with_sink(&mut writer, true);
    value.serialize(&mut w);
    Ok(w.finish()?)
}

/// Parses a value of type `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip_compact_and_pretty() {
        let v: (Vec<Option<String>>, bool, f64) =
            (vec![Some("a\"b\\c\n".into()), None], true, -0.125);
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        let a: (Vec<Option<String>>, bool, f64) = from_str(&compact).unwrap();
        let b: (Vec<Option<String>>, bool, f64) = from_str(&pretty).unwrap();
        assert_eq!(a, v);
        assert_eq!(b, v);
    }

    #[test]
    fn writer_output_equals_string_output() {
        let v: Vec<(u32, f64, String)> = (0..20_000)
            .map(|i| (i, i as f64 / 7.0, format!("t{i}")))
            .collect();
        let mut bytes = Vec::new();
        to_writer_pretty(&mut bytes, &v).unwrap();
        assert!(bytes.len() > 1 << 17, "spans several buffer flushes");
        assert_eq!(bytes, to_string_pretty(&v).unwrap().into_bytes());
    }

    #[test]
    fn writer_reports_io_errors() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer_pretty(Full, &vec![1u8; 10]).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[
            0.1f64,
            1.0 / 3.0,
            1e-300,
            2.5e300,
            -0.0,
            123_456_789.123_456_79,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "failed for {x}");
        }
    }

    #[test]
    fn integers_keep_precision() {
        let big = u64::MAX - 1;
        let s = to_string(&big).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, big);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_str::<bool>("{not json").is_err());
        assert!(from_str::<bool>("true false").is_err());
        assert!(from_str::<Vec<u8>>("[1, 2").is_err());
        assert!(from_str::<Vec<u8>>("[1,]").is_err());
        assert!(from_str::<Vec<u8>>("[,1]").is_err());
        assert!(from_str::<f64>("").is_err());
        let e = from_str::<bool>("true x").unwrap_err();
        assert_eq!(
            e.to_string(),
            "trailing characters after JSON value at byte 5"
        );
    }

    #[test]
    fn non_rfc_numbers_rejected() {
        // Rust's float parser would accept all of these; RFC 8259 doesn't.
        for bad in ["1.", ".5", "0123", "-", "1e", "1e+", "+1", "01.5"] {
            assert!(from_str::<f64>(bad).is_err(), "accepted {bad:?}");
        }
        // Numbers past f64's range would arrive as infinities.
        for bad in ["1e400", "-1e400", &format!("1{}", "0".repeat(400))] {
            let e = from_str::<f64>(bad).unwrap_err().to_string();
            assert!(
                e.contains("overflows f64") && e.ends_with("at byte 0"),
                "{e}"
            );
        }
        let e = from_str::<Vec<f64>>("[1, 2e999]").unwrap_err();
        assert_eq!(e.to_string(), "number `2e999` overflows f64 at byte 4");
        // Raw control characters must be escaped inside strings.
        for bad in [
            "\"a\nb\"",
            "\"tab\there\"",
            "\"\u{1}\"",
            "\"esc\\n then \u{1f}\"",
        ] {
            let e = from_str::<String>(bad).unwrap_err().to_string();
            assert!(e.starts_with("control character in string at byte"), "{e}");
        }
        // ...while legitimate shapes still parse.
        assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
        assert_eq!(from_str::<f64>("-0.5e-2").unwrap(), -0.005);
        assert_eq!(from_str::<f64>("1e-400").unwrap(), 0.0);
        assert_eq!(from_str::<u64>("0").unwrap(), 0);
        assert_eq!(from_str::<String>("\"a\\nb\u{7f}\"").unwrap(), "a\nb\u{7f}");
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str(r#""\u0041\u00e9 \ud83d\ude00 é😀""#).unwrap();
        assert_eq!(s, "Aé 😀 é😀");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
        assert!(from_str::<String>(r#""\ud83dA""#).is_err());
        assert!(from_str::<String>(r#""\ude00""#).is_err());
        assert!(from_str::<String>(r#""\x""#).is_err());
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Point {
        x: u32,
        label: Option<String>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
    }

    #[test]
    fn struct_fields_unknown_duplicate_and_missing() {
        // Unknown keys are skipped whatever their shape, and the first
        // of duplicate keys wins (the later value is parsed, not used).
        let p: Point =
            from_str(r#"{"extra": [{"a": [1, "s"]}], "x": 1, "label": null, "x": "two"}"#).unwrap();
        assert_eq!(p, Point { x: 1, label: None });
        // A missing field is an error, even for an `Option` field.
        let e = from_str::<Point>(r#"{"x": 1}"#).unwrap_err();
        assert_eq!(e.to_string(), "missing field `label` in Point");
        // A skipped value must still be well-formed JSON.
        assert!(from_str::<Point>(r#"{"x": 1, "label": null, "junk": [1,]}"#).is_err());
        assert!(from_str::<Point>(r#"{"x": 1, "label": null,}"#).is_err());
    }

    #[test]
    fn enums_are_externally_tagged() {
        let dot = Shape::Dot(Point {
            x: 3,
            label: Some("p".into()),
        });
        assert_eq!(to_string(&Shape::Empty).unwrap(), r#""Empty""#);
        let json = to_string(&dot).unwrap();
        assert_eq!(json, r#"{"Dot":{"x":3,"label":"p"}}"#);
        assert_eq!(from_str::<Shape>(&json).unwrap(), dot);
        assert_eq!(from_str::<Shape>(r#""Empty""#).unwrap(), Shape::Empty);
        for bad in [
            r#""Dot""#,
            r#"{"Empty": 1}"#,
            r#"{}"#,
            r#"{"Dot": {"x": 3, "label": null}, "Dot": {"x": 3, "label": null}}"#,
            r#"{"Square": 1}"#,
            "7",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded_everywhere() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        // 129 levels (depths 0..=128) are fine, 130 are not — for skipped
        // values under an unknown key as much as for typed ones.
        let ok = format!(r#"{{"x": 1, "label": null, "deep": {}}}"#, nest(128));
        assert!(from_str::<Point>(&ok).is_ok());
        let deep = format!(r#"{{"x": 1, "label": null, "deep": {}}}"#, nest(129));
        let e = from_str::<Point>(&deep).unwrap_err().to_string();
        assert!(e.starts_with("JSON nesting too deep"), "{e}");
        // A hostile depth errors out instead of overflowing the stack.
        let hostile = format!(r#"{{"deep": {}, "x": 1}}"#, nest(100_000));
        assert!(from_str::<Point>(&hostile).is_err());
    }
}
