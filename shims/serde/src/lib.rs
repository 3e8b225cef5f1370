//! Offline shim for `serde`.
//!
//! The build environment has no registry access, so this workspace vendors
//! a minimal serialization framework exposing the subset of the serde API
//! the scheduler uses: the [`Serialize`] / [`Deserialize`] traits and
//! `#[derive(Serialize, Deserialize)]` for plain structs, tuple structs
//! and unit/newtype enums.
//!
//! Instead of serde's visitor architecture and intermediate data model,
//! both directions stream JSON text directly: a type serializes by
//! driving a [`Writer`] (objects, arrays and scalars, written as it goes
//! into memory or an `io::Write` sink) and deserializes by pulling from a
//! [`Reader`] (a strict RFC 8259 parser with a 128-level depth guard).
//! Neither direction builds an intermediate tree, so memory stays at one
//! output buffer plus the values being read. Floats are formatted by a
//! private shortest-digit kernel whose text equals `{:?}` byte for byte
//! (see [`Writer::write_f64`]). `serde_json` (also
//! vendored) is the thin front-end over the two. Formats beyond JSON and
//! exotic serde attributes are intentionally unsupported.
//!
//! Reading semantics, for derived and hand-written impls alike: unknown
//! object keys are skipped, the first of duplicate keys wins, a missing
//! field is an error even for an `Option` field, integral floats such as
//! `3.0` read as integers, and enums are externally tagged (a string for
//! a unit variant, a one-key object for a newtype variant).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod float;
mod read;
mod write;

pub use read::Reader;
pub use serde_derive::{Deserialize, Serialize};
pub use write::Writer;

use std::borrow::Cow;
use std::fmt;

/// A (de)serialization error: a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// The error for a struct field absent from its object.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        Error(format!("missing field `{field}` in {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as one JSON value.
pub trait Serialize {
    /// Writes `self` to `w`.
    fn serialize(&self, w: &mut Writer<'_>);
}

/// Types that can be read back from one JSON value.
pub trait Deserialize: Sized {
    /// Reads `Self` from `r`, reporting malformed or mismatched input as
    /// an [`Error`].
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.write_u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.read_u64()?;
                <$t>::try_from(n).map_err(|_| r.invalid(format_args!("integer {n} out of range")))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.write_i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.read_i64()?;
                <$t>::try_from(n).map_err(|_| r.invalid(format_args!("integer {n} out of range")))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.write_f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.write_f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_f64().map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.write_bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_bool()
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.write_str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.write_str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            None => w.write_null(),
            Some(x) => x.serialize(w),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.read_null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut out = Vec::new();
        r.begin_array()?;
        while r.next_element()? {
            out.push(T::deserialize(r)?);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.seq(self);
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                r.begin_array()?;
                let value = ($({
                    let _ = $idx;
                    r.fixed_element(LEN)?;
                    $name::deserialize(r)?
                },)+);
                r.end_fixed(LEN)?;
                Ok(value)
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(v: &T) -> String {
        let mut w = Writer::new(false);
        v.serialize(&mut w);
        w.into_string()
    }

    fn pretty<T: Serialize + ?Sized>(v: &T) -> String {
        let mut w = Writer::new(true);
        v.serialize(&mut w);
        w.into_string()
    }

    fn parse<T: Deserialize>(s: &str) -> Result<T, Error> {
        let mut r = Reader::new(s);
        let v = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(parse::<u32>(&compact(&42u32)).unwrap(), 42);
        assert_eq!(parse::<i64>(&compact(&-7i64)).unwrap(), -7);
        assert_eq!(compact(&i64::MIN), i64::MIN.to_string());
        assert_eq!(parse::<f64>(&compact(&1.5f64)).unwrap(), 1.5);
        assert!(parse::<bool>(&compact(&true)).unwrap());
        assert_eq!(parse::<String>(&compact("hi")).unwrap(), "hi");
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(usize, f64)> = vec![(1, 0.5), (2, 1.5)];
        assert_eq!(compact(&v), "[[1,0.5],[2,1.5]]");
        assert_eq!(parse::<Vec<(usize, f64)>>(&compact(&v)).unwrap(), v);
        let o: Option<String> = None;
        assert_eq!(parse::<Option<String>>(&compact(&o)).unwrap(), None);
    }

    #[test]
    fn pretty_layout_and_empty_containers() {
        let v: (Vec<u8>, Vec<Vec<u8>>, Option<bool>) = (vec![], vec![vec![], vec![1]], None);
        assert_eq!(compact(&v), "[[],[[],[1]],null]");
        assert_eq!(
            pretty(&v),
            "[\n  [],\n  [\n    [],\n    [\n      1\n    ]\n  ],\n  null\n]"
        );
    }

    #[test]
    fn escapes_and_non_finite_floats() {
        assert_eq!(compact("a\"b\\c\n\u{1}é"), r#""a\"b\\c\n\u0001é""#);
        assert_eq!(compact(&f64::NAN), "null");
        assert_eq!(compact(&vec![f64::INFINITY, -0.0]), "[null,-0.0]");
    }

    #[test]
    fn type_mismatch_reported() {
        assert!(parse::<u32>("\"x\"").is_err());
        assert!(parse::<u8>("256").is_err());
        assert!(parse::<u64>("-1").is_err());
        assert!(parse::<Vec<u8>>("false").is_err());
        assert!(parse::<(u8, u8)>("[null]").is_err());
        assert!(parse::<(u8, u8)>("[1]").is_err());
        assert!(parse::<(u8, u8)>("[1,2,3]").is_err());
        let e = parse::<u64>("[1.5]").unwrap_err();
        assert_eq!(
            e.to_string(),
            "expected unsigned integer, got array at byte 0"
        );
    }

    #[test]
    fn integral_floats_coerce_to_integers() {
        assert_eq!(parse::<u64>("3.0").unwrap(), 3);
        assert_eq!(parse::<i32>("-2e1").unwrap(), -20);
        assert!(parse::<u64>("3.5").is_err());
    }
}
