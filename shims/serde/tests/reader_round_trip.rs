//! The reader against the writer: random JSON values, rendered token by
//! token with random whitespace between the tokens, read back to the
//! same value (floats to the same bits) and skipped whole.

use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::{Rng, SeedableRng};
use serde::{Error, Reader, Writer};

#[derive(Debug, Clone)]
enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            _ => false,
        }
    }
}

const PIECES: [&str; 16] = [
    "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "€", "😀",
    "key",
];

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..8);
    (0..len)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn float(rng: &mut StdRng) -> f64 {
    loop {
        let x = match rng.gen_range(0..4) {
            0 => f64::from_bits(rng.gen::<u64>()),
            1 => rng.gen_range(0..1_000_000) as f64 / 1000.0,
            2 => rng.gen_range(-1000..1000) as f64,
            _ => -0.0,
        };
        if x.is_finite() {
            return x;
        }
    }
}

/// A value nested at most `depth` deep; below the top, four in ten
/// values are containers.
fn value(rng: &mut StdRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 10 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::UInt(rng.gen::<u64>() >> rng.gen_range(0..64)),
        3 => Value::Int((rng.gen::<u64>() >> rng.gen_range(0..64)) as i64),
        4 => Value::Float(float(rng)),
        5 => Value::Str(string(rng)),
        6 | 7 => Value::Array(
            (0..rng.gen_range(0..5))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..5))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// JSON whitespace: nothing, one byte, or a pretty line break.
fn ws(rng: &mut StdRng, out: &mut String) {
    match rng.gen_range(0..6) {
        0 | 1 => {}
        2 => out.push(' '),
        3 => out.push_str("\r\n\t"),
        4 => {
            out.push('\n');
            out.push_str(&" ".repeat(rng.gen_range(0..20)));
        }
        _ => out.push_str(" \t \n"),
    }
}

/// One scalar through the writer, compact.
fn scalar(write: impl FnOnce(&mut Writer<'static>)) -> String {
    let mut w = Writer::new(false);
    write(&mut w);
    w.into_string()
}

fn render(v: &Value, rng: &mut StdRng, out: &mut String) {
    ws(rng, out);
    match v {
        Value::Null => out.push_str(&scalar(|w| w.write_null())),
        Value::Bool(b) => out.push_str(&scalar(|w| w.write_bool(*b))),
        Value::UInt(n) => out.push_str(&scalar(|w| w.write_u64(*n))),
        Value::Int(n) => out.push_str(&scalar(|w| w.write_i64(*n))),
        Value::Float(x) => out.push_str(&scalar(|w| w.write_f64(*x))),
        Value::Str(s) => out.push_str(&scalar(|w| w.write_str(s))),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&scalar(|w| w.write_str(key)));
                ws(rng, out);
                out.push(':');
                render(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// Reads a value of `like`'s shape.
fn read_like(r: &mut Reader<'_>, like: &Value) -> Result<Value, Error> {
    Ok(match like {
        Value::Null => {
            assert!(r.read_null()?, "expected null");
            Value::Null
        }
        Value::Bool(_) => Value::Bool(r.read_bool()?),
        Value::UInt(_) => Value::UInt(r.read_u64()?),
        Value::Int(_) => Value::Int(r.read_i64()?),
        Value::Float(_) => Value::Float(r.read_f64()?),
        Value::Str(_) => Value::Str(r.read_str()?.into_owned()),
        Value::Array(items) => {
            r.begin_array()?;
            let mut out = Vec::new();
            for item in items {
                assert!(r.next_element()?, "array ended early");
                out.push(read_like(r, item)?);
            }
            assert!(!r.next_element()?, "array ran long");
            Value::Array(out)
        }
        Value::Object(members) => {
            r.begin_object()?;
            let mut out = Vec::new();
            for (_, item) in members {
                let key = r.next_key()?.expect("object ended early").into_owned();
                out.push((key, read_like(r, item)?));
            }
            assert!(r.next_key()?.is_none(), "object ran long");
            Value::Object(out)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn values_with_random_whitespace_read_back(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = if rng.gen_range(0..5) == 0 {
            value(&mut rng, 5)
        } else {
            Value::Array((0..rng.gen_range(1..8)).map(|_| value(&mut rng, 4)).collect())
        };
        let mut text = String::new();
        render(&v, &mut rng, &mut text);

        let mut r = Reader::new(&text);
        let back = read_like(&mut r, &v).map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        r.finish().map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        prop_assert_eq!(back, v);

        let mut r = Reader::new(&text);
        r.skip_value().map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        r.finish().map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
    }
}
