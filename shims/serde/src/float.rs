//! Shortest round-trip text for `f64`, byte for byte what `{:?}` prints.
//!
//! The digits come from Ryu (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the float's rounding interval is scaled to a
//! decimal power with three 64×128-bit multiplies against static
//! power-of-5 tables, then trailing digits are dropped while the
//! interval still holds a shorter number. One rule differs from textbook
//! Ryu, to match Rust's own formatter: when the float lies exactly
//! halfway between two shortest candidates, the larger one wins (Ryu
//! rounds to even). The layout is `{:?}`'s: plain decimal with at least
//! one fractional digit for `1e-4 <= |x| < 1e16`, `d[.ddd]e[-]X`
//! outside that range, and `-0.0` for negative zero.
//!
//! The tables are evaluated at compile time from exact integer
//! arithmetic; a test recomputes every entry independently, and the
//! tests compare the text with `format!("{x:?}")`.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five (`POW5_SPLIT`) and of each inverse
/// (`POW5_INV_SPLIT`).
const POW5_BITCOUNT: u32 = 125;
const POW5_INV_BITCOUNT: u32 = 125;

/// Table lengths: one past the largest index [`shortest`] takes, which
/// the smallest subnormal reaches in `POW5_SPLIT` and the largest finite
/// exponent in `POW5_INV_SPLIT`.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 291;

/// The top [`POW5_BITCOUNT`] bits of `5^i`, zero-padded below when
/// `5^i` is shorter.
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_split();

/// `floor(2^(bitlen(5^i) - 1 + POW5_INV_BITCOUNT) / 5^i) + 1`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_split();

/// `10^i`.
static POW10: [u64; 18] = {
    let mut t = [1u64; 18];
    let mut i = 1;
    while i < 18 {
        t[i] = 10 * t[i - 1];
        i += 1;
    }
    t
};

/// Limbs of the compile-time big integers: 14 × 64 = 896 bits, enough
/// for `5^325` (755 bits) and for [`INV_NUMERATOR_BITS`].
const LIMBS: usize = 14;
type Big = [u64; LIMBS];

/// `2^K` from which every inverse entry is cut; `K` must be at least
/// `bitlen(5^i) - 1 + POW5_INV_BITCOUNT` for every index (798 at most).
const INV_NUMERATOR_BITS: u32 = 832;

const fn bit_length(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

const fn limb(x: &Big, i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// `floor(x / 2^shift) mod 2^128`.
const fn shr_low128(x: &Big, shift: u32) -> u128 {
    let i = (shift / 64) as usize;
    let off = shift % 64;
    let low = limb(x, i) | limb(x, i + 1) << 64;
    if off == 0 {
        low
    } else {
        low >> off | limb(x, i + 2) << (128 - off)
    }
}

const fn mul5(mut x: Big) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * 5 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "power of five overflows the limbs");
    x
}

const fn div5(mut x: Big) -> Big {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = rem << 64 | x[i] as u128;
        x[i] = (t / 5) as u64;
        rem = t % 5;
    }
    x
}

const fn pow5_split() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = bit_length(&pow);
        table[i] = if len <= POW5_BITCOUNT {
            shr_low128(&pow, 0) << (POW5_BITCOUNT - len)
        } else {
            shr_low128(&pow, len - POW5_BITCOUNT)
        };
        pow = mul5(pow);
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    // `quot` = floor(2^K / 5^i): dividing the floor by 5 again is exact
    // floor division by the next power.
    let mut quot: Big = [0; LIMBS];
    quot[(INV_NUMERATOR_BITS / 64) as usize] = 1 << (INV_NUMERATOR_BITS % 64);
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let j = bit_length(&pow) - 1 + POW5_INV_BITCOUNT;
        assert!(j <= INV_NUMERATOR_BITS, "inverse numerator too small");
        table[i] = shr_low128(&quot, INV_NUMERATOR_BITS - j) + 1;
        pow = mul5(pow);
        quot = div5(quot);
        i += 1;
    }
    table
}

/// `floor(log2(5^e)) + 1`, the bit length of `5^e`, for `0 <= e <= 3528`.
fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// The exponent of 5 in `value > 0`.
fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    loop {
        let q = value / 5;
        if 5 * q != value {
            return count;
        }
        value = q;
        count += 1;
    }
}

/// `floor(m * mul / 2^j)` for `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits × 10^exponent` that reads back as the
/// positive float with these IEEE fields, ties broken upward.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // The rounding interval is closed when the mantissa is even (a
    // bound reads back to it under ties-to-even), open otherwise.
    let accept_bounds = m2 & 1 == 0;

    // The interval in units of 2^e2: [mm, mp] around mv; it is
    // narrower below a power of two.
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;

    // Scale by 10^-e10 so that the interval holds integers vm <= vr <= vp.
    // Ryu also tracks whether vr is exact, but only to round an exact
    // tie to even; `{:?}` rounds ties up, so that bookkeeping is gone.
    let (e10, mut vr, mut vp, mut vm, mut vm_is_trailing_zeros) = if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - (e2 > 3) as u32;
        let j = POW5_INV_BITCOUNT + pow5bits(q) - 1 + q - e2 as u32;
        let mul = POW5_INV_SPLIT[q as usize];
        let mut vp = mul_shift(mp, mul, j);
        let mut vm_is_trailing_zeros = false;
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= (pow5_factor(mp) >= q) as u64;
            }
        }
        let vr = mul_shift(mv, mul, j);
        let vm = mul_shift(mm, mul, j);
        (q as i32, vr, vp, vm, vm_is_trailing_zeros)
    } else {
        let q = log10_pow5(-e2 as u32) - (-e2 > 1) as u32;
        let i = -e2 as u32 - q;
        let j = (q + POW5_BITCOUNT) - pow5bits(i);
        let mul = POW5_SPLIT[i as usize];
        let mut vp = mul_shift(mp, mul, j);
        let mut vm_is_trailing_zeros = false;
        if q <= 1 {
            if accept_bounds {
                // mm has a trailing zero bit exactly when it is mv - 2.
                vm_is_trailing_zeros = mm == mv - 2;
            } else {
                // mp = mv + 2 has at least one trailing zero bit.
                vp -= 1;
            }
        }
        let vr = mul_shift(mv, mul, j);
        let vm = mul_shift(mm, mul, j);
        (q as i32 + e2, vr, vp, vm, vm_is_trailing_zeros)
    };

    // Drop digits while the interval still holds a shorter number; a
    // removed 5 rounds vr up, exact tie or not.
    let mut removed = 0;
    let mut round_up = false;
    if vm_is_trailing_zeros {
        // Rare: the lower end may be exact at a shorter length.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            // vm is a shorter number inside the interval: vp no longer
            // bounds anything.
            while vm % 10 == 0 {
                round_up = vr % 10 >= 5;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
    } else {
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr is outside the interval when it equals an excluded or inexact vm.
    let outside = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
    (vr + (outside || round_up) as u64, e10 + removed)
}

/// The number of decimal digits of `v`, for `0 < v < 10^17`.
fn decimal_length(v: u64) -> usize {
    // floor(bits × log10 2) is the digit count or one less.
    let t = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    t + (v >= POW10[t]) as usize
}

/// The eight decimal digits of `v < 10^8` as ASCII, most significant
/// first. The two 4-digit halves, then their 2-digit quarters, then the
/// single digits are split in parallel lanes of one `u64`.
#[inline]
pub(crate) fn eight_digits(v: u32) -> [u8; 8] {
    let x = (v / 10_000) as u64 | ((v % 10_000) as u64) << 32;
    // 32-bit lanes: n / 100 = n * 5243 >> 19 for n < 10^4.
    let hundreds = ((x * 5243) >> 19) & 0x0000_007f_0000_007f;
    let x = hundreds | (x - 100 * hundreds) << 16;
    // 16-bit lanes: n / 10 = n * 103 >> 10 for n < 100.
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | (x - 10 * tens) << 8;
    (x | 0x3030_3030_3030_3030).to_le_bytes()
}

/// The scratch [`layout`] writes into. The plain-decimal layouts write
/// only fixed-length pieces, which compile to plain stores, and let the
/// padding past the text fall off the end; [`DIGITS_AT`] leaves room
/// before the digits for a sign, `0.000` and the digits' zero padding.
type Scratch = [u8; 64];
const DIGITS_AT: usize = 24;

/// Writes `v < 10^17` as 17 zero-padded digits ending before `out[end]`.
fn write_digits(out: &mut Scratch, end: usize, v: u64) {
    let high = v / 100_000_000;
    out[end - 8..end].copy_from_slice(&eight_digits((v - 100_000_000 * high) as u32));
    let top = high / 100_000_000;
    out[end - 16..end - 8].copy_from_slice(&eight_digits((high - 100_000_000 * top) as u32));
    out[end - 17] = b'0' + top as u8;
}

/// Lays out the text of the finite `x` in `out`; returns where it
/// starts and ends.
fn layout(x: f64, out: &mut Scratch) -> (usize, usize) {
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let d = DIGITS_AT;
    let (start, end) = if ieee_exponent == 0 && ieee_mantissa == 0 {
        out[d..d + 3].copy_from_slice(b"0.0");
        (d, d + 3)
    } else {
        let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
        let n = decimal_length(mantissa);
        // The value is 0.digits × 10^point.
        let point = exponent + n as i32;
        let abs = x.abs();
        if !(1e-4..1e16).contains(&abs) {
            // d[.ddd]e[-]X: the digits one place right, then the first
            // one moved in front of the dot.
            write_digits(out, d + 1 + n, mantissa);
            out[d] = out[d + 1];
            out[d + 1] = b'.';
            let mut end = if n > 1 { d + 1 + n } else { d + 1 };
            out[end] = b'e';
            out[end + 1] = b'-';
            end += 1 + (point < 1) as usize;
            let e = (point - 1).unsigned_abs();
            let len = 1 + (e >= 10) as usize + (e >= 100) as usize;
            out[end..end + 3].copy_from_slice(&eight_digits(e)[5..]);
            out.copy_within(end + 3 - len..end + 3, end);
            (d, end + len)
        } else if point <= 0 {
            // 0.ddd, 0.0ddd, 0.00ddd or 0.000ddd.
            write_digits(out, d + n, mantissa);
            out[d - 3..d].copy_from_slice(b"000");
            let start = d - 2 - point.unsigned_abs() as usize;
            out[start..start + 2].copy_from_slice(b"0.");
            (start, d + n)
        } else if (point as usize) < n {
            // The digits, then the fraction moved one place right for
            // the dot.
            let point = point as usize;
            write_digits(out, d + n, mantissa);
            out.copy_within(d + point..d + point + 17, d + point + 1);
            out[d + point] = b'.';
            (d, d + n + 1)
        } else {
            // An integer below 1e16: the digits, zeros up to the point,
            // then ".0".
            let point = point as usize;
            write_digits(out, d + n, mantissa);
            out[d + n..d + n + 16].copy_from_slice(b"0000000000000000");
            out[d + point..d + point + 2].copy_from_slice(b".0");
            (d, d + point + 2)
        }
    };
    out[start - 1] = b'-';
    (start - (bits >> 63) as usize, end)
}

/// Appends the shortest text that reads back as the finite `x`, exactly
/// as `format!("{x:?}")` writes it, to `text`.
pub(crate) fn push_shortest(text: &mut Vec<u8>, x: f64) {
    debug_assert!(x.is_finite());
    let mut out: Scratch = [0; 64];
    let (start, end) = layout(x, &mut out);
    text.extend_from_slice(&out[start..end]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn text(x: f64) -> String {
        let mut s = Vec::new();
        push_shortest(&mut s, x);
        String::from_utf8(s).unwrap()
    }

    #[track_caller]
    fn check(x: f64) {
        if !x.is_finite() {
            return;
        }
        for y in [x, -x] {
            let want = format!("{y:?}");
            let got = text(y);
            assert_eq!(got, want, "bits {:#018x}", y.to_bits());
        }
    }

    /// splitmix64: a fixed-seed stream of well-mixed 64-bit patterns.
    pub(crate) struct Bits(pub(crate) u64);

    impl Bits {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn layout_matches_debug() {
        for (x, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (0.1, "0.1"),
            (1e-4, "0.0001"),
            (1e16, "1e16"),
            (1.5e16, "1.5e16"),
            (9999999999999998.0, "9999999999999998.0"),
            (123.456, "123.456"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            // 2^50 + 1/4, exactly halfway between the two shortest
            // candidates: `{:?}` takes the upper one, Ryu the even one.
            ((1u64 << 50) as f64 + 0.25, "1125899906842624.3"),
        ] {
            assert_eq!(text(x), want);
            assert_eq!(format!("{x:?}"), want);
        }
    }

    #[test]
    fn binade_edges() {
        for e in 0..=0x7ffu64 {
            for d in -3i64..=3 {
                check(f64::from_bits(
                    (e << 52).wrapping_add_signed(d) & !(1 << 63),
                ));
            }
        }
    }

    #[test]
    fn exact_ties_round_up() {
        let mut r = Bits(1);
        let edges = |lo: u64| [lo, lo + 1, 2 * lo - 2, 2 * lo - 1];
        for n in edges(1 << 50)
            .into_iter()
            .chain((0..200_000).map(|_| (1 << 50) + (r.next() >> 14)))
        {
            check(n as f64 + 0.25);
            check(n as f64 + 0.75);
        }
        for n in edges(1 << 51)
            .into_iter()
            .chain((0..200_000).map(|_| (1 << 51) + (r.next() >> 13)))
        {
            check(n as f64 + 0.5);
        }
    }

    #[test]
    fn integers_and_decimal_fractions() {
        for n in 0..=100_000u64 {
            check(n as f64);
        }
        for k in 0..=1_000_000u64 {
            check(k as f64 / 1000.0);
        }
        for p in -324..=308 {
            check(format!("1e{p}").parse().unwrap());
        }
        for p in 0..1024 {
            check(2f64.powi(p));
        }
        let mut r = Bits(2);
        for _ in 0..100_000 {
            check((r.next() >> 11) as f64);
            check(r.next() as f64);
        }
    }

    #[test]
    fn layout_thresholds() {
        for edge in [1e-4f64, 1e16] {
            for d in -2000i64..=2000 {
                check(f64::from_bits(edge.to_bits().wrapping_add_signed(d)));
            }
        }
    }

    #[test]
    fn random_subnormals() {
        let mut r = Bits(3);
        for _ in 0..200_000 {
            check(f64::from_bits(r.next() >> 12));
        }
    }

    /// Checks `count` random finite bit patterns (and their negations).
    fn random_finite(seed: u64, count: usize) {
        let mut r = Bits(seed);
        let mut checked = 0;
        while checked < count {
            let x = f64::from_bits(r.next());
            if x.is_finite() {
                check(x);
                checked += 1;
            }
        }
    }

    #[test]
    fn random_bit_patterns() {
        random_finite(4, 1_000_000);
    }

    /// 10^8 more patterns; run with
    /// `cargo test --release -p serde -- --ignored`.
    #[test]
    #[ignore = "minutes in a debug build"]
    fn random_bit_patterns_large() {
        random_finite(5, 100_000_000);
    }

    /// Arbitrary-precision naturals, little-endian `u32` limbs, written
    /// apart from the compile-time code so the tables are recomputed
    /// independently.
    fn times5(x: &mut Vec<u32>) {
        let mut carry = 0u64;
        for limb in x.iter_mut() {
            let t = *limb as u64 * 5 + carry;
            *limb = t as u32;
            carry = t >> 32;
        }
        if carry != 0 {
            x.push(carry as u32);
        }
    }

    fn bits_of(x: &[u32]) -> u32 {
        let top = x.len() - 1;
        32 * top as u32 + 32 - x[top].leading_zeros()
    }

    fn bit(x: &[u32], i: u32) -> bool {
        x.get((i / 32) as usize)
            .is_some_and(|limb| limb >> (i % 32) & 1 == 1)
    }

    /// `a >= b` for equal-length limb vectors.
    fn not_less(a: &[u32], b: &[u32]) -> bool {
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            if x != y {
                return x > y;
            }
        }
        true
    }

    fn sub_in_place(a: &mut [u32], b: &[u32]) {
        let mut borrow = 0i64;
        for (x, &y) in a.iter_mut().zip(b) {
            let t = *x as i64 - y as i64 - borrow;
            *x = t as u32;
            borrow = (t < 0) as i64;
        }
    }

    #[test]
    fn tables_recomputed_exactly() {
        let mut pow = vec![1u32];
        for i in 0..POW5_TABLE_SIZE.max(POW5_INV_TABLE_SIZE) {
            let len = bits_of(&pow);
            if i < POW5_TABLE_SIZE {
                // The top 125 bits of 5^i, zero-padded below when shorter.
                let want = (0..POW5_BITCOUNT).fold(0u128, |acc, b| {
                    let src = (len + b) as i64 - POW5_BITCOUNT as i64;
                    acc | ((src >= 0 && bit(&pow, src as u32)) as u128) << b
                });
                assert_eq!(POW5_SPLIT[i], want, "POW5_SPLIT[{i}]");
            }
            if i < POW5_INV_TABLE_SIZE {
                // Bitwise long division of 2^(len - 1 + 125) by 5^i.
                let mut divisor = pow.clone();
                divisor.push(0);
                let mut rem = vec![0u32; divisor.len()];
                let mut quot = 0u128;
                for b in (0..len + POW5_INV_BITCOUNT).rev() {
                    let mut carry = (b == len - 1 + POW5_INV_BITCOUNT) as u32;
                    for limb in rem.iter_mut() {
                        let t = *limb >> 31;
                        *limb = *limb << 1 | carry;
                        carry = t;
                    }
                    quot <<= 1;
                    if not_less(&rem, &divisor) {
                        sub_in_place(&mut rem, &divisor);
                        quot |= 1;
                    }
                }
                assert_eq!(POW5_INV_SPLIT[i], quot + 1, "POW5_INV_SPLIT[{i}]");
            }
            times5(&mut pow);
        }
    }
}
