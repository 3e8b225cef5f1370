//! Deterministic partial selection of the `k` smallest candidates.
//!
//! The scheduler's inner loop repeatedly needs "the `ε + 1` processors
//! minimizing a score" out of `m` candidates. Allocating all `m` pairs
//! and fully sorting them costs `O(m log m)` per task; since `ε + 1 ≪ m`
//! in every paper configuration, a bounded insertion into a `k`-slot
//! buffer does the same job in `O(m · k)` comparisons with no allocation
//! once the buffer has grown — and `k` is a small constant, so this is
//! O(m).
//!
//! The result is *defined* to equal the first `k` elements of the
//! stable-by-index full sort: candidates are ordered by
//! `(value, index)` with [`f64::total_cmp`] on the value. The golden
//! bit-identity suite relies on this equivalence.

/// Writes the `count` smallest `(index, value(index))` pairs over `0..m`
/// into `best`, ordered by `(value, index)` ascending — exactly the
/// `count`-prefix of sorting all candidates by `(value, index)`. `best`
/// is cleared first and reused, so the scheduler's steady state
/// allocates nothing here.
///
/// `value` is invoked once per index, in increasing index order.
///
/// `count == 2` (ε = 1, the paper's default, behind every eq. (1) and σ
/// query of such a run) keeps two running minima instead of the
/// buffer: a candidate displaces one only when strictly smaller under
/// [`f64::total_cmp`], so on ties the lower index stays ahead, as in
/// the stable sort.
///
/// # Panics
/// Panics (in debug builds) if `count > m`.
pub fn select_smallest_into(
    m: usize,
    count: usize,
    mut value: impl FnMut(usize) -> f64,
    best: &mut Vec<(usize, f64)>,
) {
    debug_assert!(count <= m, "cannot select {count} of {m} candidates");
    best.clear();
    if count == 2 && m >= 2 {
        let (v0, v1) = (value(0), value(1));
        let (mut lo, mut hi) = if v1.total_cmp(&v0).is_lt() {
            ((1, v1), (0, v0))
        } else {
            ((0, v0), (1, v1))
        };
        for j in 2..m {
            let v = value(j);
            if v.total_cmp(&hi.1).is_lt() {
                if v.total_cmp(&lo.1).is_lt() {
                    hi = lo;
                    lo = (j, v);
                } else {
                    hi = (j, v);
                }
            }
        }
        best.push(lo);
        best.push(hi);
        return;
    }
    for j in 0..m {
        let v = value(j);
        if best.len() == count {
            // Full buffer: j only enters if strictly smaller than the
            // current worst (on ties the incumbent's lower index wins,
            // matching the stable sort).
            match best.last() {
                Some(&(_, worst)) if v.total_cmp(&worst).is_lt() => {
                    best.pop();
                }
                _ => continue,
            }
        }
        // Insert keeping (value, index) order; `j` exceeds every stored
        // index, so on equal values it lands after the incumbents.
        let at = best.partition_point(|&(_, w)| w.total_cmp(&v).is_le());
        best.insert(at, (j, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smallest(m: usize, count: usize, value: impl FnMut(usize) -> f64) -> Vec<(usize, f64)> {
        let mut best = Vec::new();
        select_smallest_into(m, count, value, &mut best);
        best
    }

    /// Oracle: full stable sort by (value, index), then truncate.
    fn oracle(values: &[f64], count: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(count);
        all
    }

    #[test]
    fn matches_sort_truncate_oracle() {
        let vals = [5.0, 1.0, 3.0, 1.0, 4.0, 1.0, 2.0, 0.5];
        for count in 0..=vals.len() {
            assert_eq!(
                smallest(vals.len(), count, |j| vals[j]),
                oracle(&vals, count),
                "count={count}"
            );
        }
    }

    #[test]
    fn ties_keep_lower_indices() {
        let vals = [2.0, 2.0, 2.0, 2.0];
        assert_eq!(smallest(4, 2, |j| vals[j]), vec![(0, 2.0), (1, 2.0)]);
    }

    #[test]
    fn pseudo_random_agreement() {
        // Deterministic LCG-driven values, many shapes.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        for m in [1usize, 2, 7, 20, 50] {
            let vals: Vec<f64> = (0..m).map(|_| next()).collect();
            for count in [0, 1.min(m), 2.min(m), m / 2, m] {
                assert_eq!(
                    smallest(m, count, |j| vals[j]),
                    oracle(&vals, count),
                    "m={m} count={count}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_and_infinities_total_order() {
        let vals = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0];
        for count in 0..=vals.len() {
            assert_eq!(smallest(5, count, |j| vals[j]), oracle(&vals, count));
        }
    }

    /// Bitwise comparison: `==` on the pairs would equate ±0.0.
    fn assert_same_bits(got: &[(usize, f64)], want: &[(usize, f64)], what: &str) {
        let bits =
            |v: &[(usize, f64)]| v.iter().map(|&(j, x)| (j, x.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn every_count_meets_the_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0];
        for m in [1usize, 2, 3, 7, 20, 50, 64] {
            for round in 0..40 {
                let vals: Vec<f64> = (0..m)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        // Few distinct values, so ties are common; every
                        // fourth round mixes in ±0.0 and ±∞.
                        if round % 4 == 3 && state % 3 == 0 {
                            specials[(state >> 8) as usize % specials.len()]
                        } else {
                            (state % 7) as f64 - 3.0
                        }
                    })
                    .collect();
                for count in 0..=m {
                    assert_same_bits(
                        &smallest(m, count, |j| vals[j]),
                        &oracle(&vals, count),
                        &format!("m={m} count={count} vals={vals:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn count_two_orders_signed_zeros_infinities_and_ties() {
        let cases: [&[f64]; 7] = [
            &[0.0, -0.0],
            &[-0.0, 0.0, -0.0],
            &[f64::INFINITY, f64::INFINITY, f64::INFINITY],
            &[f64::NEG_INFINITY, 3.0, f64::NEG_INFINITY],
            &[2.0, 1.0, 1.0, 2.0, 1.0],
            &[5.0, 5.0, 4.0, 4.0],
            &[1.0, 0.0, -0.0, 0.0, -0.0],
        ];
        for vals in cases {
            assert_same_bits(
                &smallest(vals.len(), 2, |j| vals[j]),
                &oracle(vals, 2),
                &format!("{vals:?}"),
            );
        }
    }

    #[test]
    fn into_variant_clears_and_reuses_the_buffer() {
        let vals = [5.0, 1.0, 3.0, 1.0, 4.0];
        let mut buf = vec![(99usize, 0.0f64); 7]; // stale content
        select_smallest_into(5, 2, |j| vals[j], &mut buf);
        assert_eq!(buf, oracle(&vals, 2));
        select_smallest_into(5, 4, |j| vals[j], &mut buf);
        assert_eq!(buf, oracle(&vals, 4));
    }
}
