//! The processor set and link-delay matrix.

use crate::failure::ProcId;
use serde::{Deserialize, Serialize};

/// A fully connected heterogeneous platform: `m` processors and the
/// unit-data link delay `d(P_k, P_h)` for every ordered pair, with
/// `d(P, P) = 0` (intra-processor communication is free).
///
/// ```
/// use platform::Platform;
/// let p = Platform::uniform_delay(3, 0.75);
/// assert_eq!(p.num_procs(), 3);
/// assert_eq!(p.delay(0, 1), 0.75);
/// assert_eq!(p.delay(2, 2), 0.0);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Platform {
    m: usize,
    /// Row-major `m × m` delay matrix; the diagonal is zero.
    delay: Vec<f64>,
}

impl Platform {
    /// Builds a platform from a delay function. The diagonal is forced to
    /// zero regardless of `f`. Panics unless `m >= 1` and every delay is
    /// finite and `>= 0`.
    pub fn from_fn(m: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut delay = vec![0.0; m * m];
        for k in 0..m {
            for h in 0..m {
                if k != h {
                    delay[k * m + h] = f(k, h);
                }
            }
        }
        Self::from_parts(m, delay).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The platform, if the parts meet the invariants: `m >= 1`, `m · m`
    /// delays, each finite and `>= 0`, zero on the diagonal.
    fn from_parts(m: usize, delay: Vec<f64>) -> Result<Self, String> {
        if m == 0 {
            return Err("Platform: need at least one processor".into());
        }
        if Some(delay.len()) != m.checked_mul(m) {
            return Err(format!(
                "Platform: delay has {} entries, expected m·m = {m}·{m}",
                delay.len()
            ));
        }
        for (i, &d) in delay.iter().enumerate() {
            let (k, h) = (i / m, i % m);
            if !(d >= 0.0 && d.is_finite()) || (k == h && d != 0.0) {
                return Err(format!(
                    "Platform: delay d({k}, {h}) = {d} must be finite and >= 0, \
                     and 0 on the diagonal"
                ));
            }
        }
        Ok(Platform { m, delay })
    }

    /// All links share one delay (a homogeneous network).
    pub fn uniform_delay(m: usize, d: f64) -> Self {
        Self::from_fn(m, |_, _| d)
    }

    /// Number of processors `m`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.m
    }

    /// Unit-data delay `d(P_k, P_h)`.
    #[inline]
    pub fn delay(&self, k: usize, h: usize) -> f64 {
        self.delay[k * self.m + h]
    }

    /// Outgoing delay row `d(P_k, ·)` as a slice indexed by destination;
    /// lets hot loops stream one sender's delays without per-cell
    /// index arithmetic.
    #[inline]
    pub fn delay_row(&self, k: usize) -> &[f64] {
        &self.delay[k * self.m..(k + 1) * self.m]
    }

    /// Average delay `d̄` over ordered pairs of *distinct* processors;
    /// this is the `d` used for the static bottom levels. Zero when
    /// `m == 1`.
    pub fn average_delay(&self) -> f64 {
        if self.m <= 1 {
            return 0.0;
        }
        let sum: f64 = (0..self.m)
            .flat_map(|k| (0..self.m).map(move |h| (k, h)))
            .filter(|&(k, h)| k != h)
            .map(|(k, h)| self.delay(k, h))
            .sum();
        sum / (self.m * (self.m - 1)) as f64
    }

    /// Worst-case outgoing delay `max_j d(P_k, P_j)` — the pessimistic
    /// factor in the dynamic top level of FTSA.
    pub fn max_delay_from(&self, k: usize) -> f64 {
        (0..self.m).map(|h| self.delay(k, h)).fold(0.0, f64::max)
    }

    /// Mean delay of the `count` fastest (smallest-delay) inter-processor
    /// links, used by the deadline computation of Section 4.3.
    pub fn average_delay_fastest_links(&self, count: usize) -> f64 {
        if self.m <= 1 || count == 0 {
            return 0.0;
        }
        let mut ds: Vec<f64> = (0..self.m)
            .flat_map(|k| (0..self.m).map(move |h| (k, h)))
            .filter(|&(k, h)| k != h)
            .map(|(k, h)| self.delay(k, h))
            .collect();
        ds.sort_by(f64::total_cmp);
        let take = count.min(ds.len());
        ds[..take].iter().sum::<f64>() / take as f64
    }

    /// All processor ids.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.m as u32).map(ProcId)
    }
}

impl Deserialize for Platform {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut m, mut delay) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "m" => r.field(&mut m)?,
                "delay" => r.field(&mut delay)?,
                _ => r.skip_value()?,
            }
        }
        Platform::from_parts(
            m.ok_or_else(|| serde::Error::missing_field("m", "Platform"))?,
            delay.ok_or_else(|| serde::Error::missing_field("delay", "Platform"))?,
        )
        .map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_platform() {
        let p = Platform::uniform_delay(4, 0.5);
        assert_eq!(p.num_procs(), 4);
        for k in 0..4 {
            for h in 0..4 {
                let expect = if k == h { 0.0 } else { 0.5 };
                assert_eq!(p.delay(k, h), expect);
            }
        }
        assert_eq!(p.average_delay(), 0.5);
        assert_eq!(p.max_delay_from(2), 0.5);
    }

    #[test]
    fn from_fn_diagonal_forced_zero() {
        let p = Platform::from_fn(3, |k, h| (k + h) as f64);
        assert_eq!(p.delay(1, 1), 0.0);
        assert_eq!(p.delay(0, 2), 2.0);
        assert_eq!(p.delay(2, 0), 2.0);
    }

    #[test]
    fn asymmetric_delays_allowed() {
        let p = Platform::from_fn(2, |k, h| if k < h { 1.0 } else { 3.0 });
        assert_eq!(p.delay(0, 1), 1.0);
        assert_eq!(p.delay(1, 0), 3.0);
        assert_eq!(p.average_delay(), 2.0);
    }

    #[test]
    fn single_processor_degenerate() {
        let p = Platform::uniform_delay(1, 9.0);
        assert_eq!(p.average_delay(), 0.0);
        assert_eq!(p.max_delay_from(0), 0.0);
    }

    #[test]
    fn fastest_links_average() {
        // Delays: 1.0 both ways between (0,1); 5.0 elsewhere.
        let p = Platform::from_fn(3, |k, h| {
            if (k, h) == (0, 1) || (k, h) == (1, 0) {
                1.0
            } else {
                5.0
            }
        });
        assert_eq!(p.average_delay_fastest_links(2), 1.0);
        assert!((p.average_delay_fastest_links(3) - 7.0 / 3.0).abs() < 1e-12);
        // Larger count than links clamps.
        assert!(p.average_delay_fastest_links(100) > 0.0);
    }

    #[test]
    fn deserialize_checks_from_fn_invariants() {
        let p = Platform::from_fn(2, |_, _| 0.5);
        let back: Platform = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back.delay_row(0), p.delay_row(0));
        for (bad, why) in [
            (r#"{"m":3,"delay":[0.0]}"#, "delay has 1 entries"),
            (r#"{"m":0,"delay":[]}"#, "at least one processor"),
            (r#"{"m":2,"delay":[0.0,-1.0,1.0,0.0]}"#, "d(0, 1) = -1"),
            (r#"{"m":2,"delay":[0.5,1.0,1.0,0.0]}"#, "d(0, 0) = 0.5"),
            (r#"{"m":2}"#, "missing field `delay`"),
        ] {
            let e = serde_json::from_str::<Platform>(bad)
                .unwrap_err()
                .to_string();
            assert!(e.contains(why), "{bad}: {e}");
        }
    }

    #[test]
    fn procs_iterator() {
        let p = Platform::uniform_delay(3, 1.0);
        let ids: Vec<_> = p.procs().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0].index(), 0);
    }
}
