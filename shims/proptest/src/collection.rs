//! Collection strategies.

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// An inclusive length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec`s with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }

    /// Length-wise shrinking: the declared minimum length, the first
    /// half, then all-but-last — never below the strategy's own length
    /// floor, so candidates stay inside the sampled domain.
    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let n = v.len();
        let mut out: Vec<Vec<S::Value>> = Vec::new();
        if n <= self.size.lo {
            return out;
        }
        out.push(v[..self.size.lo].to_vec());
        let half = (n / 2).max(self.size.lo);
        if half < n && half != self.size.lo {
            out.push(v[..half].to_vec());
        }
        if n - 1 != self.size.lo && n - 1 != half {
            out.push(v[..n - 1].to_vec());
        }
        out
    }
}
