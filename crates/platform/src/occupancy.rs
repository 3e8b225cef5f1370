//! Persistent per-processor occupancy: release-time floors that
//! outlive a single schedule.
//!
//! The offline experiments schedule one DAG on an *empty* platform. The
//! streaming/online scenario family instead lands a sequence of DAGs on
//! processors that are already busy: each processor carries a
//! [`OccupancyTimeline`] floor — the earliest time a *new* replica may
//! start. The scheduler only needs the floors (processors execute their
//! queues in order, so new work is appended after everything already
//! planned), so the timeline keeps nothing else. Its invariants:
//!
//! * the release floor is **monotone non-decreasing** under every
//!   operation but [`reset`](OccupancyTimeline::reset) —
//!   [`insert`](OccupancyTimeline::insert) raises it to the span end
//!   and [`advance`](OccupancyTimeline::advance) raises it to a global
//!   instant;
//! * spans are appended in order: each starts at or after its
//!   processor's floor, so spans on one processor never overlap;
//! * an **empty timeline is behaviorally invisible**: floors of `0.0`
//!   reduce every occupancy-aware entry point to the single-DAG
//!   semantics bit for bit.
//!
//! Every operation is allocation-free, so a long-running stream reaches
//! a zero-allocation steady state.

/// Per-processor release-time floors; see the [module docs](self) for
/// the invariants.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTimeline {
    /// Earliest start time for new work, per processor.
    release: Vec<f64>,
}

impl OccupancyTimeline {
    /// An empty timeline over `m` processors: all floors at `0.0`.
    pub fn new(m: usize) -> Self {
        OccupancyTimeline {
            release: vec![0.0; m],
        }
    }

    /// Number of processors tracked.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.release.len()
    }

    /// `true` when the timeline is behaviorally invisible: every floor
    /// at `0.0`.
    pub fn is_empty(&self) -> bool {
        self.release.iter().all(|&r| r == 0.0)
    }

    /// The release floor of processor `j` — the earliest time a new
    /// replica may start there.
    #[inline]
    pub fn release_floor(&self, j: usize) -> f64 {
        self.release[j]
    }

    /// All release floors, indexed by processor.
    #[inline]
    pub fn floors(&self) -> &[f64] {
        &self.release
    }

    /// Occupies processor `j` over the span `[start, end)`, raising its
    /// floor to `end`. Spans must be appended in order: `start` must be
    /// at or after the current floor (up to a small numerical slack).
    pub fn insert(&mut self, j: usize, start: f64, end: f64) {
        debug_assert!(
            start >= self.release[j] - 1e-9,
            "occupancy insert out of order on P{j}: start {start} < floor {}",
            self.release[j]
        );
        assert!(
            end >= start && start.is_finite() && end.is_finite(),
            "occupancy interval must be finite with end >= start"
        );
        if end > self.release[j] {
            self.release[j] = end;
        }
    }

    /// Raises every floor to at least `t` (e.g. the arrival instant of a
    /// new DAG: nothing on its behalf can start earlier). Floors already
    /// past `t` are untouched — the floor never decreases.
    pub fn advance(&mut self, t: f64) {
        for r in &mut self.release {
            if *r < t {
                *r = t;
            }
        }
    }

    /// Resets every floor to `0.0`, the empty state.
    pub fn reset(&mut self) {
        self.release.iter_mut().for_each(|r| *r = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_is_invisible() {
        let occ = OccupancyTimeline::new(4);
        assert!(occ.is_empty());
        assert_eq!(occ.num_procs(), 4);
        assert_eq!(occ.floors(), &[0.0; 4]);
    }

    #[test]
    fn insert_raises_floor_and_keeps_intervals_sorted() {
        let mut occ = OccupancyTimeline::new(2);
        occ.insert(0, 0.0, 2.0);
        occ.insert(0, 2.5, 4.0);
        occ.insert(1, 1.0, 3.0);
        assert_eq!(occ.release_floor(0), 4.0);
        assert_eq!(occ.release_floor(1), 3.0);
        assert!(!occ.is_empty());
        // A span starting before the floor would overlap the last one.
        if cfg!(debug_assertions) {
            let overlapping = std::panic::catch_unwind(move || occ.insert(0, 3.0, 5.0));
            assert!(overlapping.is_err(), "out-of-order insert accepted");
        }
    }

    #[test]
    fn zero_length_interval_not_recorded_but_floor_kept() {
        let mut occ = OccupancyTimeline::new(1);
        occ.insert(0, 5.0, 5.0);
        assert_eq!(occ.release_floor(0), 5.0);
        assert!(!occ.is_empty());
    }

    #[test]
    fn advance_is_monotone() {
        let mut occ = OccupancyTimeline::new(3);
        occ.insert(2, 0.0, 7.0);
        occ.advance(5.0);
        assert_eq!(occ.floors(), &[5.0, 5.0, 7.0]);
        occ.advance(2.0); // never lowers
        assert_eq!(occ.floors(), &[5.0, 5.0, 7.0]);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut occ = OccupancyTimeline::new(2);
        occ.insert(0, 0.0, 3.0);
        occ.advance(1.0);
        occ.reset();
        assert!(occ.is_empty());
        assert_eq!(occ.floors(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn insert_rejects_inverted_interval() {
        let mut occ = OccupancyTimeline::new(1);
        occ.insert(0, 2.0, 1.0);
    }
}
