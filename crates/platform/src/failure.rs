//! Fail-stop failure scenarios.
//!
//! The paper assumes *fail-silent (fail-stop)* processor failures: a
//! failed processor computes nothing and sends nothing from its failure
//! time onwards, and never recovers. The experiments of Section 6 crash
//! `ε` processors "chosen uniformly" (from time 0); mid-execution crash
//! times are supported as an extension.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A set of fail-stop failures: each failed processor with its failure
/// time (time 0 = the processor never executes anything).
///
/// Its JSON is `{"failures": [[proc, time], …]}`. Reading it checks
/// [`FailureScenario::new`]'s invariants, so a repeated processor or a
/// negative time is a named [`serde::Error`], never a later panic.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FailureScenario {
    failures: Vec<(ProcId, f64)>,
}

/// The first invariant `failures` breaks: a processor listed twice, or
/// a time that is negative or not finite.
fn scenario_error(failures: &[(ProcId, f64)]) -> Option<String> {
    let mut seen = std::collections::HashSet::new();
    failures.iter().find_map(|&(p, t)| {
        if !seen.insert(p) {
            Some(format!("duplicate failure for {p}"))
        } else if !(t >= 0.0 && t.is_finite()) {
            Some(format!(
                "failure time of {p} must be finite and >= 0, got {t}"
            ))
        } else {
            None
        }
    })
}

impl Deserialize for FailureScenario {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut failures = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "failures" => r.field(&mut failures)?,
                _ => r.skip_value()?,
            }
        }
        let failures: Vec<(ProcId, f64)> =
            failures.ok_or_else(|| serde::Error::missing_field("failures", "FailureScenario"))?;
        match scenario_error(&failures) {
            Some(e) => Err(serde::Error::custom(format!("FailureScenario: {e}"))),
            None => Ok(FailureScenario { failures }),
        }
    }
}

impl FailureScenario {
    /// The empty scenario (no failures).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a scenario from explicit `(processor, time)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate processors or negative/non-finite times.
    pub fn new(failures: Vec<(ProcId, f64)>) -> Self {
        if let Some(e) = scenario_error(&failures) {
            panic!("{e}");
        }
        FailureScenario { failures }
    }

    /// All processors failing at time 0 — the paper's experimental model.
    pub fn at_time_zero(procs: impl IntoIterator<Item = ProcId>) -> Self {
        Self::new(procs.into_iter().map(|p| (p, 0.0)).collect())
    }

    /// Draws `count` distinct processors uniformly from `0..m`, all
    /// failing at time 0 ("processors that fail during the schedule
    /// process are chosen uniformly", Section 6). Delegates to
    /// [`FailureScenario::refill_uniform`].
    pub fn uniform(rng: &mut impl Rng, m: usize, count: usize) -> Self {
        let mut scenario = Self::none();
        let mut ids = Vec::new();
        scenario.refill_uniform(rng, m, count, &mut ids);
        scenario
    }

    /// Redraws this scenario in place with `count` distinct
    /// fail-at-time-zero processors, reusing `ids` as scratch: the timed
    /// draw at horizon 0, which takes no randomness beyond the processor
    /// draw. This is the allocation-free form the Monte-Carlo crash
    /// campaigns use between replications; [`FailureScenario::uniform`]
    /// is the owned convenience wrapper around it.
    pub fn refill_uniform(
        &mut self,
        rng: &mut impl Rng,
        m: usize,
        count: usize,
        ids: &mut Vec<u32>,
    ) {
        self.refill_uniform_timed(rng, m, count, 0.0, ids);
    }

    /// Redraws this scenario in place with every processor of `0..m`
    /// failing at time 0 independently with probability `p`: one
    /// `gen_bool(p)` per processor, in index order. Allocation-free once
    /// the internal buffer has capacity.
    pub fn refill_independent(&mut self, rng: &mut impl Rng, m: usize, p: f64) {
        self.failures.clear();
        for j in 0..m as u32 {
            if rng.gen_bool(p) {
                self.failures.push((ProcId(j), 0.0));
            }
        }
    }

    /// Empties the scenario in place (no failures), keeping capacity.
    pub fn clear(&mut self) {
        self.failures.clear();
    }

    /// Redraws this scenario in place with `count` distinct processors,
    /// drawn by a partial Fisher–Yates over `ids`, and failure times
    /// drawn uniformly in `[0, horizon]`, one per chosen processor in
    /// draw order — the mid-execution crash extension. `horizon == 0`
    /// is the fail-at-time-zero model
    /// ([`FailureScenario::refill_uniform`]) and consumes no further
    /// randomness. Allocation-free once `ids` and the internal buffer
    /// have capacity.
    pub fn refill_uniform_timed(
        &mut self,
        rng: &mut impl Rng,
        m: usize,
        count: usize,
        horizon: f64,
        ids: &mut Vec<u32>,
    ) {
        assert!(count <= m, "cannot fail more processors than exist");
        assert!(
            horizon >= 0.0 && horizon.is_finite(),
            "failure horizon must be finite and >= 0"
        );
        ids.clear();
        ids.extend(0..m as u32);
        for i in 0..count {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        self.failures.clear();
        for &i in &ids[..count] {
            let t = if horizon == 0.0 {
                0.0
            } else {
                rng.gen_range(0.0..=horizon)
            };
            self.failures.push((ProcId(i), t));
        }
    }

    /// Number of failures.
    #[inline]
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// Whether no processor fails.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure time of `p`, or `None` if `p` stays alive.
    pub fn failure_time(&self, p: ProcId) -> Option<f64> {
        self.failures
            .iter()
            .find(|&&(q, _)| q == p)
            .map(|&(_, t)| t)
    }

    /// Iterates over `(processor, time)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, f64)> + '_ {
        self.failures.iter().copied()
    }
}

/// Crash count of a [`FailureModel::Uniform`] model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformFailures {
    /// Number of distinct processors failing at time 0.
    pub crashes: usize,
}

/// Parameters of a [`FailureModel::Timed`] model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFailures {
    /// Number of distinct processors failing.
    pub crashes: usize,
    /// Failure times are drawn uniformly in `[0, horizon]`.
    pub horizon: f64,
}

/// Parameters of a [`FailureModel::TimedRelative`] model: the horizon is
/// a **fraction of a reference makespan** supplied at draw time
/// (typically the reference schedule's `M*`), so one spec point covers
/// instances of any scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedRelativeFailures {
    /// Number of distinct processors failing.
    pub crashes: usize,
    /// Failure times are drawn uniformly in `[0, fraction · reference]`.
    pub fraction: f64,
}

/// A declarative failure-injection model: *how* scenarios are drawn, as
/// opposed to [`FailureScenario`], which is one concrete draw.
///
/// This is what lets failure injection be a campaign *axis* instead of a
/// hard-coded `FailureScenario::uniform` call at every experiment site:
/// a spec names the model, and [`FailureModel::sample_into`] turns it
/// into concrete scenarios at evaluation time.
///
/// Sampling guarantees (pinned by this module's tests):
///
/// * [`FailureModel::Epsilon`] / [`FailureModel::Uniform`] draws are
///   **bit-identical** to [`FailureScenario::refill_uniform`] at the
///   same RNG state — the paper's uniform fail-at-time-zero model;
/// * [`FailureModel::Timed`] draws are bit-identical to
///   [`FailureScenario::refill_uniform_timed`] at the same RNG state:
///   failure times are finite and within `[0, horizon]`;
/// * drawn processors are always pairwise distinct, and a model whose
///   crash count exceeds the processor count is rejected (panic at the
///   draw, `Err` from spec-level validation in the campaign layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureModel {
    /// No failures (the fault-free reference).
    None,
    /// `ε` distinct processors fail at time 0, where `ε` is the
    /// tolerated-failure count of the evaluation context (Section 6's
    /// "processors that fail are chosen uniformly").
    Epsilon,
    /// A fixed number of distinct processors fail at time 0.
    Uniform(UniformFailures),
    /// Mid-execution crashes: distinct processors with failure times
    /// drawn uniformly over a horizon, reusing [`FailureScenario`]'s
    /// positive-time support.
    Timed(TimedFailures),
    /// Mid-execution crashes over a horizon expressed as a fraction of a
    /// reference makespan resolved at draw time — drawable only through
    /// [`FailureModel::sample_into_scaled`].
    TimedRelative(TimedRelativeFailures),
}

impl FailureModel {
    /// The crash count this model draws, with `epsilon` resolving
    /// [`FailureModel::Epsilon`].
    pub fn crashes(&self, epsilon: usize) -> usize {
        match *self {
            FailureModel::None => 0,
            FailureModel::Epsilon => epsilon,
            FailureModel::Uniform(UniformFailures { crashes }) => crashes,
            FailureModel::Timed(TimedFailures { crashes, .. }) => crashes,
            FailureModel::TimedRelative(TimedRelativeFailures { crashes, .. }) => crashes,
        }
    }

    /// Whether this model can produce strictly positive failure times.
    pub fn is_timed(&self) -> bool {
        match self {
            FailureModel::Timed(TimedFailures { horizon, .. }) => *horizon > 0.0,
            FailureModel::TimedRelative(TimedRelativeFailures { fraction, .. }) => *fraction > 0.0,
            _ => false,
        }
    }

    /// Whether drawing from this model needs a reference makespan
    /// ([`FailureModel::sample_into_scaled`]'s extra argument).
    pub fn needs_reference(&self) -> bool {
        matches!(self, FailureModel::TimedRelative(_))
    }

    /// Draws one scenario from this model in place, reusing `ids` as
    /// scratch (allocation-free at capacity). A resolved crash count of
    /// zero clears the scenario without consuming any randomness —
    /// exactly the historical `if crashes == 0 { none() }` sites.
    ///
    /// # Panics
    /// Panics if the resolved crash count exceeds `m`, or if the model
    /// [`needs_reference`](FailureModel::needs_reference) (use
    /// [`FailureModel::sample_into_scaled`]).
    pub fn sample_into(
        &self,
        rng: &mut impl Rng,
        m: usize,
        epsilon: usize,
        scenario: &mut FailureScenario,
        ids: &mut Vec<u32>,
    ) {
        let count = self.crashes(epsilon);
        if count == 0 {
            scenario.clear();
            return;
        }
        match *self {
            FailureModel::None => unreachable!("count == 0 handled above"),
            FailureModel::Epsilon | FailureModel::Uniform(_) => {
                scenario.refill_uniform(rng, m, count, ids);
            }
            FailureModel::Timed(TimedFailures { horizon, .. }) => {
                scenario.refill_uniform_timed(rng, m, count, horizon, ids);
            }
            FailureModel::TimedRelative(_) => {
                panic!("TimedRelative draws need a reference makespan: use sample_into_scaled")
            }
        }
    }

    /// [`FailureModel::sample_into`] with a reference makespan resolving
    /// [`FailureModel::TimedRelative`] horizons (`fraction · reference`);
    /// every other model ignores `reference` and draws identically to
    /// `sample_into` — callers with a reference at hand can route all
    /// models through this method unconditionally.
    ///
    /// # Panics
    /// Panics if the resolved crash count exceeds `m`, or if a
    /// `TimedRelative` draw is asked to scale a non-finite or negative
    /// reference.
    pub fn sample_into_scaled(
        &self,
        rng: &mut impl Rng,
        m: usize,
        epsilon: usize,
        reference: f64,
        scenario: &mut FailureScenario,
        ids: &mut Vec<u32>,
    ) {
        match *self {
            FailureModel::TimedRelative(TimedRelativeFailures { crashes, fraction }) => {
                if crashes == 0 {
                    scenario.clear();
                    return;
                }
                assert!(
                    reference.is_finite() && reference >= 0.0,
                    "TimedRelative reference makespan must be finite and >= 0, got {reference}"
                );
                scenario.refill_uniform_timed(rng, m, crashes, fraction * reference, ids);
            }
            _ => self.sample_into(rng, m, epsilon, scenario, ids),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn timed_draw(seed: u64, m: usize, count: usize, horizon: f64) -> FailureScenario {
        let mut scenario = FailureScenario::none();
        let rng = &mut StdRng::seed_from_u64(seed);
        scenario.refill_uniform_timed(rng, m, count, horizon, &mut Vec::new());
        scenario
    }

    #[test]
    fn empty_scenario() {
        let s = FailureScenario::none();
        assert!(s.is_empty());
        assert!(s.failure_time(ProcId(0)).is_none());
    }

    #[test]
    fn uniform_draws_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = FailureScenario::uniform(&mut rng, 20, 5);
            assert_eq!(s.len(), 5);
            let set: std::collections::HashSet<_> = s.iter().map(|(p, _)| p).collect();
            assert_eq!(set.len(), 5);
            assert!(s.iter().all(|(p, t)| p.index() < 20 && t == 0.0));
        }
    }

    #[test]
    fn uniform_all_processors() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = FailureScenario::uniform(&mut rng, 4, 4);
        assert_eq!(s.len(), 4);
        for p in 0..4 {
            assert!(s.failure_time(ProcId(p)).is_some());
        }
    }

    #[test]
    #[should_panic]
    fn too_many_failures_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = FailureScenario::uniform(&mut rng, 3, 4);
    }

    #[test]
    #[should_panic]
    fn duplicate_processor_panics() {
        let _ = FailureScenario::new(vec![(ProcId(1), 0.0), (ProcId(1), 5.0)]);
    }

    #[test]
    fn refill_uniform_matches_uniform_bit_for_bit() {
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        for seed in 0..20u64 {
            let fresh = FailureScenario::uniform(&mut StdRng::seed_from_u64(seed), 12, 4);
            scen.refill_uniform(&mut StdRng::seed_from_u64(seed), 12, 4, &mut scratch);
            assert_eq!(scen, fresh, "seed {seed}");
        }
        scen.clear();
        assert!(scen.is_empty());
    }

    #[test]
    fn timed_failures_within_horizon() {
        let s = timed_draw(4, 10, 3, 100.0);
        for (_, t) in s.iter() {
            assert!((0.0..=100.0).contains(&t));
        }
    }

    #[test]
    fn failure_time_lookup() {
        let s = FailureScenario::new(vec![(ProcId(2), 7.5)]);
        assert_eq!(s.failure_time(ProcId(2)), Some(7.5));
        assert_eq!(s.failure_time(ProcId(3)), None);
    }

    #[test]
    fn refill_uniform_timed_draws_the_processors_of_refill_uniform() {
        // A reused scenario and scratch draw what fresh ones draw, and
        // the processors are those of the time-0 draw at the same state.
        let mut scratch = Vec::new();
        let (mut timed, mut at_zero) = (FailureScenario::none(), FailureScenario::none());
        for seed in 0..20u64 {
            timed.refill_uniform_timed(&mut StdRng::seed_from_u64(seed), 12, 4, 37.5, &mut scratch);
            assert_eq!(timed, timed_draw(seed, 12, 4, 37.5), "seed {seed}");
            at_zero.refill_uniform(&mut StdRng::seed_from_u64(seed), 12, 4, &mut scratch);
            let procs = |s: &FailureScenario| s.iter().map(|(p, _)| p).collect::<Vec<_>>();
            assert_eq!(procs(&timed), procs(&at_zero), "seed {seed}");
        }
    }

    #[test]
    fn refill_independent_draws_one_bool_per_processor_in_order() {
        let mut scen = FailureScenario::new(vec![(ProcId(9), 3.0)]);
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            scen.refill_independent(&mut rng, 8, 0.3);
            let mut reference = StdRng::seed_from_u64(seed);
            let expected: Vec<(ProcId, f64)> = (0..8)
                .filter(|_| reference.gen_bool(0.3))
                .map(|j| (ProcId(j), 0.0))
                .collect();
            assert_eq!(scen, FailureScenario::new(expected), "seed {seed}");
            // Both generators consumed the same draws.
            assert_eq!(
                rng.gen_range(0..1_000_000),
                reference.gen_range(0..1_000_000)
            );
        }
        scen.refill_independent(&mut StdRng::seed_from_u64(1), 5, 0.0);
        assert!(scen.is_empty());
        scen.refill_independent(&mut StdRng::seed_from_u64(1), 5, 1.0);
        assert_eq!(scen.len(), 5);
    }

    #[test]
    fn model_uniform_draw_bit_identical_to_refill_uniform() {
        // Satellite contract: the declarative model's time-0 draw is the
        // *same* partial Fisher–Yates as `refill_uniform`, bit for bit.
        let mut scratch = Vec::new();
        for seed in 0..20u64 {
            for (model, count) in [
                (FailureModel::Uniform(UniformFailures { crashes: 3 }), 3),
                (FailureModel::Epsilon, 3),
            ] {
                let mut reference = FailureScenario::none();
                reference.refill_uniform(&mut StdRng::seed_from_u64(seed), 10, count, &mut scratch);
                let mut drawn = FailureScenario::none();
                model.sample_into(
                    &mut StdRng::seed_from_u64(seed),
                    10,
                    3,
                    &mut drawn,
                    &mut scratch,
                );
                assert_eq!(drawn, reference, "seed {seed} model {model:?}");
            }
        }
    }

    #[test]
    fn model_timed_draw_is_finite_in_horizon_and_distinct() {
        let model = FailureModel::Timed(TimedFailures {
            crashes: 4,
            horizon: 25.0,
        });
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            model.sample_into(&mut rng, 9, 1, &mut scen, &mut scratch);
            assert_eq!(scen.len(), 4);
            let procs: std::collections::HashSet<_> = scen.iter().map(|(p, _)| p).collect();
            assert_eq!(procs.len(), 4, "duplicate processor drawn (seed {seed})");
            for (p, t) in scen.iter() {
                assert!(p.index() < 9);
                assert!(t.is_finite() && (0.0..=25.0).contains(&t), "t = {t}");
            }
            // Bit-identical to the scenario draw at the same state.
            assert_eq!(scen, timed_draw(seed, 9, 4, 25.0));
        }
    }

    #[test]
    fn model_zero_crashes_consumes_no_randomness() {
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        let mut rng = StdRng::seed_from_u64(5);
        let before = rng.clone();
        FailureModel::None.sample_into(&mut rng, 8, 2, &mut scen, &mut scratch);
        assert!(scen.is_empty());
        FailureModel::Uniform(UniformFailures { crashes: 0 }).sample_into(
            &mut rng,
            8,
            2,
            &mut scen,
            &mut scratch,
        );
        assert!(scen.is_empty());
        FailureModel::Epsilon.sample_into(&mut rng, 8, 0, &mut scen, &mut scratch);
        assert!(scen.is_empty());
        // The generator state is untouched: next draws equal a clone's.
        let mut b = before;
        assert_eq!(rng.gen_range(0..1_000_000), b.gen_range(0..1_000_000));
    }

    #[test]
    fn timed_relative_scales_the_reference_makespan() {
        let model = FailureModel::TimedRelative(TimedRelativeFailures {
            crashes: 3,
            fraction: 0.5,
        });
        assert_eq!(model.crashes(9), 3);
        assert!(model.is_timed());
        assert!(model.needs_reference());
        assert!(!FailureModel::Epsilon.needs_reference());
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            model.sample_into_scaled(&mut rng, 8, 1, 60.0, &mut scen, &mut scratch);
            assert_eq!(scen.len(), 3);
            for (_, t) in scen.iter() {
                assert!((0.0..=30.0).contains(&t), "t = {t} outside 0.5 * 60");
            }
            // Bit-identical to the absolute-horizon draw at the resolved
            // horizon — TimedRelative is Timed with a late-bound horizon.
            assert_eq!(scen, timed_draw(seed, 8, 3, 30.0));
        }
        // Zero fraction degenerates to fail-at-time-zero, still drawable.
        let zero = FailureModel::TimedRelative(TimedRelativeFailures {
            crashes: 2,
            fraction: 0.0,
        });
        assert!(!zero.is_timed());
        zero.sample_into_scaled(
            &mut StdRng::seed_from_u64(1),
            8,
            1,
            60.0,
            &mut scen,
            &mut scratch,
        );
        assert!(scen.iter().all(|(_, t)| t == 0.0));
        // Serde round trip.
        let json = serde_json::to_string(&model).unwrap();
        let back: FailureModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    #[should_panic(expected = "sample_into_scaled")]
    fn timed_relative_rejects_unscaled_draw() {
        let model = FailureModel::TimedRelative(TimedRelativeFailures {
            crashes: 2,
            fraction: 0.5,
        });
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        model.sample_into(&mut StdRng::seed_from_u64(1), 8, 1, &mut scen, &mut scratch);
    }

    #[test]
    fn scaled_draw_matches_unscaled_for_absolute_models() {
        let mut scratch = Vec::new();
        let (mut a, mut b) = (FailureScenario::none(), FailureScenario::none());
        for model in [
            FailureModel::Epsilon,
            FailureModel::Uniform(UniformFailures { crashes: 2 }),
            FailureModel::Timed(TimedFailures {
                crashes: 2,
                horizon: 9.0,
            }),
        ] {
            model.sample_into(&mut StdRng::seed_from_u64(3), 10, 2, &mut a, &mut scratch);
            model.sample_into_scaled(
                &mut StdRng::seed_from_u64(3),
                10,
                2,
                123.0,
                &mut b,
                &mut scratch,
            );
            assert_eq!(a, b, "{model:?}");
        }
    }

    #[test]
    #[should_panic]
    fn model_overflowing_crash_count_rejected() {
        let mut scratch = Vec::new();
        let mut scen = FailureScenario::none();
        FailureModel::Uniform(UniformFailures { crashes: 5 }).sample_into(
            &mut StdRng::seed_from_u64(1),
            3,
            0,
            &mut scen,
            &mut scratch,
        );
    }

    #[test]
    fn model_crash_counts_and_serde_round_trip() {
        assert_eq!(FailureModel::None.crashes(7), 0);
        assert_eq!(FailureModel::Epsilon.crashes(7), 7);
        assert_eq!(
            FailureModel::Uniform(UniformFailures { crashes: 2 }).crashes(7),
            2
        );
        let timed = FailureModel::Timed(TimedFailures {
            crashes: 3,
            horizon: 12.0,
        });
        assert_eq!(timed.crashes(0), 3);
        assert!(timed.is_timed());
        assert!(!FailureModel::Epsilon.is_timed());
        for model in [
            FailureModel::None,
            FailureModel::Epsilon,
            FailureModel::Uniform(UniformFailures { crashes: 2 }),
            timed,
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: FailureModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }
}
