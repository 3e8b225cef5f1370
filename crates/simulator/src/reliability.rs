//! Reliability analysis: the failure-probability model of the paper's
//! future work (Section 7: "we want to study a more complex failure
//! model, in which we would also account for the failure probability of
//! the application").
//!
//! Processors fail independently with probability `p` (fail-stop, from
//! time 0). A schedule *survives* a failure pattern when every task
//! keeps at least one live, non-starved replica. Two estimators:
//!
//! * [`survival_probability_exact`] — sums over all `2^m` failure
//!   patterns. The per-pattern check reduces to bitmask tests: a task
//!   dies iff the failure mask covers its replica-processor mask, so the
//!   exact computation handles up to [`MAX_EXACT_PROCS`] processors
//!   comfortably after mask deduplication.
//! * [`survival_probability_monte_carlo_par`] — samples failure
//!   patterns and replays each through the static crash pass (rerouted
//!   delivery) on its worker's [`CrashWorkspace`], prepared once for the
//!   schedule: like the crash-replication driver, a sample only redraws
//!   the scenario in place ([`FailureScenario::refill_independent`]) and
//!   replays it. Also reports the conditional expected latency
//!   `E[L | survival]`. Any schedule the pass replays is covered, FTBAR's
//!   late duplicates included.
//!
//! [`CrashWorkspace`]: crate::crash::CrashWorkspace
//! [`FailureScenario::refill_independent`]: platform::FailureScenario::refill_independent
//!
//! For all-to-all communication the mask reduction is *exact* (Theorem
//! 4.1's argument: a task dies iff all its replica processors fail).
//! For matched communication under the rerouted delivery policy the same
//! rule applies (see `crash.rs`), so both schedule families are covered.

use crate::crash::{fold_replays, replay_drawn};
use ftsched_core::Schedule;
use platform::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The most processors [`survival_probability_exact`] enumerates the
/// `2^m` failure patterns of; a campaign spec asking for exact
/// reliability on a larger platform point fails its `validate`.
pub const MAX_EXACT_PROCS: usize = 24;

/// Per-task replica-processor masks, deduplicated. The schedule fails
/// under failure mask `F` iff some task mask `T` satisfies `T & F == T`.
fn task_masks(sched: &Schedule, m: usize) -> Vec<u64> {
    assert!(
        m <= 64,
        "mask-based reliability supports up to 64 processors"
    );
    let mut masks: Vec<u64> = sched
        .tasks_replicas()
        .filter(|reps| !reps.is_empty())
        .map(|reps| {
            reps.iter()
                .fold(0u64, |acc, r| acc | (1u64 << r.proc.index()))
        })
        .collect();
    masks.sort_unstable();
    masks.dedup();
    // Drop masks that are supersets of another mask: if the smaller mask
    // is fully failed, the schedule already failed.
    let reduced: Vec<u64> = masks
        .iter()
        .copied()
        .filter(|&t| !masks.iter().any(|&o| o != t && (t & o) == o))
        .collect();
    reduced
}

/// Exact probability that the schedule survives iid per-processor
/// failure probability `p` (any number of failures may occur — this goes
/// beyond the `≤ ε` design point).
///
/// # Panics
///
/// If `p` is outside `[0, 1]` or the instance has more than
/// [`MAX_EXACT_PROCS`] processors.
pub fn survival_probability_exact(inst: &Instance, sched: &Schedule, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    let m = inst.num_procs();
    assert!(
        m <= MAX_EXACT_PROCS,
        "exact enumeration is exponential; use Monte Carlo beyond {MAX_EXACT_PROCS}"
    );
    let masks = task_masks(sched, m);
    if masks.is_empty() {
        return 1.0;
    }
    let mut survive = 0.0f64;
    for f in 0u64..(1u64 << m) {
        // Subset test, not equality — clippy's `contains` rewrite would
        // change the semantics.
        #[allow(clippy::manual_contains)]
        let dead_task = masks.iter().any(|&t| (t & f) == t);
        if dead_task {
            continue; // some task lost every replica
        }
        let k = f.count_ones() as i32;
        survive += p.powi(k) * (1.0 - p).powi(m as i32 - k);
    }
    survive
}

/// Result of a Monte Carlo reliability estimate.
#[derive(Debug, Clone)]
pub struct MonteCarloReliability {
    /// Estimated survival probability.
    pub survival: f64,
    /// Mean achieved latency conditioned on survival (`NaN` when no
    /// sample survived).
    pub expected_latency: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

/// Parallel Monte Carlo estimate of the survival probability and the
/// conditional expected latency under iid per-processor failure
/// probability `p`, on `threads` workers of
/// [`crate::parallel::parallel_map_into`].
///
/// Sample `i` draws its failure pattern from
/// [`crate::replication_seed`]`(base_seed, i)`, one `gen_bool(p)` per
/// processor in index order, and replays it on its worker's
/// [`CrashWorkspace`](crate::crash::CrashWorkspace), prepared once per
/// worker. The executor's sink folds each outcome into a
/// [`ReplicationSummary`](crate::crash::ReplicationSummary) in sample
/// order on the calling thread, so the estimate (including the
/// floating-point latency mean) is bit-identical at any thread count,
/// and memory does not grow with `samples`.
pub fn survival_probability_monte_carlo_par(
    inst: &Instance,
    sched: &Schedule,
    p: f64,
    samples: usize,
    base_seed: u64,
    threads: usize,
) -> MonteCarloReliability {
    assert!((0.0..=1.0).contains(&p));
    assert!(samples > 0);
    let m = inst.num_procs();
    let runs = fold_replays(inst, sched, samples, threads, |ws, i| {
        let mut rng = StdRng::seed_from_u64(crate::replication_seed(base_seed, i as u64));
        replay_drawn(inst, sched, ws, |scenario, _| {
            scenario.refill_independent(&mut rng, m, p)
        })
    });
    MonteCarloReliability {
        survival: runs.completed as f64 / samples as f64,
        expected_latency: runs.mean_latency().unwrap_or(f64::NAN),
        samples,
    }
}

/// Probability that *at most* `epsilon` of `m` processors fail — the
/// design point the ε-replication targets. `P(valid) ≥ P(≤ ε failures)`
/// always holds by Theorem 4.1.
pub fn design_point_probability(m: usize, epsilon: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    let mut total = 0.0f64;
    for k in 0..=epsilon.min(m) {
        total += binomial(m, k) * p.powi(k as i32) * (1.0 - p).powi((m - k) as i32);
    }
    total.min(1.0)
}

fn binomial(n: usize, k: usize) -> f64 {
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_core::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::{FailureScenario, ProcId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_instance(procs: usize, seed: u64) -> Instance {
        let mut r = StdRng::seed_from_u64(seed);
        paper_instance(
            &mut r,
            &PaperInstanceConfig {
                tasks_lo: 25,
                tasks_hi: 25,
                procs,
                ..Default::default()
            },
        )
    }

    #[test]
    fn zero_failure_probability_means_certainty() {
        let inst = small_instance(6, 1);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(survival_probability_exact(&inst, &s, 0.0), 1.0);
    }

    #[test]
    fn all_processors_failing_kills_everything() {
        let inst = small_instance(6, 2);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(2)).unwrap();
        let surv = survival_probability_exact(&inst, &s, 1.0);
        assert!(surv.abs() < 1e-12);
    }

    #[test]
    fn survival_dominates_design_point() {
        // Theorem 4.1 probabilistically: P(survive) >= P(<= eps failures).
        let inst = small_instance(8, 3);
        for eps in [1usize, 2] {
            let s = schedule(&inst, eps, Algorithm::Ftsa, &mut StdRng::seed_from_u64(3)).unwrap();
            for p in [0.05, 0.2, 0.5] {
                let surv = survival_probability_exact(&inst, &s, p);
                let dp = design_point_probability(8, eps, p);
                assert!(
                    surv >= dp - 1e-12,
                    "eps={eps} p={p}: survival {surv} < design point {dp}"
                );
            }
        }
    }

    #[test]
    fn replication_improves_reliability() {
        let inst = small_instance(8, 4);
        let p = 0.3;
        let mut last = 0.0;
        for eps in [0usize, 1, 2, 3] {
            let s = schedule(&inst, eps, Algorithm::Ftsa, &mut StdRng::seed_from_u64(4)).unwrap();
            let surv = survival_probability_exact(&inst, &s, p);
            assert!(
                surv >= last - 1e-9,
                "more replicas must not hurt reliability"
            );
            last = surv;
        }
        assert!(last > 0.5, "eps=3 of 8 procs at p=0.3 should be quite safe");
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        // One worker thread replays every sample on one workspace.
        let inst = small_instance(7, 5);
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
        let p = 0.25;
        let exact = survival_probability_exact(&inst, &s, p);
        let mc = survival_probability_monte_carlo_par(&inst, &s, p, 4000, 99, 1);
        assert!(
            (mc.survival - exact).abs() < 0.03,
            "MC {} vs exact {exact}",
            mc.survival
        );
        if mc.survival > 0.0 {
            assert!(mc.expected_latency >= s.latency_lower_bound() - 1e-6);
        }
    }

    #[test]
    fn parallel_monte_carlo_agrees_with_exact() {
        let inst = small_instance(7, 8);
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(8)).unwrap();
        let p = 0.25;
        let exact = survival_probability_exact(&inst, &s, p);
        let mc = survival_probability_monte_carlo_par(&inst, &s, p, 4000, 0xAB5EED, 2);
        assert!(
            (mc.survival - exact).abs() < 0.03,
            "parallel MC {} vs exact {exact}",
            mc.survival
        );
        if mc.survival > 0.0 {
            assert!(mc.expected_latency >= s.latency_lower_bound() - 1e-6);
        }
    }

    #[test]
    fn parallel_monte_carlo_is_thread_count_invariant() {
        let inst = small_instance(6, 9);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(9)).unwrap();
        let a = survival_probability_monte_carlo_par(&inst, &s, 0.3, 1000, 17, 1);
        let b = survival_probability_monte_carlo_par(&inst, &s, 0.3, 1000, 17, 5);
        assert_eq!(a.survival.to_bits(), b.survival.to_bits());
        assert_eq!(a.expected_latency.to_bits(), b.expected_latency.to_bits());
    }

    #[test]
    fn matched_schedules_supported() {
        let inst = small_instance(6, 6);
        let s = schedule(
            &inst,
            2,
            Algorithm::McFtsaGreedy,
            &mut StdRng::seed_from_u64(6),
        )
        .unwrap();
        let surv = survival_probability_exact(&inst, &s, 0.2);
        assert!((0.0..=1.0).contains(&surv));
        // Sanity against Monte Carlo (which uses rerouted replay).
        let mc = survival_probability_monte_carlo_par(&inst, &s, 0.2, 3000, 7, 2);
        assert!((mc.survival - surv).abs() < 0.04);
    }

    #[test]
    fn ftbar_duplicates_are_thread_count_invariant() {
        // FTBAR appends late duplicates (more than ε+1 replicas of a
        // task), which the crash pass replays like any replica.
        let inst = small_instance(6, 10);
        let s = schedule(&inst, 2, Algorithm::Ftbar, &mut StdRng::seed_from_u64(10)).unwrap();
        assert!(
            inst.dag
                .tasks()
                .any(|t| s.replicas_of(t).len() > s.epsilon + 1),
            "the instance must exercise duplicates"
        );
        let a = survival_probability_monte_carlo_par(&inst, &s, 0.2, 1000, 23, 1);
        let b = survival_probability_monte_carlo_par(&inst, &s, 0.2, 1000, 23, 4);
        assert_eq!(a.survival.to_bits(), b.survival.to_bits());
        assert_eq!(a.expected_latency.to_bits(), b.expected_latency.to_bits());
        assert!(a.survival > 0.0 && a.expected_latency.is_finite());
    }

    #[test]
    fn monte_carlo_equals_a_per_sample_simulate_reference() {
        // Each sample drawn and replayed on its own, through a fresh
        // scenario and `simulate`: the prepared-workspace driver must
        // give the same bits at any thread count.
        let inst = small_instance(6, 11);
        let (p, samples, seed) = (0.25, 300, 31);
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
            let s = schedule(&inst, 2, alg, &mut StdRng::seed_from_u64(11)).unwrap();
            let mut latencies = Vec::new();
            for i in 0..samples {
                let mut rng = StdRng::seed_from_u64(crate::replication_seed(seed, i as u64));
                let failed: Vec<ProcId> = (0..inst.num_procs() as u32)
                    .map(ProcId)
                    .filter(|_| rng.gen_bool(p))
                    .collect();
                let sim = crate::simulate(&inst, &s, &FailureScenario::at_time_zero(failed));
                if sim.completed() {
                    latencies.push(sim.latency);
                }
            }
            assert!(
                latencies.len() < samples && !latencies.is_empty(),
                "{alg:?}: the draw must both kill and spare the schedule"
            );
            let survival = latencies.len() as f64 / samples as f64;
            let expected = latencies.iter().sum::<f64>() / latencies.len() as f64;
            for threads in [1, 4] {
                let mc = survival_probability_monte_carlo_par(&inst, &s, p, samples, seed, threads);
                assert_eq!(
                    mc.survival.to_bits(),
                    survival.to_bits(),
                    "{alg:?} x{threads}"
                );
                assert_eq!(
                    mc.expected_latency.to_bits(),
                    expected.to_bits(),
                    "{alg:?} x{threads}"
                );
            }
        }
    }

    #[test]
    fn design_point_formula() {
        // m=2, eps=1, p=0.5: P(0 or 1 failure) = 0.25 + 0.5 = 0.75.
        assert!((design_point_probability(2, 1, 0.5) - 0.75).abs() < 1e-12);
        assert_eq!(design_point_probability(5, 5, 0.9), 1.0);
    }
}
