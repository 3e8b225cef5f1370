//! Bi-criteria drivers (Section 4.3): latency ↔ fault tolerance.
//!
//! Three modes, exactly as the paper discusses:
//!
//! * **Fixed latency → maximize ε, linear scan**: schedule for ε = 0, 1,
//!   2, … until the guaranteed latency `M` exceeds the budget.
//! * **Fixed latency → maximize ε, binary search**: faster; note that
//!   feasibility of a *heuristic* is not perfectly monotone in ε, so the
//!   result is verified and the scan falls back one step if needed.
//! * **Both fixed**: per-task deadlines `d(t)` are propagated in reverse
//!   topological order with average costs over the `ε+1` *fastest*
//!   processors and links; the FTSA loop aborts as soon as a scheduled
//!   task cannot meet its deadline, detecting infeasibility *before* the
//!   end of the scheduling process.

use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::workspace::ScheduleWorkspace;
use crate::Algorithm;
use platform::Instance;
use rand::Rng;
use rand::SeedableRng;

/// Result of a maximize-ε search.
#[derive(Debug, Clone)]
pub struct MaxEpsilon {
    /// The largest tolerated failure count found.
    pub epsilon: usize,
    /// The schedule achieving it.
    pub schedule: Schedule,
}

/// Runs one FTSA probe into `ws`. Every ε-sweep below reuses a single
/// workspace, so the repeated scheduling inside a search allocates
/// nothing after the first probe (schedules are only cloned out when
/// they become the search's current best).
fn run_at(inst: &Instance, eps: usize, seed: u64, ws: &mut ScheduleWorkspace) -> bool {
    // Each ε gets its own deterministic tie-break stream so the search is
    // reproducible regardless of probe order.
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(seed ^ (eps as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Algorithm::Ftsa
        .scheduler()
        .run_into(inst, eps, &mut rng, ws)
        .is_ok()
}

/// Linear scan: the paper's "simplest way" — schedule for 1 failure, then
/// 2, … while the guaranteed latency `M` stays within `budget`.
/// Returns `None` when even ε = 0 misses the budget.
pub fn max_epsilon_linear(inst: &Instance, budget: f64, seed: u64) -> Option<MaxEpsilon> {
    let mut ws = ScheduleWorkspace::new();
    let mut best: Option<MaxEpsilon> = None;
    for eps in 0..inst.num_procs() {
        if run_at(inst, eps, seed, &mut ws) && ws.schedule().latency_upper_bound() <= budget + 1e-9
        {
            best = Some(MaxEpsilon {
                epsilon: eps,
                schedule: ws.schedule().clone(),
            });
        } else {
            break;
        }
    }
    best
}

/// Binary search on ε — the paper's "better solution". Heuristic
/// feasibility may not be monotone, so the candidate is verified and
/// the probe falls back toward smaller ε when needed.
pub fn max_epsilon_binary(inst: &Instance, budget: f64, seed: u64) -> Option<MaxEpsilon> {
    let mut ws = ScheduleWorkspace::new();
    let feasible = |eps: usize, ws: &mut ScheduleWorkspace| -> bool {
        run_at(inst, eps, seed, ws) && ws.schedule().latency_upper_bound() <= budget + 1e-9
    };
    let mut lo = 0usize;
    let mut hi = inst.num_procs() - 1;
    if !feasible(lo, &mut ws) {
        return None;
    }
    // Invariant: lo is feasible; shrink [lo, hi] to the last feasible ε.
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if feasible(mid, &mut ws) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    feasible(lo, &mut ws).then(|| MaxEpsilon {
        epsilon: lo,
        schedule: ws.take_schedule(),
    })
}

/// Per-task deadlines of Section 4.3 for latency budget `latency` and
/// `epsilon` tolerated failures:
///
/// ```text
/// d(t) = L                                              if Γ⁺(t) = ∅
/// d(t) = min_{s ∈ Γ⁺(t)} { d(s) − Ē(s) − W̄(t, s) }      otherwise
/// ```
///
/// where `Ē` averages over the `ε+1` fastest processors and `W̄` uses the
/// mean delay of the `ε+1` fastest links.
pub fn deadlines(inst: &Instance, latency: f64, epsilon: usize) -> Vec<f64> {
    let dag = &inst.dag;
    let fast_links = inst.platform.average_delay_fastest_links(epsilon + 1);
    let mut d = vec![latency; dag.num_tasks()];
    for &t in dag.topological_order().iter().rev() {
        if dag.out_degree(t) == 0 {
            d[t.index()] = latency;
        } else {
            d[t.index()] = dag
                .succs(t)
                .iter()
                .map(|&(s, eid)| {
                    let e_avg = inst.exec.average_on_fastest_procs(s.index(), epsilon + 1);
                    let w_avg = dag.volume(eid) * fast_links;
                    d[s.index()] - e_avg - w_avg
                })
                .fold(f64::INFINITY, f64::min);
        }
    }
    d
}

/// FTSA with both criteria fixed: returns the schedule if both the
/// failure count and the latency can be honored, or
/// [`ScheduleError::DeadlineViolated`] at the first task proving the
/// combination infeasible.
pub fn ftsa_both_criteria(
    inst: &Instance,
    epsilon: usize,
    latency: f64,
    rng: &mut impl Rng,
) -> Result<Schedule, ScheduleError> {
    let d = deadlines(inst, latency, epsilon);
    Algorithm::Ftsa
        .scheduler()
        .run_with_deadlines(inst, epsilon, rng, Some(&d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;

    fn inst() -> Instance {
        let mut r = StdRng::seed_from_u64(100);
        paper_instance(&mut r, &PaperInstanceConfig::default())
    }

    #[test]
    fn deadlines_decrease_upstream() {
        let inst = inst();
        let d = deadlines(&inst, 1000.0, 1);
        for (_, s, t, _) in inst.dag.edge_list() {
            assert!(
                d[s.index()] < d[t.index()] + 1e-9,
                "a task's deadline must be earlier than its successors'"
            );
        }
        for t in inst.dag.exits() {
            assert_eq!(d[t.index()], 1000.0);
        }
    }

    #[test]
    fn generous_budget_tolerates_many_failures() {
        let inst = inst();
        let wide = max_epsilon_linear(&inst, f64::INFINITY, 7).unwrap();
        assert_eq!(
            wide.epsilon,
            inst.num_procs() - 1,
            "infinite budget should allow m-1 failures"
        );
    }

    #[test]
    fn zero_budget_is_infeasible() {
        let inst = inst();
        assert!(max_epsilon_linear(&inst, 0.0, 7).is_none());
        assert!(max_epsilon_binary(&inst, 0.0, 7).is_none());
    }

    #[test]
    fn binary_matches_linear_on_moderate_budget() {
        let inst = inst();
        // Budget: 1.3x the ε=0 guaranteed latency — somewhere in between.
        let mut ws = ScheduleWorkspace::new();
        assert!(run_at(&inst, 0, 7, &mut ws));
        let base = ws.schedule().latency_upper_bound();
        let budget = base * 1.3;
        let lin = max_epsilon_linear(&inst, budget, 7);
        let bin = max_epsilon_binary(&inst, budget, 7);
        match (lin, bin) {
            (Some(l), Some(b)) => {
                // Binary search may land on a different (even larger)
                // feasible ε when feasibility is non-monotone; both must
                // honor the budget.
                assert!(l.schedule.latency_upper_bound() <= budget + 1e-9);
                assert!(b.schedule.latency_upper_bound() <= budget + 1e-9);
            }
            (None, None) => {}
            (l, b) => panic!(
                "search modes disagree on feasibility: linear={:?} binary={:?}",
                l.map(|x| x.epsilon),
                b.map(|x| x.epsilon)
            ),
        }
    }

    #[test]
    fn both_criteria_feasible_with_loose_latency() {
        let inst = inst();
        let mut ws = ScheduleWorkspace::new();
        assert!(run_at(&inst, 1, 7, &mut ws));
        let loose = ws.schedule().latency_upper_bound() * 4.0;
        let mut rng = StdRng::seed_from_u64(7);
        let s = ftsa_both_criteria(&inst, 1, loose, &mut rng).unwrap();
        assert!(s.latency_upper_bound() <= loose);
    }

    #[test]
    fn both_criteria_detects_infeasibility_early() {
        let inst = inst();
        let mut rng = StdRng::seed_from_u64(7);
        let err = ftsa_both_criteria(&inst, 2, 1.0, &mut rng).unwrap_err();
        assert!(matches!(err, ScheduleError::DeadlineViolated { .. }));
    }
}
