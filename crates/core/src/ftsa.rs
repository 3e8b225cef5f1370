//! FTSA — the Fault Tolerant Scheduling Algorithm (Section 4.1).
//!
//! A greedy list-scheduling heuristic driven by *task criticalness*: the
//! priority of a free task is `tℓ(t) + bℓ(t)`, the length of the longest
//! path through `t` in the partially mapped DAG. At every step the
//! critical free task is popped from `α`, an indexed `DaryHeap`, and mapped
//! onto the `ε + 1` processors that minimize its finish time (equation 1);
//! successors that become free enter `α` with refreshed priorities.
//!
//! ```text
//! Algorithm 4.1 (FTSA)
//!  1: ε ← maximum number of failures supported
//!  2: compute bℓ(t); tℓ(t) ← 0 for entry tasks
//!  4: S ← ∅; U ← V
//!  5: put entry tasks in α
//!  6: while U ≠ ∅:
//!  7:   t ← H(α)
//!  8:   compute F(t, P_j) for all j            (equation 1)
//!  9:   keep the ε+1 processors minimizing F   (the set P^(ε+1))
//! 10:   schedule t on them
//! 11:   update priorities of t's successors
//! 12:   put t's free successors in α
//! ```
//!
//! Complexity `O(e·m² + v·log ω)` (Theorem 4.2) — realized with a much
//! smaller constant by the [`crate::pipeline`]'s incremental arrival
//! caches. With `ε = 0` this is the fault-free variant used as the
//! baseline in the paper's figures.
//!
//! Since the pipeline refactor this module is a *named configuration*:
//! criticalness priority × best-finish placement × all-to-all
//! communication (see [`ListScheduler`]). The golden suite pins that it
//! still produces bit-identical schedules to the original loop.

use crate::error::ScheduleError;
use crate::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis};
use crate::schedule::Schedule;
use platform::Instance;
use rand::Rng;

/// Runs FTSA on `inst`, tolerating `epsilon` fail-stop failures.
///
/// `rng` drives the paper's random tie-breaking among equal-priority free
/// tasks; all other decisions are deterministic.
pub fn ftsa(
    inst: &Instance,
    epsilon: usize,
    rng: &mut impl Rng,
) -> Result<Schedule, ScheduleError> {
    ftsa_impl(inst, epsilon, rng, None, PriorityPolicy::Criticalness)
}

/// The free-task priority driving `H(α)` — the design choice Section 4.1
/// argues for. The ablation benches compare both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// The paper's *criticalness* `tℓ(t) + bℓ(t)` (dynamic top level +
    /// static bottom level): "the greater the criticalness, the more
    /// work is to be performed along the path containing that task".
    Criticalness,
    /// Static bottom level only (a HEFT-style upward rank): cheaper to
    /// maintain but blind to where predecessors actually landed.
    BottomLevelOnly,
}

/// FTSA with an explicit priority policy (ablation entry point).
pub fn ftsa_with_policy(
    inst: &Instance,
    epsilon: usize,
    policy: PriorityPolicy,
    rng: &mut impl Rng,
) -> Result<Schedule, ScheduleError> {
    ftsa_impl(inst, epsilon, rng, None, policy)
}

/// FTSA core with the Section 4.3 per-task deadline check: if the
/// guaranteed finish time of the scheduled task on its `ε+1` processors
/// exceeds its deadline, the run aborts with
/// [`ScheduleError::DeadlineViolated`]
/// ("Failed to satisfy both criteria simultaneously").
pub(crate) fn ftsa_impl(
    inst: &Instance,
    epsilon: usize,
    rng: &mut impl Rng,
    deadlines: Option<&[f64]>,
    policy: PriorityPolicy,
) -> Result<Schedule, ScheduleError> {
    let priority = match policy {
        PriorityPolicy::Criticalness => PriorityAxis::Criticalness,
        PriorityPolicy::BottomLevelOnly => PriorityAxis::BottomLevel,
    };
    ListScheduler::new(priority, PlacementAxis::BestFinish, CommAxis::AllToAll)
        .run_with_deadlines(inst, epsilon, rng, deadlines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecutionMatrix, FailureScenario, Platform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::{DagBuilder, TaskId};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF75A)
    }

    /// Homogeneous 3-processor platform, diamond DAG.
    fn diamond_instance() -> Instance {
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|_| b.add_task(10.0)).collect();
        b.add_edge(t[0], t[1], 5.0);
        b.add_edge(t[0], t[2], 5.0);
        b.add_edge(t[1], t[3], 5.0);
        b.add_edge(t[2], t[3], 5.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(3, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0, 1.0]);
        Instance::new(dag, plat, exec)
    }

    #[test]
    fn epsilon_zero_places_one_replica_each() {
        let inst = diamond_instance();
        let s = ftsa(&inst, 0, &mut rng()).unwrap();
        for t in inst.dag.tasks() {
            assert_eq!(s.replicas_of(t).len(), 1);
        }
        assert_eq!(s.epsilon, 0);
        // Chain t0 → t1 → t3 with works 10 each: latency >= 30.
        assert!(s.latency_lower_bound() >= 30.0);
    }

    #[test]
    fn replicas_on_distinct_processors() {
        let inst = diamond_instance();
        for eps in [0usize, 1, 2] {
            let s = ftsa(&inst, eps, &mut rng()).unwrap();
            for t in inst.dag.tasks() {
                let reps = s.replicas_of(t);
                assert_eq!(reps.len(), eps + 1);
                let procs: std::collections::HashSet<_> = reps.iter().map(|r| r.proc).collect();
                assert_eq!(procs.len(), eps + 1, "Proposition 4.1 violated");
            }
        }
    }

    #[test]
    fn too_few_processors_rejected() {
        let inst = diamond_instance();
        let err = ftsa(&inst, 3, &mut rng()).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::NotEnoughProcessors {
                epsilon: 3,
                procs: 3
            }
        );
    }

    #[test]
    fn lower_bound_below_upper_bound() {
        let inst = diamond_instance();
        for eps in [0usize, 1, 2] {
            let s = ftsa(&inst, eps, &mut rng()).unwrap();
            assert!(
                s.latency_lower_bound() <= s.latency_upper_bound() + 1e-9,
                "M* must not exceed M (eps={eps})"
            );
        }
    }

    #[test]
    fn replication_does_not_cheapen_latency() {
        // More tolerated failures can only increase the optimistic bound
        // on a fixed platform (more replicas compete for processors).
        let inst = diamond_instance();
        let l0 = ftsa(&inst, 0, &mut rng()).unwrap().latency_lower_bound();
        let l2 = ftsa(&inst, 2, &mut rng()).unwrap().latency_lower_bound();
        assert!(l2 >= l0 - 1e-9);
    }

    #[test]
    fn schedule_order_is_topological() {
        let inst = diamond_instance();
        let s = ftsa(&inst, 1, &mut rng()).unwrap();
        let mut pos = vec![usize::MAX; inst.num_tasks()];
        for (i, t) in s.schedule_order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for (_, src, dst, _) in inst.dag.edge_list() {
            assert!(pos[src.index()] < pos[dst.index()]);
        }
    }

    #[test]
    fn per_processor_intervals_disjoint() {
        let inst = diamond_instance();
        let s = ftsa(&inst, 2, &mut rng()).unwrap();
        for j in 0..s.num_procs() {
            let mut last_lb = 0.0f64;
            let mut last_ub = 0.0f64;
            for (t, k) in s.proc_order(j) {
                let r = s.replicas_of(t)[k];
                assert!(r.start_lb >= last_lb - 1e-9);
                assert!(r.start_ub >= last_ub - 1e-9);
                last_lb = r.finish_lb;
                last_ub = r.finish_ub;
            }
        }
    }

    #[test]
    fn heterogeneous_prefers_fast_processor_when_free() {
        // One fast processor (speed 10), two slow; a single task must land
        // its first replica on the fast one.
        let mut b = DagBuilder::new();
        b.add_task(100.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(3, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 10.0, 1.0]);
        let inst = Instance::new(dag, plat, exec);
        let s = ftsa(&inst, 1, &mut rng()).unwrap();
        let reps = s.replicas_of(TaskId(0));
        assert_eq!(reps[0].proc.index(), 1, "fastest processor first");
        assert_eq!(reps[0].finish_lb, 10.0);
        assert_eq!(reps[1].finish_lb, 100.0);
    }

    #[test]
    fn intra_processor_communication_is_free() {
        // Two-task chain on 2 procs, eps=0: both tasks should land on the
        // same (equally fast) processor because the communication then
        // costs nothing.
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 1000.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0]);
        let inst = Instance::new(dag, plat, exec);
        let s = ftsa(&inst, 0, &mut rng()).unwrap();
        assert_eq!(
            s.replicas_of(a)[0].proc,
            s.replicas_of(c)[0].proc,
            "huge volume must force collocation"
        );
        assert_eq!(s.latency_lower_bound(), 20.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = diamond_instance();
        let a = ftsa(&inst, 1, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = ftsa(&inst, 1, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.schedule_order, b.schedule_order);
    }

    #[test]
    fn empty_dag() {
        let dag = DagBuilder::new().build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::from_fn(0, 2, |_, _| 1.0);
        let inst = Instance::new(dag, plat, exec);
        let s = ftsa(&inst, 1, &mut rng()).unwrap();
        assert_eq!(s.latency_lower_bound(), 0.0);
        assert_eq!(s.latency_upper_bound(), 0.0);
    }

    #[test]
    fn priority_policies_both_produce_valid_schedules() {
        use platform::gen::{paper_instance, PaperInstanceConfig};
        let mut r = StdRng::seed_from_u64(404);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        for policy in [
            PriorityPolicy::Criticalness,
            PriorityPolicy::BottomLevelOnly,
        ] {
            let s = ftsa_with_policy(&inst, 2, policy, &mut StdRng::seed_from_u64(1)).unwrap();
            crate::validate::validate(&inst, &s).unwrap();
        }
    }

    #[test]
    fn priority_ablation_static_rank_wins_under_append_only_placement() {
        // Ablation finding (documented in EXPERIMENTS.md): the paper's
        // dynamic criticalness tℓ+bℓ pops late-arriving tasks first;
        // under FTSA's append-only processor timelines (no insertion into
        // idle gaps) those tasks reserve processors early and create
        // holes, so the *static* bottom-level order produces shorter
        // schedules on paper-style instances. We pin the direction and a
        // sane magnitude so a regression in either policy is caught.
        use platform::gen::{paper_instance, PaperInstanceConfig};
        let mut crit_total = 0.0;
        let mut static_total = 0.0;
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(seed + 700);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            crit_total += ftsa_with_policy(
                &inst,
                1,
                PriorityPolicy::Criticalness,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
            .latency_lower_bound();
            static_total += ftsa_with_policy(
                &inst,
                1,
                PriorityPolicy::BottomLevelOnly,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
            .latency_lower_bound();
        }
        assert!(
            static_total < crit_total,
            "expected the static rank to win here: {static_total} vs {crit_total}"
        );
        assert!(
            crit_total <= static_total * 2.0,
            "criticalness should stay within 2x: {crit_total} vs {static_total}"
        );
    }

    #[test]
    fn survives_scenario_sanity() {
        // Smoke-test that a schedule plus a failure scenario type-check
        // together; full semantics live in the simulator crate.
        let inst = diamond_instance();
        let s = ftsa(&inst, 1, &mut rng()).unwrap();
        let scen = FailureScenario::uniform(&mut rng(), 3, 1);
        assert!(scen.len() <= s.epsilon);
    }
}
