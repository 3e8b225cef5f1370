//! Unit tests of FTSA ([`Algorithm::Ftsa`], Section 4.1) and of its
//! priority ablation: criticalness `tℓ + bℓ` against the static bottom
//! level, on FTSA's best-finish placement and all-to-all communication.

use crate::error::ScheduleError;
use crate::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis};
use crate::{schedule, Algorithm};

mod tests {
    use super::*;
    use platform::{ExecutionMatrix, FailureScenario, Instance, Platform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taskgraph::{DagBuilder, TaskId};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF75A)
    }

    /// FTSA's placement and communication axes under another priority:
    /// the ablation of Section 4.1's criticalness against the static
    /// bottom level.
    fn ftsa_with(priority: PriorityAxis) -> ListScheduler {
        ListScheduler::new(priority, PlacementAxis::BestFinish, CommAxis::AllToAll)
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
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng()).unwrap();
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
            let s = schedule(&inst, eps, Algorithm::Ftsa, &mut rng()).unwrap();
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
        let err = schedule(&inst, 3, Algorithm::Ftsa, &mut rng()).unwrap_err();
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
            let s = schedule(&inst, eps, Algorithm::Ftsa, &mut rng()).unwrap();
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
        let l0 = schedule(&inst, 0, Algorithm::Ftsa, &mut rng())
            .unwrap()
            .latency_lower_bound();
        let l2 = schedule(&inst, 2, Algorithm::Ftsa, &mut rng())
            .unwrap()
            .latency_lower_bound();
        assert!(l2 >= l0 - 1e-9);
    }

    #[test]
    fn schedule_order_is_topological() {
        let inst = diamond_instance();
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng()).unwrap();
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
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut rng()).unwrap();
        for j in 0..s.num_procs() {
            let mut last_lb = 0.0f64;
            let mut last_ub = 0.0f64;
            for &(t, k) in s.proc_order(j) {
                let r = s.replicas_of(t)[k as usize];
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
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng()).unwrap();
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
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng()).unwrap();
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
        let a = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.schedule_order, b.schedule_order);
    }

    #[test]
    fn empty_dag() {
        let dag = DagBuilder::new().build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::from_fn(0, 2, |_, _| 1.0);
        let inst = Instance::new(dag, plat, exec);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng()).unwrap();
        assert_eq!(s.latency_lower_bound(), 0.0);
        assert_eq!(s.latency_upper_bound(), 0.0);
    }

    #[test]
    fn equal_priorities_pop_in_decreasing_token_order() {
        // 64 independent tasks with identical costs: every criticalness
        // and bottom level is equal, so the free list's random tie token
        // alone orders the pops. The pipeline draws one token per entry
        // task, in entry order, before it schedules anything.
        let mut b = DagBuilder::new();
        for _ in 0..64 {
            b.add_task(10.0);
        }
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(4, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0; 4]);
        let inst = Instance::new(dag, plat, exec);
        let mut tokens = rng();
        let mut expected: Vec<(u64, TaskId)> = inst
            .dag
            .entries()
            .iter()
            .map(|&t| (tokens.gen(), t))
            .collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        let expected: Vec<TaskId> = expected.into_iter().map(|(_, t)| t).collect();
        for policy in [PriorityAxis::Criticalness, PriorityAxis::BottomLevel] {
            let s = ftsa_with(policy).run(&inst, 1, &mut rng()).unwrap();
            assert_eq!(s.schedule_order, expected, "{policy:?}");
        }
    }

    #[test]
    fn priority_policies_both_produce_valid_schedules() {
        use platform::gen::{paper_instance, PaperInstanceConfig};
        let mut r = StdRng::seed_from_u64(404);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        for policy in [PriorityAxis::Criticalness, PriorityAxis::BottomLevel] {
            let s = ftsa_with(policy)
                .run(&inst, 2, &mut StdRng::seed_from_u64(1))
                .unwrap();
            crate::validate::validate(&inst, &s).unwrap();
        }
    }

    #[test]
    fn priority_ablation_static_rank_wins_under_append_only_placement() {
        // Ablation finding: the paper's
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
            crit_total += ftsa_with(PriorityAxis::Criticalness)
                .run(&inst, 1, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .latency_lower_bound();
            static_total += ftsa_with(PriorityAxis::BottomLevel)
                .run(&inst, 1, &mut StdRng::seed_from_u64(seed))
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
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng()).unwrap();
        let scen = FailureScenario::uniform(&mut rng(), 3, 1);
        assert!(scen.len() <= s.epsilon);
    }
}
