//! Unit tests of FTBAR ([`Algorithm::Ftbar`], Section 5), the
//! baseline, and of its Minimize-Start-Time duplication ablation.

use crate::error::ScheduleError;
use crate::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis};
use crate::{schedule, Algorithm};

mod tests {
    use super::*;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::{ExecutionMatrix, Instance, Platform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::{DagBuilder, TaskId};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF7BA)
    }

    /// FTBAR with its Minimize-Start-Time duplication pass switched off.
    fn ftbar_without_duplication() -> ListScheduler {
        ListScheduler::new(
            PriorityAxis::Pressure,
            PlacementAxis::MinStart { duplicate: false },
            CommAxis::AllToAll,
        )
    }

    fn diamond_instance(m: usize) -> Instance {
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|_| b.add_task(10.0)).collect();
        b.add_edge(t[0], t[1], 5.0);
        b.add_edge(t[0], t[2], 5.0);
        b.add_edge(t[1], t[3], 5.0);
        b.add_edge(t[2], t[3], 5.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(m, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &vec![1.0; m]);
        Instance::new(dag, plat, exec)
    }

    #[test]
    fn primary_replicas_on_distinct_processors() {
        let inst = diamond_instance(4);
        for eps in [0usize, 1, 2] {
            let s = schedule(&inst, eps, Algorithm::Ftbar, &mut rng()).unwrap();
            for t in inst.dag.tasks() {
                let reps = s.replicas_of(t);
                assert!(reps.len() > eps);
                let primaries: std::collections::HashSet<_> =
                    reps[..eps + 1].iter().map(|r| r.proc).collect();
                assert_eq!(primaries.len(), eps + 1);
            }
        }
    }

    #[test]
    fn too_few_processors_rejected() {
        let inst = diamond_instance(2);
        assert!(matches!(
            schedule(&inst, 2, Algorithm::Ftbar, &mut rng()),
            Err(ScheduleError::NotEnoughProcessors { .. })
        ));
    }

    #[test]
    fn bounds_ordered() {
        let inst = diamond_instance(4);
        let s = schedule(&inst, 2, Algorithm::Ftbar, &mut rng()).unwrap();
        assert!(s.latency_lower_bound() <= s.latency_upper_bound() + 1e-9);
    }

    #[test]
    fn duplication_never_hurts_lower_bound() {
        let mut r = StdRng::seed_from_u64(31);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let with = schedule(&inst, 1, Algorithm::Ftbar, &mut StdRng::seed_from_u64(1))
            .unwrap()
            .latency_lower_bound();
        let without = ftbar_without_duplication()
            .run(&inst, 1, &mut StdRng::seed_from_u64(1))
            .unwrap()
            .latency_lower_bound();
        // Duplication is accepted only when it strictly lowers a start
        // time, but interactions across steps can still go either way;
        // require it not to blow up the schedule.
        assert!(with <= without * 1.25 + 1e-9);
    }

    #[test]
    fn ftsa_tends_to_beat_ftbar_on_lower_bound() {
        // The paper's headline experimental claim: "FTSA always
        // outperforms FTBAR in terms of lower bound". Check it holds on
        // average over several random instances (individual instances may
        // tie or flip due to tie-breaking).
        let mut wins = 0usize;
        let mut total = 0usize;
        for seed in 0..8u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let inst = paper_instance(
                &mut r,
                &PaperInstanceConfig {
                    granularity: 1.0,
                    ..Default::default()
                },
            );
            let f = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .latency_lower_bound();
            let b = schedule(&inst, 1, Algorithm::Ftbar, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .latency_lower_bound();
            if f <= b + 1e-9 {
                wins += 1;
            }
            total += 1;
        }
        assert!(
            wins * 2 > total,
            "FTSA should win on at least half the instances ({wins}/{total})"
        );
    }

    #[test]
    fn schedule_order_is_topological() {
        let inst = diamond_instance(4);
        let s = schedule(&inst, 1, Algorithm::Ftbar, &mut rng()).unwrap();
        let mut pos = vec![usize::MAX; inst.num_tasks()];
        for (i, t) in s.schedule_order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for (_, src, dst, _) in inst.dag.edge_list() {
            assert!(pos[src.index()] < pos[dst.index()]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = diamond_instance(4);
        let a = schedule(&inst, 1, Algorithm::Ftbar, &mut StdRng::seed_from_u64(77)).unwrap();
        let b = schedule(&inst, 1, Algorithm::Ftbar, &mut StdRng::seed_from_u64(77)).unwrap();
        assert_eq!(a.replicas, b.replicas);
    }

    #[test]
    fn duplication_collocates_heavy_parent() {
        // Parent with huge output volume; duplicating it onto the child's
        // processor(s) avoids the transfer. Build a two-proc-friendly
        // case: parent on P0, child would start late anywhere else.
        let mut b = DagBuilder::new();
        let p = b.add_task(1.0);
        let q = b.add_task(1.0); // decoy entry occupying the other proc
        let c = b.add_task(1.0);
        b.add_edge(p, c, 1000.0);
        b.add_edge(q, c, 1.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(3, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0, 1.0]);
        let inst = Instance::new(dag, plat, exec);
        let s = schedule(&inst, 0, Algorithm::Ftbar, &mut rng()).unwrap();
        // c must be collocated with *some* replica of p (original or
        // duplicate), making the huge edge free.
        let cproc = s.replicas_of(c)[0].proc;
        assert!(
            s.replicas_of(p).iter().any(|r| r.proc == cproc),
            "minimize-start-time must collocate the critical parent"
        );
    }
}
