//! Unit tests of MC-FTSA (Section 4.2) with both communication
//! selectors: [`Algorithm::McFtsaGreedy`] and
//! [`Algorithm::McFtsaBottleneck`].

use crate::error::ScheduleError;
use crate::{schedule, Algorithm};

mod tests {
    use super::*;
    use crate::schedule::CommSelection;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::{ExecutionMatrix, Instance, Platform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::{DagBuilder, TaskId};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x3C57)
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
    fn message_count_is_linear_in_epsilon() {
        // Paper: e(ε+1) messages for MC-FTSA vs up to e(ε+1)² for FTSA.
        let mut r = StdRng::seed_from_u64(11);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let e = inst.dag.num_edges();
        for eps in [1usize, 2, 3] {
            let mc = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut rng()).unwrap();
            assert!(
                mc.message_count(&inst.dag) <= e * (eps + 1),
                "MC-FTSA must ship at most e(ε+1) messages"
            );
            let ft = schedule(&inst, eps, Algorithm::Ftsa, &mut rng()).unwrap();
            assert!(ft.message_count(&inst.dag) <= e * (eps + 1) * (eps + 1));
        }
    }

    #[test]
    fn matched_comm_covers_every_edge_with_eps_plus_one_pairs() {
        let inst = diamond_instance(4);
        let eps = 2;
        let s = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut rng()).unwrap();
        match &s.comm {
            CommSelection::Matched(m) => {
                assert_eq!(m.len(), inst.dag.num_edges() * (eps + 1));
                for pairs in m.chunks(eps + 1) {
                    // One-to-one on both sides.
                    let src: std::collections::HashSet<_> = pairs.iter().map(|&(k, _)| k).collect();
                    let dst: std::collections::HashSet<_> = pairs.iter().map(|&(_, r)| r).collect();
                    assert_eq!(src.len(), eps + 1);
                    assert_eq!(dst.len(), eps + 1);
                }
            }
            CommSelection::AllToAll => panic!("MC-FTSA must record matchings"),
        }
    }

    #[test]
    fn shared_processor_forces_internal_communication() {
        // Chain a → c on 2 procs with eps=1: both tasks occupy both
        // processors, so A(a) ∩ A(c) = {P0, P1} and every communication
        // must be internal (message count 0).
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 100.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0]);
        let inst = Instance::new(dag, plat, exec);
        let s = schedule(&inst, 1, Algorithm::McFtsaGreedy, &mut rng()).unwrap();
        assert_eq!(s.message_count(&inst.dag), 0);
        // Each replica of c starts right after the collocated replica of a.
        for r in s.replicas_of(c) {
            assert_eq!(r.start_lb, 10.0);
        }
    }

    #[test]
    fn per_replica_bounds_coincide() {
        let inst = diamond_instance(4);
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng()).unwrap();
        for t in inst.dag.tasks() {
            for r in s.replicas_of(t) {
                assert_eq!(r.start_lb, r.start_ub);
                assert_eq!(r.finish_lb, r.finish_ub);
            }
        }
    }

    #[test]
    fn bottleneck_never_worse_than_greedy_on_upper_bound() {
        let mut r = StdRng::seed_from_u64(23);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let g = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng()).unwrap();
        let b = schedule(&inst, 2, Algorithm::McFtsaBottleneck, &mut rng()).unwrap();
        // Not a theorem globally (greedy decisions interact across steps),
        // but both must produce valid bounded schedules of similar quality.
        assert!(b.latency_upper_bound() <= g.latency_upper_bound() * 1.5);
        assert!(g.latency_upper_bound() <= b.latency_upper_bound() * 1.5);
    }

    #[test]
    fn mc_latency_at_least_ftsa_lower_bound() {
        // MC-FTSA restricts communications, so its optimistic latency
        // cannot beat FTSA's optimistic latency on the same instance...
        // up to tie-breaking noise; check the documented direction on a
        // deterministic instance.
        let inst = diamond_instance(4);
        let ft = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        let mc = schedule(
            &inst,
            1,
            Algorithm::McFtsaGreedy,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert!(mc.latency_lower_bound() >= ft.latency_lower_bound() - 1e-9);
    }

    #[test]
    fn epsilon_zero_single_matching() {
        let inst = diamond_instance(3);
        let s = schedule(&inst, 0, Algorithm::McFtsaBottleneck, &mut rng()).unwrap();
        for t in inst.dag.tasks() {
            assert_eq!(s.replicas_of(t).len(), 1);
        }
        if let CommSelection::Matched(m) = &s.comm {
            assert_eq!(m.len(), inst.dag.num_edges());
        } else {
            panic!("expected matched comm");
        }
    }

    #[test]
    fn too_few_processors_rejected() {
        let inst = diamond_instance(2);
        assert!(matches!(
            schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng()),
            Err(ScheduleError::NotEnoughProcessors { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = diamond_instance(4);
        let a = schedule(
            &inst,
            1,
            Algorithm::McFtsaGreedy,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        let b = schedule(
            &inst,
            1,
            Algorithm::McFtsaGreedy,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.comm, b.comm);
    }
}
