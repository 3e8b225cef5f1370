//! Full-pipeline integration tests: generate → schedule → validate →
//! bound → simulate, across algorithms, ε values, platform shapes and
//! workload families.

use ftsched::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn algorithms() -> [Algorithm; 7] {
    Algorithm::ALL
}

#[test]
fn random_instances_full_pipeline() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
        let cp = critical_path_bound(&inst, &mut Vec::new());
        for eps in [0usize, 1, 3] {
            for alg in algorithms() {
                let mut tie = StdRng::seed_from_u64(seed * 7 + eps as u64);
                let sched = schedule(&inst, eps, alg, &mut tie)
                    .unwrap_or_else(|e| panic!("{alg:?} eps={eps}: {e}"));
                validate(&inst, &sched).unwrap_or_else(|e| panic!("{alg:?} eps={eps}: {e}"));
                assert!(sched.latency_lower_bound() >= cp - 1e-6);
                assert!(sched.latency_lower_bound() <= sched.latency_upper_bound() + 1e-6);
                let sim = simulate(&inst, &sched, &FailureScenario::none());
                assert!(sim.completed());
                assert!(sim.latency <= sched.latency_lower_bound() + 1e-6);
            }
        }
    }
}

#[test]
fn structured_workloads_schedule_and_survive() {
    let mut rng0 = StdRng::seed_from_u64(0x5EED);
    let workloads: Vec<(&str, Dag)> = vec![
        ("gauss", gaussian_elimination(8, 5.0, 1.0)),
        ("fft", fft(16, 10.0, 20.0)),
        ("stencil", stencil_1d(10, 6, 8.0, 12.0)),
        ("wavefront", wavefront(6, 6, 10.0, 15.0)),
        ("mapreduce", map_reduce(6, 4, 20.0, 30.0, 10.0)),
        ("cholesky", cholesky(5, 9.0, 10.0)),
        (
            "series-parallel",
            series_parallel(&mut rng0, &SeriesParallelConfig::new(40)),
        ),
    ];
    for (name, dag) in workloads {
        let mut rng = StdRng::seed_from_u64(0xABCD);
        let m = 8usize;
        let platform = random_platform(&mut rng, m, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, m, &mut rng, 0.4);
        let inst = Instance::new(dag, platform, exec);
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy] {
            let sched =
                schedule(&inst, 2, alg, &mut rng).unwrap_or_else(|e| panic!("{name}/{alg:?}: {e}"));
            validate(&inst, &sched).unwrap_or_else(|e| panic!("{name}/{alg:?}: {e}"));
            // Two failures, drawn adversarially as the two most-loaded
            // processors.
            let mut load = vec![0usize; m];
            for t in inst.dag.tasks() {
                for r in sched.replicas_of(t) {
                    load[r.proc.index()] += 1;
                }
            }
            let mut by_load: Vec<usize> = (0..m).collect();
            by_load.sort_by_key(|&p| std::cmp::Reverse(load[p]));
            let scen =
                FailureScenario::at_time_zero(by_load[..2].iter().map(|&p| ProcId(p as u32)));
            let sim = simulate(&inst, &sched, &scen);
            assert!(sim.completed(), "{name}/{alg:?} lost a task");
        }
    }
}

#[test]
fn single_processor_fault_free_only() {
    let dag = stencil_1d(4, 3, 5.0, 5.0);
    let platform = Platform::uniform_delay(1, 0.0);
    let exec = ExecutionMatrix::consistent(&dag, &[1.0]);
    let inst = Instance::new(dag, platform, exec);
    let mut rng = StdRng::seed_from_u64(1);
    // ε = 0 works; ε = 1 must be rejected.
    let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng).unwrap();
    // Serial execution: latency = total work.
    assert!((s.latency_lower_bound() - inst.dag.total_work()).abs() < 1e-9);
    assert!(matches!(
        schedule(&inst, 1, Algorithm::Ftsa, &mut rng),
        Err(ScheduleError::NotEnoughProcessors { .. })
    ));
}

#[test]
fn epsilon_covers_entire_platform() {
    // ε = m − 1: every task replicated on every processor.
    let mut rng = StdRng::seed_from_u64(5);
    let inst = paper_instance(
        &mut rng,
        &PaperInstanceConfig {
            tasks_lo: 40,
            tasks_hi: 40,
            procs: 4,
            ..Default::default()
        },
    );
    let sched = schedule(&inst, 3, Algorithm::Ftsa, &mut rng).unwrap();
    validate(&inst, &sched).unwrap();
    for t in inst.dag.tasks() {
        assert_eq!(sched.replicas_of(t).len(), 4);
    }
    // Any 3 processors may fail; the remaining one carries the run.
    for keep in 0..4u32 {
        let scen = FailureScenario::at_time_zero((0..4u32).filter(|&p| p != keep).map(ProcId));
        let sim = simulate(&inst, &sched, &scen);
        assert!(sim.completed());
    }
}

#[test]
fn message_economy_headline() {
    // The Section 4.2 claim: FTSA ships up to e(ε+1)² messages, MC-FTSA
    // exactly e(ε+1) minus intra-processor deliveries.
    let mut rng = StdRng::seed_from_u64(6);
    let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
    let e = inst.dag.num_edges();
    for eps in [1usize, 2, 4] {
        let mut tie = StdRng::seed_from_u64(eps as u64);
        let f = schedule(&inst, eps, Algorithm::Ftsa, &mut tie).unwrap();
        let m = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut tie).unwrap();
        let (max_full, max_mc) = ftsched::core::bounds::max_messages(e, eps);
        assert!(f.message_count(&inst.dag) <= max_full);
        assert!(m.message_count(&inst.dag) <= max_mc);
        assert!(
            (m.message_count(&inst.dag) as f64) < 0.8 * f.message_count(&inst.dag) as f64,
            "MC must ship substantially fewer messages (eps={eps})"
        );
    }
}
