//! Property-based integration tests of the paper's theorems:
//! Proposition 4.1 (distinct placement), Proposition 4.2 (`M* ≤ L ≤ M`),
//! Theorem 4.1 (validity under ≤ ε failures), and the equivalence of
//! the static crash pass with the discrete-event loop, over randomly
//! drawn instances, ε values and scenarios.

use ftsched::prelude::*;
use ftsched::simulator::crash::simulate_event_loop_into;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn make_instance(seed: u64, procs: usize, tasks: usize, granularity: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    paper_instance(
        &mut rng,
        &PaperInstanceConfig {
            tasks_lo: tasks,
            tasks_hi: tasks,
            procs,
            granularity,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ftsa_tolerates_any_epsilon_failures(
        seed in 0u64..5_000,
        procs in 3usize..10,
        tasks in 10usize..60,
        eps_raw in 0usize..4,
        g in 0.2f64..2.0,
    ) {
        let eps = eps_raw.min(procs - 1);
        let inst = make_instance(seed, procs, tasks, g);
        let mut tie = StdRng::seed_from_u64(seed ^ 0xF00D);
        let sched = schedule(&inst, eps, Algorithm::Ftsa, &mut tie).unwrap();
        validate(&inst, &sched).map_err(|e| TestCaseError::fail(e.to_string()))?;

        // Proposition 4.1: primaries on distinct processors.
        for t in inst.dag.tasks() {
            let procs_used: std::collections::HashSet<_> =
                sched.replicas_of(t)[..eps + 1].iter().map(|r| r.proc).collect();
            prop_assert_eq!(procs_used.len(), eps + 1);
        }

        // Theorem 4.1 + Proposition 4.2 under a random ε-failure pattern.
        let mut frng = StdRng::seed_from_u64(seed ^ 0xFA11);
        let scen = FailureScenario::uniform(&mut frng, procs, eps);
        let sim = simulate(&inst, &sched, &scen);
        prop_assert!(sim.completed());
        prop_assert!(sim.latency >= sched.latency_lower_bound() - 1e-6);
        prop_assert!(sim.latency <= sched.latency_upper_bound() + 1e-6);
    }

    #[test]
    fn mc_ftsa_rerouted_tolerates_failures(
        seed in 0u64..5_000,
        procs in 3usize..10,
        tasks in 10usize..60,
        eps_raw in 1usize..4,
    ) {
        let eps = eps_raw.min(procs - 1);
        let inst = make_instance(seed, procs, tasks, 1.0);
        let mut tie = StdRng::seed_from_u64(seed);
        let sched = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut tie).unwrap();
        validate(&inst, &sched).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut frng = StdRng::seed_from_u64(seed ^ 0xFA17);
        let scen = FailureScenario::uniform(&mut frng, procs, eps);
        let sim = simulate(&inst, &sched, &scen);
        prop_assert!(sim.completed());
        prop_assert!(sim.latency.is_finite());
    }

    #[test]
    fn des_equals_replay(
        seed in 0u64..5_000,
        procs in 3usize..8,
        eps_raw in 0usize..3,
    ) {
        let eps = eps_raw.min(procs - 1);
        let inst = make_instance(seed, procs, 40, 0.8);
        let mut ws = CrashWorkspace::new();
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
            let mut tie = StdRng::seed_from_u64(seed);
            let sched = schedule(&inst, eps, alg, &mut tie).unwrap();
            let mut frng = StdRng::seed_from_u64(seed ^ 0xD15C);
            let scen = FailureScenario::uniform(&mut frng, procs, eps);
            let a = simulate_event_loop_into(
                &inst,
                &sched,
                &scen,
                FallbackPolicy::Rerouted,
                None,
                &mut ws,
            );
            let b = simulate(&inst, &sched, &scen);
            prop_assert_eq!(a.latency.to_bits(), b.latency.to_bits());
            prop_assert_eq!(a.completed(), b.completed());
            prop_assert_eq!(a.times, b.times);
        }
    }

    #[test]
    fn ftbar_respects_bounds_too(
        seed in 0u64..2_000,
        procs in 3usize..8,
        eps_raw in 0usize..3,
    ) {
        let eps = eps_raw.min(procs - 1);
        let inst = make_instance(seed, procs, 30, 1.2);
        let mut tie = StdRng::seed_from_u64(seed);
        let sched = schedule(&inst, eps, Algorithm::Ftbar, &mut tie).unwrap();
        validate(&inst, &sched).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut frng = StdRng::seed_from_u64(seed ^ 0xFBA2);
        let scen = FailureScenario::uniform(&mut frng, procs, eps);
        let sim = simulate(&inst, &sched, &scen);
        prop_assert!(sim.completed());
        prop_assert!(sim.latency <= sched.latency_upper_bound() + 1e-6);
    }

    #[test]
    fn bounds_scale_with_epsilon_monotonic_guarantee(
        seed in 0u64..2_000,
        procs in 4usize..10,
    ) {
        // The guaranteed latency M can only grow (weakly, modulo heuristic
        // noise we tolerate at 1%) as ε increases — the price of fault
        // tolerance the paper's figures illustrate.
        let inst = make_instance(seed, procs, 40, 1.0);
        let mut prev = 0.0f64;
        for eps in 0..procs.min(4) {
            let mut tie = StdRng::seed_from_u64(seed);
            let sched = schedule(&inst, eps, Algorithm::Ftsa, &mut tie).unwrap();
            let m = sched.latency_upper_bound();
            prop_assert!(m >= prev * 0.99, "M collapsed when ε grew");
            prev = m;
        }
    }
}
