//! Cross-family property tests: every algorithm must produce valid,
//! bound-consistent schedules on every graph family the generators can
//! emit — not just the paper's layered instances.

use ftsched_core::bounds::critical_path_bound;
use ftsched_core::validate::validate;
use ftsched_core::{schedule, Algorithm, Replica, Schedule};
use platform::gen::random_platform;
use platform::{ExecutionMatrix, Instance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::generators::{
    erdos, fork_join, layered, series_parallel, ErdosConfig, ForkJoinConfig, LayeredConfig,
    SeriesParallelConfig,
};
use taskgraph::workloads::{
    cholesky, fft, gaussian_elimination, map_reduce, stencil_1d, wavefront,
};
use taskgraph::Dag;

#[derive(Debug, Clone, Copy)]
enum Family {
    Layered,
    Erdos,
    ForkJoin,
    SeriesParallel,
    Gauss,
    Fft,
    Cholesky,
    Stencil,
    MapReduce,
    Wavefront,
}

fn build(family: Family, seed: u64, size: usize) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        Family::Layered => layered(&mut rng, &LayeredConfig::paper(size.max(1))),
        Family::Erdos => erdos(&mut rng, &ErdosConfig::sparse(size.max(1))),
        Family::ForkJoin => fork_join(&mut rng, &ForkJoinConfig::new(size % 4 + 1, size % 6 + 1)),
        Family::SeriesParallel => {
            series_parallel(&mut rng, &SeriesParallelConfig::new(size.max(2)))
        }
        Family::Gauss => gaussian_elimination(size % 8 + 2, 5.0, 2.0),
        Family::Fft => fft(1 << (size % 4 + 1), 8.0, 12.0),
        Family::Cholesky => cholesky(size % 6 + 2, 6.0, 9.0),
        Family::Stencil => stencil_1d(size % 5 + 2, size % 4 + 2, 7.0, 11.0),
        Family::MapReduce => map_reduce(size % 6 + 1, size % 3 + 1, 9.0, 13.0, 6.0),
        Family::Wavefront => wavefront(size % 5 + 2, size % 4 + 2, 8.0, 10.0),
    }
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::Layered),
        Just(Family::Erdos),
        Just(Family::ForkJoin),
        Just(Family::SeriesParallel),
        Just(Family::Gauss),
        Just(Family::Fft),
        Just(Family::Cholesky),
        Just(Family::Stencil),
        Just(Family::MapReduce),
        Just(Family::Wavefront),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_family_schedules_validly(
        family in family_strategy(),
        seed in 0u64..5_000,
        size in 4usize..40,
        procs in 3usize..9,
        eps_raw in 0usize..3,
    ) {
        let eps = eps_raw.min(procs - 1);
        let dag = build(family, seed, size);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA111);
        let platform = random_platform(&mut rng, procs, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, &mut rng, 0.5);
        let inst = Instance::new(dag, platform, exec);
        let cp = critical_path_bound(&inst, &mut Vec::new());
        // Every algorithm — the four paper configurations and the
        // pipeline cross-combinations alike — must stay valid and
        // bound-consistent on every family.
        for alg in Algorithm::ALL {
            let mut tie = StdRng::seed_from_u64(seed);
            let s = schedule(&inst, eps, alg, &mut tie).unwrap();
            validate(&inst, &s)
                .map_err(|e| TestCaseError::fail(format!("{family:?}/{alg:?}: {e}")))?;
            prop_assert!(s.latency_lower_bound() <= s.latency_upper_bound() + 1e-6);
            prop_assert!(s.latency_lower_bound() >= cp - 1e-6);
        }
    }

    /// With ε = 0 there is exactly one replica per task and exactly one
    /// sender per input, so MC-FTSA degenerates to FTSA: identical
    /// placements and latencies.
    #[test]
    fn mc_ftsa_degenerates_to_ftsa_without_replication(
        family in family_strategy(),
        seed in 0u64..5_000,
        size in 4usize..30,
        procs in 3usize..8,
    ) {
        let dag = build(family, seed, size);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE6E);
        let platform = random_platform(&mut rng, procs, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, &mut rng, 0.5);
        let inst = Instance::new(dag, platform, exec);
        let f = schedule(&inst, 0, Algorithm::Ftsa, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let mc = schedule(
            &inst,
            0,
            Algorithm::McFtsaGreedy,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        let lists = |s: &Schedule| s.tasks_replicas().map(<[Replica]>::to_vec).collect::<Vec<_>>();
        prop_assert_eq!(lists(&f), lists(&mc));
        prop_assert!((f.latency_lower_bound() - mc.latency_lower_bound()).abs() < 1e-9);
        prop_assert_eq!(f.message_count(&inst.dag), mc.message_count(&inst.dag));
    }

    /// Schedule statistics stay within their defined ranges on every
    /// family.
    #[test]
    fn stats_well_formed_everywhere(
        family in family_strategy(),
        seed in 0u64..3_000,
        size in 4usize..30,
    ) {
        let dag = build(family, seed, size);
        let procs = 6usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57A7);
        let platform = random_platform(&mut rng, procs, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, &mut rng, 0.5);
        let inst = Instance::new(dag, platform, exec);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let st = ftsched_core::stats::schedule_stats(&inst, &s);
        prop_assert!(st.mean_utilization > 0.0 && st.mean_utilization <= 1.0 + 1e-9);
        prop_assert!(st.load_imbalance >= 1.0);
        prop_assert!((0.0..=1.0).contains(&st.replication_compute_share));
        prop_assert_eq!(st.replicas, inst.num_tasks() * 2);
    }
}
