//! Incremental-vs-reference schedule-pressure equivalence.
//!
//! The production pressure sweep caches arrival rows and σ-selections
//! and prunes provably-losing tasks (see the pipeline module docs); the
//! pre-incremental exhaustive sweep survives as
//! `ListScheduler::run_into_reference_pressure`. The two must agree
//! **bitwise** — same task sequence, same σ processor sets, same replica
//! time bits, same matched-communication pairs — on every DAG family,
//! every ε and every seed, for every pressure-driven configuration
//! (FTBAR, P-FTSA, MC-FTBAR). These tests are the oracle that pins that
//! claim beyond the fixed golden instances.
//!
//! Equal task sequences mean every step picked the same winner: both
//! paths draw each task's tie-break token from the RNG at the same point
//! (entry seeding, then release), so a divergence at any step shows in
//! `schedule_order`. Deterministic adversaries target the heap machinery
//! specifically: exact-tie urgencies (token-only ordering through the
//! tie-group pop), warm-workspace tombstone reuse across wildly
//! different instance sizes, and a v=5000 layered instance deep in the
//! regime the heap families were built for.

use ftsched_core::{schedule_into, Algorithm, ScheduleWorkspace};
use platform::gen::random_platform;
use platform::{ExecutionMatrix, Instance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::generators::{
    erdos, fork_join, layered, series_parallel, ErdosConfig, ForkJoinConfig, LayeredConfig,
    SeriesParallelConfig,
};
use taskgraph::workloads::{cholesky, fft, gaussian_elimination, wavefront};
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
        Just(Family::Wavefront),
    ]
}

/// The pressure-driven configurations: every pipeline point where
/// `PriorityAxis::Pressure` (and therefore the incremental cache) is in
/// play.
const PRESSURE_ALGS: [Algorithm; 3] = [
    Algorithm::Ftbar,
    Algorithm::FtsaPressure,
    Algorithm::FtbarMatched,
];

/// Bitwise schedule comparison: task sequence, per-task replica
/// processors and all four timeline values (as bits), plus the matched
/// communication pairs when present.
fn assert_bit_identical(
    inst: &Instance,
    alg: Algorithm,
    eps: usize,
    inc: &ftsched_core::Schedule,
    reference: &ftsched_core::Schedule,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &inc.schedule_order,
        &reference.schedule_order,
        "{:?}/eps{}: task sequence diverged",
        alg,
        eps
    );
    for t in inst.dag.tasks() {
        let a = inc.replicas_of(t);
        let b = reference.replicas_of(t);
        prop_assert_eq!(
            a.len(),
            b.len(),
            "{:?}/eps{}: replica count of {:?}",
            alg,
            eps,
            t
        );
        for (ra, rb) in a.iter().zip(b) {
            prop_assert_eq!(ra.proc, rb.proc, "{:?}/eps{}: σ-set of {:?}", alg, eps, t);
            for (x, y) in [
                (ra.start_lb, rb.start_lb),
                (ra.finish_lb, rb.finish_lb),
                (ra.start_ub, rb.start_ub),
                (ra.finish_ub, rb.finish_ub),
            ] {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{:?}/eps{}: replica time bits of {:?}",
                    alg,
                    eps,
                    t
                );
            }
        }
    }
    match (&inc.comm, &reference.comm) {
        (ftsched_core::CommSelection::AllToAll, ftsched_core::CommSelection::AllToAll) => {}
        (ftsched_core::CommSelection::Matched(a), ftsched_core::CommSelection::Matched(b)) => {
            prop_assert_eq!(a, b, "{:?}/eps{}: matched pairs diverged", alg, eps);
        }
        _ => return Err(TestCaseError::fail(format!("{alg:?}/eps{eps}: comm kind"))),
    }
    Ok(())
}

/// The oracle: on a random instance, the incremental sweep and the
/// exhaustive reference produce the same (task, σ-set) sequence — and
/// therefore bit-identical schedules — for every pressure algorithm.
fn incremental_matches_reference(
    family: Family,
    seed: u64,
    size: usize,
    procs: usize,
    eps_raw: usize,
) -> Result<(), TestCaseError> {
    let eps = eps_raw.min(procs - 1);
    let dag = build(family, seed, size);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51C);
    let platform = random_platform(&mut rng, procs, 0.5, 1.0);
    let exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, &mut rng, 0.5);
    let inst = Instance::new(dag, platform, exec);
    let mut ws = ScheduleWorkspace::new();
    for alg in PRESSURE_ALGS {
        let inc = {
            let mut tie = StdRng::seed_from_u64(seed);
            schedule_into(&inst, eps, alg, &mut tie, &mut ws)
                .unwrap()
                .clone()
        };
        let reference = {
            let mut tie = StdRng::seed_from_u64(seed);
            alg.scheduler()
                .run_into_reference_pressure(&inst, eps, &mut tie, &mut ws)
                .unwrap()
                .clone()
        };
        assert_bit_identical(&inst, alg, eps, &inc, &reference)?;
    }
    Ok(())
}

/// Workspace reuse across shapes must not leak cache state between
/// runs: interleaving different instances, ε values and algorithms
/// through one workspace stays bit-identical to the reference.
fn warm_reuse_matches_reference(
    seed: u64,
    size_a: usize,
    size_b: usize,
) -> Result<(), TestCaseError> {
    let dag_a = build(Family::Layered, seed, size_a);
    let dag_b = build(Family::Erdos, seed ^ 1, size_b);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11);
    let procs = 5;
    let mk = |dag: Dag, rng: &mut StdRng| {
        let platform = random_platform(rng, procs, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, rng, 0.5);
        Instance::new(dag, platform, exec)
    };
    let inst_a = mk(dag_a, &mut rng);
    let inst_b = mk(dag_b, &mut rng);
    let mut ws = ScheduleWorkspace::new();
    // Interleave shapes and ε through the same warm workspace.
    for (inst, eps) in [(&inst_a, 1), (&inst_b, 2), (&inst_a, 0), (&inst_b, 1)] {
        let inc = {
            let mut tie = StdRng::seed_from_u64(seed);
            schedule_into(inst, eps, Algorithm::Ftbar, &mut tie, &mut ws)
                .unwrap()
                .clone()
        };
        let reference = {
            let mut tie = StdRng::seed_from_u64(seed);
            Algorithm::Ftbar
                .scheduler()
                .run_into_reference_pressure(inst, eps, &mut tie, &mut ws)
                .unwrap()
                .clone()
        };
        assert_bit_identical(inst, Algorithm::Ftbar, eps, &inc, &reference)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn incremental_pressure_matches_reference(
        family in family_strategy(),
        seed in 0u64..5_000,
        size in 4usize..40,
        procs in 3usize..9,
        eps_raw in 0usize..3,
    ) {
        incremental_matches_reference(family, seed, size, procs, eps_raw)?;
    }

    #[test]
    fn warm_workspace_reuse_stays_identical(
        seed in 0u64..3_000,
        size_a in 4usize..30,
        size_b in 4usize..30,
    ) {
        warm_reuse_matches_reference(seed, size_a, size_b)?;
    }
}

// The same two properties at 2000 cases each: about 80 per family × ε ×
// algorithm cell. Too slow for a debug run; CI runs them in release
// (`cargo test --release -p ftsched-core --test pressure_incremental --
// --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    #[ignore = "2000 cases; run in release with --ignored"]
    fn incremental_pressure_matches_reference_many_cases(
        family in family_strategy(),
        seed in 0u64..1_000_000,
        size in 4usize..40,
        procs in 3usize..9,
        eps_raw in 0usize..3,
    ) {
        incremental_matches_reference(family, seed, size, procs, eps_raw)?;
    }

    #[test]
    #[ignore = "2000 cases; run in release with --ignored"]
    fn warm_workspace_reuse_stays_identical_many_cases(
        seed in 0u64..1_000_000,
        size_a in 4usize..30,
        size_b in 4usize..30,
    ) {
        warm_reuse_matches_reference(seed, size_a, size_b)?;
    }
}

/// Exact-tie adversary: a symmetric wavefront with *constant* task
/// costs, edge volumes and delays on a uniform platform. Whole layers
/// of free tasks share bit-identical urgencies, so selection order is
/// decided purely by the random tokens — the heap path must surface the
/// full tie group (distinct raw keys can also collapse to equal
/// urgencies after the `− R(n−1)` subtraction) and pick the same
/// max-token task the reference sweep finds.
#[test]
fn exact_tie_urgencies_break_by_token() {
    let dag = wavefront(9, 9, 3.0, 1.0);
    let procs = 8;
    let v = dag.num_tasks();
    let platform = platform::Platform::uniform_delay(procs, 0.25);
    let exec = ExecutionMatrix::from_fn(v, procs, |_, _| 3.0);
    let inst = Instance::new(dag, platform, exec);
    let mut ws = ScheduleWorkspace::new();
    for alg in PRESSURE_ALGS {
        for eps in [0usize, 1, 2, 3] {
            for seed in [1u64, 77, 0xDEAD] {
                let inc = {
                    let mut tie = StdRng::seed_from_u64(seed);
                    schedule_into(&inst, eps, alg, &mut tie, &mut ws)
                        .unwrap()
                        .clone()
                };
                let reference = {
                    let mut tie = StdRng::seed_from_u64(seed);
                    alg.scheduler()
                        .run_into_reference_pressure(&inst, eps, &mut tie, &mut ws)
                        .unwrap()
                        .clone()
                };
                assert_eq!(
                    inc.schedule_order, reference.schedule_order,
                    "{alg:?}/eps{eps}/seed{seed}: tie-broken sequence diverged"
                );
                for t in inst.dag.tasks() {
                    for (ra, rb) in inc.replicas_of(t).iter().zip(reference.replicas_of(t)) {
                        assert_eq!(ra.proc, rb.proc, "{alg:?}/eps{eps}/seed{seed}: σ of {t:?}");
                        assert_eq!(ra.finish_lb.to_bits(), rb.finish_lb.to_bits());
                    }
                }
            }
        }
    }
}

/// Tombstone-reuse adversary: one warm workspace carries heap arenas,
/// epochs and guard queues from a 1500-task layered run into tiny
/// instances and back, twice. Any entry surviving `reset` (a stale
/// tombstone misread as live, a guard from the previous shape) would
/// surface as a selection divergence.
#[test]
fn warm_tombstone_reuse_across_sizes() {
    let mut rng = StdRng::seed_from_u64(0x70B5);
    let big = {
        let dag = layered(&mut rng, &LayeredConfig::paper(1500));
        let platform = random_platform(&mut rng, 10, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, 10, &mut rng, 0.5);
        Instance::new(dag, platform, exec)
    };
    let tiny = {
        let dag = wavefront(3, 3, 4.0, 2.0);
        let platform = random_platform(&mut rng, 10, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, 10, &mut rng, 0.5);
        Instance::new(dag, platform, exec)
    };
    let mut ws = ScheduleWorkspace::new();
    for alg in [Algorithm::Ftbar, Algorithm::FtbarMatched] {
        for inst in [&big, &tiny, &big, &tiny] {
            let inc = {
                let mut tie = StdRng::seed_from_u64(0xEC0);
                schedule_into(inst, 1, alg, &mut tie, &mut ws)
                    .unwrap()
                    .clone()
            };
            let reference = {
                let mut tie = StdRng::seed_from_u64(0xEC0);
                alg.scheduler()
                    .run_into_reference_pressure(inst, 1, &mut tie, &mut ws)
                    .unwrap()
                    .clone()
            };
            assert_eq!(
                inc.schedule_order,
                reference.schedule_order,
                "{alg:?}: warm-reuse sequence diverged at v={}",
                inst.dag.num_tasks()
            );
            for t in inst.dag.tasks() {
                for (ra, rb) in inc.replicas_of(t).iter().zip(reference.replicas_of(t)) {
                    assert_eq!(ra.proc, rb.proc, "{alg:?}: warm-reuse σ of {t:?}");
                    assert_eq!(ra.finish_lb.to_bits(), rb.finish_lb.to_bits());
                    assert_eq!(ra.finish_ub.to_bits(), rb.finish_ub.to_bits());
                }
            }
        }
    }
}

/// The heap families were built for the large-v regime; pin bit-identity
/// once deep inside it (v = 5000 layered, the bench family) rather than
/// only on proptest-sized instances.
#[test]
fn large_layered_oracle_v5000() {
    let mut rng = StdRng::seed_from_u64(0x5_000);
    let dag = layered(&mut rng, &LayeredConfig::paper(5000));
    let platform = random_platform(&mut rng, 16, 0.5, 1.0);
    let exec = ExecutionMatrix::unrelated_with_procs(&dag, 16, &mut rng, 0.5);
    let inst = Instance::new(dag, platform, exec);
    let mut ws = ScheduleWorkspace::new();
    let inc = {
        let mut tie = StdRng::seed_from_u64(42);
        schedule_into(&inst, 1, Algorithm::Ftbar, &mut tie, &mut ws)
            .unwrap()
            .clone()
    };
    let reference = {
        let mut tie = StdRng::seed_from_u64(42);
        Algorithm::Ftbar
            .scheduler()
            .run_into_reference_pressure(&inst, 1, &mut tie, &mut ws)
            .unwrap()
            .clone()
    };
    assert_eq!(
        inc.schedule_order, reference.schedule_order,
        "v=5000 layered: task sequence diverged"
    );
    for t in inst.dag.tasks() {
        for (ra, rb) in inc.replicas_of(t).iter().zip(reference.replicas_of(t)) {
            assert_eq!(ra.proc, rb.proc, "v=5000 layered: σ of {t:?}");
            assert_eq!(ra.finish_lb.to_bits(), rb.finish_lb.to_bits());
            assert_eq!(ra.finish_ub.to_bits(), rb.finish_ub.to_bits());
        }
    }
}

/// A deterministic smoke check (no proptest machinery) so a plain
/// `cargo test pressure_incremental` exercises the oracle too: a layered
/// paper instance large enough for duplication, pruning and multi-layer
/// staleness to all occur.
#[test]
fn deterministic_layered_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF1B);
    let dag = layered(&mut rng, &LayeredConfig::paper(300));
    let platform = random_platform(&mut rng, 12, 0.5, 1.0);
    let exec = ExecutionMatrix::unrelated_with_procs(&dag, 12, &mut rng, 0.5);
    let inst = Instance::new(dag, platform, exec);
    let mut ws = ScheduleWorkspace::new();
    for alg in PRESSURE_ALGS {
        for eps in [0usize, 1, 2] {
            let inc = {
                let mut tie = StdRng::seed_from_u64(9);
                schedule_into(&inst, eps, alg, &mut tie, &mut ws)
                    .unwrap()
                    .clone()
            };
            let reference = {
                let mut tie = StdRng::seed_from_u64(9);
                alg.scheduler()
                    .run_into_reference_pressure(&inst, eps, &mut tie, &mut ws)
                    .unwrap()
                    .clone()
            };
            assert_eq!(
                inc.schedule_order, reference.schedule_order,
                "{alg:?}/eps{eps}: task sequence diverged"
            );
            for t in inst.dag.tasks() {
                let a = inc.replicas_of(t);
                let b = reference.replicas_of(t);
                assert_eq!(a.len(), b.len());
                for (ra, rb) in a.iter().zip(b) {
                    assert_eq!(ra.proc, rb.proc, "{alg:?}/eps{eps}: σ-set of {t:?}");
                    assert_eq!(ra.finish_lb.to_bits(), rb.finish_lb.to_bits());
                    assert_eq!(ra.finish_ub.to_bits(), rb.finish_ub.to_bits());
                }
            }
        }
    }
}
