//! Scheduler hot-path bench: `schedule()` throughput on fig1-style
//! instances (20 processors, granularity 1.0, ε = 1) at v ∈ {100, 500,
//! 1000} tasks, one series per algorithm, plus the ε = 5 stress shape
//! Table 1 uses. This is the target tracked by `BENCH_scheduler.json`
//! (see `crates/bench/BENCH_scheduler.json`): later PRs compare their
//! medians against that baseline to keep the placement loop fast.
//!
//! Since the flat-CSR / zero-allocation PR the target also tracks:
//!
//! * `scheduler/large` — the production-scale regime (v = 2000 … 100000)
//!   the ROADMAP targets, two orders of magnitude past the paper's
//!   experiments; since the incremental-pressure PR the series includes
//!   FTBAR, whose σ sweep is no longer quadratic-with-full-rescans;
//! * `scheduler/reuse` — steady-state `schedule_into` over one
//!   `ScheduleWorkspace` (the experiment-grid / sweep workload, 0 heap
//!   allocations per run);
//! * `scheduler/pressure-ref` — the *exhaustive* reference pressure
//!   sweep (`run_into_reference_pressure`) on the fig1 v = 1000 shape:
//!   the before side of the incremental-pressure speedup, kept
//!   measurable so the gap stays visible;
//! * `scheduler/fold` — the arrival-row folds of `ftcollections::fold`
//!   against their scalar references, at the scheduler's row width
//!   (m = 20) and at a vectorization-friendly width (m = 1024);
//! * `scheduler/locality` — the pred-major arrival arena under widening
//!   σ-sets (ε = 1 vs 3 at v = 10000): row-width scaling, isolated from
//!   the task-count scaling `large` tracks;
//! * `scheduler/montecarlo` — the crash-campaign hot path
//!   (`simulate_outcome_into` over `refill_uniform` draws, flat
//!   `CrashWorkspace` state, allocation-free after the first
//!   replication).
//!
//! Run a quick correctness pass (1 sample per benchmark) with
//! `cargo bench --bench scheduler -- --test`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftsched_bench::bench_instance;
use ftsched_core::{schedule, schedule_into, Algorithm, ScheduleWorkspace};
use platform::FailureScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::crash::{simulate_outcome_into, CrashWorkspace, FallbackPolicy};

/// The fig1 sweep sizes tracked by the baseline JSON.
const SIZES: [usize; 3] = [100, 500, 1000];

/// The production-scale sweep sizes. Since the incremental-pressure
/// engine FTBAR joins FTSA here: its σ sweep re-evaluates only
/// invalidated tasks, so the former 21× fig1 gap no longer explodes
/// with v — and since the heap-driven selection PR the sweep itself is
/// gone (lazy max-heap + family migration, ~3 evaluations per step).
/// The matched-communication algorithms (MC-FTSA, MC-FTBAR) run to
/// 20000: the greedy per-edge matcher is their own cost centre, and
/// MC-FTBAR's series records how much of the pressure-selection speedup
/// survives matched comm.
const LARGE_SIZES: [usize; 6] = [2000, 5000, 10000, 20000, 50000, 100000];

/// Matched-communication cap inside `scheduler/large`: above this the
/// greedy matcher dominates wall-clock and the CI smoke pass (one
/// sample per benchmark) would stop being a smoke pass.
const MATCHED_COMM_CAP: usize = 20000;

fn bench_schedule_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/fig1");
    group.sample_size(10);
    for v in SIZES {
        let inst = bench_instance(v, 20, 0xF161 + v as u64);
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
            group.bench_with_input(BenchmarkId::new(alg.name(), v), &inst, |b, inst| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    schedule(inst, 1, alg, &mut rng).unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_schedule_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/large");
    group.sample_size(10);
    for v in LARGE_SIZES {
        let inst = bench_instance(v, 20, 0x1A26E + v as u64);
        for alg in [
            Algorithm::Ftsa,
            Algorithm::McFtsaGreedy,
            Algorithm::Ftbar,
            Algorithm::FtbarMatched,
        ] {
            let matched_comm = matches!(alg, Algorithm::McFtsaGreedy | Algorithm::FtbarMatched);
            if matched_comm && v > MATCHED_COMM_CAP {
                continue; // matcher-bound; FTSA + FTBAR cover 50k+
            }
            group.bench_with_input(BenchmarkId::new(alg.name(), v), &inst, |b, inst| {
                let mut ws = ScheduleWorkspace::new();
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    schedule_into(inst, 1, alg, &mut rng, &mut ws)
                        .unwrap()
                        .latency_lower_bound()
                })
            });
        }
    }
    group.finish();
}

fn bench_pressure_reference(c: &mut Criterion) {
    // The exhaustive reference sweep on the fig1 v = 1000 shape — the
    // "before" of the incremental-pressure engine, and the oracle the
    // equivalence suite replays. Tracking it keeps the speedup honest:
    // the production FTBAR series must stay well under this.
    let mut group = c.benchmark_group("scheduler/pressure-ref");
    group.sample_size(10);
    let inst = bench_instance(1000, 20, 0xF161 + 1000);
    let sched = Algorithm::Ftbar.scheduler();
    group.bench_with_input(BenchmarkId::new("FTBAR-naive", 1000), &inst, |b, inst| {
        let mut ws = ScheduleWorkspace::new();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            sched
                .run_into_reference_pressure(inst, 1, &mut rng, &mut ws)
                .unwrap()
                .latency_lower_bound()
        })
    });
    group.finish();
}

fn bench_folds(c: &mut Criterion) {
    // The elementwise folds behind every arrival-cache read and write,
    // against their scalar references — at the scheduler's row width
    // (m = 20) and at a width where vectorization dominates. The max
    // fold's production form is 8-lane chunked (it wins); min-saxpy's is
    // the plain loop (manual chunking measured ~2× slower — see the
    // fold module docs), so its two series watch for codegen drift.
    use ftcollections::fold::{
        max_in_place, max_in_place_scalar, min_saxpy_in_place, min_saxpy_in_place_scalar,
    };
    let mut group = c.benchmark_group("scheduler/fold");
    group.sample_size(10);
    for n in [20usize, 1024] {
        let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let init: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() + 2.0).collect();
        // Each sample folds 4096 rows into one accumulator, mirroring
        // the scheduler's many-rows-into-one access pattern.
        const ROWS: usize = 4096;
        group.bench_with_input(BenchmarkId::new("max-chunked", n), &n, |b, _| {
            let mut dst = init.clone();
            b.iter(|| {
                for _ in 0..ROWS {
                    max_in_place(&mut dst, &src);
                }
                dst[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("max-scalar", n), &n, |b, _| {
            let mut dst = init.clone();
            b.iter(|| {
                for _ in 0..ROWS {
                    max_in_place_scalar(&mut dst, &src);
                }
                dst[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("min-saxpy", n), &n, |b, _| {
            let mut dst = init.clone();
            b.iter(|| {
                for _ in 0..ROWS {
                    min_saxpy_in_place(&mut dst, 0.5, 1.0 + 1e-12, &src);
                }
                dst[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("min-saxpy-scalar", n), &n, |b, _| {
            let mut dst = init.clone();
            b.iter(|| {
                for _ in 0..ROWS {
                    min_saxpy_in_place_scalar(&mut dst, 0.5, 1.0 + 1e-12, &src);
                }
                dst[0]
            })
        });
    }
    group.finish();
}

fn bench_arena_locality(c: &mut Criterion) {
    // The cache-resident arrival arena under widening σ-sets: raising ε
    // multiplies the replicas folded per predecessor row, so this series
    // isolates how the pred-major CSR packing scales with row width on
    // a fixed 10k-task shape (the `large` series varies v instead).
    let mut group = c.benchmark_group("scheduler/locality");
    group.sample_size(10);
    let inst = bench_instance(10_000, 20, 0x1A26E + 10_000);
    for eps in [1usize, 3] {
        group.bench_with_input(
            BenchmarkId::new(format!("FTBAR-eps{eps}"), 10_000),
            &inst,
            |b, inst| {
                let mut ws = ScheduleWorkspace::new();
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    schedule_into(inst, eps, Algorithm::Ftbar, &mut rng, &mut ws)
                        .unwrap()
                        .latency_lower_bound()
                })
            },
        );
    }
    group.finish();
}

fn bench_schedule_reuse(c: &mut Criterion) {
    // The experiment-grid workload: repeated scheduling of one instance
    // shape through a warm workspace — the zero-allocation steady state.
    let mut group = c.benchmark_group("scheduler/reuse");
    group.sample_size(10);
    let inst = bench_instance(1000, 20, 0xF161 + 1000);
    for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
        group.bench_with_input(BenchmarkId::new(alg.name(), 1000), &inst, |b, inst| {
            let mut ws = ScheduleWorkspace::new();
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                schedule_into(inst, 1, alg, &mut rng, &mut ws)
                    .unwrap()
                    .latency_lower_bound()
            })
        });
    }
    group.finish();
}

fn bench_schedule_high_replication(c: &mut Criterion) {
    // Table 1's shape: ε = 5 on 50 processors — the regime where the
    // per-(task, proc) arrival caches pay off most (6 replicas/pred).
    let mut group = c.benchmark_group("scheduler/eps5");
    group.sample_size(10);
    let inst = bench_instance(1000, 50, 0x7AB1E);
    for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy] {
        group.bench_with_input(BenchmarkId::new(alg.name(), 1000), &inst, |b, inst| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                schedule(inst, 5, alg, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_monte_carlo_replications(c: &mut Criterion) {
    // The Monte-Carlo crash-campaign hot path: one warm CrashWorkspace
    // drives every replication (zero allocation after the first).
    let mut group = c.benchmark_group("scheduler/montecarlo");
    group.sample_size(10);
    for (v, reps) in [(500usize, 200usize), (1000, 100)] {
        let inst = bench_instance(v, 20, 0xF161 + v as u64);
        let sched = {
            let mut rng = StdRng::seed_from_u64(7);
            schedule(&inst, 2, Algorithm::Ftsa, &mut rng).unwrap()
        };
        group.bench_with_input(
            BenchmarkId::new(format!("FTSA-reps{reps}"), v),
            &(inst, sched),
            |b, (inst, sched)| {
                let mut ws = CrashWorkspace::new();
                let (mut scen, mut ids) = (FailureScenario::none(), Vec::new());
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(0xCAFE);
                    let mut completed = 0;
                    for _ in 0..reps {
                        scen.refill_uniform(&mut rng, inst.num_procs(), 2, &mut ids);
                        let policy = FallbackPolicy::Rerouted;
                        let out = simulate_outcome_into(inst, sched, &scen, policy, &mut ws);
                        completed += usize::from(out.completed());
                    }
                    completed
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedule_fig1,
    bench_schedule_large,
    bench_pressure_reference,
    bench_folds,
    bench_arena_locality,
    bench_schedule_reuse,
    bench_schedule_high_replication,
    bench_monte_carlo_replications
);
criterion_main!(benches);
