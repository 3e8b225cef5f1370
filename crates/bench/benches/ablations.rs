//! Component ablations of the scheduler and simulator design choices.
//! The scheduler ablations run a `ListScheduler` with one axis changed:
//!
//! * greedy vs bottleneck-optimal communication selection in MC-FTSA;
//! * FTBAR with and without the minimize-start-time duplication pass;
//! * FTSA's criticalness priority vs the static bottom level;
//! * unbounded, one-port and multi-port sender models under contention;
//! * event-queue simulation vs the analytic replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftsched_bench::bench_instance;
use ftsched_core::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis, Selector};
use ftsched_core::{schedule, Algorithm};
use platform::FailureScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::{replay::replay, simulate};

fn bench_mc_selectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/mc-selector");
    group.sample_size(10);
    let inst = bench_instance(125, 20, 42);
    for (name, sel) in [
        ("greedy", Selector::Greedy),
        ("bottleneck", Selector::Bottleneck),
    ] {
        let mc_ftsa = ListScheduler::new(
            PriorityAxis::Criticalness,
            PlacementAxis::BestFinish,
            CommAxis::Matched(sel),
        );
        group.bench_with_input(BenchmarkId::new(name, 3), &inst, |b, inst| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                mc_ftsa.run(inst, 3, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_ftbar_duplication(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/ftbar-mst");
    group.sample_size(10);
    let inst = bench_instance(125, 20, 43);
    for (name, duplicate) in [("with-duplication", true), ("without-duplication", false)] {
        let ftbar = ListScheduler::new(
            PriorityAxis::Pressure,
            PlacementAxis::MinStart { duplicate },
            CommAxis::AllToAll,
        );
        group.bench_with_input(BenchmarkId::new(name, 1), &inst, |b, inst| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                ftbar.run(inst, 1, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_ftsa_priority(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/ftsa-priority");
    group.sample_size(10);
    let inst = bench_instance(125, 20, 45);
    for (name, priority) in [
        ("criticalness", PriorityAxis::Criticalness),
        ("bottom-level", PriorityAxis::BottomLevel),
    ] {
        let ftsa = ListScheduler::new(priority, PlacementAxis::BestFinish, CommAxis::AllToAll);
        group.bench_with_input(BenchmarkId::new(name, 2), &inst, |b, inst| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                ftsa.run(inst, 2, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_contention_models(c: &mut Criterion) {
    use simulator::contention::{simulate_contention, PortModel};
    let mut group = c.benchmark_group("ablation/contention");
    group.sample_size(10);
    let inst = bench_instance(125, 20, 46);
    let sched = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
    for (name, model) in [
        ("unbounded", PortModel::Unbounded),
        ("one-port", PortModel::OnePort),
        ("multi-port-4", PortModel::BoundedMultiPort(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| simulate_contention(&inst, &sched, &FailureScenario::none(), model))
        });
    }
    group.finish();
}

fn bench_sim_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/simulator");
    group.sample_size(10);
    let inst = bench_instance(125, 20, 44);
    let sched = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
    let scen = FailureScenario::uniform(&mut StdRng::seed_from_u64(2), 20, 2);
    group.bench_function("event-queue", |b| b.iter(|| simulate(&inst, &sched, &scen)));
    group.bench_function("analytic-replay", |b| {
        b.iter(|| replay(&inst, &sched, &scen))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mc_selectors,
    bench_ftbar_duplication,
    bench_ftsa_priority,
    bench_contention_models,
    bench_sim_engines
);
criterion_main!(benches);
