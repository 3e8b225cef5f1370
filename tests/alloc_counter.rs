//! Counting-allocator regression suite: the zero-allocation steady-state
//! contract of the scheduler workspace and the Monte-Carlo crash
//! campaigns, pinned at the allocator boundary.
//!
//! A wrapping `#[global_allocator]` counts every `alloc` / `realloc` /
//! `alloc_zeroed` call in this test binary. Each test warms the relevant
//! workspace (first runs are allowed — and expected — to size the
//! buffers), then asserts that the *steady state* performs exactly zero
//! heap allocations:
//!
//! * repeated `schedule_into` runs over one `ScheduleWorkspace`, for
//!   every pipeline configuration — the bottleneck matcher included,
//!   now that its binary-search scratch lives in the workspace;
//! * a full Monte-Carlo crash campaign through
//!   `simulate_replication_outcomes_into` after an identical warm-up
//!   campaign — i.e. every replication after the first allocates
//!   nothing.
//!
//! One contract is a constant rather than zero: streaming a bundle with
//! `serde_json::to_writer_pretty` allocates its one output buffer, the
//! same count at v≈500 as at v≈5000.
//!
//! The binary is **harness-free** (`harness = false`) and runs every
//! check on the one main thread — no rayon pool, no libtest threads —
//! so a counted allocation is always a real regression in the scheduler
//! or simulator hot path, not harness noise (see `main` for the flake
//! this design retires).

use experiments::campaign::{
    evaluate_cell_into, instance_for_cell, CampaignSpec, CellContext, CellCoord, CellPlan,
    LayeredRange, MeasurePlan, PlatformSpec, Seeding, SeriesKey, WorkloadSpec,
};
use ftsched::prelude::*;
use ftsched_core::{schedule_into, ScheduleWorkspace};
use platform::{FailureModel, UniformFailures};
use rand::{rngs::StdRng, SeedableRng};
use simulator::crash::{simulate_replication_outcomes_into, CrashWorkspace, ReplicationOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator plus a relaxed
// counter bump; no layout or pointer is altered.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn test_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    paper_instance(&mut rng, &PaperInstanceConfig::default())
}

/// Every pipeline configuration is covered by the zero-allocation
/// contract — including the bottleneck selector (`mc-ftsa-bn`), whose
/// binary-search and Hopcroft–Karp scratch is routed through the
/// workspace like everything else.
fn zero_alloc_algorithms() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL.into_iter()
}

/// One harness-free `main` for the whole contract: the allocation
/// counter is process-global, so *any* other thread allocating while a
/// measurement window is open fails the zero assert spuriously. That
/// rules out libtest itself, not just sibling tests: its main thread
/// lazily allocates channel-parking state the first time it blocks
/// waiting for the test thread, and whether that lands inside a window
/// is a timing race (observed as a rare "Ftsa eps=0: 2 heap
/// allocations" flake). `harness = false` runs everything on the one
/// main thread, so a counted allocation is always a real regression in
/// the scheduler or simulator hot path.
fn main() {
    steady_state_schedule_reuse_allocates_nothing();
    pressure_rerun_dirty_tracking_allocates_nothing();
    heap_family_selection_allocates_nothing();
    monte_carlo_replications_after_first_allocate_nothing();
    matched_campaign_after_first_allocates_nothing();
    campaign_cell_loop_allocates_nothing();
    streaming_arrivals_after_warm_allocate_nothing();
    wal_append_allocates_nothing();
    bundle_streaming_allocations_do_not_grow();
    println!("alloc_counter: zero-allocation steady-state contracts hold");
}

fn bundle_streaming_allocations_do_not_grow() {
    // `ftsched schedule` streams its bundle through one fixed buffer:
    // rendering allocates the same small count however large the
    // instance, so a per-node tree (or a whole-document string) cannot
    // come back unnoticed. Labelled Gaussian-elimination graphs with
    // matched communications exercise every shape the bundle writes.
    let counts: Vec<(usize, u64)> = [32usize, 100]
        .into_iter()
        .map(|size| {
            let dag = gaussian_elimination(size, 10.0, 1.0);
            let mut rng = StdRng::seed_from_u64(0xB0D1E);
            let platform = random_platform(&mut rng, 8, 0.5, 1.0);
            let exec = ExecutionMatrix::unrelated_with_procs(&dag, 8, &mut rng, 0.5);
            let inst = Instance::new(dag, platform, exec);
            let schedule = schedule(&inst, 1, Algorithm::McFtsaGreedy, &mut rng).unwrap();
            let Instance {
                dag,
                platform,
                exec,
            } = inst;
            let bundle = ftsched_cli::Bundle {
                dag,
                platform,
                exec,
                schedule,
                algorithm: "MC-FTSA".into(),
            };
            let before = allocations();
            serde_json::to_writer_pretty(std::io::sink(), &bundle).expect("a sink never fails");
            (bundle.dag.num_tasks(), allocations() - before)
        })
        .collect();
    assert!(counts[0].0 >= 500 && counts[1].0 >= 5000, "{counts:?}");
    assert_eq!(
        counts[0].1, counts[1].1,
        "bundle streaming allocations grew with the instance: (tasks, allocations) = {counts:?}"
    );
    assert!(
        counts[0].1 <= 2,
        "bundle streaming made {} allocations (contract: one buffer)",
        counts[0].1
    );
}

fn wal_append_allocates_nothing() {
    // WAL checkpointing rides the campaign hot path (one append per
    // group, fsync included) — frame encoding must go through the
    // writer's reusable scratch buffer, not fresh heap. Warm appends
    // size the buffer; steady-state appends of same-sized payloads then
    // allocate exactly nothing.
    use experiments::store::{wal, WalWriter};

    let path = std::env::temp_dir().join(format!("ftsched_alloc_wal_{}", std::process::id()));
    let payload = [0x5Au8; 512];
    let mut writer = WalWriter::create(&path).expect("create WAL");
    writer.append(&payload).expect("warm append");
    writer.append(&payload).expect("warm append");

    let before = allocations();
    for _ in 0..8 {
        writer.append(&payload).expect("steady-state append");
    }
    let counted = allocations() - before;
    assert_eq!(
        counted, 0,
        "steady-state WAL appends performed {counted} heap allocations \
         across 8 checkpoints (contract: zero)"
    );

    // The measured frames are real: all ten appends replay.
    drop(writer);
    let contents = wal::read(&path).expect("read WAL");
    assert_eq!(contents.groups.len(), 10);
    assert!(!contents.truncated_tail);
    let _ = std::fs::remove_file(&path);
}

fn pressure_rerun_dirty_tracking_allocates_nothing() {
    // The incremental schedule-pressure state (cached arrival rows,
    // σ-sets, stale flags, pending/dups scratch) must be sized by the
    // warm-up and then reused — including when ε, and therefore the
    // σ-set stride of the cache, alternates between re-runs over one
    // workspace. Covers every pressure-driven configuration.
    let inst = test_instance();
    for alg in [
        Algorithm::Ftbar,
        Algorithm::FtsaPressure,
        Algorithm::FtbarMatched,
    ] {
        let mut ws = ScheduleWorkspace::new();
        let mut reference = f64::NAN;
        for _ in 0..2 {
            for eps in [0usize, 2] {
                let mut rng = StdRng::seed_from_u64(11);
                reference = schedule_into(&inst, eps, alg, &mut rng, &mut ws)
                    .unwrap()
                    .latency_lower_bound();
            }
        }

        let before = allocations();
        let mut latency = f64::NAN;
        for _ in 0..4 {
            for eps in [0usize, 2] {
                let mut rng = StdRng::seed_from_u64(11);
                latency = schedule_into(&inst, eps, alg, &mut rng, &mut ws)
                    .unwrap()
                    .latency_lower_bound();
            }
        }
        let counted = allocations() - before;
        assert_eq!(
            counted, 0,
            "{alg:?}: alternating-ε pressure re-runs performed {counted} \
             heap allocations (contract: zero)"
        );
        assert_eq!(latency.to_bits(), reference.to_bits());
    }
}

fn heap_family_selection_allocates_nothing() {
    // The heap-driven pressure selection's whole family machinery —
    // clean heap + guard queues, the hot vec, the fully-ready-dominated
    // heap, the lazy static/per-processor heaps, tombstone compaction
    // and the per-step requeue/popped scratch — must be sized by the
    // warm-up and then reused. A 1500-task layered instance is large
    // enough that every family fills, compaction triggers and the hot ↔
    // lazy ↔ FRD migrations all fire; ε alternation changes the σ-set
    // stride of every cache between runs.
    let mut gen_rng = StdRng::seed_from_u64(0x4EA9);
    let inst = paper_instance(
        &mut gen_rng,
        &PaperInstanceConfig {
            tasks_lo: 1500,
            tasks_hi: 1500,
            procs: 16,
            ..Default::default()
        },
    );
    let mut ws = ScheduleWorkspace::new();
    let mut reference = f64::NAN;
    for _ in 0..2 {
        for eps in [1usize, 3] {
            let mut rng = StdRng::seed_from_u64(0x8EA9);
            reference = schedule_into(&inst, eps, Algorithm::Ftbar, &mut rng, &mut ws)
                .unwrap()
                .latency_lower_bound();
        }
    }

    let before = allocations();
    let mut latency = f64::NAN;
    for _ in 0..3 {
        for eps in [1usize, 3] {
            let mut rng = StdRng::seed_from_u64(0x8EA9);
            latency = schedule_into(&inst, eps, Algorithm::Ftbar, &mut rng, &mut ws)
                .unwrap()
                .latency_lower_bound();
        }
    }
    let counted = allocations() - before;
    assert_eq!(
        counted, 0,
        "heap-family pressure selection performed {counted} heap \
         allocations at v=1500 steady state (contract: zero)"
    );
    assert_eq!(latency.to_bits(), reference.to_bits());
}

fn streaming_arrivals_after_warm_allocate_nothing() {
    // The streaming driver's per-arrival path — occupancy-floored
    // scheduling via `schedule_onto`, crash replay from the actual
    // floors, interval folds into both timelines — must allocate
    // nothing once the `StreamWorkspace` and output buffer are warm.
    // Instance generation and arrival sampling happen outside the
    // measured window (they are per-stream setup, not per-arrival work).
    use platform::ProcId;
    use simulator::crash::FallbackPolicy;
    use simulator::streaming::{run_stream_into, DagOutcome, StreamWorkspace};

    let mut rng = StdRng::seed_from_u64(0x57AEA);
    let insts: Vec<Instance> = (0..6)
        .map(|_| {
            paper_instance(
                &mut rng,
                &PaperInstanceConfig {
                    tasks_lo: 25,
                    tasks_hi: 35,
                    procs: 8,
                    ..Default::default()
                },
            )
        })
        .collect();
    let arrivals: Vec<f64> = (0..6).map(|i| i as f64 * 40.0).collect();
    // A positive-time crash exercises the mid-stream failure path.
    let scenario = platform::FailureScenario::new(vec![(ProcId(3), 90.0)]);
    let mut ws = StreamWorkspace::new();
    let mut out: Vec<DagOutcome> = Vec::new();

    for _ in 0..2 {
        run_stream_into(
            &insts,
            &arrivals,
            1,
            Algorithm::Ftsa,
            &scenario,
            FallbackPolicy::Strict,
            0xBEE5,
            &mut ws,
            &mut out,
        )
        .unwrap();
    }
    let reference = out.clone();

    let before = allocations();
    for _ in 0..5 {
        run_stream_into(
            &insts,
            &arrivals,
            1,
            Algorithm::Ftsa,
            &scenario,
            FallbackPolicy::Strict,
            0xBEE5,
            &mut ws,
            &mut out,
        )
        .unwrap();
    }
    let counted = allocations() - before;
    assert_eq!(
        counted, 0,
        "steady-state streaming arrivals performed {counted} heap \
         allocations across 5 stream runs (contract: zero)"
    );
    assert_eq!(out, reference, "reuse must not change the stream outcomes");
    assert!(out.iter().all(|o| o.completed));
}

fn steady_state_schedule_reuse_allocates_nothing() {
    let inst = test_instance();
    for alg in zero_alloc_algorithms() {
        let mut ws = ScheduleWorkspace::new();
        for eps in [0usize, 2] {
            // Warm-up: the first run sizes every buffer; the second
            // run exists only to shake out any one-time lazy growth.
            let mut reference = f64::NAN;
            for _ in 0..2 {
                let mut rng = StdRng::seed_from_u64(7);
                reference = schedule_into(&inst, eps, alg, &mut rng, &mut ws)
                    .unwrap()
                    .latency_lower_bound();
            }

            let before = allocations();
            let mut latency = f64::NAN;
            for _ in 0..5 {
                let mut rng = StdRng::seed_from_u64(7);
                latency = schedule_into(&inst, eps, alg, &mut rng, &mut ws)
                    .unwrap()
                    .latency_lower_bound();
            }
            let counted = allocations() - before;
            assert_eq!(
                counted, 0,
                "{alg:?} eps={eps}: steady-state schedule_into performed \
                 {counted} heap allocations (contract: zero)"
            );
            // The measured runs did real work and reproduced the warm-up
            // schedule bit for bit.
            assert_eq!(latency.to_bits(), reference.to_bits());
        }
    }
}

fn monte_carlo_replications_after_first_allocate_nothing() {
    let inst = test_instance();
    let mut ws = ScheduleWorkspace::new();
    let sched = schedule_into(
        &inst,
        2,
        Algorithm::Ftsa,
        &mut StdRng::seed_from_u64(3),
        &mut ws,
    )
    .unwrap()
    .clone();

    const REPS: usize = 50;
    let mut crash_ws = CrashWorkspace::new();
    let mut out: Vec<ReplicationOutcome> = Vec::new();
    // Warm-up campaign: sizes the replay state for the largest scenario
    // and the output buffer for REPS outcomes.
    simulate_replication_outcomes_into(&inst, &sched, 2, REPS, 0xCAFE, &mut out, &mut crash_ws);
    let warm: Vec<ReplicationOutcome> = out.clone();

    let before = allocations();
    simulate_replication_outcomes_into(&inst, &sched, 2, REPS, 0xCAFE, &mut out, &mut crash_ws);
    let counted = allocations() - before;
    assert_eq!(
        counted, 0,
        "steady-state Monte-Carlo campaign performed {counted} heap \
         allocations across {REPS} replications (contract: zero)"
    );
    assert_eq!(out, warm, "reuse must not change the outcomes");
    assert!(out.iter().all(ReplicationOutcome::completed));
}

fn campaign_cell_loop_allocates_nothing() {
    // The campaign executor's per-cell hot path — every schedule via
    // `schedule_into`, every crash replay via `simulate_outcome_into`,
    // failure scenarios refilled in place — must allocate nothing once
    // the worker's `CellContext` is warm. A full figure-style plan
    // (bounds + fault-free baseline + overhead + two failure models +
    // messages) over the three paper algorithms is evaluated repeatedly
    // on one instance with a reused output buffer.
    let spec = CampaignSpec {
        id: "alloc".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 40,
            tasks_hi: 60,
        })],
        platforms: vec![PlatformSpec::paper(8, 1.0)],
        epsilons: vec![2],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar],
        extra_algorithms: vec![],
        repetitions: 1,
        seed: 0xA110C,
        seeding: Seeding::Indexed,
        arrivals: None,
        measures: MeasurePlan {
            bounds: true,
            normalize: true,
            fault_free: vec![Algorithm::Ftsa],
            overhead: true,
            failures: vec![
                FailureModel::Epsilon,
                FailureModel::Uniform(UniformFailures { crashes: 0 }),
            ],
            messages: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
            ..Default::default()
        },
    };
    spec.validate().unwrap();
    let plan = CellPlan::new(&spec);
    let coord = CellCoord {
        workload: 0,
        platform: 0,
        eps: 0,
        rep: 0,
    };
    let inst = instance_for_cell(&spec, &coord);
    let mut ctx = CellContext::new();
    let mut out: Vec<(SeriesKey, f64)> = Vec::new();

    // Warm-up: two cells size every workspace and the output buffer.
    for _ in 0..2 {
        evaluate_cell_into(&spec, &plan, &coord, &inst, &mut ctx, &mut out).unwrap();
    }
    let reference = out.clone();

    let before = allocations();
    for _ in 0..5 {
        evaluate_cell_into(&spec, &plan, &coord, &inst, &mut ctx, &mut out).unwrap();
    }
    let counted = allocations() - before;
    assert_eq!(
        counted, 0,
        "steady-state campaign cell loop performed {counted} heap \
         allocations (contract: zero)"
    );
    assert_eq!(out, reference, "reuse must not change the cell series");
    assert!(!out.is_empty());
}

fn matched_campaign_after_first_allocates_nothing() {
    // Same contract for a matched (MC-FTSA greedy) schedule: the strict
    // and rerouted bookkeeping paths share the flat workspace.
    let inst = test_instance();
    let mut ws = ScheduleWorkspace::new();
    let sched = schedule_into(
        &inst,
        1,
        Algorithm::McFtsaGreedy,
        &mut StdRng::seed_from_u64(4),
        &mut ws,
    )
    .unwrap()
    .clone();

    const REPS: usize = 30;
    let mut crash_ws = CrashWorkspace::new();
    let mut out: Vec<ReplicationOutcome> = Vec::new();
    simulate_replication_outcomes_into(&inst, &sched, 1, REPS, 0xF00D, &mut out, &mut crash_ws);

    let before = allocations();
    simulate_replication_outcomes_into(&inst, &sched, 1, REPS, 0xF00D, &mut out, &mut crash_ws);
    assert_eq!(
        allocations() - before,
        0,
        "matched-schedule Monte-Carlo steady state must not allocate"
    );
}
