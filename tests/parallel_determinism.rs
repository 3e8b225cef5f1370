//! Sequential-equivalence suite for every parallelized sweep.
//!
//! The workspace's parallelism contract: a sweep fanned out through
//! `simulator::parallel::parallel_map_with` returns **bit-identical**
//! output at `threads = 1`, `2` and `available_parallelism()`, and
//! reruns with the same seed are identical across runs. This suite
//! enforces the contract end to end for the figure and Table 1 presets,
//! the Monte-Carlo crash-simulation replications and the reliability
//! estimator. (The companion wall-clock speedup measurement lives in its
//! own binary, `tests/parallel_speedup.rs`, so nothing competes with its
//! timing.)
//!
//! The CI thread matrix reruns this suite under `FTSCHED_THREADS=1` and
//! `FTSCHED_THREADS=4`, so one worker and several workers (each keeping
//! one state across the chunks it claims) are exercised on every push.

use experiments::campaign::{
    presets, run_campaign_with_threads, CampaignSpec, LayeredRange, PlatformSpec, WorkloadSpec,
};
use experiments::output::campaign_to_json;
use experiments::parallel::{default_threads, parallel_map_with};
use ftsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::reliability::survival_probability_monte_carlo_par;

/// Thread counts every sweep must agree across: sequential, minimal
/// parallelism, whatever this machine offers, and the CI matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![
        1,
        2,
        std::thread::available_parallelism().map_or(4, |n| n.get()),
        default_threads(),
    ];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The fig1 preset narrowed to two granularities.
fn tiny_figure() -> CampaignSpec {
    let mut spec = presets::preset("fig1", Some(4)).expect("preset");
    spec.platforms = vec![PlatformSpec::paper(20, 0.4), PlatformSpec::paper(20, 1.2)];
    spec
}

/// The campaign's JSON at `threads` workers: every statistic of every
/// series, so equal text means bit-identical results.
fn json_at(spec: &CampaignSpec, threads: usize) -> String {
    campaign_to_json(&run_campaign_with_threads(spec, threads).expect("valid spec"))
}

#[test]
fn figure_cells_identical_across_thread_counts() {
    let spec = tiny_figure();
    let reference = json_at(&spec, 1);
    for threads in thread_counts() {
        assert_eq!(
            json_at(&spec, threads),
            reference,
            "diverged at {threads} threads"
        );
    }
}

#[test]
fn figure_rerun_with_same_seed_is_identical() {
    let spec = tiny_figure();
    assert_eq!(json_at(&spec, 2), json_at(&spec, 2));
}

#[test]
fn table1_rows_identical_across_thread_counts() {
    let mut spec = presets::preset("table1", None).expect("preset");
    spec.workloads = [60, 100, 140]
        .map(|v| {
            WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: v,
                tasks_hi: v,
            })
        })
        .to_vec();
    spec.platforms[0].procs = 10;
    spec.epsilons = vec![1];
    spec.measures.timing_caps[0].max_tasks = 140;
    spec.seed = 0xDE7;
    // Wall-clock series are measurements, not outputs; every
    // deterministic series must match bitwise.
    let deterministic = |threads: usize| {
        let mut res = run_campaign_with_threads(&spec, threads).expect("valid spec");
        for g in &mut res.groups {
            g.series.retain(|s| !s.name.starts_with("Seconds:"));
        }
        campaign_to_json(&res)
    };
    let reference = deterministic(1);
    assert!(reference.contains("FTBAR-LowerBound"));
    for threads in thread_counts() {
        assert_eq!(
            deterministic(threads),
            reference,
            "diverged at {threads} threads"
        );
    }
}

fn determinism_instance() -> (Instance, Schedule) {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
    let sched = schedule(&inst, 2, Algorithm::Ftsa, &mut rng).expect("schedulable");
    (inst, sched)
}

#[test]
fn crash_replications_identical_across_thread_counts() {
    let (inst, sched) = determinism_instance();
    let reference = summarize_replications(&inst, &sched, 2, 24, 0xC4A5, 1);
    assert_eq!(reference.replications, 24);
    for threads in thread_counts() {
        let sum = summarize_replications(&inst, &sched, 2, 24, 0xC4A5, threads);
        assert_eq!(sum.latency_sum.to_bits(), reference.latency_sum.to_bits());
        assert_eq!(sum, reference, "diverged at {threads} threads");
    }
}

#[test]
fn crash_replications_rerun_identical() {
    let (inst, sched) = determinism_instance();
    let a = summarize_replications(&inst, &sched, 1, 16, 99, 2);
    let b = summarize_replications(&inst, &sched, 1, 16, 99, 2);
    assert_eq!(a.latency_sum.to_bits(), b.latency_sum.to_bits());
    assert_eq!(a, b);
}

#[test]
fn reliability_estimate_identical_across_thread_counts() {
    let (inst, sched) = determinism_instance();
    let reference = survival_probability_monte_carlo_par(&inst, &sched, 0.2, 2000, 0x11, 1);
    for threads in thread_counts() {
        let mc = survival_probability_monte_carlo_par(&inst, &sched, 0.2, 2000, 0x11, threads);
        assert_eq!(reference.survival.to_bits(), mc.survival.to_bits());
        assert_eq!(
            reference.expected_latency.to_bits(),
            mc.expected_latency.to_bits()
        );
        assert_eq!(reference.samples, mc.samples);
    }
}

#[test]
fn parallel_map_keeps_index_derived_seed_contract() {
    // The contract every sweep builds on: f(i) may only depend on i.
    let cell = |i: usize| {
        let mut rng = StdRng::seed_from_u64(simulator::replication_seed(0xABCD, i as u64));
        let inst = paper_instance(
            &mut rng,
            &PaperInstanceConfig {
                tasks_lo: 20,
                tasks_hi: 30,
                procs: 5,
                ..Default::default()
            },
        );
        let sched = schedule(&inst, 1, Algorithm::Ftsa, &mut rng).expect("schedulable");
        sched.latency_lower_bound()
    };
    let reference: Vec<f64> = (0..24).map(cell).collect();
    for threads in thread_counts() {
        let got = parallel_map_with(24, threads, || (), |_, i| cell(i));
        let same = reference
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "parallel_map_with diverged at {threads} threads");
    }
}

#[test]
fn campaign_json_identical_across_thread_counts() {
    // The campaign engine end to end — enumeration, per-worker-state
    // executor, streaming aggregation, JSON emission — must be **byte**
    // identical at every thread count (this is what lets the CI matrix
    // `cmp` the CLI's emitted files across FTSCHED_THREADS values). The
    // ci-smoke preset carries no timing measures, so every emitted
    // number is deterministic.
    let spec = experiments::campaign::presets::preset("ci-smoke", Some(2)).expect("preset");
    let reference = experiments::output::campaign_to_json(
        &experiments::campaign::run_campaign_with_threads(&spec, 1).expect("valid spec"),
    );
    assert!(reference.contains("ci-smoke"));
    for threads in thread_counts() {
        let run = experiments::output::campaign_to_json(
            &experiments::campaign::run_campaign_with_threads(&spec, threads).expect("valid spec"),
        );
        assert_eq!(
            run, reference,
            "campaign JSON diverged at {threads} threads"
        );
    }
    // Rerun stability at a fixed thread count.
    let again = experiments::output::campaign_to_json(
        &experiments::campaign::run_campaign_with_threads(&spec, 2).expect("valid spec"),
    );
    assert_eq!(again, reference);
}

#[test]
fn online_campaign_json_identical_across_thread_counts() {
    // The streaming (arrival-axis) executor path: stream cells carry
    // per-worker StreamWorkspaces and two occupancy timelines each, and
    // the per-DAG RNGs are derived from the cell seed — so the emitted
    // JSON must stay byte-identical at every thread count, exactly like
    // the offline ci-smoke grid. CI `cmp`s the CLI outputs of this
    // preset across FTSCHED_THREADS values.
    let spec = experiments::campaign::presets::preset("online", Some(2)).expect("preset");
    assert!(spec.arrivals.is_some(), "online preset must carry arrivals");
    let reference = experiments::output::campaign_to_json(
        &experiments::campaign::run_campaign_with_threads(&spec, 1).expect("valid spec"),
    );
    assert!(reference.contains("Stream Response"));
    for threads in thread_counts() {
        let run = experiments::output::campaign_to_json(
            &experiments::campaign::run_campaign_with_threads(&spec, threads).expect("valid spec"),
        );
        assert_eq!(
            run, reference,
            "online campaign JSON diverged at {threads} threads"
        );
    }
}

#[test]
fn parallel_map_with_keeps_the_determinism_contract() {
    // Per-chunk state (the campaign executor's workspace threading)
    // must be invisible in the output: bit-identical to a sequential map
    // at every worker count, even though chunks share mutable state.
    let cell = |i: usize| {
        let mut rng = StdRng::seed_from_u64(simulator::replication_seed(0x5EED, i as u64));
        let inst = paper_instance(
            &mut rng,
            &PaperInstanceConfig {
                tasks_lo: 15,
                tasks_hi: 25,
                procs: 5,
                ..Default::default()
            },
        );
        schedule(&inst, 1, Algorithm::Ftsa, &mut rng)
            .expect("schedulable")
            .latency_lower_bound()
    };
    let reference: Vec<f64> = (0..20).map(cell).collect();
    for threads in thread_counts() {
        let got = parallel_map_with(
            20,
            threads,
            ftsched_core::ScheduleWorkspace::new,
            |ws, i| {
                // Exercise the state so reuse actually happens, without
                // letting it affect the returned value.
                let mut rng = StdRng::seed_from_u64(simulator::replication_seed(0x5EED, i as u64));
                let inst = paper_instance(
                    &mut rng,
                    &PaperInstanceConfig {
                        tasks_lo: 15,
                        tasks_hi: 25,
                        procs: 5,
                        ..Default::default()
                    },
                );
                ftsched_core::schedule_into(&inst, 1, Algorithm::Ftsa, &mut rng, ws)
                    .expect("schedulable")
                    .latency_lower_bound()
            },
        );
        let same = reference
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "parallel_map_with diverged at {threads} threads");
    }
}

// The wall-clock speedup measurement lives in its own test binary
// (`tests/parallel_speedup.rs`) so no sibling test competes for cores
// while it times the sweep.
