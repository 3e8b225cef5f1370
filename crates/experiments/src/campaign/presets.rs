//! Named campaign presets: the paper's own evaluations (and the CI
//! smoke grid) as [`CampaignSpec`]s.
//!
//! The `fig1`–`fig4`, `table1`, `contention` and `reliability` presets
//! are **pinned bit-identical** to the pre-campaign bespoke drivers by
//! `tests/campaign_parity.rs` (frozen reference implementations): same
//! instances, same tie streams, same crash scenarios, same aggregation
//! order. That is what the `Paper*` [`Seeding`] modes encode. New
//! presets should use [`Seeding::Indexed`].

use super::{
    ArrivalSpec, CampaignSpec, LayeredRange, MeasurePlan, PlatformSpec, Seeding, StructuredKernel,
    StructuredWorkload, TimingCap, WorkloadSpec,
};
use ftsched_core::Algorithm;
use platform::{FailureModel, TimedRelativeFailures, UniformFailures};
use simulator::streaming::{ArrivalProcess, PoissonArrivals};

/// Every preset name, in display order.
pub const PRESET_NAMES: [&str; 11] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "table1-full",
    "contention",
    "reliability",
    "timed-crash",
    "online",
    "ci-smoke",
];

/// Builds the named preset. `reps` overrides the preset's repetition
/// count where its seeding uses the repetition index (every preset but
/// `table1`, `table1-full` and `reliability`, which evaluate one cell per
/// group — see [`Seeding::uses_repetition_index`]).
pub fn preset(name: &str, reps: Option<usize>) -> Option<CampaignSpec> {
    match name {
        "fig1" => Some(comparison_figure("fig1", 1, None, reps.unwrap_or(60))),
        "fig2" => Some(comparison_figure("fig2", 2, Some(1), reps.unwrap_or(60))),
        "fig3" => Some(comparison_figure("fig3", 5, Some(2), reps.unwrap_or(60))),
        "fig4" => Some(small_platform_figure(reps.unwrap_or(60))),
        "table1" => Some(table1(&[100, 500, 1000, 2000], 2000)),
        "table1-full" => Some(table1(&[100, 500, 1000, 2000, 3000, 5000], usize::MAX)),
        "contention" => Some(contention(reps.unwrap_or(30))),
        "reliability" => Some(reliability()),
        "timed-crash" => Some(timed_crash(reps.unwrap_or(30))),
        "online" => Some(online(reps.unwrap_or(5))),
        "ci-smoke" => Some(ci_smoke(reps.unwrap_or(2))),
        _ => None,
    }
}

/// A Section 6 figure: paper layered workload, one platform point per
/// granularity of the paper's sweep, FTSA with its fault-free baseline,
/// and the ε / 0 / `extra_crashes` crash counts (normalized series plus
/// overheads). `compare` adds MC-FTSA and FTBAR (Figures 1–3), with
/// FTBAR's fault-free baseline and message counts.
fn paper_figure(
    id: &str,
    procs: usize,
    epsilon: usize,
    compare: bool,
    extra_crashes: Option<usize>,
    repetitions: usize,
    seed: u64,
) -> CampaignSpec {
    let (algorithms, fault_free, messages) = if compare {
        (
            vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar],
            vec![Algorithm::Ftsa, Algorithm::Ftbar],
            vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
        )
    } else {
        (vec![Algorithm::Ftsa], vec![Algorithm::Ftsa], vec![])
    };
    let mut failures = vec![
        FailureModel::Epsilon,
        FailureModel::Uniform(UniformFailures { crashes: 0 }),
    ];
    failures
        .extend(extra_crashes.map(|crashes| FailureModel::Uniform(UniformFailures { crashes })));
    CampaignSpec {
        id: id.into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 100,
            tasks_hi: 150,
        })],
        platforms: crate::paper_granularities()
            .into_iter()
            .map(|g| PlatformSpec::paper(procs, g))
            .collect(),
        epsilons: vec![epsilon],
        algorithms,
        extra_algorithms: vec![],
        repetitions,
        seed,
        seeding: Seeding::PaperFigure,
        arrivals: None,
        measures: MeasurePlan {
            bounds: true,
            normalize: true,
            fault_free,
            overhead: true,
            failures,
            messages,
            ..Default::default()
        },
    }
}

/// Figures 1–3: 20 processors, FTSA vs MC-FTSA vs FTBAR at `epsilon`,
/// with an optional `extra_crashes` comparison series on FTSA.
fn comparison_figure(
    id: &str,
    epsilon: usize,
    extra_crashes: Option<usize>,
    repetitions: usize,
) -> CampaignSpec {
    let seed = 0xF16_0000 + epsilon as u64;
    paper_figure(id, 20, epsilon, true, extra_crashes, repetitions, seed)
}

/// Figure 4: 5 processors, ε = 2, FTSA with 0, 1 and 2 crashes.
fn small_platform_figure(repetitions: usize) -> CampaignSpec {
    paper_figure("fig4", 5, 2, false, Some(1), repetitions, 0xF16_4444)
}

/// Table 1: one fixed-size paper workload per row, a single
/// 50-processor point at ε = 5, wall-clock seconds plus raw
/// (un-normalized) latency bounds, FTBAR skipped above `ftbar_size_cap`
/// tasks (its cubic growth makes the largest sizes slow).
fn table1(sizes: &[usize], ftbar_size_cap: usize) -> CampaignSpec {
    CampaignSpec {
        id: "table1".into(),
        workloads: sizes
            .iter()
            .map(|&v| {
                WorkloadSpec::PaperLayered(LayeredRange {
                    tasks_lo: v,
                    tasks_hi: v,
                })
            })
            .collect(),
        platforms: vec![PlatformSpec::paper(50, 1.0)],
        epsilons: vec![5],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar],
        extra_algorithms: vec![],
        repetitions: 1,
        seed: 0x7AB1E1,
        seeding: Seeding::PaperTable,
        arrivals: None,
        measures: MeasurePlan {
            bounds: true,
            normalize: false,
            timing: true,
            timing_caps: vec![TimingCap {
                algorithm: Algorithm::Ftbar,
                max_tasks: ftbar_size_cap,
            }],
            ..Default::default()
        },
    }
}

/// The one-port contention extension (Section 7): fine-grain paper
/// instances (granularity 0.4, where communication dominates), an ε
/// axis, FTSA vs MC-FTSA one-port penalties and transfer counts.
fn contention(repetitions: usize) -> CampaignSpec {
    CampaignSpec {
        id: "contention".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 100,
            tasks_hi: 150,
        })],
        platforms: vec![PlatformSpec::paper(20, 0.4)],
        epsilons: vec![1, 2, 3, 5],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
        extra_algorithms: vec![],
        repetitions,
        seed: 0xC0417,
        seeding: Seeding::PaperContention,
        arrivals: None,
        measures: MeasurePlan {
            bounds: false,
            normalize: false,
            contention: true,
            ..Default::default()
        },
    }
}

/// The exact-reliability extension (Section 7): one 60-task instance on
/// 10 processors, an ε axis, FTSA survival probabilities against the
/// Theorem 4.1 design point over a failure-probability sweep.
fn reliability() -> CampaignSpec {
    CampaignSpec {
        id: "reliability".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 60,
            tasks_hi: 60,
        })],
        platforms: vec![PlatformSpec::paper(10, 1.0)],
        epsilons: vec![0, 1, 2, 4],
        algorithms: vec![Algorithm::Ftsa],
        extra_algorithms: vec![],
        repetitions: 1,
        seed: 0x8E11,
        seeding: Seeding::PaperReliability,
        arrivals: None,
        measures: MeasurePlan {
            bounds: false,
            normalize: false,
            reliability: vec![0.01, 0.05, 0.1, 0.25, 0.5],
            ..Default::default()
        },
    }
}

/// The mid-execution crash sweep: the paper's fail-at-time-zero
/// protocol (`Epsilon`) side by side with `TimedRelative` horizons at
/// 0.25/0.5/1.0 of each cell's reference makespan `M*` — so one preset
/// answers "how much does *when* the crash lands cost?" across
/// granularities without hand-tuning absolute horizons per instance
/// scale. Crashes landing after the schedule drains are free; crashes
/// at time 0 are the paper's worst case; the fractions interpolate.
pub fn timed_crash(repetitions: usize) -> CampaignSpec {
    CampaignSpec {
        id: "timed-crash".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 100,
            tasks_hi: 150,
        })],
        platforms: vec![
            PlatformSpec::paper(20, 0.5),
            PlatformSpec::paper(20, 1.0),
            PlatformSpec::paper(20, 2.0),
        ],
        epsilons: vec![2],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
        extra_algorithms: vec![],
        repetitions,
        seed: 0x71AED,
        seeding: Seeding::Indexed,
        arrivals: None,
        measures: MeasurePlan {
            bounds: true,
            normalize: true,
            failures: vec![
                FailureModel::Epsilon,
                FailureModel::TimedRelative(TimedRelativeFailures {
                    crashes: 2,
                    fraction: 0.25,
                }),
                FailureModel::TimedRelative(TimedRelativeFailures {
                    crashes: 2,
                    fraction: 0.5,
                }),
                FailureModel::TimedRelative(TimedRelativeFailures {
                    crashes: 2,
                    fraction: 1.0,
                }),
            ],
            ..Default::default()
        },
    }
}

/// The online-scheduling preset: Poisson DAG arrivals on a shared
/// 8-processor platform with persistent occupancy, one mid-stream
/// timed crash, and per-DAG response/latency/wait/deadline-miss
/// series. Every emitted number is deterministic (Indexed seeding, no
/// timing columns), so the CI thread matrix `cmp`s its outputs byte
/// for byte — the streaming analogue of `ci-smoke`.
pub fn online(repetitions: usize) -> CampaignSpec {
    CampaignSpec {
        id: "online".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 20,
            tasks_hi: 30,
        })],
        platforms: vec![PlatformSpec::paper(8, 1.0)],
        epsilons: vec![1],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
        extra_algorithms: vec![],
        repetitions,
        seed: 0x0A11E,
        seeding: Seeding::Indexed,
        arrivals: Some(ArrivalSpec {
            process: ArrivalProcess::Poisson(PoissonArrivals {
                rate: 0.001,
                count: 10,
            }),
            deadline_stretch: 6.0,
            failures: FailureModel::Timed(platform::TimedFailures {
                crashes: 1,
                horizon: 5000.0,
            }),
        }),
        measures: MeasurePlan {
            bounds: false,
            normalize: false,
            ..Default::default()
        },
    }
}

/// A deliberately tiny mixed-axis grid for CI: two workload families
/// (paper layered + a structured kernel), two granularities, Indexed
/// seeding, no timing columns — every emitted number is deterministic,
/// so the CI thread matrix can `cmp` the JSON outputs byte for byte.
pub fn ci_smoke(repetitions: usize) -> CampaignSpec {
    CampaignSpec {
        id: "ci-smoke".into(),
        workloads: vec![
            WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: 30,
                tasks_hi: 40,
            }),
            WorkloadSpec::Structured(StructuredWorkload {
                kernel: StructuredKernel::Wavefront,
                size: 4,
            }),
        ],
        platforms: vec![PlatformSpec::paper(8, 0.6), PlatformSpec::paper(8, 1.4)],
        epsilons: vec![1],
        algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar],
        extra_algorithms: vec![],
        repetitions,
        seed: 0xC1_5304E,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_with_threads, CampaignResult, GroupResult};

    /// The named figure preset on a narrowed granularity sweep.
    fn narrowed_figure(name: &str, granularities: &[f64], reps: usize) -> CampaignSpec {
        let mut spec = preset(name, Some(reps)).unwrap();
        let procs = spec.platforms[0].procs;
        spec.platforms = granularities
            .iter()
            .map(|&g| PlatformSpec::paper(procs, g))
            .collect();
        spec
    }

    /// The `table1` preset on smaller rows, platform and ε.
    fn narrowed_table1(sizes: &[usize], procs: usize, epsilon: usize, cap: usize) -> CampaignSpec {
        let mut spec = preset("table1", None).unwrap();
        spec.workloads = sizes
            .iter()
            .map(|&v| {
                WorkloadSpec::PaperLayered(LayeredRange {
                    tasks_lo: v,
                    tasks_hi: v,
                })
            })
            .collect();
        spec.platforms[0].procs = procs;
        spec.epsilons = vec![epsilon];
        spec.measures.timing_caps[0].max_tasks = cap;
        spec
    }

    fn run(spec: &CampaignSpec, threads: usize) -> CampaignResult {
        run_campaign_with_threads(spec, threads).unwrap_or_else(|e| panic!("{}: {e}", spec.id))
    }

    fn mean(g: &GroupResult, name: &str) -> f64 {
        g.mean(name)
            .unwrap_or_else(|| panic!("missing series {name} in {}", g.workload))
    }

    #[test]
    fn every_preset_builds_and_validates() {
        for name in PRESET_NAMES {
            let spec = preset(name, Some(2)).unwrap_or_else(|| panic!("missing preset {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!spec.id.is_empty());
        }
        assert!(preset("nope", None).is_none());
    }

    #[test]
    fn preset_reps_override_applies_to_figures() {
        let spec = preset("fig1", Some(5)).unwrap();
        assert_eq!(spec.repetitions, 5);
        let spec = preset("fig1", None).unwrap();
        assert_eq!(spec.repetitions, 60);
        // One-cell-per-group presets keep their single repetition.
        for name in ["table1", "table1-full", "reliability"] {
            let spec = preset(name, Some(5)).unwrap();
            assert_eq!(spec.repetitions, 1, "{name}");
            assert!(!spec.seeding.uses_repetition_index(), "{name}");
        }
    }

    #[test]
    fn figure_spec_mirrors_config_shape() {
        let spec = preset("fig2", Some(7)).unwrap();
        assert_eq!(spec.platforms.len(), crate::paper_granularities().len());
        assert_eq!(spec.epsilons, vec![2]);
        assert_eq!(spec.repetitions, 7);
        assert_eq!(spec.seeding, Seeding::PaperFigure);
        // ε = 2 figures add the 1-crash comparison series.
        assert_eq!(spec.measures.failures.len(), 3);
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
    }

    /// The `fig1` preset on two granularities, three repetitions.
    fn tiny_fig1() -> CampaignSpec {
        narrowed_figure("fig1", &[0.4, 1.2], 3)
    }

    #[test]
    fn fig1_run_produces_all_series() {
        let res = run(&tiny_fig1(), 2);
        assert_eq!(res.groups.len(), 2);
        for g in &res.groups {
            for name in [
                "FTSA-LowerBound",
                "FTSA-UpperBound",
                "MC-FTSA-LowerBound",
                "MC-FTSA-UpperBound",
                "FTBAR-LowerBound",
                "FTBAR-UpperBound",
                "FaultFree-FTSA",
                "FaultFree-FTBAR",
                "FTSA with 1 Crash",
                "MC-FTSA with 1 Crash",
                "FTBAR with 1 Crash",
                "FTSA with 0 Crash",
                "Overhead: FTSA with 1 Crash",
            ] {
                mean(g, name);
            }
        }
    }

    #[test]
    fn fig1_bounds_are_ordered() {
        for g in &run(&tiny_fig1(), 2).groups {
            assert!(mean(g, "FTSA-LowerBound") <= mean(g, "FTSA-UpperBound") + 1e-9);
            assert!(mean(g, "MC-FTSA-LowerBound") <= mean(g, "MC-FTSA-UpperBound") + 1e-9);
            // Fault-free schedules can't be slower than replicated lower
            // bounds on average.
            assert!(mean(g, "FaultFree-FTSA") <= mean(g, "FTSA-LowerBound") + 1e-9);
        }
    }

    #[test]
    fn fig1_mc_ftsa_ships_fewer_messages() {
        for g in &run(&tiny_fig1(), 2).groups {
            assert!(mean(g, "Messages: MC-FTSA") <= mean(g, "Messages: FTSA") + 1e-9);
        }
    }

    #[test]
    fn fig1_cells_are_thread_invariant() {
        let spec = tiny_fig1();
        assert_eq!(run(&spec, 1), run(&spec, 4));
    }

    #[test]
    fn fig1_latency_grows_with_granularity() {
        // The paper's headline shape: more computation per communication
        // unit → longer normalized latency.
        let res = run(&narrowed_figure("fig1", &[0.2, 2.0], 5), 2);
        assert!(mean(&res.groups[1], "FTSA-LowerBound") > mean(&res.groups[0], "FTSA-LowerBound"));
    }

    #[test]
    fn fig1_extra_algorithms_leave_paper_series_untouched() {
        let base = tiny_fig1();
        let mut ext = base.clone();
        // Ftsa duplicates a paper series: it must be skipped, not allowed
        // to overwrite the paper numbers with a different tie stream.
        ext.extra_algorithms = vec![
            Algorithm::FtsaPressure,
            Algorithm::FtbarMatched,
            Algorithm::Ftsa,
        ];
        let a = run(&base, 2);
        let b = run(&ext, 2);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            for s in &ga.series {
                assert_eq!(
                    mean(gb, &s.name).to_bits(),
                    s.mean.to_bits(),
                    "series {} disturbed",
                    s.name
                );
            }
            for name in ["P-FTSA", "MC-FTBAR"] {
                assert!(
                    mean(gb, &format!("{name}-LowerBound"))
                        <= mean(gb, &format!("{name}-UpperBound")) + 1e-9
                );
                mean(gb, &format!("{name} with 1 Crash"));
            }
            // MC-FTBAR inherits the matched-communication economy.
            assert!(mean(gb, "Messages: MC-FTBAR") <= mean(gb, "Messages: FTSA") + 1e-9);
        }
    }

    #[test]
    fn fig4_plots_ftsa_crashes_only() {
        let res = run(&narrowed_figure("fig4", &[0.6], 2), 1);
        let g = &res.groups[0];
        mean(g, "FTSA with 2 Crash");
        mean(g, "FTSA with 1 Crash");
        assert!(g.series.iter().all(|s| !s.name.contains("FTBAR")));
    }

    #[test]
    fn table1_spec_caps_ftbar() {
        let spec = preset("table1", None).unwrap();
        assert!(spec.measures.timing);
        assert_eq!(spec.measures.timing_caps.len(), 1);
        assert_eq!(spec.measures.timing_caps[0].algorithm, Algorithm::Ftbar);
        assert_eq!(spec.repetitions, 1);
    }

    #[test]
    fn table1_ftbar_is_slower_than_ftsa() {
        // One thread, so concurrent rows do not distort the seconds.
        let res = run(&narrowed_table1(&[100, 300], 20, 2, 300), 1);
        assert_eq!(res.groups.len(), 2);
        for g in &res.groups {
            assert!(mean(g, "Seconds: FTSA") >= 0.0);
            mean(g, "Seconds: FTBAR");
        }
        // FTBAR must be slower than FTSA at the larger size — the paper's
        // central Table 1 claim (debug builds keep the ordering).
        let last = &res.groups[1];
        let (ftbar, ftsa) = (mean(last, "Seconds: FTBAR"), mean(last, "Seconds: FTSA"));
        assert!(
            ftbar > ftsa,
            "FTBAR ({ftbar}s) should be slower than FTSA ({ftsa}s)"
        );
    }

    #[test]
    fn table1_cap_skips_ftbar() {
        let mut spec = narrowed_table1(&[200], 10, 1, 100);
        spec.seed = 2;
        let res = run(&spec, 1);
        assert!(res.groups[0]
            .series
            .iter()
            .all(|s| !s.name.contains("FTBAR")));
        mean(&res.groups[0], "Seconds: FTSA");
    }

    #[test]
    fn table1_latency_series_are_thread_invariant() {
        let mut spec = narrowed_table1(&[60, 120], 10, 1, 120);
        spec.seed = 3;
        // Wall-clock series are measurements, not outputs; every other
        // series must match bitwise.
        let deterministic = |threads: usize| {
            let mut res = run(&spec, threads);
            for g in &mut res.groups {
                g.series.retain(|s| !s.name.starts_with("Seconds:"));
            }
            res
        };
        let seq = deterministic(1);
        mean(&seq.groups[1], "FTBAR-LowerBound");
        assert_eq!(seq, deterministic(4));
    }

    #[test]
    fn table1_extra_algorithms_are_timed_and_bounded() {
        let mut spec = narrowed_table1(&[80], 10, 1, 80);
        spec.extra_algorithms = vec![Algorithm::FtsaPressure, Algorithm::FtbarMatched];
        let res = run(&spec, 1);
        for name in ["P-FTSA", "MC-FTBAR"] {
            assert!(mean(&res.groups[0], &format!("Seconds: {name}")) >= 0.0);
            assert!(mean(&res.groups[0], &format!("{name}-LowerBound")) > 0.0);
        }
    }

    #[test]
    fn contention_penalises_mc_ftsa_less() {
        let mut spec = preset("contention", Some(4)).unwrap();
        spec.epsilons = vec![2];
        spec.seed = 77;
        let res = run(&spec, 2);
        let g = &res.groups[0];
        assert!(mean(g, "OnePortPenalty: MC-FTSA") <= mean(g, "OnePortPenalty: FTSA") + 1e-9);
        assert!(mean(g, "Transfers: MC-FTSA") < mean(g, "Transfers: FTSA"));
        assert_eq!(run(&spec, 1), res, "thread-invariant");
    }

    #[test]
    fn reliability_respects_theorem_4_1() {
        let mut spec = preset("reliability", None).unwrap();
        spec.epsilons = vec![0, 2];
        spec.platforms[0].procs = 8;
        spec.measures.reliability = vec![0.1, 0.4];
        spec.seed = 5;
        for g in &run(&spec, 2).groups {
            for p in [0.1, 0.4] {
                let survival = mean(g, &format!("P(survive) p={p}"));
                let design = mean(g, &format!("DesignPoint p={p}"));
                assert!(survival >= design - 1e-9, "Theorem 4.1 lower bound");
                assert!((0.0..=1.0).contains(&survival));
            }
        }
    }

    #[test]
    fn timed_crash_spec_sweeps_relative_horizons() {
        let spec = preset("timed-crash", Some(3)).unwrap();
        assert_eq!(spec.repetitions, 3);
        assert_eq!(spec.measures.failures.len(), 4);
        let fractions: Vec<f64> = spec
            .measures
            .failures
            .iter()
            .filter_map(|fm| match fm {
                FailureModel::TimedRelative(t) => Some(t.fraction),
                _ => None,
            })
            .collect();
        assert_eq!(fractions, vec![0.25, 0.5, 1.0]);
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn online_spec_is_a_deterministic_stream_grid() {
        let spec = preset("online", None).unwrap();
        let arr = spec.arrivals.as_ref().expect("online preset streams");
        assert_eq!(arr.process.count(), 10);
        // No wall-clock columns: the CI thread matrix byte-compares it.
        assert!(!spec.measures.timing);
        assert_eq!(spec.seeding, Seeding::Indexed);
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
    }
}
