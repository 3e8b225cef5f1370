//! Bit-for-bit parity of the campaign presets against the pre-campaign
//! bespoke drivers.
//!
//! The `frozen` module below is a verbatim copy of the figure / Table 1 /
//! contention / reliability evaluation code as it existed before the
//! campaign engine replaced it (allocating `schedule()` / `simulate()`
//! calls, hand-rolled seed derivations, per-driver aggregation). It is
//! the *reference implementation* these tests compare against: the
//! campaign presets must reproduce every deterministic series **bit for
//! bit** at the same seeds. Do not "modernize" this module — its whole
//! value is that it does not share code with the engine under test.

use experiments::campaign::{
    presets::{preset, PRESET_NAMES},
    run_campaign_with_threads, CampaignSpec, LayeredRange, PlatformSpec, WorkloadSpec,
};
use ftsched_core::Algorithm;
use platform::{FailureModel, UniformFailures};

/// The frozen figure driver's configuration. The tests below derive it
/// from the preset spec under test, so parity checks the presets
/// themselves.
struct FigureConfig {
    epsilon: usize,
    procs: usize,
    granularities: Vec<f64>,
    repetitions: usize,
    extra_crash_counts: Vec<usize>,
    compare_algorithms: bool,
    extra_algorithms: Vec<Algorithm>,
    seed: u64,
}

impl FigureConfig {
    /// The figure configuration a `PaperFigure` spec encodes. Spec parts
    /// the frozen driver cannot express show up as differing series.
    fn of(spec: &CampaignSpec) -> FigureConfig {
        let (base, extra) = spec.measures.failures.split_at(2);
        assert_eq!(
            base,
            [
                FailureModel::Epsilon,
                FailureModel::Uniform(UniformFailures { crashes: 0 })
            ],
            "{}",
            spec.id
        );
        FigureConfig {
            epsilon: spec.epsilons[0],
            procs: spec.platforms[0].procs,
            granularities: spec.platforms.iter().map(|p| p.granularity).collect(),
            repetitions: spec.repetitions,
            extra_crash_counts: extra
                .iter()
                .map(|fm| match fm {
                    FailureModel::Uniform(u) => u.crashes,
                    other => panic!("{}: unexpected failure model {other:?}", spec.id),
                })
                .collect(),
            compare_algorithms: spec.algorithms.len() > 1,
            extra_algorithms: spec.extra_algorithms.clone(),
            seed: spec.seed,
        }
    }
}

/// The frozen Table 1 driver's configuration, derived from a spec like
/// [`FigureConfig::of`].
struct Table1Config {
    procs: usize,
    epsilon: usize,
    ftbar_size_cap: usize,
    extra_algorithms: Vec<Algorithm>,
    seed: u64,
}

impl Table1Config {
    fn of(spec: &CampaignSpec) -> Table1Config {
        Table1Config {
            procs: spec.platforms[0].procs,
            epsilon: spec.epsilons[0],
            ftbar_size_cap: spec.measures.timing_caps[0].max_tasks,
            extra_algorithms: spec.extra_algorithms.clone(),
            seed: spec.seed,
        }
    }
}

/// The scheduler entry points `frozen` was written against. The three
/// paper algorithms are one-expression adapters over
/// `ListScheduler::new(..).run(..)`, with the axes each named; the rest
/// is re-exported from `ftsched_core`.
mod adapters {
    use ftsched_core::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis};
    use ftsched_core::ScheduleError;
    pub use ftsched_core::{schedule, Algorithm, Schedule};
    use platform::Instance;
    use rand::Rng;

    type Run = Result<Schedule, ScheduleError>;

    pub fn ftsa(inst: &Instance, eps: usize, rng: &mut impl Rng) -> Run {
        ListScheduler::new(
            PriorityAxis::Criticalness,
            PlacementAxis::BestFinish,
            CommAxis::AllToAll,
        )
        .run(inst, eps, rng)
    }

    pub fn ftbar(inst: &Instance, eps: usize, rng: &mut impl Rng) -> Run {
        ListScheduler::new(
            PriorityAxis::Pressure,
            PlacementAxis::MinStart { duplicate: true },
            CommAxis::AllToAll,
        )
        .run(inst, eps, rng)
    }

    pub mod mc_ftsa {
        pub use ftsched_core::pipeline::Selector;
        use ftsched_core::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis};
        use platform::Instance;
        use rand::Rng;

        pub fn mc_ftsa(
            inst: &Instance,
            eps: usize,
            sel: Selector,
            rng: &mut impl Rng,
        ) -> super::Run {
            ListScheduler::new(
                PriorityAxis::Criticalness,
                PlacementAxis::BestFinish,
                CommAxis::Matched(sel),
            )
            .run(inst, eps, rng)
        }
    }
}

/// Frozen pre-campaign reference implementations (see the file docs).
mod frozen {
    use super::adapters::{ftbar, ftsa, mc_ftsa, schedule, Algorithm, Schedule};
    use experiments::mean;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::{FailureScenario, Instance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simulator::contention::{simulate_contention, PortModel};
    use simulator::reliability::{design_point_probability, survival_probability_exact};
    use simulator::simulate;
    use std::collections::BTreeMap;

    pub fn normalization(inst: &Instance) -> f64 {
        let e = inst.dag.num_edges();
        if e == 0 {
            return 1.0;
        }
        let d = inst.platform.average_delay();
        let total: f64 = inst.dag.edge_list().map(|(_, _, _, v)| v * d).sum();
        (total / e as f64).max(f64::MIN_POSITIVE)
    }

    fn crash_latency(inst: &Instance, sched: &Schedule, crashes: usize, rng: &mut StdRng) -> f64 {
        let scen = if crashes == 0 {
            FailureScenario::none()
        } else {
            FailureScenario::uniform(rng, inst.num_procs(), crashes)
        };
        simulate(inst, sched, &scen).latency
    }

    pub fn run_cell(
        cfg: &super::FigureConfig,
        granularity: f64,
        rep: usize,
    ) -> BTreeMap<String, f64> {
        let cell_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((granularity * 1e6) as u64)
            .wrapping_add(rep as u64);
        let mut gen_rng = StdRng::seed_from_u64(cell_seed);
        let inst = paper_instance(
            &mut gen_rng,
            &PaperInstanceConfig {
                procs: cfg.procs,
                granularity,
                ..Default::default()
            },
        );
        let norm = normalization(&inst);
        let eps = cfg.epsilon;

        let mut tie = StdRng::seed_from_u64(cell_seed ^ 0xA5A5);
        let ftsa_s = ftsa(&inst, eps, &mut tie).expect("enough processors");
        let ff_ftsa = ftsa(&inst, 0, &mut tie).expect("enough processors");

        let mut out = BTreeMap::new();
        let nl = |x: f64| x / norm;
        out.insert("FTSA-LowerBound".into(), nl(ftsa_s.latency_lower_bound()));
        out.insert("FTSA-UpperBound".into(), nl(ftsa_s.latency_upper_bound()));
        out.insert("FaultFree-FTSA".into(), nl(ff_ftsa.latency_lower_bound()));

        let ftsa_star = ff_ftsa.latency_lower_bound();
        let ov = |x: f64| (x - ftsa_star) / ftsa_star * 100.0;

        let mut crash_rng = StdRng::seed_from_u64(cell_seed ^ 0xC4A5);
        let l_ftsa_crash = crash_latency(&inst, &ftsa_s, eps, &mut crash_rng);
        out.insert(format!("FTSA with {eps} Crash"), nl(l_ftsa_crash));
        out.insert(format!("Overhead: FTSA with {eps} Crash"), ov(l_ftsa_crash));
        let l_ftsa_0 = crash_latency(&inst, &ftsa_s, 0, &mut crash_rng);
        out.insert("FTSA with 0 Crash".into(), nl(l_ftsa_0));
        out.insert("Overhead: FTSA with 0 Crash".into(), ov(l_ftsa_0));
        for &k in &cfg.extra_crash_counts {
            let l = crash_latency(&inst, &ftsa_s, k, &mut crash_rng);
            out.insert(format!("FTSA with {k} Crash"), nl(l));
            out.insert(format!("Overhead: FTSA with {k} Crash"), ov(l));
        }

        if cfg.compare_algorithms {
            let mc_s = mc_ftsa::mc_ftsa(&inst, eps, mc_ftsa::Selector::Greedy, &mut tie)
                .expect("enough processors");
            let ftbar_s = ftbar(&inst, eps, &mut tie).expect("enough processors");
            let ff_ftbar = ftbar(&inst, 0, &mut tie).expect("enough processors");

            out.insert("MC-FTSA-LowerBound".into(), nl(mc_s.latency_lower_bound()));
            out.insert("MC-FTSA-UpperBound".into(), nl(mc_s.latency_upper_bound()));
            out.insert("FTBAR-LowerBound".into(), nl(ftbar_s.latency_lower_bound()));
            out.insert("FTBAR-UpperBound".into(), nl(ftbar_s.latency_upper_bound()));
            out.insert("FaultFree-FTBAR".into(), nl(ff_ftbar.latency_lower_bound()));

            let mut crash_rng2 = StdRng::seed_from_u64(cell_seed ^ 0xC4A5);
            let scen = if eps == 0 {
                FailureScenario::none()
            } else {
                FailureScenario::uniform(&mut crash_rng2, inst.num_procs(), eps)
            };
            let l_mc = simulate(&inst, &mc_s, &scen).latency;
            let l_fb = simulate(&inst, &ftbar_s, &scen).latency;
            out.insert(format!("MC-FTSA with {eps} Crash"), nl(l_mc));
            out.insert(format!("Overhead: MC-FTSA with {eps} Crash"), ov(l_mc));
            out.insert(format!("FTBAR with {eps} Crash"), nl(l_fb));
            out.insert(format!("Overhead: FTBAR with {eps} Crash"), ov(l_fb));

            out.insert(
                "Messages: FTSA".into(),
                ftsa_s.message_count(&inst.dag) as f64,
            );
            out.insert(
                "Messages: MC-FTSA".into(),
                mc_s.message_count(&inst.dag) as f64,
            );
        }

        for (ai, &alg) in cfg.extra_algorithms.iter().enumerate() {
            let name = alg.name();
            if out.contains_key(&format!("{name}-LowerBound")) {
                continue;
            }
            let mut tie2 = StdRng::seed_from_u64(cell_seed ^ (0xA1_6000 + ai as u64));
            let s = schedule(&inst, eps, alg, &mut tie2).expect("enough processors");
            out.insert(format!("{name}-LowerBound"), nl(s.latency_lower_bound()));
            out.insert(format!("{name}-UpperBound"), nl(s.latency_upper_bound()));
            let mut crash_rng3 = StdRng::seed_from_u64(cell_seed ^ 0xC4A5);
            let scen = if eps == 0 {
                FailureScenario::none()
            } else {
                FailureScenario::uniform(&mut crash_rng3, inst.num_procs(), eps)
            };
            let l = simulate(&inst, &s, &scen).latency;
            out.insert(format!("{name} with {eps} Crash"), nl(l));
            out.insert(format!("Overhead: {name} with {eps} Crash"), ov(l));
            out.insert(
                format!("Messages: {name}"),
                s.message_count(&inst.dag) as f64,
            );
        }

        out
    }

    /// The frozen figure aggregation: mean per series per granularity, in
    /// cell order.
    pub fn run_figure(cfg: &super::FigureConfig) -> Vec<(f64, BTreeMap<String, f64>)> {
        let cells: Vec<(f64, usize)> = cfg
            .granularities
            .iter()
            .flat_map(|&g| (0..cfg.repetitions).map(move |r| (g, r)))
            .collect();
        let raw: Vec<(f64, BTreeMap<String, f64>)> = cells
            .iter()
            .map(|&(g, r)| (g, run_cell(cfg, g, r)))
            .collect();
        let mut points = Vec::new();
        for &g in &cfg.granularities {
            let mut acc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for (_, cell) in raw.iter().filter(|(gg, _)| (gg - g).abs() < 1e-12) {
                for (k, v) in cell {
                    acc.entry(k.clone()).or_default().push(*v);
                }
            }
            let series = acc.into_iter().map(|(k, vs)| (k, mean(&vs))).collect();
            points.push((g, series));
        }
        points
    }

    pub struct FrozenTable1Row {
        pub tasks: usize,
        pub ftsa_latency: f64,
        pub mc_ftsa_latency: f64,
        pub ftbar_latency: Option<f64>,
        pub extra: Vec<(String, f64)>,
    }

    /// The frozen Table 1 row evaluation, deterministic columns only.
    pub fn run_table1_row(cfg: &super::Table1Config, v: usize) -> FrozenTable1Row {
        let mut gen_rng = StdRng::seed_from_u64(cfg.seed ^ v as u64);
        let inst = paper_instance(
            &mut gen_rng,
            &PaperInstanceConfig {
                tasks_lo: v,
                tasks_hi: v,
                procs: cfg.procs,
                granularity: 1.0,
                ..Default::default()
            },
        );
        let ftsa_latency = {
            let mut r = StdRng::seed_from_u64(cfg.seed);
            ftsa(&inst, cfg.epsilon, &mut r)
                .expect("schedulable")
                .latency_lower_bound()
        };
        let mc_ftsa_latency = {
            let mut r = StdRng::seed_from_u64(cfg.seed);
            mc_ftsa::mc_ftsa(&inst, cfg.epsilon, mc_ftsa::Selector::Greedy, &mut r)
                .expect("schedulable")
                .latency_lower_bound()
        };
        let ftbar_latency = (v <= cfg.ftbar_size_cap).then(|| {
            let mut r = StdRng::seed_from_u64(cfg.seed);
            ftbar(&inst, cfg.epsilon, &mut r)
                .expect("schedulable")
                .latency_lower_bound()
        });
        let extra = cfg
            .extra_algorithms
            .iter()
            .map(|&alg| {
                let mut r = StdRng::seed_from_u64(cfg.seed);
                let s = schedule(&inst, cfg.epsilon, alg, &mut r).expect("schedulable");
                (alg.name().to_string(), s.latency_lower_bound())
            })
            .collect();
        FrozenTable1Row {
            tasks: v,
            ftsa_latency,
            mc_ftsa_latency,
            ftbar_latency,
            extra,
        }
    }

    pub struct FrozenContentionRow {
        pub epsilon: usize,
        pub ftsa_penalty: f64,
        pub mc_penalty: f64,
        pub ftsa_transfers: f64,
        pub mc_transfers: f64,
    }

    /// The frozen contention sweep (sequential; cell values are
    /// thread-invariant).
    pub fn run_contention(
        epsilons: &[usize],
        repetitions: usize,
        granularity: f64,
        seed: u64,
    ) -> Vec<FrozenContentionRow> {
        epsilons
            .iter()
            .map(|&eps| {
                let cells: Vec<(f64, f64, f64, f64)> = (0..repetitions)
                    .map(|rep| {
                        let cell_seed = seed ^ (eps as u64) << 32 | rep as u64;
                        let mut g = StdRng::seed_from_u64(cell_seed);
                        let inst = paper_instance(
                            &mut g,
                            &PaperInstanceConfig {
                                granularity,
                                ..Default::default()
                            },
                        );
                        let mut tie = StdRng::seed_from_u64(cell_seed ^ 0xBEEF);
                        let f = schedule(&inst, eps, Algorithm::Ftsa, &mut tie).unwrap();
                        let mc = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut tie).unwrap();
                        let measure = |s: &Schedule| {
                            let unb = simulate_contention(
                                &inst,
                                s,
                                &FailureScenario::none(),
                                PortModel::Unbounded,
                            );
                            let one = simulate_contention(
                                &inst,
                                s,
                                &FailureScenario::none(),
                                PortModel::OnePort,
                            );
                            (one.latency / unb.latency, one.transfers as f64)
                        };
                        let (fp, ft) = measure(&f);
                        let (mp, mt) = measure(&mc);
                        (fp, mp, ft, mt)
                    })
                    .collect();
                FrozenContentionRow {
                    epsilon: eps,
                    ftsa_penalty: mean(&cells.iter().map(|c| c.0).collect::<Vec<_>>()),
                    mc_penalty: mean(&cells.iter().map(|c| c.1).collect::<Vec<_>>()),
                    ftsa_transfers: mean(&cells.iter().map(|c| c.2).collect::<Vec<_>>()),
                    mc_transfers: mean(&cells.iter().map(|c| c.3).collect::<Vec<_>>()),
                }
            })
            .collect()
    }

    pub struct FrozenReliabilityRow {
        pub epsilon: usize,
        pub p: f64,
        pub survival: f64,
        pub design_point: f64,
    }

    /// The frozen reliability sweep.
    pub fn run_reliability(
        epsilons: &[usize],
        probabilities: &[f64],
        procs: usize,
        seed: u64,
    ) -> Vec<FrozenReliabilityRow> {
        let mut g = StdRng::seed_from_u64(seed);
        let inst = paper_instance(
            &mut g,
            &PaperInstanceConfig {
                tasks_lo: 60,
                tasks_hi: 60,
                procs,
                granularity: 1.0,
                ..Default::default()
            },
        );
        let mut rows = Vec::new();
        for &eps in epsilons {
            let mut tie = StdRng::seed_from_u64(seed ^ eps as u64);
            let sched = schedule(&inst, eps, Algorithm::Ftsa, &mut tie).unwrap();
            for &p in probabilities {
                rows.push(FrozenReliabilityRow {
                    epsilon: eps,
                    p,
                    survival: survival_probability_exact(&inst, &sched, p),
                    design_point: design_point_probability(procs, eps, p),
                });
            }
        }
        rows
    }
}

/// The named figure preset on a narrowed granularity sweep.
fn narrowed_figure(name: &str, epsilon: usize, granularities: &[f64]) -> CampaignSpec {
    let mut spec = preset(name, Some(2)).unwrap();
    let procs = spec.platforms[0].procs;
    spec.platforms = granularities
        .iter()
        .map(|&g| PlatformSpec::paper(procs, g))
        .collect();
    spec.epsilons = vec![epsilon];
    spec
}

fn assert_figure_matches_frozen(spec: &CampaignSpec) {
    let reference = frozen::run_figure(&FigureConfig::of(spec));
    let campaign = run_campaign_with_threads(spec, 2).unwrap();
    assert_eq!(campaign.groups.len(), reference.len());
    for (group, (g, series)) in campaign.groups.iter().zip(reference.iter()) {
        assert!((group.granularity - g).abs() < 1e-12);
        assert_eq!(
            group.series.len(),
            series.len(),
            "series set differs at g = {g}: campaign {:?} vs frozen {:?}",
            group.series.iter().map(|s| &s.name).collect::<Vec<_>>(),
            series.keys().collect::<Vec<_>>()
        );
        for (name, &value) in series {
            let got = group
                .mean(name)
                .unwrap_or_else(|| panic!("series `{name}` missing at g = {g}"));
            assert_eq!(
                got.to_bits(),
                value.to_bits(),
                "series `{name}` at g = {g}: campaign {got} vs frozen {value}"
            );
        }
    }
}

#[test]
fn figure_presets_match_frozen_drivers_bit_for_bit() {
    // ε = 1 (fig1), ε = 2 with the extra 1-crash series (fig2) and the
    // ε = 5 shape (fig3), at a reduced grid for test time — the
    // seeding/stream structure is identical to the full presets.
    // ε = 0 pins the degenerate case where the frozen driver inserted
    // "FTSA with 0 Crash" twice under one BTreeMap key (identical
    // values) and the campaign engine skips the duplicate label.
    for (name, eps, grans) in [
        ("fig1", 0usize, vec![0.6]),
        ("fig1", 1, vec![0.2, 1.0, 2.0]),
        ("fig2", 2, vec![0.4, 1.6]),
        ("fig3", 5, vec![0.8]),
    ] {
        assert_figure_matches_frozen(&narrowed_figure(name, eps, &grans));
    }
}

#[test]
fn fig4_small_platform_matches_frozen_driver() {
    assert_figure_matches_frozen(&narrowed_figure("fig4", 2, &[0.2, 1.2, 2.0]));
}

#[test]
fn figure_extra_algorithms_match_frozen_driver() {
    let mut spec = narrowed_figure("fig1", 1, &[0.6, 1.8]);
    // Includes a duplicate (Ftsa) to pin the skip-with-advancing-index
    // behaviour of the frozen driver.
    spec.extra_algorithms = vec![
        Algorithm::FtsaPressure,
        Algorithm::Ftsa,
        Algorithm::FtbarMatched,
    ];
    assert_figure_matches_frozen(&spec);
}

#[test]
fn table1_preset_matches_frozen_latency_columns() {
    let mut spec = preset("table1", None).unwrap();
    let sizes = [60, 120, 200];
    spec.workloads = sizes
        .map(|v| {
            WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: v,
                tasks_hi: v,
            })
        })
        .to_vec();
    spec.platforms[0].procs = 10;
    spec.epsilons = vec![1];
    spec.measures.timing_caps[0].max_tasks = 120;
    spec.extra_algorithms = vec![Algorithm::FtsaPressure, Algorithm::FtbarMatched];
    let cfg = Table1Config::of(&spec);
    let res = run_campaign_with_threads(&spec, 1).unwrap();
    assert_eq!(res.groups.len(), sizes.len());
    for (g, v) in res.groups.iter().zip(sizes) {
        let reference = frozen::run_table1_row(&cfg, v);
        assert_eq!(reference.tasks, v);
        assert_eq!(g.workload, format!("paper-layered[{v}..{v}]"));
        let latency = |alg: &str| g.mean(&format!("{alg}-LowerBound")).map(f64::to_bits);
        assert_eq!(
            latency("FTSA"),
            Some(reference.ftsa_latency.to_bits()),
            "FTSA latency at v = {v}"
        );
        assert_eq!(
            latency("MC-FTSA"),
            Some(reference.mc_ftsa_latency.to_bits()),
            "MC-FTSA latency at v = {v}"
        );
        assert_eq!(
            latency("FTBAR"),
            reference.ftbar_latency.map(f64::to_bits),
            "FTBAR latency/cap at v = {v}"
        );
        // Wall-clock columns are machine-dependent; pin presence only.
        let secs = |alg: &str| g.mean(&format!("Seconds: {alg}"));
        assert!(secs("FTSA").unwrap() >= 0.0 && secs("MC-FTSA").unwrap() >= 0.0);
        assert_eq!(secs("FTBAR").is_some(), reference.ftbar_latency.is_some());
        assert_eq!(reference.extra.len(), 2);
        for (name, ref_latency) in &reference.extra {
            assert!(secs(name).unwrap() >= 0.0);
            assert_eq!(
                latency(name),
                Some(ref_latency.to_bits()),
                "{name} at v = {v}"
            );
        }
    }
}

#[test]
fn contention_preset_matches_frozen_driver() {
    let mut spec = preset("contention", Some(3)).unwrap();
    spec.epsilons = vec![1, 2];
    let res = run_campaign_with_threads(&spec, 2).unwrap();
    let reference = frozen::run_contention(
        &spec.epsilons,
        spec.repetitions,
        spec.platforms[0].granularity,
        spec.seed,
    );
    assert_eq!(res.groups.len(), reference.len());
    for (g, rf) in res.groups.iter().zip(&reference) {
        assert_eq!(g.epsilon, rf.epsilon);
        let mean = |name: &str| g.mean(name).map(f64::to_bits);
        assert_eq!(
            mean("OnePortPenalty: FTSA"),
            Some(rf.ftsa_penalty.to_bits())
        );
        assert_eq!(
            mean("OnePortPenalty: MC-FTSA"),
            Some(rf.mc_penalty.to_bits())
        );
        assert_eq!(mean("Transfers: FTSA"), Some(rf.ftsa_transfers.to_bits()));
        assert_eq!(mean("Transfers: MC-FTSA"), Some(rf.mc_transfers.to_bits()));
    }
}

#[test]
fn reliability_preset_matches_frozen_driver() {
    let mut spec = preset("reliability", None).unwrap();
    spec.epsilons = vec![0, 2];
    spec.platforms[0].procs = 8;
    spec.measures.reliability = vec![0.1, 0.4];
    let res = run_campaign_with_threads(&spec, 2).unwrap();
    let reference = frozen::run_reliability(
        &spec.epsilons,
        &spec.measures.reliability,
        spec.platforms[0].procs,
        spec.seed,
    );
    assert_eq!(
        reference.len(),
        res.groups.len() * spec.measures.reliability.len()
    );
    for rf in &reference {
        let g = res.groups.iter().find(|g| g.epsilon == rf.epsilon).unwrap();
        let p = rf.p;
        let mean = |name: &str| g.mean(name).map(f64::to_bits);
        assert_eq!(
            mean(&format!("P(survive) p={p}")),
            Some(rf.survival.to_bits())
        );
        assert_eq!(
            mean(&format!("DesignPoint p={p}")),
            Some(rf.design_point.to_bits())
        );
    }
}

#[test]
fn full_preset_specs_run_at_reduced_scale() {
    // Every named preset executes end to end at one repetition; the
    // heavyweight grids shrink so the whole suite stays fast.
    for name in PRESET_NAMES {
        let mut spec = preset(name, Some(1)).unwrap();
        if name.starts_with("fig") {
            spec.platforms.truncate(2);
        }
        if name == "contention" {
            spec.epsilons.truncate(1);
        }
        let res = run_campaign_with_threads(&spec, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(res.groups.len(), spec.num_groups());
        assert!(res.groups.iter().all(|g| !g.series.is_empty()));
    }
}
