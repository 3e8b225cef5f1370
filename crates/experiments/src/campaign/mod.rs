//! The declarative campaign engine: one scenario-grid subsystem behind
//! every experiment in this workspace.
//!
//! A campaign is the cross product of four axes — **workload** ×
//! **platform** × **ε** × **repetition** — described by a serde
//! round-trippable [`CampaignSpec`] and evaluated under one
//! [`MeasurePlan`]. The engine replaced the pre-campaign bespoke sweeps,
//! each of which hard-coded its own grid walk, seeding and aggregation;
//! the paper's evaluations are now named specs in [`presets`].
//!
//! # Pipeline
//!
//! 1. **Enumerate**: cells are indexed row-major (workload, platform, ε,
//!    repetition); [`cell_seed`] derives each cell's RNG seed — by
//!    default [`simulator::replication_seed`]`(spec.seed, index)`, with
//!    legacy modes preserving the pre-campaign derivations (see
//!    [`Seeding`]).
//! 2. **Execute**: [`crate::parallel::parallel_map_into`] fans cells out
//!    over scoped worker threads with **per-worker reusable state** — a
//!    [`CellContext`] holding one [`ScheduleWorkspace`] per schedule slot
//!    plus a [`CrashWorkspace`] and scenario buffers. Every schedule
//!    runs through `schedule_into`, every crash simulation through
//!    `simulate_outcome_into` and every contention replay through
//!    `simulate_contention_into` on the same workspace, so steady-state
//!    cells perform **zero heap allocations in the scheduler/simulator
//!    hot path** (pinned by `tests/alloc_counter.rs` at the repo root;
//!    the exact-reliability measure is the documented exception — its
//!    mask enumeration allocates internally).
//! 3. **Aggregate**: cell series reach the calling thread in cell order
//!    and stream into an [`Aggregator`] (mean is the same left-fold sum
//!    the legacy drivers used, so preset means are bit-identical),
//!    producing per-group mean/stddev/min/max/percentile statistics.
//!
//! A cell's series do not depend on what its context evaluated before
//! (`tests/campaign_parity.rs` checks every preset), so a campaign
//! returns **bit-identical results at any thread count** — enforced end
//! to end by `tests/parallel_determinism.rs` and the CI thread matrix.
//!
//! # Cell anatomy
//!
//! Within one cell, the engine generates one instance and then:
//!
//! * schedules every **primary** algorithm at the cell's ε (plus an
//!   `ε = 0` baseline for the `fault_free` set), recording bounds,
//!   wall-clock seconds and message counts as the plan asks;
//! * draws the plan's [`FailureModel`]s from the cell's crash stream —
//!   the first model's scenario is **shared by every algorithm** (the
//!   paper's protocol), later models hit the first primary only — and
//!   replays each schedule through the crash simulator;
//! * optionally measures one-port contention penalties and exact
//!   survival probabilities.
//!
//! **Extra** algorithms ride the same instances and shared scenarios on
//! independent tie streams: appending one never disturbs an existing
//! series (duplicates of already-evaluated algorithms are skipped).
//!
//! # Adding a preset
//!
//! Write a `CampaignSpec` constructor in [`presets`], give it a name in
//! [`presets::preset`], and (if its numbers must stay pinned) add a
//! frozen-reference comparison to `tests/campaign_parity.rs`. The
//! paper presets (`fig1`–`fig4`, `table1`, `contention`, `reliability`)
//! reproduce the historical drivers bit for bit.

mod error;
pub mod presets;
mod spec;

pub use error::{CampaignError, StoreIoError};
pub use spec::{
    ArrivalSpec, CampaignSpec, ForkJoinShape, LayeredRange, MeasurePlan, PlatformSpec, Seeding,
    ShapeTooLarge, StructuredKernel, StructuredWorkload, TaskCount, TimingCap, WorkloadSpec,
};

use crate::parallel::parallel_map_into;
use ftsched_core::bounds::critical_path_bound;
use ftsched_core::{schedule_into, Algorithm, ScheduleWorkspace};
use platform::gen::random_platform;
use platform::granularity::scale_to_granularity;
use platform::{ExecutionMatrix, FailureModel, FailureScenario, Instance, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simulator::contention::{simulate_contention_into, PortModel};
use simulator::crash::{simulate_outcome_into, CrashWorkspace, FallbackPolicy};
use simulator::reliability::{design_point_probability, survival_probability_exact};
use simulator::replication_seed;
use simulator::streaming::{run_stream_into, DagOutcome, StreamWorkspace};
use std::collections::BTreeMap;
use std::time::Instant;
use taskgraph::Dag;

/// Coordinates of one cell in the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCoord {
    /// Index into [`CampaignSpec::workloads`].
    pub workload: usize,
    /// Index into [`CampaignSpec::platforms`].
    pub platform: usize,
    /// Index into [`CampaignSpec::epsilons`].
    pub eps: usize,
    /// Repetition number (`0..repetitions`).
    pub rep: usize,
}

impl CampaignSpec {
    /// The coordinates of linear cell `index` (row-major: workload,
    /// platform, ε, repetition — repetitions innermost, so a group's
    /// cells are contiguous and repetition order is aggregation order).
    pub fn coord(&self, index: usize) -> CellCoord {
        let r = index % self.repetitions;
        let rest = index / self.repetitions;
        let e = rest % self.epsilons.len();
        let rest = rest / self.epsilons.len();
        let p = rest % self.platforms.len();
        let w = rest / self.platforms.len();
        CellCoord {
            workload: w,
            platform: p,
            eps: e,
            rep: r,
        }
    }

    /// Linear index of `coord` (inverse of [`CampaignSpec::coord`]).
    pub fn cell_index(&self, c: &CellCoord) -> usize {
        ((c.workload * self.platforms.len() + c.platform) * self.epsilons.len() + c.eps)
            * self.repetitions
            + c.rep
    }

    /// Aggregation-group index of `coord` (all repetitions share one).
    pub fn group_index(&self, c: &CellCoord) -> usize {
        (c.workload * self.platforms.len() + c.platform) * self.epsilons.len() + c.eps
    }
}

/// Derives the cell's base RNG seed per the spec's [`Seeding`] mode.
pub fn cell_seed(spec: &CampaignSpec, c: &CellCoord) -> u64 {
    match spec.seeding {
        Seeding::Indexed => replication_seed(spec.seed, spec.cell_index(c) as u64),
        Seeding::PaperFigure => {
            let g = spec.platforms[c.platform]
                .effective_granularity()
                .unwrap_or(1.0);
            spec.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((g * 1e6) as u64)
                .wrapping_add(c.rep as u64)
        }
        Seeding::PaperTable => spec.seed ^ workload_tasks(&spec.workloads[c.workload]) as u64,
        Seeding::PaperContention => {
            (spec.seed ^ ((spec.epsilons[c.eps] as u64) << 32)) | c.rep as u64
        }
        Seeding::PaperReliability => spec.seed,
    }
}

/// Generates the cell's instance (graph + platform + execution matrix)
/// from its seed: the workload's DAG first, then the random platform,
/// then the unrelated execution matrix, then the optional granularity
/// rescale. For paper-layered workloads this is exactly
/// [`platform::gen::paper_instance`]'s draw order (`build_dag` draws
/// through `paper_dag`), so the historical drivers' instances come out
/// bit for bit.
///
/// # Panics
///
/// If the drawn instance cannot take the platform point's granularity;
/// [`evaluate_any_cell_into`] reports that as
/// [`CampaignError::Granularity`] instead.
pub fn instance_for_cell(spec: &CampaignSpec, c: &CellCoord) -> Instance {
    instance_from_seed(spec, c, cell_seed(spec, c)).unwrap_or_else(|e| panic!("{e}"))
}

/// [`instance_for_cell`] with the cell seed supplied by the caller (the
/// executor derives it once per cell).
fn instance_from_seed(
    spec: &CampaignSpec,
    c: &CellCoord,
    seed: u64,
) -> Result<Instance, CampaignError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = &spec.workloads[c.workload];
    let p = &spec.platforms[c.platform];
    let dag = w.build_dag(&mut rng);
    let platform = random_platform(&mut rng, p.procs, 0.5, 1.0);
    let mut exec = ExecutionMatrix::unrelated_with_procs(&dag, p.procs, &mut rng, p.heterogeneity);
    rescale(spec, c, &dag, &platform, &mut exec)?;
    Ok(Instance::new(dag, platform, exec))
}

/// Applies the cell's platform point granularity, if it has one, to a
/// freshly drawn execution matrix.
fn rescale(
    spec: &CampaignSpec,
    c: &CellCoord,
    dag: &Dag,
    platform: &Platform,
    exec: &mut ExecutionMatrix,
) -> Result<(), CampaignError> {
    let Some(g) = spec.platforms[c.platform].effective_granularity() else {
        return Ok(());
    };
    scale_to_granularity(dag, platform, exec, g).map_err(|source| CampaignError::Granularity {
        campaign: spec.id.clone(),
        workload: spec.workloads[c.workload].label(),
        platform: c.platform,
        granularity: g,
        source,
    })?;
    Ok(())
}

/// Normalization constant of the latency series: the instance's mean
/// edge communication cost `W̄ = mean_e V(e) · d̄` (independent of the
/// granularity sweep, so curve shapes are comparable across points).
pub fn normalization(inst: &Instance) -> f64 {
    let e = inst.dag.num_edges();
    if e == 0 {
        return 1.0;
    }
    let d = inst.platform.average_delay();
    let total: f64 = inst.dag.edge_list().map(|(_, _, _, v)| v * d).sum();
    (total / e as f64).max(f64::MIN_POSITIVE)
}

/// The most entries a [`SeriesKey`] tells apart in each of the lists it
/// indexes (extra algorithms, failure models, reliability
/// probabilities): its indices are `u8`s. [`CampaignSpec::validate`]
/// refuses a longer list.
pub(crate) const MAX_SERIES_INDICES: usize = u8::MAX as usize + 1;

/// Compact identity of one measured series within a cell — a `Copy` key
/// so the evaluation hot loop records `(key, value)` pairs without
/// allocating; human-readable names are rendered once per group at
/// aggregation time ([`series_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKey {
    /// Eq. (2) latency lower bound `M*` of algorithm `alg`.
    LowerBound(u8),
    /// Eq. (4) latency upper bound `M` of algorithm `alg`.
    UpperBound(u8),
    /// `M*` of the `ε = 0` baseline schedule of algorithm `alg`.
    FaultFree(u8),
    /// Simulated latency of `alg` under failure model `failure`.
    Crash {
        /// Combined algorithm id (primaries then extras).
        alg: u8,
        /// Index into [`MeasurePlan::failures`].
        failure: u8,
    },
    /// Percent overhead of the matching crash latency over the first
    /// primary algorithm's fault-free latency.
    Overhead {
        /// Combined algorithm id.
        alg: u8,
        /// Index into [`MeasurePlan::failures`].
        failure: u8,
    },
    /// Replication message count of `alg`.
    Messages(u8),
    /// Wall-clock scheduling seconds of `alg`.
    Seconds(u8),
    /// One-port / unbounded latency ratio of `alg` (fault-free).
    OnePortPenalty(u8),
    /// One-port transfer count of `alg` (fault-free).
    Transfers(u8),
    /// Exact survival probability at probability index `p`.
    Survival(u8),
    /// Theorem 4.1 design point `P(≤ ε failures)` at probability index.
    DesignPoint(u8),
    /// Stream cells: mean per-DAG response time (finish − arrival) of
    /// algorithm `alg`.
    StreamResponse(u8),
    /// Stream cells: mean per-DAG execution latency (finish − first
    /// start) of `alg`.
    StreamLatency(u8),
    /// Stream cells: mean per-DAG queueing wait (first start − arrival)
    /// of `alg`.
    StreamWait(u8),
    /// Stream cells: fraction of DAGs finishing after their deadline
    /// (`arrival + stretch × isolated bound`) under `alg`.
    StreamMiss(u8),
    /// Stream cells: fraction of DAGs completing every task under `alg`.
    StreamCompleted(u8),
}

/// One schedule slot of a cell: which algorithm at which ε variant.
#[derive(Debug, Clone, Copy)]
pub struct SlotSpec {
    /// The algorithm to run.
    pub alg: Algorithm,
    /// Combined algorithm id (index into [`CellPlan::alg_names`]).
    pub alg_id: u8,
    /// `true` for the `ε = 0` fault-free baseline run.
    pub baseline: bool,
    /// `Some(original index)` for extra algorithms (drives their
    /// independent tie streams, counting skipped duplicates like the
    /// pre-campaign drivers did).
    pub extra_index: Option<u8>,
    /// Declared-task cap above which this slot is skipped.
    pub cap: Option<usize>,
}

/// The static per-campaign evaluation plan: the schedule slots of every
/// cell, in execution order, plus the combined algorithm name table.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Schedule slots in execution order (primary, then its baseline if
    /// requested, …, then extras).
    pub slots: Vec<SlotSpec>,
    /// Display names by combined algorithm id.
    pub alg_names: Vec<&'static str>,
    /// Per ε-index, per failure-model index: whether the model is
    /// skipped because its rendered label duplicates an earlier model's
    /// at that ε (e.g. `Epsilon` next to `Uniform{crashes: ε}` — two
    /// series with one name would silently shadow each other
    /// downstream). Skipped models draw nothing from the crash stream,
    /// mirroring the duplicate-extra-algorithm rule.
    pub failure_skip: Vec<Vec<bool>>,
    /// Task count per workload index ([`WorkloadSpec::task_count`]; an
    /// overflow reads as `usize::MAX`).
    pub workload_tasks: Vec<usize>,
}

impl CellPlan {
    /// Builds the plan for `spec`.
    pub fn new(spec: &CampaignSpec) -> CellPlan {
        let cap_of = |alg: Algorithm| {
            spec.measures
                .timing_caps
                .iter()
                .find(|c| c.algorithm == alg)
                .map(|c| c.max_tasks)
        };
        let mut slots = Vec::new();
        let mut alg_names = Vec::new();
        for &alg in &spec.algorithms {
            let alg_id = alg_names.len() as u8;
            alg_names.push(alg.name());
            slots.push(SlotSpec {
                alg,
                alg_id,
                baseline: false,
                extra_index: None,
                cap: cap_of(alg),
            });
            if spec.measures.fault_free.contains(&alg) {
                slots.push(SlotSpec {
                    alg,
                    alg_id,
                    baseline: true,
                    extra_index: None,
                    cap: cap_of(alg),
                });
            }
        }
        let mut seen: Vec<Algorithm> = spec.algorithms.clone();
        for (ai, &alg) in spec.extra_algorithms.iter().enumerate() {
            if seen.contains(&alg) {
                continue; // duplicate extra: skipped, but `ai` still advances
            }
            seen.push(alg);
            let alg_id = alg_names.len() as u8;
            alg_names.push(alg.name());
            slots.push(SlotSpec {
                alg,
                alg_id,
                baseline: false,
                extra_index: Some(ai as u8),
                cap: cap_of(alg),
            });
        }
        let failure_skip = spec
            .epsilons
            .iter()
            .map(|&eps| {
                let mut seen: Vec<String> = Vec::new();
                spec.measures
                    .failures
                    .iter()
                    .map(|fm| {
                        let label = failure_label(fm, eps);
                        let dup = seen.contains(&label);
                        seen.push(label);
                        dup
                    })
                    .collect()
            })
            .collect();
        CellPlan {
            slots,
            alg_names,
            failure_skip,
            workload_tasks: spec.workloads.iter().map(workload_tasks).collect(),
        }
    }

    /// Whether `slot` is skipped in cells of `workload` (timing cap).
    pub fn capped(&self, slot: &SlotSpec, workload: usize) -> bool {
        slot.cap
            .is_some_and(|cap| self.workload_tasks[workload] > cap)
    }
}

/// The task count that timing caps compare against and `PaperTable`
/// seeding XORs into the seed: [`WorkloadSpec::task_count`], which
/// [`CampaignSpec::validate`] bounds (an overflow reads as `usize::MAX`).
fn workload_tasks(w: &WorkloadSpec) -> usize {
    w.task_count().unwrap_or(usize::MAX)
}

/// Reusable evaluation state (one per executor worker): one
/// [`ScheduleWorkspace`] per schedule slot (so every slot's schedule
/// stays borrowed in its own workspace through the crash phase), the
/// crash-replay workspace, and the scenario/scratch buffers. After a
/// worker's first cell, the entire scheduler/simulator hot path runs
/// allocation-free.
#[derive(Debug, Default)]
pub struct CellContext {
    slots: Vec<ScheduleWorkspace>,
    crash: CrashWorkspace,
    scenario: FailureScenario,
    shared: FailureScenario,
    ids: Vec<u32>,
    // --- stream-cell state (arrival-axis campaigns only) ---------------
    stream: StreamWorkspace,
    insts: Vec<Instance>,
    arrivals: Vec<f64>,
    outcomes: Vec<DagOutcome>,
    deadline_bounds: Vec<f64>,
    lb_scratch: Vec<f64>,
}

impl CellContext {
    /// Creates an empty context; buffers are sized by the first cell.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fresh tie-break stream for a slot under per-slot seeding modes.
fn slot_tie_rng(spec: &CampaignSpec, seed: u64, eps: usize, slot_index: usize) -> StdRng {
    let plan_seed = match spec.seeding {
        // Only extra slots reach this path under the shared-stream
        // modes; their independent streams use the historical constant.
        Seeding::PaperFigure | Seeding::PaperContention => unreachable!("handled by caller"),
        Seeding::PaperTable => spec.seed,
        Seeding::PaperReliability => spec.seed ^ eps as u64,
        Seeding::Indexed => replication_seed(seed, 0x71E0 + slot_index as u64),
    };
    StdRng::seed_from_u64(plan_seed)
}

/// Evaluates one cell on a prebuilt instance, pushing `(key, value)`
/// pairs into `out` (cleared first). This is the campaign hot path: with
/// a warm `ctx` and an `out` at capacity it performs no heap allocation
/// in the scheduler/simulator work (the exact-reliability measure
/// excepted — its mask enumeration allocates internally).
///
/// A scheduler failure inside the cell surfaces as
/// [`CampaignError::Schedule`]; specs that pass
/// [`CampaignSpec::validate`] cannot reach it.
pub fn evaluate_cell_into(
    spec: &CampaignSpec,
    plan: &CellPlan,
    coord: &CellCoord,
    inst: &Instance,
    ctx: &mut CellContext,
    out: &mut Vec<(SeriesKey, f64)>,
) -> Result<(), CampaignError> {
    let eps = spec.epsilons[coord.eps];
    let m = inst.num_procs();
    let seed = cell_seed(spec, coord);
    let meas = &spec.measures;
    let norm = if meas.normalize {
        normalization(inst)
    } else {
        1.0
    };
    out.clear();

    let CellContext {
        slots,
        crash,
        scenario,
        shared,
        ids,
        ..
    } = ctx;
    if slots.len() < plan.slots.len() {
        slots.resize_with(plan.slots.len(), ScheduleWorkspace::new);
    }

    // --- Phase 1: schedules (tie streams per the seeding mode) ---------
    let mut shared_tie: Option<StdRng> = match spec.seeding {
        Seeding::PaperFigure => Some(StdRng::seed_from_u64(seed ^ 0xA5A5)),
        Seeding::PaperContention => Some(StdRng::seed_from_u64(seed ^ 0xBEEF)),
        _ => None,
    };
    let mut star = f64::NAN;
    let mut lb0 = f64::NAN; // slot 0's un-normalized M* (TimedRelative reference)
    for (si, slot) in plan.slots.iter().enumerate() {
        if plan.capped(slot, coord.workload) {
            continue;
        }
        let run_eps = if slot.baseline { 0 } else { eps };
        let ws = &mut slots[si];
        let t0 = Instant::now();
        let run = match (&mut shared_tie, slot.extra_index) {
            (Some(tie), None) => schedule_into(inst, run_eps, slot.alg, tie, ws),
            (Some(_), Some(ai)) => {
                let mut tie = StdRng::seed_from_u64(seed ^ (0xA1_6000 + ai as u64));
                schedule_into(inst, run_eps, slot.alg, &mut tie, ws)
            }
            (None, _) => {
                let mut tie = slot_tie_rng(spec, seed, eps, si);
                schedule_into(inst, run_eps, slot.alg, &mut tie, ws)
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        let sched = match run {
            Ok(s) => s,
            Err(e) => {
                return Err(CampaignError::Schedule {
                    campaign: spec.id.clone(),
                    algorithm: slot.alg.name(),
                    epsilon: run_eps,
                    procs: m,
                    source: e,
                })
            }
        };
        let lb = sched.latency_lower_bound();
        if slot.baseline {
            out.push((SeriesKey::FaultFree(slot.alg_id), lb / norm));
            if slot.alg_id == 0 {
                star = lb;
            }
        } else {
            if si == 0 {
                lb0 = lb;
            }
            if meas.timing {
                out.push((SeriesKey::Seconds(slot.alg_id), secs));
            }
            if meas.bounds {
                out.push((SeriesKey::LowerBound(slot.alg_id), lb / norm));
                out.push((
                    SeriesKey::UpperBound(slot.alg_id),
                    sched.latency_upper_bound() / norm,
                ));
            }
            if slot.extra_index.is_some() || meas.messages.contains(&slot.alg) {
                out.push((
                    SeriesKey::Messages(slot.alg_id),
                    sched.message_count(&inst.dag) as f64,
                ));
            }
        }
    }
    let ov = |x: f64| (x - star) / star * 100.0;

    // --- Phase 2: failure injection ------------------------------------
    // One crash stream per cell; the first model's scenario is shared by
    // every algorithm, later models are drawn sequentially for the first
    // primary only (the paper's protocol, and bit-compatible with the
    // pre-campaign figure drivers' fresh-same-seed per-algorithm RNGs).
    // A capped slot 0 cannot anchor the shared scenario — `validate`
    // rejects that combination; the guard protects direct callers.
    if !meas.failures.is_empty() && !plan.capped(&plan.slots[0], coord.workload) {
        let crash_seed = match spec.seeding {
            Seeding::Indexed => replication_seed(seed, 0xC4A5),
            _ => seed ^ 0xC4A5,
        };
        let mut crash_rng = StdRng::seed_from_u64(crash_seed);
        for (fi, fm) in meas.failures.iter().enumerate() {
            if plan.failure_skip[coord.eps][fi] {
                continue; // duplicate label at this ε: no draw, no series
            }
            let buf: &mut FailureScenario = if fi == 0 { shared } else { scenario };
            // `lb0` (slot 0's M*) resolves TimedRelative horizons; every
            // other model draws exactly as `sample_into` would.
            fm.sample_into_scaled(&mut crash_rng, m, eps, lb0, buf, ids);
            let l =
                simulate_outcome_into(inst, slots[0].schedule(), buf, policy(fm), crash).latency;
            out.push((
                SeriesKey::Crash {
                    alg: 0,
                    failure: fi as u8,
                },
                l / norm,
            ));
            if meas.overhead {
                out.push((
                    SeriesKey::Overhead {
                        alg: 0,
                        failure: fi as u8,
                    },
                    ov(l),
                ));
            }
        }
        let policy0 = policy(&meas.failures[0]);
        for (si, slot) in plan.slots.iter().enumerate() {
            if si == 0 || slot.baseline || plan.capped(slot, coord.workload) {
                continue;
            }
            let l =
                simulate_outcome_into(inst, slots[si].schedule(), shared, policy0, crash).latency;
            out.push((
                SeriesKey::Crash {
                    alg: slot.alg_id,
                    failure: 0,
                },
                l / norm,
            ));
            if meas.overhead {
                out.push((
                    SeriesKey::Overhead {
                        alg: slot.alg_id,
                        failure: 0,
                    },
                    ov(l),
                ));
            }
        }
    }

    // --- Phase 3: contention (primary algorithms, fault-free) ----------
    if meas.contention {
        for (si, slot) in plan.slots.iter().enumerate() {
            if slot.baseline || slot.extra_index.is_some() || plan.capped(slot, coord.workload) {
                continue;
            }
            let sched = slots[si].schedule();
            let none = FailureScenario::none();
            let unb = simulate_contention_into(inst, sched, &none, PortModel::Unbounded, crash);
            let one = simulate_contention_into(inst, sched, &none, PortModel::OnePort, crash);
            out.push((
                SeriesKey::OnePortPenalty(slot.alg_id),
                one.latency / unb.latency,
            ));
            out.push((SeriesKey::Transfers(slot.alg_id), one.transfers as f64));
        }
    }

    // --- Phase 4: exact reliability (first primary's schedule) ---------
    // Like the failure phase, this reads slot 0 as the reference — a
    // capped slot 0 (rejected by `validate`, guarded here for direct
    // callers) would hold a stale or empty schedule.
    if !meas.reliability.is_empty() && !plan.capped(&plan.slots[0], coord.workload) {
        let sched = slots[0].schedule();
        for (pi, &p) in meas.reliability.iter().enumerate() {
            out.push((
                SeriesKey::Survival(pi as u8),
                survival_probability_exact(inst, sched, p),
            ));
            out.push((
                SeriesKey::DesignPoint(pi as u8),
                design_point_probability(m, eps, p),
            ));
        }
    }
    Ok(())
}

/// Builds one stream cell's instances into `insts` (cleared first): the
/// platform point is drawn **once** and shared by every DAG of the
/// stream (the persistent-occupancy premise), then each DAG draws its
/// graph and execution matrix from the same cell RNG stream. Appending
/// DAGs to a stream (a larger arrival count) therefore never redraws
/// the earlier instances.
fn stream_instances_from_seed(
    spec: &CampaignSpec,
    c: &CellCoord,
    count: usize,
    seed: u64,
    insts: &mut Vec<Instance>,
) -> Result<(), CampaignError> {
    insts.clear();
    let mut rng = StdRng::seed_from_u64(seed);
    let w = &spec.workloads[c.workload];
    let p = &spec.platforms[c.platform];
    let plat = random_platform(&mut rng, p.procs, 0.5, 1.0);
    for _ in 0..count {
        let dag = w.build_dag(&mut rng);
        let mut exec =
            ExecutionMatrix::unrelated_with_procs(&dag, p.procs, &mut rng, p.heterogeneity);
        rescale(spec, c, &dag, &plat, &mut exec)?;
        insts.push(Instance::new(dag, plat.clone(), exec));
    }
    Ok(())
}

/// Evaluates one **stream cell** of an arrival-axis campaign: the cell's
/// DAGs arrive on a shared platform whose occupancy persists across
/// DAGs, each algorithm replays the identical stream (same DAGs, same
/// arrival instants, same failure scenario on the absolute clock), and
/// the per-DAG outcomes aggregate into the `Stream*` series. Requires
/// `spec.arrivals` to be `Some` (the engine dispatches here in that
/// case) — [`CampaignError::MissingArrivals`] otherwise;
/// `spec.validate()` guarantees the measure plan carries no offline
/// series and that no stream run can fail
/// ([`CampaignError::Stream`] guards direct callers).
pub fn evaluate_stream_cell_into(
    spec: &CampaignSpec,
    plan: &CellPlan,
    coord: &CellCoord,
    ctx: &mut CellContext,
    out: &mut Vec<(SeriesKey, f64)>,
) -> Result<(), CampaignError> {
    let arr = match spec.arrivals.as_ref() {
        Some(arr) => arr,
        None => {
            return Err(CampaignError::MissingArrivals {
                campaign: spec.id.clone(),
            })
        }
    };
    let eps = spec.epsilons[coord.eps];
    let m = spec.platforms[coord.platform].procs;
    let seed = cell_seed(spec, coord);
    out.clear();

    let CellContext {
        scenario,
        ids,
        stream,
        insts,
        arrivals,
        outcomes,
        deadline_bounds,
        lb_scratch,
        ..
    } = ctx;

    stream_instances_from_seed(spec, coord, arr.process.count(), seed, insts)?;
    let mut arrival_rng = StdRng::seed_from_u64(replication_seed(seed, 0xA221));
    arr.process.sample_into(&mut arrival_rng, arrivals);
    deadline_bounds.clear();
    deadline_bounds.extend(
        insts
            .iter()
            .map(|inst| critical_path_bound(inst, lb_scratch)),
    );
    // One failure draw per cell, shared by every algorithm — the same
    // identical-failures protocol as the offline phase 2 (and the same
    // crash-stream constant, so offline and stream cells of one seed
    // family stay comparable).
    let crash_seed = replication_seed(seed, 0xC4A5);
    arr.failures.sample_into(
        &mut StdRng::seed_from_u64(crash_seed),
        m,
        eps,
        scenario,
        ids,
    );

    for (si, slot) in plan.slots.iter().enumerate() {
        if slot.baseline {
            continue;
        }
        let stream_seed = replication_seed(seed, 0x71E0 + si as u64);
        if let Err(e) = run_stream_into(
            insts,
            arrivals,
            eps,
            slot.alg,
            scenario,
            policy(&arr.failures),
            stream_seed,
            stream,
            outcomes,
        ) {
            return Err(CampaignError::Stream {
                campaign: spec.id.clone(),
                algorithm: slot.alg.name(),
                epsilon: eps,
                procs: m,
                source: e,
            });
        }

        // Response / latency / wait are conditional on completion (a
        // lost DAG has no finite finish); the loss itself is reported
        // through the miss and completion fractions, which cover every
        // arrival.
        let n = outcomes.len() as f64;
        let (mut resp, mut lat, mut wait) = (0.0f64, 0.0f64, 0.0f64);
        let (mut missed, mut completed) = (0usize, 0usize);
        for (o, &bound) in outcomes.iter().zip(deadline_bounds.iter()) {
            // An infinite finish (lost DAG) always counts as a miss.
            let deadline = o.arrival + arr.deadline_stretch * bound;
            if o.finish > deadline + 1e-9 {
                missed += 1;
            }
            if o.completed {
                completed += 1;
                resp += o.response_time();
                lat += o.latency();
                wait += o.wait_time();
            }
        }
        if completed > 0 {
            let c = completed as f64;
            out.push((SeriesKey::StreamResponse(slot.alg_id), resp / c));
            out.push((SeriesKey::StreamLatency(slot.alg_id), lat / c));
            out.push((SeriesKey::StreamWait(slot.alg_id), wait / c));
        }
        out.push((SeriesKey::StreamMiss(slot.alg_id), missed as f64 / n));
        out.push((
            SeriesKey::StreamCompleted(slot.alg_id),
            completed as f64 / n,
        ));
    }
    Ok(())
}

/// Crash-delivery policy for a failure model: timed scenarios fall back
/// to strict matched delivery (re-routing is only defined for
/// fail-at-time-zero), everything else uses the default re-routed
/// semantics the legacy drivers simulated with.
fn policy(fm: &FailureModel) -> FallbackPolicy {
    if fm.is_timed() {
        FallbackPolicy::Strict
    } else {
        FallbackPolicy::Rerouted
    }
}

/// Renders a series key as its human-readable name, in the naming scheme
/// the paper figures established (`FTSA-LowerBound`,
/// `MC-FTSA with 2 Crash`, `Overhead: …`, `Messages: …`).
pub fn series_name(spec: &CampaignSpec, plan: &CellPlan, eps: usize, key: SeriesKey) -> String {
    let alg = |a: u8| plan.alg_names[a as usize];
    let fail = |f: u8| failure_label(&spec.measures.failures[f as usize], eps);
    match key {
        SeriesKey::LowerBound(a) => format!("{}-LowerBound", alg(a)),
        SeriesKey::UpperBound(a) => format!("{}-UpperBound", alg(a)),
        SeriesKey::FaultFree(a) => format!("FaultFree-{}", alg(a)),
        SeriesKey::Crash { alg: a, failure } => format!("{} with {}", alg(a), fail(failure)),
        SeriesKey::Overhead { alg: a, failure } => {
            format!("Overhead: {} with {}", alg(a), fail(failure))
        }
        SeriesKey::Messages(a) => format!("Messages: {}", alg(a)),
        SeriesKey::Seconds(a) => format!("Seconds: {}", alg(a)),
        SeriesKey::OnePortPenalty(a) => format!("OnePortPenalty: {}", alg(a)),
        SeriesKey::Transfers(a) => format!("Transfers: {}", alg(a)),
        SeriesKey::Survival(p) => {
            format!("P(survive) p={}", spec.measures.reliability[p as usize])
        }
        SeriesKey::DesignPoint(p) => {
            format!("DesignPoint p={}", spec.measures.reliability[p as usize])
        }
        SeriesKey::StreamResponse(a) => format!("Stream Response: {}", alg(a)),
        SeriesKey::StreamLatency(a) => format!("Stream Latency: {}", alg(a)),
        SeriesKey::StreamWait(a) => format!("Stream Wait: {}", alg(a)),
        SeriesKey::StreamMiss(a) => format!("Stream DeadlineMiss: {}", alg(a)),
        SeriesKey::StreamCompleted(a) => format!("Stream Completed: {}", alg(a)),
    }
}

/// Crash-count label of a failure model (`"2 Crash"`, the figure
/// legends' phrasing; timed models append their horizon).
fn failure_label(fm: &FailureModel, eps: usize) -> String {
    match fm {
        FailureModel::Timed(t) => format!("{} Crash in [0,{}]", t.crashes, t.horizon),
        FailureModel::TimedRelative(t) => {
            format!("{} Crash in [0,{}*Mstar]", t.crashes, t.fraction)
        }
        other => format!("{} Crash", other.crashes(eps)),
    }
}

/// Aggregate statistics of one series within a group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Series name (see [`series_name`]).
    pub name: String,
    /// Number of cell observations.
    pub count: usize,
    /// Mean (left-fold sum / count — bit-compatible with the legacy
    /// drivers' aggregation).
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two observations).
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (nearest-rank on the sorted observations).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
}

/// Aggregated results of one (workload, platform, ε) group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupResult {
    /// Workload axis index.
    pub workload_index: usize,
    /// Workload label ([`WorkloadSpec::label`]).
    pub workload: String,
    /// Platform axis index.
    pub platform_index: usize,
    /// Processor count of the platform point.
    pub procs: usize,
    /// Effective granularity of the platform point (0 when unscaled).
    pub granularity: f64,
    /// Tolerated-failure count ε of this group.
    pub epsilon: usize,
    /// Per-series statistics, sorted by name.
    pub series: Vec<SeriesStats>,
}

impl GroupResult {
    /// Mean of the named series, if present.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.series.iter().find(|s| s.name == name).map(|s| s.mean)
    }
}

/// A fully aggregated campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The spec's id.
    pub id: String,
    /// Groups in grid order (workload-major, then platform, then ε).
    pub groups: Vec<GroupResult>,
}

impl CampaignResult {
    /// The group at the given axis coordinates.
    pub fn group(&self, spec: &CampaignSpec, w: usize, p: usize, e: usize) -> &GroupResult {
        &self.groups[(w * spec.platforms.len() + p) * spec.epsilons.len() + e]
    }
}

/// Streaming per-group accumulator: cells are pushed one at a time (in
/// cell order — repetition order within a group), and statistics are
/// rendered at [`Aggregator::finalize`]. Raw observations are retained
/// per series so stddev and percentiles are exact; memory is
/// `groups × series × repetitions` floats.
#[derive(Debug)]
pub struct Aggregator {
    groups: Vec<BTreeMap<SeriesKey, Vec<f64>>>,
}

impl Aggregator {
    /// An accumulator for `num_groups` groups.
    pub fn new(num_groups: usize) -> Self {
        Aggregator {
            groups: (0..num_groups).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Streams one cell's series into its group.
    pub fn push_cell(&mut self, group: usize, cell: &[(SeriesKey, f64)]) {
        let g = &mut self.groups[group];
        for &(key, value) in cell {
            g.entry(key).or_default().push(value);
        }
    }

    /// Renders the per-group statistics.
    pub fn finalize(self, spec: &CampaignSpec, plan: &CellPlan) -> CampaignResult {
        let groups = self
            .groups
            .into_iter()
            .enumerate()
            .map(|(gi, series_map)| finalize_group(spec, plan, gi, series_map))
            .collect();
        CampaignResult {
            id: spec.id.clone(),
            groups,
        }
    }
}

/// Renders one group's statistics from its raw per-series observations
/// (in repetition order). This is [`Aggregator::finalize`]'s per-group
/// step; the streaming service folds one group at a time through it, so
/// its groups are byte-identical to the batch aggregation.
pub fn finalize_group(
    spec: &CampaignSpec,
    plan: &CellPlan,
    gi: usize,
    series_map: BTreeMap<SeriesKey, Vec<f64>>,
) -> GroupResult {
    let e = gi % spec.epsilons.len();
    let rest = gi / spec.epsilons.len();
    let p = rest % spec.platforms.len();
    let w = rest / spec.platforms.len();
    let eps = spec.epsilons[e];
    let mut series: Vec<SeriesStats> = series_map
        .into_iter()
        .map(|(key, values)| {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            SeriesStats {
                name: series_name(spec, plan, eps, key),
                count: values.len(),
                mean: crate::mean(&values),
                stddev: crate::stddev(&values),
                min: sorted[0],
                max: sorted[sorted.len() - 1],
                p50: percentile(&sorted, 0.5),
                p90: percentile(&sorted, 0.9),
            }
        })
        .collect();
    series.sort_by(|a, b| a.name.cmp(&b.name));
    GroupResult {
        workload_index: w,
        workload: spec.workloads[w].label(),
        platform_index: p,
        procs: spec.platforms[p].procs,
        granularity: spec.platforms[p].effective_granularity().unwrap_or(0.0),
        epsilon: eps,
        series,
    }
}

/// Nearest-rank percentile of ascending-`sorted` observations.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Evaluates one cell (offline or stream, per the spec's arrival axis)
/// into `out`. The shared dispatch of the batch executor and the serve
/// groups.
pub fn evaluate_any_cell_into(
    spec: &CampaignSpec,
    plan: &CellPlan,
    index: usize,
    ctx: &mut CellContext,
    out: &mut Vec<(SeriesKey, f64)>,
) -> Result<(), CampaignError> {
    let coord = spec.coord(index);
    if spec.arrivals.is_some() {
        evaluate_stream_cell_into(spec, plan, &coord, ctx, out)
    } else {
        let inst = instance_from_seed(spec, &coord, cell_seed(spec, &coord))?;
        evaluate_cell_into(spec, plan, &coord, &inst, ctx, out)
    }
}

/// Evaluates group `gi`'s repetitions in order and folds them as
/// [`run_campaign_with_threads`] does: the streaming service's unit of
/// work.
pub(crate) fn evaluate_group(
    spec: &CampaignSpec,
    plan: &CellPlan,
    gi: usize,
    ctx: &mut CellContext,
) -> Result<GroupResult, CampaignError> {
    let reps = spec.repetitions;
    let mut agg = Aggregator::new(1);
    let mut out = Vec::new();
    for index in gi * reps..(gi + 1) * reps {
        evaluate_any_cell_into(spec, plan, index, ctx, &mut out)?;
        agg.push_cell(0, &out);
    }
    let series = agg.groups.pop().unwrap_or_default();
    Ok(finalize_group(spec, plan, gi, series))
}

/// Runs a campaign with an explicit worker count. Cells fan out through
/// [`parallel_map_into`] with one [`CellContext`] per worker and stream
/// into the [`Aggregator`] in cell order; results are bit-identical at
/// any `threads`. Any cell failure aborts the campaign with the first
/// failing cell's error, in cell order.
pub fn run_campaign_with_threads(
    spec: &CampaignSpec,
    threads: usize,
) -> Result<CampaignResult, CampaignError> {
    spec.validate().map_err(CampaignError::InvalidSpec)?;
    let plan = CellPlan::new(spec);
    let mut agg = Aggregator::new(spec.num_groups());
    parallel_map_into(
        spec.num_cells(),
        threads,
        CellContext::new,
        |ctx, i| {
            let mut out = Vec::new();
            evaluate_any_cell_into(spec, &plan, i, ctx, &mut out).map(|()| out)
        },
        |first, run| {
            for (k, cell) in run.enumerate() {
                agg.push_cell(spec.group_index(&spec.coord(first + k)), &cell?);
            }
            Ok(())
        },
    )?;
    Ok(agg.finalize(spec, &plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::UniformFailures;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            id: "tiny".into(),
            workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: 20,
                tasks_hi: 25,
            })],
            platforms: vec![PlatformSpec::paper(6, 0.6), PlatformSpec::paper(6, 1.4)],
            epsilons: vec![1],
            algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
            extra_algorithms: vec![],
            repetitions: 3,
            seed: 7,
            seeding: Seeding::Indexed,
            arrivals: None,
            measures: MeasurePlan {
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

    #[test]
    fn percentiles_use_nearest_rank_semantics() {
        // Golden pins for the nearest-rank rule `sorted[round((n-1)*q)]`
        // (round = half away from zero). Every emitted p50/p90 column
        // flows through this function, so these values are part of the
        // CSV/JSON byte-compatibility surface.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 6.0); // round(4.5) = 5
        assert_eq!(percentile(&ten, 0.9), 9.0); // round(8.1) = 8
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&five, 0.5), 3.0);
        assert_eq!(percentile(&five, 0.9), 5.0); // round(3.6) = 4
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 0.5), 2.0); // round(0.5) = 1
        assert_eq!(percentile(&two, 0.9), 2.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
        assert_eq!(percentile(&[42.0], 0.9), 42.0);
    }

    #[test]
    fn aggregator_statistics_match_golden_values() {
        // End-to-end through push_cell/finalize: observations arrive
        // unsorted, one per cell, exactly as the executor streams them.
        let spec = tiny_spec();
        let plan = CellPlan::new(&spec);
        let mut agg = Aggregator::new(spec.num_groups());
        for v in [7.0, 1.0, 9.0, 3.0, 5.0, 10.0, 2.0, 8.0, 6.0, 4.0] {
            agg.push_cell(0, &[(SeriesKey::Messages(0), v)]);
        }
        let res = agg.finalize(&spec, &plan);
        let s = &res.groups[0].series[0];
        assert_eq!(s.name, "Messages: FTSA");
        assert_eq!(s.count, 10);
        assert_eq!(s.mean, 5.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.p50, 6.0);
        assert_eq!(s.p90, 9.0);
        // Untouched groups render as empty series lists, not errors.
        assert!(res.groups[1].series.is_empty());
    }

    #[test]
    fn coord_round_trips() {
        let spec = tiny_spec();
        for i in 0..spec.num_cells() {
            let c = spec.coord(i);
            assert_eq!(spec.cell_index(&c), i);
            assert!(spec.group_index(&c) < spec.num_groups());
        }
    }

    #[test]
    fn tiny_campaign_produces_expected_series() {
        let spec = tiny_spec();
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        assert_eq!(res.groups.len(), 2);
        for g in &res.groups {
            for name in [
                "FTSA-LowerBound",
                "FTSA-UpperBound",
                "MC-FTSA-LowerBound",
                "FaultFree-FTSA",
                "FTSA with 1 Crash",
                "FTSA with 0 Crash",
                "MC-FTSA with 1 Crash",
                "Overhead: FTSA with 1 Crash",
                "Messages: FTSA",
                "Messages: MC-FTSA",
            ] {
                assert!(g.mean(name).is_some(), "missing series {name}");
            }
            // Structural sanity: bounds ordered, stats coherent.
            assert!(g.mean("FTSA-LowerBound") <= g.mean("FTSA-UpperBound"));
            for s in &g.series {
                assert_eq!(s.count, spec.repetitions);
                assert!(s.min <= s.p50 && s.p50 <= s.max);
                assert!(s.min <= s.mean + 1e-12 && s.mean <= s.max + 1e-12);
            }
        }
    }

    #[test]
    fn campaign_bit_identical_across_thread_counts() {
        let spec = tiny_spec();
        let a = run_campaign_with_threads(&spec, 1).unwrap();
        let b = run_campaign_with_threads(&spec, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extras_do_not_disturb_primary_series_and_skip_duplicates() {
        let base = tiny_spec();
        let mut ext = base.clone();
        ext.extra_algorithms = vec![
            Algorithm::FtsaPressure,
            Algorithm::Ftsa, // duplicate of a primary: skipped
            Algorithm::FtbarMatched,
        ];
        let a = run_campaign_with_threads(&base, 2).unwrap();
        let b = run_campaign_with_threads(&ext, 2).unwrap();
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            for s in &ga.series {
                let other = gb.mean(&s.name).unwrap();
                assert_eq!(other.to_bits(), s.mean.to_bits(), "series {}", s.name);
            }
            for name in ["P-FTSA-LowerBound", "MC-FTBAR with 1 Crash"] {
                assert!(gb.mean(name).is_some(), "missing extra series {name}");
            }
            // The duplicate Ftsa extra must not have produced a second
            // FTSA series (counts would double).
            let ftsa = gb.series.iter().filter(|s| s.name == "FTSA-LowerBound");
            assert_eq!(ftsa.count(), 1);
        }
    }

    #[test]
    fn structured_workload_axis_runs_end_to_end() {
        let mut spec = tiny_spec();
        spec.workloads = vec![
            WorkloadSpec::Structured(StructuredWorkload {
                kernel: StructuredKernel::Wavefront,
                size: 4,
            }),
            WorkloadSpec::Structured(StructuredWorkload {
                kernel: StructuredKernel::MapReduce,
                size: 5,
            }),
        ];
        spec.platforms = vec![PlatformSpec::paper(5, 1.0)];
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        assert_eq!(res.groups.len(), 2);
        assert_eq!(res.groups[0].workload, "wavefront[4]");
        for g in &res.groups {
            assert!(g.mean("FTSA with 1 Crash").unwrap().is_finite());
        }
    }

    #[test]
    fn timing_caps_compare_against_the_drawn_task_count() {
        // Fork-join 2 × 5 draws 2 · (5 + 1) + 1 = 13 tasks, one over the cap.
        let mut spec = tiny_spec();
        spec.workloads = vec![WorkloadSpec::ForkJoin(ForkJoinShape { width: 2, depth: 5 })];
        spec.platforms = vec![PlatformSpec::paper(6, 1.0)];
        spec.algorithms = vec![Algorithm::Ftsa, Algorithm::Ftbar];
        spec.measures.timing_caps = vec![TimingCap {
            algorithm: Algorithm::Ftbar,
            max_tasks: 12,
        }];
        let res = run_campaign_with_threads(&spec, 1).unwrap();
        for g in &res.groups {
            assert!(g.mean("FTSA-LowerBound").is_some());
            let ftbar: Vec<&str> = g
                .series
                .iter()
                .map(|s| s.name.as_str())
                .filter(|n| n.contains("FTBAR"))
                .collect();
            assert!(ftbar.is_empty(), "capped FTBAR ran: {ftbar:?}");
        }
    }

    #[test]
    fn timed_failure_axis_mid_execution_crashes() {
        let mut spec = tiny_spec();
        spec.measures.failures = vec![
            FailureModel::Epsilon,
            FailureModel::Timed(platform::TimedFailures {
                crashes: 1,
                horizon: 5.0,
            }),
        ];
        spec.measures.overhead = false;
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        for g in &res.groups {
            let timed = g.mean("FTSA with 1 Crash in [0,5]").unwrap();
            assert!(timed.is_finite() && timed > 0.0);
        }
    }

    #[test]
    fn duplicate_failure_labels_are_skipped_not_doubled() {
        // Epsilon and Uniform{crashes: ε} render the same "{ε} Crash"
        // label; the duplicate must be skipped (one series, one draw),
        // not emitted twice under one name.
        let mut spec = tiny_spec();
        spec.measures.failures = vec![
            FailureModel::Epsilon,
            FailureModel::Uniform(UniformFailures { crashes: 1 }),
            FailureModel::Uniform(UniformFailures { crashes: 2 }),
        ];
        let plan = CellPlan::new(&spec);
        assert_eq!(plan.failure_skip, vec![vec![false, true, false]]);
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        for g in &res.groups {
            let crash_1 = g.series.iter().filter(|s| s.name == "FTSA with 1 Crash");
            assert_eq!(crash_1.count(), 1);
            let s = g
                .series
                .iter()
                .find(|s| s.name == "FTSA with 1 Crash")
                .unwrap();
            assert_eq!(s.count, spec.repetitions, "no doubled observations");
            assert!(g.mean("FTSA with 2 Crash").is_some());
        }
    }

    #[test]
    fn unscaled_paper_workload_skips_the_granularity_rescale() {
        // granularity <= 0 and ccr <= 0 means "natural costs" for every
        // workload family, including PaperLayered — it must not be
        // silently coerced to a g = 1.0 rescale.
        let mut unscaled = tiny_spec();
        unscaled.platforms = vec![PlatformSpec {
            granularity: 0.0,
            ..PlatformSpec::paper(6, 0.0)
        }];
        let mut scaled = unscaled.clone();
        scaled.platforms[0].granularity = 1.0;
        let coord = CellCoord {
            workload: 0,
            platform: 0,
            eps: 0,
            rep: 0,
        };
        let a = instance_for_cell(&unscaled, &coord);
        let b = instance_for_cell(&scaled, &coord);
        // Same graph and platform draw (identical RNG consumption)…
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(
            a.platform.delay(0, 1).to_bits(),
            b.platform.delay(0, 1).to_bits()
        );
        // …but the execution times differ: one matrix was rescaled.
        let g_a = platform::granularity::granularity(&a.dag, &a.platform, &a.exec).unwrap();
        let g_b = platform::granularity::granularity(&b.dag, &b.platform, &b.exec).unwrap();
        assert!((g_b - 1.0).abs() < 1e-9, "scaled instance hits g = 1.0");
        assert!(
            (g_a - 1.0).abs() > 1e-6,
            "unscaled instance keeps natural costs"
        );
        // And the unscaled spec still runs end to end.
        let res = run_campaign_with_threads(&unscaled, 2).unwrap();
        assert!(res.groups[0].mean("FTSA-LowerBound").is_some());
    }

    fn stream_spec() -> CampaignSpec {
        use simulator::streaming::{ArrivalProcess, PoissonArrivals};
        let mut spec = tiny_spec();
        spec.id = "tiny-stream".into();
        spec.platforms = vec![PlatformSpec::paper(6, 1.0)];
        spec.repetitions = 2;
        spec.arrivals = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson(PoissonArrivals {
                rate: 0.01,
                count: 4,
            }),
            deadline_stretch: 6.0,
            failures: FailureModel::Uniform(UniformFailures { crashes: 1 }),
        });
        spec.measures = MeasurePlan {
            bounds: false,
            normalize: false,
            ..Default::default()
        };
        spec
    }

    #[test]
    fn stream_campaign_produces_stream_series() {
        let spec = stream_spec();
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        assert_eq!(res.groups.len(), 1);
        let g = &res.groups[0];
        for alg in ["FTSA", "MC-FTSA"] {
            for series in [
                "Stream Response",
                "Stream Latency",
                "Stream Wait",
                "Stream DeadlineMiss",
                "Stream Completed",
            ] {
                let name = format!("{series}: {alg}");
                let mean = g.mean(&name).unwrap_or_else(|| panic!("missing {name}"));
                assert!(mean.is_finite(), "{name} = {mean}");
            }
            // ε = 1 tolerates the single time-0 crash: every DAG
            // completes, and response ≥ wait + 0 ≥ 0.
            assert_eq!(g.mean(&format!("Stream Completed: {alg}")), Some(1.0));
            assert!(g.mean(&format!("Stream Response: {alg}")).unwrap() > 0.0);
            assert!(g.mean(&format!("Stream Wait: {alg}")).unwrap() >= 0.0);
        }
        // No offline series leak into stream cells.
        assert!(g.mean("FTSA-LowerBound").is_none());
    }

    #[test]
    fn stream_campaign_bit_identical_across_thread_counts() {
        let spec = stream_spec();
        let a = run_campaign_with_threads(&spec, 1).unwrap();
        let b = run_campaign_with_threads(&spec, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn timed_relative_failure_axis_scales_with_the_reference() {
        // A fraction-of-M* horizon must resolve per cell: the series
        // exists, is finite, and the label carries the fraction.
        let mut spec = tiny_spec();
        spec.measures.overhead = false;
        spec.measures.failures = vec![
            FailureModel::Epsilon,
            FailureModel::TimedRelative(platform::TimedRelativeFailures {
                crashes: 1,
                fraction: 0.5,
            }),
        ];
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        for g in &res.groups {
            let timed = g.mean("FTSA with 1 Crash in [0,0.5*Mstar]").unwrap();
            assert!(timed.is_finite() && timed > 0.0);
        }
    }

    #[test]
    fn result_serde_round_trips() {
        let spec = tiny_spec();
        let res = run_campaign_with_threads(&spec, 2).unwrap();
        let json = serde_json::to_string(&res).unwrap();
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, res);
    }
}
