//! The declarative side of the campaign engine: serde-round-trippable
//! scenario grids.
//!
//! A [`CampaignSpec`] is the full description of an experiment — the
//! workload/platform/ε/repetition axes, the algorithm sets, the failure
//! models and the measurement plan — as plain data. `ftsched campaign
//! --spec file.json` runs one straight from disk; the named presets in
//! [`crate::campaign::presets`] build the paper's own evaluations as
//! specs.

use super::MAX_SERIES_INDICES;
use ftsched_core::Algorithm;
use platform::exec::SPREADS;
use platform::FailureModel;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simulator::reliability::MAX_EXACT_PROCS;
use simulator::streaming::ArrivalProcess;
use taskgraph::generators::{
    erdos, fork_join, layered, series_parallel, ErdosConfig, ForkJoinConfig, LayeredConfig,
    SeriesParallelConfig, MAX_TASKS,
};
use taskgraph::{workloads, Dag};

/// Task-count range of a paper-style layered workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayeredRange {
    /// Inclusive lower bound of the task count (paper: 100).
    pub tasks_lo: usize,
    /// Inclusive upper bound of the task count (paper: 150).
    pub tasks_hi: usize,
}

/// Task count of a single-parameter generator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskCount {
    /// Number of tasks to generate.
    pub tasks: usize,
}

/// Shape of a fork–join generator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForkJoinShape {
    /// Number of fork–join stages.
    pub width: usize,
    /// Parallel branches per stage.
    pub depth: usize,
}

/// A structured-kernel workload: which kernel at which size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructuredWorkload {
    /// The kernel.
    pub kernel: StructuredKernel,
    /// Size parameter (matrix dimension, FFT width, grid edge, …).
    pub size: usize,
}

/// The classic structured application kernels of
/// [`taskgraph::workloads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StructuredKernel {
    /// Tiled Cholesky factorization.
    Cholesky,
    /// Radix-2 FFT butterfly graph.
    Fft,
    /// Gaussian elimination update cascade.
    GaussianElimination,
    /// 1-D stencil sweep (width × steps grid).
    Stencil1d,
    /// Map–shuffle–reduce.
    MapReduce,
    /// 2-D wavefront (dynamic-programming dependence).
    Wavefront,
}

impl StructuredKernel {
    /// Every kernel, in canonical order.
    pub const ALL: [StructuredKernel; 6] = [
        StructuredKernel::Cholesky,
        StructuredKernel::Fft,
        StructuredKernel::GaussianElimination,
        StructuredKernel::Stencil1d,
        StructuredKernel::MapReduce,
        StructuredKernel::Wavefront,
    ];

    /// Stable lower-case identifier (used in labels and spec files).
    pub fn key(self) -> &'static str {
        match self {
            StructuredKernel::Cholesky => "cholesky",
            StructuredKernel::Fft => "fft",
            StructuredKernel::GaussianElimination => "gaussian_elimination",
            StructuredKernel::Stencil1d => "stencil_1d",
            StructuredKernel::MapReduce => "map_reduce",
            StructuredKernel::Wavefront => "wavefront",
        }
    }

    /// Builds the kernel DAG at `size` with the workspace's canonical
    /// cost parameters (the same scales the CLI `generate` command uses).
    pub fn build(self, size: usize) -> Dag {
        match self {
            StructuredKernel::Cholesky => workloads::cholesky(size.max(2), 10.0, 5.0),
            StructuredKernel::Fft => workloads::fft(size.next_power_of_two().max(2), 10.0, 20.0),
            StructuredKernel::GaussianElimination => {
                workloads::gaussian_elimination(size.max(2), 10.0, 1.0)
            }
            StructuredKernel::Stencil1d => workloads::stencil_1d(size, size, 10.0, 15.0),
            StructuredKernel::MapReduce => {
                workloads::map_reduce(size, size / 2 + 1, 20.0, 30.0, 10.0)
            }
            StructuredKernel::Wavefront => workloads::wavefront(size, size, 10.0, 15.0),
        }
    }

    /// The number of tasks [`build`](Self::build) draws at `size`,
    /// computed from the shape alone; `None` when it overflows `usize`.
    pub fn task_count(self, size: usize) -> Option<usize> {
        match self {
            // Per step k of an n × n tile grid, with a = n − 1 − k: one
            // potrf, a trsm, a syrk and a(a − 1)/2 gemm tasks.
            StructuredKernel::Cholesky => {
                let n = size.max(2);
                let gemm = n.checked_mul(n - 1)?.checked_mul(n - 2)? / 6;
                n.checked_mul(n)?.checked_add(gemm)
            }
            // An input row and one butterfly row per stage.
            StructuredKernel::Fft => {
                let n = size.checked_next_power_of_two()?.max(2);
                n.checked_mul(n.trailing_zeros() as usize + 1)
            }
            // Per step, a pivot and one update per remaining column.
            StructuredKernel::GaussianElimination => {
                let n = size.max(2);
                (n - 1).checked_add(n.checked_mul(n - 1)? / 2)
            }
            StructuredKernel::Stencil1d | StructuredKernel::Wavefront => size.checked_mul(size),
            // Split, mappers, reducers and collect.
            StructuredKernel::MapReduce => size.checked_add(size / 2 + 3),
        }
    }
}

/// One point of the workload axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's layered `U{tasks_lo..tasks_hi}` random graphs drawn
    /// through [`platform::gen::paper_instance`] (volumes `U[50, 150]`,
    /// delays `U[0.5, 1]`).
    PaperLayered(LayeredRange),
    /// Random layered graphs at a fixed task count.
    Layered(TaskCount),
    /// Sparse random Erdős–Rényi-style DAGs.
    Erdos(TaskCount),
    /// Fork–join stage graphs.
    ForkJoin(ForkJoinShape),
    /// Random series–parallel graphs.
    SeriesParallel(TaskCount),
    /// A structured application kernel.
    Structured(StructuredWorkload),
}

impl WorkloadSpec {
    /// Human-readable label used in campaign tables and CSV rows.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::PaperLayered(r) => {
                format!("paper-layered[{}..{}]", r.tasks_lo, r.tasks_hi)
            }
            WorkloadSpec::Layered(t) => format!("layered[{}]", t.tasks),
            WorkloadSpec::Erdos(t) => format!("erdos[{}]", t.tasks),
            WorkloadSpec::ForkJoin(s) => format!("fork-join[{}x{}]", s.width, s.depth),
            WorkloadSpec::SeriesParallel(t) => format!("series-parallel[{}]", t.tasks),
            WorkloadSpec::Structured(s) => format!("{}[{}]", s.kernel.key(), s.size),
        }
    }

    /// The most tasks the workload draws, computed from its shape alone:
    /// exact for the fixed shapes, `tasks_hi` for `PaperLayered` and
    /// twice the target for series-parallel; `None` when it overflows
    /// `usize`. Timing caps compare against it, and `PaperTable` seeding
    /// XORs it into the cell seed (as the pre-campaign Table 1 driver
    /// XORed in its row's task count).
    pub fn task_count(&self) -> Option<usize> {
        match self {
            WorkloadSpec::PaperLayered(r) => Some(r.tasks_hi),
            WorkloadSpec::Layered(t) | WorkloadSpec::Erdos(t) => Some(t.tasks),
            // At most twice the target: a parallel split whose second
            // branch has no budget left still gets a task.
            WorkloadSpec::SeriesParallel(t) => t.tasks.max(2).checked_mul(2),
            // A source, then per stage `depth` branches and a join.
            WorkloadSpec::ForkJoin(s) => {
                s.width.checked_mul(s.depth.checked_add(1)?)?.checked_add(1)
            }
            WorkloadSpec::Structured(s) => s.kernel.task_count(s.size),
        }
    }

    /// Checks the drawn graph's size against
    /// [`MAX_TASKS`](taskgraph::generators::MAX_TASKS) before anything is
    /// drawn.
    pub fn check_size(&self) -> Result<(), ShapeTooLarge> {
        let tasks = self.task_count().ok_or(ShapeTooLarge::Overflow)?;
        if tasks > MAX_TASKS {
            return Err(ShapeTooLarge::Tasks(tasks));
        }
        // Map-reduce's all-to-all shuffle outgrows its tasks.
        if let WorkloadSpec::Structured(StructuredWorkload {
            kernel: StructuredKernel::MapReduce,
            size,
        }) = *self
        {
            let edges = size.saturating_mul(size / 2 + 1);
            if edges > MAX_TASKS {
                return Err(ShapeTooLarge::Shuffle(edges));
            }
        }
        Ok(())
    }

    /// Builds the task graph, consuming `rng` only for the random
    /// families (structured kernels are deterministic).
    pub fn build_dag(&self, rng: &mut impl Rng) -> Dag {
        match self {
            // Same single-home draw `paper_instance` starts with, so a
            // standalone `build_dag` reproduces the campaign's graphs
            // at the same seed.
            WorkloadSpec::PaperLayered(r) => platform::gen::paper_dag(rng, r.tasks_lo, r.tasks_hi),
            WorkloadSpec::Layered(t) => layered(rng, &LayeredConfig::paper(t.tasks)),
            WorkloadSpec::Erdos(t) => erdos(rng, &ErdosConfig::sparse(t.tasks)),
            WorkloadSpec::ForkJoin(s) => fork_join(rng, &ForkJoinConfig::new(s.width, s.depth)),
            WorkloadSpec::SeriesParallel(t) => {
                series_parallel(rng, &SeriesParallelConfig::new(t.tasks.max(2)))
            }
            WorkloadSpec::Structured(s) => s.kernel.build(s.size),
        }
    }

    /// Structural validation: rejects the shapes whose generators would
    /// panic or emit an empty DAG mid-grid (an inverted `PaperLayered`
    /// range aborts `gen_range`; zero-task / zero-shape workloads have no
    /// schedulable graph) and the shapes too large to draw (see
    /// [`WorkloadSpec::check_size`]). Part of [`CampaignSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.check_size()
            .map_err(|e| format!("workload {}: {e}", self.label()))?;
        match self {
            WorkloadSpec::PaperLayered(r) => {
                if r.tasks_lo == 0 {
                    return Err(format!("workload {}: tasks_lo must be >= 1", self.label()));
                }
                if r.tasks_lo > r.tasks_hi {
                    return Err(format!(
                        "workload {}: tasks_lo {} exceeds tasks_hi {}",
                        self.label(),
                        r.tasks_lo,
                        r.tasks_hi
                    ));
                }
            }
            WorkloadSpec::Layered(t) | WorkloadSpec::Erdos(t) | WorkloadSpec::SeriesParallel(t) => {
                if t.tasks == 0 {
                    return Err(format!(
                        "workload {}: needs at least one task",
                        self.label()
                    ));
                }
            }
            WorkloadSpec::ForkJoin(s) => {
                if s.width == 0 || s.depth == 0 {
                    return Err(format!(
                        "workload {}: width and depth must be >= 1",
                        self.label()
                    ));
                }
            }
            WorkloadSpec::Structured(s) => {
                if s.size == 0 {
                    return Err(format!(
                        "workload {}: size parameter must be >= 1",
                        self.label()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Why [`WorkloadSpec::check_size`] refuses a shape; its text says what
/// the shape would draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeTooLarge {
    /// The task count overflows `usize`.
    Overflow,
    /// More tasks than [`MAX_TASKS`](taskgraph::generators::MAX_TASKS).
    Tasks(usize),
    /// A map-reduce shuffle of more edges than
    /// [`MAX_TASKS`](taskgraph::generators::MAX_TASKS).
    Shuffle(usize),
}

impl std::fmt::Display for ShapeTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let max = MAX_TASKS;
        match self {
            ShapeTooLarge::Overflow => write!(f, "draws a task count that overflows"),
            ShapeTooLarge::Tasks(n) => {
                write!(f, "draws {n} tasks, more than the {max} a graph may have")
            }
            ShapeTooLarge::Shuffle(e) => write!(
                f,
                "draws a shuffle of {e} edges, more than the {max} a graph may have"
            ),
        }
    }
}

/// One point of the platform axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of fully connected processors.
    pub procs: usize,
    /// Target granularity (computation / communication balance); `<= 0`
    /// leaves the workload's natural costs unscaled.
    pub granularity: f64,
    /// Communication-to-computation ratio; when `> 0` it overrides
    /// `granularity` as `granularity = 1 / ccr` (the two are reciprocal
    /// views of the same rescaling).
    pub ccr: f64,
    /// Unrelated-machines heterogeneity spread of execution times, in
    /// [`SPREADS`].
    pub heterogeneity: f64,
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec {
            procs: 20,
            granularity: 1.0,
            ccr: 0.0,
            heterogeneity: 0.5,
        }
    }
}

impl PlatformSpec {
    /// A paper-style platform point at `procs` processors and
    /// `granularity`.
    pub fn paper(procs: usize, granularity: f64) -> Self {
        PlatformSpec {
            procs,
            granularity,
            ..Default::default()
        }
    }

    /// The granularity the instance is rescaled to, if any (`ccr` wins
    /// over `granularity`).
    pub fn effective_granularity(&self) -> Option<f64> {
        if self.ccr > 0.0 {
            Some(1.0 / self.ccr)
        } else if self.granularity > 0.0 {
            Some(self.granularity)
        } else {
            None
        }
    }
}

/// A timing cap: skip `algorithm` entirely (no seconds, no bounds) in
/// cells whose workload can draw more than `max_tasks` tasks
/// ([`WorkloadSpec::task_count`]) — Table 1's
/// "FTBAR at 5000 tasks takes minutes by design" escape hatch,
/// generalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingCap {
    /// The algorithm to cap.
    pub algorithm: Algorithm,
    /// Largest task count the algorithm still runs at.
    pub max_tasks: usize,
}

/// What to measure in every cell.
///
/// All families compose: a single campaign can record bounds, crash
/// latencies, wall-clock seconds and one-port penalties at once. The
/// legacy drivers are specific combinations (see
/// [`crate::campaign::presets`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurePlan {
    /// Record the eq. (2)/(4) latency bounds (`{alg}-LowerBound`,
    /// `{alg}-UpperBound`) of every primary and extra algorithm.
    pub bounds: bool,
    /// Divide latency-valued series by the instance's mean edge
    /// communication cost `W̄` (the figures' normalization constant).
    pub normalize: bool,
    /// Algorithms additionally scheduled at `ε = 0` (`FaultFree-{alg}`
    /// series). Must be a subset of the primary algorithm list.
    pub fault_free: Vec<Algorithm>,
    /// Record `Overhead: …` series (percent over the *first* primary
    /// algorithm's fault-free latency) next to each crash series.
    /// Requires `fault_free` to contain that first algorithm.
    pub overhead: bool,
    /// Failure models to inject. The first model's scenario is shared by
    /// **every** algorithm of the cell (the paper's "identical failed
    /// processors for every algorithm" protocol); the remaining models
    /// are evaluated on the first primary algorithm only, drawn
    /// sequentially from the cell's crash stream.
    pub failures: Vec<FailureModel>,
    /// Algorithms whose replication message count is recorded
    /// (`Messages: {alg}`); extra algorithms are always counted.
    pub messages: Vec<Algorithm>,
    /// Record wall-clock scheduling seconds (`Seconds: {alg}`). Timing
    /// columns are *not* covered by the bit-parity guarantees (they
    /// measure the machine, not the algorithm).
    pub timing: bool,
    /// Per-algorithm task-count caps (only meaningful with per-algorithm
    /// seeding modes; rejected with shared-stream seeding, where a
    /// skipped slot would shift every later algorithm's tie stream).
    pub timing_caps: Vec<TimingCap>,
    /// Record one-port contention penalties (`OnePortPenalty: {alg}`,
    /// `Transfers: {alg}`) of every primary algorithm, fault-free.
    pub contention: bool,
    /// Per-processor failure probabilities at which to record the exact
    /// survival probability of the first primary algorithm's schedule
    /// (`P(survive) p={p}`) and the Theorem 4.1 design point
    /// (`DesignPoint p={p}`). Exponential in `procs` — small platforms
    /// only.
    pub reliability: Vec<f64>,
}

impl Default for MeasurePlan {
    fn default() -> Self {
        MeasurePlan {
            bounds: true,
            normalize: true,
            fault_free: Vec::new(),
            overhead: false,
            failures: Vec::new(),
            messages: Vec::new(),
            timing: false,
            timing_caps: Vec::new(),
            contention: false,
            reliability: Vec::new(),
        }
    }
}

/// The online-scheduling axis: when a spec carries an `ArrivalSpec`,
/// every cell is one **DAG stream** instead of one offline instance.
/// The workload spec describes each DAG in the stream, the platform
/// point is drawn once per cell and shared (persistent occupancy), and
/// the cell's series are the per-DAG stream measures — response time,
/// latency, queueing wait, deadline-miss fraction and completion
/// fraction per algorithm (see
/// [`crate::campaign::evaluate_stream_cell_into`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// How DAGs arrive (Poisson rate + count, or a recorded trace).
    pub process: ArrivalProcess,
    /// Per-DAG deadline = arrival + stretch × the DAG's isolated
    /// critical-path lower bound
    /// ([`ftsched_core::bounds::critical_path_bound`]).
    pub deadline_stretch: f64,
    /// Failure model of the stream, drawn once per cell on the absolute
    /// stream clock and shared by every algorithm (the paper's
    /// identical-failures protocol). `TimedRelative` is rejected here —
    /// a stream has no single reference makespan.
    pub failures: FailureModel,
}

/// How per-cell RNG seeds are derived.
///
/// New campaigns use [`Seeding::Indexed`]: every cell's seed is
/// [`simulator::replication_seed`]`(spec.seed, cell_index)` and every
/// schedule slot gets its own stream derived from its slot position.
/// Stability contract: **appending workloads** (the outermost axis) or
/// **appending extra algorithms** (slots at the end, separate streams)
/// leaves every existing series bit-identical. Any edit that renumbers
/// existing cells or slots — adding platform points, ε values,
/// repetitions, primary algorithms or fault-free baselines — reseeds
/// the affected series; treat those as a new experiment. The `Paper*`
/// modes reproduce the exact seed derivations and tie-stream sharing of
/// the pre-campaign drivers; they exist so the pinned presets stay
/// **bit-identical** to the historical figure/table outputs (see
/// `tests/campaign_parity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Seeding {
    /// `replication_seed(seed, cell_index)`; independent per-slot tie
    /// streams.
    Indexed,
    /// The figure drivers' derivation: granularity/repetition-mixed cell
    /// seed, one tie stream shared across the paper algorithms (extras
    /// independent), crash stream at `cell_seed ^ 0xC4A5`.
    PaperFigure,
    /// The Table 1 driver's derivation: `seed ^ task_count` for the
    /// instance, a fresh `StdRng(seed)` tie stream per algorithm. The
    /// repetition index is unused, so a spec has exactly one repetition.
    PaperTable,
    /// The contention driver's derivation.
    PaperContention,
    /// The reliability driver's derivation: one instance per spec seed,
    /// tie streams at `seed ^ ε`. The repetition index is unused, so a
    /// spec has exactly one repetition.
    PaperReliability,
}

impl Seeding {
    /// Whether cell seeds depend on the repetition index. When they do
    /// not, every repetition of a group would redo the same work, so
    /// [`CampaignSpec::validate`] requires `repetitions == 1` and the
    /// CLI's `--reps`/`--quick` leave such specs alone.
    pub fn uses_repetition_index(self) -> bool {
        !matches!(self, Seeding::PaperTable | Seeding::PaperReliability)
    }
}

/// A declarative scenario grid: the cross product of the workload,
/// platform, ε and repetition axes, evaluated under one measurement
/// plan. See the campaign engine docs ([`crate::campaign`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign identifier (file stem of CSV/JSON outputs).
    pub id: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Platform axis.
    pub platforms: Vec<PlatformSpec>,
    /// Tolerated-failure axis.
    pub epsilons: Vec<usize>,
    /// Primary algorithms, evaluated on every cell's shared instance and
    /// shared first failure scenario.
    pub algorithms: Vec<Algorithm>,
    /// Additional independently-seeded algorithms: each rides the same
    /// instances and shared scenarios on its **own** tie stream, so
    /// appending one never changes the primary series. An extra that
    /// duplicates a primary (or an earlier extra) is skipped.
    pub extra_algorithms: Vec<Algorithm>,
    /// Random instances per (workload, platform, ε) group.
    pub repetitions: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-cell seed derivation.
    pub seeding: Seeding,
    /// Online-scheduling axis: `Some` turns every cell into a DAG
    /// stream on a shared platform (see [`ArrivalSpec`]).
    pub arrivals: Option<ArrivalSpec>,
    /// What to measure.
    pub measures: MeasurePlan,
}

impl CampaignSpec {
    /// Total number of cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.workloads.len() * self.platforms.len() * self.epsilons.len() * self.repetitions
    }

    /// Number of aggregation groups (cells differing only in the
    /// repetition coordinate share a group).
    pub fn num_groups(&self) -> usize {
        self.workloads.len() * self.platforms.len() * self.epsilons.len()
    }

    /// Structural validation: every error a run would otherwise hit
    /// mid-grid, reported up front.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() {
            return Err("campaign needs at least one workload".into());
        }
        if self.platforms.is_empty() {
            return Err("campaign needs at least one platform point".into());
        }
        if self.epsilons.is_empty() {
            return Err("campaign needs at least one epsilon".into());
        }
        if self.algorithms.is_empty() {
            return Err("campaign needs at least one primary algorithm".into());
        }
        if self.repetitions == 0 {
            return Err("campaign needs at least one repetition".into());
        }
        for (i, alg) in self.algorithms.iter().enumerate() {
            if self.algorithms[..i].contains(alg) {
                return Err(format!(
                    "primary algorithm {} is listed twice, so its series would merge",
                    alg.name()
                ));
            }
        }
        for (what, len) in [
            ("extra algorithms", self.extra_algorithms.len()),
            ("failure models", self.measures.failures.len()),
            ("reliability probabilities", self.measures.reliability.len()),
        ] {
            if len > MAX_SERIES_INDICES {
                return Err(format!(
                    "campaign lists {len} {what}, more than the {MAX_SERIES_INDICES} \
                     a series key can tell apart"
                ));
            }
        }
        for w in &self.workloads {
            w.validate()?;
        }
        for p in &self.platforms {
            if p.procs == 0 {
                return Err("platform point with zero processors".into());
            }
            if p.procs > platform::MAX_PROCS {
                return Err(format!(
                    "platform point with {} processors (at most {})",
                    p.procs,
                    platform::MAX_PROCS
                ));
            }
            if !p.granularity.is_finite() {
                return Err(format!("platform granularity {} invalid", p.granularity));
            }
            if !p.ccr.is_finite() {
                return Err(format!("platform ccr {} invalid", p.ccr));
            }
            if let Some(g) = p.effective_granularity() {
                if !g.is_finite() {
                    return Err(format!(
                        "platform ccr {:?} gives the granularity {g}, which is not finite",
                        p.ccr
                    ));
                }
                if p.procs == 1 {
                    return Err(
                        "a one-processor platform point has no links, so it cannot take \
                         a granularity or ccr (set both to 0)"
                            .into(),
                    );
                }
            }
            if !self.measures.reliability.is_empty() && p.procs > MAX_EXACT_PROCS {
                return Err(format!(
                    "exact reliability enumerates every failure pattern, so it takes at \
                     most {MAX_EXACT_PROCS} processors; platform point has {}",
                    p.procs
                ));
            }
            if !SPREADS.contains(&p.heterogeneity) {
                return Err(format!(
                    "platform heterogeneity {} outside [{}, {}): execution times are scaled \
                     by factors down to 1 − heterogeneity, which must stay positive",
                    p.heterogeneity, SPREADS.start, SPREADS.end
                ));
            }
            for &eps in &self.epsilons {
                if eps + 1 > p.procs {
                    return Err(format!(
                        "epsilon {eps} needs {} processors, platform point has {}",
                        eps + 1,
                        p.procs
                    ));
                }
                for fm in &self.measures.failures {
                    if fm.crashes(eps) > p.procs {
                        return Err(format!(
                            "failure model {fm:?} draws {} distinct processors, \
                             platform point has only {}",
                            fm.crashes(eps),
                            p.procs
                        ));
                    }
                }
            }
        }
        for fm in &self.measures.failures {
            if let FailureModel::Timed(t) = fm {
                if !(t.horizon.is_finite() && t.horizon >= 0.0) {
                    return Err(format!("timed failure horizon {} invalid", t.horizon));
                }
            }
            if let FailureModel::TimedRelative(t) = fm {
                if !(t.fraction.is_finite() && t.fraction >= 0.0) {
                    return Err(format!("timed failure fraction {} invalid", t.fraction));
                }
            }
        }
        if self.measures.overhead {
            let first = self.algorithms[0];
            if !self.measures.fault_free.contains(&first) {
                return Err(format!(
                    "overhead series need the fault-free baseline of the first \
                     primary algorithm ({}) in measures.fault_free",
                    first.name()
                ));
            }
        }
        for alg in &self.measures.fault_free {
            if !self.algorithms.contains(alg) {
                return Err(format!(
                    "fault-free algorithm {} is not in the primary set",
                    alg.name()
                ));
            }
        }
        if !self.measures.timing_caps.is_empty()
            && matches!(
                self.seeding,
                Seeding::PaperFigure | Seeding::PaperContention
            )
        {
            return Err(
                "timing caps cannot combine with shared-tie-stream seeding modes \
                 (a skipped slot would shift later algorithms' streams)"
                    .into(),
            );
        }
        // The first primary algorithm's schedule is the reference for
        // failure injection, contention and reliability; capping it away
        // would leave those measures reading a stale (or empty) slot.
        if (!self.measures.failures.is_empty()
            || self.measures.contention
            || !self.measures.reliability.is_empty())
            && self
                .measures
                .timing_caps
                .iter()
                .any(|c| c.algorithm == self.algorithms[0])
        {
            return Err(format!(
                "the first primary algorithm ({}) cannot carry a timing cap while \
                 failure/contention/reliability measures are requested — its \
                 schedule is every cell's reference",
                self.algorithms[0].name()
            ));
        }
        if matches!(self.seeding, Seeding::PaperFigure) {
            for p in &self.platforms {
                if p.effective_granularity().is_none() {
                    return Err(
                        "PaperFigure seeding derives cell seeds from the granularity; \
                         every platform point needs granularity or ccr set"
                            .into(),
                    );
                }
            }
        }
        for p in &self.measures.reliability {
            if !(0.0..=1.0).contains(p) {
                return Err(format!("reliability probability {p} outside [0, 1]"));
            }
        }
        if let Some(arr) = &self.arrivals {
            self.validate_arrivals(arr)?;
        }
        if self.repetitions > 1 && !self.seeding.uses_repetition_index() {
            return Err(format!(
                "{:?} seeding ignores the repetition index, so its {} repetitions \
                 would repeat identical work; use repetitions = 1",
                self.seeding, self.repetitions
            ));
        }
        Ok(())
    }

    /// The arrival-axis half of [`CampaignSpec::validate`].
    fn validate_arrivals(&self, arr: &ArrivalSpec) -> Result<(), String> {
        if self.seeding != Seeding::Indexed {
            return Err("arrival-process campaigns require Indexed seeding \
                 (the Paper* modes encode pre-campaign offline drivers)"
                .into());
        }
        let m = &self.measures;
        if m.bounds
            || m.overhead
            || m.timing
            || m.contention
            || !m.fault_free.is_empty()
            || !m.failures.is_empty()
            || !m.messages.is_empty()
            || !m.reliability.is_empty()
            || !m.timing_caps.is_empty()
        {
            return Err("arrival-process campaigns record only the stream series; \
                 disable bounds/overhead/timing/contention and clear \
                 fault_free/failures/messages/reliability/timing_caps"
                .into());
        }
        match &arr.process {
            ArrivalProcess::Poisson(p) => {
                if p.count == 0 {
                    return Err("arrival process emits zero DAGs".into());
                }
                if !(p.rate.is_finite() && p.rate > 0.0) {
                    return Err(format!("Poisson arrival rate {} invalid", p.rate));
                }
            }
            ArrivalProcess::Trace(t) => {
                if t.times.is_empty() {
                    return Err("arrival process emits zero DAGs".into());
                }
                let mut prev = 0.0;
                for &time in &t.times {
                    if !(time.is_finite() && time >= prev) {
                        return Err(format!(
                            "trace arrivals must be finite, >= 0 and non-decreasing \
                             (got {time} after {prev})"
                        ));
                    }
                    prev = time;
                }
            }
        }
        if !(arr.deadline_stretch.is_finite() && arr.deadline_stretch > 0.0) {
            return Err(format!(
                "deadline stretch {} must be finite and > 0",
                arr.deadline_stretch
            ));
        }
        if arr.failures.needs_reference() {
            return Err(
                "TimedRelative failures are undefined on a stream (no single \
                 reference makespan); use Timed with an absolute horizon"
                    .into(),
            );
        }
        for p in &self.platforms {
            for &eps in &self.epsilons {
                if arr.failures.crashes(eps) > p.procs {
                    return Err(format!(
                        "stream failure model {:?} draws {} distinct processors, \
                         platform point has only {}",
                        arr.failures,
                        arr.failures.crashes(eps),
                        p.procs
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parses a spec from JSON and validates it.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let spec: CampaignSpec = serde_json::from_str(s).map_err(|e| e.to_string())?;
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{TimedFailures, UniformFailures};
    use rand::SeedableRng;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            id: "test".into(),
            workloads: vec![
                WorkloadSpec::PaperLayered(LayeredRange {
                    tasks_lo: 20,
                    tasks_hi: 30,
                }),
                WorkloadSpec::Structured(StructuredWorkload {
                    kernel: StructuredKernel::Wavefront,
                    size: 4,
                }),
            ],
            platforms: vec![PlatformSpec::paper(8, 0.8)],
            epsilons: vec![1, 2],
            algorithms: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
            extra_algorithms: vec![Algorithm::FtsaPressure],
            repetitions: 3,
            seed: 42,
            seeding: Seeding::Indexed,
            arrivals: None,
            measures: MeasurePlan {
                fault_free: vec![Algorithm::Ftsa],
                overhead: true,
                failures: vec![
                    FailureModel::Epsilon,
                    FailureModel::Uniform(UniformFailures { crashes: 0 }),
                ],
                messages: vec![Algorithm::Ftsa],
                ..Default::default()
            },
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = small_spec();
        let json = spec.to_json().unwrap();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_rejects_structural_errors() {
        let ok = small_spec();
        assert!(ok.validate().is_ok());

        let mut bad = ok.clone();
        bad.epsilons = vec![9]; // 10 > 8 processors
        assert!(bad.validate().unwrap_err().contains("processors"));

        let mut bad = ok.clone();
        bad.measures.failures = vec![FailureModel::Uniform(UniformFailures { crashes: 99 })];
        assert!(bad.validate().unwrap_err().contains("distinct processors"));

        let mut bad = ok.clone();
        bad.measures.fault_free.clear();
        assert!(bad.validate().unwrap_err().contains("fault-free"));

        let mut bad = ok.clone();
        bad.measures.failures = vec![FailureModel::Timed(TimedFailures {
            crashes: 1,
            horizon: f64::NAN,
        })];
        assert!(bad.validate().unwrap_err().contains("horizon"));

        let mut bad = ok.clone();
        bad.seeding = Seeding::PaperFigure;
        bad.measures.timing_caps = vec![TimingCap {
            algorithm: Algorithm::Ftbar,
            max_tasks: 10,
        }];
        assert!(bad.validate().unwrap_err().contains("timing caps"));

        // The first primary is the failure/contention/reliability
        // reference schedule; capping it away must be rejected.
        let mut bad = ok.clone();
        bad.measures.timing_caps = vec![TimingCap {
            algorithm: bad.algorithms[0],
            max_tasks: 10,
        }];
        assert!(bad.validate().unwrap_err().contains("reference"));

        let mut bad = ok;
        bad.repetitions = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_processor_count() {
        let mut spec = small_spec();
        spec.platforms[0].procs = platform::MAX_PROCS;
        assert_eq!(spec.validate(), Ok(()));
        spec.platforms[0].procs = platform::MAX_PROCS + 1;
        assert_eq!(
            spec.validate(),
            Err("platform point with 4097 processors (at most 4096)".into())
        );
    }

    #[test]
    fn validation_bounds_the_exact_reliability_platform() {
        // Exact reliability enumerates 2^m failure patterns and asserts
        // m <= 24; validation refuses a larger point from the spec alone,
        // before anything is drawn or scheduled.
        let mut spec = small_spec();
        spec.measures.reliability = vec![0.1];
        spec.platforms[0].procs = MAX_EXACT_PROCS;
        assert_eq!(spec.validate(), Ok(()));
        spec.platforms[0].procs = MAX_EXACT_PROCS + 1;
        assert_eq!(
            spec.validate(),
            Err(
                "exact reliability enumerates every failure pattern, so it takes at most \
                 24 processors; platform point has 25"
                    .into()
            )
        );
        // Without the measure, the same point is fine.
        spec.measures.reliability.clear();
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn validation_refuses_series_that_would_collide() {
        // A repeated primary algorithm would list each of its series
        // twice in every group, and a group's mean reads the first.
        let mut spec = small_spec();
        spec.algorithms = vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftsa];
        assert_eq!(
            spec.validate(),
            Err("primary algorithm FTSA is listed twice, so its series would merge".into())
        );
        // Series keys index extra algorithms, failure models and
        // reliability probabilities with a `u8`: a 257th entry would
        // merge into the first one's series.
        let mut spec = small_spec();
        spec.extra_algorithms = vec![Algorithm::FtsaPressure; 256];
        spec.measures.failures = vec![FailureModel::Epsilon; 256];
        spec.measures.reliability = vec![0.1; 256];
        assert_eq!(spec.validate(), Ok(()));
        let refused = |bad: CampaignSpec, what: &str| {
            assert_eq!(
                bad.validate(),
                Err(format!(
                    "campaign lists 257 {what}, more than the 256 a series key can tell apart"
                ))
            );
        };
        let mut bad = spec.clone();
        bad.extra_algorithms.push(Algorithm::Ftbar);
        refused(bad, "extra algorithms");
        let mut bad = spec.clone();
        bad.measures.failures.push(FailureModel::Epsilon);
        refused(bad, "failure models");
        let mut bad = spec;
        bad.measures.reliability.push(0.1);
        refused(bad, "reliability probabilities");
    }

    #[test]
    fn validation_bounds_the_task_count() {
        let max = MAX_TASKS;
        let with = |w: WorkloadSpec| {
            let mut spec = small_spec();
            spec.workloads = vec![w];
            spec.validate()
        };
        let layered =
            |tasks_lo, tasks_hi| WorkloadSpec::PaperLayered(LayeredRange { tasks_lo, tasks_hi });
        let kernel = |kernel, size| WorkloadSpec::Structured(StructuredWorkload { kernel, size });
        // At the bound: validation draws nothing, so nothing is drawn here.
        assert_eq!(with(layered(1, max)), Ok(()));
        assert_eq!(with(kernel(StructuredKernel::Wavefront, 1024)), Ok(()));
        assert_eq!(
            with(layered(1, max + 1)),
            Err(format!(
                "workload paper-layered[1..{}]: draws {} tasks, more than the {max} a graph may have",
                max + 1,
                max + 1
            ))
        );
        let huge = 100_000_000_000;
        assert_eq!(
            with(layered(huge, huge)),
            Err(format!(
                "workload paper-layered[{huge}..{huge}]: draws {huge} tasks, more than the \
                 {max} a graph may have"
            ))
        );
        assert_eq!(
            with(kernel(StructuredKernel::Wavefront, 1025)),
            Err(format!(
                "workload wavefront[1025]: draws 1050625 tasks, more than the {max} a graph may have"
            ))
        );
        assert_eq!(
            with(kernel(StructuredKernel::Stencil1d, 1 << 33)),
            Err(format!(
                "workload stencil_1d[{}]: draws a task count that overflows",
                1u64 << 33
            ))
        );
        assert_eq!(
            with(WorkloadSpec::ForkJoin(ForkJoinShape {
                width: usize::MAX,
                depth: 1
            })),
            Err(format!(
                "workload fork-join[{}x1]: draws a task count that overflows",
                usize::MAX
            ))
        );
        // 1448 · 725 = 1 049 800 shuffle edges over 2176 tasks.
        assert_eq!(
            with(kernel(StructuredKernel::MapReduce, 1448)),
            Err(format!(
                "workload map_reduce[1448]: draws a shuffle of 1049800 edges, more than the \
                 {max} a graph may have"
            ))
        );
        assert_eq!(with(kernel(StructuredKernel::MapReduce, 1447)), Ok(()));
    }

    #[test]
    fn task_counts_are_the_drawn_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for size in (0..=24).chain([31, 32, 33, 50]) {
            for kernel in StructuredKernel::ALL {
                if size == 0
                    && !matches!(
                        kernel,
                        StructuredKernel::Cholesky
                            | StructuredKernel::Fft
                            | StructuredKernel::GaussianElimination
                    )
                {
                    continue; // the generator asserts a non-empty grid
                }
                let w = WorkloadSpec::Structured(StructuredWorkload { kernel, size });
                let drawn = kernel.build(size).num_tasks();
                assert_eq!(w.task_count(), Some(drawn), "{}", w.label());
            }
        }
        for (width, depth) in [(1, 1), (2, 5), (7, 3)] {
            let w = WorkloadSpec::ForkJoin(ForkJoinShape { width, depth });
            assert_eq!(
                w.task_count(),
                Some(w.build_dag(&mut rng).num_tasks()),
                "{}",
                w.label()
            );
        }
        for w in [
            WorkloadSpec::Layered(TaskCount { tasks: 40 }),
            WorkloadSpec::Erdos(TaskCount { tasks: 40 }),
            WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: 40,
                tasks_hi: 40,
            }),
        ] {
            assert_eq!(
                w.task_count(),
                Some(w.build_dag(&mut rng).num_tasks()),
                "{}",
                w.label()
            );
        }
        // Random series-parallel graphs stay within their count.
        for tasks in [1, 2, 3, 40, 400] {
            let w = WorkloadSpec::SeriesParallel(TaskCount { tasks });
            for _ in 0..20 {
                assert!(w.build_dag(&mut rng).num_tasks() <= w.task_count().unwrap());
            }
        }
    }

    #[test]
    fn arrival_axis_validates_and_round_trips() {
        use simulator::streaming::{PoissonArrivals, TraceArrivals};

        let mut spec = small_spec();
        spec.measures = MeasurePlan {
            bounds: false,
            normalize: false,
            ..Default::default()
        };
        spec.arrivals = Some(ArrivalSpec {
            process: ArrivalProcess::Poisson(PoissonArrivals {
                rate: 0.01,
                count: 5,
            }),
            deadline_stretch: 3.0,
            failures: FailureModel::Uniform(UniformFailures { crashes: 1 }),
        });
        spec.validate().unwrap();
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);

        // Stream cells record only stream series.
        let mut bad = spec.clone();
        bad.measures.bounds = true;
        assert!(bad.validate().unwrap_err().contains("stream series"));

        // Streams need Indexed seeding.
        let mut bad = spec.clone();
        bad.seeding = Seeding::PaperTable;
        assert!(bad.validate().unwrap_err().contains("Indexed"));

        // Degenerate processes are rejected up front.
        let mut bad = spec.clone();
        bad.arrivals.as_mut().unwrap().process = ArrivalProcess::Poisson(PoissonArrivals {
            rate: 0.0,
            count: 5,
        });
        assert!(bad.validate().unwrap_err().contains("rate"));
        let mut bad = spec.clone();
        bad.arrivals.as_mut().unwrap().process = ArrivalProcess::Trace(TraceArrivals {
            times: vec![3.0, 1.0],
        });
        assert!(bad.validate().unwrap_err().contains("non-decreasing"));
        let mut bad = spec.clone();
        bad.arrivals.as_mut().unwrap().deadline_stretch = 0.0;
        assert!(bad.validate().unwrap_err().contains("stretch"));

        // A stream has no reference makespan for TimedRelative.
        let mut bad = spec.clone();
        bad.arrivals.as_mut().unwrap().failures =
            FailureModel::TimedRelative(platform::TimedRelativeFailures {
                crashes: 1,
                fraction: 0.5,
            });
        assert!(bad.validate().unwrap_err().contains("TimedRelative"));

        // Crash counts are still bounded by the platform points.
        let mut bad = spec;
        bad.arrivals.as_mut().unwrap().failures =
            FailureModel::Uniform(UniformFailures { crashes: 99 });
        assert!(bad.validate().unwrap_err().contains("distinct processors"));
    }

    #[test]
    fn workload_labels_and_sizes() {
        assert_eq!(
            WorkloadSpec::PaperLayered(LayeredRange {
                tasks_lo: 100,
                tasks_hi: 150
            })
            .label(),
            "paper-layered[100..150]"
        );
        let w = WorkloadSpec::Structured(StructuredWorkload {
            kernel: StructuredKernel::MapReduce,
            size: 6,
        });
        assert_eq!(w.label(), "map_reduce[6]");
        // Structured workloads count the *actual* tasks (the timing caps
        // compare against them), not the size parameter:
        // map_reduce(6, 4) = 6 mappers + 4 reducers + source + sink.
        assert_eq!(w.task_count(), Some(12));
        // Every kernel builds a non-empty DAG and counts its exact tasks.
        for kernel in StructuredKernel::ALL {
            let dag = kernel.build(4);
            assert!(dag.num_tasks() > 0, "{kernel:?}");
            let w = WorkloadSpec::Structured(StructuredWorkload { kernel, size: 4 });
            assert_eq!(w.task_count(), Some(dag.num_tasks()), "{kernel:?}");
        }
    }

    #[test]
    fn effective_granularity_prefers_ccr() {
        let mut p = PlatformSpec::paper(4, 0.5);
        assert_eq!(p.effective_granularity(), Some(0.5));
        p.ccr = 2.0;
        assert_eq!(p.effective_granularity(), Some(0.5));
        p.ccr = 0.0;
        p.granularity = 0.0;
        assert_eq!(p.effective_granularity(), None);
    }
}
