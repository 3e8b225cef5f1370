//! Reusable scheduling state: the zero-allocation steady-state contract.
//!
//! Building a schedule needs a dozen working buffers — the output
//! [`Schedule`] arenas, the per-(edge, processor) arrival cache, ready
//! times, bottom levels, the heap-backed free list, per-step processor
//! selections and the matched-communication scratch. A
//! [`ScheduleWorkspace`] owns all of them; [`crate::pipeline::ListScheduler::run_into`]
//! (or [`crate::schedule_into`]) resets and refills them in place, so
//! after the first run on a given instance shape **no further heap
//! allocation happens**: FTBAR pressure sweeps, bicriteria ε-searches and
//! experiment grids that reschedule thousands of times touch the
//! allocator exactly once. The root `tests/alloc_counter.rs` suite pins
//! this with a counting global allocator.
//!
//! # Reuse contract
//!
//! * Every buffer is `clear()`-then-`resize()`d at run start — never
//!   reallocated while its capacity suffices. Growing to a *larger*
//!   instance allocates once and then plateaus again.
//! * The produced [`Schedule`] stays owned by the workspace; `run_into`
//!   returns `&Schedule`. Clone it (or [`ScheduleWorkspace::take_schedule`])
//!   to keep it beyond the next run. After a run that returned `Err`, the
//!   workspace's schedule is not a result: its replicas are partial and
//!   its per-processor order is the previous run's.
//! * The per-processor order is written once per run. Every placement
//!   appends `(task, replica index)` to a placement log, and the run's
//!   end sorts the log by processor (a stable counting sort) into the
//!   schedule's CSR order. Nothing reads the order during a run.
//! * MC-FTSA's steady state is allocation-free too, for both selectors:
//!   the greedy scratch and the bottleneck selector's binary-search
//!   working set (thresholds, residual CSR adjacency, Hopcroft–Karp
//!   buffers) live here and are reused run over run.
//!
//! When adding a new policy to the pipeline, route any per-step storage
//! through a field here (cleared in `ScheduleWorkspace::prepare`)
//! instead of allocating in the loop — that keeps the allocator test
//! green and the hot path flat.

use crate::levels::AverageCosts;
use crate::schedule::{Replica, Schedule};
use ftcollections::OrdF64;
use matching::{BipartiteGraph, BottleneckScratch, GreedyScratch};
use platform::Instance;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use taskgraph::TaskId;

/// Incremental state of FTBAR's heap-driven schedule-pressure
/// selection: per free task, the eq. (1) arrival row and the
/// σ-selection are cached, a lazy max-heap over `(raw urgency, token)`
/// keys orders the stable tasks, and only invalidated tasks whose
/// urgency *upper bound* reaches the selection front are re-evaluated.
///
/// Every free task is in exactly one of four *families*, all sharing
/// one [`epoch`](Self::epoch) array, so a single bump moves a task
/// between families in O(1) (stale heap entries die lazily):
///
/// * **clean** — its cached row, σ-set and urgency are the exact values
///   the reference sweep would compute *right now*, and the σ-set is
///   *stable*: every selected start strictly exceeds its processor's
///   ready time. It holds one [`heap`](Self::heap) entry keyed
///   `(raw urgency, token)` and one guard per cached σ processor in
///   [`guards`](Self::guards), armed at the cached start. Clean tasks
///   cost **nothing** per step; a ready time advancing past a guard
///   fires it once (strictly, matching the reference's `ready > start`
///   test) and demotes the task to **hot**.
/// * **hot** — ready-dominated rivals whose arrivals are still in play,
///   in the plain [`hot`](Self::hot) vec with *no* heap entries. Each
///   step pays a 6-flop urgency upper bound per hot task
///   (`max_i max(cached startᵢ, ready(σᵢ)) + s(t) − R(n−1)`, sound
///   because cached starts only over-estimate and σ ready times bound
///   the rest); tasks whose bound ties-or-beats the clean top run an
///   exact `(ε+1)`-th-smallest pre-check on the cached row, and only
///   qualifying tasks pay the full `O(m·(ε+1))` evaluation.
/// * **fully ready-dominated (FRD)** — max arrival ≤ min ready time at
///   a fresh fold: the exact urgency `rd₍ε₊₁₎ + s(t) − R(n−1)` no
///   longer depends on the arrival row, so the task sits in the
///   [`frd`](Self::frd) heap keyed by its fold-time `s(t)` and
///   qualification pops as a *prefix* (the bound is monotone in `s`).
///   The class is absorbing — ready times only grow, arrival rows only
///   shrink — and absorbs the bulk of a wide frontier. Its tasks are
///   ranked by that urgency and never evaluated; their cached σ sets
///   are not kept, and a winner's is derived from the ready times.
/// * **lazy** — its 6-flop *bound* lost a hot sweep: parked in the
///   [`dstat`](Self::dstat) heap (keyed by cached raw urgency) and one
///   [`dproc`](Self::dproc)`[j]` heap per cached σ processor (keyed
///   `s(t)`), resurfacing only when a bound part reaches the selection
///   front. Since `x ↦ fl(fl(x + s) − r)` is weakly monotone, the
///   tasks whose bound reaches any threshold form a prefix of each
///   heap's order; only the `m + 3` heap *tops* are inspected per step.
///
/// A predecessor gaining a replica can only *decrease* the arrival row
/// (the PR 3/4 cache invariant), so the cached urgency stays a valid
/// static upper bound; the task is flagged [`stale`](Self::stale) (row
/// refold required on evaluation) and demoted to hot. A non-clean task
/// re-enters the clean family only through a full re-evaluation (row
/// refold if stale + `O(m · (ε+1))` σ-selection) that lands stable —
/// exactly the tasks the PR 8 two-pass scan re-evaluated, but found in
/// `O(log)` per evaluation instead of an `O(free)` sweep, and about 1.4
/// per step in the large-v regime.
///
/// Everything is keyed by *r_len-free raw urgencies* (`start + s(t)`,
/// without the `− R(n−1)` term): the current `R(n−1)` is subtracted at
/// comparison time, reproducing the exhaustive sweep's float comparisons
/// and token tie-breaks — see `select_next` in the pipeline.
#[derive(Debug, Default)]
pub(crate) struct PressureCache {
    /// Cached per-task arrival rows (flat, stride = `m`): exact between
    /// [`stale`](Self::stale) events, never read before the first one.
    pub row: Vec<f64>,
    /// Cached σ-set processors, `replicas` entries per task (flat,
    /// stride = `ε + 1`), in σ order.
    pub proc: Vec<u32>,
    /// Cached start times aligned with [`proc`](Self::proc)
    /// (`max(arrival, ready_lb)` at cache time); `+∞` until the task's
    /// first evaluation, which makes the urgency upper bound vacuous for
    /// never-evaluated tasks.
    pub start: Vec<f64>,
    /// Cached raw urgency per task: `(ε+1)`-th smallest start `+ s(t)`,
    /// *without* the `− R(n−1)` term (subtracted fresh each step).
    pub urgency: Vec<f64>,
    /// Tasks whose arrival row changed (or that never were evaluated):
    /// row fold + σ re-selection required. `stale ⊆ dirty`.
    pub stale: Vec<bool>,
    /// Tasks in the *dirty* family (bound-tracked, evaluation
    /// deferred); cleared by re-evaluation. Clean tasks' main-heap keys
    /// are exact.
    pub dirty: Vec<bool>,
    /// Whether the task is free (released, not yet selected) — gates
    /// the dup-invalidation path, which must not resurrect the task
    /// being placed or still-waiting successors.
    pub in_free: Vec<bool>,
    /// Per-task entry epoch; bumping tombstones every outstanding entry
    /// of the task across *all* heaps below at once (see [`Tombstoned`](crate::epoch_heap::Tombstoned)).
    pub epoch: Vec<u32>,
    /// Clean-family max-heap over `(exact raw urgency, token)`.
    pub heap: BinaryHeap<((OrdF64, u64), u32, u32)>,
    /// Per-processor guard min-queues keyed by the cached σ start:
    /// a clean task's guard on processor `j` fires when `ready_lb[j]`
    /// moves strictly past it, demoting the task to the dirty family.
    pub guards: Vec<BinaryHeap<(Reverse<OrdF64>, u32, u32)>>,
    /// Dirty-family max-heap over the *static* bound part — the cached
    /// raw urgency (`max_i startᵢ + s(t)`; `+∞` for never-evaluated
    /// tasks, which therefore always qualify for evaluation).
    pub dstat: BinaryHeap<(OrdF64, u32, u32)>,
    /// Dirty-family per-processor max-heaps over `s(t)`, one entry per
    /// cached σ processor: the dynamic bound part `ready_j + s(t)` is
    /// monotone in the key, so qualifying tasks are a heap prefix.
    pub dproc: Vec<BinaryHeap<(OrdF64, u32, u32)>>,
    /// The *hot* subset of the dirty family: frontier rivals whose σ
    /// starts ride the advancing ready times. They hold **no** heap
    /// entries; each selection re-checks their bound with the six-flop
    /// PR 8 expression and either evaluates them (bound qualifies),
    /// keeps them hot (evaluated but still ready-dominated), or sinks
    /// them into `dstat`/`dproc` (bound lost — not competitive). This
    /// keeps the eval ↔ invalidation cycle of competitive tasks free of
    /// heap traffic.
    pub hot: Vec<u32>,
    /// *Fully ready-dominated* dirty tasks: every cached arrival is at
    /// most every current ready time (witnessed by
    /// `max_j arrival_j ≤ min_j ready_j` at a fresh fold), so every
    /// per-processor score is `ready_j + s(t)` and the exact urgency is
    /// `rd₍ε+1₎ + s(t) − R(n−1)` — the `(ε+1)`-th smallest ready time
    /// plus the task size, *independent of the task's arrivals*. The
    /// class is absorbing (ready times only grow, arrivals only
    /// shrink), so one max-heap entry keyed `s(t)` serves until the
    /// task wins: the per-step qualification `rd₍ε+1₎ + s − R ≥ bu` is
    /// monotone in `s`, making qualifiers a heap prefix — the bulk of
    /// the frontier rivals cost nothing per step.
    pub frd: BinaryHeap<(OrdF64, u32, u32)>,
    /// Per-step scratch: fully-ready-dominated tasks ranked this step,
    /// re-pushed into [`frd`](Self::frd) after the drain (re-pushing
    /// mid-loop would pop them again — their exact urgency qualifies
    /// against itself).
    pub requeue: Vec<u32>,
    /// Number of free (released, unselected) tasks — the heap path's
    /// replacement for the reference sweep's free list length.
    pub free_len: usize,
    /// Per-step scratch: entries popped during selection that did not
    /// win, re-pushed after the winner is known (re-pushing mid-loop
    /// could re-pop them within the same step).
    pub popped: Vec<(u32, (OrdF64, u64))>,
    /// Per-step scratch: parents duplicated by the Ahmad–Kwok pass this
    /// step (their successors' arrival rows changed → mark stale).
    pub dups: Vec<TaskId>,
    /// Run counters (reset per run): selection steps, full σ
    /// re-evaluations, guard firings — the terms of the heap path's
    /// `O(evals · m + fires)` cost model, exposed for diagnostics.
    pub stats: PressureStats,
}

/// Work counters of one heap-driven pressure run; see
/// [`PressureCache::stats`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PressureStats {
    /// Selection steps taken.
    pub steps: u64,
    /// Full σ re-evaluations (row folds counted separately via
    /// [`PressureStats::folds`]). A fully-ready-dominated task is ranked
    /// without one, and deriving an FRD winner's σ set is not one either.
    pub evals: u64,
    /// Guard firings (clean → dirty demotions from ready advances).
    pub fires: u64,
    /// Arrival-row refolds (the `O(preds · m)` tier).
    pub folds: u64,
}

impl PressureCache {
    /// Clears and resizes every buffer for a run over `v` tasks on `m`
    /// processors at `replicas = ε + 1` — reusing capacity, so
    /// steady-state reruns allocate nothing (guard queues are kept when
    /// `m` shrinks and only grown when it grows). All tasks start
    /// non-stale; the pipeline marks tasks stale/dirty as they enter the
    /// free list.
    pub fn reset(&mut self, v: usize, replicas: usize, m: usize) {
        self.row.clear();
        self.row.resize(v * m, 0.0);
        self.proc.clear();
        self.proc.resize(v * replicas, 0);
        self.start.clear();
        self.start.resize(v * replicas, f64::INFINITY);
        self.urgency.clear();
        self.urgency.resize(v, 0.0);
        self.stale.clear();
        self.stale.resize(v, false);
        self.dirty.clear();
        self.dirty.resize(v, false);
        self.in_free.clear();
        self.in_free.resize(v, false);
        self.epoch.clear();
        self.epoch.resize(v, 0);
        self.heap.clear();
        if self.guards.len() < m {
            self.guards.resize_with(m, BinaryHeap::new);
        }
        for g in &mut self.guards {
            g.clear();
        }
        self.dstat.clear();
        if self.dproc.len() < m {
            self.dproc.resize_with(m, BinaryHeap::new);
        }
        for g in &mut self.dproc {
            g.clear();
        }
        self.hot.clear();
        self.frd.clear();
        self.requeue.clear();
        self.free_len = 0;
        self.popped.clear();
        self.dups.clear();
        self.stats = PressureStats::default();
    }
}

/// Owns every buffer a [`crate::pipeline::ListScheduler`] run needs, so
/// repeated runs are allocation-free. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ScheduleWorkspace {
    /// The output schedule (arenas reused across runs).
    pub(crate) sched: Schedule,
    /// Engine: the run's placements as `(task, replica index)`, in
    /// placement order (see the [module docs](self)).
    pub(crate) log: Vec<(TaskId, u32)>,
    /// Engine: optimistic per-processor ready times.
    pub(crate) ready_lb: Vec<f64>,
    /// Engine: pessimistic per-processor ready times.
    pub(crate) ready_ub: Vec<f64>,
    /// Engine: flat per-(edge, processor) optimistic arrival cache.
    pub(crate) arrive_lb: Vec<f64>,
    /// Average execution / delay costs (`Ē`, `d̄`).
    pub(crate) avg: AverageCosts,
    /// Static bottom levels `bℓ`.
    pub(crate) bl: Vec<f64>,
    /// Unscheduled-predecessor counts.
    pub(crate) waiting_preds: Vec<u32>,
    /// Ranked free list `α`: a max-heap of `(priority, random tie
    /// token, task)`, each free task pushed once, when it is released.
    pub(crate) alpha: BinaryHeap<(OrdF64, u64, u32)>,
    /// Dynamic top levels `tℓ`.
    pub(crate) tl: Vec<f64>,
    /// The reference pressure sweep's plain free list.
    pub(crate) free: Vec<TaskId>,
    /// Random urgency tie-break tokens for the pressure sweep.
    pub(crate) token: Vec<u64>,
    /// Incremental schedule-pressure state (cached σ-selections + dirty
    /// tracking); sized by the pressure seeding step, cleared here.
    pub(crate) pressure: PressureCache,
    /// Per-processor arrival-row scratch (see
    /// [`crate::engine`]'s row-major arrival fold).
    pub(crate) row: Vec<f64>,
    /// Per-step chosen `(processor, score)` set.
    pub(crate) chosen: Vec<(usize, f64)>,
    /// Pressure-sweep candidate buffer (per free task).
    pub(crate) sweep: Vec<(usize, f64)>,
    /// Per-step plain processor list.
    pub(crate) procs: Vec<usize>,
    /// Matched placement: per-destination-replica arrival times.
    pub(crate) arrival: Vec<f64>,
    /// Matched placement: sender replicas of the current predecessor.
    pub(crate) senders: Vec<Replica>,
    /// Matched placement: the Section 4.2 bipartite graph.
    pub(crate) graph: BipartiteGraph,
    /// Matched placement: forced internal pairs.
    pub(crate) forced: Vec<(usize, usize)>,
    /// Matched placement: selected pairs of the current predecessor.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Greedy selector scratch.
    pub(crate) greedy: GreedyScratch,
    /// Bottleneck selector scratch (binary search + Hopcroft–Karp).
    pub(crate) bottleneck: BottleneckScratch,
}

impl ScheduleWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// run.
    pub fn new() -> Self {
        Self::default()
    }

    /// The schedule produced by the most recent run.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Moves the most recent schedule out, leaving an empty one behind
    /// (the next run then re-grows the arenas — use [`Clone`] on
    /// [`ScheduleWorkspace::schedule`] instead to stay allocation-free).
    pub fn take_schedule(&mut self) -> Schedule {
        std::mem::take(&mut self.sched)
    }

    /// Resets every buffer for a run over `inst` at `epsilon`, reusing
    /// capacity. Also recomputes the average costs and bottom levels.
    ///
    /// `floors` seeds the per-processor ready times from a persistent
    /// occupancy state (see [`crate::schedule_onto`]): processor `j`
    /// starts at `floors[j]` instead of `0.0`. `None` — or all-zero
    /// floors — is bit-identical to the historical empty-platform run.
    pub(crate) fn prepare(&mut self, inst: &Instance, epsilon: usize, floors: Option<&[f64]>) {
        let dag = &inst.dag;
        let v = dag.num_tasks();
        let m = inst.num_procs();
        self.sched.reset(v, epsilon);
        self.log.clear();
        self.ready_lb.clear();
        self.ready_ub.clear();
        match floors {
            Some(f) => {
                assert_eq!(f.len(), m, "occupancy floors must cover all processors");
                self.ready_lb.extend_from_slice(f);
                self.ready_ub.extend_from_slice(f);
            }
            None => {
                self.ready_lb.resize(m, 0.0);
                self.ready_ub.resize(m, 0.0);
            }
        }
        self.arrive_lb.clear();
        self.arrive_lb.resize(dag.num_edges() * m, f64::INFINITY);
        self.avg.fill(inst);
        crate::levels::bottom_levels_into(inst, &self.avg, &mut self.bl);
        self.waiting_preds.clear();
        self.waiting_preds
            .extend((0..v as u32).map(|t| dag.in_degree(TaskId(t)) as u32));
        self.alpha.clear();
        self.tl.clear();
        self.tl.resize(v, 0.0);
        self.free.clear();
        self.token.clear();
        self.token.resize(v, 0);
        self.pressure.dups.clear();
        self.row.clear();
        self.chosen.clear();
        self.sweep.clear();
        self.procs.clear();
        self.arrival.clear();
        self.senders.clear();
        self.forced.clear();
        self.pairs.clear();
    }
}
