//! The unified list-scheduling pipeline.
//!
//! FTSA, MC-FTSA and FTBAR are all instances of one loop — *select a
//! free task, pick `ε + 1` processors, place replicas, refresh
//! successors* — differing only along three orthogonal axes:
//!
//! | axis | options | paper origin |
//! |------|---------|--------------|
//! | [`PriorityAxis`] | criticalness `tℓ + bℓ` / static `bℓ` / schedule pressure σ | FTSA §4.1 vs FTBAR |
//! | [`PlacementAxis`] | `ε+1` best-finish (eq. 1) / minimize-start-time (± duplication) | FTSA vs Ahmad–Kwok MST |
//! | [`CommAxis`] | all-to-all / robust one-to-one matching | FTSA vs MC-FTSA §4.2 |
//!
//! A [`ListScheduler`] is one point in that 3×2×2+ grid; the public
//! [`Algorithm`](crate::Algorithm) variants are named configurations
//! (see [`Algorithm::scheduler`](crate::Algorithm::scheduler)), and new
//! cross-combinations — pressure-driven FTSA, FTBAR with matched
//! communications — are one-liners rather than a fourth copy of the
//! loop. There are exactly two ways to run the loop:
//! [`crate::schedule()`] / [`crate::schedule_into`] /
//! [`crate::schedule_onto`] with an [`Algorithm`](crate::Algorithm)
//! for the named configurations, and `ListScheduler::new(priority,
//! placement, comm)` for any other axis triple.
//!
//! # Matched communications (MC-FTSA, Section 4.2)
//!
//! Replicating every task `ε + 1` times is mandatory to resist `ε`
//! failures, but duplicating every precedence edge `(ε + 1)²` times is
//! not. Under [`CommAxis::Matched`] the placement step keeps its
//! processor selection and then, for every predecessor `t'` of the
//! freshly mapped task `t`, picks a *robust* one-to-one communication
//! set between `A(t')` (the processors running `t'`) and `A(t)`:
//!
//! * a processor in `A(t') ∩ A(t)` communicates **only with itself**
//!   (a forced internal edge — the proof of Proposition 4.3 needs it);
//! * the remaining senders and receivers are matched one-to-one,
//!   minimizing completion times, by the [`Selector`]: greedy (the
//!   paper's experiments) or the bottleneck-optimal binary search.
//!
//! The message count drops from `e(ε+1)²` to `e(ε+1)`, at a small
//! latency cost. Each replica then has a *single* sender per
//! predecessor, so its start and finish times are deterministic and the
//! optimistic and pessimistic timelines coincide.
//!
//! # Zero-allocation steady state
//!
//! Every buffer the loop touches lives in a
//! [`ScheduleWorkspace`]:
//! [`ListScheduler::run_into`] resets and refills it in place, so
//! repeated scheduling (pressure sweeps, bicriteria searches, experiment
//! grids) allocates nothing after the first run — see the workspace
//! module docs for the reuse contract. [`ListScheduler::run`] is the
//! convenience form that builds a throwaway workspace.
//!
//! # Registering a new policy
//!
//! 1. Add a variant to the relevant axis enum below.
//! 2. Implement it in the *one* `match` that consumes the axis
//!    (`select_next` for priorities, `choose_procs` for placements,
//!    `place_replicas` for comm policies) — the compiler's
//!    exhaustiveness check lists every site. Route any per-step storage
//!    through a workspace field, not a fresh allocation.
//! 3. Optionally name the combination: add an [`crate::Algorithm`]
//!    variant, wire `scheduler()` / `name()` / `FromStr`, and append it
//!    to [`crate::Algorithm::ALL`] so the CLI, the experiment axes and
//!    the property suite pick it up automatically.
//!
//! # Bit-identity contract
//!
//! For the four paper configurations this pipeline reproduces the seed
//! implementations byte for byte (see `tests/golden.rs`): every
//! floating-point expression is evaluated in the same form and the RNG
//! is consulted in the same order. Treat any change to the loop
//! structure, the fold expressions in `engine.rs` or the RNG
//! discipline as a semantic change that must be justified against the
//! golden suite.
//!
//! # Schedule pressure (FTBAR)
//!
//! [`PriorityAxis::Pressure`] is FTBAR's cost function (Girault, Kalla,
//! Sighireanu and Sorel, DSN 2003). At step `n`, for a free task `t_i`
//! on processor `p_j`:
//!
//! ```text
//! σ(n)(t_i, p_j) = S(n)(t_i, p_j) + s(t_i) − R(n−1)
//! ```
//!
//! where `S(n)` is the earliest start time of `t_i` on `p_j` given the
//! partial schedule, `s(t_i)` the static bottom-up latest start time
//! (computed as the average-cost bottom level, like FTSA's `bℓ`), and
//! `R(n−1)` the current schedule length. Each free task keeps the
//! `ε + 1` processors minimizing σ; the step selects the *most urgent*
//! task — the one whose best-σ set has the largest pressure — ties
//! broken randomly.
//!
//! Fidelity note: the paper's sketch leaves `S(n)` under replication
//! ambiguous. The selection metric uses the optimistic earliest start
//! (min over predecessor replicas, like equation 1), and the
//! pessimistic timeline is tracked separately, mirroring how the paper
//! reports both FTBAR-LowerBound and FTBAR-UpperBound curves.
//!
//! # Heap-driven schedule pressure
//!
//! The naive [`PriorityAxis::Pressure`] step re-evaluates eq. (1) for
//! *every* free task × *every* processor — `O(free · (preds + ε) · m)`
//! per step, the dominant cost of every FTBAR run. The incremental
//! engine caches, per free task, the eq. (1) arrival row *and* the
//! σ-selection in the workspace's `PressureCache`
//! (arrival mins only **decrease**, and only when a predecessor gains a
//! replica; per-processor ready times only **advance**), but even a
//! cached sweep still touches every free task every step — super-linear
//! in v once the frontier is thousands of tasks wide.
//!
//! The production path therefore never sweeps. Free tasks live in one
//! of four *families*, each paying exactly the per-step cost its
//! volatility warrants, with membership tracked through the shared
//! tombstone/epoch discipline of [`ftcollections::EpochHeap`]:
//!
//! * **clean** — cached σ-set *stable*: every selected start strictly
//!   exceeds its processor's ready time. The task sits in the lazy max-
//!   heap keyed `(raw urgency, token)`, plus one min-heap *guard* per
//!   σ-processor armed at its cached start. Zero per-step cost; when a
//!   ready time advances past a guard, the guard fires once and demotes
//!   the task (epoch bump invalidates every heap entry in O(1)).
//! * **hot** — a plain vec of ready-dominated rivals whose arrivals are
//!   still in play. Each step pays a 6-flop urgency upper bound; only
//!   tasks whose bound ties-or-beats the clean top's urgency run the
//!   exact `(ε+1)`-th-smallest pre-check, and only *qualifying* tasks
//!   re-run the full `O(m·(ε+1))` [`select_smallest_into`] evaluation.
//! * **fully ready-dominated (FRD)** — tasks whose max arrival is ≤ the
//!   min ready time: their exact urgency is `rd₍ε₊₁₎ + s(t) − R(n−1)`,
//!   independent of arrivals, so they sit in a heap keyed by their fold
//!   timestamp and qualify as a prefix pop (the bound is monotone in
//!   `s`). The class is absorbing — ready times only grow and arrival
//!   rows only shrink — which is what turns a frontier of tens of
//!   thousands of rivals into about 1.4 evaluations per step at
//!   v = 100k. An FRD task is never evaluated: for it every σ start is
//!   its processor's ready time, since `a_j ≤ amax ≤ rdmin ≤ rd_j`, so
//!   its score on `p_j` is `fl(fl(rd_j + s) − r)`, and the `(ε+1)`-th
//!   smallest of those is that function of `rd₍ε₊₁₎` (the function is
//!   weakly monotone, and order statistics commute with it) — the very
//!   value the FRD drain qualifies on. The drain ranks qualifiers by it
//!   and requeues them untouched; an evaluation that finds a fresh row
//!   fully ready-dominated stops there, before the σ selection; and
//!   only the step's winner, if it is FRD, gets its σ set, from one
//!   selection over `(rd_j + s) − r`, the reference's scores.
//! * **lazy** — tasks whose *bound* lost: parked in urgency- and
//!   start-keyed overflow heaps, resurfacing only when the losing bound
//!   itself becomes competitive.
//!
//! Selection stays bit-for-bit identical to the exhaustive sweep. Raw
//! urgencies are cached *without* the `− R(n−1)` term and the current
//! `R(n−1)` is subtracted fresh at comparison time, so every float
//! comparison and token tie-break is the very one the naive loop
//! performs; order statistics commute with the (weakly monotone)
//! subtraction, so heap keys in the raw domain rank identically; and
//! every prune is by *sound* bound or *exact* value, so a skipped task
//! can never have been the unique max of `(σ, token)` — the only thing
//! the step observes. The naive loop survives as
//! [`ListScheduler::run_into_reference_pressure`], a debug-assert
//! exhaustive cross-check as `run_into_xcheck_pressure`, and a proptest
//! oracle (`tests/pressure_incremental.rs`) pins the equivalence across
//! random DAG families, ε values and seeds; the golden suite pins it
//! against the seed implementations.
//!
//! Composition rule: [`CommAxis::Matched`] disables the duplication half
//! of [`PlacementAxis::MinStart`]. Matched schedules give every replica
//! a *unique* sender per predecessor (Proposition 4.3); minimize-start-
//! time duplication exploits all-to-all first-arrival semantics, and the
//! one-to-one structure of eq. (5) validation has no slot for extra
//! sender replicas.

use crate::engine::Engine;
use crate::error::ScheduleError;
use crate::schedule::{CommSelection, Replica, Schedule};
use crate::workspace::{PressureCache, ScheduleWorkspace};
use ftcollections::{select_smallest_into, OrdF64};
use matching::{
    bottleneck_matching_into, greedy_matching_into, BipartiteGraph, BottleneckScratch,
    GreedyScratch,
};
use platform::Instance;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use taskgraph::TaskId;

/// How the next free task is selected (the `H(α)` of Section 4.1, or
/// FTBAR's most-urgent sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityAxis {
    /// The paper's *criticalness* `tℓ(t) + bℓ(t)`: dynamic top level
    /// (refreshed as predecessors land) plus static bottom level.
    Criticalness,
    /// Static bottom level only (a HEFT-style upward rank): cheaper to
    /// maintain but blind to where predecessors actually landed.
    BottomLevel,
    /// FTBAR's *schedule pressure*: every step sweeps all free tasks and
    /// picks the pair maximizing `σ(t, P) = S(t, P) + s(t) − R(n−1)`
    /// over each task's best `ε + 1` processors. The sweep also yields
    /// the processor set, which [`PlacementAxis::MinStart`] reuses.
    Pressure,
}

/// How the `ε + 1` hosting processors are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementAxis {
    /// The `ε + 1` processors minimizing the eq. (1) candidate finish
    /// time (FTSA's rule).
    BestFinish,
    /// The `ε + 1` processors minimizing the start time; with
    /// `duplicate`, each placement first runs the Ahmad–Kwok
    /// minimize-start-time pass (FTBAR's rule), duplicating the
    /// arrival-critical parent when that strictly lowers the start.
    /// Under [`PriorityAxis::Pressure`] the processor set from the σ
    /// sweep is reused instead of being recomputed.
    MinStart {
        /// Run the minimize-start-time duplication pass.
        duplicate: bool,
    },
}

/// How replica-to-replica communications are orchestrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommAxis {
    /// Every source replica sends to every destination replica; start
    /// times follow the optimistic/pessimistic folds of eqs. (1)/(3).
    AllToAll,
    /// MC-FTSA's robust one-to-one matching per precedence edge
    /// (Section 4.2): `e(ε+1)` messages, deterministic per-replica
    /// times (the two timelines coincide).
    Matched(Selector),
}

/// Which robust-communication selector [`CommAxis::Matched`] uses
/// (Section 4.2 offers both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selector {
    /// Internal edges first, then non-decreasing weight order — the
    /// variant used in the paper's experiments.
    Greedy,
    /// Binary search on the bottleneck threshold with a Hopcroft–Karp
    /// feasibility oracle — the paper's polynomial optimal variant.
    Bottleneck,
}

/// One configuration of the unified pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListScheduler {
    /// Task-selection policy.
    pub priority: PriorityAxis,
    /// Processor-selection / duplication policy.
    pub placement: PlacementAxis,
    /// Communication policy.
    pub comm: CommAxis,
}

/// Which implementation drives [`PriorityAxis::Pressure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PressureImpl {
    /// The production path: lazy urgency max-heap + guard queues.
    Heap,
    /// The heap path with a per-step exhaustive-argmax cross-check
    /// (active in debug builds only) — the oracle suite drives this via
    /// `run_into_xcheck_pressure`, production never does.
    Checked,
    /// The exhaustive reference sweep of
    /// `run_into_reference_pressure`: every free task × every
    /// processor, every step.
    Reference,
}

impl PressureImpl {
    /// Whether this implementation maintains the heap + guard state.
    #[inline]
    fn uses_heap(self) -> bool {
        !matches!(self, PressureImpl::Reference)
    }

    /// Whether this implementation maintains the plain free list (the
    /// reference sweep iterates it; the checked path mirrors it for the
    /// exhaustive argmax).
    #[inline]
    fn uses_free_list(self) -> bool {
        !matches!(self, PressureImpl::Heap)
    }
}

/// Task-selection state operating on workspace buffers: the heap-backed
/// `α` of FTSA, or FTBAR's urgency heap (see the module docs).
enum SelKind {
    /// Priority-ranked free list `α`; the key is `(priority, random
    /// tie-break, task)`, so the heap head is exactly the paper's `H(α)`.
    /// Keys are unique, so the pop order depends on them alone.
    Ranked {
        /// Whether the priority is `tℓ + bℓ` (true) or `bℓ` alone.
        dynamic: bool,
    },
    /// FTBAR's sweep, driven by the lazy urgency max-heap (or the
    /// exhaustive reference loop — see [`PressureImpl`]).
    Pressure {
        /// Current schedule length `R(n−1)`.
        r_len: f64,
        /// Which pressure implementation runs.
        pimpl: PressureImpl,
    },
}

impl ListScheduler {
    /// Builds a pipeline configuration.
    pub fn new(priority: PriorityAxis, placement: PlacementAxis, comm: CommAxis) -> Self {
        ListScheduler {
            priority,
            placement,
            comm,
        }
    }

    /// Schedules `inst` tolerating `epsilon` fail-stop failures. `rng`
    /// drives random tie-breaking only.
    ///
    /// Builds a throwaway [`ScheduleWorkspace`]; batch callers should
    /// hold one and use [`ListScheduler::run_into`] instead.
    pub fn run(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
    ) -> Result<Schedule, ScheduleError> {
        self.run_with_deadlines(inst, epsilon, rng, None)
    }

    /// [`ListScheduler::run`] reusing the caller's workspace: after the
    /// first call on a given instance shape, scheduling performs **no**
    /// heap allocation — all configurations, both matched-communication
    /// selectors included. The schedule stays owned by the workspace —
    /// clone it to keep it past the next run.
    pub fn run_into<'w>(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        ws: &'w mut ScheduleWorkspace,
    ) -> Result<&'w Schedule, ScheduleError> {
        self.run_core(inst, epsilon, rng, None, None, PressureImpl::Heap, ws)?;
        Ok(&ws.sched)
    }

    /// [`ListScheduler::run_into`] on a *pre-occupied* platform: the
    /// eq. (1)/(3) placement queries start from the release floors (one
    /// per processor; a length mismatch panics) instead of time 0, so
    /// replica times come out in the stream's absolute clock. All-zero
    /// floors are bit-identical to [`ListScheduler::run_into`] (the
    /// golden suite's conservation contract). The produced schedule is
    /// *not* folded back into `floors` — callers decide which replicas
    /// actually occupy the platform.
    pub fn run_onto<'w>(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        floors: &[f64],
        ws: &'w mut ScheduleWorkspace,
    ) -> Result<&'w Schedule, ScheduleError> {
        let floors = Some(floors);
        self.run_core(inst, epsilon, rng, None, floors, PressureImpl::Heap, ws)?;
        Ok(&ws.sched)
    }

    /// [`ListScheduler::run`] with the Section 4.3 per-task deadline
    /// check: the run aborts with [`ScheduleError::DeadlineViolated`] as
    /// soon as a selected task cannot finish by its deadline on its
    /// chosen processors.
    pub(crate) fn run_with_deadlines(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        deadlines: Option<&[f64]>,
    ) -> Result<Schedule, ScheduleError> {
        let mut ws = ScheduleWorkspace::new();
        self.run_core(
            inst,
            epsilon,
            rng,
            deadlines,
            None,
            PressureImpl::Heap,
            &mut ws,
        )?;
        Ok(ws.take_schedule())
    }

    /// [`ListScheduler::run_into`] driving [`PriorityAxis::Pressure`]
    /// through the *exhaustive reference sweep* instead of the
    /// incremental cache — every free task × every processor, every
    /// step, exactly the pre-incremental loop. This is the oracle the
    /// proptest equivalence suite and the `scheduler/pressure-ref`
    /// bench series run against; it is not a production entry point.
    /// Configurations without a pressure axis behave exactly like
    /// [`ListScheduler::run_into`].
    #[doc(hidden)]
    pub fn run_into_reference_pressure<'w>(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        ws: &'w mut ScheduleWorkspace,
    ) -> Result<&'w Schedule, ScheduleError> {
        self.run_core(inst, epsilon, rng, None, None, PressureImpl::Reference, ws)?;
        Ok(&ws.sched)
    }

    /// [`ListScheduler::run_into`] with the heap-driven pressure path
    /// cross-checked per step against an exhaustive argmax recomputation
    /// (active in debug builds; a release build behaves exactly like
    /// [`ListScheduler::run_into`]). Only the proptest oracle suite
    /// drives this — production code never pays for the check.
    #[doc(hidden)]
    pub fn run_into_xcheck_pressure<'w>(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        ws: &'w mut ScheduleWorkspace,
    ) -> Result<&'w Schedule, ScheduleError> {
        self.run_core(inst, epsilon, rng, None, None, PressureImpl::Checked, ws)?;
        Ok(&ws.sched)
    }

    /// The workspace-reusing core: one loop, three axes, no allocation
    /// in the steady state. `deadlines` (when `Some`) aborts the run at
    /// the first task that misses its Section 4.3 deadline; `floors`
    /// (when `Some`) seeds the per-processor ready times from a
    /// persistent occupancy state (`None` is the empty-platform run);
    /// `pimpl` picks the pressure implementation (see [`PressureImpl`];
    /// every other axis is unaffected by it).
    #[allow(clippy::too_many_arguments)]
    fn run_core(
        &self,
        inst: &Instance,
        epsilon: usize,
        rng: &mut impl Rng,
        deadlines: Option<&[f64]>,
        floors: Option<&[f64]>,
        pimpl: PressureImpl,
        ws: &mut ScheduleWorkspace,
    ) -> Result<(), ScheduleError> {
        let m = inst.num_procs();
        if epsilon + 1 > m {
            return Err(ScheduleError::NotEnoughProcessors { epsilon, procs: m });
        }
        let dag = &inst.dag;
        let replicas = epsilon + 1;

        ws.prepare(inst, epsilon, floors);

        // The matched table is cleared and resized in place, ε + 1 slots
        // per edge, so MC-FTSA's steady state stays allocation-free.
        match (self.comm, &mut ws.sched.comm) {
            (CommAxis::AllToAll, comm) => *comm = CommSelection::AllToAll,
            (CommAxis::Matched(_), CommSelection::Matched(tbl)) => {
                tbl.clear();
                tbl.resize(dag.num_edges() * replicas, (0, 0));
            }
            (CommAxis::Matched(_), comm) => {
                *comm = CommSelection::Matched(vec![(0, 0); dag.num_edges() * replicas]);
            }
        }

        let ScheduleWorkspace {
            sched,
            log,
            ready_lb,
            ready_ub,
            arrive_lb,
            bl,
            waiting_preds,
            alpha,
            tl,
            free,
            token,
            pressure,
            row,
            chosen,
            sweep,
            procs,
            arrival,
            senders,
            graph,
            forced,
            pairs,
            greedy,
            bottleneck,
            ..
        } = ws;

        // Seed the free list with the entry tasks (consuming the RNG in
        // entry order, exactly as the seed implementations did).
        let mut sel = match self.priority {
            PriorityAxis::Criticalness | PriorityAxis::BottomLevel => {
                for &t in dag.entries() {
                    alpha.push((OrdF64::new(bl[t.index()]), rng.gen(), t.0));
                }
                SelKind::Ranked {
                    dynamic: matches!(self.priority, PriorityAxis::Criticalness),
                }
            }
            PriorityAxis::Pressure => {
                pressure.reset(dag.num_tasks(), replicas, m);
                if pimpl.uses_free_list() {
                    free.extend_from_slice(dag.entries());
                }
                for &t in dag.entries() {
                    token[t.index()] = rng.gen();
                    pressure.stale[t.index()] = true;
                    pressure.dirty[t.index()] = true;
                    if pimpl.uses_heap() {
                        // Never-evaluated tasks start hot: their cached
                        // σ starts are +∞, so the hot bound check is
                        // vacuously +∞ and they always qualify for
                        // their first evaluation, exactly like the
                        // reference's vacuous prune bound.
                        pressure.in_free[t.index()] = true;
                        pressure.hot.push(t.index() as u32);
                        pressure.free_len += 1;
                    }
                }
                SelKind::Pressure { r_len: 0.0, pimpl }
            }
        };

        let mut eng = Engine::new(inst, sched, log, ready_lb, ready_ub, arrive_lb);

        while let Some((t, suggested)) = select_next(
            &mut sel, &eng, alpha, free, token, pressure, bl, replicas, row, chosen, sweep,
        ) {
            // Processor set hosting t's primary replicas, as
            // `(processor, selection score)` pairs in `chosen` — the
            // score is the eq. (1) candidate finish under BestFinish and
            // the earliest start (or σ-sweep value) under MinStart.
            match self.placement {
                PlacementAxis::BestFinish => eng.best_procs_into(t, replicas, row, chosen),
                PlacementAxis::MinStart { .. } => {
                    if !suggested {
                        // The σ sweep (when present) already ordered the
                        // processors by start time; otherwise compute.
                        eng.arrival_row_lb(t, row);
                        select_smallest_into(m, replicas, |j| row[j].max(eng.ready_lb[j]), chosen);
                    }
                }
            }
            procs.clear();
            procs.extend(chosen.iter().map(|&(j, _)| j));

            // Section 4.3 feasibility: the worst guaranteed finish among
            // the selected processors must meet the task's deadline.
            // Best-finish placements already scored each processor with
            // its eq. (1) finish; other placements score by start time,
            // so the finish is derived on demand.
            if let Some(d) = deadlines {
                let worst = chosen
                    .iter()
                    .map(|&(j, score)| match self.placement {
                        PlacementAxis::BestFinish => score,
                        PlacementAxis::MinStart { .. } => eng.finish_candidate_lb(t, j),
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst > d[t.index()] + 1e-9 {
                    return Err(ScheduleError::DeadlineViolated {
                        task: t,
                        deadline: d[t.index()],
                        finish: worst,
                    });
                }
            }

            // Place the replicas under the comm policy. The placed
            // task's own outgoing-edge folds are deferred and flushed
            // once per step, edge-major (each succ row hot in cache for
            // all ε+1 replicas); duplicated parents fold immediately —
            // their new rows are read within the same step.
            match self.comm {
                CommAxis::AllToAll => {
                    let duplicate =
                        matches!(self.placement, PlacementAxis::MinStart { duplicate: true });
                    let track_dups = matches!(self.priority, PriorityAxis::Pressure);
                    for &j in procs.iter() {
                        if duplicate {
                            if let Some(p) = try_duplicate_critical_parent(&mut eng, t, j) {
                                if track_dups {
                                    pressure.dups.push(p);
                                }
                            }
                        }
                        eng.place_deferred(t, j);
                    }
                    eng.flush_out_edges(t);
                }
                CommAxis::Matched(selector) => place_matched(
                    &mut eng, t, procs, replicas, selector, arrival, senders, graph, forced, pairs,
                    greedy, bottleneck,
                ),
            }
            eng.sched.schedule_order.push(t);

            // Parents duplicated by the Ahmad–Kwok pass gained a
            // replica, so their successors' arrival rows decreased —
            // free tasks among them must re-run their row fold. A clean
            // task among them demotes to the hot set (arrival rows only
            // decrease, so its cached σ starts still bound its next
            // evaluation from above); already-dirty tasks just flip
            // stale. (The placed task's own successors cannot be free
            // yet — `in_free` gates them out; they enter hot fresh when
            // released below.)
            if !pressure.dups.is_empty() {
                let use_heap = matches!(&sel, SelKind::Pressure { pimpl, .. } if pimpl.uses_heap());
                let PressureCache {
                    dups,
                    stale,
                    dirty,
                    in_free,
                    epoch,
                    hot,
                    ..
                } = &mut *pressure;
                for &p in dups.iter() {
                    for &(s, _) in dag.succs(p) {
                        let si = s.index();
                        stale[si] = true;
                        if use_heap && in_free[si] && !dirty[si] {
                            dirty[si] = true;
                            epoch[si] = epoch[si].wrapping_add(1);
                            hot.push(si as u32);
                        }
                    }
                }
                dups.clear();
            }

            // Eager tier-2 detection: every processor that advanced its
            // ready time this step fires the guards armed below it,
            // demoting those clean tasks to the dirty family. All
            // placements — primaries, matched replicas and duplicates —
            // land on `procs`, so these are exactly the processors whose
            // ready times moved.
            if let SelKind::Pressure { pimpl, .. } = &sel {
                if pimpl.uses_heap() {
                    drain_ready_guards(&eng, pressure, procs);
                }
            }

            // Refresh successor priorities and release the ones that
            // became free.
            after_schedule(
                &mut sel,
                t,
                &eng,
                alpha,
                free,
                token,
                pressure,
                tl,
                bl,
                waiting_preds,
                rng,
            );
        }
        sched.order.rebuild(m, log, &sched.replicas);
        Ok(())
    }
}

/// Pops the next task. For the pressure sweep, `chosen` is additionally
/// filled with the selected processor set (ordered by σ, i.e. by start
/// time) and the returned flag is `true`.
#[allow(clippy::too_many_arguments)]
fn select_next(
    sel: &mut SelKind,
    eng: &Engine<'_>,
    alpha: &mut BinaryHeap<(OrdF64, u64, u32)>,
    free: &mut Vec<TaskId>,
    token: &mut [u64],
    pc: &mut PressureCache,
    s_latest: &[f64],
    replicas: usize,
    row: &mut Vec<f64>,
    chosen: &mut Vec<(usize, f64)>,
    sweep: &mut Vec<(usize, f64)>,
) -> Option<(TaskId, bool)> {
    match sel {
        SelKind::Ranked { .. } => {
            let (_, _, t) = alpha.pop()?;
            Some((TaskId(t), false))
        }
        SelKind::Pressure { r_len, pimpl } => {
            let m = eng.inst.num_procs();
            let r = *r_len;
            if matches!(pimpl, PressureImpl::Reference) {
                if free.is_empty() {
                    return None;
                }
                let fi = exhaustive_argmax(
                    eng,
                    free,
                    token,
                    s_latest,
                    replicas,
                    r,
                    row,
                    sweep,
                    Some(chosen),
                );
                return Some((free.swap_remove(fi), true));
            }
            // Heap-driven selection, three phases (see the workspace
            // docs for the clean/hot/lazy family invariants):
            //
            // **Hot sweep.** The pruning threshold starts at the clean
            // top's exact urgency (the max clean `σ`, since
            // `x ↦ fl(fl(x) − r)` is weakly monotone). Each hot task
            // gets the reference's six-flop prune bound
            // `max_i max(cs_i, rd_i) + s − R(n−1)` from its cached σ
            // set. Qualifiers re-evaluate exactly (row fold if stale +
            // σ re-selection) and raise the threshold; losers sink into
            // the lazy heaps, where they cost nothing per step until
            // their bound parts resurface. Evaluated tasks promote to
            // the clean heap only when *stable* (every σ start strictly
            // above its processor's ready time — a guard armed at the
            // frontier would fire on the very next placement);
            // ready-dominated rivals stay hot, so their eval ↔ fire
            // cycle never touches a heap.
            //
            // **FRD drain.** Fully-ready-dominated tasks whose exact
            // urgency reaches the threshold are a prefix of their heap;
            // they are ranked by that urgency without an evaluation.
            //
            // **Lazy drains.** Lazy tasks whose bound parts reach the
            // threshold are popped — qualifying tasks form a *prefix*
            // of each lazy heap's order (the key → bound-part mapping
            // is monotone) — and re-evaluated the same way. The
            // threshold only grows and keys only leave, so one pass
            // over the static heap and the `m` per-processor heaps is
            // complete: the argmax task's own bound part beats every
            // threshold, so it is always reached and evaluated (or
            // already clean).
            //
            // **Pick.** Every task that could win is now clean or was
            // ranked this step (evaluated, or FRD). The clean side's
            // winner is the main heap's top *tie group*: entries whose
            // `fl(raw − r)` all equal the top's (the `− r` subtraction
            // can collapse distinct raw keys, and the reference breaks
            // those ties by token). The group is popped, the max token
            // wins, and the losers are re-pushed after the loop
            // (re-pushing mid-loop would pop them again). That winner
            // then meets the best unpromoted candidate on `(σ, token)`.
            // `R(n−1)` is subtracted fresh everywhere, so every
            // comparison that runs is bitwise the reference sweep's, and
            // the winner — the unique argmax of `(σ, token)`, an
            // order-independent property — matches. Its σ set is the
            // cached one, or, for an FRD winner, derived from the ready
            // times.
            if pc.free_len == 0 {
                return None;
            }
            pc.stats.steps += 1;
            let cap = 2 * token.len() + 64;
            if pc.heap.raw_len() > cap {
                pc.heap.compact(&pc.epoch);
            }
            if pc.dstat.raw_len() > cap {
                pc.dstat.compact(&pc.epoch);
            }
            let mut bu: Option<f64> = pc.heap.peek(&pc.epoch).map(|(_, key)| key.0.get() - r);
            // Per-step ready-time order statistics: the minimum (the
            // fully-ready-dominated witness threshold) and the
            // `(ε+1)`-th smallest (every FRD task's exact σ slot).
            let rdmin = eng.ready_lb.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let (rdk, _) = kth_smallest_score(eng.ready_lb, eng.ready_lb, 0.0, 0.0, replicas, row);
            // Best `(σ, token, id, derived)` among tasks ranked this
            // step that are not clean — they hold no main-heap entries,
            // so the pick phase must see them through this channel.
            // `derived` marks an FRD task: its σ set is not cached and
            // is derived from the ready times if it wins.
            let mut cand: Option<(f64, u64, u32, bool)> = None;
            let offer = |cand: &mut Option<(f64, u64, u32, bool)>, u: f64, id: u32, derived| {
                let tok = token[id as usize];
                if cand.map_or(true, |(cu, ct, _, _)| u > cu || (u == cu && tok > ct)) {
                    *cand = Some((u, tok, id, derived));
                }
            };
            let mut evaluate = |pc: &mut PressureCache,
                                id: u32,
                                bu: &mut Option<f64>,
                                cand: &mut Option<(f64, u64, u32, bool)>|
             -> Disposition {
                let ti = id as usize;
                let disp = evaluate_pressure_task(
                    eng, pc, token, s_latest, replicas, m, ti, sweep, r, rdmin, rdk,
                );
                // fl(fl(start + s) − r): bitwise the reference σ.
                let u = pc.urgency[ti] - r;
                if bu.map_or(true, |b| u > b) {
                    *bu = Some(u);
                }
                if disp != Disposition::Clean {
                    offer(cand, u, id, disp == Disposition::Frd);
                }
                disp
            };
            // FRD drain: every fully-ready-dominated task's exact
            // urgency is `rd₍ε+1₎ + s − r`, monotone in its key `s`, so
            // qualifiers are a heap prefix, and a qualifier needs no
            // evaluation: the value is already exact (see
            // `evaluate_pressure_task`). Popped tasks re-enter after the
            // drain — their urgency qualifies against itself, so
            // re-pushing mid-loop would pop them forever. Their entries
            // stay live: no epoch bump, the same key.
            if pc.frd.raw_len() > cap {
                pc.frd.compact(&pc.epoch);
            }
            pc.requeue.clear();
            while let Some((id, key)) = pc
                .frd
                .pop_if(&pc.epoch, |k| bu.map_or(true, |b| (rdk + k.get()) - r >= b))
            {
                let u = (rdk + key.get()) - r;
                if bu.map_or(true, |b| u > b) {
                    bu = Some(u);
                }
                offer(&mut cand, u, id, true);
                pc.requeue.push(id);
            }
            while let Some(id) = pc.requeue.pop() {
                let ti = id as usize;
                pc.frd.push(id, pc.epoch[ti], OrdF64::new(s_latest[ti]));
            }
            let mut i = 0;
            while i < pc.hot.len() {
                let id = pc.hot[i];
                let ti = id as usize;
                debug_assert!(
                    pc.in_free[ti] && pc.dirty[ti],
                    "hot tasks are free and dirty"
                );
                let base = ti * replicas;
                let mut mstart = f64::NEG_INFINITY;
                for k in 0..replicas {
                    let cs = pc.start[base + k];
                    let rd = eng.ready_lb[pc.proc[base + k] as usize];
                    let ns = if rd > cs { rd } else { cs };
                    if ns > mstart {
                        mstart = ns;
                    }
                }
                let ub = (mstart + s_latest[ti]) - r;
                if bu.map_or(true, |b| ub >= b) {
                    // Exact pre-check: straight off the cached arrival
                    // row, the (ε+1)-th smallest score *value* over all
                    // processors — two running mins for ε = 1 — with no
                    // σ derivation and no cache writes. Pruning on it
                    // is sound (a strictly losing exact urgency cannot
                    // be the argmax) and exact, so only real contenders
                    // pay the full evaluation. Stale rows skip the
                    // check: the fold must run first. The same scan
                    // yields the max arrival, migrating tasks that
                    // became fully ready-dominated out of the hot vec.
                    let mut migrate = false;
                    let qualify = if pc.stale[ti] {
                        true
                    } else {
                        let rbase = ti * m;
                        let (u, amax) = kth_smallest_score(
                            &pc.row[rbase..rbase + m],
                            eng.ready_lb,
                            s_latest[ti],
                            r,
                            replicas,
                            row,
                        );
                        migrate = amax <= rdmin;
                        bu.map_or(true, |b| u >= b)
                    };
                    if qualify {
                        match evaluate(pc, id, &mut bu, &mut cand) {
                            Disposition::Hot => i += 1,
                            Disposition::Clean => {
                                pc.hot.swap_remove(i);
                            }
                            Disposition::Frd => {
                                pc.frd.push(id, pc.epoch[ti], OrdF64::new(s_latest[ti]));
                                pc.hot.swap_remove(i);
                            }
                        }
                    } else if migrate {
                        pc.frd.push(id, pc.epoch[ti], OrdF64::new(s_latest[ti]));
                        pc.hot.swap_remove(i);
                    } else {
                        i += 1;
                    }
                } else {
                    // Out-prioritized: sink into the lazy heaps. Hot
                    // tasks hold no live entries, so no epoch bump is
                    // needed before pushing at the current epoch.
                    let ep = pc.epoch[ti];
                    pc.dstat.push(id, ep, OrdF64::new(pc.urgency[ti]));
                    for k in 0..replicas {
                        pc.dproc[pc.proc[base + k] as usize].push(
                            id,
                            ep,
                            OrdF64::new(s_latest[ti]),
                        );
                    }
                    pc.hot.swap_remove(i);
                }
            }
            while let Some((id, _)) = pc
                .dstat
                .pop_if(&pc.epoch, |k| bu.map_or(true, |b| k.get() - r >= b))
            {
                match evaluate(pc, id, &mut bu, &mut cand) {
                    Disposition::Clean => {}
                    Disposition::Frd => {
                        pc.frd.push(
                            id,
                            pc.epoch[id as usize],
                            OrdF64::new(s_latest[id as usize]),
                        );
                    }
                    Disposition::Hot => pc.hot.push(id),
                }
            }
            for j in 0..m {
                if pc.dproc[j].raw_len() > cap {
                    pc.dproc[j].compact(&pc.epoch);
                }
                let rj = eng.ready_lb[j];
                while let Some((id, _)) =
                    pc.dproc[j].pop_if(&pc.epoch, |k| bu.map_or(true, |b| (rj + k.get()) - r >= b))
                {
                    match evaluate(pc, id, &mut bu, &mut cand) {
                        Disposition::Clean => {}
                        Disposition::Frd => {
                            pc.frd.push(
                                id,
                                pc.epoch[id as usize],
                                OrdF64::new(s_latest[id as usize]),
                            );
                        }
                        Disposition::Hot => pc.hot.push(id),
                    }
                }
            }
            pc.popped.clear();
            let mut wmain = pc.heap.pop(&pc.epoch);
            if let Some((mut gid, mut gkey)) = wmain {
                let gu = gkey.0.get() - r;
                while let Some((id, key)) = pc.heap.pop_if(&pc.epoch, |k| k.0.get() - r >= gu) {
                    debug_assert!(key.0.get() - r == gu, "heap order bounds ties from above");
                    if key.1 > gkey.1 {
                        pc.popped.push((gid, gkey));
                        gid = id;
                        gkey = key;
                    } else {
                        pc.popped.push((id, key));
                    }
                }
                wmain = Some((gid, gkey));
            }
            let (wid, derived) = match (wmain, cand) {
                (Some((mid, mkey)), Some((cu, ctok, cid, derived))) => {
                    let mu = mkey.0.get() - r;
                    if cu > mu || (cu == mu && ctok > mkey.1) {
                        // The clean group survives intact, top included.
                        pc.popped.push((mid, mkey));
                        (cid, derived)
                    } else {
                        (mid, false)
                    }
                }
                (Some((mid, _)), None) => (mid, false),
                (None, Some((_, _, cid, derived))) => (cid, derived),
                (None, None) => {
                    unreachable!("a free task is always clean or ranked this step")
                }
            };
            for &(id, key) in pc.popped.iter() {
                pc.heap.push(id, pc.epoch[id as usize], key);
            }
            pc.free_len -= 1;
            // The winner leaves its family: a clean winner's main entry
            // is already popped and the epoch bump kills its guards; a
            // hot winner (still dirty) leaves the hot vec; an FRD (or
            // just-lazy-evaluated) winner's entries die with the bump.
            let ti = wid as usize;
            if pc.dirty[ti] {
                if let Some(pos) = pc.hot.iter().position(|&x| x == wid) {
                    pc.hot.swap_remove(pos);
                }
            }
            pc.in_free[ti] = false;
            pc.epoch[ti] = pc.epoch[ti].wrapping_add(1);
            if derived {
                // An FRD winner's σ starts are the ready times, so its σ
                // set is the reference's selection over `(rd_j + s) − r`.
                let s = s_latest[ti];
                select_smallest_into(m, replicas, |j| (eng.ready_lb[j] + s) - r, chosen);
            } else {
                let base = ti * replicas;
                chosen.clear();
                for i in 0..replicas {
                    chosen.push((
                        pc.proc[base + i] as usize,
                        (pc.start[base + i] + s_latest[ti]) - r,
                    ));
                }
            }
            let t = TaskId(ti as u32);
            if pimpl.uses_free_list() {
                // Checked mode: mirror free list feeds the exhaustive
                // argmax cross-check (debug builds only).
                #[cfg(debug_assertions)]
                {
                    let xi = exhaustive_argmax(
                        eng, free, token, s_latest, replicas, r, row, sweep, None,
                    );
                    assert_eq!(
                        free[xi], t,
                        "heap-driven pressure selection diverged from the exhaustive argmax"
                    );
                }
                let fi = free
                    .iter()
                    .position(|&x| x == t)
                    .expect("checked free mirror contains the winner");
                free.swap_remove(fi);
            }
            Some((t, true))
        }
    }
}

/// The exhaustive `(σ, token)` argmax over the free list, FTBAR's
/// reference sweep: every free task re-runs the full σ-selection against
/// the current schedule length `r`. Returns the winner's index in
/// `free`; with `chosen` given, the winner's σ set is left there (the
/// two scratch buffers swap whenever the lead changes).
#[allow(clippy::too_many_arguments)]
fn exhaustive_argmax(
    eng: &Engine<'_>,
    free: &[TaskId],
    token: &[u64],
    s_latest: &[f64],
    replicas: usize,
    r: f64,
    row: &mut Vec<f64>,
    sweep: &mut Vec<(usize, f64)>,
    mut chosen: Option<&mut Vec<(usize, f64)>>,
) -> usize {
    let m = eng.inst.num_procs();
    let mut best: Option<(usize, f64, u64)> = None;
    for (fi, &t) in free.iter().enumerate() {
        eng.arrival_row_lb(t, row);
        select_smallest_into(
            m,
            replicas,
            |j| {
                let start = row[j].max(eng.ready_lb[j]);
                start + s_latest[t.index()] - r
            },
            sweep,
        );
        let urgency = sweep.last().expect("replicas >= 1").1;
        let tok = token[t.index()];
        let better = match &best {
            None => true,
            Some((_, u, bt)) => urgency > *u || (urgency == *u && tok > *bt),
        };
        if better {
            best = Some((fi, urgency, tok));
            if let Some(chosen) = chosen.as_deref_mut() {
                std::mem::swap(chosen, sweep);
            }
        }
    }
    best.expect("free list nonempty").0
}

/// Refreshes successor priorities after `t` was placed and releases the
/// successors that became free.
#[allow(clippy::too_many_arguments)]
fn after_schedule(
    sel: &mut SelKind,
    t: TaskId,
    eng: &Engine<'_>,
    alpha: &mut BinaryHeap<(OrdF64, u64, u32)>,
    free: &mut Vec<TaskId>,
    token: &mut [u64],
    pc: &mut PressureCache,
    tl: &mut [f64],
    bl: &[f64],
    waiting_preds: &mut [u32],
    rng: &mut impl Rng,
) {
    let inst = eng.inst;
    let dag = &inst.dag;
    match sel {
        SelKind::Ranked { dynamic } => {
            // Refresh successor top levels:
            //   tℓ(s) ≥ min_k { F(tᵏ) + V(t, s) · max_j d(P(tᵏ), P_j) }
            // (worst-case outgoing delay since s's processor is unknown
            // yet; min over replicas matches equation (1)'s optimistic
            // semantics).
            for &(s, eid) in dag.succs(t) {
                let vol = dag.volume(eid);
                let cand = eng
                    .sched
                    .replicas_of(t)
                    .iter()
                    .map(|r| r.finish_lb + vol * inst.platform.max_delay_from(r.proc.index()))
                    .fold(f64::INFINITY, f64::min);
                let si = s.index();
                tl[si] = tl[si].max(cand);
                waiting_preds[si] -= 1;
                if waiting_preds[si] == 0 {
                    let priority = if *dynamic { tl[si] + bl[si] } else { bl[si] };
                    alpha.push((OrdF64::new(priority), rng.gen(), s.0));
                }
            }
        }
        SelKind::Pressure { r_len, pimpl } => {
            *r_len = eng.current_length_lb();
            for &(s, _) in dag.succs(t) {
                let si = s.index();
                waiting_preds[si] -= 1;
                if waiting_preds[si] == 0 {
                    token[si] = rng.gen();
                    pc.stale[si] = true;
                    pc.dirty[si] = true;
                    if pimpl.uses_heap() {
                        // Released tasks enter hot with +∞ cached σ
                        // starts: their bound check is vacuous and they
                        // always qualify for their first evaluation.
                        pc.in_free[si] = true;
                        pc.hot.push(si as u32);
                        pc.free_len += 1;
                    }
                    if pimpl.uses_free_list() {
                        free.push(s);
                    }
                }
            }
        }
    }
}

/// Family a still-dirty task lands in after an exact evaluation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Stable σ: promoted to the clean heap, guards armed.
    Clean,
    /// Fully ready-dominated: one `frd` entry keyed `s(t)`.
    Frd,
    /// Ready-dominated with arrivals in play: stays in the hot vec.
    Hot,
}

/// The `k`-th smallest score *value* over all `m` processors, computed
/// from a (non-stale) cached arrival row with the reference's exact
/// float expression `max(arrival_j, ready_j) + s − r`, plus the row's
/// maximum arrival (the fully-ready-dominated witness). The score
/// equals the value [`select_smallest_into`] would report for the σ
/// slot (the order statistic of a multiset is order-independent, and
/// scores are never NaN), so comparing it against the pruning threshold
/// is the reference comparison — without deriving the σ set or touching
/// any cache. The `k = 2` path (ε = 1, every paper configuration's
/// default) is a branchless two-running-min scan the compiler can
/// vectorize.
#[inline]
fn kth_smallest_score(
    arow: &[f64],
    ready: &[f64],
    s: f64,
    r: f64,
    k: usize,
    scratch: &mut Vec<f64>,
) -> (f64, f64) {
    debug_assert!(k >= 1 && k <= arow.len());
    let mut amax = f64::NEG_INFINITY;
    match k {
        1 => {
            let mut m1 = f64::INFINITY;
            for (&a, &rd) in arow.iter().zip(ready) {
                amax = amax.max(a);
                m1 = m1.min((a.max(rd) + s) - r);
            }
            (m1, amax)
        }
        2 => {
            let mut m1 = f64::INFINITY;
            let mut m2 = f64::INFINITY;
            for (&a, &rd) in arow.iter().zip(ready) {
                amax = amax.max(a);
                let v = (a.max(rd) + s) - r;
                m2 = m2.min(m1.max(v));
                m1 = m1.min(v);
            }
            (m2, amax)
        }
        _ => {
            scratch.clear();
            for (&a, &rd) in arow.iter().zip(ready) {
                amax = amax.max(a);
                let v = (a.max(rd) + s) - r;
                if scratch.len() < k {
                    let at = scratch.partition_point(|w| w <= &v);
                    scratch.insert(at, v);
                } else if v < scratch[k - 1] {
                    scratch.pop();
                    let at = scratch.partition_point(|w| w <= &v);
                    scratch.insert(at, v);
                }
            }
            (scratch[k - 1], amax)
        }
    }
}

/// Re-evaluates a dirty free task exactly: re-runs the `O(preds · m)`
/// arrival row fold (stale tasks only) and bumps the task's epoch
/// (tombstoning any old entries everywhere). A row that is fully ready-
/// dominated (max arrival ≤ `rdmin`) ends there: the task's raw urgency
/// is `rdk + s` (see the module docs), the σ selection and the other
/// cache writes are skipped, and the task stays dirty as
/// [`Disposition::Frd`]. Otherwise the `O(m · (ε+1))` σ-selection runs.
/// If the fresh σ set is *stable* — every σ start strictly above its
/// processor's ready time — the task promotes to clean: the exact
/// `(raw urgency, token)` main key is pushed and one guard per σ
/// processor is armed at the cached start. A ready-dominated task stays
/// dirty and hot: arming its guards would just fire them on the next
/// placement over its σ procs, so the heap round trip is skipped
/// entirely. The caller does the push the returned [`Disposition`]
/// names; nothing is pushed here for a dirty task. The float expressions
/// match the reference sweep exactly, so the cached σ-set and urgency
/// are bitwise the values the exhaustive loop would compute.
#[allow(clippy::too_many_arguments)]
fn evaluate_pressure_task(
    eng: &Engine<'_>,
    pc: &mut PressureCache,
    token: &[u64],
    s_latest: &[f64],
    replicas: usize,
    m: usize,
    ti: usize,
    sweep: &mut Vec<(usize, f64)>,
    r: f64,
    rdmin: f64,
    rdk: f64,
) -> Disposition {
    let base = ti * replicas;
    let rbase = ti * m;
    if pc.stale[ti] {
        pc.stats.folds += 1;
        eng.arrival_row_lb_slice(TaskId(ti as u32), &mut pc.row[rbase..rbase + m]);
        pc.stale[ti] = false;
    }
    let arow = &pc.row[rbase..rbase + m];
    let amax = arow.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    pc.epoch[ti] = pc.epoch[ti].wrapping_add(1);
    if amax <= rdmin {
        // Fully ready-dominated: every start is its ready time, so the
        // urgency is `rd₍ε+1₎ + s`, and the σ set is derived only if
        // the task wins (the FRD family is absorbing).
        pc.dirty[ti] = true;
        pc.urgency[ti] = rdk + s_latest[ti];
        return Disposition::Frd;
    }
    pc.stats.evals += 1;
    select_smallest_into(
        m,
        replicas,
        |j| {
            let start = arow[j].max(eng.ready_lb[j]);
            start + s_latest[ti] - r
        },
        sweep,
    );
    let mut stable = true;
    for (i, &(j, _)) in sweep.iter().enumerate() {
        let start = arow[j].max(eng.ready_lb[j]);
        pc.proc[base + i] = j as u32;
        pc.start[base + i] = start;
        // `start == ready` means the very next placement on `j` would
        // fire this task's guard — don't promote, keep it dirty.
        if start <= eng.ready_lb[j] {
            stable = false;
        }
    }
    pc.urgency[ti] = pc.start[base + replicas - 1] + s_latest[ti];
    if stable {
        pc.dirty[ti] = false;
        let ep = pc.epoch[ti];
        pc.heap
            .push(ti as u32, ep, (OrdF64::new(pc.urgency[ti]), token[ti]));
        for i in 0..replicas {
            let j = pc.proc[base + i] as usize;
            pc.guards[j].push(ti as u32, ep, Reverse(OrdF64::new(pc.start[base + i])));
        }
        Disposition::Clean
    } else {
        pc.dirty[ti] = true;
        Disposition::Hot
    }
}

/// Eager tier-2 detection (the heap path's replacement for the
/// per-selection ready-time scan): each processor whose ready time
/// advanced this step pops every guard armed strictly below the new
/// ready time — the exact `ready > cached start` condition the
/// reference-equivalence argument needs — and demotes each fired task
/// to the hot set. Fires are cheap: one guard pop plus an epoch bump
/// (tombstoning the task's other entries); the hot bound check at the
/// next selection decides whether the task is still competitive or
/// sinks into the lazy heaps.
fn drain_ready_guards(eng: &Engine<'_>, pc: &mut PressureCache, procs: &[usize]) {
    let cap = 2 * pc.stale.len() + 64;
    for &j in procs {
        let rj = eng.ready_lb[j];
        if pc.guards[j].raw_len() > cap {
            pc.guards[j].compact(&pc.epoch);
        }
        while let Some((id, _)) = pc.guards[j].pop_if(&pc.epoch, |&Reverse(th)| th.get() < rj) {
            let ti = id as usize;
            pc.stats.fires += 1;
            pc.dirty[ti] = true;
            pc.epoch[ti] = pc.epoch[ti].wrapping_add(1);
            pc.hot.push(id);
        }
    }
}

/// Ahmad–Kwok Minimize-Start-Time (one level): if the start of `t` on
/// `j` is dominated by the arrival from one parent, and duplicating that
/// parent onto `j` would strictly lower the start, insert the duplicate.
/// Returns the duplicated parent (its successors' arrival rows just
/// decreased — pressure callers mark them stale).
fn try_duplicate_critical_parent(eng: &mut Engine<'_>, t: TaskId, j: usize) -> Option<TaskId> {
    let dag = &eng.inst.dag;

    let preds = dag.preds(t);
    if preds.is_empty() {
        return None;
    }
    // Arrival per parent (the cached optimistic edge fold) and the
    // critical one.
    let mut crit: Option<(TaskId, f64)> = None;
    let mut second = 0.0f64;
    for &(p, eid) in preds {
        let a = eng.edge_arrival_lb(eid, j);
        match crit {
            Some((_, ca)) if a > ca => {
                second = second.max(ca);
                crit = Some((p, a));
            }
            Some(_) => second = second.max(a),
            None => crit = Some((p, a)),
        }
    }
    let (p, crit_arrival) = crit.expect("nonempty preds");
    let old_start = crit_arrival.max(eng.ready_lb[j]);
    if old_start <= eng.ready_lb[j] + 1e-12 {
        return None; // the processor, not the parent, is the constraint
    }
    // Already collocated? Then the arrival is already communication-free.
    if eng.sched.replicas_of(p).iter().any(|r| r.proc.index() == j) {
        return None;
    }
    // Cost of running a duplicate of p on j, right now.
    let dup_finish = eng.inst.exec.time(p.index(), j) + eng.arrival_lb(p, j).max(eng.ready_lb[j]);
    let new_start = dup_finish.max(second);
    if new_start + 1e-12 < old_start {
        eng.place(p, j);
        return Some(p);
    }
    None
}

/// MC-FTSA's placement step (Section 4.2): per predecessor, select a
/// robust one-to-one communication set between the predecessor's
/// replicas and the destination processors, then place each replica
/// with its deterministic matched times (the two timelines coincide).
/// Each predecessor edge's pairs fill that edge's slots of the
/// schedule's matched table. All scratch comes from the workspace; with
/// either selector the step performs no allocation in steady state.
#[allow(clippy::too_many_arguments)]
fn place_matched(
    eng: &mut Engine<'_>,
    t: TaskId,
    procs: &[usize],
    replicas: usize,
    selector: Selector,
    arrival: &mut Vec<f64>,
    senders: &mut Vec<Replica>,
    g: &mut BipartiteGraph,
    forced: &mut Vec<(usize, usize)>,
    pairs: &mut Vec<(usize, usize)>,
    greedy: &mut GreedyScratch,
    bottleneck: &mut BottleneckScratch,
) {
    let inst = eng.inst;
    let dag = &inst.dag;

    // Per destination replica r (running on procs[r]), the arrival time
    // of each predecessor's data through the selected matching.
    arrival.clear();
    arrival.resize(replicas, 0.0);

    for &(p, eid) in dag.preds(t) {
        let vol = dag.volume(eid);
        senders.clear();
        senders.extend_from_slice(eng.sched.replicas_of(p));
        // Build the bipartite graph of Section 4.2.
        g.reset(senders.len(), replicas);
        forced.clear();
        for (k, srep) in senders.iter().enumerate() {
            let sp = srep.proc.index();
            if let Some(r) = procs.iter().position(|&q| q == sp) {
                // Shared processor: the only outgoing edge is the
                // internal one (weight = completion of t on that
                // processor if t' were its only predecessor).
                let w = (srep.finish_lb).max(eng.ready_lb[sp]) + inst.exec.time(t.index(), sp);
                g.add_edge(k, r, w);
                forced.push((k, r));
            } else {
                for (r, &q) in procs.iter().enumerate() {
                    let w = (srep.finish_lb + vol * inst.platform.delay(sp, q))
                        .max(eng.ready_lb[q])
                        + inst.exec.time(t.index(), q);
                    g.add_edge(k, r, w);
                }
            }
        }
        match selector {
            Selector::Greedy => {
                let ok = greedy_matching_into(g, forced, greedy, pairs);
                assert!(
                    ok,
                    "matched-comm bipartite graphs always admit a left-perfect matching"
                );
            }
            Selector::Bottleneck => {
                let ok = bottleneck_matching_into(g, forced, bottleneck, pairs);
                assert!(
                    ok,
                    "matched-comm bipartite graphs always admit a left-perfect matching"
                );
            }
        }

        let CommSelection::Matched(table) = &mut eng.sched.comm else {
            unreachable!("run_core gives matched placement a matched table");
        };
        let slots = &mut table[eid.index() * replicas..][..replicas];
        debug_assert_eq!(pairs.len(), replicas, "a perfect matching");
        for (slot, &(k, r)) in slots.iter_mut().zip(pairs.iter()) {
            let srep = &senders[k];
            let q = procs[r];
            let a = srep.finish_lb + vol * inst.platform.delay(srep.proc.index(), q);
            arrival[r] = arrival[r].max(a);
            *slot = (k as u32, r as u32);
        }
    }

    // Place the replicas with their deterministic matched times; the
    // outgoing folds flush once, edge-major, after all ε+1 land.
    for (r, &j) in procs.iter().enumerate() {
        let e = inst.exec.time(t.index(), j);
        let start = arrival[r].max(eng.ready_lb[j]);
        eng.place_with_times_deferred(t, j, start, start + e, start, start + e);
    }
    eng.flush_out_edges(t);
}

#[cfg(test)]
mod complexity {
    use crate::workspace::ScheduleWorkspace;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pins the heap-driven engine's complexity claim at the counter
    /// level, where it can't be blurred by machine noise: on the bench
    /// shape the per-step evaluation count must stay O(1) as v grows
    /// (measured 1.54, 1.45 and 1.42 at v = 2000, 5000 and 10000, and
    /// 1.39 at v = 100k; ≈ 3.3 while FRD pops were still evaluated, and
    /// ≈ 800 for the two-pass sweep at v = 100k). A regression that quietly
    /// reverts a family to per-step sweeping, or evaluates
    /// fully-ready-dominated tasks again, shows up here as a count long
    /// before the wall-clock benches notice.
    #[test]
    fn evaluations_per_step_stay_bounded() {
        let mut per_step = Vec::new();
        for v in [2000usize, 5000, 10000] {
            let mut rng = StdRng::seed_from_u64(0x1A26E + v as u64);
            let inst = paper_instance(
                &mut rng,
                &PaperInstanceConfig {
                    tasks_lo: v,
                    tasks_hi: v,
                    procs: 20,
                    granularity: 1.0,
                    ..Default::default()
                },
            );
            let mut ws = ScheduleWorkspace::new();
            let sched = crate::Algorithm::Ftbar.scheduler();
            let mut r = StdRng::seed_from_u64(7);
            sched.run_into(&inst, 1, &mut r, &mut ws).unwrap();
            let st = ws.pressure.stats;
            assert_eq!(st.steps as usize, v, "one selection step per task");
            per_step.push(st.evals as f64 / st.steps as f64);
        }
        for (i, &eps) in per_step.iter().enumerate() {
            assert!(
                eps < 2.0,
                "evals/step = {eps:.2} at size index {i} — heap-driven \
                 selection evaluates FRD tasks or sweeps again (expected ≈ 1.5)"
            );
        }
        // Constant, not merely sub-linear: growing v 5× may not even
        // double the per-step evaluation work.
        assert!(
            per_step[2] < per_step[0] * 2.0 + 1.0,
            "evals/step grew {:.1} → {:.1} from v=2000 to v=10000",
            per_step[0],
            per_step[2]
        );
    }
}
