//! Shared placement engine: dual-timeline bookkeeping with incremental
//! arrival caches, used by every configuration of the list-scheduling
//! pipeline.
//!
//! The engine *borrows* its state — the growing [`Schedule`], the
//! placement log, the per-processor ready times `r(P_j)` and the flat
//! per-(edge, processor) arrival cache — from a
//! [`crate::workspace::ScheduleWorkspace`], so
//! repeated runs reuse every buffer and the steady state allocates
//! nothing. It implements the arrival terms of equations (1) and (3):
//!
//! * optimistic arrival (eq. 1): `max_{t* ∈ Γ⁻(t)} min_k { F(t*ᵏ) + W(t*ᵏ, t) }`
//! * pessimistic arrival (eq. 3): `max_{t* ∈ Γ⁻(t)} max_k { F(t*ᵏ) + W(t*ᵏ, t) }`
//!
//! where `W(t*ᵏ, t) = V(t*, t) · d(P(t*ᵏ), P_j)` vanishes when the sender
//! replica lives on the candidate processor itself (the intra-processor
//! shortcut noted below Theorem 4.1).
//!
//! # Incremental arrival caches
//!
//! The seed implementation recomputed the eq. (1) inner fold from
//! scratch for every `(task, processor)` query: `O(preds · reps · m)`
//! per selection. The engine instead maintains, per DAG edge
//! `e = (t* → t)` and processor `P_j`, the partially-folded optimistic
//! term:
//!
//! * `arrive_lb[e][j] = min_k { F_lb(t*ᵏ) + V(e) · d(P(t*ᵏ), P_j) }`
//!
//! folded over the replicas `t*ᵏ` placed *so far* (`+∞` while the source
//! is unplaced). Placing one replica streams its contribution into each
//! outgoing edge row in `O(succs · m)`; an eq. (1) arrival query then
//! only folds the `O(preds)` cached edge terms. The cache stays exact
//! under FTBAR's late parent duplication because adding a replica moves
//! each cached `min` monotonically down — the per-edge granularity is
//! precisely what makes the fold updatable (a per-task `max`-of-`min`s
//! cache could not absorb a decreasing inner `min`).
//!
//! # Arena layout (pred-major CSR)
//!
//! The edge cache is one flat `e · m` arena of doubles indexed by
//! *predecessor slot*, not by edge id: row `k` of the arena is the
//! cache row of `preds(t)[k - pred_base(t)]` for the task `t` owning
//! slot `k`, mirroring the CSR adjacency of [`taskgraph::Dag`]. A
//! task's incoming rows are therefore one contiguous block of
//! `in_degree(t) · m` doubles, so the hottest read —
//! [`Engine::arrival_row_lb_slice`], one full arrival row per pressure
//! (re-)evaluation — streams a single block sequentially instead of
//! gathering `preds` rows scattered across the arena. Writes (one
//! `min`-SAXPY per outgoing edge on placement) stay `O(succs · m)`
//! through the same slot indirection. Fold order per row is the CSR
//! slot order, i.e. exactly the `preds` order the seed folds in, so the
//! packing is invisible to the float results.
//!
//! The pessimistic eq. (3) fold is *not* cached: it is queried exactly
//! once per placed replica (never during selection sweeps), so the seed
//! recomputation is already optimal there and a second `e × m` cache
//! would only add memory traffic.
//!
//! Both folds select (never combine) IEEE values and every summand is
//! computed by the same `F + V·d` expression as the seed, so cached
//! arrivals are bit-identical to the from-scratch recomputation — the
//! golden suite pins this.

use crate::schedule::{Replica, Schedule};
use ftcollections::fold::{max_in_place, min_saxpy_in_place};
use ftcollections::select_smallest_into;
use platform::{Instance, ProcId};
use taskgraph::{EdgeId, TaskId};

/// Dual-timeline placement state, borrowing its buffers from a
/// [`crate::workspace::ScheduleWorkspace`].
#[derive(Debug)]
pub(crate) struct Engine<'a> {
    pub inst: &'a Instance,
    pub sched: &'a mut Schedule,
    /// Every placement's `(task, replica index)`, in placement order;
    /// the pipeline builds the schedule's per-processor order from it.
    log: &'a mut Vec<(TaskId, u32)>,
    /// `r(P_j)` on the optimistic timeline.
    pub ready_lb: &'a mut [f64],
    /// `r(P_j)` on the pessimistic timeline.
    pub ready_ub: &'a mut [f64],
    /// `arrive_lb[pred_slot(eid) · m + j]`: cached optimistic per-edge
    /// arrival, **pred-major**: a task's incoming rows are contiguous
    /// (see the module docs on the arena layout).
    arrive_lb: &'a mut [f64],
    /// Processor count (row stride of the edge cache).
    m: usize,
}

impl<'a> Engine<'a> {
    /// Wraps freshly reset workspace buffers. `ready_lb`/`ready_ub` must
    /// be zeroed at length `m`; `arrive_lb` must be `+∞`-filled at
    /// length `e · m`; `sched` must be an empty skeleton and `log` empty.
    pub fn new(
        inst: &'a Instance,
        sched: &'a mut Schedule,
        log: &'a mut Vec<(TaskId, u32)>,
        ready_lb: &'a mut [f64],
        ready_ub: &'a mut [f64],
        arrive_lb: &'a mut [f64],
    ) -> Self {
        let m = inst.num_procs();
        debug_assert_eq!(ready_lb.len(), m);
        debug_assert_eq!(arrive_lb.len(), inst.dag.num_edges() * m);
        Engine {
            inst,
            sched,
            log,
            ready_lb,
            ready_ub,
            arrive_lb,
            m,
        }
    }

    /// Optimistic arrival term of eq. (1) for task `t` on processor `j`:
    /// each predecessor delivers from its earliest-available replica.
    /// With the pred-major arena, `t`'s incoming rows are a single
    /// contiguous block — the fold walks it at stride `m`, same slot
    /// order as [`taskgraph::Dag::preds`] (so same fold order as ever).
    pub fn arrival_lb(&self, t: TaskId, j: usize) -> f64 {
        let mut arrival = 0.0f64;
        for slot in self.inst.dag.pred_range(t) {
            arrival = arrival.max(self.arrive_lb[slot * self.m + j]);
        }
        arrival
    }

    /// Fills `row[j] = arrival_lb(t, j)` for every processor at once,
    /// streaming each incoming edge's contiguous cache row instead of
    /// striding across rows per processor — the cache-friendly form the
    /// selection sweeps use. Each edge row is folded in with the 8-lane
    /// chunked max of [`ftcollections::fold`] (same operands, same
    /// per-processor order, deterministic ties), so the values are
    /// bit-identical to [`Engine::arrival_lb`].
    pub fn arrival_row_lb(&self, t: TaskId, row: &mut Vec<f64>) {
        row.clear();
        row.resize(self.m, 0.0);
        self.arrival_row_lb_slice(t, row);
    }

    /// [`Engine::arrival_row_lb`] into a caller-owned slice of length
    /// `m` — the form the incremental pressure cache uses to fold
    /// straight into its per-task row arena.
    pub fn arrival_row_lb_slice(&self, t: TaskId, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.m);
        row.fill(0.0);
        // Pred-major arena: the whole query streams one contiguous
        // block of `in_degree(t) · m` doubles, row by row.
        for slot in self.inst.dag.pred_range(t) {
            let base = slot * self.m;
            max_in_place(row, &self.arrive_lb[base..base + self.m]);
        }
    }

    /// Pessimistic arrival term of eq. (3): each predecessor delivers
    /// from its latest replica (worst case under failures). Computed
    /// from the replicas directly — this fold is queried once per
    /// placement, never in a selection sweep, so caching it would cost
    /// more than it saves.
    pub fn arrival_ub(&self, t: TaskId, j: usize) -> f64 {
        let dag = &self.inst.dag;
        let plat = &self.inst.platform;
        let mut arrival = 0.0f64;
        for &(p, eid) in dag.preds(t) {
            let vol = dag.volume(eid);
            let worst = self
                .sched
                .replicas_of(p)
                .iter()
                .map(|r| r.finish_ub + vol * plat.delay(r.proc.index(), j))
                .fold(f64::NEG_INFINITY, f64::max);
            arrival = arrival.max(worst);
        }
        arrival
    }

    /// Cached optimistic arrival of one edge on processor `j`: the
    /// earliest time the edge's data can reach `P_j` from the source
    /// replicas placed so far (`+∞` while the source is unplaced).
    pub fn edge_arrival_lb(&self, eid: EdgeId, j: usize) -> f64 {
        self.arrive_lb[self.inst.dag.pred_slot(eid) * self.m + j]
    }

    /// Candidate finish time `F(t, P_j)` of eq. (1).
    pub fn finish_candidate_lb(&self, t: TaskId, j: usize) -> f64 {
        self.inst.exec.time(t.index(), j) + self.arrival_lb(t, j).max(self.ready_lb[j])
    }

    /// Places a replica of `t` on processor `j` with arrivals computed
    /// from the current schedule state; returns the replica index. The
    /// outgoing-edge arrival folds run immediately — the form the
    /// duplication pass needs, whose new replica's rows are read within
    /// the same step.
    pub fn place(&mut self, t: TaskId, j: usize) -> usize {
        let idx = self.place_deferred(t, j);
        self.fold_replica_out_edges(t, self.sched.replicas_of(t)[idx].finish_lb, j);
        idx
    }

    /// [`Engine::place`] *without* the outgoing-edge folds: the caller
    /// batches them per task via [`Engine::flush_out_edges`] after all
    /// of the task's replicas landed. Legal whenever nothing reads the
    /// task's outgoing rows before the flush — true for the main
    /// placement loop, where a task's successors cannot become free (let
    /// alone be queried) until the step completes.
    pub fn place_deferred(&mut self, t: TaskId, j: usize) -> usize {
        let e = self.inst.exec.time(t.index(), j);
        let start_lb = self.arrival_lb(t, j).max(self.ready_lb[j]);
        let start_ub = self.arrival_ub(t, j).max(self.ready_ub[j]);
        self.place_with_times_deferred(t, j, start_lb, start_lb + e, start_ub, start_ub + e)
    }

    /// Places a replica with explicit times (matched-communication
    /// placement computes them from its selected senders). Updates ready
    /// times and logs the placement; outgoing-edge folds are deferred to
    /// [`Engine::flush_out_edges`].
    pub fn place_with_times_deferred(
        &mut self,
        t: TaskId,
        j: usize,
        start_lb: f64,
        finish_lb: f64,
        start_ub: f64,
        finish_ub: f64,
    ) -> usize {
        debug_assert!(start_lb >= self.ready_lb[j] - 1e-9);
        debug_assert!(finish_lb >= start_lb && finish_ub >= start_ub);
        let rep = Replica {
            proc: ProcId(j as u32),
            start_lb,
            finish_lb,
            start_ub,
            finish_ub,
        };
        let idx = self.sched.replicas.push(t, rep);
        self.log.push((t, idx as u32));
        self.ready_lb[j] = finish_lb;
        self.ready_ub[j] = finish_ub;
        idx
    }

    /// Folds one new replica of `t` into every outgoing edge's arrival
    /// cache: `O(succs · m)` — the flip side of O(preds) arrival
    /// queries. The sender's delay row and the edge row are streamed
    /// through the elementwise min-saxpy fold, which auto-vectorizes and
    /// keeps the per-cell expression `min(cell, finish + vol·d)` exact.
    fn fold_replica_out_edges(&mut self, t: TaskId, finish_lb: f64, j: usize) {
        let dag = &self.inst.dag;
        let drow = self.inst.platform.delay_row(j);
        for &(_, eid) in dag.succs(t) {
            let vol = dag.volume(eid);
            let base = dag.pred_slot(eid) * self.m;
            min_saxpy_in_place(
                &mut self.arrive_lb[base..base + self.m],
                finish_lb,
                vol,
                drow,
            );
        }
    }

    /// Runs the outgoing-edge arrival folds for **all** replicas of `t`
    /// at once, edge-major: each edge row is loaded once and all `ε + 1`
    /// replica folds run over it back to back while it sits in L1 —
    /// the cache-blocked loop interchange of the per-replica
    /// [`Engine::place`] fold (the "tile" is the `m`-wide edge row). The
    /// per-cell fold order is replica placement order, exactly the order
    /// the immediate folds apply, so cached arrivals stay bit-identical.
    pub fn flush_out_edges(&mut self, t: TaskId) {
        let dag = &self.inst.dag;
        let reps = self.sched.replicas_of(t);
        for &(_, eid) in dag.succs(t) {
            let vol = dag.volume(eid);
            let base = dag.pred_slot(eid) * self.m;
            let row = &mut self.arrive_lb[base..base + self.m];
            for rep in reps {
                let drow = self.inst.platform.delay_row(rep.proc.index());
                min_saxpy_in_place(row, rep.finish_lb, vol, drow);
            }
        }
    }

    /// Selects the `count` processors realizing the smallest candidate
    /// finish times of eq. (1) (ties broken toward the lower index, which
    /// keeps runs deterministic) into the caller's buffer. `out` ends up
    /// holding `(proc, finish)` pairs sorted by finish — a partial
    /// selection, not a full `m log m` sort, and no allocation. `row` is
    /// arrival scratch (see [`Engine::arrival_row_lb`]).
    pub fn best_procs_into(
        &self,
        t: TaskId,
        count: usize,
        row: &mut Vec<f64>,
        out: &mut Vec<(usize, f64)>,
    ) {
        debug_assert!(count <= self.m);
        self.arrival_row_lb(t, row);
        let exec = self.inst.exec.times_row(t.index());
        select_smallest_into(
            self.m,
            count,
            |j| exec[j] + row[j].max(self.ready_lb[j]),
            out,
        );
    }

    /// Current schedule length on the optimistic timeline (FTBAR's
    /// `R(n−1)`).
    pub fn current_length_lb(&self) -> f64 {
        self.ready_lb.iter().copied().fold(0.0, f64::max)
    }
}
