//! The fault-tolerant schedule representation.
//!
//! A schedule maps every task to `ε + 1` (or more, when FTBAR duplicates)
//! replicas placed on distinct processors, each carrying **two**
//! timelines:
//!
//! * the *optimistic* times (`start_lb` / `finish_lb`), computed with
//!   equation (1) — every replica receives each input from the earliest
//!   replica of the predecessor. The schedule-wide maximum is `M*`
//!   (equation 2), achieved when no processor fails.
//! * the *pessimistic* times (`start_ub` / `finish_ub`), computed with
//!   equation (3) — every input arrives from the latest replica. The
//!   schedule-wide maximum is `M` (equation 4), an upper bound on the
//!   latency under any `ε` failures (Proposition 4.2).
//!
//! For MC-FTSA the two timelines coincide per replica (each replica has a
//! unique sender per predecessor), and the communication matching is
//! recorded in [`CommSelection::Matched`].
//!
//! # Memory layout
//!
//! Replicas live in one flat arena ([`ReplicaArena`]): a single
//! `Vec<Replica>` strided per task, with `ε + 1` slots reserved per task
//! up front. [`Schedule::replicas_of`] is an O(1) slice view and
//! consecutive tasks are contiguous in memory. FTBAR's duplication pass
//! can push a task past the stride; the arena then doubles the stride
//! and repacks once (amortized — duplication beyond `ε + 1` is rare).
//!
//! Per-processor placement order uses a grow-in-place linked arena
//! ([`ProcOrder`]): one node pool plus per-processor head/tail cursors,
//! so appends never relocate earlier entries and a schedule performs no
//! per-processor allocations. Consumers that want a flat per-processor
//! slice (the crash simulator) materialize it once into their workspace.
//!
//! Both arenas serialize in the human-readable nested form
//! (`Vec<Vec<…>>`) and compare ([`PartialEq`]) by logical content, so
//! stride padding and node-pool interleaving never leak.

use platform::ProcId;
use serde::{Deserialize, Serialize};
use taskgraph::{Dag, TaskId};

/// One placed copy of a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Replica {
    /// Hosting processor.
    pub proc: ProcId,
    /// Optimistic start time (equation 1).
    pub start_lb: f64,
    /// Optimistic finish time.
    pub finish_lb: f64,
    /// Pessimistic start time (equation 3).
    pub start_ub: f64,
    /// Pessimistic finish time.
    pub finish_ub: f64,
}

const DUMMY: Replica = Replica {
    proc: ProcId(0),
    start_lb: 0.0,
    finish_lb: 0.0,
    start_ub: 0.0,
    finish_ub: 0.0,
};

/// Flat per-task replica storage: `stride` slots per task in one
/// contiguous buffer. See the [module docs](self) for the layout.
#[derive(Debug, Clone, Default)]
pub struct ReplicaArena {
    slots: Vec<Replica>,
    len: Vec<u32>,
    stride: u32,
}

impl ReplicaArena {
    /// Clears and resizes for `num_tasks` tasks with `stride` reserved
    /// slots each, reusing the existing buffers.
    pub(crate) fn reset(&mut self, num_tasks: usize, stride: usize) {
        debug_assert!(stride >= 1 || num_tasks == 0);
        self.stride = stride.max(1) as u32;
        self.len.clear();
        self.len.resize(num_tasks, 0);
        self.slots.clear();
        self.slots.resize(num_tasks * self.stride as usize, DUMMY);
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.len.len()
    }

    /// Replicas of task `t` as a contiguous slice.
    #[inline]
    pub fn slice(&self, t: TaskId) -> &[Replica] {
        let base = t.index() * self.stride as usize;
        &self.slots[base..base + self.len[t.index()] as usize]
    }

    /// Mutable access to replica `k` of task `t`.
    #[inline]
    pub fn get_mut(&mut self, t: TaskId, k: usize) -> &mut Replica {
        debug_assert!(k < self.len[t.index()] as usize);
        &mut self.slots[t.index() * self.stride as usize + k]
    }

    /// Appends a replica of `t`, returning its index within the task.
    pub(crate) fn push(&mut self, t: TaskId, r: Replica) -> usize {
        if self.len[t.index()] == self.stride {
            self.grow();
        }
        let k = self.len[t.index()] as usize;
        self.slots[t.index() * self.stride as usize + k] = r;
        self.len[t.index()] += 1;
        k
    }

    /// Doubles the stride, repacking in place (tasks move back-to-front
    /// into their wider slots, so no temporary buffer is needed).
    fn grow(&mut self) {
        let old = self.stride as usize;
        let new = (old * 2).max(1);
        self.slots.resize(self.len.len() * new, DUMMY);
        for t in (0..self.len.len()).rev() {
            let n = self.len[t] as usize;
            for k in (0..n).rev() {
                self.slots[t * new + k] = self.slots[t * old + k];
            }
        }
        self.stride = new as u32;
    }

    /// Iterates the tasks' replica slices in task-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[Replica]> + '_ {
        (0..self.num_tasks() as u32).map(|t| self.slice(TaskId(t)))
    }
}

impl PartialEq for ReplicaArena {
    /// Logical equality: same per-task replica sequences, regardless of
    /// stride or padding.
    fn eq(&self, other: &Self) -> bool {
        self.len.len() == other.len.len() && self.iter().eq(other.iter())
    }
}

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct OrderNode {
    task: TaskId,
    rep: u32,
    next: u32,
}

/// Grow-in-place per-processor placement order: a single node pool with
/// per-processor linked chains. Appending is O(1), never moves earlier
/// entries, and performs no per-processor allocation.
#[derive(Debug, Clone, Default)]
pub struct ProcOrder {
    head: Vec<u32>,
    tail: Vec<u32>,
    count: Vec<u32>,
    nodes: Vec<OrderNode>,
}

impl ProcOrder {
    /// Clears and resizes for `num_procs` processors, reusing buffers.
    pub(crate) fn reset(&mut self, num_procs: usize) {
        self.head.clear();
        self.head.resize(num_procs, NONE);
        self.tail.clear();
        self.tail.resize(num_procs, NONE);
        self.count.clear();
        self.count.resize(num_procs, 0);
        self.nodes.clear();
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.head.len()
    }

    /// Number of replicas placed on processor `j`.
    #[inline]
    pub fn count(&self, j: usize) -> usize {
        self.count[j] as usize
    }

    /// Appends `(task, replica index)` to processor `j`'s sequence.
    pub(crate) fn push(&mut self, j: usize, t: TaskId, k: usize) {
        let idx = self.nodes.len() as u32;
        self.nodes.push(OrderNode {
            task: t,
            rep: k as u32,
            next: NONE,
        });
        if self.tail[j] == NONE {
            self.head[j] = idx;
        } else {
            self.nodes[self.tail[j] as usize].next = idx;
        }
        self.tail[j] = idx;
        self.count[j] += 1;
    }

    /// Iterates processor `j`'s placements in execution order.
    pub fn iter(&self, j: usize) -> impl Iterator<Item = (TaskId, usize)> + '_ {
        let mut cur = self.head[j];
        std::iter::from_fn(move || {
            if cur == NONE {
                return None;
            }
            let n = self.nodes[cur as usize];
            cur = n.next;
            Some((n.task, n.rep as usize))
        })
    }
}

impl PartialEq for ProcOrder {
    /// Logical equality: same per-processor sequences, regardless of how
    /// the chains interleave inside the node pool.
    fn eq(&self, other: &Self) -> bool {
        self.head.len() == other.head.len()
            && (0..self.head.len()).all(|j| self.iter(j).eq(other.iter(j)))
    }
}

/// How replica-to-replica communications are orchestrated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommSelection {
    /// Every replica of the source sends to every replica of the
    /// destination (FTSA, FTBAR): up to `(ε+1)²` messages per edge.
    AllToAll,
    /// MC-FTSA: per DAG edge, the selected `(src_replica, dst_replica)`
    /// pairs — exactly `ε+1` messages per edge.
    Matched(Vec<Vec<(usize, usize)>>),
}

/// A complete fault-tolerant schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of tolerated failures `ε`.
    pub epsilon: usize,
    /// Per task: its replicas, in one flat strided arena. The first
    /// `ε + 1` are the *primary* replicas on pairwise distinct
    /// processors; FTBAR's minimize-start-time pass may append extras.
    pub(crate) replicas: ReplicaArena,
    /// Per processor: placement order as `(task, replica index)` chains.
    pub(crate) order: ProcOrder,
    /// Communication orchestration.
    pub comm: CommSelection,
    /// The order in which tasks were scheduled (a topological order).
    pub schedule_order: Vec<TaskId>,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::empty(0, 0, 0)
    }
}

impl Schedule {
    /// Creates an empty schedule skeleton with `ε + 1` replica slots
    /// reserved per task.
    pub(crate) fn empty(num_tasks: usize, num_procs: usize, epsilon: usize) -> Self {
        let mut replicas = ReplicaArena::default();
        replicas.reset(num_tasks, epsilon + 1);
        let mut order = ProcOrder::default();
        order.reset(num_procs);
        Schedule {
            epsilon,
            replicas,
            order,
            comm: CommSelection::AllToAll,
            schedule_order: Vec::with_capacity(num_tasks),
        }
    }

    /// Clears the schedule in place for reuse, keeping every buffer's
    /// capacity (the zero-allocation steady-state contract).
    pub(crate) fn reset(&mut self, num_tasks: usize, num_procs: usize, epsilon: usize) {
        self.epsilon = epsilon;
        self.replicas.reset(num_tasks, epsilon + 1);
        self.order.reset(num_procs);
        self.schedule_order.clear();
        // `comm` is reset by the pipeline, which recycles a matched
        // table's inner buffers when one is present.
    }

    /// Builds a schedule from nested per-task replica lists and
    /// per-processor placement lists (tests and external tools).
    pub fn from_parts(
        epsilon: usize,
        replica_lists: Vec<Vec<Replica>>,
        proc_order: Vec<Vec<(TaskId, usize)>>,
        comm: CommSelection,
        schedule_order: Vec<TaskId>,
    ) -> Self {
        let stride = replica_lists
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(epsilon + 1);
        let mut replicas = ReplicaArena::default();
        replicas.reset(replica_lists.len(), stride);
        for (t, reps) in replica_lists.iter().enumerate() {
            for &r in reps {
                replicas.push(TaskId(t as u32), r);
            }
        }
        let mut order = ProcOrder::default();
        order.reset(proc_order.len());
        for (j, seq) in proc_order.iter().enumerate() {
            for &(t, k) in seq {
                order.push(j, t, k);
            }
        }
        Schedule {
            epsilon,
            replicas,
            order,
            comm,
            schedule_order,
        }
    }

    /// Number of tasks the schedule covers.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.replicas.num_tasks()
    }

    /// Number of processors the schedule spans.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.order.num_procs()
    }

    /// Replicas of task `t`.
    #[inline]
    pub fn replicas_of(&self, t: TaskId) -> &[Replica] {
        self.replicas.slice(t)
    }

    /// Mutable access to replica `k` of task `t` (external tools and
    /// corruption-injecting tests).
    #[inline]
    pub fn replica_mut(&mut self, t: TaskId, k: usize) -> &mut Replica {
        self.replicas.get_mut(t, k)
    }

    /// Per-task replica slices in task-id order.
    pub fn tasks_replicas(&self) -> impl Iterator<Item = &[Replica]> + '_ {
        self.replicas.iter()
    }

    /// Per-task replica lists in nested form (allocates; for tests).
    pub fn replica_lists(&self) -> Vec<Vec<Replica>> {
        self.replicas.iter().map(<[Replica]>::to_vec).collect()
    }

    /// Placement order of processor `j` as `(task, replica index)` pairs.
    #[inline]
    pub fn proc_order(&self, j: usize) -> impl Iterator<Item = (TaskId, usize)> + '_ {
        self.order.iter(j)
    }

    /// Appends a replica of `t` on processor `j`, recording it in the
    /// placement order; returns the replica index.
    pub(crate) fn push_replica(&mut self, t: TaskId, j: usize, r: Replica) -> usize {
        let k = self.replicas.push(t, r);
        self.order.push(j, t, k);
        k
    }

    /// The latency lower bound `M*` (equation 2): the makespan achieved
    /// when no processor fails — max over *exit* tasks of the earliest
    /// replica finish. Requires the exit set of the scheduled DAG.
    pub fn latency_lower_bound_for(&self, dag: &Dag) -> f64 {
        dag.exits()
            .iter()
            .map(|&t| {
                self.replicas_of(t)
                    .iter()
                    .map(|r| r.finish_lb)
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    }

    /// The latency upper bound `M` (equation 4): guaranteed even under
    /// `ε` failures — max over exit tasks of the latest replica finish.
    pub fn latency_upper_bound_for(&self, dag: &Dag) -> f64 {
        dag.exits()
            .iter()
            .map(|&t| {
                self.replicas_of(t)
                    .iter()
                    .map(|r| r.finish_ub)
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .fold(0.0, f64::max)
    }

    /// Cached bound: `M*` over all tasks (equals
    /// [`Schedule::latency_lower_bound_for`] because inner tasks always
    /// finish before the exits they feed).
    pub fn latency_lower_bound(&self) -> f64 {
        self.replicas
            .iter()
            .filter(|rs| !rs.is_empty())
            .map(|rs| rs.iter().map(|r| r.finish_lb).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    }

    /// Cached bound: `M` over all tasks.
    pub fn latency_upper_bound(&self) -> f64 {
        self.replicas
            .iter()
            .flat_map(|rs| rs.iter())
            .map(|r| r.finish_ub)
            .fold(0.0, f64::max)
    }

    /// Number of *inter-processor* messages the schedule ships.
    ///
    /// FTSA sends from every source replica to every destination replica
    /// (minus intra-processor deliveries); MC-FTSA sends only the matched
    /// pairs. This is the metric behind the paper's `e(ε+1)²` vs
    /// `e(ε+1)` comparison.
    pub fn message_count(&self, dag: &Dag) -> usize {
        let mut count = 0usize;
        for (eid, src, dst, _) in dag.edge_list() {
            match &self.comm {
                CommSelection::AllToAll => {
                    for s in self.replicas_of(src) {
                        for d in self.replicas_of(dst) {
                            // A receiver collocated with *some* replica of
                            // the source needs no off-processor copies
                            // from that source at all (remark below
                            // Theorem 4.1); messages to it are skipped by
                            // senders on the same processor only. We count
                            // the pairs that actually traverse a link.
                            if s.proc != d.proc {
                                count += 1;
                            }
                        }
                    }
                }
                CommSelection::Matched(m) => {
                    for &(si, di) in &m[eid.index()] {
                        let sp = self.replicas_of(src)[si].proc;
                        let dp = self.replicas_of(dst)[di].proc;
                        if sp != dp {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// Number of processors that execute at least one replica.
    pub fn procs_used(&self) -> usize {
        (0..self.order.num_procs())
            .filter(|&j| self.order.count(j) != 0)
            .count()
    }
}

/// Nested mirror of [`Schedule`]'s serialized form, which stays the
/// human-readable `Vec<Vec<…>>` shape regardless of the arena layout.
#[derive(Deserialize)]
struct ScheduleRepr {
    epsilon: usize,
    replicas: Vec<Vec<Replica>>,
    proc_order: Vec<Vec<(TaskId, u32)>>,
    comm: CommSelection,
    schedule_order: Vec<TaskId>,
}

/// Written straight from the arenas, in `ScheduleRepr`'s shape.
impl Serialize for Schedule {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.field("epsilon");
        self.epsilon.serialize(w);
        w.field("replicas");
        w.seq(self.replicas.iter());
        w.field("proc_order");
        w.begin_array();
        for j in 0..self.order.num_procs() {
            w.element();
            w.seq(self.order.iter(j).map(|(t, k)| (t, k as u32)));
        }
        w.end_array();
        w.field("comm");
        self.comm.serialize(w);
        w.field("schedule_order");
        self.schedule_order.serialize(w);
        w.end_object();
    }
}

impl Deserialize for Schedule {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let repr = ScheduleRepr::deserialize(r)?;
        Ok(Schedule::from_parts(
            repr.epsilon,
            repr.replicas,
            repr.proc_order
                .into_iter()
                .map(|seq| seq.into_iter().map(|(t, k)| (t, k as usize)).collect())
                .collect(),
            repr.comm,
            repr.schedule_order,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_replica(proc: u32, s: f64, f: f64) -> Replica {
        Replica {
            proc: ProcId(proc),
            start_lb: s,
            finish_lb: f,
            start_ub: s,
            finish_ub: f,
        }
    }

    fn two_task_schedule() -> (Dag, Schedule) {
        let mut b = taskgraph::DagBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 10.0);
        let dag = b.build().unwrap();
        let s = Schedule::from_parts(
            1,
            vec![
                vec![mk_replica(0, 0.0, 1.0), mk_replica(1, 0.0, 2.0)],
                vec![mk_replica(1, 2.0, 4.0), mk_replica(2, 3.0, 6.0)],
            ],
            vec![vec![(a, 0)], vec![(a, 1), (c, 0)], vec![(c, 1)]],
            CommSelection::AllToAll,
            vec![a, c],
        );
        (dag, s)
    }

    #[test]
    fn bounds_from_exits() {
        let (dag, s) = two_task_schedule();
        assert_eq!(s.latency_lower_bound_for(&dag), 4.0);
        assert_eq!(s.latency_upper_bound_for(&dag), 6.0);
        assert_eq!(s.latency_lower_bound(), 4.0);
        assert_eq!(s.latency_upper_bound(), 6.0);
    }

    #[test]
    fn message_count_all_to_all_skips_intra() {
        let (dag, s) = two_task_schedule();
        // Pairs: (P0→P1), (P0→P2), (P1→P1 intra), (P1→P2) → 3 messages.
        assert_eq!(s.message_count(&dag), 3);
    }

    #[test]
    fn message_count_matched() {
        let (dag, mut s) = two_task_schedule();
        s.comm = CommSelection::Matched(vec![vec![(0, 1), (1, 0)]]);
        // (rep0@P0 → rep1@P2) inter; (rep1@P1 → rep0@P1) intra → 1.
        assert_eq!(s.message_count(&dag), 1);
    }

    #[test]
    fn busy_time_and_procs_used() {
        let (_, s) = two_task_schedule();
        assert_eq!(s.procs_used(), 3);
    }

    #[test]
    fn arena_grows_past_stride_and_repacks() {
        let mut arena = ReplicaArena::default();
        arena.reset(3, 2);
        let t0 = TaskId(0);
        let t1 = TaskId(1);
        for k in 0..2 {
            arena.push(t0, mk_replica(k, k as f64, k as f64 + 1.0));
        }
        arena.push(t1, mk_replica(9, 0.0, 1.0));
        // Overflow t0: the stride doubles and every slice survives.
        arena.push(t0, mk_replica(2, 2.0, 3.0));
        assert_eq!(arena.slice(t0).len(), 3);
        assert_eq!(arena.slice(t0)[2].proc, ProcId(2));
        assert_eq!(arena.slice(t1).len(), 1);
        assert_eq!(arena.slice(t1)[0].proc, ProcId(9));
        assert_eq!(arena.slice(TaskId(2)).len(), 0);
    }

    #[test]
    fn arena_equality_ignores_stride() {
        let mut a = ReplicaArena::default();
        a.reset(2, 1);
        let mut b = ReplicaArena::default();
        b.reset(2, 4);
        a.push(TaskId(0), mk_replica(1, 0.0, 1.0));
        b.push(TaskId(0), mk_replica(1, 0.0, 1.0));
        assert_eq!(a, b);
        b.push(TaskId(1), mk_replica(2, 0.0, 1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn proc_order_chains_interleaved_pushes() {
        let mut o = ProcOrder::default();
        o.reset(2);
        o.push(0, TaskId(0), 0);
        o.push(1, TaskId(0), 1);
        o.push(0, TaskId(1), 0);
        o.push(1, TaskId(2), 0);
        assert_eq!(
            o.iter(0).collect::<Vec<_>>(),
            vec![(TaskId(0), 0), (TaskId(1), 0)]
        );
        assert_eq!(
            o.iter(1).collect::<Vec<_>>(),
            vec![(TaskId(0), 1), (TaskId(2), 0)]
        );
        assert_eq!(o.count(0), 2);
    }

    #[test]
    fn schedule_json_round_trip_preserves_layout_content() {
        let (_, s) = two_task_schedule();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.replicas_of(TaskId(1))[1].proc, ProcId(2));
        assert_eq!(
            back.proc_order(1).collect::<Vec<_>>(),
            vec![(TaskId(0), 1), (TaskId(1), 0)]
        );
    }
}
