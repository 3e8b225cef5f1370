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
//! The per-processor placement order ([`ProcOrder`]) is CSR: `m + 1`
//! offsets and one `(task, replica index)` vector, so
//! [`Schedule::proc_order`] is an O(1) slice view. The pipeline logs
//! each placement during a run and builds the CSR once at its end, by a
//! stable counting sort on the placed replicas' processors; `validate`,
//! the JSON writer, the streaming driver and the crash replay read the
//! slices in place.
//!
//! The matched table ([`CommSelection::Matched`]) holds exactly `ε + 1`
//! `(sender, receiver)` replica pairs per edge (Proposition 4.3), so it
//! is one flat vector with stride `ε + 1`: edge `e`'s pairs, in the order
//! the matcher selected them, start at `e·(ε+1)`.
//!
//! All three serialize in the human-readable nested form (`Vec<Vec<…>>`,
//! one pair list per edge), and the replica arena compares
//! ([`PartialEq`]) by logical content, so stride padding never leaks.

use platform::ProcId;
use serde::{Deserialize, Serialize};
use std::ops::Range;
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

/// Per-processor placement order in CSR form: processor `j`'s
/// `(task, replica index)` pairs, in placement order, are
/// `items[off[j]..off[j + 1]]`. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcOrder {
    /// `m + 1` offsets into `items`.
    off: Vec<u32>,
    items: Vec<(TaskId, u32)>,
}

impl ProcOrder {
    /// Rebuilds the order from `log`, a run's placements in the order
    /// they happened, by a stable counting sort on each replica's
    /// processor (read from `replicas`). `off` first counts, then serves
    /// as the write cursor, then shifts back into offsets, so the sort
    /// needs no scratch and reuses both buffers.
    pub(crate) fn rebuild(
        &mut self,
        num_procs: usize,
        log: &[(TaskId, u32)],
        replicas: &ReplicaArena,
    ) {
        let proc_of = |(t, k): (TaskId, u32)| replicas.slice(t)[k as usize].proc.index();
        self.off.clear();
        self.off.resize(num_procs + 1, 0);
        for &e in log {
            self.off[proc_of(e) + 1] += 1;
        }
        for j in 0..num_procs {
            self.off[j + 1] += self.off[j];
        }
        self.items.clear();
        self.items.resize(log.len(), (TaskId(0), 0));
        for &e in log {
            let cursor = &mut self.off[proc_of(e)];
            self.items[*cursor as usize] = e;
            *cursor += 1;
        }
        // Each cursor stopped at the start of the next processor's run.
        self.off.copy_within(0..num_procs, 1);
        self.off[0] = 0;
    }
}

/// How replica-to-replica communications are orchestrated.
#[derive(Debug, Clone, PartialEq)]
pub enum CommSelection {
    /// Every replica of the source sends to every replica of the
    /// destination (FTSA, FTBAR): up to `(ε+1)²` messages per edge.
    AllToAll,
    /// MC-FTSA: the selected `(src_replica, dst_replica)` pairs, exactly
    /// `ε+1` per DAG edge, edge-major (see the [module docs](self)).
    Matched(Vec<(u32, u32)>),
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
    /// Per processor: placement order as `(task, replica index)` pairs.
    pub(crate) order: ProcOrder,
    /// Communication orchestration.
    pub comm: CommSelection,
    /// The order in which tasks were scheduled (a topological order).
    pub schedule_order: Vec<TaskId>,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            epsilon: 0,
            replicas: ReplicaArena::default(),
            order: ProcOrder::default(),
            comm: CommSelection::AllToAll,
            schedule_order: Vec::new(),
        }
    }
}

impl Schedule {
    /// Clears the replicas in place for a run over `num_tasks` tasks,
    /// keeping every buffer's capacity (the zero-allocation steady-state
    /// contract). The order keeps the last run's until the pipeline
    /// rebuilds it at the end of the next.
    pub(crate) fn reset(&mut self, num_tasks: usize, epsilon: usize) {
        self.epsilon = epsilon;
        self.replicas.reset(num_tasks, epsilon + 1);
        self.schedule_order.clear();
    }

    /// Builds a schedule from nested per-task replica lists and
    /// per-processor placement lists (tests and external tools).
    pub fn from_parts(
        epsilon: usize,
        replica_lists: Vec<Vec<Replica>>,
        proc_order: Vec<Vec<(TaskId, u32)>>,
        comm: CommSelection,
        schedule_order: Vec<TaskId>,
    ) -> Self {
        // Sized by the lists alone, not by `ε + 1`: a file's ε is
        // checked only later, by `validate`.
        let stride = replica_lists.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut replicas = ReplicaArena::default();
        replicas.reset(replica_lists.len(), stride);
        for (t, reps) in replica_lists.iter().enumerate() {
            for &r in reps {
                replicas.push(TaskId(t as u32), r);
            }
        }
        let mut off = vec![0];
        off.extend(proc_order.iter().scan(0, |n, seq| {
            *n += seq.len() as u32;
            Some(*n)
        }));
        let order = ProcOrder {
            off,
            items: proc_order.concat(),
        };
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
        self.order.off.len().saturating_sub(1)
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

    /// Placement order of processor `j` as `(task, replica index)` pairs.
    #[inline]
    pub fn proc_order(&self, j: usize) -> &[(TaskId, u32)] {
        let off = &self.order.off;
        &self.order.items[off[j] as usize..off[j + 1] as usize]
    }

    /// The latency lower bound `M*` (equation 2): the makespan achieved
    /// when no processor fails — the max over tasks of the earliest
    /// replica finish (over the exit tasks in the paper; the same value,
    /// since inner tasks finish before the exits they feed).
    pub fn latency_lower_bound(&self) -> f64 {
        self.replicas
            .iter()
            .filter(|rs| !rs.is_empty())
            .map(|rs| rs.iter().map(|r| r.finish_lb).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    }

    /// The latency upper bound `M` (equation 4): guaranteed even under
    /// `ε` failures — the max over tasks of the latest replica finish.
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
                    let w = self.epsilon + 1;
                    for &(si, di) in &m[eid.index() * w..][..w] {
                        let sp = self.replicas_of(src)[si as usize].proc;
                        let dp = self.replicas_of(dst)[di as usize].proc;
                        if sp != dp {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }
}

/// Nested mirror of [`Schedule`]'s serialized form, which stays the
/// human-readable `Vec<Vec<…>>` shape regardless of the arena layout.
#[derive(Deserialize)]
struct ScheduleRepr {
    epsilon: usize,
    replicas: Vec<Vec<Replica>>,
    proc_order: Vec<Vec<(TaskId, u32)>>,
    comm: CommRepr,
    schedule_order: Vec<TaskId>,
}

/// [`CommSelection`] as JSON spells it: one pair list per edge.
#[derive(Deserialize)]
enum CommRepr {
    AllToAll,
    Matched(Vec<Vec<(u32, u32)>>),
}

/// A part of a [`Schedule`]'s JSON text, in [`Schedule::json_parts`]
/// order. The `Serialize` impl writes those parts; a writer can also
/// cut the range parts into smaller ranges and render each on its own
/// (see [`serde::Writer::resume`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonPart {
    /// `{`, `epsilon`, and `replicas` up to its first list.
    Head,
    /// The replica lists of these tasks.
    Replicas(Range<usize>),
    /// The `]` of `replicas`, and `proc_order` up to its first list.
    ProcOrderHead,
    /// The placement lists of these processors.
    ProcOrder(Range<usize>),
    /// The `]` of `proc_order`, and `comm`: all of it when all-to-all,
    /// up to the first pair list when matched.
    CommHead,
    /// The matched pair lists of these edges.
    Matched(Range<usize>),
    /// The matched table's close, `schedule_order` and `}`.
    Tail,
}

impl Schedule {
    /// The parts of the schedule's JSON text in order, each range over
    /// every task, processor and matched edge (none when all-to-all).
    pub fn json_parts(&self) -> [JsonPart; 7] {
        let edges = match &self.comm {
            CommSelection::AllToAll => 0,
            CommSelection::Matched(pairs) => pairs.len().div_ceil(self.epsilon + 1),
        };
        [
            JsonPart::Head,
            JsonPart::Replicas(0..self.num_tasks()),
            JsonPart::ProcOrderHead,
            JsonPart::ProcOrder(0..self.num_procs()),
            JsonPart::CommHead,
            JsonPart::Matched(0..edges),
            JsonPart::Tail,
        ]
    }

    /// Writes one part of the schedule's JSON text, straight from the
    /// arenas in `ScheduleRepr`'s shape.
    pub fn write_json_part(&self, w: &mut serde::Writer<'_>, part: &JsonPart) {
        let matched = match &self.comm {
            CommSelection::AllToAll => None,
            CommSelection::Matched(pairs) => Some(pairs),
        };
        match part {
            JsonPart::Head => {
                w.begin_object();
                w.field("epsilon");
                self.epsilon.serialize(w);
                w.field("replicas");
                w.begin_array();
            }
            JsonPart::Replicas(tasks) => {
                for t in tasks.clone() {
                    w.element();
                    w.seq(self.replicas.slice(TaskId(t as u32)));
                }
            }
            JsonPart::ProcOrderHead => {
                w.end_array();
                w.field("proc_order");
                w.begin_array();
            }
            JsonPart::ProcOrder(procs) => {
                for j in procs.clone() {
                    w.element();
                    w.seq(self.proc_order(j));
                }
            }
            JsonPart::CommHead => {
                w.end_array();
                w.field("comm");
                if matched.is_some() {
                    w.begin_object();
                    w.field("Matched");
                    w.begin_array();
                } else {
                    w.write_str("AllToAll");
                }
            }
            JsonPart::Matched(edges) => {
                if let Some(pairs) = matched {
                    let stride = self.epsilon + 1;
                    // A hand-built table may end in a short edge.
                    let end = (edges.end * stride).min(pairs.len());
                    for edge in pairs[edges.start * stride..end].chunks(stride) {
                        w.element();
                        w.seq(edge);
                    }
                }
            }
            JsonPart::Tail => {
                if matched.is_some() {
                    w.end_array();
                    w.end_object();
                }
                w.field("schedule_order");
                self.schedule_order.serialize(w);
                w.end_object();
            }
        }
    }
}

/// The [`JsonPart`]s in order.
impl Serialize for Schedule {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        for part in &self.json_parts() {
            self.write_json_part(w, part);
        }
    }
}

impl Deserialize for Schedule {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let repr = ScheduleRepr::deserialize(r)?;
        let comm = match repr.comm {
            CommRepr::AllToAll => CommSelection::AllToAll,
            CommRepr::Matched(edges) => {
                let eps1 = repr.epsilon as u128 + 1; // a file's ε may be usize::MAX
                if let Some(e) = edges.iter().position(|p| p.len() as u128 != eps1) {
                    return Err(serde::Error::custom(format!(
                        "matched comm table: edge {e} has {} pairs, expected ε + 1 = {eps1}",
                        edges[e].len()
                    )));
                }
                CommSelection::Matched(edges.concat())
            }
        };
        // The arena strides by the longest list, so a list longer than
        // the processor count (which `validate` rejects anyway) is
        // refused before it sizes one.
        let m = repr.proc_order.len();
        if let Some(t) = repr.replicas.iter().position(|reps| reps.len() > m) {
            return Err(serde::Error::custom(format!(
                "task {} has {} replicas, more than the schedule's {m} processors",
                TaskId(t as u32),
                repr.replicas[t].len()
            )));
        }
        Ok(Schedule::from_parts(
            repr.epsilon,
            repr.replicas,
            repr.proc_order,
            comm,
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
        let (_, s) = two_task_schedule();
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
        s.comm = CommSelection::Matched(vec![(0, 1), (1, 0)]);
        // (rep0@P0 → rep1@P2) inter; (rep1@P1 → rep0@P1) intra → 1.
        assert_eq!(s.message_count(&dag), 1);
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
        // An interleaved log over three processors, P1 left idle: the
        // rebuild keeps each processor's placements in log order.
        let mut s = Schedule::default();
        s.reset(3, 1);
        let mut log = Vec::new();
        for (t, j) in [(0, 0), (0, 2), (1, 0), (2, 2), (1, 2)] {
            let k = s.replicas.push(TaskId(t), mk_replica(j, 0.0, 1.0));
            log.push((TaskId(t), k as u32));
        }
        s.order.rebuild(3, &log, &s.replicas);
        assert_eq!(s.num_procs(), 3);
        assert_eq!(s.proc_order(0), [(TaskId(0), 0), (TaskId(1), 0)]);
        assert_eq!(s.proc_order(1), []);
        assert_eq!(
            s.proc_order(2),
            [(TaskId(0), 1), (TaskId(2), 0), (TaskId(1), 1)]
        );
        // A rebuild over a shorter log reuses the buffers.
        s.order.rebuild(3, &log[..1], &s.replicas);
        assert_eq!(s.proc_order(0), [(TaskId(0), 0)]);
        assert_eq!(s.proc_order(2), []);
    }

    #[test]
    fn schedule_json_round_trip_preserves_layout_content() {
        let (_, s) = two_task_schedule();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.replicas_of(TaskId(1))[1].proc, ProcId(2));
        assert_eq!(back.proc_order(1), [(TaskId(0), 1), (TaskId(1), 0)]);
    }
}
