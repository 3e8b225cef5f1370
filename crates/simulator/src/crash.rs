//! The crash-replay engine: one event loop that replays a schedule under
//! processor crashes and sender-port limits. Every replay in the
//! workspace runs here — single runs, the Monte-Carlo crash and
//! reliability drivers, the campaign and streaming drivers, and the
//! port-contention model of [`crate::contention`].
//!
//! # MC-FTSA delivery semantics
//!
//! For matched (MC-FTSA) communications two delivery policies are
//! offered, because Proposition 4.3 of the paper is a *per-edge*
//! statement: for every precedence edge, some selected communication
//! survives any `ε` failures. Composed across several predecessors it
//! does **not** guarantee that a single replica receives *all* its
//! inputs — one failed processor can starve different replicas of a task
//! through different predecessors' matchings (see the
//! `strict_semantics_composition_gap` test for a concrete instance).
//!
//! * [`FallbackPolicy::Strict`] — the literal reading: a replica only
//!   ever receives from its matched sender. Rare failure patterns can
//!   then lose a task even with `≤ ε` failures.
//! * [`FallbackPolicy::Rerouted`] (default for matched schedules) — when
//!   a matched sender is dead, the receiver accepts the first copy from
//!   any surviving replica of the predecessor. This models the natural
//!   runtime recovery (fail-stop senders are silent, so any functional
//!   system must re-route) and restores the Theorem 4.1 guarantee; the
//!   fault-free message count — the paper's `e(ε+1)` headline — is
//!   unchanged, since fallback messages flow only after a failure.
//!   Supported for fail-at-time-zero scenarios (the paper's experimental
//!   model). A receiver with *no* matched sender on an edge accepts the
//!   first copy from any live sender; `validate` rejects such schedules
//!   (the Proposition 4.3 structure check), so only hand-built ones
//!   reach this rule.
//!
//! # Sender ports and event order
//!
//! A payload between two processors holds one of its sender's `capacity`
//! port slots for `V · d(src, dst)`, or waits in that port's FIFO while
//! all are busy. Crash replays give every port `usize::MAX` slots;
//! [`crate::contention`] gives one or `k`. A payload between collocated
//! replicas bypasses the port and lands at once. Events pop from a binary
//! heap in `(time, push order)`:
//!
//! 1. After the time-0 kill cascade, processors advance in index order.
//!    Advancing starts each head replica whose inputs are all in and
//!    pushes its `Finish`; an overrun past the failure time kills the
//!    rest of the queue, and every processor that cascade touched
//!    advances before control returns.
//! 2. A finish walks successors in CSR order, then receiver replicas in
//!    index order: a collocated payload lands at once (its processor
//!    advances at once), any other takes a free port slot (a `Land` at
//!    `now + V·d`) or queues. Then the finishing processor advances.
//! 3. A landing satisfies a receiver still waiting on that slot (its
//!    processor advances once every slot is in), then frees the port slot
//!    for the next queued payload, which counts as a transfer and adds
//!    its wait to `queueing_delay`.
//!
//! With bounded ports, which payload gets a slot first depends on this
//! order: it is the contention model's own. With unbounded ports no crash
//! output depends on it, because each is built from order-free parts. A
//! replica starts at the max of its processor's previous finish and, over
//! its slots, each slot's first arrival — the min over its senders'
//! arrival times, since every push lands at or after `now` and the heap
//! pops in time order. A death is structural: a processor fails before a
//! replica would finish, or every sender that may still feed a slot has
//! died (a finished sender never dies, so this cannot happen while a
//! payload is in flight). The latency is a max over exit tasks of a min
//! over their replicas' finishes, and `lost_task` is the first task with
//! none. No tie between equal-time events can move any of these.
//!
//! `events` counts popped events: finishes, and landings of payloads
//! between processors. A collocated landing is not an event.
//!
//! # Memory layout / zero-allocation replications
//!
//! All replay state lives in a [`CrashWorkspace`] as flat arrays indexed
//! by a dense *global replica id* (`rep_off[t] + k`) and a dense
//! *(replica, predecessor-slot)* id (`slot_off[rid] + slot`) — no nested
//! `Vec<Vec<…>>`, no per-replica allocation; each sender port keeps one
//! FIFO that is cleared, not freed. Reusing the workspace across runs makes
//! everything after the first replication allocation-free:
//! [`simulate_replication_outcomes_into`] is the sequential
//! zero-allocation driver (pinned by the root `tests/alloc_counter.rs`
//! suite), and the parallel campaign
//! ([`simulate_replication_outcomes`]) hands each deterministic chunk of
//! replications one workspace.

use ftcollections::OrdF64;
use ftsched_core::{CommSelection, Schedule};
use platform::{FailureScenario, Instance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use taskgraph::TaskId;

/// Delivery policy for matched (MC-FTSA) communications under failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Matched sender only (the paper's literal Proposition 4.3).
    Strict,
    /// Re-route to any surviving replica when the matched sender dies.
    Rerouted,
}

/// Status of a replica at the end of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// Completed successfully.
    Done,
    /// Never completed: hosted on a failed processor, killed mid-run, or
    /// starved of an input.
    Dead,
}

/// Whether the application survived the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every task completed at least one replica.
    Completed,
    /// Some task lost all its replicas.
    Failed {
        /// The first task (by id) with no surviving replica.
        lost_task: TaskId,
    },
}

/// Result of a crash simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Achieved application latency: max over exit tasks of the earliest
    /// completed replica. `f64::INFINITY` when the outcome is `Failed`.
    pub latency: f64,
    /// Outcome of the run.
    pub outcome: SimOutcome,
    /// Per task, per replica: final status.
    pub status: Vec<Vec<ReplicaStatus>>,
    /// Per task, per replica: simulated `(start, finish)`; `None` for
    /// dead replicas.
    pub times: Vec<Vec<Option<(f64, f64)>>>,
    /// Number of events popped from the queue (diagnostics; see the
    /// [module docs](self) for what counts).
    pub events: usize,
}

impl SimResult {
    /// Simulated finish of the earliest completed replica of `t`.
    pub fn earliest_finish(&self, t: TaskId) -> Option<f64> {
        self.times[t.index()]
            .iter()
            .flatten()
            .map(|&(_, f)| f)
            .min_by(f64::total_cmp)
    }

    /// Whether the application completed.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, SimOutcome::Completed)
    }
}

/// Scalar summary of one Monte-Carlo replication — everything the
/// campaign statistics need, with no per-replica payload (and therefore
/// no allocation per replication).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationOutcome {
    /// Achieved latency (`f64::INFINITY` when a task was lost).
    pub latency: f64,
    /// The first task (by id) that lost every replica, if any.
    pub lost_task: Option<TaskId>,
    /// Number of events popped from the queue (diagnostics).
    pub events: usize,
}

impl ReplicationOutcome {
    /// Whether every task completed at least one replica.
    pub fn completed(&self) -> bool {
        self.lost_task.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Running,
    Done,
    Dead,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Replica `(task, rep)` on processor `proc` completes.
    Finish { task: TaskId, rep: u32, proc: u32 },
    /// A payload sent by processor `proc` lands on replica `rid`, at its
    /// dense (replica, slot) id `si`, freeing its port slot.
    Land { rid: u32, si: u32, proc: u32 },
}

/// A payload waiting for a slot on its sender's port.
#[derive(Debug, Clone, Copy)]
struct Queued {
    land: Event,
    duration: f64,
    enqueued: f64,
}

const NO_SRC: u32 = u32::MAX;
/// Port capacity of a crash replay: no payload ever waits.
const UNBOUNDED_PORTS: usize = usize::MAX;

/// Flat, reusable crash-replay state. See the [module docs](self) for
/// the layout; every buffer is cleared and refilled in place, so a
/// workspace driven over many replications (or many schedules of the
/// same shape) allocates nothing after its first run.
#[derive(Debug, Default)]
pub struct CrashWorkspace {
    // --- schedule/instance shape (rebuilt by `prepare`) -----------------
    /// Prefix sums of per-task replica counts; `rid = rep_off[t] + k`.
    rep_off: Vec<u32>,
    /// Prefix sums of per-replica predecessor-slot counts.
    slot_off: Vec<u32>,
    /// Hosting processor per global replica id.
    rep_proc: Vec<u32>,
    /// Slot of each edge within its destination's predecessor list.
    slot_of_edge: Vec<u32>,
    /// Matched schedules: prefix sums of per-edge destination replica
    /// counts into `matched_src`.
    matched_off: Vec<u32>,
    /// Matched schedules: per (edge, dst replica), the matched source
    /// replica index (`NO_SRC` when unmatched).
    matched_src: Vec<u32>,
    /// Flattened per-processor placement order (prefix offsets + items).
    order_off: Vec<u32>,
    order_items: Vec<(TaskId, u32)>,
    // --- per-run state ---------------------------------------------------
    fail_at: Vec<f64>,
    /// Per (replica, slot): first arrival received?
    satisfied: Vec<bool>,
    /// Per (replica, slot): potential senders that may still deliver.
    remaining: Vec<u32>,
    /// Per (replica, slot): has the matched sender died (rerouted mode)?
    matched_dead: Vec<bool>,
    satisfied_count: Vec<u32>,
    ready_time: Vec<f64>,
    phase: Vec<Phase>,
    times: Vec<Option<(f64, f64)>>,
    ptr: Vec<u32>,
    free_at: Vec<f64>,
    proc_dead: Vec<bool>,
    events: BinaryHeap<Reverse<(OrdF64, usize)>>,
    event_data: Vec<Event>,
    /// Processors a kill cascade touched, still to advance.
    pending_advance: Vec<u32>,
    kill_work: Vec<(TaskId, u32)>,
    processed: usize,
    matched: bool,
    rerouted: bool,
    // --- sender ports ----------------------------------------------------
    capacity: usize,
    /// Per processor: payloads holding a port slot.
    port_busy: Vec<usize>,
    /// Per processor: payloads waiting for a port slot.
    port_queue: Vec<VecDeque<Queued>>,
    /// Payloads that took a port slot.
    pub(crate) transfers: usize,
    /// Total time payloads waited in port FIFOs.
    pub(crate) queueing_delay: f64,
    // --- replication-driver scratch --------------------------------------
    scenario: FailureScenario,
    ids: Vec<u32>,
}

impl CrashWorkspace {
    /// Creates an empty workspace; buffers are sized by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn rid(&self, t: TaskId, k: usize) -> usize {
        self.rep_off[t.index()] as usize + k
    }

    #[inline]
    fn reps(&self, t: TaskId) -> usize {
        (self.rep_off[t.index() + 1] - self.rep_off[t.index()]) as usize
    }

    #[inline]
    fn slot_idx(&self, rid: usize, slot: usize) -> usize {
        self.slot_off[rid] as usize + slot
    }

    #[inline]
    fn matched_src_of(&self, eid: usize, d: usize) -> u32 {
        self.matched_src[self.matched_off[eid] as usize + d]
    }

    /// Rebuilds the shape tables for `(inst, sched)` — O(v + e + R)
    /// overwrites, allocation-free once the buffers are warm.
    pub(crate) fn prepare(&mut self, inst: &Instance, sched: &Schedule, policy: FallbackPolicy) {
        let dag = &inst.dag;
        let m = inst.num_procs();

        self.matched = matches!(sched.comm, CommSelection::Matched(_));
        self.rerouted = self.matched && policy == FallbackPolicy::Rerouted;

        self.rep_off.clear();
        self.rep_off.push(0);
        for t in dag.tasks() {
            let prev = *self.rep_off.last().expect("nonempty");
            self.rep_off.push(prev + sched.replicas_of(t).len() as u32);
        }
        let total_reps = *self.rep_off.last().expect("nonempty") as usize;

        self.slot_off.clear();
        self.slot_off.push(0);
        self.rep_proc.clear();
        for t in dag.tasks() {
            let preds = dag.preds(t).len() as u32;
            for r in sched.replicas_of(t) {
                let prev = *self.slot_off.last().expect("nonempty");
                self.slot_off.push(prev + preds);
                self.rep_proc.push(r.proc.index() as u32);
            }
        }
        debug_assert_eq!(self.rep_proc.len(), total_reps);

        self.slot_of_edge.clear();
        self.slot_of_edge.resize(dag.num_edges(), u32::MAX);
        for t in dag.tasks() {
            for (slot, &(_, eid)) in dag.preds(t).iter().enumerate() {
                self.slot_of_edge[eid.index()] = slot as u32;
            }
        }

        self.matched_off.clear();
        self.matched_src.clear();
        if let CommSelection::Matched(mm) = &sched.comm {
            self.matched_off.push(0);
            for (_, _, dst, _) in dag.edge_list() {
                let prev = *self.matched_off.last().expect("nonempty");
                self.matched_off
                    .push(prev + sched.replicas_of(dst).len() as u32);
            }
            self.matched_src
                .resize(*self.matched_off.last().expect("nonempty") as usize, NO_SRC);
            for (eid, _, _, _) in dag.edge_list() {
                let base = self.matched_off[eid.index()] as usize;
                for &(s, d) in &mm[eid.index()] {
                    self.matched_src[base + d] = s as u32;
                }
            }
        }

        self.order_off.clear();
        self.order_off.push(0);
        self.order_items.clear();
        for j in 0..m {
            self.order_items
                .extend(sched.proc_order(j).map(|(t, k)| (t, k as u32)));
            self.order_off.push(self.order_items.len() as u32);
        }
    }

    /// Resets the per-run state for `scenario`, with ports of `capacity`
    /// concurrent payloads.
    pub(crate) fn reset_run(
        &mut self,
        inst: &Instance,
        sched: &Schedule,
        scenario: &FailureScenario,
        capacity: usize,
    ) {
        let dag = &inst.dag;
        let m = inst.num_procs();
        let total_reps = self.rep_proc.len();
        let total_slots = *self.slot_off.last().map_or(&0, |x| x) as usize;

        self.fail_at.clear();
        self.fail_at.resize(m, f64::INFINITY);
        for (p, t) in scenario.iter() {
            self.fail_at[p.index()] = t;
        }

        self.satisfied.clear();
        self.satisfied.resize(total_slots, false);
        self.matched_dead.clear();
        self.matched_dead.resize(total_slots, false);
        self.satisfied_count.clear();
        self.satisfied_count.resize(total_reps, 0);
        self.ready_time.clear();
        self.ready_time.resize(total_reps, 0.0);
        self.phase.clear();
        self.phase.resize(total_reps, Phase::Waiting);
        self.times.clear();
        self.times.resize(total_reps, None);

        // `remaining` counts the senders that may still deliver per
        // (replica, slot): all replicas of the predecessor for
        // all-to-all and for rerouted matched delivery; exactly the
        // matched sender for strict.
        self.remaining.clear();
        for t in dag.tasks() {
            let preds = dag.preds(t);
            let reps = sched.replicas_of(t).len();
            for rep in 0..reps {
                for &(p, eid) in preds {
                    let senders = if self.matched && !self.rerouted {
                        u32::from(self.matched_src_of(eid.index(), rep) != NO_SRC)
                    } else {
                        sched.replicas_of(p).len() as u32
                    };
                    self.remaining.push(senders);
                }
            }
        }
        debug_assert_eq!(self.remaining.len(), total_slots);

        self.ptr.clear();
        self.ptr.resize(m, 0);
        self.free_at.clear();
        self.free_at.resize(m, 0.0);
        self.proc_dead.clear();
        self.proc_dead.resize(m, false);
        self.events.clear();
        self.event_data.clear();
        self.pending_advance.clear();
        self.kill_work.clear();
        self.processed = 0;

        self.capacity = capacity;
        self.port_busy.clear();
        self.port_busy.resize(m, 0);
        self.port_queue.resize_with(m, VecDeque::new);
        self.port_queue.iter_mut().for_each(VecDeque::clear);
        self.transfers = 0;
        self.queueing_delay = 0.0;
    }

    /// Kill cascade: marks replicas dead, propagates starvation, flags
    /// matched-dead slots in rerouted mode, and queues the touched
    /// processors for re-advancement.
    fn kill_cascade(&mut self, dag: &taskgraph::Dag) {
        while let Some((t, k)) = self.kill_work.pop() {
            let rid = self.rid(t, k as usize);
            if self.phase[rid] != Phase::Waiting {
                continue;
            }
            self.phase[rid] = Phase::Dead;
            self.pending_advance.push(self.rep_proc[rid]);
            for &(s, eid) in dag.succs(t) {
                let slot = self.slot_of_edge[eid.index()] as usize;
                let sreps = self.reps(s);
                // Who loses a potential sender? All receivers for
                // all-to-all and rerouted matched delivery (the latter
                // additionally flags the matched receivers for fallback
                // delivery); only the matched receivers for strict.
                if self.matched && self.rerouted {
                    for d in 0..sreps {
                        if self.matched_src_of(eid.index(), d) == k {
                            let si = self.slot_idx(self.rid(s, d), slot);
                            self.matched_dead[si] = true;
                        }
                    }
                }
                for d in 0..sreps {
                    if self.matched && !self.rerouted && self.matched_src_of(eid.index(), d) != k {
                        continue;
                    }
                    let rid_s = self.rid(s, d);
                    let si = self.slot_idx(rid_s, slot);
                    if self.phase[rid_s] == Phase::Waiting && !self.satisfied[si] {
                        self.remaining[si] -= 1;
                        if self.remaining[si] == 0 {
                            self.kill_work.push((s, d as u32));
                        }
                    }
                }
            }
        }
    }

    /// Advances processor `j`, then every processor that an overrun's
    /// kill cascade touched, until none is left.
    fn advance(&mut self, j: usize, inst: &Instance) {
        self.try_advance(j, inst);
        while !self.kill_work.is_empty() {
            self.kill_cascade(&inst.dag);
            while let Some(k) = self.pending_advance.pop() {
                self.try_advance(k as usize, inst);
            }
        }
    }

    /// Starts every head replica of processor `j` whose inputs are all
    /// in, pushing its `Finish`; skips dead replicas; on a fail-stop
    /// overrun, queues the rest of `j`'s queue for the kill cascade.
    fn try_advance(&mut self, j: usize, inst: &Instance) {
        if self.proc_dead[j] {
            return;
        }
        let lo = self.order_off[j] as usize;
        let hi = self.order_off[j + 1] as usize;
        while lo + (self.ptr[j] as usize) < hi {
            let (t, k) = self.order_items[lo + self.ptr[j] as usize];
            let rid = self.rid(t, k as usize);
            match self.phase[rid] {
                Phase::Dead => {
                    self.ptr[j] += 1;
                }
                Phase::Running | Phase::Done => return,
                Phase::Waiting => {
                    if (self.satisfied_count[rid] as usize) < inst.dag.preds(t).len() {
                        return; // head waits for inputs
                    }
                    let start = self.ready_time[rid].max(self.free_at[j]);
                    let finish = start + inst.exec.time(t.index(), j);
                    if finish > self.fail_at[j] {
                        // Fail-stop during (or before) this replica: it
                        // and everything after it on this queue are lost.
                        self.proc_dead[j] = true;
                        let at = lo + self.ptr[j] as usize;
                        for idx in at..hi {
                            self.kill_work.push(self.order_items[idx]);
                        }
                        return;
                    }
                    self.phase[rid] = Phase::Running;
                    self.times[rid] = Some((start, finish));
                    self.free_at[j] = finish;
                    self.ptr[j] += 1;
                    self.push_event(
                        finish,
                        Event::Finish {
                            task: t,
                            rep: k,
                            proc: j as u32,
                        },
                    );
                }
            }
        }
    }

    fn push_event(&mut self, at: f64, event: Event) {
        let id = self.event_data.len();
        self.event_data.push(event);
        self.events.push(Reverse((OrdF64::new(at), id)));
    }

    /// Satisfies the dense (replica, slot) id `si` of replica `rid` at
    /// `now`, and advances its processor once every slot is in.
    fn land(&mut self, rid: usize, si: usize, now: f64, inst: &Instance) {
        self.satisfied[si] = true;
        self.satisfied_count[rid] += 1;
        self.ready_time[rid] = self.ready_time[rid].max(now);
        if self.satisfied_count[rid] == self.slot_off[rid + 1] - self.slot_off[rid] {
            self.advance(self.rep_proc[rid] as usize, inst);
        }
    }

    /// Whether sender replica `rep` feeds destination replica `d` of
    /// edge `eid` (slot index `si`): all-to-all feeds everyone; matched
    /// delivery feeds the matched receiver, and under rerouting also
    /// the receivers whose matched sender died or that have none.
    #[inline]
    fn feeds(&self, eid: usize, d: usize, rep: u32, si: usize) -> bool {
        if !self.matched {
            return true;
        }
        let src = self.matched_src_of(eid, d);
        src == rep || (self.rerouted && (src == NO_SRC || self.matched_dead[si]))
    }

    /// A finish at `now`: delivers the replica's payloads to every
    /// receiver it feeds, then advances its processor.
    fn finish(&mut self, task: TaskId, rep: u32, proc: usize, now: f64, inst: &Instance) {
        let rid = self.rid(task, rep as usize);
        self.phase[rid] = Phase::Done;
        for &(s, eid) in inst.dag.succs(task) {
            let vol = inst.dag.volume(eid);
            let slot = self.slot_of_edge[eid.index()] as usize;
            for d in 0..self.reps(s) {
                let rid_s = self.rid(s, d);
                let si = self.slot_idx(rid_s, slot);
                if self.phase[rid_s] != Phase::Waiting
                    || self.satisfied[si]
                    || !self.feeds(eid.index(), d, rep, si)
                {
                    continue;
                }
                let dst = self.rep_proc[rid_s] as usize;
                if dst == proc {
                    self.land(rid_s, si, now, inst);
                    continue;
                }
                let land = Event::Land {
                    rid: rid_s as u32,
                    si: si as u32,
                    proc: proc as u32,
                };
                let duration = vol * inst.platform.delay(proc, dst);
                if self.port_busy[proc] < self.capacity {
                    self.send(proc, now + duration, land);
                } else {
                    self.port_queue[proc].push_back(Queued {
                        land,
                        duration,
                        enqueued: now,
                    });
                }
            }
        }
        self.advance(proc, inst);
    }

    /// Takes a slot on `proc`'s port for a payload landing at `at`.
    fn send(&mut self, proc: usize, at: f64, land: Event) {
        self.port_busy[proc] += 1;
        self.transfers += 1;
        self.push_event(at, land);
    }

    /// The main event loop. `prepare` and `reset_run` must have run.
    pub(crate) fn run(&mut self, inst: &Instance) {
        let m = inst.num_procs();

        for j in 0..m {
            if self.fail_at[j] <= 0.0 {
                self.proc_dead[j] = true;
                let lo = self.order_off[j] as usize;
                let hi = self.order_off[j + 1] as usize;
                for idx in lo..hi {
                    self.kill_work.push(self.order_items[idx]);
                }
            }
        }
        self.kill_cascade(&inst.dag);
        self.pending_advance.clear();
        for j in 0..m {
            self.advance(j, inst);
        }

        while let Some(Reverse((time, id))) = self.events.pop() {
            self.processed += 1;
            let now = time.get();
            match self.event_data[id] {
                Event::Finish { task, rep, proc } => {
                    self.finish(task, rep, proc as usize, now, inst);
                }
                Event::Land { rid, si, proc } => {
                    let (rid, si, proc) = (rid as usize, si as usize, proc as usize);
                    if self.phase[rid] == Phase::Waiting && !self.satisfied[si] {
                        self.land(rid, si, now, inst);
                    }
                    self.port_busy[proc] -= 1;
                    if let Some(q) = self.port_queue[proc].pop_front() {
                        self.queueing_delay += now - q.enqueued;
                        self.send(proc, now + q.duration, q.land);
                    }
                }
            }
        }
    }

    /// Scalar outcome of the completed run (no allocation).
    pub(crate) fn outcome(&self, inst: &Instance) -> ReplicationOutcome {
        let dag = &inst.dag;
        let mut lost_task = None;
        for t in dag.tasks() {
            let lo = self.rep_off[t.index()] as usize;
            let hi = self.rep_off[t.index() + 1] as usize;
            if !self.times[lo..hi].iter().any(Option::is_some) {
                lost_task = Some(t);
                break;
            }
        }
        let latency = if lost_task.is_some() {
            f64::INFINITY
        } else {
            dag.exits()
                .iter()
                .map(|&t| {
                    let lo = self.rep_off[t.index()] as usize;
                    let hi = self.rep_off[t.index() + 1] as usize;
                    self.times[lo..hi]
                        .iter()
                        .flatten()
                        .map(|&(_, f)| f)
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(0.0, f64::max)
        };
        ReplicationOutcome {
            latency,
            lost_task,
            events: self.processed,
        }
    }

    /// Expands the completed run into the nested [`SimResult`] form
    /// (allocates the per-replica payload).
    fn to_result(&self, inst: &Instance) -> SimResult {
        let dag = &inst.dag;
        let out = self.outcome(inst);
        let status: Vec<Vec<ReplicaStatus>> = dag
            .tasks()
            .map(|t| {
                let lo = self.rep_off[t.index()] as usize;
                let hi = self.rep_off[t.index() + 1] as usize;
                self.phase[lo..hi]
                    .iter()
                    .map(|p| match p {
                        Phase::Done => ReplicaStatus::Done,
                        _ => ReplicaStatus::Dead,
                    })
                    .collect()
            })
            .collect();
        let times: Vec<Vec<Option<(f64, f64)>>> = dag
            .tasks()
            .map(|t| {
                let lo = self.rep_off[t.index()] as usize;
                let hi = self.rep_off[t.index() + 1] as usize;
                self.times[lo..hi].to_vec()
            })
            .collect();
        SimResult {
            latency: out.latency,
            outcome: match out.lost_task {
                None => SimOutcome::Completed,
                Some(lost_task) => SimOutcome::Failed { lost_task },
            },
            status,
            times,
            events: out.events,
        }
    }
}

fn check_rerouted_scenario(rerouted: bool, scenario: &FailureScenario) {
    if rerouted {
        assert!(
            scenario.iter().all(|(_, t)| t == 0.0),
            "rerouted matched delivery supports fail-at-time-zero scenarios only"
        );
    }
}

/// Simulates `sched` under `scenario` with the default policy:
/// [`FallbackPolicy::Rerouted`] for matched schedules (requires
/// fail-at-time-zero scenarios), plain first-input-wins for all-to-all.
pub fn simulate(inst: &Instance, sched: &Schedule, scenario: &FailureScenario) -> SimResult {
    simulate_with(inst, sched, scenario, FallbackPolicy::Rerouted)
}

/// Simulates with an explicit matched-communication policy.
///
/// Failure time 0 means the processor never runs anything (the paper's
/// experimental model); positive times model mid-execution fail-stops
/// (a replica whose execution spans the failure instant is lost together
/// with everything planned after it on that processor; a replica
/// finishing at or before the instant completes and its messages are
/// delivered — fail-silent semantics). Rerouted matched delivery is
/// restricted to fail-at-time-zero scenarios.
///
/// Builds a throwaway [`CrashWorkspace`]; batch callers should hold one
/// and use [`simulate_outcome_into`] (scalar result, allocation-free) or
/// [`simulate_into`] (full result).
pub fn simulate_with(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
) -> SimResult {
    let mut ws = CrashWorkspace::new();
    simulate_into(inst, sched, scenario, policy, &mut ws)
}

/// [`simulate_with`] reusing the caller's workspace for the replay state;
/// only the returned [`SimResult`]'s nested payload allocates.
pub fn simulate_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    ws: &mut CrashWorkspace,
) -> SimResult {
    run_into(inst, sched, scenario, policy, ws);
    ws.to_result(inst)
}

/// [`simulate_with`] reusing the caller's workspace and returning only
/// the scalar [`ReplicationOutcome`] — fully allocation-free once the
/// workspace is warm.
pub fn simulate_outcome_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    ws: &mut CrashWorkspace,
) -> ReplicationOutcome {
    run_into(inst, sched, scenario, policy, ws);
    ws.outcome(inst)
}

/// [`simulate_outcome_into`] on a **pre-occupied platform**: each
/// processor becomes free for this DAG's replicas only at
/// `floors[j]` (a persistent occupancy floor, typically
/// `OccupancyTimeline::floors()` from the streaming driver) instead of
/// `0.0`. Failure times in `scenario` are interpreted on the same
/// absolute clock. All-zero floors are bit-identical to
/// [`simulate_outcome_into`]. Allocation-free once the workspace is
/// warm.
pub fn simulate_outcome_from_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    floors: &[f64],
    ws: &mut CrashWorkspace,
) -> ReplicationOutcome {
    assert_eq!(
        floors.len(),
        inst.num_procs(),
        "occupancy floors must cover all processors"
    );
    ws.prepare(inst, sched, policy);
    check_rerouted_scenario(ws.rerouted, scenario);
    ws.reset_run(inst, sched, scenario, UNBOUNDED_PORTS);
    ws.free_at.copy_from_slice(floors);
    ws.run(inst);
    ws.outcome(inst)
}

impl CrashWorkspace {
    /// Streaming support: folds every simulated replica's busy span of
    /// the completed run into `occ` (per processor, in execution order,
    /// so every insert starts at or past the floor) and returns the
    /// earliest simulated start across all replicas (`INFINITY` when
    /// nothing ran).
    pub(crate) fn fold_busy_into(&self, occ: &mut platform::OccupancyTimeline) -> f64 {
        let mut first = f64::INFINITY;
        for j in 0..self.order_off.len().saturating_sub(1) {
            let lo = self.order_off[j] as usize;
            let hi = self.order_off[j + 1] as usize;
            for &(t, k) in &self.order_items[lo..hi] {
                let rid = self.rid(t, k as usize);
                if let Some((s, f)) = self.times[rid] {
                    occ.insert(j, s, f);
                    if s < first {
                        first = s;
                    }
                }
            }
        }
        first
    }
}

fn run_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    ws: &mut CrashWorkspace,
) {
    ws.prepare(inst, sched, policy);
    run_prepared(inst, sched, scenario, ws);
}

/// The per-scenario half of a run: `ws.prepare` must already have been
/// called for this `(inst, sched, policy)`. The replication campaigns
/// prepare once and then only re-run this part — the shape tables are
/// identical across a campaign.
fn run_prepared(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    ws: &mut CrashWorkspace,
) {
    check_rerouted_scenario(ws.rerouted, scenario);
    ws.reset_run(inst, sched, scenario, UNBOUNDED_PORTS);
    ws.run(inst);
}

/// Monte-Carlo crash campaign: simulates `replications` independent
/// uniform `crashes`-processor fail-at-time-zero scenarios against
/// `sched` on `threads` workers of [`crate::parallel::parallel_map_with`]
/// and returns one scalar [`ReplicationOutcome`] per replication. Each
/// worker replays all its replications on one [`CrashWorkspace`], so the
/// event replay allocates nothing after a worker's first replication.
///
/// Replication `r` draws its scenario from
/// [`crate::replication_seed`]`(base_seed, r)`, so the returned vector is
/// bit-identical whatever the thread count and stable across reruns —
/// the contract `tests/parallel_determinism.rs` (repo root) enforces.
///
/// # Panics
///
/// If `crashes` exceeds the processor count or `threads == 0`.
pub fn simulate_replication_outcomes(
    inst: &Instance,
    sched: &Schedule,
    crashes: usize,
    replications: usize,
    base_seed: u64,
    threads: usize,
) -> Vec<ReplicationOutcome> {
    crate::parallel::parallel_map_with(
        replications,
        threads,
        || prepared_workspace(inst, sched),
        |ws, r| replication_outcome(inst, sched, crashes, base_seed, r as u32, ws),
    )
}

/// A fresh workspace prepared for a replication campaign over `sched`.
fn prepared_workspace(inst: &Instance, sched: &Schedule) -> CrashWorkspace {
    let mut ws = CrashWorkspace::new();
    ws.prepare(inst, sched, FallbackPolicy::Rerouted);
    ws
}

/// Sequential zero-allocation Monte-Carlo driver: runs `replications`
/// scenarios into `out` (cleared first) reusing `ws` throughout. After
/// the first replication on a warm workspace, the entire campaign
/// performs **no** heap allocation — the counting-allocator regression
/// test at the repo root pins this. Bit-identical to
/// [`simulate_replication_outcomes`].
pub fn simulate_replication_outcomes_into(
    inst: &Instance,
    sched: &Schedule,
    crashes: usize,
    replications: usize,
    base_seed: u64,
    out: &mut Vec<ReplicationOutcome>,
    ws: &mut CrashWorkspace,
) {
    out.clear();
    out.reserve(replications);
    ws.prepare(inst, sched, FallbackPolicy::Rerouted);
    for r in 0..replications as u32 {
        out.push(replication_outcome(inst, sched, crashes, base_seed, r, ws));
    }
}

/// Draws replication `r`'s scenario into `ws.scenario` exactly as the
/// pre-workspace implementation drew it (same seed derivation, same RNG
/// consumption), reusing the workspace scratch.
fn prep_scenario(ws: &mut CrashWorkspace, m: usize, crashes: usize, base_seed: u64, r: u32) {
    let mut rng = StdRng::seed_from_u64(crate::replication_seed(base_seed, r as u64));
    if crashes == 0 {
        ws.scenario.clear();
    } else {
        let CrashWorkspace { scenario, ids, .. } = ws;
        scenario.refill_uniform(&mut rng, m, crashes, ids);
    }
}

/// One replication against a workspace already `prepare`d for
/// `(inst, sched, Rerouted)`.
fn replication_outcome(
    inst: &Instance,
    sched: &Schedule,
    crashes: usize,
    base_seed: u64,
    r: u32,
    ws: &mut CrashWorkspace,
) -> ReplicationOutcome {
    prep_scenario(ws, inst.num_procs(), crashes, base_seed, r);
    let scen = std::mem::take(&mut ws.scenario);
    run_prepared(inst, sched, &scen, ws);
    ws.scenario = scen;
    ws.outcome(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_core::{schedule, Algorithm, Replica};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::{ExecutionMatrix, Platform, ProcId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::DagBuilder;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn diamond_instance(m: usize) -> Instance {
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|_| b.add_task(10.0)).collect();
        b.add_edge(t[0], t[1], 5.0);
        b.add_edge(t[0], t[2], 5.0);
        b.add_edge(t[1], t[3], 5.0);
        b.add_edge(t[2], t[3], 5.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(m, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &vec![1.0; m]);
        Instance::new(dag, plat, exec)
    }

    #[test]
    fn no_failure_matches_lower_bound_ftsa() {
        for seed in 0..4u64 {
            let mut r = rng(seed);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            for eps in [0usize, 1, 2] {
                let s = schedule(&inst, eps, Algorithm::Ftsa, &mut rng(seed)).unwrap();
                let sim = simulate(&inst, &s, &FailureScenario::none());
                assert!(sim.completed());
                assert!(
                    (sim.latency - s.latency_lower_bound()).abs() < 1e-6,
                    "sim(∅) must equal M* for FTSA (eps={eps}, seed={seed}): \
                     {} vs {}",
                    sim.latency,
                    s.latency_lower_bound()
                );
            }
        }
    }

    #[test]
    fn no_failure_matches_lower_bound_mc_ftsa() {
        let mut r = rng(10);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng(10)).unwrap();
        let sim = simulate(&inst, &s, &FailureScenario::none());
        assert!(sim.completed());
        assert!((sim.latency - s.latency_lower_bound()).abs() < 1e-6);
    }

    #[test]
    fn no_failure_ftbar_within_bounds() {
        let mut r = rng(11);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::Ftbar, &mut rng(11)).unwrap();
        let sim = simulate(&inst, &s, &FailureScenario::none());
        assert!(sim.completed());
        // FTBAR duplicates placed after a consumer can only improve
        // arrivals, so the simulation may beat the stored bound.
        assert!(sim.latency <= s.latency_lower_bound() + 1e-6);
    }

    #[test]
    fn proposition_4_2_bounds_hold_for_all_to_all() {
        for seed in 0..4u64 {
            let mut r = rng(seed + 50);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            // Every all-to-all pipeline configuration (the eq. 3/4
            // guarantee is specific to all-to-all first-arrival
            // semantics; matched schedules are covered separately).
            let all_to_all = Algorithm::ALL
                .into_iter()
                .filter(|a| a.scheduler().comm == ftsched_core::pipeline::CommAxis::AllToAll);
            for (eps, alg) in [1usize, 2]
                .into_iter()
                .flat_map(|e| all_to_all.clone().map(move |a| (e, a)))
            {
                let s = schedule(&inst, eps, alg, &mut rng(seed)).unwrap();
                for probe in 0..6u64 {
                    let scen = FailureScenario::uniform(
                        &mut rng(seed * 100 + probe),
                        inst.num_procs(),
                        eps,
                    );
                    let sim = simulate(&inst, &s, &scen);
                    assert!(sim.completed(), "Theorem 4.1 violated ({alg:?})");
                    assert!(
                        sim.latency <= s.latency_upper_bound() + 1e-6,
                        "L <= M violated ({alg:?}, eps={eps})"
                    );
                    assert!(
                        sim.latency >= s.latency_lower_bound() - 1e-6,
                        "M* <= L violated ({alg:?}, eps={eps})"
                    );
                }
            }
        }
    }

    #[test]
    fn mc_ftsa_rerouted_always_completes() {
        for seed in 0..4u64 {
            let mut r = rng(seed + 70);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            for eps in [1usize, 2] {
                let s = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut rng(seed)).unwrap();
                for probe in 0..6u64 {
                    let scen = FailureScenario::uniform(
                        &mut rng(seed * 131 + probe),
                        inst.num_procs(),
                        eps,
                    );
                    let sim = simulate(&inst, &s, &scen);
                    assert!(sim.completed(), "rerouted MC-FTSA must complete");
                    assert!(sim.latency.is_finite());
                }
            }
        }
    }

    #[test]
    fn mc_ftsa_strict_times_match_plan_when_completed() {
        // Under strict delivery, every surviving replica runs exactly at
        // its planned (deterministic) times.
        let mut r = rng(12);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng(12)).unwrap();
        for probe in 0..10u64 {
            let scen = FailureScenario::uniform(&mut rng(probe), inst.num_procs(), 2);
            let sim = simulate_with(&inst, &s, &scen, FallbackPolicy::Strict);
            if !sim.completed() {
                continue; // the composition gap: allowed under strict
            }
            for t in inst.dag.tasks() {
                for (k, tm) in sim.times[t.index()].iter().enumerate() {
                    if let Some((st, fi)) = *tm {
                        let r = s.replicas_of(t)[k];
                        assert!((st - r.start_lb).abs() < 1e-6);
                        assert!((fi - r.finish_lb).abs() < 1e-6);
                    }
                }
            }
            assert!(sim.latency >= s.latency_lower_bound() - 1e-6);
            assert!(sim.latency <= s.latency_upper_bound() + 1e-6);
        }
    }

    /// Documents the Proposition 4.3 composition gap: per-edge robust
    /// matchings do not guarantee joint input survival. One failure kills
    /// both replicas of the join task under strict delivery; rerouted
    /// delivery recovers it.
    #[test]
    fn strict_semantics_composition_gap() {
        // DAG: a → t, b → t. ε = 1.
        // a replicas: P0, P1; b replicas: P0, P2; t replicas: P3, P4.
        // Matchings: a@P0 → t@P3, a@P1 → t@P4; b@P0 → t@P4, b@P2 → t@P3.
        // Failure of P0 kills a@P0 (starving t@P3 via a) and b@P0
        // (starving t@P4 via b): both replicas of t starve.
        let mut bd = DagBuilder::new();
        let a = bd.add_task(1.0);
        let b = bd.add_task(1.0);
        let t = bd.add_task(1.0);
        let e_at = bd.add_edge(a, t, 1.0);
        let e_bt = bd.add_edge(b, t, 1.0);
        let dag = bd.build().unwrap();
        let plat = Platform::uniform_delay(5, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0; 5]);
        let inst = Instance::new(dag, plat, exec);

        let mk = |proc: u32, s: f64, f: f64| Replica {
            proc: ProcId(proc),
            start_lb: s,
            finish_lb: f,
            start_ub: s,
            finish_ub: f,
        };
        let mut matched = vec![Vec::new(); 2];
        matched[e_at.index()] = vec![(0usize, 0usize), (1, 1)];
        matched[e_bt.index()] = vec![(0usize, 1usize), (1, 0)];
        let sched = ftsched_core::Schedule::from_parts(
            1,
            vec![
                vec![mk(0, 0.0, 1.0), mk(1, 0.0, 1.0)],
                vec![mk(0, 1.0, 2.0), mk(2, 0.0, 1.0)],
                vec![mk(3, 3.0, 4.0), mk(4, 3.0, 4.0)],
            ],
            vec![
                vec![(a, 0), (b, 0)],
                vec![(a, 1)],
                vec![(b, 1)],
                vec![(t, 0)],
                vec![(t, 1)],
            ],
            CommSelection::Matched(matched),
            vec![a, b, t],
        );

        let scen = FailureScenario::at_time_zero([ProcId(0)]);
        let strict = simulate_with(&inst, &sched, &scen, FallbackPolicy::Strict);
        assert!(
            !strict.completed(),
            "strict matched delivery must exhibit the composition gap"
        );
        let rerouted = simulate_with(&inst, &sched, &scen, FallbackPolicy::Rerouted);
        assert!(rerouted.completed(), "rerouting must recover the join task");
    }

    #[test]
    fn exhaustive_single_failures_diamond() {
        let inst = diamond_instance(4);
        for alg in Algorithm::ALL {
            let s = schedule(&inst, 1, alg, &mut rng(3)).unwrap();
            for p in 0..4u32 {
                let scen = FailureScenario::at_time_zero([ProcId(p)]);
                let sim = simulate(&inst, &s, &scen);
                assert!(sim.completed(), "{alg:?} lost a task when P{p} failed");
            }
        }
    }

    #[test]
    fn exhaustive_double_failures_diamond() {
        let inst = diamond_instance(5);
        for alg in Algorithm::ALL {
            let s = schedule(&inst, 2, alg, &mut rng(4)).unwrap();
            for a in 0..5u32 {
                for b in (a + 1)..5u32 {
                    let scen = FailureScenario::at_time_zero([ProcId(a), ProcId(b)]);
                    let sim = simulate(&inst, &s, &scen);
                    assert!(sim.completed(), "{alg:?} failed under {{P{a}, P{b}}}");
                }
            }
        }
    }

    #[test]
    fn more_failures_than_tolerated_can_lose_tasks() {
        let inst = diamond_instance(3);
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng(5)).unwrap();
        let scen = FailureScenario::at_time_zero((0..3).map(ProcId));
        let sim = simulate(&inst, &s, &scen);
        assert!(!sim.completed());
        assert_eq!(sim.latency, f64::INFINITY);
    }

    #[test]
    fn failed_processor_executes_nothing() {
        let inst = diamond_instance(4);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng(6)).unwrap();
        let scen = FailureScenario::at_time_zero([ProcId(0)]);
        let sim = simulate(&inst, &s, &scen);
        for t in inst.dag.tasks() {
            for (k, r) in s.replicas_of(t).iter().enumerate() {
                if r.proc == ProcId(0) {
                    assert_eq!(sim.status[t.index()][k], ReplicaStatus::Dead);
                    assert!(sim.times[t.index()][k].is_none());
                }
            }
        }
    }

    #[test]
    fn mid_execution_failure_keeps_earlier_work() {
        // Single proc chain: a (0..10) then c (10..20); proc fails at 15:
        // a completes, c dies.
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 0.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 0.01]);
        let inst = Instance::new(dag, plat, exec);
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng(7)).unwrap();
        // Both tasks land on fast P0 (P1 is 100x slower; intra comm free).
        assert_eq!(s.replicas_of(a)[0].proc, ProcId(0));
        assert_eq!(s.replicas_of(c)[0].proc, ProcId(0));
        let scen = FailureScenario::new(vec![(ProcId(0), 15.0)]);
        let sim = simulate(&inst, &s, &scen);
        assert_eq!(sim.status[a.index()][0], ReplicaStatus::Done);
        assert_eq!(sim.status[c.index()][0], ReplicaStatus::Dead);
        assert!(!sim.completed());
    }

    #[test]
    fn failure_exactly_at_finish_boundary_completes() {
        let mut b = DagBuilder::new();
        b.add_task(10.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(1, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0]);
        let inst = Instance::new(dag, plat, exec);
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut rng(8)).unwrap();
        let sim = simulate(&inst, &s, &FailureScenario::new(vec![(ProcId(0), 10.0)]));
        assert!(
            sim.completed(),
            "fail-silent boundary: finish == τ completes"
        );
        assert_eq!(sim.latency, 10.0);
    }

    #[test]
    fn mc_ftsa_exhaustive_double_failures_rerouted() {
        let mut r = rng(60);
        let inst = paper_instance(
            &mut r,
            &PaperInstanceConfig {
                tasks_lo: 30,
                tasks_hi: 30,
                procs: 6,
                ..Default::default()
            },
        );
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng(60)).unwrap();
        for a in 0..6u32 {
            for b in (a + 1)..6u32 {
                let scen = FailureScenario::at_time_zero([ProcId(a), ProcId(b)]);
                let sim = simulate(&inst, &s, &scen);
                assert!(sim.completed(), "rerouted delivery failed {{P{a}, P{b}}}");
                assert!(sim.latency.is_finite());
            }
        }
    }

    #[test]
    fn replications_complete_within_design_point() {
        let mut r = rng(90);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut rng(90)).unwrap();
        let sims = simulate_replication_outcomes(&inst, &s, 2, 20, 0xCAFE, 2);
        assert_eq!(sims.len(), 20);
        for sim in &sims {
            assert!(sim.completed(), "≤ ε crashes must not lose tasks");
            assert!(sim.latency <= s.latency_upper_bound() + 1e-6);
            assert!(sim.latency >= s.latency_lower_bound() - 1e-6);
        }
    }

    #[test]
    fn replications_are_thread_count_invariant() {
        let mut r = rng(91);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng(91)).unwrap();
        let a = simulate_replication_outcomes(&inst, &s, 1, 16, 7, 1);
        let b = simulate_replication_outcomes(&inst, &s, 1, 16, 7, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.latency.to_bits(), y.latency.to_bits());
            assert_eq!(x, y);
        }
    }

    #[test]
    fn outcomes_agree_with_full_results() {
        // The parallel campaign must match the sequential zero-allocation
        // driver, and each replication must equal a full `simulate` of
        // the scenario its seed draws.
        let mut r = rng(92);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng(92)).unwrap();
        let scalar = simulate_replication_outcomes(&inst, &s, 2, 24, 0xBEEF, 2);
        let mut seq = Vec::new();
        let mut ws = CrashWorkspace::new();
        simulate_replication_outcomes_into(&inst, &s, 2, 24, 0xBEEF, &mut seq, &mut ws);
        assert_eq!(scalar.len(), 24);
        assert_eq!(seq, scalar);
        for (i, o) in scalar.iter().enumerate() {
            let mut draw = StdRng::seed_from_u64(crate::replication_seed(0xBEEF, i as u64));
            let scen = FailureScenario::uniform(&mut draw, inst.num_procs(), 2);
            let f = simulate(&inst, &s, &scen);
            assert_eq!(f.latency.to_bits(), o.latency.to_bits());
            assert_eq!(f.completed(), o.completed());
            assert_eq!(f.events, o.events);
        }
    }

    #[test]
    fn workspace_reuse_across_scenarios_and_policies() {
        // One workspace driven across different scenarios, policies and
        // schedules must match fresh-workspace runs exactly.
        let inst = diamond_instance(4);
        let mut ws = CrashWorkspace::new();
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy] {
            let s = schedule(&inst, 1, alg, &mut rng(13)).unwrap();
            for p in 0..4u32 {
                let scen = FailureScenario::at_time_zero([ProcId(p)]);
                let reused = simulate_into(&inst, &s, &scen, FallbackPolicy::Rerouted, &mut ws);
                let fresh = simulate(&inst, &s, &scen);
                assert_eq!(reused.latency.to_bits(), fresh.latency.to_bits());
                assert_eq!(reused.times, fresh.times);
                assert_eq!(reused.status, fresh.status);
            }
        }
    }

    #[test]
    fn deterministic_simulation() {
        let inst = diamond_instance(4);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng(9)).unwrap();
        let scen = FailureScenario::at_time_zero([ProcId(1)]);
        let a = simulate(&inst, &s, &scen);
        let b = simulate(&inst, &s, &scen);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.times, b.times);
    }
}
