//! Crash replay: a static pass over a schedule's processor queues, and an
//! event loop beside it for sender ports.
//!
//! Every replay with unbounded ports runs the static pass of
//! [`CrashWorkspace`]: single runs, the Monte-Carlo crash and reliability
//! drivers, the campaign and the streaming drivers. The event loop replays
//! the bounded ports of [`crate::contention`], takes the one case the pass
//! hands over (see [The static pass](#the-static-pass)), and is the pass's
//! oracle through [`simulate_event_loop_into`].
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
//! # Replica states
//!
//! With unbounded ports a replay has one outcome. Each replica ends in
//! one of three states:
//!
//! * **dead** when its processor failed at time 0; when an earlier
//!   replica on its processor overran the failure time, which kills the
//!   rest of that queue; or when every possible sender of one of its
//!   input slots is dead;
//! * **blocked** when some slot has no finished sender, yet not all of
//!   that slot's senders are dead. A blocked replica never starts, and
//!   its processor queue stalls behind it;
//! * **finished** otherwise. It starts at the max of 0, of each slot's
//!   first arrival — the min over its finished senders of `finish + V·d`
//!   (`finish` itself from a collocated sender) — and of the previous
//!   finish on its processor, or the processor's release floor. It
//!   finishes at `start + E(t, P)`.
//!
//! Which replicas send to a slot: under all-to-all communication, every
//! replica of the predecessor; under strict delivery, the matched
//! replica only (with none, the slot is never fed and never starved);
//! under rerouted delivery, the matched replica unless it is dead or
//! missing, and then every replica.
//!
//! # The static pass
//!
//! The pass sweeps the processor queues in schedule order. It walks
//! `schedule_order`; for each task it advances each primary replica's
//! processor queue up to, but not including, that primary, which
//! computes the duplicates placed at that step, and then it computes the
//! primaries. At the end it drains every queue. A replica reads the
//! replica before it on its queue, which the sweep always computed
//! first, and its senders. A sender the sweep has not reached yet is
//! *late*: the replica reads its previous sweep's finish (none in the
//! first sweep). Let `λ` be the number of late senders.
//!
//! * **One sweep.** With `λ = 0` every replica is computed from final
//!   inputs, so the first sweep is final. FTSA, MC-FTSA, P-FTSA and
//!   MC-FTBAR place every replica of a task at its step, and each queue
//!   in step order, so their schedules always finish in one sweep.
//! * **Time-0 fixpoint.** The duplication pass of FTBAR and FTSA+MST
//!   appends a duplicate at a later step than receivers it feeds, and a
//!   hand-built queue may run against `schedule_order`. When every
//!   failure time is 0 (or none), deaths are structural: a pre-pass over
//!   the DAG's topological order marks them, and the sweeps then only
//!   compute finish times. (Without it, a receiver would take a late
//!   sender that later starves for a live one, and stall its queue as
//!   blocked instead of dying.) The pass sweeps again while some late
//!   sender's finish moved. Let `L` be the replay's outcome, with a
//!   blocked replica finishing at `+∞`.
//!   - Every sweep is an upper bound of `L`: the rule is monotone in its
//!     inputs, and the first sweep reads `+∞` for late senders.
//!   - A sweep in which no late finish moved read only its own final
//!     values, so its times solve the rule's equations.
//!   - `L` is the greatest solution: by induction over `L`'s finishes in
//!     time order, every solution is at most `L` at each finished
//!     replica, since the inputs that decide that replica finished
//!     earlier. A solution that is also an upper bound is therefore `L`.
//!   - The pass ends within `λ + 1` sweeps. The inputs that decide a
//!     replica's finish in `L` — the replica before it on its queue and,
//!     per slot, the sender whose payload lands first — finished before
//!     it started in the event loop, so the chain of deciding inputs
//!     behind a replica holds no replica twice. A replica is exact after
//!     one sweep more than the late senders on that chain; a late
//!     sender's chain holds at most `λ - 1` others. So every late sender
//!     is exact after sweep `λ`, and sweep `λ + 1` moves none of them.
//! * **Handed to the loop.** With a positive failure time and `λ > 0`
//!   (late duplicates under timed crashes), an overrun death depends on
//!   times that late senders have not settled yet, so deaths are not
//!   structural, and the pass hands the replay to the event loop. No
//!   preset reaches this case: the timed-crash and online presets run
//!   FTSA and MC-FTSA only.
//!
//! A replay of a schedule whose queues do not list each replica exactly
//! once, on its own processor, goes to the event loop too.
//!
//! # Sender ports and event order
//!
//! The event loop replays the contention model, where bounded ports make
//! the event order matter, and serves as the pass's oracle. A payload
//! between two processors holds one of its sender's `capacity` port
//! slots for `V · d(src, dst)`, or waits in that port's FIFO while all
//! are busy; the oracle gives every port `usize::MAX` slots, and
//! [`crate::contention`] gives one or `k`. A payload between collocated
//! replicas bypasses the port and lands at once. Events pop from a
//! binary heap in `(time, push order)`:
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
//! order: it is the contention model's own. With unbounded ports the
//! loop's outcome is the one [Replica states](#replica-states)
//! describes: a slot's first landing is the min over its senders'
//! arrivals, since every push lands at or after `now` and the heap pops
//! in time order, and a death is structural or an overrun. No tie
//! between equal-time events can move it.
//!
//! # Memory layout / zero-allocation replications
//!
//! The replay reads the schedule in place: each processor's queue is a
//! [`Schedule::proc_order`] slice, a receiver's matched sender is found
//! by scanning its edge's pairs in the schedule's matched table, and a
//! receiver's slot on edge `eid` is `dag.pred_slot(eid)` less the start
//! of its task's [`taskgraph::Dag::pred_range`]. All the state the replay
//! owns lives in a [`CrashWorkspace`] as flat arrays indexed by a dense
//! *global replica id* (`rep_off[t] + k`) and, for the event loop, a
//! dense *(replica, predecessor-slot)* id (`slot_off[rid] + slot`) — no
//! nested `Vec<Vec<…>>`, no per-replica allocation; each sender port
//! keeps one FIFO that is cleared, not freed. `rep_pos` holds each
//! replica's position within its processor's queue and `ptr` each
//! processor's next position, in both engines. `prepare` rebuilds
//! `rep_off`, `rep_proc` and `rep_pos` per call; `slot_off` is built
//! only when the event loop runs. Reusing the workspace across runs
//! makes every replay after the first allocation-free: a warm
//! [`simulate_outcome_into`] allocates nothing (pinned by the root
//! `tests/alloc_counter.rs` suite), and the Monte-Carlo campaign
//! ([`summarize_replications`]) gives each worker one workspace and
//! folds the outcomes into a [`ReplicationSummary`] as they come back in
//! order, so its memory does not grow with the replication count.

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

/// Result of a crash simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Achieved application latency: max over exit tasks of the earliest
    /// completed replica. `f64::INFINITY` when a task was lost.
    pub latency: f64,
    /// The first task (by id) that lost every replica, if any.
    pub lost_task: Option<TaskId>,
    /// Per task, per replica: simulated `(start, finish)` of a replica
    /// that ran to completion; `None` for one that never did (hosted on
    /// a failed processor, killed mid-run, starved of an input, or
    /// blocked).
    pub times: Vec<Vec<Option<(f64, f64)>>>,
}

impl SimResult {
    /// Whether the application completed.
    pub fn completed(&self) -> bool {
        self.lost_task.is_none()
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
}

impl ReplicationOutcome {
    /// Whether every task completed at least one replica.
    pub fn completed(&self) -> bool {
        self.lost_task.is_none()
    }
}

/// A Monte-Carlo campaign folded in replication order: how many runs
/// completed, and the sum, minimum and maximum of their latencies.
/// [`add`](ReplicationSummary::add) is a left fold, so the sum has the
/// same bits at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationSummary {
    /// Replications folded.
    pub replications: usize,
    /// Replications in which every task completed.
    pub completed: usize,
    /// Sum of the completed runs' latencies, in replication order from
    /// `-0.0` (the start `Iterator::sum` uses).
    pub latency_sum: f64,
    /// Smallest completed latency (`INFINITY` when none completed).
    pub latency_min: f64,
    /// Largest completed latency (`0.0` when none completed; latencies
    /// are never negative).
    pub latency_max: f64,
}

impl Default for ReplicationSummary {
    fn default() -> Self {
        ReplicationSummary {
            replications: 0,
            completed: 0,
            latency_sum: -0.0,
            latency_min: f64::INFINITY,
            latency_max: 0.0,
        }
    }
}

impl ReplicationSummary {
    /// Folds in the next replication: its latency if it completed.
    pub fn add(&mut self, completed_latency: Option<f64>) {
        self.replications += 1;
        if let Some(latency) = completed_latency {
            self.completed += 1;
            self.latency_sum += latency;
            self.latency_min = f64::min(self.latency_min, latency);
            self.latency_max = f64::max(self.latency_max, latency);
        }
    }

    /// Mean latency of the completed runs (`None` when none completed).
    pub fn mean_latency(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.latency_sum / self.completed as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not started: blocked, or not reached yet.
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

/// What the static pass makes of a replica's input slots.
enum Inputs {
    /// Every slot has a first arrival; the latest of them.
    Ready(f64),
    /// Some slot has no finished sender yet not all of its senders died.
    Blocked,
    /// Every possible sender of some slot died.
    Starved,
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
    /// Hosting processor per global replica id.
    rep_proc: Vec<u32>,
    /// Position of each replica within its processor's queue
    /// ([`Schedule::proc_order`]).
    rep_pos: Vec<u32>,
    /// Whether the queues list each replica exactly once, on its own
    /// processor, and `schedule_order` names real tasks: the static
    /// pass's precondition.
    pass_fits: bool,
    matched: bool,
    rerouted: bool,
    // --- event-loop shape (built on demand by `prepare_loop`) ------------
    /// Whether `slot_off` matches the prepared schedule.
    loop_ready: bool,
    /// Prefix sums of per-replica predecessor-slot counts.
    slot_off: Vec<u32>,
    // --- per-run state ---------------------------------------------------
    fail_at: Vec<f64>,
    /// Per processor: release floor of its first replica.
    floor: Vec<f64>,
    phase: Vec<Phase>,
    times: Vec<Option<(f64, f64)>>,
    /// Per processor: the next position within its queue, in both
    /// engines.
    ptr: Vec<u32>,
    free_at: Vec<f64>,
    proc_dead: Vec<bool>,
    // --- static-pass state -------------------------------------------
    /// Per processor: a blocked replica stalls the rest of the queue.
    stalled: Vec<bool>,
    /// Per replica: read by a receiver before the sweep reached it.
    late: Vec<bool>,
    /// Number of late senders (`λ` in the module docs).
    late_count: u32,
    /// Sweeps of the last replay's pass; 0 when the event loop ran.
    sweeps: u32,
    // --- event-loop state ----------------------------------------------
    /// Per (replica, slot): first arrival received?
    satisfied: Vec<bool>,
    /// Per (replica, slot): potential senders that may still deliver.
    remaining: Vec<u32>,
    /// Per (replica, slot): has the matched sender died (rerouted mode)?
    matched_dead: Vec<bool>,
    satisfied_count: Vec<u32>,
    ready_time: Vec<f64>,
    events: BinaryHeap<Reverse<(OrdF64, usize)>>,
    event_data: Vec<Event>,
    /// Processors a kill cascade touched, still to advance.
    pending_advance: Vec<u32>,
    kill_work: Vec<(TaskId, u32)>,
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

    /// The last replay expanded into a [`SimResult`] (the oracle tests
    /// read it after an `_outcome_` entry).
    #[doc(hidden)]
    pub fn last_result(&self, inst: &Instance) -> SimResult {
        self.to_result(inst)
    }

    /// `(sweeps, λ)` of the last replay's static pass, or `None` when the
    /// event loop replayed it (see the [module docs](self)).
    #[doc(hidden)]
    pub fn last_pass(&self) -> Option<(u32, u32)> {
        (self.sweeps > 0).then_some((self.sweeps, self.late_count))
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

    /// Rebuilds the shape tables for `(inst, sched)` — O(v + R)
    /// overwrites, allocation-free once the buffers are warm. The replay
    /// reads the queues, the matched table and the DAG's pred slots from
    /// `sched` and `inst` in place, so every replay after it must be
    /// given the same two.
    pub(crate) fn prepare(&mut self, inst: &Instance, sched: &Schedule, policy: FallbackPolicy) {
        let dag = &inst.dag;
        let m = inst.num_procs();

        self.matched = matches!(sched.comm, CommSelection::Matched(_));
        self.rerouted = self.matched && policy == FallbackPolicy::Rerouted;
        self.loop_ready = false;

        self.rep_off.clear();
        self.rep_off.push(0);
        self.rep_proc.clear();
        for t in dag.tasks() {
            let reps = sched.replicas_of(t);
            self.rep_proc
                .extend(reps.iter().map(|r| r.proc.index() as u32));
            self.rep_off.push(self.rep_proc.len() as u32);
        }

        let v = dag.num_tasks();
        let queued: usize = (0..m).map(|j| sched.proc_order(j).len()).sum();
        self.rep_pos.clear();
        self.rep_pos.resize(self.rep_proc.len(), u32::MAX);
        self.pass_fits =
            queued == self.rep_proc.len() && sched.schedule_order.iter().all(|t| t.index() < v);
        for j in 0..m {
            for (pos, &(t, k)) in sched.proc_order(j).iter().enumerate() {
                let rid = self.rid(t, k as usize);
                if self.rep_proc[rid] as usize != j || self.rep_pos[rid] != u32::MAX {
                    self.pass_fits = false;
                }
                self.rep_pos[rid] = pos as u32;
            }
        }
    }

    /// Builds the event loop's slot table for the prepared schedule,
    /// once per [`prepare`](Self::prepare).
    fn prepare_loop(&mut self, inst: &Instance) {
        if self.loop_ready {
            return;
        }
        let dag = &inst.dag;
        self.slot_off.clear();
        self.slot_off.push(0);
        for t in dag.tasks() {
            let preds = dag.preds(t).len() as u32;
            for _ in 0..self.reps(t) {
                let prev = *self.slot_off.last().expect("nonempty");
                self.slot_off.push(prev + preds);
            }
        }
        self.loop_ready = true;
    }

    /// Resets the per-run state both engines share for `scenario`, with
    /// each processor released at `floors[j]` (0 when `None`).
    fn reset_common(&mut self, m: usize, scenario: &FailureScenario, floors: Option<&[f64]>) {
        let total_reps = self.rep_proc.len();
        self.fail_at.clear();
        self.fail_at.resize(m, f64::INFINITY);
        for (p, t) in scenario.iter() {
            self.fail_at[p.index()] = t;
        }
        self.floor.clear();
        match floors {
            Some(f) => self.floor.extend_from_slice(f),
            None => self.floor.resize(m, 0.0),
        }
        self.phase.clear();
        self.phase.resize(total_reps, Phase::Waiting);
        self.times.clear();
        self.times.resize(total_reps, None);
        self.ptr.clear();
        self.ptr.resize(m, 0);
        self.free_at.clear();
        self.free_at.extend_from_slice(&self.floor);
        self.proc_dead.clear();
        self.proc_dead.resize(m, false);
    }

    // --- the static pass -------------------------------------------------

    /// Replays the prepared schedule with unbounded ports: the static
    /// pass, or the event loop for the case the pass hands over.
    fn replay(
        &mut self,
        inst: &Instance,
        sched: &Schedule,
        scenario: &FailureScenario,
        floors: Option<&[f64]>,
    ) {
        check_rerouted_scenario(self.rerouted, scenario);
        self.reset_common(inst.num_procs(), scenario, floors);
        if !self.pass(inst, sched) {
            self.run_event_loop(inst, sched, scenario, floors, UNBOUNDED_PORTS);
        }
    }

    /// The static pass over a freshly reset run; `false` hands the replay
    /// to the event loop.
    fn pass(&mut self, inst: &Instance, sched: &Schedule) -> bool {
        if !self.pass_fits {
            return false;
        }
        let m = inst.num_procs();
        self.late.clear();
        self.late.resize(self.rep_proc.len(), false);
        self.late_count = 0;
        self.sweeps = 0;

        let mut any_dead = false;
        for j in 0..m {
            if self.fail_at[j] <= 0.0 {
                self.proc_dead[j] = true;
                any_dead = true;
                for &(t, k) in sched.proc_order(j) {
                    let rid = self.rid(t, k as usize);
                    self.phase[rid] = Phase::Dead;
                }
            }
        }
        let timed = self.fail_at.iter().any(|&f| f > 0.0 && f < f64::INFINITY);
        if !timed && any_dead {
            self.starve(inst, sched);
        }
        loop {
            self.sweeps += 1;
            let moved = self.sweep(inst, sched);
            if self.late_count == 0 {
                return true;
            }
            if timed {
                return false;
            }
            if !moved {
                return true;
            }
        }
    }

    /// Time-0 deaths by starvation, in one pass over the topological
    /// order: a replica dies when every possible sender of one of its
    /// slots is dead (see [Replica states](self#replica-states)).
    fn starve(&mut self, inst: &Instance, sched: &Schedule) {
        let dag = &inst.dag;
        for &t in dag.topological_order() {
            let lo = self.rep_off[t.index()] as usize;
            for rid in lo..self.rep_off[t.index() + 1] as usize {
                if self.phase[rid] == Phase::Dead {
                    continue;
                }
                let starved = dag.preds(t).iter().any(|&(p, eid)| {
                    let plo = self.rep_off[p.index()] as usize;
                    let phi = self.rep_off[p.index() + 1] as usize;
                    if self.matched && !self.rerouted {
                        let src = matched_src_of(sched, eid.index(), rid - lo);
                        src != NO_SRC && self.phase[plo + src as usize] == Phase::Dead
                    } else {
                        plo < phi && self.phase[plo..phi].iter().all(|&ph| ph == Phase::Dead)
                    }
                });
                if starved {
                    self.phase[rid] = Phase::Dead;
                }
            }
        }
    }

    /// One sweep in schedule order (see [The static pass](self#the-static-pass));
    /// returns whether some late sender's finish moved.
    fn sweep(&mut self, inst: &Instance, sched: &Schedule) -> bool {
        let m = inst.num_procs();
        for j in 0..m {
            // A processor dead at time 0 starts past its queue's end.
            self.ptr[j] = if self.proc_dead[j] {
                sched.proc_order(j).len() as u32
            } else {
                0
            };
        }
        self.free_at.copy_from_slice(&self.floor);
        self.stalled.clear();
        self.stalled.resize(m, false);

        let mut moved = false;
        for &t in &sched.schedule_order {
            let lo = self.rep_off[t.index()] as usize;
            let hi = (lo + sched.epsilon + 1).min(self.rep_off[t.index() + 1] as usize);
            for rid in lo..hi {
                let j = self.rep_proc[rid] as usize;
                moved |= self.advance_to(inst, sched, j, self.rep_pos[rid]);
            }
            for rid in lo..hi {
                let j = self.rep_proc[rid] as usize;
                moved |= self.advance_to(inst, sched, j, self.rep_pos[rid] + 1);
            }
        }
        for j in 0..m {
            moved |= self.advance_to(inst, sched, j, sched.proc_order(j).len() as u32);
        }
        moved
    }

    /// Computes processor `j`'s queue up to position `end` (exclusive);
    /// returns whether a late sender's finish moved.
    fn advance_to(&mut self, inst: &Instance, sched: &Schedule, j: usize, end: u32) -> bool {
        let queue = sched.proc_order(j);
        let mut moved = false;
        while self.ptr[j] < end {
            let pos = self.ptr[j] as usize;
            self.ptr[j] += 1;
            let (t, k) = queue[pos];
            let rid = self.rid(t, k as usize);
            if self.phase[rid] == Phase::Dead {
                continue;
            }
            let old = self.times[rid].map(|(_, f)| f);
            let new = match self.inputs(inst, sched, t, k as usize, j) {
                Inputs::Starved => {
                    self.phase[rid] = Phase::Dead;
                    continue;
                }
                Inputs::Ready(ready) if !self.stalled[j] => {
                    let start = ready.max(self.free_at[j]);
                    let finish = start + inst.exec.time(t.index(), j);
                    if finish > self.fail_at[j] {
                        // Fail-stop during (or before) this replica: it
                        // and everything after it on this queue are lost.
                        self.proc_dead[j] = true;
                        for &(t, k) in &queue[pos..] {
                            let rid = self.rid(t, k as usize);
                            self.phase[rid] = Phase::Dead;
                        }
                        self.ptr[j] = queue.len() as u32;
                        return moved;
                    }
                    self.free_at[j] = finish;
                    Some((start, finish))
                }
                Inputs::Ready(_) | Inputs::Blocked => None,
            };
            self.stalled[j] |= new.is_none();
            self.phase[rid] = if new.is_some() {
                Phase::Done
            } else {
                Phase::Waiting
            };
            self.times[rid] = new;
            moved |= self.late[rid] && old != new.map(|(_, f)| f);
        }
        moved
    }

    /// Replica `k` of task `t` on processor `j`: the latest first arrival
    /// over its slots, or why it has none. Flags every live sender the
    /// sweep has not reached yet as late.
    fn inputs(
        &mut self,
        inst: &Instance,
        sched: &Schedule,
        t: TaskId,
        k: usize,
        j: usize,
    ) -> Inputs {
        let dag = &inst.dag;
        let mut ready = 0.0f64;
        let mut blocked = false;
        for &(p, eid) in dag.preds(t) {
            let plo = self.rep_off[p.index()] as usize;
            let phi = self.rep_off[p.index() + 1] as usize;
            let (lo, hi) = if self.matched {
                let src = matched_src_of(sched, eid.index(), k);
                if src == NO_SRC {
                    if !self.rerouted {
                        blocked = true; // strict: never fed, never starved
                        continue;
                    }
                    (plo, phi)
                } else {
                    let s = plo + src as usize;
                    if self.rerouted && self.phase[s] == Phase::Dead {
                        (plo, phi)
                    } else {
                        (s, s + 1)
                    }
                }
            } else {
                (plo, phi)
            };
            let vol = dag.volume(eid);
            let mut first = f64::INFINITY;
            let mut fed = false;
            let mut all_dead = true;
            for s in lo..hi {
                if self.phase[s] == Phase::Dead {
                    continue;
                }
                all_dead = false;
                let ps = self.rep_proc[s] as usize;
                if self.rep_pos[s] >= self.ptr[ps] && !self.late[s] {
                    self.late[s] = true;
                    self.late_count += 1;
                }
                if let Some((_, f)) = self.times[s] {
                    let at = if ps == j {
                        f
                    } else {
                        f + vol * inst.platform.delay(ps, j)
                    };
                    first = first.min(at);
                    fed = true;
                }
            }
            if all_dead && lo < hi {
                return Inputs::Starved;
            }
            if fed {
                ready = ready.max(first);
            } else {
                blocked = true;
            }
        }
        if blocked {
            Inputs::Blocked
        } else {
            Inputs::Ready(ready)
        }
    }

    // --- the event loop --------------------------------------------------

    /// Replays the prepared schedule on the event loop with ports of
    /// `capacity` concurrent payloads.
    pub(crate) fn run_event_loop(
        &mut self,
        inst: &Instance,
        sched: &Schedule,
        scenario: &FailureScenario,
        floors: Option<&[f64]>,
        capacity: usize,
    ) {
        self.sweeps = 0;
        self.prepare_loop(inst);
        self.reset_common(inst.num_procs(), scenario, floors);
        self.reset_loop(inst, sched, capacity);
        self.run(inst, sched);
    }

    /// Resets the event loop's own per-run state, with ports of
    /// `capacity` concurrent payloads.
    fn reset_loop(&mut self, inst: &Instance, sched: &Schedule, capacity: usize) {
        let dag = &inst.dag;
        let m = inst.num_procs();
        let total_reps = self.rep_proc.len();
        let total_slots = *self.slot_off.last().map_or(&0, |x| x) as usize;

        self.satisfied.clear();
        self.satisfied.resize(total_slots, false);
        self.matched_dead.clear();
        self.matched_dead.resize(total_slots, false);
        self.satisfied_count.clear();
        self.satisfied_count.resize(total_reps, 0);
        self.ready_time.clear();
        self.ready_time.resize(total_reps, 0.0);

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
                        u32::from(matched_src_of(sched, eid.index(), rep) != NO_SRC)
                    } else {
                        sched.replicas_of(p).len() as u32
                    };
                    self.remaining.push(senders);
                }
            }
        }
        debug_assert_eq!(self.remaining.len(), total_slots);

        self.events.clear();
        self.event_data.clear();
        self.pending_advance.clear();
        self.kill_work.clear();

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
    fn kill_cascade(&mut self, dag: &taskgraph::Dag, sched: &Schedule) {
        while let Some((t, k)) = self.kill_work.pop() {
            let rid = self.rid(t, k as usize);
            if self.phase[rid] != Phase::Waiting {
                continue;
            }
            self.phase[rid] = Phase::Dead;
            self.pending_advance.push(self.rep_proc[rid]);
            for &(s, eid) in dag.succs(t) {
                let slot = dag.pred_slot(eid) - dag.pred_range(s).start;
                // Who loses a potential sender? Only the receivers `t`'s
                // replica is matched to, under strict delivery; every
                // receiver under all-to-all and rerouted delivery, the
                // latter also flagging the matched ones for fallback.
                if let CommSelection::Matched(table) = &sched.comm {
                    let w = sched.epsilon + 1;
                    for &(src, d) in &table[eid.index() * w..][..w] {
                        if src != k {
                            continue;
                        }
                        let si = self.slot_idx(self.rid(s, d as usize), slot);
                        if self.rerouted {
                            self.matched_dead[si] = true;
                        } else {
                            self.lose_sender(s, d, si);
                        }
                    }
                }
                if !self.matched || self.rerouted {
                    for d in 0..self.reps(s) {
                        let si = self.slot_idx(self.rid(s, d), slot);
                        self.lose_sender(s, d as u32, si);
                    }
                }
            }
        }
    }

    /// Receiver replica `d` of `s` loses a potential sender at its dense
    /// (replica, slot) id `si`; the last one lost kills it.
    fn lose_sender(&mut self, s: TaskId, d: u32, si: usize) {
        let rid = self.rid(s, d as usize);
        if self.phase[rid] == Phase::Waiting && !self.satisfied[si] {
            self.remaining[si] -= 1;
            if self.remaining[si] == 0 {
                self.kill_work.push((s, d));
            }
        }
    }

    /// Advances processor `j`, then every processor that an overrun's
    /// kill cascade touched, until none is left.
    fn advance(&mut self, j: usize, inst: &Instance, sched: &Schedule) {
        self.try_advance(j, inst, sched);
        while !self.kill_work.is_empty() {
            self.kill_cascade(&inst.dag, sched);
            while let Some(k) = self.pending_advance.pop() {
                self.try_advance(k as usize, inst, sched);
            }
        }
    }

    /// Starts every head replica of processor `j` whose inputs are all
    /// in, pushing its `Finish`; skips dead replicas; on a fail-stop
    /// overrun, queues the rest of `j`'s queue for the kill cascade.
    fn try_advance(&mut self, j: usize, inst: &Instance, sched: &Schedule) {
        if self.proc_dead[j] {
            return;
        }
        let queue = sched.proc_order(j);
        while let Some(&(t, k)) = queue.get(self.ptr[j] as usize) {
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
                        let rest = &queue[self.ptr[j] as usize..];
                        self.kill_work.extend_from_slice(rest);
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
    fn land(&mut self, rid: usize, si: usize, now: f64, inst: &Instance, sched: &Schedule) {
        self.satisfied[si] = true;
        self.satisfied_count[rid] += 1;
        self.ready_time[rid] = self.ready_time[rid].max(now);
        if self.satisfied_count[rid] == self.slot_off[rid + 1] - self.slot_off[rid] {
            self.advance(self.rep_proc[rid] as usize, inst, sched);
        }
    }

    /// Whether sender replica `rep` feeds destination replica `d` of
    /// edge `eid` (slot index `si`): all-to-all feeds everyone; matched
    /// delivery feeds the matched receiver, and under rerouting also
    /// the receivers whose matched sender died or that have none.
    #[inline]
    fn feeds(&self, sched: &Schedule, eid: usize, d: usize, rep: u32, si: usize) -> bool {
        if !self.matched {
            return true;
        }
        let src = matched_src_of(sched, eid, d);
        src == rep || (self.rerouted && (src == NO_SRC || self.matched_dead[si]))
    }

    /// A finish at `now`: delivers the replica's payloads to every
    /// receiver it feeds, then advances its processor.
    fn finish(
        &mut self,
        task: TaskId,
        rep: u32,
        proc: usize,
        now: f64,
        inst: &Instance,
        sched: &Schedule,
    ) {
        let dag = &inst.dag;
        let rid = self.rid(task, rep as usize);
        self.phase[rid] = Phase::Done;
        for &(s, eid) in dag.succs(task) {
            let vol = dag.volume(eid);
            let slot = dag.pred_slot(eid) - dag.pred_range(s).start;
            for d in 0..self.reps(s) {
                let rid_s = self.rid(s, d);
                let si = self.slot_idx(rid_s, slot);
                if self.phase[rid_s] != Phase::Waiting
                    || self.satisfied[si]
                    || !self.feeds(sched, eid.index(), d, rep, si)
                {
                    continue;
                }
                let dst = self.rep_proc[rid_s] as usize;
                if dst == proc {
                    self.land(rid_s, si, now, inst, sched);
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
        self.advance(proc, inst, sched);
    }

    /// Takes a slot on `proc`'s port for a payload landing at `at`.
    fn send(&mut self, proc: usize, at: f64, land: Event) {
        self.port_busy[proc] += 1;
        self.transfers += 1;
        self.push_event(at, land);
    }

    /// The main event loop. `prepare_loop`, `reset_common` and
    /// `reset_loop` must have run.
    fn run(&mut self, inst: &Instance, sched: &Schedule) {
        let m = inst.num_procs();

        for j in 0..m {
            if self.fail_at[j] <= 0.0 {
                self.proc_dead[j] = true;
                self.kill_work.extend_from_slice(sched.proc_order(j));
            }
        }
        self.kill_cascade(&inst.dag, sched);
        self.pending_advance.clear();
        for j in 0..m {
            self.advance(j, inst, sched);
        }

        while let Some(Reverse((time, id))) = self.events.pop() {
            let now = time.get();
            match self.event_data[id] {
                Event::Finish { task, rep, proc } => {
                    self.finish(task, rep, proc as usize, now, inst, sched);
                }
                Event::Land { rid, si, proc } => {
                    let (rid, si, proc) = (rid as usize, si as usize, proc as usize);
                    if self.phase[rid] == Phase::Waiting && !self.satisfied[si] {
                        self.land(rid, si, now, inst, sched);
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
        ReplicationOutcome { latency, lost_task }
    }

    /// Expands the completed run into the nested [`SimResult`] form
    /// (allocates the per-replica payload).
    fn to_result(&self, inst: &Instance) -> SimResult {
        let dag = &inst.dag;
        let ReplicationOutcome { latency, lost_task } = self.outcome(inst);
        // A replay sets a replica's times only when it runs to completion,
        // and ends with nothing running.
        debug_assert!(self
            .phase
            .iter()
            .zip(&self.times)
            .all(|(&p, t)| (p == Phase::Done) == t.is_some()));
        let times: Vec<Vec<Option<(f64, f64)>>> = dag
            .tasks()
            .map(|t| {
                let lo = self.rep_off[t.index()] as usize;
                let hi = self.rep_off[t.index() + 1] as usize;
                self.times[lo..hi].to_vec()
            })
            .collect();
        SimResult {
            latency,
            lost_task,
            times,
        }
    }
}

/// The matched sender of receiver replica `d` on edge `eid`, read from
/// the schedule's matched table, or `NO_SRC` when no pair names it (and
/// for an all-to-all schedule).
#[inline]
fn matched_src_of(sched: &Schedule, eid: usize, d: usize) -> u32 {
    let CommSelection::Matched(table) = &sched.comm else {
        return NO_SRC;
    };
    let w = sched.epsilon + 1;
    let pair = table[eid * w..][..w]
        .iter()
        .find(|&&(_, r)| r as usize == d);
    pair.map_or(NO_SRC, |&(s, _)| s)
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
///
/// Builds a throwaway [`CrashWorkspace`]; batch callers should hold one
/// and use [`simulate_outcome_into`] (scalar result, allocation-free) or
/// [`simulate_into`] (full result).
pub fn simulate(inst: &Instance, sched: &Schedule, scenario: &FailureScenario) -> SimResult {
    let ws = &mut CrashWorkspace::new();
    simulate_into(inst, sched, scenario, FallbackPolicy::Rerouted, ws)
}

/// Simulates `sched` under `scenario` with an explicit
/// matched-communication policy, reusing the caller's workspace for the
/// replay state; only the returned [`SimResult`]'s nested payload
/// allocates.
///
/// Failure time 0 means the processor never runs anything (the paper's
/// experimental model); positive times model mid-execution fail-stops
/// (a replica whose execution spans the failure instant is lost together
/// with everything planned after it on that processor; a replica
/// finishing at or before the instant completes and its messages are
/// delivered — fail-silent semantics). Rerouted matched delivery is
/// restricted to fail-at-time-zero scenarios.
pub fn simulate_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    ws: &mut CrashWorkspace,
) -> SimResult {
    ws.prepare(inst, sched, policy);
    ws.replay(inst, sched, scenario, None);
    ws.to_result(inst)
}

/// [`simulate_into`] returning only the scalar [`ReplicationOutcome`] —
/// fully allocation-free once the workspace is warm.
pub fn simulate_outcome_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    ws: &mut CrashWorkspace,
) -> ReplicationOutcome {
    ws.prepare(inst, sched, policy);
    ws.replay(inst, sched, scenario, None);
    ws.outcome(inst)
}

/// [`simulate_outcome_into`] on a **pre-occupied platform**: each
/// processor becomes free for this DAG's replicas only at its release
/// floor `floors[j]` (typically the streaming driver's actual floors)
/// instead of `0.0`. Failure times in `scenario` are interpreted on the
/// same absolute clock. All-zero floors are bit-identical to
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
    check_floors(inst, floors);
    ws.prepare(inst, sched, policy);
    ws.replay(inst, sched, scenario, Some(floors));
    ws.outcome(inst)
}

/// The event loop with unbounded ports: the oracle the static pass is
/// tested against. Takes the same policy, scenario and optional release
/// floors as the pass's entries and returns the full result.
#[doc(hidden)]
pub fn simulate_event_loop_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    floors: Option<&[f64]>,
    ws: &mut CrashWorkspace,
) -> SimResult {
    if let Some(floors) = floors {
        check_floors(inst, floors);
    }
    ws.prepare(inst, sched, policy);
    check_rerouted_scenario(ws.rerouted, scenario);
    ws.run_event_loop(inst, sched, scenario, floors, UNBOUNDED_PORTS);
    ws.to_result(inst)
}

fn check_floors(inst: &Instance, floors: &[f64]) {
    assert_eq!(
        floors.len(),
        inst.num_procs(),
        "occupancy floors must cover all processors"
    );
}

impl CrashWorkspace {
    /// Streaming support: raises the release `floors` past every
    /// simulated replica's busy span of the completed replay of `sched`
    /// (per processor, in queue order, so every span starts at or past
    /// its floor)
    /// and returns the earliest simulated start across all replicas
    /// (`INFINITY` when nothing ran).
    pub(crate) fn fold_busy_into(&self, sched: &Schedule, floors: &mut [f64]) -> f64 {
        let mut first = f64::INFINITY;
        for j in 0..sched.num_procs() {
            for &(t, k) in sched.proc_order(j) {
                let rid = self.rid(t, k as usize);
                if let Some((s, f)) = self.times[rid] {
                    crate::streaming::occupy(floors, j, s, f);
                    if s < first {
                        first = s;
                    }
                }
            }
        }
        first
    }
}

/// Monte-Carlo crash campaign: simulates `replications` independent
/// uniform `crashes`-processor fail-at-time-zero scenarios against
/// `sched` on `threads` workers and folds their outcomes into one
/// [`ReplicationSummary`]. Each worker replays all its replications on
/// one [`CrashWorkspace`], so the replay allocates nothing after a
/// worker's first replication, and no outcome outlives its fold.
///
/// Replication `r` draws its scenario from
/// [`crate::replication_seed`]`(base_seed, r)` and is folded in
/// replication order, so the summary is bit-identical whatever the
/// thread count and stable across reruns — the contract
/// `tests/parallel_determinism.rs` (repo root) enforces.
///
/// # Panics
///
/// If `crashes` exceeds the processor count or `threads == 0`.
pub fn summarize_replications(
    inst: &Instance,
    sched: &Schedule,
    crashes: usize,
    replications: usize,
    base_seed: u64,
    threads: usize,
) -> ReplicationSummary {
    fold_replays(inst, sched, replications, threads, |ws, r| {
        replication_outcome(inst, sched, crashes, base_seed, r as u32, ws)
    })
}

/// Runs `step(ws, i)` for every sample `i < samples` on `threads`
/// workers of [`crate::parallel::parallel_map_into`], each with a
/// workspace [`prepared_workspace`] made once, and folds the outcomes
/// into a [`ReplicationSummary`] in the executor's in-order sink.
pub(crate) fn fold_replays(
    inst: &Instance,
    sched: &Schedule,
    samples: usize,
    threads: usize,
    step: impl Fn(&mut CrashWorkspace, usize) -> ReplicationOutcome + Sync,
) -> ReplicationSummary {
    let mut summary = ReplicationSummary::default();
    let Ok(()) = crate::parallel::parallel_map_into(
        samples,
        threads,
        || prepared_workspace(inst, sched),
        |ws, i| {
            let outcome = step(ws, i);
            outcome.completed().then_some(outcome.latency)
        },
        |_, run| {
            run.for_each(|latency| summary.add(latency));
            Ok::<(), std::convert::Infallible>(())
        },
    );
    summary
}

/// A fresh workspace prepared for a replication campaign over `sched`.
pub(crate) fn prepared_workspace(inst: &Instance, sched: &Schedule) -> CrashWorkspace {
    let mut ws = CrashWorkspace::new();
    ws.prepare(inst, sched, FallbackPolicy::Rerouted);
    ws
}

/// One replication against a workspace already `prepare`d for
/// `(inst, sched, Rerouted)`; the shape tables are identical across a
/// campaign, so only the per-scenario replay runs. Replication `r` draws
/// its scenario from [`crate::replication_seed`]`(base_seed, r)`.
fn replication_outcome(
    inst: &Instance,
    sched: &Schedule,
    crashes: usize,
    base_seed: u64,
    r: u32,
    ws: &mut CrashWorkspace,
) -> ReplicationOutcome {
    let mut rng = StdRng::seed_from_u64(crate::replication_seed(base_seed, r as u64));
    let m = inst.num_procs();
    replay_drawn(inst, sched, ws, |scenario, ids| {
        if crashes == 0 {
            scenario.clear();
        } else {
            scenario.refill_uniform(&mut rng, m, crashes, ids);
        }
    })
}

/// The step of the Monte-Carlo drivers, on a workspace already
/// `prepare`d for `(inst, sched, Rerouted)`: `draw` redraws the
/// workspace's scenario in place (with its processor-id scratch), and
/// the replay runs from it. Allocation-free once the workspace is warm.
pub(crate) fn replay_drawn(
    inst: &Instance,
    sched: &Schedule,
    ws: &mut CrashWorkspace,
    draw: impl FnOnce(&mut FailureScenario, &mut Vec<u32>),
) -> ReplicationOutcome {
    let mut scen = std::mem::take(&mut ws.scenario);
    draw(&mut scen, &mut ws.ids);
    ws.replay(inst, sched, &scen, None);
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
        let mut ws = CrashWorkspace::new();
        for probe in 0..10u64 {
            let scen = FailureScenario::uniform(&mut rng(probe), inst.num_procs(), 2);
            let sim = simulate_into(&inst, &s, &scen, FallbackPolicy::Strict, &mut ws);
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
        bd.add_edge(a, t, 1.0);
        bd.add_edge(b, t, 1.0);
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
            // Edge 0 is a → t, edge 1 is b → t.
            CommSelection::Matched(vec![(0, 0), (1, 1), (0, 1), (1, 0)]),
            vec![a, b, t],
        );

        let scen = FailureScenario::at_time_zero([ProcId(0)]);
        let mut ws = CrashWorkspace::new();
        let strict = simulate_into(&inst, &sched, &scen, FallbackPolicy::Strict, &mut ws);
        assert!(
            !strict.completed(),
            "strict matched delivery must exhibit the composition gap"
        );
        let rerouted = simulate_into(&inst, &sched, &scen, FallbackPolicy::Rerouted, &mut ws);
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
        assert!(sim.times[a.index()][0].is_some());
        assert!(sim.times[c.index()][0].is_none());
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
        let sum = summarize_replications(&inst, &s, 2, 20, 0xCAFE, 2);
        assert_eq!(sum.replications, 20);
        assert_eq!(sum.completed, 20, "≤ ε crashes must not lose tasks");
        assert!(sum.latency_max <= s.latency_upper_bound() + 1e-6);
        assert!(sum.latency_min >= s.latency_lower_bound() - 1e-6);
    }

    #[test]
    fn replications_are_thread_count_invariant() {
        let mut r = rng(91);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng(91)).unwrap();
        let a = summarize_replications(&inst, &s, 1, 16, 7, 1);
        let b = summarize_replications(&inst, &s, 1, 16, 7, 4);
        assert_eq!(a.latency_sum.to_bits(), b.latency_sum.to_bits());
        assert_eq!(a, b);
    }

    #[test]
    fn outcomes_agree_with_full_results() {
        // The campaign's summary at any thread count must be a full
        // `simulate` of each replication's seeded draw, folded in order.
        let mut r = rng(92);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 2, Algorithm::McFtsaGreedy, &mut rng(92)).unwrap();
        let mut folded = ReplicationSummary::default();
        for i in 0..24 {
            let mut draw = StdRng::seed_from_u64(crate::replication_seed(0xBEEF, i));
            let scen = FailureScenario::uniform(&mut draw, inst.num_procs(), 2);
            let f = simulate(&inst, &s, &scen);
            folded.add(f.completed().then_some(f.latency));
        }
        assert_eq!(folded.replications, 24);
        for threads in [1, 2, 4] {
            let sum = summarize_replications(&inst, &s, 2, 24, 0xBEEF, threads);
            assert_eq!(sum.latency_sum.to_bits(), folded.latency_sum.to_bits());
            assert_eq!(sum, folded);
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
            }
        }
    }

    /// Full results of the static pass and of the event loop, which
    /// must agree bit for bit.
    fn pass_and_loop(
        inst: &Instance,
        s: &Schedule,
        scen: &FailureScenario,
        ws: &mut CrashWorkspace,
    ) -> (SimResult, SimResult) {
        let pass = simulate_into(inst, s, scen, FallbackPolicy::Rerouted, ws);
        let oracle = simulate_event_loop_into(inst, s, scen, FallbackPolicy::Rerouted, None, ws);
        (pass, oracle)
    }

    #[test]
    fn static_pass_matches_event_loop_no_failures() {
        let mut ws = CrashWorkspace::new();
        for seed in 0..4u64 {
            let inst = paper_instance(&mut rng(seed), &PaperInstanceConfig::default());
            for alg in Algorithm::ALL {
                let s = schedule(&inst, 2, alg, &mut rng(seed)).unwrap();
                let (a, b) = pass_and_loop(&inst, &s, &FailureScenario::none(), &mut ws);
                assert_eq!(
                    a.latency.to_bits(),
                    b.latency.to_bits(),
                    "{alg:?} seed {seed}"
                );
                assert_eq!(a.times, b.times, "{alg:?} seed {seed}");
            }
        }
    }

    #[test]
    fn static_pass_matches_event_loop_under_failures() {
        let mut ws = CrashWorkspace::new();
        for seed in 0..4u64 {
            let inst = paper_instance(&mut rng(seed + 40), &PaperInstanceConfig::default());
            for alg in Algorithm::ALL {
                let s = schedule(&inst, 2, alg, &mut rng(seed)).unwrap();
                for probe in 0..8u64 {
                    let scen =
                        FailureScenario::uniform(&mut rng(seed * 97 + probe), inst.num_procs(), 2);
                    let (a, b) = pass_and_loop(&inst, &s, &scen, &mut ws);
                    assert_eq!(
                        a.latency.to_bits(),
                        b.latency.to_bits(),
                        "{alg:?} seed {seed} probe {probe}"
                    );
                    assert_eq!(a.lost_task, b.lost_task);
                    assert_eq!(a.times, b.times, "full trace must agree");
                }
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
