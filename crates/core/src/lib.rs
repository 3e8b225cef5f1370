//! Fault-tolerant scheduling of precedence task graphs on heterogeneous
//! platforms.
//!
//! This crate implements the contribution of Benoit, Hakem and Robert,
//! *Fault Tolerant Scheduling of Precedence Task Graphs on Heterogeneous
//! Platforms* (INRIA RR-6418, IPDPS 2008), restructured around one
//! **unified list-scheduling pipeline**.
//!
//! # Architecture
//!
//! All heuristics share a single loop in [`pipeline`]: *select a free
//! task → pick `ε + 1` processors → place replicas → refresh
//! successors*. A [`pipeline::ListScheduler`] fixes the three orthogonal
//! axes of that loop:
//!
//! * **priority** ([`pipeline::PriorityAxis`]) — FTSA's criticalness
//!   `tℓ + bℓ` on a heap-backed free list `α`, the static bottom level
//!   alone, or FTBAR's schedule-pressure sweep;
//! * **placement** ([`pipeline::PlacementAxis`]) — the `ε + 1`
//!   best-finish processors of equation (1), or minimize-start-time
//!   selection with the optional Ahmad–Kwok duplication pass;
//! * **communication** ([`pipeline::CommAxis`]) — all-to-all replica
//!   messaging, or MC-FTSA's robust one-to-one matching (greedy or
//!   bottleneck-optimal, via `ftsched-matching`).
//!
//! Underneath, the shared placement engine maintains **incremental
//! per-(edge, processor) arrival caches**: placing a replica folds its
//! contribution into each outgoing edge in `O(succs · m)`, and the
//! arrival terms of equations (1)/(3) are then read back in `O(preds)`
//! per `(task, processor)` query instead of being recomputed from every
//! predecessor replica — the `O(e·m²)` bound of Theorem 4.2 with a much
//! smaller constant (see `engine.rs` for the cache invariants).
//!
//! All run state — the flat-arena [`Schedule`], the arrival cache, the
//! free list and every per-step scratch buffer — lives in a
//! [`ScheduleWorkspace`]: [`schedule_into`] reuses it across runs with
//! **zero heap allocations** in the steady state (see the [`workspace`]
//! module docs for the contract; `tests/alloc_counter.rs` at the repo
//! root pins it with a counting allocator).
//!
//! Placement can start from a **pre-occupied platform**: [`schedule_onto`]
//! takes one release floor per processor (`floors: &[f64]`) and seeds
//! every processor's ready time from it instead of `0.0`, which is what
//! the streaming (online-arrival) scenario family builds on. The floor
//! contract is strict — all-zero floors reduce bit-for-bit to
//! [`schedule_into`], so the golden suite pins both paths at once — and
//! floor threading adds nothing to the steady-state allocation count.
//!
//! The paper's algorithms are *named configurations* of the pipeline:
//! the [`Algorithm`] variants ([`Algorithm::scheduler`] gives each one's
//! axes), pinned bit-for-bit to the original implementations by the
//! golden suite (`tests/golden.rs`):
//!
//! * [`Algorithm::Ftsa`] — **FTSA** (Section 4.1): criticalness ×
//!   best-finish × all-to-all. Places `ε + 1` active replicas of every
//!   task on distinct processors, tolerating `ε` fail-stop failures
//!   (Theorem 4.1) in time `O(e·m² + v·log ω)` (Theorem 4.2).
//! * [`Algorithm::McFtsaGreedy`] and [`Algorithm::McFtsaBottleneck`] —
//!   **MC-FTSA** (Section 4.2): criticalness × best-finish × matched,
//!   with the greedy or the bottleneck-optimal [`pipeline::Selector`].
//!   Cuts the replication-induced messages from `e(ε+1)²` to `e(ε+1)`
//!   via a robust one-to-one matching per edge (Proposition 4.3).
//! * [`Algorithm::Ftbar`] — **FTBAR** (Girault, Kalla, Sighireanu,
//!   Sorel, DSN 2003), the baseline: pressure × minimize-start-time with
//!   duplication × all-to-all.
//! * [`Algorithm::FtsaPressure`], [`Algorithm::FtsaMst`] and
//!   [`Algorithm::FtbarMatched`] — cross-combinations that used to
//!   require a fourth copy of the loop, now one line each.
//!
//! There are two ways to run the scheduler: an [`Algorithm`] through
//! [`schedule()`](fn@crate::schedule), [`schedule_into`] or
//! [`schedule_onto`], and [`pipeline::ListScheduler::new`] for any other
//! axis triple.
//!
//! Supporting modules: [`bounds`] / [`validate`] (the latency bounds
//! `M*` / `M` of eqs. (2)/(4) and structural validation), [`bicriteria`]
//! (the Section 4.3 drivers), [`levels`], [`stats`].
//!
//! The entry point is [`schedule()`](fn@crate::schedule):
//!
//! ```
//! use ftsched_core::{schedule, Algorithm};
//! use platform::gen::{paper_instance, PaperInstanceConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
//! let sched = schedule(&inst, 2, Algorithm::Ftsa, &mut rng).unwrap();
//! assert!(sched.latency_lower_bound() <= sched.latency_upper_bound());
//! ftsched_core::validate::validate(&inst, &sched).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bicriteria;
pub mod bounds;
pub(crate) mod engine;
pub mod error;
#[cfg(test)]
mod ftbar;
#[cfg(test)]
mod ftsa;
pub mod levels;
#[cfg(test)]
mod mc_ftsa;
pub mod pipeline;
pub mod schedule;
pub mod stats;
pub mod validate;
pub mod workspace;

pub use error::ScheduleError;
pub use schedule::{CommSelection, Replica, Schedule};
pub use workspace::ScheduleWorkspace;

use crate::pipeline::{CommAxis, ListScheduler, PlacementAxis, PriorityAxis, Selector};
use platform::Instance;
use rand::Rng;

/// Which scheduling heuristic to run — a named configuration of the
/// [`pipeline`] (see [`Algorithm::scheduler`] for the exact axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// FTSA, the Fault Tolerant Scheduling Algorithm (Section 4.1):
    /// criticalness priority × best-finish placement × all-to-all
    /// communication.
    ///
    /// A greedy list-scheduling heuristic driven by *task criticalness*:
    /// the priority of a free task is `tℓ(t) + bℓ(t)`, the length of the
    /// longest path through `t` in the partially mapped DAG. At every
    /// step the critical free task is popped from `α`, a binary max-heap
    /// (`O(log ω)` per pop, the bound the paper's AVL tree gives), and
    /// mapped onto the `ε + 1` processors that minimize its finish time
    /// (equation 1); successors that become free enter `α` with
    /// refreshed priorities.
    ///
    /// ```text
    /// Algorithm 4.1 (FTSA)
    ///  1: ε ← maximum number of failures supported
    ///  2: compute bℓ(t); tℓ(t) ← 0 for entry tasks
    ///  4: S ← ∅; U ← V
    ///  5: put entry tasks in α
    ///  6: while U ≠ ∅:
    ///  7:   t ← H(α)
    ///  8:   compute F(t, P_j) for all j            (equation 1)
    ///  9:   keep the ε+1 processors minimizing F   (the set P^(ε+1))
    /// 10:   schedule t on them
    /// 11:   update priorities of t's successors
    /// 12:   put t's free successors in α
    /// ```
    ///
    /// Complexity `O(e·m² + v·log ω)` (Theorem 4.2), realized with a
    /// much smaller constant by the [`pipeline`]'s incremental arrival
    /// caches. With `ε = 0` this is the fault-free variant used as the
    /// baseline in the paper's figures. Under the Section 4.3 deadlines
    /// it is the loop [`bicriteria::ftsa_both_criteria`] aborts early.
    Ftsa,
    /// MC-FTSA, FTSA with Minimum Communications (Section 4.2), with the
    /// greedy communication selector (the variant used in the paper's
    /// experiments): criticalness priority × best-finish placement ×
    /// [`CommAxis::Matched`]`(`[`Selector::Greedy`]`)`.
    ///
    /// FTSA's processor selection is kept; each precedence edge then
    /// ships `ε + 1` messages along a robust one-to-one matching instead
    /// of `(ε + 1)²` — `e(ε+1)` messages in total (Proposition 4.3; the
    /// construction is in the [`pipeline`] module docs).
    McFtsaGreedy,
    /// MC-FTSA with the bottleneck-optimal communication selector
    /// ([`Selector::Bottleneck`]: binary search on the bottleneck
    /// threshold with a Hopcroft–Karp feasibility oracle).
    McFtsaBottleneck,
    /// FTBAR, Fault Tolerance Based Active Replication (Section 5), the
    /// baseline competitor after Girault, Kalla, Sighireanu and Sorel
    /// (DSN 2003): schedule-pressure priority × minimize-start-time
    /// placement with duplication × all-to-all communication.
    ///
    /// Each step:
    ///
    /// 1. for each free task, keep the `N_pf + 1 = ε + 1` processors
    ///    minimizing the schedule pressure σ (defined, with the `S(n)`
    ///    fidelity note, in the [`pipeline`] module docs);
    /// 2. select the *most urgent* pair — the free task whose best-σ set
    ///    has the largest pressure — ties broken randomly;
    /// 3. schedule the task on those `ε + 1` processors;
    /// 4. run the Ahmad–Kwok *Minimize-Start-Time* pass: on every chosen
    ///    processor, duplicate the arrival-critical parent onto that
    ///    processor when doing so strictly lowers the task's start time.
    ///
    /// The per-step sweep over *all free tasks × all processors* plus the
    /// duplication pass is what drives FTBAR's `O(P·N³)` running time
    /// (Table 1 of the paper), compared to FTSA's single-task step.
    Ftbar,
    /// Pressure-driven FTSA: FTBAR's schedule-pressure task selection
    /// with FTSA's best-finish placement and all-to-all communication.
    FtsaPressure,
    /// FTSA with the Ahmad–Kwok minimize-start-time duplication pass:
    /// criticalness selection, min-start placement with duplication.
    FtsaMst,
    /// FTBAR with MC-FTSA's matched communications (greedy selector).
    /// Matched comm fixes one sender per replica, so the duplication
    /// pass is disabled (see the [`pipeline`] composition rule).
    FtbarMatched,
}

impl Algorithm {
    /// Every algorithm, in canonical order: the four paper algorithms
    /// first, then the pipeline cross-combinations.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Ftsa,
        Algorithm::McFtsaGreedy,
        Algorithm::McFtsaBottleneck,
        Algorithm::Ftbar,
        Algorithm::FtsaPressure,
        Algorithm::FtsaMst,
        Algorithm::FtbarMatched,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ftsa => "FTSA",
            Algorithm::McFtsaGreedy => "MC-FTSA",
            Algorithm::McFtsaBottleneck => "MC-FTSA(bn)",
            Algorithm::Ftbar => "FTBAR",
            Algorithm::FtsaPressure => "P-FTSA",
            Algorithm::FtsaMst => "FTSA+MST",
            Algorithm::FtbarMatched => "MC-FTBAR",
        }
    }

    /// The CLI token parsed by [`Algorithm::from_str`](std::str::FromStr).
    pub fn key(self) -> &'static str {
        match self {
            Algorithm::Ftsa => "ftsa",
            Algorithm::McFtsaGreedy => "mc-ftsa",
            Algorithm::McFtsaBottleneck => "mc-ftsa-bn",
            Algorithm::Ftbar => "ftbar",
            Algorithm::FtsaPressure => "p-ftsa",
            Algorithm::FtsaMst => "ftsa-mst",
            Algorithm::FtbarMatched => "mc-ftbar",
        }
    }

    /// The pipeline configuration this name stands for.
    pub fn scheduler(self) -> ListScheduler {
        let best_finish = PlacementAxis::BestFinish;
        let mst = PlacementAxis::MinStart { duplicate: true };
        match self {
            Algorithm::Ftsa => {
                ListScheduler::new(PriorityAxis::Criticalness, best_finish, CommAxis::AllToAll)
            }
            Algorithm::McFtsaGreedy => ListScheduler::new(
                PriorityAxis::Criticalness,
                best_finish,
                CommAxis::Matched(Selector::Greedy),
            ),
            Algorithm::McFtsaBottleneck => ListScheduler::new(
                PriorityAxis::Criticalness,
                best_finish,
                CommAxis::Matched(Selector::Bottleneck),
            ),
            Algorithm::Ftbar => ListScheduler::new(PriorityAxis::Pressure, mst, CommAxis::AllToAll),
            Algorithm::FtsaPressure => {
                ListScheduler::new(PriorityAxis::Pressure, best_finish, CommAxis::AllToAll)
            }
            Algorithm::FtsaMst => {
                ListScheduler::new(PriorityAxis::Criticalness, mst, CommAxis::AllToAll)
            }
            Algorithm::FtbarMatched => ListScheduler::new(
                PriorityAxis::Pressure,
                PlacementAxis::MinStart { duplicate: false },
                CommAxis::Matched(Selector::Greedy),
            ),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Serialized as the CLI token ([`Algorithm::key`]) — the form campaign
/// spec files use (`"algorithms": ["ftsa", "mc-ftbar"]`).
impl serde::Serialize for Algorithm {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.write_str(self.key());
    }
}

impl serde::Deserialize for Algorithm {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let name = r.read_str()?;
        name.parse().map_err(|e: String| r.invalid(e))
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses the CLI token ([`Algorithm::key`]) or the display name
    /// ([`Algorithm::name`]), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Algorithm::ALL
            .into_iter()
            .find(|a| a.key() == lower || a.name().to_ascii_lowercase() == lower)
            .ok_or_else(|| {
                let keys: Vec<&str> = Algorithm::ALL.iter().map(|a| a.key()).collect();
                format!(
                    "unknown algorithm `{s}` (expected one of: {})",
                    keys.join("|")
                )
            })
    }
}

/// Schedules `inst` tolerating `epsilon` fail-stop processor failures
/// with the chosen heuristic. `rng` drives random tie-breaking only.
///
/// `epsilon = 0` yields the *fault-free* variant of each algorithm (one
/// replica per task, no replication overhead).
pub fn schedule(
    inst: &Instance,
    epsilon: usize,
    algorithm: Algorithm,
    rng: &mut impl Rng,
) -> Result<Schedule, ScheduleError> {
    algorithm.scheduler().run(inst, epsilon, rng)
}

/// [`schedule()`](fn@crate::schedule) reusing a caller-held
/// [`ScheduleWorkspace`]: after the first call on a given instance
/// shape, scheduling performs no heap allocation (see the
/// [`workspace`] module docs for the exact contract). The schedule is
/// borrowed from the workspace — clone it to keep it past the next run.
///
/// ```
/// use ftsched_core::{schedule_into, Algorithm, ScheduleWorkspace};
/// use platform::gen::{paper_instance, PaperInstanceConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
/// let mut ws = ScheduleWorkspace::new();
/// for eps in [0, 1, 2] {
///     let sched = schedule_into(&inst, eps, Algorithm::Ftsa, &mut rng, &mut ws).unwrap();
///     assert!(sched.latency_lower_bound() <= sched.latency_upper_bound());
/// }
/// ```
pub fn schedule_into<'w>(
    inst: &Instance,
    epsilon: usize,
    algorithm: Algorithm,
    rng: &mut impl Rng,
    ws: &'w mut ScheduleWorkspace,
) -> Result<&'w Schedule, ScheduleError> {
    algorithm.scheduler().run_into(inst, epsilon, rng, ws)
}

/// [`schedule_into`] onto a **pre-occupied platform**: processor `j`'s
/// ready time starts from its release floor `floors[j]` instead of
/// `0.0` (one floor per processor; a length mismatch panics), so the
/// eq. (1)/(3) placement queries and the produced replica times live in
/// the stream's absolute clock.
///
/// Contract (pinned by the golden suite and `tests/schedule_onto.rs`):
/// all-zero floors are **bit-identical** to [`schedule_into`]. The
/// schedule is not folded back into `floors`; callers (e.g. the
/// simulator's streaming driver) raise the floors past the replica
/// spans they consider committed.
///
/// ```
/// use ftsched_core::{schedule_onto, Algorithm, ScheduleWorkspace};
/// use platform::gen::{paper_instance, PaperInstanceConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
/// let mut ws = ScheduleWorkspace::new();
/// let floors = vec![10.0; inst.num_procs()]; // the DAG arrives at t = 10
/// let sched = schedule_onto(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(7), &floors, &mut ws)
///     .unwrap();
/// assert!(sched.latency_lower_bound() >= 10.0);
/// ```
pub fn schedule_onto<'w>(
    inst: &Instance,
    epsilon: usize,
    algorithm: Algorithm,
    rng: &mut impl Rng,
    floors: &[f64],
    ws: &'w mut ScheduleWorkspace,
) -> Result<&'w Schedule, ScheduleError> {
    algorithm
        .scheduler()
        .run_onto(inst, epsilon, rng, floors, ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_round_trips_every_algorithm() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.key().parse::<Algorithm>().unwrap(), alg);
            assert_eq!(alg.name().parse::<Algorithm>().unwrap(), alg);
            assert_eq!(
                alg.name()
                    .to_ascii_lowercase()
                    .parse::<Algorithm>()
                    .unwrap(),
                alg
            );
        }
        assert!("nope".parse::<Algorithm>().is_err());
        assert_eq!(format!("{}", Algorithm::FtbarMatched), "MC-FTBAR");
    }

    #[test]
    fn algorithm_serde_round_trips_as_key_string() {
        for alg in Algorithm::ALL {
            let json = serde_json::to_string(&alg).unwrap();
            assert_eq!(json, format!("\"{}\"", alg.key()));
            let back: Algorithm = serde_json::from_str(&json).unwrap();
            assert_eq!(back, alg);
        }
        assert!(serde_json::from_str::<Algorithm>("\"nope\"").is_err());
        assert!(serde_json::from_str::<Algorithm>("3").is_err());
    }
}
