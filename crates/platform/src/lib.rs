//! Heterogeneous platform model for fault-tolerant scheduling.
//!
//! Section 2 of the FTSA paper: a platform is a finite set
//! `P = {P_1, …, P_m}` of fully connected processors. Computational
//! heterogeneity is the function `E : V × P → R⁺` (execution time of each
//! task on each processor); communication heterogeneity is
//! `W(t_i, t_j) = V(t_i, t_j) · d(P_k, P_h)` where `d` is the unit-data
//! link delay and `d(P, P) = 0`.
//!
//! * [`Platform`] — the link-delay matrix `d` and its derived statistics
//!   (average delay `d̄`, worst-case outgoing delay, fastest links).
//! * [`ExecutionMatrix`] — the `E(t, P)` matrix, with consistent
//!   (speed-scaled) and unrelated (per-pair random) generators.
//! * [`FailureScenario`] — fail-stop failure patterns, with the paper's
//!   "ε processors chosen uniformly" generator.
//! * [`granularity`] — the paper's granularity `g(G, P)` and the scaling
//!   used to sweep it from 0.2 to 2.0 in the experiments.
//! * [`Instance`] — a bundled `(Dag, Platform, ExecutionMatrix)` problem
//!   instance, the input type of every scheduling algorithm.
//!
//! The platform state that outlives a single schedule in the
//! streaming/online scenarios is a plain `&[f64]` of release floors, one
//! per processor: the earliest time new work may start there.
//! `ftsched_core::schedule_onto` plans from them, the simulator's crash
//! replay runs from them, and its streaming driver raises them; all-zero
//! floors reduce both entry points to the single-DAG semantics bit for
//! bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod failure;
pub mod gen;
pub mod granularity;
pub mod plat;

pub use exec::ExecutionMatrix;
pub use failure::{
    FailureModel, FailureScenario, ProcId, TimedFailures, TimedRelativeFailures, UniformFailures,
};
pub use plat::Platform;

use taskgraph::Dag;

/// The most processors a drawn platform may have. A platform holds
/// `m²` link delays, so the bound keeps one draw at 128 MiB; the
/// entry points that take a processor count from their input
/// (`ftsched schedule --procs`, a campaign spec's platform points) check
/// it before anything is drawn.
pub const MAX_PROCS: usize = 4096;

/// A complete scheduling problem instance: the task graph, the platform
/// and the execution-time matrix binding them.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The precedence task graph `G = (V, E)`.
    pub dag: Dag,
    /// The processor set and link delays.
    pub platform: Platform,
    /// The execution-time matrix `E(t, P)`.
    pub exec: ExecutionMatrix,
}

impl Instance {
    /// Bundles the three components, validating dimensions.
    pub fn new(dag: Dag, platform: Platform, exec: ExecutionMatrix) -> Self {
        assert_eq!(
            exec.num_tasks(),
            dag.num_tasks(),
            "execution matrix rows must match task count"
        );
        assert_eq!(
            exec.num_procs(),
            platform.num_procs(),
            "execution matrix columns must match processor count"
        );
        Instance {
            dag,
            platform,
            exec,
        }
    }

    /// Number of processors `m`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.platform.num_procs()
    }

    /// Number of tasks `v`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.dag.num_tasks()
    }
}
