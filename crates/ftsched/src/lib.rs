//! # ftsched — fault-tolerant scheduling of precedence task graphs
//!
//! A from-scratch Rust implementation of Benoit, Hakem and Robert,
//! *Fault Tolerant Scheduling of Precedence Task Graphs on Heterogeneous
//! Platforms* (INRIA RR-6418 / IPDPS 2008): the **FTSA** and **MC-FTSA**
//! heuristics, the **FTBAR** baseline, the platform/task-graph substrate
//! they run on, and a crash simulator to evaluate schedules under
//! fail-stop processor failures.
//!
//! This facade crate re-exports the full public API; the implementation
//! lives in the focused workspace crates (`ftsched-taskgraph`,
//! `ftsched-platform`, `ftsched-core`, `ftsched-simulator`,
//! `ftsched-matching`, `ftsched-collections`).
//!
//! ## Quickstart
//!
//! ```
//! use ftsched::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A random paper-style instance: layered DAG, 20 heterogeneous
//! // processors, granularity 1.0.
//! let mut rng = StdRng::seed_from_u64(42);
//! let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
//!
//! // Schedule it to survive any 2 processor failures.
//! let sched = schedule(&inst, 2, Algorithm::Ftsa, &mut rng).unwrap();
//! assert!(validate(&inst, &sched).is_ok());
//!
//! // Crash two processors and watch the schedule hold.
//! let scenario = FailureScenario::uniform(&mut rng, inst.num_procs(), 2);
//! let sim = simulate(&inst, &sched, &scenario);
//! assert!(sim.completed());
//! assert!(sim.latency <= sched.latency_upper_bound() + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftcollections as collections;
pub use ftsched_core as core;
pub use matching;
pub use platform;
pub use simulator;
pub use taskgraph;

/// Everything a downstream user typically needs, in one import.
pub mod prelude {
    pub use ftsched_core::bicriteria::{
        deadlines, ftsa_both_criteria, max_epsilon_binary, max_epsilon_linear,
    };
    pub use ftsched_core::bounds::critical_path_bound;
    pub use ftsched_core::pipeline::{
        CommAxis, ListScheduler, PlacementAxis, PriorityAxis, Selector,
    };
    pub use ftsched_core::stats::{schedule_stats, ScheduleStats};
    pub use ftsched_core::validate::validate;
    pub use ftsched_core::{
        schedule, schedule_into, Algorithm, CommSelection, Replica, Schedule, ScheduleError,
        ScheduleWorkspace,
    };
    pub use platform::gen::{paper_instance, random_platform, PaperInstanceConfig};
    pub use platform::granularity::{granularity, scale_to_granularity};
    pub use platform::{ExecutionMatrix, FailureScenario, Instance, Platform, ProcId};
    pub use simulator::contention::{simulate_contention, ContentionResult, PortModel};
    pub use simulator::crash::{
        simulate_into, simulate_outcome_into, summarize_replications, CrashWorkspace,
        FallbackPolicy, ReplicationOutcome, ReplicationSummary,
    };
    pub use simulator::reliability::{design_point_probability, survival_probability_exact};
    pub use simulator::trace::{gantt, trace};
    pub use simulator::{simulate, SimResult};
    pub use taskgraph::generators::{
        erdos, fork_join, layered, series_parallel, ErdosConfig, ForkJoinConfig, LayeredConfig,
        SeriesParallelConfig,
    };
    pub use taskgraph::workloads::{
        cholesky, fft, gaussian_elimination, map_reduce, stencil_1d, wavefront,
    };
    pub use taskgraph::{Dag, DagBuilder, EdgeId, TaskId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_api() {
        use crate::prelude::*;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let inst = paper_instance(&mut rng, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::McFtsaGreedy, &mut rng).unwrap();
        validate(&inst, &s).unwrap();
    }
}
