//! Experiment harness: a declarative **campaign engine** plus the paper
//! presets built on it.
//!
//! Section 6 of the paper evaluates one fixed grid: random layered
//! graphs with `U{100..150}` tasks, granularity swept from 0.2 to 2.0 in
//! steps of 0.2, 20 processors (5 for Figure 4, 50 for Table 1),
//! `ε ∈ {1, 2, 5}`, unit link delays `U[0.5, 1]`, message volumes
//! `U[50, 150]`, 60 random graphs per point. This crate generalizes that
//! into one subsystem:
//!
//! * [`campaign`] — **the engine.** A serde-round-trippable
//!   [`campaign::CampaignSpec`] describes a scenario grid (workload ×
//!   platform × ε × repetitions, algorithm sets, failure models,
//!   measurement plan); the executor enumerates cells with deterministic
//!   per-cell seeds, fans them out over scoped worker threads with
//!   per-worker reusable workspaces (zero allocations in the
//!   scheduler/simulator hot path), and streams the results, in cell
//!   order, into mean/stddev/percentile group statistics. The paper's evaluations
//!   (Figures 1–4, Table 1 and the Section 7 contention and reliability
//!   extensions) are named presets ([`campaign::presets`]), pinned
//!   bit-identical to the pre-campaign bespoke drivers; `ftsched
//!   campaign --preset <name>` is the one way to run them.
//! * [`parallel`] — re-exports the simulator's deterministic executor
//!   [`parallel::parallel_map_into`] (and its collecting form
//!   [`parallel::parallel_map_with`]) and resolves the default worker
//!   count ([`parallel::default_threads`], pinned by `FTSCHED_THREADS`);
//!   results are bit-identical at any thread count.
//! * [`serve`] — the streaming campaign service behind `ftsched serve`:
//!   a hand-rolled HTTP/1.1 gateway accepting `CampaignSpec` JSON that
//!   runs a campaign's groups through the same executor, fold and JSON
//!   pieces as the batch path and chunk-streams each group in order as
//!   it completes, byte-identical to the CLI's file emission.
//! * [`store`] — the durable run store behind `serve --data-dir`:
//!   persistent idempotency records plus a checksummed write-ahead log
//!   of rendered groups, with crash recovery that resumes interrupted
//!   runs bit-exactly from the first missing group.
//! * [`output`] — CSV/JSON/text emission of campaign results; the JSON
//!   document's head, group and tail pieces are shared with [`serve`].
//!
//! **Normalization.** The paper plots "normalized latency" without
//! defining the constant. We divide by the instance's mean edge
//! communication cost `W̄ = mean_e V(e) · d̄`, which is independent of
//! the granularity sweep (only execution times are rescaled), so the
//! curve *shapes* match the paper: latency grows with granularity and
//! algorithm orderings are directly comparable. Absolute y-values differ
//! from the paper's unspecified constant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod output;
pub mod parallel;
pub mod serve;
pub mod store;

/// Default granularity sweep of the paper: 0.2, 0.4, …, 2.0.
pub fn paper_granularities() -> Vec<f64> {
    (1..=10).map(|i| i as f64 * 0.2).collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation of a slice (0 for len < 2).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_sweep_matches_paper() {
        let g = paper_granularities();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.2).abs() < 1e-12);
        assert!((g[9] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
