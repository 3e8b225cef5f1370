//! Shared fixtures for the benchmark suite.
//!
//! Four Criterion targets:
//!
//! * `scheduler` — the `schedule()` hot path itself (fig1-style
//!   instances at v ∈ {100, 500, 1000} plus the ε = 5 stress shape and
//!   the large-v series), tracked against the committed
//!   `BENCH_scheduler.json` baseline;
//! * `ablations` — component-level design choices (greedy vs bottleneck
//!   matching, FTBAR with and without the minimize-start-time pass,
//!   FTSA priority policies, port models, the static crash pass vs the
//!   event loop);
//! * `campaign` — the declarative scenario-grid executor (whole-grid
//!   runs at 1/4 workers plus the warm per-cell hot path);
//! * `json` — the JSON writer (the float kernel against `{:?}`, and a
//!   20k-task bundle streamed to a sink; `BENCH_json.json`).
//!
//! The *data* the paper reports are regenerated by `ftsched campaign
//! --preset <name>`; the benches measure how long each pipeline takes.
//! End-to-end speed claims go through `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use platform::gen::{paper_instance, PaperInstanceConfig};
use platform::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic paper-style instance for benches.
pub fn bench_instance(tasks: usize, procs: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    paper_instance(
        &mut rng,
        &PaperInstanceConfig {
            tasks_lo: tasks,
            tasks_hi: tasks,
            procs,
            granularity: 1.0,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let a = bench_instance(120, 10, 7);
        let b = bench_instance(120, 10, 7);
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(a.exec.time(0, 0), b.exec.time(0, 0));
    }
}
