//! Shared fixtures for the benchmark suite.
//!
//! One Criterion bench target exists per table/figure of the paper
//! (`table1`, `fig1`–`fig4`) plus `ablations` for component-level design
//! choices (AVL vs `BTreeMap`, greedy vs bottleneck matching, FTBAR with
//! and without the minimize-start-time pass, event-queue simulation vs
//! analytic replay), `parallel` for the rayon-shim harness (figure
//! sweep at 1/2/4 workers, `parallel_map` dispatch overhead),
//! `campaign` for the declarative scenario-grid executor (whole-grid
//! runs at 1/4 workers plus the warm per-cell hot path), and
//! `scheduler` for the `schedule()` hot path itself (fig1-style
//! instances at v ∈ {100, 500, 1000} plus the ε = 5 stress shape) —
//! tracked against the committed `BENCH_scheduler.json` baseline — and
//! `json` for the JSON writer (the float kernel against `{:?}`, and a
//! 20k-task bundle streamed to a sink; `BENCH_json.json`). The
//! *data* the paper reports are regenerated by the
//! `ftsched-experiments` binaries; the benches measure how long each
//! pipeline takes, which is the subject of Table 1.

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
