//! Random platform and instance generators matching the paper's
//! experimental setup (Section 6).

use crate::exec::ExecutionMatrix;
use crate::granularity::scale_to_granularity;
use crate::plat::Platform;
use crate::Instance;
use rand::Rng;
use taskgraph::generators::{layered, LayeredConfig};
use taskgraph::Dag;

/// Random fully connected platform with unit link delays drawn uniformly
/// in `[lo, hi]` — the paper uses `[0.5, 1]`. Delays are symmetric.
pub fn random_platform(rng: &mut impl Rng, m: usize, lo: f64, hi: f64) -> Platform {
    assert!(0.0 <= lo && lo <= hi && hi.is_finite());
    // Draw the upper triangle, mirror it.
    let mut d = vec![0.0; m * m];
    for k in 0..m {
        for h in (k + 1)..m {
            let x = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            d[k * m + h] = x;
            d[h * m + k] = x;
        }
    }
    Platform::from_fn(m, |k, h| d[k * m + h])
}

/// Parameters of a paper-style random instance.
#[derive(Debug, Clone)]
pub struct PaperInstanceConfig {
    /// Inclusive range of the task count (paper: `[100, 150]`).
    pub tasks_lo: usize,
    /// Upper bound of the task count range.
    pub tasks_hi: usize,
    /// Number of processors (paper: 20, or 5 for Figure 4, 50 for Table 1).
    pub procs: usize,
    /// Target granularity (paper sweeps 0.2..=2.0 step 0.2).
    pub granularity: f64,
    /// Unrelated-machines heterogeneity spread for execution times.
    pub heterogeneity: f64,
}

impl Default for PaperInstanceConfig {
    fn default() -> Self {
        PaperInstanceConfig {
            tasks_lo: 100,
            tasks_hi: 150,
            procs: 20,
            granularity: 1.0,
            heterogeneity: 0.5,
        }
    }
}

/// Draws the paper's layered DAG alone: `U[tasks_lo, tasks_hi]` tasks,
/// `U[50, 150]` volumes. This is the first stage of [`paper_instance`]
/// (same RNG consumption), split out so graph-only callers reproduce
/// the campaign engine's instances at the same seed.
pub fn paper_dag(rng: &mut impl Rng, tasks_lo: usize, tasks_hi: usize) -> Dag {
    let tasks = if tasks_lo == tasks_hi {
        tasks_lo
    } else {
        rng.gen_range(tasks_lo..=tasks_hi)
    };
    layered(rng, &LayeredConfig::paper(tasks))
}

/// Draws one complete random instance per the paper's setup: layered DAG
/// with `U[tasks_lo, tasks_hi]` tasks and `U[50, 150]` volumes, symmetric
/// link delays `U[0.5, 1]`, unrelated execution times, all rescaled to hit
/// the target granularity exactly.
///
/// # Panics
///
/// If the granularity cannot be applied (see [`scale_to_granularity`]):
/// one processor, a one-task graph, or a target out of range.
pub fn paper_instance(rng: &mut impl Rng, cfg: &PaperInstanceConfig) -> Instance {
    let dag = paper_dag(rng, cfg.tasks_lo, cfg.tasks_hi);
    let platform = random_platform(rng, cfg.procs, 0.5, 1.0);
    let mut exec = ExecutionMatrix::unrelated_with_procs(&dag, cfg.procs, rng, cfg.heterogeneity);
    scale_to_granularity(&dag, &platform, &mut exec, cfg.granularity)
        .unwrap_or_else(|e| panic!("paper instance: {e}"));
    Instance::new(dag, platform, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::granularity::granularity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_platform_symmetric_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_platform(&mut rng, 10, 0.5, 1.0);
        for k in 0..10 {
            assert_eq!(p.delay(k, k), 0.0);
            for h in 0..10 {
                if k != h {
                    let d = p.delay(k, h);
                    assert!((0.5..=1.0).contains(&d));
                    assert_eq!(d, p.delay(h, k));
                }
            }
        }
    }

    #[test]
    fn paper_instance_matches_config() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PaperInstanceConfig {
            granularity: 0.8,
            ..Default::default()
        };
        let inst = paper_instance(&mut rng, &cfg);
        assert!(inst.num_tasks() >= 100 && inst.num_tasks() <= 150);
        assert_eq!(inst.num_procs(), 20);
        let g = granularity(&inst.dag, &inst.platform, &inst.exec).unwrap();
        assert!((g - 0.8).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = PaperInstanceConfig::default();
        let a = paper_instance(&mut StdRng::seed_from_u64(3), &cfg);
        let b = paper_instance(&mut StdRng::seed_from_u64(3), &cfg);
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(a.exec.time(0, 0), b.exec.time(0, 0));
        assert_eq!(a.platform.delay(0, 1), b.platform.delay(0, 1));
    }

    #[test]
    fn fixed_task_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = PaperInstanceConfig {
            tasks_lo: 42,
            tasks_hi: 42,
            ..Default::default()
        };
        let inst = paper_instance(&mut rng, &cfg);
        assert_eq!(inst.num_tasks(), 42);
    }
}
