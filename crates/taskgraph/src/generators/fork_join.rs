//! Fork–join DAGs: alternating fan-out and fan-in stages, the shape of
//! bulk-synchronous parallel phases.

use super::Range;
use crate::graph::{Dag, DagBuilder};
use rand::Rng;

/// Configuration for [`fork_join`].
#[derive(Debug, Clone)]
pub struct ForkJoinConfig {
    /// Number of fork–join stages.
    pub stages: usize,
    /// Parallel branches per stage.
    pub width: usize,
    /// Distribution of raw task work.
    pub work: Range,
    /// Distribution of edge data volumes.
    pub volumes: Range,
}

impl ForkJoinConfig {
    /// A `stages × width` pipeline with unit-ish weights.
    pub fn new(stages: usize, width: usize) -> Self {
        ForkJoinConfig {
            stages,
            width,
            work: Range::new(10.0, 100.0),
            volumes: Range::new(50.0, 150.0),
        }
    }
}

/// Generates `source → (width parallel tasks) → join → …` for the given
/// number of stages. Total tasks: `stages * (width + 1) + 1`.
pub fn fork_join(rng: &mut impl Rng, cfg: &ForkJoinConfig) -> Dag {
    assert!(cfg.stages > 0 && cfg.width > 0);
    let mut b =
        DagBuilder::with_capacity(cfg.stages * (cfg.width + 1) + 1, cfg.stages * cfg.width * 2);
    let mut hub = b.add_labelled_task(cfg.work.sample(rng), "source");
    for s in 0..cfg.stages {
        let join = {
            let branches: Vec<_> = (0..cfg.width)
                .map(|i| {
                    let t = b.add_labelled_task(cfg.work.sample(rng), format!("s{s}b{i}"));
                    b.add_edge(hub, t, cfg.volumes.sample(rng));
                    t
                })
                .collect();
            let join = b.add_labelled_task(cfg.work.sample(rng), format!("join{s}"));
            for t in branches {
                b.add_edge(t, join, cfg.volumes.sample(rng));
            }
            join
        };
        hub = join;
    }
    b.build().expect("fork-join construction is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use crate::topology::is_weakly_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = fork_join(&mut rng, &ForkJoinConfig::new(3, 5));
        assert_eq!(g.num_tasks(), 3 * 6 + 1);
        assert_eq!(g.num_edges(), 3 * 5 * 2);
        assert!(is_weakly_connected(&g));
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.exits().len(), 1);
    }

    #[test]
    fn width_equals_branch_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = fork_join(&mut rng, &ForkJoinConfig::new(2, 7));
        assert_eq!(stats(&g).width_lb, 7);
    }

    #[test]
    fn labels_present() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = fork_join(&mut rng, &ForkJoinConfig::new(1, 2));
        let labels: Vec<_> = g.tasks().filter_map(|t| g.label(t)).collect();
        assert!(labels.contains(&"source"));
        assert!(labels.contains(&"join0"));
    }
}
