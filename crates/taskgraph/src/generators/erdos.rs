//! Erdős–Rényi-style random DAGs: a random topological permutation with
//! independent forward edges.

use super::{connect_components, Range, DEFAULT_WORK, PAPER_VOLUMES};
use crate::graph::{Dag, DagBuilder, TaskId};
use rand::Rng;

/// Configuration for [`erdos`].
#[derive(Debug, Clone)]
pub struct ErdosConfig {
    /// Total number of tasks.
    pub tasks: usize,
    /// Probability of each forward pair `(i, j)` being an edge.
    pub edge_prob: f64,
    /// Cap on the out-degree of a task (keeps dense instances bounded);
    /// `usize::MAX` disables the cap.
    pub max_out_degree: usize,
    /// Distribution of raw task work.
    pub work: Range,
    /// Distribution of edge data volumes.
    pub volumes: Range,
}

impl ErdosConfig {
    /// Sparse default: expected out-degree ≈ 3, paper-style volumes.
    pub fn sparse(tasks: usize) -> Self {
        ErdosConfig {
            tasks,
            edge_prob: (3.0 / tasks.max(2) as f64).min(1.0),
            max_out_degree: 8,
            work: DEFAULT_WORK,
            volumes: PAPER_VOLUMES,
        }
    }
}

/// Generates a random DAG by sampling forward edges over a random
/// permutation of the tasks, then connecting stray components.
///
/// Each task's forward pairs are edges independently with probability
/// `p`, in permutation order, until `max_out_degree` of them are. The
/// draw skips straight to the next edge: the number of non-edges before
/// it is geometric, `⌊ln U / ln(1 − p)⌋` for `U` uniform on `(0, 1]`, so
/// a draw takes time linear in tasks plus edges, not in forward pairs.
pub fn erdos(rng: &mut impl Rng, cfg: &ErdosConfig) -> Dag {
    assert!(cfg.tasks > 0);
    assert!((0.0..=1.0).contains(&cfg.edge_prob));

    let mut b = DagBuilder::with_capacity(cfg.tasks, cfg.tasks * 4);
    let ids: Vec<TaskId> = (0..cfg.tasks)
        .map(|_| b.add_task(cfg.work.sample(rng)))
        .collect();

    // Random topological permutation.
    let mut order: Vec<usize> = (0..cfg.tasks).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }

    // ln(1 − p), exact for small p; −∞ at p = 1, where every gap is 0.
    // At p = 0 every gap would be infinite, so no task draws.
    let ln_miss = (-cfg.edge_prob).ln_1p();
    let drawing = if cfg.edge_prob > 0.0 { cfg.tasks } else { 0 };
    for i in 0..drawing {
        let (mut j, mut out) = (i + 1, 0usize);
        while out < cfg.max_out_degree && j < cfg.tasks {
            // 1 − U lies in (0, 1], so its log is finite. A gap past the
            // last task saturates the cast.
            let u = 1.0 - rng.gen::<f64>();
            let gap = (u.ln() / ln_miss).floor() as usize;
            if gap >= cfg.tasks - j {
                break;
            }
            j += gap;
            b.add_edge(ids[order[i]], ids[order[j]], cfg.volumes.sample(rng));
            out += 1;
            j += 1;
        }
    }

    let dag = b
        .build()
        .expect("forward edges over a permutation are acyclic");
    connect_components(dag, rng, cfg.volumes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::is_weakly_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_properties() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = erdos(&mut rng, &ErdosConfig::sparse(100));
            assert_eq!(g.num_tasks(), 100);
            assert!(is_weakly_connected(&g));
            assert_eq!(g.topological_order().len(), 100);
        }
    }

    #[test]
    fn out_degree_cap_respected_before_connection() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ErdosConfig {
            tasks: 60,
            edge_prob: 0.9,
            max_out_degree: 3,
            work: Range::new(1.0, 1.0),
            volumes: Range::new(1.0, 1.0),
        };
        let g = erdos(&mut rng, &cfg);
        // Connection pass may add a handful of extra edges; allow slack 1.
        for t in g.tasks() {
            assert!(g.out_degree(t) <= 4, "task {t} exceeds capped degree");
        }
    }

    #[test]
    fn zero_probability_still_connects() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ErdosConfig {
            edge_prob: 0.0,
            ..ErdosConfig::sparse(20)
        };
        let g = erdos(&mut rng, &cfg);
        assert!(is_weakly_connected(&g));
        // Connecting 20 isolated nodes takes >= 19 edges.
        assert!(g.num_edges() >= 19);
    }

    /// A `RngCore` that counts the words drawn from it.
    struct Counting(StdRng, u64);

    impl rand::RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn draws_are_linear_in_tasks_and_edges() {
        // One pair-by-pair draw per forward pair would be about 1.25e7
        // words at v = 5000; skipping the gaps takes a few per task and
        // per edge.
        let mut rng = Counting(StdRng::seed_from_u64(4), 0);
        let g = erdos(&mut rng, &ErdosConfig::sparse(5000));
        let (v, e) = (g.num_tasks() as u64, g.num_edges() as u64);
        assert!(e > v, "a sparse draw still has about 3 edges a task");
        assert!(rng.1 <= 4 * (v + e), "{} words for v = {v}, e = {e}", rng.1);
    }

    #[test]
    fn every_pair_is_an_edge_at_probability_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = ErdosConfig {
            tasks: 12,
            edge_prob: 1.0,
            max_out_degree: usize::MAX,
            work: DEFAULT_WORK,
            volumes: PAPER_VOLUMES,
        };
        assert_eq!(erdos(&mut rng, &cfg).num_edges(), 12 * 11 / 2);
    }

    #[test]
    fn dense_graph_has_many_edges() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = ErdosConfig {
            tasks: 30,
            edge_prob: 0.5,
            max_out_degree: usize::MAX,
            work: DEFAULT_WORK,
            volumes: PAPER_VOLUMES,
        };
        let g = erdos(&mut rng, &cfg);
        assert!(g.num_edges() > 100);
    }
}
