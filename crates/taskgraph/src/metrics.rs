//! Structural metrics of task graphs: critical path, width, degree
//! statistics.
//!
//! The FTSA complexity bound `O(e·m² + v·log ω)` involves the *width* `ω`
//! of the DAG — the maximum number of pairwise-independent tasks — which
//! bounds the size of the free list `α`. [`stats`] reports the `O(v + e)`
//! level-based lower bound on it, the largest precedence level.

use crate::graph::Dag;
use crate::topology::level_sets;

/// Length of the critical path where each task counts `work` and each edge
/// counts `volume * delay_per_unit`. With `delay_per_unit = 0` this is the
/// pure computation critical path.
pub fn critical_path_length(dag: &Dag, delay_per_unit: f64) -> f64 {
    let mut dist = vec![0.0f64; dag.num_tasks()];
    let mut best: f64 = 0.0;
    for &t in dag.topological_order() {
        let arrival = dag
            .preds(t)
            .iter()
            .map(|&(p, e)| dist[p.index()] + dag.volume(e) * delay_per_unit)
            .fold(0.0f64, f64::max);
        dist[t.index()] = arrival + dag.work(t);
        best = best.max(dist[t.index()]);
    }
    best
}

/// Summary statistics of a DAG, useful in experiment logs.
#[derive(Debug, Clone, PartialEq)]
pub struct DagStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of entry tasks.
    pub entries: usize,
    /// Number of exit tasks.
    pub exits: usize,
    /// Number of precedence levels.
    pub depth: usize,
    /// Level-based width lower bound.
    pub width_lb: usize,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Total work.
    pub total_work: f64,
    /// Total communication volume.
    pub total_volume: f64,
}

/// Computes [`DagStats`] for `dag`.
pub fn stats(dag: &Dag) -> DagStats {
    let sets = level_sets(dag);
    DagStats {
        tasks: dag.num_tasks(),
        edges: dag.num_edges(),
        entries: dag.entries().len(),
        exits: dag.exits().len(),
        depth: sets.len(),
        width_lb: sets.iter().map(Vec::len).max().unwrap_or(0),
        mean_out_degree: if dag.num_tasks() == 0 {
            0.0
        } else {
            dag.num_edges() as f64 / dag.num_tasks() as f64
        },
        total_work: dag.total_work(),
        total_volume: dag.total_volume(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DagBuilder, TaskId};

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|i| b.add_task((i + 1) as f64)).collect();
        b.add_edge(t[0], t[1], 10.0);
        b.add_edge(t[0], t[2], 10.0);
        b.add_edge(t[1], t[3], 10.0);
        b.add_edge(t[2], t[3], 10.0);
        b.build().unwrap()
    }

    #[test]
    fn critical_path_no_comm() {
        let g = diamond();
        // Longest: 1 + 3 + 4 = 8 (via t2).
        assert_eq!(critical_path_length(&g, 0.0), 8.0);
    }

    #[test]
    fn critical_path_with_comm() {
        let g = diamond();
        // With unit delay 1: 1 + 10 + 3 + 10 + 4 = 28.
        assert_eq!(critical_path_length(&g, 1.0), 28.0);
    }

    #[test]
    fn width_of_diamond_is_two() {
        assert_eq!(stats(&diamond()).width_lb, 2);
    }

    #[test]
    fn width_of_antichain_is_n() {
        let mut b = DagBuilder::new();
        for _ in 0..7 {
            b.add_task(1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(stats(&g).width_lb, 7);
    }

    #[test]
    fn width_of_chain_is_one() {
        let mut b = DagBuilder::new();
        let ts: Vec<TaskId> = (0..6).map(|_| b.add_task(1.0)).collect();
        for w in ts.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(stats(&g).width_lb, 1);
    }

    #[test]
    fn stats_of_diamond() {
        let g = diamond();
        let s = stats(&g);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.total_work, 10.0);
        assert_eq!(s.total_volume, 40.0);
    }

    #[test]
    fn empty_graph_metrics() {
        let g = DagBuilder::new().build().unwrap();
        assert_eq!(critical_path_length(&g, 1.0), 0.0);
        assert_eq!(stats(&g).width_lb, 0);
    }
}
