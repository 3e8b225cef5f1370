//! Structural metrics of task graphs: critical path, width, degree
//! statistics.
//!
//! The FTSA complexity bound `O(e·m² + v·log ω)` involves the *width* `ω`
//! of the DAG — the maximum number of pairwise-independent tasks — which
//! bounds the size of the free list `α`. Exact width is computed via
//! Dilworth's theorem (minimum chain cover = `v` − maximum matching in the
//! transitive-closure bipartite graph); an `O(v + e)` level-based lower
//! bound is provided for large instances.

use crate::graph::Dag;
use crate::topology::{descendants, level_sets};
use matching::{maximum_matching, BipartiteGraph};

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

/// Exact width `ω` (maximum antichain) via Dilworth's theorem.
///
/// Builds the bipartite graph of the transitive closure and computes a
/// maximum matching; the minimum number of chains covering the DAG is
/// `v − matching`, which equals the maximum antichain size. Cost is the
/// closure (`O(v·e/64)`) plus a Hopcroft–Karp run, so reserve this for
/// graphs up to a few thousand tasks; use [`width_lower_bound`] beyond.
pub fn width_exact(dag: &Dag) -> usize {
    let n = dag.num_tasks();
    if n == 0 {
        return 0;
    }
    let reach = descendants(dag);
    let mut g = BipartiteGraph::new(n, n);
    for (a, reach_a) in reach.iter().enumerate() {
        for b in 0..n {
            if reach_a.contains(b) {
                g.add_edge(a, b, 1.0);
            }
        }
    }
    n - maximum_matching(&g).size
}

/// Fast width lower bound: the largest precedence level.
pub fn width_lower_bound(dag: &Dag) -> usize {
    level_sets(dag).iter().map(Vec::len).max().unwrap_or(0)
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
        let g = diamond();
        assert_eq!(width_exact(&g), 2);
        assert_eq!(width_lower_bound(&g), 2);
    }

    #[test]
    fn width_of_antichain_is_n() {
        let mut b = DagBuilder::new();
        for _ in 0..7 {
            b.add_task(1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(width_exact(&g), 7);
        assert_eq!(width_lower_bound(&g), 7);
    }

    #[test]
    fn width_of_chain_is_one() {
        let mut b = DagBuilder::new();
        let ts: Vec<TaskId> = (0..6).map(|_| b.add_task(1.0)).collect();
        for w in ts.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(width_exact(&g), 1);
    }

    #[test]
    fn width_where_levels_underestimate() {
        // Two chains a0->a1 and b0->b1 with a cross edge a0->b1:
        // levels: a0,b0 = 0; a1,b1 = 1 → level bound 2; true width 2.
        // Add c independent: width 3, max level still… c at level 0 → 3.
        // Construct a case where the level heuristic is strictly smaller:
        //   x -> y,  z independent of both but level(z)=0
        //   antichain {y?} … Use the classic "N" shape:
        //   a -> c, b -> c, b -> d  → levels {a,b}=0, {c,d}=1 (bound 2)
        //   antichain {a, d}: a does not reach d, width = 2. Equal again.
        // The bound can only underestimate on skewed structures; verify
        // exact >= bound on one such skew.
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..5).map(|_| b.add_task(1.0)).collect();
        b.add_edge(t[0], t[1], 1.0);
        b.add_edge(t[1], t[2], 1.0);
        b.add_edge(t[0], t[3], 1.0);
        b.add_edge(t[3], t[4], 1.0);
        let g = b.build().unwrap();
        assert!(width_exact(&g) >= width_lower_bound(&g));
        assert_eq!(width_exact(&g), 2);
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
        assert_eq!(width_exact(&g), 0);
    }
}
