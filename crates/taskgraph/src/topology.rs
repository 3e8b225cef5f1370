//! Topological utilities: levels and connectivity.

use crate::graph::{Dag, TaskId};

/// Assigns each task its *precedence level*: entry tasks are level 0,
/// every other task is `1 + max(level of predecessors)`. Levels give the
/// classic layered drawing of the DAG and a cheap width lower bound.
pub fn levels(dag: &Dag) -> Vec<usize> {
    let mut level = vec![0usize; dag.num_tasks()];
    for &t in dag.topological_order() {
        let l = dag
            .preds(t)
            .iter()
            .map(|&(p, _)| level[p.index()] + 1)
            .max()
            .unwrap_or(0);
        level[t.index()] = l;
    }
    level
}

/// Groups tasks by level, in ascending level order.
pub fn level_sets(dag: &Dag) -> Vec<Vec<TaskId>> {
    let lv = levels(dag);
    let depth = lv.iter().max().map_or(0, |m| m + 1);
    let mut sets = vec![Vec::new(); depth];
    for t in dag.tasks() {
        sets[lv[t.index()]].push(t);
    }
    sets
}

/// Whether the underlying undirected graph is connected (trivially true
/// for `v <= 1`). The generators' tests use it as their oracle.
pub fn is_weakly_connected(dag: &Dag) -> bool {
    let n = dag.num_tasks();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![TaskId(0)];
    seen[0] = true;
    let mut visited = 1;
    while let Some(t) = stack.pop() {
        let nbrs = dag
            .succs(t)
            .iter()
            .map(|&(s, _)| s)
            .chain(dag.preds(t).iter().map(|&(p, _)| p));
        for s in nbrs {
            if !seen[s.index()] {
                seen[s.index()] = true;
                visited += 1;
                stack.push(s);
            }
        }
    }
    visited == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn chain(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        let ts: Vec<TaskId> = (0..n).map(|_| b.add_task(1.0)).collect();
        for w in ts.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_levels() {
        let g = chain(5);
        assert_eq!(levels(&g), vec![0, 1, 2, 3, 4]);
        let sets = level_sets(&g);
        assert_eq!(sets.len(), 5);
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn diamond_levels() {
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|_| b.add_task(1.0)).collect();
        b.add_edge(t[0], t[1], 1.0);
        b.add_edge(t[0], t[2], 1.0);
        b.add_edge(t[1], t[3], 1.0);
        b.add_edge(t[2], t[3], 1.0);
        let g = b.build().unwrap();
        assert_eq!(levels(&g), vec![0, 1, 1, 2]);
    }

    #[test]
    fn connectivity() {
        let g = chain(4);
        assert!(is_weakly_connected(&g));
        let mut b = DagBuilder::new();
        b.add_task(1.0);
        b.add_task(1.0);
        let g2 = b.build().unwrap();
        assert!(!is_weakly_connected(&g2));
    }
}
