//! Topological utilities: levels, descendant sets, connectivity.

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

/// A packed bitset over task ids, used for transitive reachability.
#[derive(Debug, Clone)]
pub struct TaskSet {
    words: Vec<u64>,
}

impl TaskSet {
    /// Creates an empty set over `n` tasks.
    pub fn new(n: usize) -> Self {
        TaskSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts task index `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &TaskSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Computes per-task descendant sets: `reach[t]` contains every task
/// strictly reachable from `t`. `O(v·e/64)` time, `O(v²/64)` space.
pub fn descendants(dag: &Dag) -> Vec<TaskSet> {
    let n = dag.num_tasks();
    let mut reach: Vec<TaskSet> = (0..n).map(|_| TaskSet::new(n)).collect();
    for &t in dag.topological_order().iter().rev() {
        // reach[t] = union over successors s of ({s} ∪ reach[s]).
        let mut acc = TaskSet::new(n);
        for &(s, _) in dag.succs(t) {
            acc.insert(s.index());
            acc.union_with(&reach[s.index()]);
        }
        reach[t.index()] = acc;
    }
    reach
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
    fn descendants_of_chain() {
        let g = chain(4);
        let d = descendants(&g);
        assert_eq!(d[0].count(), 3);
        assert_eq!(d[3].count(), 0);
        assert!(d[0].contains(3));
        assert!(!d[2].contains(0));
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

    #[test]
    fn taskset_ops() {
        let mut s = TaskSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.count(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(1));
        let mut s2 = TaskSet::new(130);
        s2.insert(1);
        s2.union_with(&s);
        assert_eq!(s2.count(), 4);
    }
}
