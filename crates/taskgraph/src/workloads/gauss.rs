//! Gaussian elimination task graph.
//!
//! For an `n × n` system, elimination step `k` consists of a pivot task
//! `P_k` (preparing column `k`) followed by update tasks `U_{k,j}` for
//! `j > k` (eliminating column `k` from column `j`). Dependencies:
//! `P_k → U_{k,j}` for all `j`, `U_{k,k+1} → P_{k+1}`, and
//! `U_{k,j} → U_{k+1,j}` for `j > k+1`. Work shrinks as the active
//! submatrix shrinks, giving the characteristic "triangle" DAG with width
//! `n − 1` at the top and 1 at the bottom.

use crate::graph::{Dag, DagBuilder, TaskId};

/// Builds the Gaussian-elimination DAG for matrix dimension `n >= 2`.
///
/// `work_scale` multiplies task work; `volume_scale` multiplies the data
/// volume (a column of the active submatrix) shipped along each edge.
pub fn gaussian_elimination(n: usize, work_scale: f64, volume_scale: f64) -> Dag {
    assert!(n >= 2, "need at least a 2x2 system");
    let mut b = DagBuilder::new();

    // pivot[k], update[k][j] for j in k+1..n
    let mut pivot: Vec<TaskId> = Vec::with_capacity(n - 1);
    let mut update: Vec<Vec<TaskId>> = Vec::with_capacity(n - 1);

    for k in 0..n - 1 {
        let rows = (n - k) as f64;
        let p = b.add_labelled_task(rows * work_scale, format!("pivot({k})"));
        pivot.push(p);
        let mut row = Vec::new();
        for j in k + 1..n {
            let u = b.add_labelled_task(rows * work_scale, format!("update({k},{j})"));
            row.push(u);
        }
        update.push(row);
    }

    for k in 0..n - 1 {
        let col_volume = (n - k) as f64 * volume_scale;
        for (idx, &u) in update[k].iter().enumerate() {
            b.add_edge(pivot[k], u, col_volume);
            let j = k + 1 + idx;
            if k + 1 < n - 1 {
                if j == k + 1 {
                    b.add_edge(u, pivot[k + 1], col_volume);
                } else {
                    // u = U_{k,j} feeds U_{k+1,j}.
                    let next = update[k + 1][j - (k + 2)];
                    b.add_edge(u, next, col_volume);
                }
            }
        }
    }

    b.build().expect("gaussian elimination DAG is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use crate::topology::is_weakly_connected;

    #[test]
    fn task_count_formula() {
        // Tasks: sum over k of (1 pivot + (n-1-k) updates) = (n-1) + n(n-1)/2.
        for n in [2, 3, 5, 8] {
            let g = gaussian_elimination(n, 1.0, 1.0);
            let expected = (n - 1) + n * (n - 1) / 2;
            assert_eq!(g.num_tasks(), expected, "n={n}");
            assert!(is_weakly_connected(&g));
        }
    }

    #[test]
    fn single_entry_single_exit() {
        let g = gaussian_elimination(6, 1.0, 1.0);
        assert_eq!(g.entries().len(), 1, "pivot(0) is the only entry");
        // The final update U_{n-2, n-1} is the only exit… together with
        // dangling updates of the last step.
        assert!(!g.exits().is_empty());
    }

    #[test]
    fn width_is_n_minus_one() {
        let g = gaussian_elimination(6, 1.0, 1.0);
        assert_eq!(stats(&g).width_lb, 5);
    }

    #[test]
    fn work_decreases_with_k() {
        let g = gaussian_elimination(5, 2.0, 1.0);
        // pivot(0) has work 5*2, pivot(3) has work 2*2.
        let w: Vec<f64> = g
            .tasks()
            .filter(|&t| g.label(t).is_some_and(|l| l.starts_with("pivot")))
            .map(|t| g.work(t))
            .collect();
        assert_eq!(w, vec![10.0, 8.0, 6.0, 4.0]);
    }

    #[test]
    fn stats_sane() {
        let g = gaussian_elimination(7, 1.0, 1.0);
        let s = stats(&g);
        // pivot(k) sits at level 2k, update(k,·) at 2k+1, so the deepest
        // level is 2(n−2)+1 and the depth (level count) is 2(n−1).
        assert_eq!(s.depth, 2 * (7 - 1));
        assert!(s.edges > s.tasks);
    }
}
