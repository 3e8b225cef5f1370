//! 1-D stencil (iterative relaxation) task graph.
//!
//! `width` cells iterated for `steps` time steps: task `(x, s)` depends on
//! `(x−1, s−1)`, `(x, s−1)`, `(x+1, s−1)` — a Jacobi/Laplace sweep. The
//! DAG has width `width` and depth `steps`, with mostly-local
//! communication, the regime where granularity dominates scheduling
//! decisions.

use crate::graph::{Dag, DagBuilder, TaskId};

/// Builds a `width × steps` 1-D stencil DAG. Each task costs `work`;
/// each dependency ships `volume` units.
pub fn stencil_1d(width: usize, steps: usize, work: f64, volume: f64) -> Dag {
    assert!(width >= 1 && steps >= 1);
    let mut b = DagBuilder::with_capacity(width * steps, width * steps * 3);
    let mut prev: Vec<TaskId> = (0..width)
        .map(|x| b.add_labelled_task(work, format!("cell({x},0)")))
        .collect();
    for s in 1..steps {
        let cur: Vec<TaskId> = (0..width)
            .map(|x| b.add_labelled_task(work, format!("cell({x},{s})")))
            .collect();
        for (x, &cell) in cur.iter().enumerate() {
            let lo = x.saturating_sub(1);
            let hi = (x + 1).min(width - 1);
            for &nb in &prev[lo..=hi] {
                b.add_edge(nb, cell, volume);
            }
        }
        prev = cur;
    }
    b.build().expect("stencil DAG is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use crate::topology::{is_weakly_connected, levels};

    #[test]
    fn counts() {
        let g = stencil_1d(5, 4, 1.0, 1.0);
        assert_eq!(g.num_tasks(), 20);
        // Interior cells have 3 preds, border cells 2: per step 3*3+2*2=13.
        assert_eq!(g.num_edges(), 13 * 3);
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn depth_and_width() {
        let g = stencil_1d(6, 3, 1.0, 1.0);
        let lv = levels(&g);
        assert_eq!(lv.iter().max(), Some(&2));
        assert_eq!(stats(&g).width_lb, 6);
    }

    #[test]
    fn single_cell_chain() {
        let g = stencil_1d(1, 5, 1.0, 1.0);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn single_step_antichain() {
        let g = stencil_1d(4, 1, 1.0, 1.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.entries().len(), 4);
    }
}
