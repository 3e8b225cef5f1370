//! 2-D wavefront task graph (dynamic-programming / LU-style sweep).
//!
//! Cell `(i, j)` depends on `(i−1, j)` and `(i, j−1)`; the computation
//! sweeps diagonally across the grid. Width grows to `min(rows, cols)`
//! then shrinks — a shape that exercises FTSA's free-list churn.

use crate::graph::{Dag, DagBuilder, TaskId};

/// Builds a `rows × cols` wavefront DAG. Each cell costs `work`; each
/// dependency ships `volume` units.
pub fn wavefront(rows: usize, cols: usize, work: f64, volume: f64) -> Dag {
    assert!(rows >= 1 && cols >= 1);
    let mut b = DagBuilder::with_capacity(rows * cols, 2 * rows * cols);
    let mut grid: Vec<Vec<TaskId>> = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut row = Vec::with_capacity(cols);
        for j in 0..cols {
            let t = b.add_labelled_task(work, format!("cell({i},{j})"));
            if i > 0 {
                b.add_edge(grid[i - 1][j], t, volume);
            }
            if j > 0 {
                b.add_edge(row[j - 1], t, volume);
            }
            row.push(t);
        }
        grid.push(row);
    }
    b.build().expect("wavefront DAG is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{critical_path_length, stats};
    use crate::topology::{is_weakly_connected, levels};

    #[test]
    fn counts() {
        let g = wavefront(3, 4, 1.0, 1.0);
        assert_eq!(g.num_tasks(), 12);
        // Edges: (rows-1)*cols vertical + rows*(cols-1) horizontal.
        assert_eq!(g.num_edges(), 2 * 4 + 3 * 3);
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn diagonal_depth() {
        let g = wavefront(3, 5, 1.0, 1.0);
        let lv = levels(&g);
        assert_eq!(lv.iter().max(), Some(&(3 + 5 - 2)));
    }

    #[test]
    fn width_is_min_dimension() {
        let g = wavefront(3, 6, 1.0, 1.0);
        assert_eq!(stats(&g).width_lb, 3);
    }

    #[test]
    fn critical_path_is_monotone_path() {
        let g = wavefront(4, 4, 2.0, 0.0);
        // Any monotone path visits rows+cols-1 = 7 cells of work 2.
        assert_eq!(critical_path_length(&g, 0.0), 14.0);
    }

    #[test]
    fn degenerate_row() {
        let g = wavefront(1, 5, 1.0, 1.0);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.entries().len(), 1);
    }
}
