//! Weighted bipartite graph representation.

/// A weighted edge between left node `left` and right node `right`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Left endpoint (sender side in MC-FTSA).
    pub left: usize,
    /// Right endpoint (receiver side in MC-FTSA).
    pub right: usize,
    /// Edge weight; in MC-FTSA the completion time of the receiver if this
    /// were its only incoming communication.
    pub weight: f64,
}

/// A weighted bipartite graph with `n_left` left and `n_right` right nodes.
///
/// ```
/// use matching::BipartiteGraph;
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 1, 3.5);
/// assert_eq!(g.weight(0, 1), Some(3.5));
/// assert_eq!(g.weight(0, 0), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    edges: Vec<Edge>,
}

impl BipartiteGraph {
    /// Creates an empty graph with the given side sizes.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        BipartiteGraph {
            n_left,
            n_right,
            edges: Vec::new(),
        }
    }

    /// Clears the graph in place and sets new side sizes, keeping the
    /// edge buffer's capacity. The scheduler's matched-communication
    /// placement rebuilds one graph per predecessor this way, so its
    /// steady state performs no allocation.
    pub fn reset(&mut self, n_left: usize, n_right: usize) {
        self.n_left = n_left;
        self.n_right = n_right;
        self.edges.clear();
    }

    /// Number of left nodes.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right nodes.
    #[inline]
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// All edges, in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an edge. Parallel edges are allowed (the lighter one will win
    /// in any selector); weights must be finite.
    pub fn add_edge(&mut self, left: usize, right: usize, weight: f64) {
        assert!(left < self.n_left, "left node {left} out of range");
        assert!(right < self.n_right, "right node {right} out of range");
        assert!(weight.is_finite(), "edge weight must be finite");
        self.edges.push(Edge {
            left,
            right,
            weight,
        });
    }

    /// Weight of the lightest edge `(left, right)` if any exists.
    pub fn weight(&self, left: usize, right: usize) -> Option<f64> {
        self.edges
            .iter()
            .filter(|e| e.left == left && e.right == right)
            .map(|e| e.weight)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.min(w))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_picks_lightest_parallel_edge() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, 5.0);
        g.add_edge(0, 0, 2.0);
        assert_eq!(g.weight(0, 0), Some(2.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_left_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0, 1.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_weight_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0, f64::INFINITY);
    }
}
