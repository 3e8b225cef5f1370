//! Hopcroft–Karp maximum bipartite matching in `O(E √V)`.
//!
//! Used as the feasibility oracle of the bottleneck selector: the paper's
//! polynomial algorithm "suppresses all edges of weight larger than T and
//! runs a maximal matching algorithm (which is polynomial since the graph
//! is bipartite) that will cover all source nodes if such a cover
//! exists".

use crate::bipartite::BipartiteGraph;

/// Result of a maximum-matching computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// Number of matched pairs.
    pub size: usize,
    /// `match_left[l]` = the right node matched to left node `l`.
    pub match_left: Vec<Option<usize>>,
    /// `match_right[r]` = the left node matched to right node `r`.
    pub match_right: Vec<Option<usize>>,
}

impl MatchResult {
    /// Whether every left node is matched.
    pub fn saturates_left(&self) -> bool {
        self.match_left.iter().all(|m| m.is_some())
    }

    /// The matched pairs as `(left, right)` tuples.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.match_left
            .iter()
            .enumerate()
            .filter_map(|(l, r)| r.map(|r| (l, r)))
            .collect()
    }
}

const INF: u32 = u32::MAX;

/// Reusable buffers for [`maximum_matching_csr_into`]. After a call,
/// `match_left` / `match_right` hold the computed matching with
/// `usize::MAX` as the "unmatched" sentinel.
#[derive(Debug, Clone, Default)]
pub struct HopcroftKarpScratch {
    /// `match_left[l]` = right node matched to `l`, or `usize::MAX`.
    pub match_left: Vec<usize>,
    /// `match_right[r]` = left node matched to `r`, or `usize::MAX`.
    pub match_right: Vec<usize>,
    dist: Vec<u32>,
    queue: std::collections::VecDeque<usize>,
}

/// Computes a maximum matching of `g` using Hopcroft–Karp: builds the
/// left-side CSR adjacency (each left node's edges in insertion order)
/// and runs [`maximum_matching_csr_into`] on fresh buffers.
pub fn maximum_matching(g: &BipartiteGraph) -> MatchResult {
    let edges = g.edges();
    // A stable sort keeps each left node's edges in insertion order.
    let mut adj_edges: Vec<usize> = (0..edges.len()).collect();
    adj_edges.sort_by_key(|&i| edges[i].left);
    let adj_off: Vec<usize> = (0..=g.n_left())
        .map(|l| adj_edges.partition_point(|&i| edges[i].left < l))
        .collect();
    let mut scratch = HopcroftKarpScratch::default();
    let size = maximum_matching_csr_into(g, &adj_off, &adj_edges, &mut scratch);
    let matched = |m: &usize| (*m != usize::MAX).then_some(*m);
    MatchResult {
        size,
        match_left: scratch.match_left.iter().map(matched).collect(),
        match_right: scratch.match_right.iter().map(matched).collect(),
    }
}

/// Hopcroft–Karp over a flat CSR adjacency, reusing caller-provided
/// buffers — the zero-allocation form used by the bottleneck selector's
/// feasibility oracle on its `≤ T` subgraphs.
/// `adj_edges[adj_off[l]..adj_off[l + 1]]` holds the indices into
/// `g.edges()` of left node `l`'s edges. Returns the matching size; the
/// matching itself is left in `scratch.match_left` / `scratch.match_right`.
pub fn maximum_matching_csr_into(
    g: &BipartiteGraph,
    adj_off: &[usize],
    adj_edges: &[usize],
    scratch: &mut HopcroftKarpScratch,
) -> usize {
    let n_left = g.n_left();
    let n_right = g.n_right();
    let edges = g.edges();

    let match_left = &mut scratch.match_left;
    let match_right = &mut scratch.match_right;
    let dist = &mut scratch.dist;
    let queue = &mut scratch.queue;
    match_left.clear();
    match_left.resize(n_left, usize::MAX);
    match_right.clear();
    match_right.resize(n_right, usize::MAX);
    dist.clear();
    dist.resize(n_left, INF);
    let mut size = 0usize;

    loop {
        // BFS phase: layer unmatched left nodes.
        queue.clear();
        for l in 0..n_left {
            if match_left[l] == usize::MAX {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &ei in &adj_edges[adj_off[l]..adj_off[l + 1]] {
                let r = edges[ei].right;
                let l2 = match_right[r];
                if l2 == usize::MAX {
                    found_augmenting = true;
                } else if dist[l2] == INF {
                    dist[l2] = dist[l] + 1;
                    queue.push_back(l2);
                }
            }
        }
        if !found_augmenting {
            break;
        }

        // DFS phase: find vertex-disjoint shortest augmenting paths.
        fn dfs(
            l: usize,
            edges: &[crate::bipartite::Edge],
            adj_off: &[usize],
            adj_edges: &[usize],
            match_left: &mut [usize],
            match_right: &mut [usize],
            dist: &mut [u32],
        ) -> bool {
            for &ei in &adj_edges[adj_off[l]..adj_off[l + 1]] {
                let r = edges[ei].right;
                let l2 = match_right[r];
                if l2 == usize::MAX
                    || (dist[l2] == dist[l] + 1
                        && dfs(l2, edges, adj_off, adj_edges, match_left, match_right, dist))
                {
                    match_left[l] = r;
                    match_right[r] = l;
                    return true;
                }
            }
            dist[l] = INF;
            false
        }

        for l in 0..n_left {
            if match_left[l] == usize::MAX
                && dist[l] == 0
                && dfs(l, edges, adj_off, adj_edges, match_left, match_right, dist)
            {
                size += 1;
            }
        }
    }

    size
}

/// Exhaustive maximum matching by backtracking; exponential, test oracle
/// only. Exposed so downstream crates' tests can reuse it.
pub fn brute_force_max_matching(g: &BipartiteGraph) -> usize {
    fn go(g: &BipartiteGraph, l: usize, used_right: &mut Vec<bool>) -> usize {
        if l == g.n_left() {
            return 0;
        }
        // Option 1: leave l unmatched.
        let mut best = go(g, l + 1, used_right);
        // Option 2: match l to any free neighbour.
        for e in g.edges().iter().filter(|e| e.left == l) {
            if !used_right[e.right] {
                used_right[e.right] = true;
                best = best.max(1 + go(g, l + 1, used_right));
                used_right[e.right] = false;
            }
        }
        best
    }
    go(g, 0, &mut vec![false; g.n_right()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n_left: usize, n_right: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n_left, n_right);
        for &(l, r) in edges {
            g.add_edge(l, r, 1.0);
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = graph(3, 3, &[]);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 0);
        assert!(!m.saturates_left());
    }

    #[test]
    fn perfect_matching_on_identity() {
        let g = graph(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 4);
        assert!(m.saturates_left());
        assert_eq!(m.pairs(), vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn augmenting_path_needed() {
        // Greedy l0->r0 would block l1; HK must augment.
        let g = graph(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 2);
        assert!(m.saturates_left());
    }

    #[test]
    fn unbalanced_sides() {
        let g = graph(2, 5, &[(0, 4), (1, 4), (1, 3)]);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 2);
    }

    #[test]
    fn bottlenecked_structure() {
        // All left nodes fight over one right node.
        let g = graph(3, 1, &[(0, 0), (1, 0), (2, 0)]);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 1);
    }

    type Case = (usize, usize, Vec<(usize, usize)>);

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases: Vec<Case> = vec![
            (3, 3, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
            (4, 3, vec![(0, 0), (1, 0), (2, 1), (3, 2), (3, 1)]),
            (
                5,
                5,
                vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0), (4, 4)],
            ),
        ];
        for (nl, nr, edges) in cases {
            let g = graph(nl, nr, &edges);
            assert_eq!(maximum_matching(&g).size, brute_force_max_matching(&g));
        }
    }

    #[test]
    fn scratch_is_reusable_across_graphs() {
        // A warm scratch sized by a larger graph must give a smaller one
        // the same matching as fresh buffers do.
        let big = graph(5, 5, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        let g = graph(4, 4, &[(0, 1), (1, 1), (1, 2), (2, 0), (3, 3), (3, 0)]);
        let csr = |g: &BipartiteGraph| {
            let mut adj_off = vec![0usize];
            let mut adj_edges = Vec::new();
            for l in 0..g.n_left() {
                adj_edges.extend((0..g.edges().len()).filter(|&i| g.edges()[i].left == l));
                adj_off.push(adj_edges.len());
            }
            (adj_off, adj_edges)
        };
        let mut scratch = HopcroftKarpScratch::default();
        let (off, edges) = csr(&big);
        assert_eq!(
            maximum_matching_csr_into(&big, &off, &edges, &mut scratch),
            5
        );
        let (off, edges) = csr(&g);
        let size = maximum_matching_csr_into(&g, &off, &edges, &mut scratch);

        let fresh = maximum_matching(&g);
        assert_eq!(size, fresh.size);
        assert_eq!(size, brute_force_max_matching(&g));
        let warm = |m: &[usize]| -> Vec<Option<usize>> {
            m.iter().map(|&x| (x != usize::MAX).then_some(x)).collect()
        };
        assert_eq!(warm(&scratch.match_left), fresh.match_left);
        assert_eq!(warm(&scratch.match_right), fresh.match_right);
    }

    #[test]
    fn matching_is_consistent() {
        let g = graph(4, 4, &[(0, 1), (1, 1), (1, 2), (2, 0), (3, 3), (3, 0)]);
        let m = maximum_matching(&g);
        for (l, r) in m.pairs() {
            assert_eq!(m.match_right[r], Some(l));
            // Every matched pair must be an actual edge.
            assert!(g.edges().iter().any(|e| e.left == l && e.right == r));
        }
    }
}
