//! Hopcroft–Karp maximum bipartite matching in `O(E √V)`.
//!
//! Used as the feasibility oracle of the bottleneck selector: the paper's
//! polynomial algorithm "suppresses all edges of weight larger than T and
//! runs a maximal matching algorithm (which is polynomial since the graph
//! is bipartite) that will cover all source nodes if such a cover
//! exists".

use crate::bipartite::BipartiteGraph;

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

    /// Each left node's edges in insertion order, as CSR.
    fn csr(g: &BipartiteGraph) -> (Vec<usize>, Vec<usize>) {
        let mut adj_off = vec![0usize];
        let mut adj_edges = Vec::new();
        for l in 0..g.n_left() {
            adj_edges.extend((0..g.edges().len()).filter(|&i| g.edges()[i].left == l));
            adj_off.push(adj_edges.len());
        }
        (adj_off, adj_edges)
    }

    /// The matching's size and the scratch holding it, on fresh buffers.
    fn matching(g: &BipartiteGraph) -> (usize, HopcroftKarpScratch) {
        let (off, edges) = csr(g);
        let mut scratch = HopcroftKarpScratch::default();
        let size = maximum_matching_csr_into(g, &off, &edges, &mut scratch);
        (size, scratch)
    }

    /// The matched `(left, right)` pairs.
    fn pairs(m: &HopcroftKarpScratch) -> Vec<(usize, usize)> {
        let matched = m.match_left.iter().enumerate();
        matched
            .filter(|&(_, &r)| r != usize::MAX)
            .map(|(l, &r)| (l, r))
            .collect()
    }

    #[test]
    fn empty_graph() {
        let g = graph(3, 3, &[]);
        let (size, m) = matching(&g);
        assert_eq!(size, 0);
        assert!(m.match_left.iter().all(|&r| r == usize::MAX));
    }

    #[test]
    fn perfect_matching_on_identity() {
        let g = graph(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let (size, m) = matching(&g);
        assert_eq!(size, 4);
        assert_eq!(pairs(&m), vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn augmenting_path_needed() {
        // Greedy l0->r0 would block l1; HK must augment.
        let g = graph(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let (size, m) = matching(&g);
        assert_eq!(size, 2);
        assert_eq!(pairs(&m), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn unbalanced_sides() {
        let g = graph(2, 5, &[(0, 4), (1, 4), (1, 3)]);
        assert_eq!(matching(&g).0, 2);
    }

    #[test]
    fn bottlenecked_structure() {
        // All left nodes fight over one right node.
        let g = graph(3, 1, &[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(matching(&g).0, 1);
    }

    type Case = (usize, usize, Vec<(usize, usize)>, usize);

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        // The maximum sizes, worked out by hand (`tests/proptest_matching.rs`
        // checks random graphs against an exhaustive search).
        let cases: Vec<Case> = vec![
            (3, 3, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)], 3),
            // l0 and l1 share their only neighbour r0.
            (4, 3, vec![(0, 0), (1, 0), (2, 1), (3, 2), (3, 1)], 3),
            (
                5,
                5,
                vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0), (4, 4)],
                5,
            ),
        ];
        for (nl, nr, edges, max) in cases {
            assert_eq!(matching(&graph(nl, nr, &edges)).0, max);
        }
    }

    #[test]
    fn scratch_is_reusable_across_graphs() {
        // A warm scratch sized by a larger graph must give a smaller one
        // the same matching as fresh buffers do.
        let big = graph(5, 5, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        let g = graph(4, 4, &[(0, 1), (1, 1), (1, 2), (2, 0), (3, 3), (3, 0)]);
        let mut scratch = HopcroftKarpScratch::default();
        let (off, edges) = csr(&big);
        assert_eq!(
            maximum_matching_csr_into(&big, &off, &edges, &mut scratch),
            5
        );
        let (off, edges) = csr(&g);
        let size = maximum_matching_csr_into(&g, &off, &edges, &mut scratch);

        let (fresh_size, fresh) = matching(&g);
        assert_eq!(size, fresh_size);
        assert_eq!(size, 4);
        assert_eq!(scratch.match_left, fresh.match_left);
        assert_eq!(scratch.match_right, fresh.match_right);
    }

    #[test]
    fn matching_is_consistent() {
        let g = graph(4, 4, &[(0, 1), (1, 1), (1, 2), (2, 0), (3, 3), (3, 0)]);
        let (_, m) = matching(&g);
        for (l, r) in pairs(&m) {
            assert_eq!(m.match_right[r], l);
            // Every matched pair must be an actual edge.
            assert!(g.edges().iter().any(|e| e.left == l && e.right == r));
        }
    }
}
