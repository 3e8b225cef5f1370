//! Bottleneck (min–max weight) left-perfect matching with forced edges.
//!
//! Implements the first selector of Section 4.2: "For any value of T, we
//! can find in polynomial time if there exists a subset whose largest edge
//! weight does not exceed T. […] We perform a binary search on T to
//! determine the smallest value that leads to a solution. Note that T is
//! searched in the set of edge weights, hence the overall complexity of the
//! algorithm remains polynomial."
//!
//! Forced edges model the internal communications required by the proof of
//! Proposition 4.3: when a processor executes both the predecessor and the
//! task itself, its replica of the predecessor *must* send to itself.
//! Forced edges are always part of the solution; their weights participate
//! in the reported bottleneck but not in the binary search domain unless
//! they dominate.

use crate::bipartite::BipartiteGraph;
use crate::hopcroft_karp::{maximum_matching_csr_into, HopcroftKarpScratch};

/// Reusable buffers for [`bottleneck_matching_into`]: the fixed-endpoint
/// marks, the sorted threshold candidates, the flat CSR adjacency of the
/// `≤ T` residual subgraph, and the Hopcroft–Karp working set.
#[derive(Debug, Clone, Default)]
pub struct BottleneckScratch {
    left_fixed: Vec<bool>,
    right_fixed: Vec<bool>,
    free_left: Vec<usize>,
    weights: Vec<f64>,
    adj_off: Vec<usize>,
    adj_cursor: Vec<usize>,
    adj_edges: Vec<usize>,
    hk: HopcroftKarpScratch,
}

/// Rebuilds the `≤ threshold` residual CSR adjacency and reports whether a
/// maximum matching on it saturates every free left node. Edge indices stay
/// in ascending (insertion) order per left node, so the Hopcroft–Karp
/// traversal (and therefore the selected matching) is deterministic.
#[allow(clippy::too_many_arguments)]
fn feasible(
    g: &BipartiteGraph,
    threshold: f64,
    left_fixed: &[bool],
    right_fixed: &[bool],
    free_left: &[usize],
    adj_off: &mut Vec<usize>,
    adj_cursor: &mut Vec<usize>,
    adj_edges: &mut Vec<usize>,
    hk: &mut HopcroftKarpScratch,
) -> bool {
    let n_left = g.n_left();
    adj_off.clear();
    adj_off.resize(n_left + 1, 0);
    for e in g.edges() {
        if e.weight <= threshold && !left_fixed[e.left] && !right_fixed[e.right] {
            adj_off[e.left + 1] += 1;
        }
    }
    for l in 0..n_left {
        adj_off[l + 1] += adj_off[l];
    }
    adj_cursor.clear();
    adj_cursor.extend_from_slice(&adj_off[..n_left]);
    adj_edges.clear();
    adj_edges.resize(adj_off[n_left], 0);
    for (i, e) in g.edges().iter().enumerate() {
        if e.weight <= threshold && !left_fixed[e.left] && !right_fixed[e.right] {
            adj_edges[adj_cursor[e.left]] = i;
            adj_cursor[e.left] += 1;
        }
    }
    maximum_matching_csr_into(g, adj_off, adj_edges, hk);
    free_left.iter().all(|&l| hk.match_left[l] != usize::MAX)
}

/// Finds a left-perfect matching minimizing the maximum selected edge
/// weight, subject to `forced` pairs being selected. Allocation-free once
/// `scratch` and `pairs` have grown — the form the scheduler's matched
/// placement uses.
///
/// `forced` pairs must reference existing edges and be pairwise disjoint in
/// both endpoints. `pairs` is cleared first and, on success (`true`),
/// holds the forced pairs followed by the optimal free assignment in
/// left-node order. Returns `false` when no left-perfect matching exists
/// at all; `pairs` then holds only the forced pairs.
///
/// ```
/// use matching::{bottleneck_matching_into, BipartiteGraph, BottleneckScratch};
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 0, 1.0);
/// g.add_edge(0, 1, 9.0);
/// g.add_edge(1, 0, 2.0);
/// g.add_edge(1, 1, 3.0);
/// let mut pairs = Vec::new();
/// assert!(bottleneck_matching_into(&g, &[], &mut BottleneckScratch::default(), &mut pairs));
/// assert_eq!(pairs, [(0, 0), (1, 1)]); // bottleneck 3 beats {0-1, 1-0}'s 9
/// ```
pub fn bottleneck_matching_into(
    g: &BipartiteGraph,
    forced: &[(usize, usize)],
    scratch: &mut BottleneckScratch,
    pairs: &mut Vec<(usize, usize)>,
) -> bool {
    let n_left = g.n_left();
    pairs.clear();

    // Validate forced pairs and mark their endpoints as excluded from the
    // search; the search runs on the residual graph.
    let left_fixed = &mut scratch.left_fixed;
    let right_fixed = &mut scratch.right_fixed;
    left_fixed.clear();
    left_fixed.resize(n_left, false);
    right_fixed.clear();
    right_fixed.resize(g.n_right(), false);
    for &(l, r) in forced {
        assert!(
            g.weight(l, r).is_some(),
            "forced pair ({l}, {r}) is not an edge"
        );
        assert!(
            !left_fixed[l] && !right_fixed[r],
            "forced pairs must be disjoint"
        );
        left_fixed[l] = true;
        right_fixed[r] = true;
        pairs.push((l, r));
    }

    let free_left = &mut scratch.free_left;
    free_left.clear();
    free_left.extend((0..n_left).filter(|&l| !left_fixed[l]));
    if free_left.is_empty() {
        return true;
    }

    // Candidate thresholds: the distinct weights of usable residual edges.
    // The unstable sort is allocation-free; with `total_cmp` equal keys are
    // bitwise-identical, so after `dedup` the result matches a stable sort.
    let weights = &mut scratch.weights;
    weights.clear();
    weights.extend(
        g.edges()
            .iter()
            .filter(|e| !left_fixed[e.left] && !right_fixed[e.right])
            .map(|e| e.weight),
    );
    weights.sort_unstable_by(f64::total_cmp);
    weights.dedup();
    if weights.is_empty() {
        return false; // free left nodes but no usable edges
    }

    // Binary search for the smallest feasible threshold.
    macro_rules! feasible_at {
        ($t:expr) => {
            feasible(
                g,
                $t,
                left_fixed,
                right_fixed,
                free_left,
                &mut scratch.adj_off,
                &mut scratch.adj_cursor,
                &mut scratch.adj_edges,
                &mut scratch.hk,
            )
        };
    }
    if !feasible_at!(*weights.last().expect("nonempty")) {
        return false;
    }
    let mut lo = 0usize; // invariant: weights[hi] feasible
    let mut hi = weights.len() - 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible_at!(weights[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let ok = feasible_at!(weights[hi]);
    debug_assert!(ok, "binary search invariant");

    pairs.extend(free_left.iter().map(|&l| (l, scratch.hk.match_left[l])));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{bottleneck, is_left_perfect, optimal};

    fn weighted(n: usize, edges: &[(usize, usize, f64)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n, n);
        for &(l, r, w) in edges {
            g.add_edge(l, r, w);
        }
        g
    }

    /// Exhaustive bottleneck optimum over all left-perfect matchings.
    fn brute_bottleneck(g: &BipartiteGraph, forced: &[(usize, usize)]) -> Option<f64> {
        fn go(
            g: &BipartiteGraph,
            l: usize,
            used: &mut Vec<bool>,
            left_fixed: &[bool],
            current: f64,
            best: &mut Option<f64>,
        ) {
            if l == g.n_left() {
                *best = Some(best.map_or(current, |b: f64| b.min(current)));
                return;
            }
            if left_fixed[l] {
                go(g, l + 1, used, left_fixed, current, best);
                return;
            }
            for e in g.edges().iter().filter(|e| e.left == l) {
                if !used[e.right] {
                    used[e.right] = true;
                    go(g, l + 1, used, left_fixed, current.max(e.weight), best);
                    used[e.right] = false;
                }
            }
        }
        let mut used = vec![false; g.n_right()];
        let mut left_fixed = vec![false; g.n_left()];
        let mut base = f64::NEG_INFINITY;
        for &(l, r) in forced {
            used[r] = true;
            left_fixed[l] = true;
            base = base.max(g.weight(l, r).unwrap());
        }
        let mut best = None;
        go(g, 0, &mut used, &left_fixed, base, &mut best);
        best
    }

    #[test]
    fn picks_min_max_assignment() {
        let g = weighted(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (0, 2, 3.0),
                (1, 0, 2.0),
                (1, 1, 5.0),
                (1, 2, 9.0),
                (2, 0, 6.0),
                (2, 1, 7.0),
                (2, 2, 3.0),
            ],
        );
        let m = optimal(&g, &[]).unwrap();
        assert!(is_left_perfect(&m, 3));
        assert_eq!(bottleneck(&g, &m), brute_bottleneck(&g, &[]).unwrap());
        assert_eq!(bottleneck(&g, &m), 3.0); // 0->1(1), 1->0(2), 2->2(3)
    }

    #[test]
    fn infeasible_returns_none() {
        // Left node 1 has no edges.
        let g = weighted(2, &[(0, 0, 1.0), (0, 1, 2.0)]);
        assert!(optimal(&g, &[]).is_none());
    }

    #[test]
    fn forced_edge_respected_even_if_heavy() {
        let g = weighted(2, &[(0, 0, 100.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let m = optimal(&g, &[(0, 0)]).unwrap();
        assert!(m.contains(&(0, 0)));
        assert!(m.contains(&(1, 1)));
        assert_eq!(bottleneck(&g, &m), 100.0);
    }

    #[test]
    fn all_forced() {
        let g = weighted(2, &[(0, 0, 3.0), (1, 1, 7.0)]);
        let m = optimal(&g, &[(0, 0), (1, 1)]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(bottleneck(&g, &m), 7.0);
        assert!(is_left_perfect(&m, 2));
    }

    #[test]
    fn forced_blocking_makes_infeasible() {
        // Forcing 0->0 leaves node 1 with no free right node.
        let g = weighted(2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        assert!(optimal(&g, &[(0, 0)]).is_none());
    }

    #[test]
    fn single_node() {
        let g = weighted(1, &[(0, 0, 42.0)]);
        let m = optimal(&g, &[]).unwrap();
        assert_eq!(m, vec![(0, 0)]);
        assert_eq!(bottleneck(&g, &m), 42.0);
    }

    #[test]
    fn matches_brute_force_on_dense_cases() {
        // Deterministic pseudo-random dense instances.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        for n in 2..=5 {
            let mut g = BipartiteGraph::new(n, n);
            for l in 0..n {
                for r in 0..n {
                    g.add_edge(l, r, next());
                }
            }
            let m = optimal(&g, &[]).unwrap();
            assert!(is_left_perfect(&m, n));
            assert_eq!(
                bottleneck(&g, &m),
                brute_bottleneck(&g, &[]).unwrap(),
                "n={n}"
            );
        }
    }
}
