//! Greedy robust-communication selection (the variant used in the paper's
//! experiments).
//!
//! Section 4.2: "We can use a greedy algorithm that gives priority to
//! internal communications and then greedily select the edges in the order
//! of non-decreasing weights. We retain the current edge if it satisfies to
//! the condition of proposition 4.3 given already taken decisions, i.e., if
//! it saturates a new left node and a new right node in the graph, and
//! otherwise we proceed to the next edge."

use crate::bipartite::BipartiteGraph;

/// Reusable buffers for [`greedy_matching_into`].
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    left_used: Vec<bool>,
    right_used: Vec<bool>,
    order: Vec<u32>,
}

/// Greedily selects a left-perfect matching: `forced` (internal) pairs
/// first, then remaining edges in non-decreasing weight order, keeping an
/// edge iff both endpoints are still unsaturated. Allocation-free once
/// `scratch` and `pairs` have grown — the form the scheduler's matched
/// placement uses.
///
/// `pairs` is cleared first and, on success (`true`), holds the forced
/// pairs followed by the greedy picks in non-decreasing weight order.
/// Returns `false` if the greedy pass fails to saturate every left node
/// (cannot happen on MC-FTSA's graphs, where every non-internal left node
/// is connected to *all* right nodes, but callers with sparser graphs must
/// handle it).
///
/// ```
/// use matching::{greedy_matching_into, BipartiteGraph, GreedyScratch};
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 0, 5.0);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 0, 2.0);
/// g.add_edge(1, 1, 3.0);
/// let mut pairs = Vec::new();
/// assert!(greedy_matching_into(&g, &[], &mut GreedyScratch::default(), &mut pairs));
/// // Greedy takes 0-1 (w=1), then 1-0 (w=2).
/// assert_eq!(pairs, [(0, 1), (1, 0)]);
/// ```
pub fn greedy_matching_into(
    g: &BipartiteGraph,
    forced: &[(usize, usize)],
    scratch: &mut GreedyScratch,
    pairs: &mut Vec<(usize, usize)>,
) -> bool {
    let left_used = &mut scratch.left_used;
    let right_used = &mut scratch.right_used;
    left_used.clear();
    left_used.resize(g.n_left(), false);
    right_used.clear();
    right_used.resize(g.n_right(), false);
    pairs.clear();

    for &(l, r) in forced {
        assert!(
            g.weight(l, r).is_some(),
            "forced pair ({l}, {r}) is not an edge"
        );
        assert!(
            !left_used[l] && !right_used[r],
            "forced pairs must be disjoint"
        );
        left_used[l] = true;
        right_used[r] = true;
        pairs.push((l, r));
    }

    // Order edge indices by (weight, index): the index tiebreak makes
    // the key total, so the allocation-free unstable sort produces
    // exactly the stable by-weight order (deterministic for ties).
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..g.edges().len() as u32);
    order.sort_unstable_by(|&a, &b| {
        g.edges()[a as usize]
            .weight
            .total_cmp(&g.edges()[b as usize].weight)
            .then(a.cmp(&b))
    });

    for &ei in order.iter() {
        let e = g.edges()[ei as usize];
        if !left_used[e.left] && !right_used[e.right] {
            left_used[e.left] = true;
            right_used[e.right] = true;
            pairs.push((e.left, e.right));
            if pairs.len() == g.n_left() {
                break;
            }
        }
    }

    left_used.iter().all(|&u| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{bottleneck, greedy, is_left_perfect, optimal};

    fn complete(n: usize, w: impl Fn(usize, usize) -> f64) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n, n);
        for l in 0..n {
            for r in 0..n {
                g.add_edge(l, r, w(l, r));
            }
        }
        g
    }

    #[test]
    fn selects_cheapest_available() {
        let g = complete(3, |l, r| (l * 3 + r) as f64);
        let m = greedy(&g, &[]).unwrap();
        assert!(is_left_perfect(&m, 3));
        // Greedy picks (0,0)=0, then (1,1)=4, then (2,2)=8.
        assert_eq!(m, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn forced_internal_first() {
        // The forced pair is the *worst* edge, yet must be selected.
        let g = complete(2, |l, r| if (l, r) == (0, 0) { 99.0 } else { 1.0 });
        let m = greedy(&g, &[(0, 0)]).unwrap();
        assert!(m.contains(&(0, 0)));
        assert_eq!(m.len(), 2);
        assert_eq!(bottleneck(&g, &m), 99.0);
    }

    #[test]
    fn greedy_always_succeeds_on_complete_graphs() {
        for n in 1..6 {
            let g = complete(n, |l, r| ((l * 7 + r * 13) % 10) as f64);
            let m = greedy(&g, &[]).unwrap();
            assert!(is_left_perfect(&m, n));
        }
    }

    #[test]
    fn sparse_failure_returns_none() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 1.0);
        g.add_edge(1, 0, 2.0); // both left nodes only reach right 0
        assert!(greedy(&g, &[]).is_none());
    }

    #[test]
    fn greedy_can_be_suboptimal_but_valid() {
        // Classic greedy trap: taking the lightest edge first forces a
        // heavy completion. Bottleneck-optimal would pick {0-0, 1-1} = 5.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0, 4.0);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 9.0);
        g.add_edge(1, 1, 5.0);
        let m = greedy(&g, &[]).unwrap();
        assert!(is_left_perfect(&m, 2));
        assert_eq!(m, vec![(0, 1), (1, 0)]);
        assert_eq!(bottleneck(&g, &m), 9.0);
        let opt = optimal(&g, &[]).unwrap();
        assert_eq!(bottleneck(&g, &opt), 5.0);
        assert!(bottleneck(&g, &opt) <= bottleneck(&g, &m));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let g = complete(4, |_, _| 1.0);
        let a = greedy(&g, &[]).unwrap();
        let b = greedy(&g, &[]).unwrap();
        assert_eq!(a, b);
    }
}
