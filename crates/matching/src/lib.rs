//! Bipartite matching machinery for the MC-FTSA communication selector.
//!
//! Section 4.2 of the FTSA paper (Benoit–Hakem–Robert, RR-6418) reduces the
//! number of replication-induced messages from `e(ε+1)²` to `e(ε+1)` by
//! choosing, for every precedence edge `(t', t)`, a set of `ε+1`
//! communications forming a one-to-one mapping between the processors of
//! `A(t')` (senders) and `A(t)` (receivers), with *forced* internal edges
//! whenever a processor belongs to both sets (Proposition 4.3).
//!
//! Two selectors are offered, exactly as the paper describes. Both write
//! the selected pairs into a caller-held buffer with caller-held scratch,
//! so the scheduler's matched placement allocates nothing once warm:
//!
//! * [`bottleneck_matching_into`] — the polynomial-time optimal variant:
//!   binary search on the threshold `T` over the set of edge weights,
//!   feasibility decided by a Hopcroft–Karp maximum matching
//!   ([`maximum_matching_csr_into`], on a CSR adjacency and caller-held
//!   buffers) run on the `≤ T` subgraph.
//! * [`greedy_matching_into`] — the greedy variant used in the paper's
//!   experiments: forced internal edges first, then edges in
//!   non-decreasing weight order, keeping an edge iff it saturates a new
//!   left node *and* a new right node.
//!
//! Both take a [`BipartiteGraph`]. The crate is self-contained and
//! generic; the scheduler core builds the per-predecessor bipartite
//! graphs and interprets the returned pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod bottleneck;
pub mod greedy;
pub mod hopcroft_karp;

pub use bipartite::{BipartiteGraph, Edge};
pub use bottleneck::{bottleneck_matching_into, BottleneckScratch};
pub use greedy::{greedy_matching_into, GreedyScratch};
pub use hopcroft_karp::{maximum_matching_csr_into, HopcroftKarpScratch};

/// Owned-result wrappers and checks over the selectors' pair lists.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// The greedy selection's pairs, or `None` when it fails.
    pub fn greedy(g: &BipartiteGraph, forced: &[(usize, usize)]) -> Option<Vec<(usize, usize)>> {
        let mut pairs = Vec::new();
        greedy_matching_into(g, forced, &mut GreedyScratch::default(), &mut pairs).then_some(pairs)
    }

    /// The bottleneck-optimal selection's pairs, or `None` when no
    /// left-perfect matching exists.
    pub fn optimal(g: &BipartiteGraph, forced: &[(usize, usize)]) -> Option<Vec<(usize, usize)>> {
        let mut pairs = Vec::new();
        let scratch = &mut BottleneckScratch::default();
        bottleneck_matching_into(g, forced, scratch, &mut pairs).then_some(pairs)
    }

    /// The largest weight among the selected pairs (`-inf` if empty).
    pub fn bottleneck(g: &BipartiteGraph, pairs: &[(usize, usize)]) -> f64 {
        pairs
            .iter()
            .map(|&(l, r)| g.weight(l, r).expect("selected pair must be an edge"))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether every left node in `0..n_left` appears exactly once and
    /// no right node twice — a left-perfect matching, what
    /// Proposition 4.3 calls a *robust* set.
    pub fn is_left_perfect(pairs: &[(usize, usize)], n_left: usize) -> bool {
        let mut left_seen = vec![false; n_left];
        let mut right_seen = std::collections::HashSet::new();
        for &(l, r) in pairs {
            if l >= n_left || left_seen[l] || !right_seen.insert(r) {
                return false;
            }
            left_seen[l] = true;
        }
        left_seen.iter().all(|&s| s)
    }
}
