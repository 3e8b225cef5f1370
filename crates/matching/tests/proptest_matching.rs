//! Property-based tests for the matching crate: Hopcroft–Karp against a
//! brute-force oracle, bottleneck optimality, greedy validity, and the
//! robustness condition of Proposition 4.3.

use matching::{
    bottleneck_matching_into, greedy_matching_into, maximum_matching_csr_into, BipartiteGraph,
    BottleneckScratch, GreedyScratch, HopcroftKarpScratch,
};
use proptest::prelude::*;

type Pairs = Vec<(usize, usize)>;

fn greedy(g: &BipartiteGraph, forced: &[(usize, usize)]) -> Option<Pairs> {
    let mut pairs = Vec::new();
    greedy_matching_into(g, forced, &mut GreedyScratch::default(), &mut pairs).then_some(pairs)
}

fn optimal(g: &BipartiteGraph, forced: &[(usize, usize)]) -> Option<Pairs> {
    let mut pairs = Vec::new();
    let scratch = &mut BottleneckScratch::default();
    bottleneck_matching_into(g, forced, scratch, &mut pairs).then_some(pairs)
}

/// The largest weight among the selected pairs.
fn bottleneck(g: &BipartiteGraph, pairs: &[(usize, usize)]) -> f64 {
    pairs
        .iter()
        .map(|&(l, r)| g.weight(l, r).expect("selected pair must be an edge"))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Every left node in `0..n_left` exactly once, no right node twice.
fn is_left_perfect(pairs: &[(usize, usize)], n_left: usize) -> bool {
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

/// Exhaustive maximum matching by backtracking; exponential, the
/// oracle of `hopcroft_karp_is_maximum`.
fn brute_force_max_matching(g: &BipartiteGraph) -> usize {
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

fn arb_graph(max_n: usize) -> impl Strategy<Value = BipartiteGraph> {
    (1..=max_n, 1..=max_n).prop_flat_map(|(nl, nr)| {
        proptest::collection::vec((0..nl, 0..nr, 0.0f64..100.0), 0..nl * nr).prop_map(
            move |edges| {
                let mut g = BipartiteGraph::new(nl, nr);
                for (l, r, w) in edges {
                    g.add_edge(l, r, w);
                }
                g
            },
        )
    })
}

/// Complete bipartite n×n graphs — the shape MC-FTSA produces (every
/// non-internal sender can reach every receiver).
fn arb_complete(max_n: usize) -> impl Strategy<Value = BipartiteGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..100.0, n * n).prop_map(move |ws| {
            let mut g = BipartiteGraph::new(n, n);
            for l in 0..n {
                for r in 0..n {
                    g.add_edge(l, r, ws[l * n + r]);
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hopcroft_karp_is_maximum(g in arb_graph(6)) {
        // Each left node's edges in insertion order, as CSR.
        let mut adj_off = vec![0usize];
        let mut adj_edges = Vec::new();
        for l in 0..g.n_left() {
            adj_edges.extend((0..g.edges().len()).filter(|&i| g.edges()[i].left == l));
            adj_off.push(adj_edges.len());
        }
        let mut m = HopcroftKarpScratch::default();
        let size = maximum_matching_csr_into(&g, &adj_off, &adj_edges, &mut m);
        prop_assert_eq!(size, brute_force_max_matching(&g));
        // Consistency of the two match arrays, over `size` pairs.
        let mut matched = 0;
        for (l, &r) in m.match_left.iter().enumerate() {
            if r != usize::MAX {
                prop_assert_eq!(m.match_right[r], l);
                matched += 1;
            }
        }
        prop_assert_eq!(matched, size);
    }

    #[test]
    fn bottleneck_is_optimal_on_complete(g in arb_complete(5)) {
        let n = g.n_left();
        let m = optimal(&g, &[]).unwrap();
        prop_assert!(is_left_perfect(&m, n));
        let ours = bottleneck(&g, &m);
        // Every permutation has bottleneck >= ours.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut all_ge = true;
        permute(&mut perm, 0, &mut |p| {
            let b = p
                .iter()
                .enumerate()
                .map(|(l, &r)| g.weight(l, r).unwrap())
                .fold(f64::NEG_INFINITY, f64::max);
            if b < ours - 1e-12 {
                all_ge = false;
            }
        });
        prop_assert!(all_ge, "found a permutation with smaller bottleneck");
    }

    #[test]
    fn greedy_valid_and_bounded_by_bottleneck(g in arb_complete(6)) {
        let n = g.n_left();
        let picked = greedy(&g, &[]).unwrap();
        let opt = optimal(&g, &[]).unwrap();
        prop_assert!(is_left_perfect(&picked, n));
        prop_assert!(bottleneck(&g, &opt) <= bottleneck(&g, &picked) + 1e-12);
    }

    #[test]
    fn forced_pairs_always_selected(
        g in arb_complete(5),
        k in 0usize..3,
    ) {
        let n = g.n_left();
        let forced: Vec<(usize, usize)> = (0..k.min(n)).map(|i| (i, i)).collect();
        for m in [greedy(&g, &forced), optimal(&g, &forced)] {
            let m = m.unwrap();
            for f in &forced {
                prop_assert!(m.contains(f));
            }
            prop_assert!(is_left_perfect(&m, n));
        }
    }

    /// Proposition 4.3: with forced internal edges for shared processors, a
    /// left-perfect matching survives any ε failures — i.e. for every
    /// subset of ε "failed" left/right positions (processors), some
    /// selected pair has both endpoints alive OR a forced internal pair's
    /// processor is alive. We verify the communication-connectivity core:
    /// after removing any ε processors, at least one selected pair connects
    /// two live processors when senders/receivers overlap per MC-FTSA
    /// construction.
    #[test]
    fn robust_selection_survives_failures(seed in 0u64..500) {
        // Build an MC-FTSA-shaped instance: eps+1 senders, eps+1 receivers,
        // drawn from a pool of processors with a possible overlap.
        let eps = 2usize;
        let k = (seed % 3) as usize; // overlap size 0..=2
        let n = eps + 1;
        // Processor ids: senders 0..n, receivers shifted so the first k
        // coincide with senders.
        let sender_procs: Vec<usize> = (0..n).collect();
        let receiver_procs: Vec<usize> = (0..n).map(|i| if i < k { i } else { n + i }).collect();
        let mut g = BipartiteGraph::new(n, n);
        let mut forced = Vec::new();
        for (li, &sp) in sender_procs.iter().enumerate() {
            if let Some(ri) = receiver_procs.iter().position(|&rp| rp == sp) {
                // Shared processor: single forced internal edge.
                g.add_edge(li, ri, (seed % 7) as f64);
                forced.push((li, ri));
            } else {
                for ri in 0..n {
                    g.add_edge(li, ri, ((seed * 31 + (li * n + ri) as u64) % 50) as f64);
                }
            }
        }
        let m = greedy(&g, &forced).unwrap();
        prop_assert!(is_left_perfect(&m, n));

        // Enumerate all eps-subsets of involved processors as failures and
        // check at least one selected (sender, receiver) pair is fully
        // alive — the Proposition 4.3 guarantee.
        let mut procs: Vec<usize> = sender_procs.iter().chain(&receiver_procs).copied().collect();
        procs.sort_unstable();
        procs.dedup();
        for_each_subset(&procs, eps, &mut |failed| {
            let alive = |p: usize| !failed.contains(&p);
            let ok = m.iter().any(|&(l, r)| {
                alive(sender_procs[l]) && alive(receiver_procs[r])
            });
            assert!(ok, "no surviving communication for failures {failed:?}");
        });
    }
}

fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

fn for_each_subset(items: &[usize], size: usize, f: &mut impl FnMut(&[usize])) {
    fn go(
        items: &[usize],
        size: usize,
        start: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]),
    ) {
        if cur.len() == size {
            f(cur);
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            go(items, size, i + 1, cur, f);
            cur.pop();
        }
    }
    go(items, size, 0, &mut Vec::new(), f);
}
