//! Property-based tests over the random generators: every generated graph
//! must be acyclic, weakly connected, respect its configured ranges, and
//! have internally consistent adjacency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::generators::{
    erdos, fork_join, layered, ErdosConfig, ForkJoinConfig, LayeredConfig,
};
use taskgraph::topology::{is_weakly_connected, levels};
use taskgraph::{Dag, TaskId};

/// Oracle for the CSR flattening: rebuild the adjacency the way the
/// pre-CSR `Vec<Vec<…>>` representation did — one push per edge, in
/// edge-insertion (id) order — and demand the CSR accessors return the
/// same neighbors in the same order, along with consistent degrees and
/// the precomputed entry/exit sets.
fn check_csr_matches_insertion_order(g: &Dag) {
    let v = g.num_tasks();
    let mut preds: Vec<Vec<(taskgraph::TaskId, taskgraph::EdgeId)>> = vec![Vec::new(); v];
    let mut succs: Vec<Vec<(taskgraph::TaskId, taskgraph::EdgeId)>> = vec![Vec::new(); v];
    for (eid, src, dst, _) in g.edge_list() {
        succs[src.index()].push((dst, eid));
        preds[dst.index()].push((src, eid));
    }
    for t in g.tasks() {
        assert_eq!(g.preds(t), &preds[t.index()][..], "preds of {t}");
        assert_eq!(g.succs(t), &succs[t.index()][..], "succs of {t}");
        assert_eq!(g.in_degree(t), preds[t.index()].len());
        assert_eq!(g.out_degree(t), succs[t.index()].len());
    }
    let entries: Vec<_> = g.tasks().filter(|&t| preds[t.index()].is_empty()).collect();
    let exits: Vec<_> = g.tasks().filter(|&t| succs[t.index()].is_empty()).collect();
    assert_eq!(g.entries(), &entries[..]);
    assert_eq!(g.exits(), &exits[..]);
}

/// Whether each task lies at the end of a non-empty path from `from`.
fn reachable_from(g: &Dag, from: TaskId) -> Vec<bool> {
    let mut seen = vec![false; g.num_tasks()];
    let mut stack = vec![from];
    while let Some(t) = stack.pop() {
        for &(s, _) in g.succs(t) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

fn check_structural_sanity(g: &Dag) {
    check_csr_matches_insertion_order(g);
    // Topological order covers all tasks and respects edges.
    let topo = g.topological_order();
    assert_eq!(topo.len(), g.num_tasks());
    let mut pos = vec![usize::MAX; g.num_tasks()];
    for (i, t) in topo.iter().enumerate() {
        pos[t.index()] = i;
    }
    for (_, s, d, v) in g.edge_list() {
        assert!(pos[s.index()] < pos[d.index()], "topo order violates edge");
        assert!(v >= 0.0);
    }
    // preds/succs mirror each other.
    for t in g.tasks() {
        for &(p, e) in g.preds(t) {
            assert!(g.succs(p).iter().any(|&(s, e2)| s == t && e2 == e));
        }
        for &(s, e) in g.succs(t) {
            assert!(g.preds(s).iter().any(|&(p, e2)| p == t && e2 == e));
        }
    }
    // Levels are monotone along edges.
    let lv = levels(g);
    for (_, s, d, _) in g.edge_list() {
        assert!(lv[s.index()] < lv[d.index()]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layered_graphs_are_sane(seed in 0u64..10_000, tasks in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = layered(&mut rng, &LayeredConfig::paper(tasks));
        prop_assert_eq!(g.num_tasks(), tasks);
        prop_assert!(is_weakly_connected(&g));
        check_structural_sanity(&g);
    }

    #[test]
    fn erdos_graphs_are_sane(seed in 0u64..10_000, tasks in 1usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos(&mut rng, &ErdosConfig::sparse(tasks));
        prop_assert_eq!(g.num_tasks(), tasks);
        prop_assert!(is_weakly_connected(&g));
        check_structural_sanity(&g);
    }

    #[test]
    fn fork_join_graphs_are_sane(
        seed in 0u64..10_000,
        stages in 1usize..6,
        width in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fork_join(&mut rng, &ForkJoinConfig::new(stages, width));
        prop_assert_eq!(g.num_tasks(), stages * (width + 1) + 1);
        prop_assert!(is_weakly_connected(&g));
        check_structural_sanity(&g);
    }

    /// Theorem 4.2 relies on `|α| ≤ ω`: the set of simultaneously free
    /// tasks is an antichain (no free task reaches another), so it never
    /// holds more tasks than the width.
    #[test]
    fn free_set_bounded_by_width(seed in 0u64..2_000, tasks in 1usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = layered(&mut rng, &LayeredConfig::paper(tasks));

        // Kahn's algorithm, checking every frontier.
        let mut indeg: Vec<usize> =
            g.tasks().map(|t| g.in_degree(t)).collect();
        let mut free: Vec<TaskId> =
            g.tasks().filter(|&t| g.in_degree(t) == 0).collect();
        while !free.is_empty() {
            for &a in &free {
                let reach = reachable_from(&g, a);
                prop_assert!(
                    free.iter().all(|&b| !reach[b.index()]),
                    "free task {a} reaches another free task"
                );
            }
            let t = free.pop().unwrap();
            for &(s, _) in g.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    free.push(s);
                }
            }
        }
    }

    #[test]
    fn json_round_trip_any_layered(seed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = layered(&mut rng, &LayeredConfig::paper(40));
        let s = taskgraph::io::to_json(&g).unwrap();
        let g2 = taskgraph::io::from_json(&s).unwrap();
        prop_assert_eq!(g.num_tasks(), g2.num_tasks());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        let e1: Vec<_> = g.edge_list().collect();
        let e2: Vec<_> = g2.edge_list().collect();
        prop_assert_eq!(e1, e2);
    }
}
