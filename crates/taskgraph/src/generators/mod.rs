//! Random task-graph generators.
//!
//! The paper's evaluation (Section 6) uses "randomly generated graphs,
//! whose parameters are consistent with those used in the literature":
//! task counts uniform in `[100, 150]`, message volumes uniform in
//! `[50, 150]`, and granularity calibrated afterwards against the platform
//! (see the platform crate). The layered generator is the classic shape
//! used throughout the list-scheduling literature; Erdős–Rényi-style and
//! fork–join generators cover sparser/denser and more structured regimes.

mod erdos;
mod fork_join;
mod layered;
mod series_parallel;

pub use erdos::{erdos, ErdosConfig};
pub use fork_join::{fork_join, ForkJoinConfig};
pub use layered::{layered, LayeredConfig};
pub use series_parallel::{series_parallel, SeriesParallelConfig};

use crate::graph::{Dag, DagBuilder, TaskId};
use crate::topology::levels;
use rand::Rng;

/// The most tasks a drawn graph may have. A drawn layered task costs
/// about 160 bytes with its edges (`ftsched generate` peaks at 19 MB for
/// 100k tasks and 67 MB for 400k), so one draw at the bound peaks near
/// 170 MB. The entry points that take a graph's shape from their input
/// (`ftsched generate --tasks/--size`, a campaign spec's workloads)
/// compute its task count with checked arithmetic and check it before
/// anything is drawn; a map-reduce shuffle, whose edges grow as
/// mappers × reducers, is held to the same number of edges.
pub const MAX_TASKS: usize = 1 << 20;

/// Inclusive range helper for drawing uniform values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Range {
    /// Creates a range; requires `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi && lo.is_finite() && hi.is_finite());
        Range { lo, hi }
    }

    /// Draws a uniform sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// The paper's message-volume distribution `U[50, 150]`.
pub const PAPER_VOLUMES: Range = Range {
    lo: 50.0,
    hi: 150.0,
};

/// Raw task work distribution used before granularity calibration.
pub const DEFAULT_WORK: Range = Range {
    lo: 10.0,
    hi: 100.0,
};

/// Connects a possibly-disconnected layered DAG into one weak component by
/// adding forward edges between components, respecting the level order so
/// the result stays acyclic. Returns the connected DAG.
pub(crate) fn connect_components(dag: Dag, rng: &mut impl Rng, volumes: Range) -> Dag {
    let n = dag.num_tasks();
    if n <= 1 {
        return dag;
    }
    // Union-find over the undirected skeleton.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    };
    for (_, s, d, _) in dag.edge_list() {
        union(&mut parent, s.index(), d.index());
    }
    let lv = levels(&dag);
    let roots: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    let distinct: std::collections::HashSet<usize> = roots.iter().copied().collect();
    if distinct.len() == 1 {
        return dag;
    }

    // Rebuild with extra linking edges: attach every secondary component to
    // the component of task 0 via a level-respecting edge.
    let mut b = DagBuilder::with_capacity(n, dag.num_edges() + distinct.len());
    for t in dag.tasks() {
        b.add_task(dag.work(t));
    }
    for (_, s, d, v) in dag.edge_list() {
        b.add_edge(s, d, v);
    }
    let main_root = roots[0];
    // Representatives of each non-main component.
    let mut reps: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, &r) in roots.iter().enumerate() {
        if r != main_root && seen.insert(r) {
            reps.push(i);
        }
    }
    // Collect main-component members once, and per level their positions
    // in that list: a representative's candidates are the members off its
    // level, and the k-th of them is found by binary search, so linking
    // costs O(log n) per component, not a pass over the main component.
    let main_members: Vec<usize> = (0..n).filter(|&i| roots[i] == main_root).collect();
    let mut at_level: Vec<Vec<usize>> = vec![Vec::new(); lv.iter().max().map_or(0, |&l| l + 1)];
    for (pos, &mm) in main_members.iter().enumerate() {
        at_level[lv[mm]].push(pos);
    }
    for rep in reps {
        // Pick a main-component node at a strictly different level; edge
        // direction follows the level order, so no cycle can form.
        let same = &at_level[lv[rep]];
        let candidates = main_members.len() - same.len();
        let (src, dst) = if candidates > 0 {
            let mm = main_members[kth_outside(same, rng.gen_range(0..candidates))];
            if lv[mm] < lv[rep] {
                (mm, rep)
            } else {
                (rep, mm)
            }
        } else {
            // Entire main component sits on the same level as `rep` (an
            // antichain); a direct edge is still acyclic.
            let mm = main_members[rng.gen_range(0..main_members.len())];
            (rep, mm)
        };
        b.add_edge(TaskId(src as u32), TaskId(dst as u32), volumes.sample(rng));
    }
    b.build()
        .expect("level-respecting extra edges keep the DAG acyclic")
}

/// The position of the `k`-th (from 0) position not in `taken`, a
/// strictly increasing list: `taken[i] - i` free positions precede
/// `taken[i]`, so a binary search counts the taken ones before it.
fn kth_outside(taken: &[usize], k: usize) -> usize {
    let (mut below, mut hi) = (0, taken.len());
    while below < hi {
        let mid = (below + hi) / 2;
        if taken[mid] - mid <= k {
            below = mid + 1;
        } else {
            hi = mid;
        }
    }
    k + below
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn range_sampling_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = Range::new(2.0, 5.0);
        for _ in 0..100 {
            let x = r.sample(&mut rng);
            assert!((2.0..=5.0).contains(&x));
        }
        let point = Range::new(3.0, 3.0);
        assert_eq!(point.sample(&mut rng), 3.0);
    }

    #[test]
    fn connect_components_links_everything() {
        use crate::graph::DagBuilder;
        use crate::topology::is_weakly_connected;
        // Three disjoint chains.
        let mut b = DagBuilder::new();
        for _ in 0..3 {
            let a = b.add_task(1.0);
            let c = b.add_task(1.0);
            b.add_edge(a, c, 1.0);
        }
        let g = b.build().unwrap();
        assert!(!is_weakly_connected(&g));
        let mut rng = StdRng::seed_from_u64(7);
        let g2 = connect_components(g, &mut rng, Range::new(1.0, 1.0));
        assert!(is_weakly_connected(&g2));
        assert_eq!(g2.num_tasks(), 6);
        assert!(g2.num_edges() >= 5);
    }

    #[test]
    fn kth_outside_skips_the_taken_positions() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let n = rng.gen_range(1..40usize);
            let taken: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            let free: Vec<usize> = (0..n).filter(|p| !taken.contains(p)).collect();
            for (k, &p) in free.iter().enumerate() {
                assert_eq!(kth_outside(&taken, k), p, "{taken:?}, k = {k}");
            }
        }
    }

    #[test]
    fn connect_antichain() {
        use crate::graph::DagBuilder;
        use crate::topology::is_weakly_connected;
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_task(1.0);
        }
        let g = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let g2 = connect_components(g, &mut rng, Range::new(1.0, 1.0));
        assert!(is_weakly_connected(&g2));
    }
}
