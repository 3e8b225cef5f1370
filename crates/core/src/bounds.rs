//! Latency bounds: `M*` (equation 2), `M` (equation 4), and absolute
//! lower bounds used as sanity anchors by the test suite.
//!
//! * `M*` ([`crate::Schedule::latency_lower_bound_for`]) — the
//!   schedule's makespan when **no** processor fails: every task starts
//!   on the first arriving copy of each input, so the relevant finish
//!   per task is its *earliest* replica.
//! * `M` ([`crate::Schedule::latency_upper_bound_for`]) — the guaranteed
//!   makespan under up to `ε` failures (Proposition 4.2: the achieved
//!   latency `L ≤ M`): every input is delivered by the *latest* replica.
//! * [`critical_path_bound`] — no valid schedule (any algorithm, any
//!   `ε`) can beat the DAG's critical path executed at per-task fastest
//!   speeds with free communication.

use platform::Instance;

/// Absolute latency lower bound: the critical path with every task at its
/// fastest processor and zero communication. Any schedule's `M*` is at
/// least this. `dist` is scratch for each task's finish on that path; a
/// warm buffer makes the call allocation-free.
pub fn critical_path_bound(inst: &Instance, dist: &mut Vec<f64>) -> f64 {
    let dag = &inst.dag;
    dist.clear();
    dist.resize(dag.num_tasks(), 0.0);
    let mut best = 0.0f64;
    for &t in dag.topological_order() {
        let arr = dag
            .preds(t)
            .iter()
            .map(|&(p, _)| dist[p.index()])
            .fold(0.0f64, f64::max);
        dist[t.index()] = arr + inst.exec.fastest(t.index());
        best = best.max(dist[t.index()]);
    }
    best
}

/// Worst-case message counts of Section 4.2: `e(ε+1)²` for plain
/// replication, `e(ε+1)` for MC-FTSA.
pub fn max_messages(edges: usize, epsilon: usize) -> (usize, usize) {
    let r = epsilon + 1;
    (edges * r * r, edges * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn critical_path_bound_holds_for_all_algorithms() {
        for seed in 0..5u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            let cp = critical_path_bound(&inst, &mut Vec::new());
            for eps in [0usize, 1, 2] {
                let mut tb = StdRng::seed_from_u64(seed);
                let f = schedule(&inst, eps, Algorithm::Ftsa, &mut tb).unwrap();
                assert!(f.latency_lower_bound() >= cp - 1e-6);
                let mc = schedule(&inst, eps, Algorithm::McFtsaGreedy, &mut tb).unwrap();
                assert!(mc.latency_lower_bound() >= cp - 1e-6);
            }
        }
    }

    #[test]
    fn exit_bound_equals_global_bound() {
        let mut r = StdRng::seed_from_u64(9);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(9)).unwrap();
        assert!((s.latency_lower_bound_for(&inst.dag) - s.latency_lower_bound()).abs() < 1e-9);
        assert!((s.latency_upper_bound_for(&inst.dag) - s.latency_upper_bound()).abs() < 1e-9);
    }

    #[test]
    fn message_bound_formulas() {
        assert_eq!(max_messages(10, 0), (10, 10));
        assert_eq!(max_messages(10, 2), (90, 30));
    }
}
