//! Static bottom levels and average-cost helpers (Section 4.1).
//!
//! The *static bottom level* `bℓ(t)` is the length of the longest path
//! from `t` to an exit, measured with the **average** execution time
//! `Ē(t) = (Σ_j E(t, P_j)) / m` and the **average** communication cost
//! `W̄(t, t*) = V(t, t*) · d̄` where `d̄` is the mean unit-data delay over
//! distinct processor pairs:
//!
//! ```text
//! bℓ(t) = Ē(t)                                        if Γ⁺(t) = ∅
//! bℓ(t) = max_{t* ∈ Γ⁺(t)} { Ē(t) + W̄(t, t*) + bℓ(t*) }  otherwise
//! ```
//!
//! `bℓ` stays fixed throughout the run ("static"), while the top level
//! `tℓ` is refreshed as predecessors get mapped ("dynamic") — see the
//! FTSA module.

use platform::Instance;

/// Precomputed average costs of an instance.
#[derive(Debug, Clone, Default)]
pub struct AverageCosts {
    /// `Ē(t)` per task.
    pub exec: Vec<f64>,
    /// The platform's mean inter-processor unit delay `d̄`.
    pub mean_delay: f64,
}

impl AverageCosts {
    /// Computes the averages for `inst`.
    pub fn new(inst: &Instance) -> Self {
        let mut costs = AverageCosts {
            exec: Vec::new(),
            mean_delay: 0.0,
        };
        costs.fill(inst);
        costs
    }

    /// Recomputes the averages for `inst` in place, reusing the `exec`
    /// buffer (allocation-free once its capacity covers the task count).
    pub fn fill(&mut self, inst: &Instance) {
        self.exec.clear();
        self.exec
            .extend((0..inst.num_tasks()).map(|t| inst.exec.average(t)));
        self.mean_delay = inst.platform.average_delay();
    }

    /// Average communication cost `W̄` of shipping `volume` units.
    #[inline]
    pub fn comm(&self, volume: f64) -> f64 {
        volume * self.mean_delay
    }
}

/// Computes the static bottom levels `bℓ(t)` for every task, in reverse
/// topological order, into `bl` (cleared first, so the scheduler
/// workspace reuses one buffer across runs).
pub fn bottom_levels_into(inst: &Instance, avg: &AverageCosts, bl: &mut Vec<f64>) {
    let dag = &inst.dag;
    bl.clear();
    bl.resize(dag.num_tasks(), 0.0);
    for &t in dag.topological_order().iter().rev() {
        let e = avg.exec[t.index()];
        let succs = dag.succs(t);
        bl[t.index()] = if succs.is_empty() {
            e
        } else {
            succs
                .iter()
                .map(|&(s, eid)| e + avg.comm(dag.volume(eid)) + bl[s.index()])
                .fold(f64::NEG_INFINITY, f64::max)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecutionMatrix, Instance, Platform};
    use taskgraph::DagBuilder;

    /// chain a --(v=10)--> b --(v=20)--> c, works 2/4/6, two procs with
    /// speeds 1 and 2, uniform delay 0.5.
    fn chain_instance() -> Instance {
        let mut b = DagBuilder::new();
        let t0 = b.add_task(2.0);
        let t1 = b.add_task(4.0);
        let t2 = b.add_task(6.0);
        b.add_edge(t0, t1, 10.0);
        b.add_edge(t1, t2, 20.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 0.5);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 2.0]);
        Instance::new(dag, plat, exec)
    }

    #[test]
    fn averages() {
        let inst = chain_instance();
        let avg = AverageCosts::new(&inst);
        // Ē(t0) = (2 + 1)/2 = 1.5 etc.
        assert_eq!(avg.exec, vec![1.5, 3.0, 4.5]);
        assert_eq!(avg.mean_delay, 0.5);
        assert_eq!(avg.comm(10.0), 5.0);
    }

    #[test]
    fn bottom_levels_of_chain() {
        let inst = chain_instance();
        let avg = AverageCosts::new(&inst);
        let mut bl = Vec::new();
        bottom_levels_into(&inst, &avg, &mut bl);
        // bl(t2) = 4.5
        // bl(t1) = 3.0 + 20*0.5 + 4.5 = 17.5
        // bl(t0) = 1.5 + 10*0.5 + 17.5 = 24.0
        assert_eq!(bl, vec![24.0, 17.5, 4.5]);
    }

    #[test]
    fn bottom_levels_take_max_branch() {
        let mut b = DagBuilder::new();
        let root = b.add_task(2.0);
        let cheap = b.add_task(2.0);
        let dear = b.add_task(20.0);
        b.add_edge(root, cheap, 0.0);
        b.add_edge(root, dear, 0.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0]);
        let inst = Instance::new(dag, plat, exec);
        let avg = AverageCosts::new(&inst);
        let mut bl = Vec::new();
        bottom_levels_into(&inst, &avg, &mut bl);
        assert_eq!(bl[0], 2.0 + 0.0 + 20.0);
    }

    #[test]
    fn single_task_bottom_level_is_its_mean() {
        let mut b = DagBuilder::new();
        b.add_task(8.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(4, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 2.0, 4.0, 8.0]);
        let inst = Instance::new(dag, plat, exec);
        let avg = AverageCosts::new(&inst);
        let mut bl = Vec::new();
        bottom_levels_into(&inst, &avg, &mut bl);
        // (8 + 4 + 2 + 1)/4 = 3.75
        assert_eq!(bl, vec![3.75]);
    }
}
