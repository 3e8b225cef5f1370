//! Structural validation of fault-tolerant schedules.
//!
//! A schedule is *valid* when (numbering follows the paper):
//!
//! 0. **Shape** — it covers exactly the instance's tasks and processors,
//!    `ε` is below the processor count, and every task, processor,
//!    replica and matched-pair index it names exists. Each index is
//!    checked before it is used, so a schedule read from a file cannot
//!    make validation index out of range, and one that validates cannot
//!    make the simulator do so.
//! 1. **Proposition 4.1** — every task has at least `ε + 1` replicas and
//!    its first `ε + 1` (primary) replicas sit on pairwise distinct
//!    processors.
//! 2. **Processor exclusivity** — on every processor, the placed replicas
//!    are sequential (no overlap) on both timelines, and the placement
//!    lists mirror the replica records exactly.
//! 3. **Optimistic precedence feasibility** — for every replica `r` of
//!    `t` and every predecessor `t'`, at least one replica of `t'`
//!    delivers its data by `start_lb(r)` (for matched communications, the
//!    matched sender).
//! 4. **Pessimistic guarantee** — `start_ub(r)` is no earlier than the
//!    latest delivery among the *primary* replicas of each predecessor
//!    (the equation-3 term; FTBAR duplicates added later are exempt by
//!    first-arrival semantics).
//! 5. **Proposition 4.3 structure** (matched communications only) — per
//!    DAG edge the selected pairs form a one-to-one mapping saturating
//!    all `ε + 1` senders and receivers, and any sender collocated with a
//!    receiver is matched to itself.
//! 6. **Order sanity** — `schedule_order` is a topological order covering
//!    every task.

use crate::schedule::{CommSelection, Schedule};
use crate::ScheduleError;
use platform::Instance;

const TOL: f64 = 1e-6;

/// Validates `sched` against `inst`; returns the first violation found.
pub fn validate(inst: &Instance, sched: &Schedule) -> Result<(), ScheduleError> {
    let dag = &inst.dag;
    let plat = &inst.platform;
    let fail = |msg: String| Err(ScheduleError::Invalid(msg));

    // (0) the counts; each later step range-checks the indices it reads
    // from the schedule before it uses them.
    let (v, m) = (dag.num_tasks(), plat.num_procs());
    if sched.num_tasks() != v {
        return fail(format!(
            "schedule has replicas for {} tasks, the graph has {v}",
            sched.num_tasks()
        ));
    }
    if sched.num_procs() != m {
        return fail(format!(
            "schedule has placement lists for {} processors, the platform has {m}",
            sched.num_procs()
        ));
    }
    if sched.epsilon >= m {
        return fail(format!(
            "ε = {} needs more than the platform's {m} processors",
            sched.epsilon
        ));
    }
    let eps1 = sched.epsilon + 1;

    // (6) schedule_order is a complete topological order.
    if sched.schedule_order.len() != dag.num_tasks() {
        return fail(format!(
            "schedule_order covers {} of {} tasks",
            sched.schedule_order.len(),
            dag.num_tasks()
        ));
    }
    let mut pos = vec![usize::MAX; dag.num_tasks()];
    for (i, t) in sched.schedule_order.iter().enumerate() {
        if t.index() >= v {
            return fail(format!("schedule_order names unknown task {t}"));
        }
        if pos[t.index()] != usize::MAX {
            return fail(format!("task {t} scheduled twice"));
        }
        pos[t.index()] = i;
    }
    for (_, s, d, _) in dag.edge_list() {
        if pos[s.index()] >= pos[d.index()] {
            return fail(format!("schedule_order violates edge {s} -> {d}"));
        }
    }

    // (1) replica counts and primary distinctness.
    for t in dag.tasks() {
        let reps = sched.replicas_of(t);
        if reps.len() < eps1 {
            return fail(format!(
                "task {t} has {} replicas, needs at least {eps1}",
                reps.len()
            ));
        }
        let mut procs = std::collections::HashSet::new();
        for r in &reps[..eps1] {
            if !procs.insert(r.proc) {
                return fail(format!(
                    "Proposition 4.1 violated: primary replicas of {t} share {}",
                    r.proc
                ));
            }
        }
        for r in reps {
            if r.proc.index() >= m {
                return fail(format!("task {t} placed on unknown {}", r.proc));
            }
            if r.start_lb < -TOL || r.finish_lb < r.start_lb - TOL || r.finish_ub < r.start_ub - TOL
            {
                return fail(format!("task {t} has inconsistent replica times"));
            }
        }
    }

    // (2) per-processor sequences.
    let mut seen = vec![vec![false; 0]; dag.num_tasks()];
    for t in dag.tasks() {
        seen[t.index()] = vec![false; sched.replicas_of(t).len()];
    }
    for j in 0..m {
        let mut last_lb = f64::NEG_INFINITY;
        let mut last_ub = f64::NEG_INFINITY;
        for (t, k) in sched.proc_order(j) {
            if t.index() >= v {
                return fail(format!("proc P{j} places unknown task {t}"));
            }
            let reps = sched.replicas_of(t);
            if k >= reps.len() {
                return fail(format!("proc P{j} references missing replica {k} of {t}"));
            }
            if seen[t.index()][k] {
                return fail(format!("replica {k} of {t} placed twice"));
            }
            seen[t.index()][k] = true;
            let r = reps[k];
            if r.proc.index() != j {
                return fail(format!(
                    "replica {k} of {t} recorded on {} but placed on P{j}",
                    r.proc
                ));
            }
            if r.start_lb < last_lb - TOL || r.start_ub < last_ub - TOL {
                return fail(format!("overlapping replicas on P{j} at task {t}"));
            }
            last_lb = r.finish_lb;
            last_ub = r.finish_ub;
        }
    }
    for t in dag.tasks() {
        if seen[t.index()].iter().any(|&s| !s) {
            return fail(format!("task {t} has replicas missing from proc_order"));
        }
    }

    // (5) matched-communication structure, before (3) reads the pairs.
    if let CommSelection::Matched(table) = &sched.comm {
        if table.len() != dag.num_edges() {
            return fail(format!(
                "matched comm table lists {} edges, the graph has {}",
                table.len(),
                dag.num_edges()
            ));
        }
        for (eid, src, dst, _) in dag.edge_list() {
            let pairs = &table[eid.index()];
            let mut ls = std::collections::HashSet::new();
            let mut rs = std::collections::HashSet::new();
            for &(k, d) in pairs {
                if k >= sched.replicas_of(src).len() || d >= sched.replicas_of(dst).len() {
                    return fail(format!(
                        "edge {src}->{dst} pair ({k}, {d}) names a missing replica"
                    ));
                }
                if !ls.insert(k) || !rs.insert(d) {
                    return fail(format!("edge {src}->{dst} matching not one-to-one"));
                }
            }
            if pairs.len() != eps1 {
                return fail(format!(
                    "edge {src}->{dst} has {} matched pairs, expected {eps1}",
                    pairs.len()
                ));
            }
            // Forced internal edges of Proposition 4.3.
            for (k, s) in sched.replicas_of(src).iter().enumerate().take(eps1) {
                if let Some(d) = sched.replicas_of(dst)[..eps1]
                    .iter()
                    .position(|r| r.proc == s.proc)
                {
                    if !pairs.contains(&(k, d)) {
                        return fail(format!(
                            "edge {src}->{dst}: sender on shared {} must be matched \
                             internally (Proposition 4.3)",
                            s.proc
                        ));
                    }
                }
            }
        }
    }

    // (3) + (4) precedence feasibility.
    for t in dag.tasks() {
        for (ri, r) in sched.replicas_of(t).iter().enumerate() {
            for &(p, eid) in dag.preds(t) {
                let vol = dag.volume(eid);
                let senders = sched.replicas_of(p);
                match &sched.comm {
                    CommSelection::AllToAll => {
                        // (3): someone delivers by start_lb.
                        let earliest = senders
                            .iter()
                            .map(|s| s.finish_lb + vol * plat.delay(s.proc.index(), r.proc.index()))
                            .fold(f64::INFINITY, f64::min);
                        if earliest > r.start_lb + TOL {
                            return fail(format!(
                                "optimistic data of {p} reaches {t} replica {ri} at \
                                 {earliest:.6} after start {:.6}",
                                r.start_lb
                            ));
                        }
                        // (4): primaries all deliver by start_ub. Only
                        // meaningful for primary destination replicas;
                        // duplicates inherit the guarantee from
                        // first-arrival semantics.
                        if ri < eps1 {
                            let latest = senders[..eps1.min(senders.len())]
                                .iter()
                                .map(|s| {
                                    s.finish_ub + vol * plat.delay(s.proc.index(), r.proc.index())
                                })
                                .fold(f64::NEG_INFINITY, f64::max);
                            if latest > r.start_ub + TOL {
                                return fail(format!(
                                    "pessimistic data of {p} reaches {t} replica {ri} \
                                     at {latest:.6} after start_ub {:.6}",
                                    r.start_ub
                                ));
                            }
                        }
                    }
                    CommSelection::Matched(m) => {
                        let pairs = &m[eid.index()];
                        let Some(&(k, _)) = pairs.iter().find(|&&(_, d)| d == ri) else {
                            return fail(format!(
                                "no matched sender for {t} replica {ri} on edge {p}->{t}"
                            ));
                        };
                        let s = &senders[k];
                        let arrive = s.finish_lb + vol * plat.delay(s.proc.index(), r.proc.index());
                        if arrive > r.start_lb + TOL {
                            return fail(format!(
                                "matched data of {p} reaches {t} replica {ri} at \
                                 {arrive:.6} after start {:.6}",
                                r.start_lb
                            ));
                        }
                    }
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_algorithms_produce_valid_schedules() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            for eps in [0usize, 1, 2, 5] {
                let mut tb = StdRng::seed_from_u64(seed * 31 + eps as u64);
                for alg in Algorithm::ALL {
                    let s = crate::schedule(&inst, eps, alg, &mut tb).unwrap();
                    validate(&inst, &s).unwrap_or_else(|e| panic!("{alg:?} eps={eps}: {e}"));
                }
            }
        }
    }

    #[test]
    fn detects_shared_primary_processor() {
        let mut r = StdRng::seed_from_u64(3);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let mut s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(3)).unwrap();
        // Corrupt: force both replicas of task 0 onto the same processor.
        let t0 = taskgraph::TaskId(0);
        let p = s.replicas_of(t0)[0].proc;
        s.replica_mut(t0, 1).proc = p;
        let err = validate(&inst, &s).unwrap_err();
        assert!(err.to_string().contains("4.1") || err.to_string().contains("recorded"));
    }

    #[test]
    fn detects_precedence_violation() {
        let mut r = StdRng::seed_from_u64(4);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let mut s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(4)).unwrap();
        // Find a task with a predecessor and pull its start to 0.
        let t = inst
            .dag
            .tasks()
            .find(|&t| inst.dag.in_degree(t) > 0)
            .expect("nonempty dag");
        s.replica_mut(t, 0).start_lb = 0.0;
        s.replica_mut(t, 0).finish_lb = 0.01;
        assert!(validate(&inst, &s).is_err());
    }

    #[test]
    fn detects_truncated_schedule_order() {
        let mut r = StdRng::seed_from_u64(5);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let mut s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(5)).unwrap();
        s.schedule_order.pop();
        assert!(validate(&inst, &s).is_err());
    }
}
