//! Analytic replay: a queue-free re-derivation of the crash execution
//! for *fail-at-time-zero* scenarios.
//!
//! Because FTSA and MC-FTSA place all replicas of a task when the task is
//! scheduled, every data or processor dependency of a replica points to a
//! task earlier in `schedule_order`. The simulated times can therefore be
//! computed by one pass in that order — no event queue — which gives an
//! independent oracle for the crash engine of [`crate::crash`] (the two
//! must agree exactly; see the cross-check property tests). No library
//! or binary code calls it: only the tests and the `ablation/simulator`
//! bench do.
//!
//! Matched (MC-FTSA) communications follow the
//! [`Rerouted`](crate::crash::FallbackPolicy::Rerouted) policy, matching
//! [`crate::crash::simulate`]'s default: a receiver whose matched sender
//! died accepts the earliest copy from any surviving replica.
//!
//! The replay rejects schedules containing extra duplicates (FTBAR's
//! minimize-start-time output) because a later-placed duplicate may feed
//! an earlier replica, breaking the one-pass order; use
//! [`crate::crash::simulate`] for those.

use ftsched_core::{CommSelection, Schedule};
use platform::{FailureScenario, Instance};

/// Outcome of an analytic replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Achieved latency (`f64::INFINITY` if some task lost all replicas).
    pub latency: f64,
    /// Whether every task completed at least one replica.
    pub completed: bool,
    /// Per task, per replica: `(start, finish)` or `None` if dead.
    pub times: Vec<Vec<Option<(f64, f64)>>>,
}

/// Replays `sched` under `scenario` (all failure times must be 0).
///
/// # Panics
/// Panics if the scenario contains positive failure times or the schedule
/// carries extra duplicates (both unsupported by the one-pass order).
pub fn replay(inst: &Instance, sched: &Schedule, scenario: &FailureScenario) -> ReplayResult {
    assert!(
        scenario.iter().all(|(_, t)| t == 0.0),
        "analytic replay supports fail-at-time-zero scenarios only"
    );
    let dag = &inst.dag;
    assert!(
        dag.tasks()
            .all(|t| sched.replicas_of(t).len() == sched.epsilon + 1),
        "analytic replay requires exactly ε+1 replicas per task (no duplicates)"
    );

    let failed: Vec<bool> = (0..inst.num_procs())
        .map(|j| scenario.fails(platform::ProcId(j as u32)))
        .collect();

    // matched_of[eid][dst_rep] = src replica index (matched schedules).
    let matched_of: Vec<Vec<usize>> = match &sched.comm {
        CommSelection::AllToAll => Vec::new(),
        CommSelection::Matched(mm) => dag
            .edge_list()
            .map(|(eid, _, dst, _)| {
                let mut v = vec![usize::MAX; sched.replicas_of(dst).len()];
                for &(s, d) in &mm[eid.index()] {
                    v[d] = s;
                }
                v
            })
            .collect(),
    };

    // --- static death marking ---------------------------------------------
    // With rerouted matched delivery the starvation rule coincides with
    // the all-to-all rule: a replica dies iff its processor failed or,
    // for some predecessor, *every* replica of that predecessor is dead.
    // Tasks are processed in topological order, so one pass suffices.
    let mut dead: Vec<Vec<bool>> = dag
        .tasks()
        .map(|t| {
            sched
                .replicas_of(t)
                .iter()
                .map(|r| failed[r.proc.index()])
                .collect()
        })
        .collect();
    for &t in dag.topological_order() {
        for k in 0..sched.replicas_of(t).len() {
            if dead[t.index()][k] {
                continue;
            }
            let starved = dag
                .preds(t)
                .iter()
                .any(|&(p, _)| dead[p.index()].iter().all(|&d| d));
            if starved {
                dead[t.index()][k] = true;
            }
        }
    }

    // --- one-pass time computation in schedule order ------------------------
    let mut times: Vec<Vec<Option<(f64, f64)>>> = dag
        .tasks()
        .map(|t| vec![None; sched.replicas_of(t).len()])
        .collect();
    let mut proc_last = vec![0.0f64; inst.num_procs()];

    for &t in &sched.schedule_order {
        for (k, rep) in sched.replicas_of(t).iter().enumerate() {
            if dead[t.index()][k] {
                continue;
            }
            let j = rep.proc.index();
            let mut arrival = 0.0f64;
            for &(p, eid) in dag.preds(t) {
                let vol = dag.volume(eid);
                let fallback_min = || {
                    sched
                        .replicas_of(p)
                        .iter()
                        .enumerate()
                        .filter(|&(sk, _)| !dead[p.index()][sk])
                        .map(|(sk, s)| {
                            let (_, f) =
                                times[p.index()][sk].expect("live sender computed earlier");
                            f + vol * inst.platform.delay(s.proc.index(), j)
                        })
                        .fold(f64::INFINITY, f64::min)
                };
                let first = match &sched.comm {
                    CommSelection::AllToAll => fallback_min(),
                    CommSelection::Matched(_) => {
                        let sk = matched_of[eid.index()][k];
                        if sk != usize::MAX && !dead[p.index()][sk] {
                            let s = &sched.replicas_of(p)[sk];
                            let (_, f) =
                                times[p.index()][sk].expect("live sender computed earlier");
                            f + vol * inst.platform.delay(s.proc.index(), j)
                        } else {
                            // Matched sender dead: rerouted delivery.
                            fallback_min()
                        }
                    }
                };
                arrival = arrival.max(first);
            }
            let start = arrival.max(proc_last[j]);
            let finish = start + inst.exec.time(t.index(), j);
            times[t.index()][k] = Some((start, finish));
            proc_last[j] = finish;
        }
    }

    let completed = dag
        .tasks()
        .all(|t| times[t.index()].iter().any(Option::is_some));
    let latency = if !completed {
        f64::INFINITY
    } else {
        dag.exits()
            .iter()
            .map(|&t| {
                times[t.index()]
                    .iter()
                    .flatten()
                    .map(|&(_, f)| f)
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    };

    ReplayResult {
        latency,
        completed,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::simulate;
    use ftsched_core::pipeline::PlacementAxis;
    use ftsched_core::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::ProcId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The algorithms replay supports: every pipeline configuration
    /// whose placement never appends duplicates (exactly ε+1 replicas
    /// per task — the one-pass order's precondition).
    fn replayable() -> impl Iterator<Item = Algorithm> {
        Algorithm::ALL
            .into_iter()
            .filter(|a| a.scheduler().placement != PlacementAxis::MinStart { duplicate: true })
    }

    #[test]
    fn replay_matches_des_no_failures() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            for alg in replayable() {
                let s = schedule(&inst, 2, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
                let a = replay(&inst, &s, &FailureScenario::none());
                let b = simulate(&inst, &s, &FailureScenario::none());
                assert!((a.latency - b.latency).abs() < 1e-9, "{alg:?} seed {seed}");
            }
        }
    }

    #[test]
    fn replay_matches_des_under_failures() {
        for seed in 0..4u64 {
            let mut r = StdRng::seed_from_u64(seed + 40);
            let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
            for alg in replayable() {
                let s = schedule(&inst, 2, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
                for probe in 0..8u64 {
                    let scen = FailureScenario::uniform(
                        &mut StdRng::seed_from_u64(seed * 97 + probe),
                        inst.num_procs(),
                        2,
                    );
                    let a = replay(&inst, &s, &scen);
                    let b = simulate(&inst, &s, &scen);
                    assert!(
                        (a.latency - b.latency).abs() < 1e-9,
                        "{alg:?} seed {seed} probe {probe}: {} vs {}",
                        a.latency,
                        b.latency
                    );
                    assert_eq!(a.completed, b.completed());
                    assert_eq!(a.times, b.times, "full trace must agree");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_timed_failures() {
        let mut r = StdRng::seed_from_u64(1);
        let inst = paper_instance(&mut r, &PaperInstanceConfig::default());
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        let scen = FailureScenario::new(vec![(ProcId(0), 5.0)]);
        let _ = replay(&inst, &s, &scen);
    }
}
