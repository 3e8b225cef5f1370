//! The static crash pass against its oracle, the event loop with
//! unbounded ports: latency bits, `lost_task`, and every replica's
//! `(start, finish)` bits (`None` for a replica that never completed)
//! must agree, and the pass must end within the `λ + 1` sweeps the
//! `crash` module docs state (one sweep when no sender is late).

use ftsched_core::{schedule, Algorithm, CommSelection, Replica, Schedule};
use platform::gen::{paper_instance, PaperInstanceConfig};
use platform::{ExecutionMatrix, FailureScenario, Instance, Platform, ProcId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simulator::crash::{
    simulate_event_loop_into, simulate_into, simulate_outcome_from_into, CrashWorkspace,
    FallbackPolicy, SimResult,
};
use taskgraph::{DagBuilder, TaskId};

fn make_instance(seed: u64, procs: usize, tasks: usize, granularity: f64) -> Instance {
    paper_instance(
        &mut StdRng::seed_from_u64(seed),
        &PaperInstanceConfig {
            tasks_lo: tasks,
            tasks_hi: tasks,
            procs,
            granularity,
            ..Default::default()
        },
    )
}

fn policy(strict: bool) -> FallbackPolicy {
    if strict {
        FallbackPolicy::Strict
    } else {
        FallbackPolicy::Rerouted
    }
}

/// Bit-level equality of two full results, with a message naming the
/// first difference.
fn same_bits(pass: &SimResult, oracle: &SimResult) -> Result<(), String> {
    if pass.latency.to_bits() != oracle.latency.to_bits() {
        return Err(format!("latency {} vs {}", pass.latency, oracle.latency));
    }
    if pass.lost_task != oracle.lost_task {
        return Err(format!(
            "lost task {:?} vs {:?}",
            pass.lost_task, oracle.lost_task
        ));
    }
    let bits = |r: &SimResult| -> Vec<Vec<Option<(u64, u64)>>> {
        r.times
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|t| t.map(|(s, f)| (s.to_bits(), f.to_bits())))
                    .collect()
            })
            .collect()
    };
    if bits(pass) != bits(oracle) {
        return Err("replica (start, finish) bits differ".into());
    }
    Ok(())
}

/// Checks the sweep bound of the last replay on `ws`; `None` when the
/// event loop replayed it.
fn sweep_bound(ws: &CrashWorkspace) -> Result<Option<(u32, u32)>, String> {
    match ws.last_pass() {
        Some((sweeps, late)) if sweeps > late + 1 || (late == 0 && sweeps != 1) => Err(format!(
            "{sweeps} sweeps with {late} late senders break the λ + 1 bound"
        )),
        other => Ok(other),
    }
}

/// Replays `scen` through the pass (with `floors`, through the streaming
/// entry) and through the oracle, and compares them.
fn check(
    inst: &Instance,
    sched: &Schedule,
    scen: &FailureScenario,
    policy: FallbackPolicy,
    floors: Option<&[f64]>,
    ws: &mut CrashWorkspace,
    oracle_ws: &mut CrashWorkspace,
) -> Result<Option<(u32, u32)>, String> {
    let pass = match floors {
        None => simulate_into(inst, sched, scen, policy, ws),
        Some(f) => {
            let out = simulate_outcome_from_into(inst, sched, scen, policy, f, ws);
            let full = ws.last_result(inst);
            if out.latency.to_bits() != full.latency.to_bits()
                || out.completed() != full.completed()
            {
                return Err("outcome disagrees with the full result".into());
            }
            full
        }
    };
    let oracle = simulate_event_loop_into(inst, sched, scen, policy, floors, oracle_ws);
    same_bits(&pass, &oracle)?;
    sweep_bound(ws)
}

fn time_zero_scenario(rng: &mut StdRng, m: usize, crashes: usize) -> FailureScenario {
    FailureScenario::uniform(rng, m, crashes.min(m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pass_equals_loop_under_time_zero_crashes(
        seed in 0u64..100_000,
        procs in 3usize..21,
        eps_raw in 0usize..3,
        alg in 0usize..7,
        extra in 0usize..2,
        g in 0.2f64..2.0,
    ) {
        let eps = eps_raw.min(procs - 1);
        let alg = Algorithm::ALL[alg];
        let inst = make_instance(seed, procs, 30, g);
        let sched = schedule(&inst, eps, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0FA1);
        // 0 to ε + 1 crashes, under both policies.
        for crashes in 0..=eps + extra {
            let scen = time_zero_scenario(&mut rng, procs, crashes);
            for strict in [false, true] {
                let pass = check(&inst, &sched, &scen, policy(strict), None, &mut ws, &mut oracle)
                    .map_err(|e| TestCaseError::fail(format!("{alg:?} ε={eps} {crashes} crashes: {e}")))?;
                prop_assert!(pass.is_some(), "time-0 replays never leave the pass");
            }
        }
    }

    #[test]
    fn pass_equals_loop_under_timed_strict_crashes(
        seed in 0u64..100_000,
        procs in 3usize..21,
        eps_raw in 0usize..3,
        alg in 0usize..7,
        fracs in proptest::collection::vec(0.0f64..1.2, 1..4),
    ) {
        let eps = eps_raw.min(procs - 1);
        let alg = Algorithm::ALL[alg];
        let inst = make_instance(seed, procs, 30, 1.0);
        let sched = schedule(&inst, eps, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let star = sched.latency_lower_bound();
        let victims = time_zero_scenario(&mut StdRng::seed_from_u64(seed ^ 0x71ED), procs, fracs.len());
        let scen = FailureScenario::new(
            victims.iter().zip(&fracs).map(|((p, _), &f)| (p, f * star)).collect(),
        );
        let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
        check(&inst, &sched, &scen, FallbackPolicy::Strict, None, &mut ws, &mut oracle)
            .map_err(|e| TestCaseError::fail(format!("{alg:?} ε={eps}: {e}")))?;
    }

    #[test]
    fn pass_equals_loop_from_release_floors(
        seed in 0u64..100_000,
        procs in 3usize..21,
        eps_raw in 0usize..3,
        alg in 0usize..7,
        timed in 0usize..2,
    ) {
        let eps = eps_raw.min(procs - 1);
        let alg = Algorithm::ALL[alg];
        let inst = make_instance(seed, procs, 30, 1.0);
        let sched = schedule(&inst, eps, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let star = sched.latency_lower_bound();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1002);
        let floors: Vec<f64> = (0..procs).map(|_| rng.gen_range(0.0..star)).collect();
        let (scen, strict) = if timed == 1 {
            let victims = time_zero_scenario(&mut rng, procs, eps.max(1));
            let at = victims.iter().map(|(p, _)| (p, rng.gen_range(0.0..2.0 * star))).collect();
            (FailureScenario::new(at), true)
        } else {
            (time_zero_scenario(&mut rng, procs, eps), rng.gen_bool(0.5))
        };
        let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
        check(&inst, &sched, &scen, policy(strict), Some(&floors), &mut ws, &mut oracle)
            .map_err(|e| TestCaseError::fail(format!("{alg:?} ε={eps}: {e}")))?;
    }
}

fn replica(proc: u32, start: f64, finish: f64) -> Replica {
    Replica {
        proc: ProcId(proc),
        start_lb: start,
        finish_lb: finish,
        start_ub: start,
        finish_ub: finish,
    }
}

/// A unit-work instance on `m` identical processors, one unit of data
/// per edge.
fn unit_instance(tasks: usize, edges: &[(usize, usize)], m: usize) -> (Instance, Vec<TaskId>) {
    let mut b = DagBuilder::new();
    let t: Vec<TaskId> = (0..tasks).map(|_| b.add_task(1.0)).collect();
    for &(a, z) in edges {
        b.add_edge(t[a], t[z], 1.0);
    }
    let dag = b.build().unwrap();
    let exec = ExecutionMatrix::consistent(&dag, &vec![1.0; m]);
    (Instance::new(dag, Platform::uniform_delay(m, 1.0), exec), t)
}

/// Compares pass and loop on every time-0 failure set of at most two
/// processors under both policies; returns the largest sweep count.
fn check_all_small_failure_sets(inst: &Instance, sched: &Schedule) -> u32 {
    let m = inst.num_procs();
    let mut sets = vec![FailureScenario::none()];
    for a in 0..m as u32 {
        sets.push(FailureScenario::at_time_zero([ProcId(a)]));
        for b in a + 1..m as u32 {
            sets.push(FailureScenario::at_time_zero([ProcId(a), ProcId(b)]));
        }
    }
    let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
    let mut most = 0;
    for scen in &sets {
        for strict in [false, true] {
            let pass = check(
                inst,
                sched,
                scen,
                policy(strict),
                None,
                &mut ws,
                &mut oracle,
            )
            .unwrap_or_else(|e| panic!("{scen:?} strict={strict}: {e}"));
            most = most.max(pass.expect("time-0 replays stay on the pass").0);
        }
    }
    most
}

#[test]
fn strict_slot_without_matched_sender_is_never_fed() {
    // a → t; t's third replica, on P4, is named by no pair of the edge.
    let (inst, t) = unit_instance(2, &[(0, 1)], 5);
    let sched = Schedule::from_parts(
        1,
        vec![
            vec![replica(0, 0.0, 1.0), replica(1, 0.0, 1.0)],
            vec![
                replica(2, 2.0, 3.0),
                replica(3, 2.0, 3.0),
                replica(4, 2.0, 3.0),
            ],
        ],
        vec![
            vec![(t[0], 0)],
            vec![(t[0], 1)],
            vec![(t[1], 0)],
            vec![(t[1], 1)],
            vec![(t[1], 2)],
        ],
        CommSelection::Matched(vec![(0, 0), (1, 1)]),
        t.clone(),
    );
    check_all_small_failure_sets(&inst, &sched);
    let mut ws = CrashWorkspace::new();
    let none = FailureScenario::none();
    let strict = simulate_into(&inst, &sched, &none, FallbackPolicy::Strict, &mut ws);
    assert_eq!(strict.times[1][2], None, "strict: never fed");
    let rerouted = simulate_into(&inst, &sched, &none, FallbackPolicy::Rerouted, &mut ws);
    assert!(
        rerouted.times[1][2].is_some(),
        "rerouted: fed by any sender"
    );
}

#[test]
fn composition_gap_agrees_with_the_loop() {
    // The instance of `crash::tests::strict_semantics_composition_gap`.
    let (inst, t) = unit_instance(3, &[(0, 2), (1, 2)], 5);
    let (a, b, j) = (t[0], t[1], t[2]);
    let sched = Schedule::from_parts(
        1,
        vec![
            vec![replica(0, 0.0, 1.0), replica(1, 0.0, 1.0)],
            vec![replica(0, 1.0, 2.0), replica(2, 0.0, 1.0)],
            vec![replica(3, 3.0, 4.0), replica(4, 3.0, 4.0)],
        ],
        vec![
            vec![(a, 0), (b, 0)],
            vec![(a, 1)],
            vec![(b, 1)],
            vec![(j, 0)],
            vec![(j, 1)],
        ],
        CommSelection::Matched(vec![(0, 0), (1, 1), (0, 1), (1, 0)]),
        vec![a, b, j],
    );
    check_all_small_failure_sets(&inst, &sched);
    let scen = FailureScenario::at_time_zero([ProcId(0)]);
    let strict = simulate_into(
        &inst,
        &sched,
        &scen,
        FallbackPolicy::Strict,
        &mut CrashWorkspace::new(),
    );
    assert!(!strict.completed(), "strict delivery keeps the gap");
}

/// a → b with ε = 1 on five processors: a's primaries on P0 and P1,
/// b's on P2 and P3, and a duplicate of a listed last on the queue of
/// `dup_proc`.
fn late_duplicate_schedule(t: &[TaskId], dup_proc: u32) -> Schedule {
    let mut order = vec![
        vec![(t[0], 0)],
        vec![(t[0], 1)],
        vec![(t[1], 0)],
        vec![(t[1], 1)],
        vec![],
    ];
    order[dup_proc as usize].push((t[0], 2));
    Schedule::from_parts(
        1,
        vec![
            vec![
                replica(0, 0.0, 1.0),
                replica(1, 0.0, 1.0),
                replica(dup_proc, 3.0, 4.0),
            ],
            vec![replica(2, 2.0, 3.0), replica(3, 2.0, 3.0)],
        ],
        order,
        CommSelection::AllToAll,
        t.to_vec(),
    )
}

#[test]
fn receiver_of_a_later_duplicate_is_blocked_not_dead() {
    // With P0 and P1 down, the duplicate of a is the only live sender of
    // both replicas of b. The first sweep reaches b before the
    // duplicate, so it must leave b blocked, not starved: on an idle P4
    // the duplicate runs and feeds b in the second sweep.
    let (inst, t) = unit_instance(2, &[(0, 1)], 5);
    let scen = FailureScenario::at_time_zero([ProcId(0), ProcId(1)]);
    let mut ws = CrashWorkspace::new();
    let sched = late_duplicate_schedule(&t, 4);
    check_all_small_failure_sets(&inst, &sched);
    let sim = simulate_into(&inst, &sched, &scen, FallbackPolicy::Rerouted, &mut ws);
    assert!(sim.completed());
    assert_eq!(sim.times[1], vec![Some((2.0, 3.0)); 2]);
    assert_eq!(ws.last_pass(), Some((2, 1)));

    // Behind b@P3 instead, the duplicate waits for b, which waits for
    // it: both stay blocked, and a is lost.
    let sched = late_duplicate_schedule(&t, 3);
    check_all_small_failure_sets(&inst, &sched);
    let sim = simulate_into(&inst, &sched, &scen, FallbackPolicy::Rerouted, &mut ws);
    assert_eq!(sim.lost_task, Some(t[0]));
    assert_eq!(sim.times[1], vec![None, None]);
    assert_eq!(ws.last_pass(), Some((1, 1)));
}

#[test]
fn late_sender_that_starves_is_dead_before_the_sweep() {
    // x → a → b, and z alone. With P0 and P1 down, x dies, so every
    // replica of a starves, the late duplicate on P4 included, and b
    // starves with them. The sweep reaches b before that duplicate: b
    // must already count as dead, not blocked, or it would stall P3 and
    // keep z from running there.
    let (inst, t) = unit_instance(4, &[(0, 1), (1, 2)], 5);
    let (x, a, b, z) = (t[0], t[1], t[2], t[3]);
    let sched = Schedule::from_parts(
        1,
        vec![
            vec![replica(0, 0.0, 1.0), replica(1, 0.0, 1.0)],
            vec![
                replica(2, 2.0, 3.0),
                replica(3, 2.0, 3.0),
                replica(4, 1.0, 2.0),
            ],
            vec![replica(2, 4.0, 5.0), replica(3, 4.0, 5.0)],
            vec![replica(3, 5.0, 6.0), replica(4, 0.0, 1.0)],
        ],
        vec![
            vec![(x, 0)],
            vec![(x, 1)],
            vec![(a, 0), (b, 0)],
            vec![(a, 1), (b, 1), (z, 0)],
            vec![(z, 1), (a, 2)],
        ],
        CommSelection::AllToAll,
        vec![x, a, b, z],
    );
    check_all_small_failure_sets(&inst, &sched);
    let scen = FailureScenario::at_time_zero([ProcId(0), ProcId(1)]);
    let sim = simulate_into(
        &inst,
        &sched,
        &scen,
        FallbackPolicy::Rerouted,
        &mut CrashWorkspace::new(),
    );
    assert_eq!(sim.times[3][0], Some((0.0, 1.0)), "z runs on P3");
}

#[test]
fn queue_against_schedule_order_agrees_with_the_loop() {
    // a → b and z → c, scheduled a, b, z, c; P1 runs c before a, so the
    // first sweep reaches c (which needs z) before z's own step.
    let (inst, t) = unit_instance(4, &[(0, 1), (2, 3)], 3);
    let (a, b, z, c) = (t[0], t[1], t[2], t[3]);
    let sched = Schedule::from_parts(
        0,
        vec![
            vec![replica(1, 1.0, 2.0)],
            vec![replica(0, 4.0, 5.0)],
            vec![replica(2, 0.0, 1.0)],
            vec![replica(1, 0.0, 1.0)],
        ],
        vec![vec![(b, 0)], vec![(c, 0), (a, 0)], vec![(z, 0)]],
        CommSelection::AllToAll,
        vec![a, b, z, c],
    );
    assert_eq!(check_all_small_failure_sets(&inst, &sched), 2);
    let mut ws = CrashWorkspace::new();
    let sim = simulate_into(
        &inst,
        &sched,
        &FailureScenario::none(),
        FallbackPolicy::Rerouted,
        &mut ws,
    );
    assert_eq!(sim.latency, 6.0);
    assert_eq!(ws.last_pass(), Some((2, 1)));
}

#[test]
fn ftbar_time_zero_replay_takes_three_sweeps() {
    // A small FTBAR schedule whose late duplicates chain, found by
    // scanning seeds: it needs three sweeps under some time-0 failure
    // set, and the pass still equals the loop on every set.
    let inst = make_instance(5, 5, 16, 0.3);
    let sched = schedule(&inst, 1, Algorithm::Ftbar, &mut StdRng::seed_from_u64(5)).unwrap();
    assert!(check_all_small_failure_sets(&inst, &sched) >= 3);
}

#[test]
fn timed_crash_with_late_senders_goes_to_the_loop() {
    // The late-duplicate schedule under a timed crash: the pass hands it
    // over, and the result is the loop's.
    let (inst, t) = unit_instance(2, &[(0, 1)], 5);
    let sched = late_duplicate_schedule(&t, 4);
    let scen = FailureScenario::new(vec![(ProcId(0), 0.0), (ProcId(1), 0.5)]);
    let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
    let pass = check(
        &inst,
        &sched,
        &scen,
        FallbackPolicy::Strict,
        None,
        &mut ws,
        &mut oracle,
    );
    assert_eq!(pass, Ok(None));
}

/// At least 10^5 random pass-vs-loop replays over every algorithm, both
/// policies, time-0 and timed crashes and release floors. Run it with
/// `cargo test --release -p ftsched-simulator -- --ignored`.
#[test]
#[ignore = "10^5 replays: run in release"]
fn pass_equals_loop_on_a_hundred_thousand_replays() {
    let (mut ws, mut oracle) = (CrashWorkspace::new(), CrashWorkspace::new());
    let mut replays = 0usize;
    let mut most_sweeps = 0;
    for seed in 0..1_400u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let procs = rng.gen_range(3..21);
        let eps = rng.gen_range(0..3usize).min(procs - 1);
        let alg = Algorithm::ALL[seed as usize % Algorithm::ALL.len()];
        let inst = make_instance(seed, procs, rng.gen_range(10..80), rng.gen_range(0.2..2.0));
        let sched = schedule(&inst, eps, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let star = sched.latency_lower_bound();
        for probe in 0..75 {
            let crashes = rng.gen_range(0..eps + 2).min(procs);
            let floors: Option<Vec<f64>> =
                (probe % 3 == 2).then(|| (0..procs).map(|_| rng.gen_range(0.0..star)).collect());
            let (scen, strict) = if probe % 4 == 3 {
                let victims = time_zero_scenario(&mut rng, procs, crashes.max(1));
                let at = victims
                    .iter()
                    .map(|(p, _)| (p, rng.gen_range(0.0..1.2 * star)))
                    .collect();
                (FailureScenario::new(at), true)
            } else {
                (
                    time_zero_scenario(&mut rng, procs, crashes),
                    rng.gen_bool(0.5),
                )
            };
            let pass = check(
                &inst,
                &sched,
                &scen,
                policy(strict),
                floors.as_deref(),
                &mut ws,
                &mut oracle,
            )
            .unwrap_or_else(|e| panic!("seed {seed} probe {probe} {alg:?} ε={eps}: {e}"));
            most_sweeps = most_sweeps.max(pass.map_or(0, |p| p.0));
            replays += 1;
        }
    }
    assert!(replays >= 100_000, "{replays} replays");
    eprintln!("{replays} replays, at most {most_sweeps} sweeps");
}
