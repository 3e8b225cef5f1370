//! Streaming DAG arrivals on a shared, persistently occupied platform.
//!
//! The offline experiments schedule one DAG on an empty platform. This
//! driver models the online scenario family: task graphs arrive over
//! time (Poisson or trace-driven, [`ArrivalProcess`]) onto processors
//! that still carry earlier work, and failures consume replicas
//! mid-stream.
//!
//! # Two floor vectors
//!
//! The driver threads **two** vectors of per-processor release floors
//! (the earliest time new work may start on each processor) through the
//! stream:
//!
//! * **planned** — raised past each schedule's optimistic replica spans
//!   (`start_lb..finish_lb`); it seeds the *next* DAG's
//!   [`ftsched_core::schedule_onto`] call. The scheduler plans against
//!   what it promised, not against what failures later did — it has no
//!   failure oracle.
//! * **actual** — raised past the *simulated* spans under the failure
//!   scenario; it seeds each DAG's crash replay
//!   ([`crate::crash::simulate_outcome_from_into`]), so real execution
//!   on a processor is serialized across DAGs.
//!
//! Both are raised to each DAG's arrival instant: nothing can run on a
//! DAG's behalf before it arrives. A floor never falls within a stream,
//! and spans are folded in per processor in queue order, so each starts
//! at or past its processor's floor.
//!
//! # Determinism and conservation
//!
//! DAG `i`'s tie-break RNG derives from
//! [`crate::replication_seed`]`(seed, i)`, so a stream is bit-identical
//! across reruns and thread counts. A single DAG arriving at `t = 0`
//! on an empty stream reduces exactly to the offline
//! `schedule_into` + `simulate_outcome_into` pair — the release-floor
//! contract pinned by the core and simulator test suites.
//!
//! # Zero-allocation steady state
//!
//! All per-arrival state lives in a [`StreamWorkspace`]; after a warm-up
//! pass over a stream shape, re-running the stream performs no heap
//! allocation (pinned by the root `tests/alloc_counter.rs` suite).

use crate::crash::{self, CrashWorkspace, FallbackPolicy};
use ftsched_core::{Algorithm, ScheduleError, ScheduleWorkspace};
use platform::{FailureScenario, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Poisson arrivals: `count` DAGs with exponential inter-arrival times
/// of rate `rate` (mean gap `1/rate`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonArrivals {
    /// Arrival rate λ (> 0): expected DAGs per unit time.
    pub rate: f64,
    /// Number of DAGs in the stream.
    pub count: usize,
}

/// Trace-driven arrivals: explicit absolute arrival instants
/// (non-decreasing, finite, ≥ 0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceArrivals {
    /// Absolute arrival times, one per DAG.
    pub times: Vec<f64>,
}

/// The arrival process of a DAG stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a fixed rate.
    Poisson(PoissonArrivals),
    /// Replay of recorded arrival instants.
    Trace(TraceArrivals),
}

impl ArrivalProcess {
    /// Number of DAGs the process emits.
    pub fn count(&self) -> usize {
        match self {
            ArrivalProcess::Poisson(p) => p.count,
            ArrivalProcess::Trace(t) => t.times.len(),
        }
    }

    /// Samples the absolute, non-decreasing arrival instants into `out`
    /// (cleared first). Poisson draws consume exactly one `f64` per
    /// arrival from `rng`; traces copy verbatim and consume none.
    pub fn sample_into(&self, rng: &mut StdRng, out: &mut Vec<f64>) {
        out.clear();
        match self {
            ArrivalProcess::Poisson(p) => {
                assert!(
                    p.rate > 0.0 && p.rate.is_finite(),
                    "Poisson rate must be > 0"
                );
                let mut t = 0.0;
                for _ in 0..p.count {
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).ln() / p.rate;
                    out.push(t);
                }
            }
            ArrivalProcess::Trace(tr) => {
                let mut prev = 0.0;
                for &t in &tr.times {
                    assert!(
                        t.is_finite() && t >= prev,
                        "trace arrivals must be finite, >= 0 and non-decreasing"
                    );
                    prev = t;
                }
                out.extend_from_slice(&tr.times);
            }
        }
    }
}

/// Per-DAG result of one stream run. All times are on the stream's
/// absolute clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagOutcome {
    /// When the DAG arrived.
    pub arrival: f64,
    /// Earliest simulated replica start (`INFINITY` if nothing ran).
    pub first_start: f64,
    /// Simulated application finish (`INFINITY` when a task lost every
    /// replica).
    pub finish: f64,
    /// The schedule's optimistic finish `M*` (absolute — includes the
    /// wait behind earlier planned work).
    pub planned_finish: f64,
    /// Whether every task completed at least one replica.
    pub completed: bool,
}

impl DagOutcome {
    /// Sojourn time in the system: finish − arrival.
    pub fn response_time(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Queueing delay before the first replica ran: first start −
    /// arrival.
    pub fn wait_time(&self) -> f64 {
        self.first_start - self.arrival
    }

    /// Pure execution latency once started: finish − first start.
    pub fn latency(&self) -> f64 {
        self.finish - self.first_start
    }
}

/// Reusable state for a whole stream run; see the [module docs](self).
#[derive(Debug, Default)]
pub struct StreamWorkspace {
    sched_ws: ScheduleWorkspace,
    crash_ws: CrashWorkspace,
    planned: Vec<f64>,
    actual: Vec<f64>,
}

impl StreamWorkspace {
    /// Creates an empty workspace; buffers are sized by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, m: usize) {
        for floors in [&mut self.planned, &mut self.actual] {
            floors.clear();
            floors.resize(m, 0.0);
        }
    }
}

/// Raises processor `j`'s release floor past the busy span
/// `[start, end)`. Spans come in order on each processor: `start` must
/// be at or after the floor (up to a small numerical slack).
pub(crate) fn occupy(floors: &mut [f64], j: usize, start: f64, end: f64) {
    debug_assert!(
        start >= floors[j] - 1e-9,
        "busy span out of order on P{j}: start {start} < floor {}",
        floors[j]
    );
    assert!(
        end >= start && start.is_finite() && end.is_finite(),
        "busy span must be finite with end >= start"
    );
    if end > floors[j] {
        floors[j] = end;
    }
}

/// Runs a whole DAG stream: for each `(instance, arrival)` pair in
/// arrival order, schedules onto the planned floors, simulates the
/// schedule from the actual floors under `scenario` (failure
/// times on the absolute stream clock), and folds both outcomes
/// forward. One `DagOutcome` per DAG is pushed to `out` (cleared
/// first). `policy` governs matched (MC-FTSA) delivery under failures:
/// `Rerouted` is only defined when every failure time is `0.0`
/// (processors dead for the whole stream); positive-time scenarios must
/// use `Strict` — under which a matched schedule can genuinely lose a
/// DAG mid-stream (`completed == false`, infinite `finish`).
///
/// All instances must share the processor count; arrivals must be
/// non-decreasing. DAG `i`'s tie-break RNG is
/// [`crate::replication_seed`]`(seed, i)` — independent of every other
/// DAG, so streams are reproducible and extendable.
#[allow(clippy::too_many_arguments)]
pub fn run_stream_into(
    insts: &[Instance],
    arrivals: &[f64],
    epsilon: usize,
    algorithm: Algorithm,
    scenario: &FailureScenario,
    policy: FallbackPolicy,
    seed: u64,
    ws: &mut StreamWorkspace,
    out: &mut Vec<DagOutcome>,
) -> Result<(), ScheduleError> {
    assert_eq!(
        insts.len(),
        arrivals.len(),
        "one arrival instant per instance"
    );
    out.clear();
    out.reserve(insts.len());
    let m = insts.first().map_or(0, Instance::num_procs);
    ws.reset(m);

    for (i, (inst, &arrival)) in insts.iter().zip(arrivals).enumerate() {
        assert_eq!(
            inst.num_procs(),
            m,
            "stream instances must share the platform"
        );
        debug_assert!(arrival >= 0.0 && arrival.is_finite());
        // Nothing on this DAG's behalf may run before it arrives.
        for floor in ws.planned.iter_mut().chain(&mut ws.actual) {
            if *floor < arrival {
                *floor = arrival;
            }
        }

        let mut rng = StdRng::seed_from_u64(crate::replication_seed(seed, i as u64));
        let sched = ftsched_core::schedule_onto(
            inst,
            epsilon,
            algorithm,
            &mut rng,
            &ws.planned,
            &mut ws.sched_ws,
        )?;

        // Commit the planned spans: per processor in placement order,
        // so every span starts at or past its processor's floor.
        for j in 0..m {
            for &(t, k) in sched.proc_order(j) {
                let r = sched.replicas_of(t)[k as usize];
                occupy(&mut ws.planned, j, r.start_lb, r.finish_lb);
            }
        }
        let planned_finish = sched.latency_lower_bound();

        let outcome = crash::simulate_outcome_from_into(
            inst,
            sched,
            scenario,
            policy,
            &ws.actual,
            &mut ws.crash_ws,
        );
        let first_start = ws.crash_ws.fold_busy_into(sched, &mut ws.actual);

        out.push(DagOutcome {
            arrival,
            first_start,
            finish: outcome.latency,
            planned_finish,
            completed: outcome.completed(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::simulate_outcome_into;
    use ftsched_core::bounds::critical_path_bound;
    use ftsched_core::schedule_into;
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::ProcId;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn small_instances(n: usize, procs: usize, seed: u64) -> Vec<Instance> {
        let mut r = rng(seed);
        (0..n)
            .map(|_| {
                paper_instance(
                    &mut r,
                    &PaperInstanceConfig {
                        tasks_lo: 20,
                        tasks_hi: 25,
                        procs,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn poisson_arrivals_are_increasing_and_deterministic() {
        let p = ArrivalProcess::Poisson(PoissonArrivals {
            rate: 0.5,
            count: 20,
        });
        assert_eq!(p.count(), 20);
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.sample_into(&mut rng(7), &mut a);
        p.sample_into(&mut rng(7), &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let mut prev = 0.0;
        for &t in &a {
            assert!(t > prev && t.is_finite());
            prev = t;
        }
    }

    #[test]
    fn trace_arrivals_copy_verbatim() {
        let p = ArrivalProcess::Trace(TraceArrivals {
            times: vec![0.0, 1.5, 1.5, 9.0],
        });
        let mut out = Vec::new();
        p.sample_into(&mut rng(1), &mut out);
        assert_eq!(out, vec![0.0, 1.5, 1.5, 9.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn trace_rejects_decreasing_times() {
        let p = ArrivalProcess::Trace(TraceArrivals {
            times: vec![2.0, 1.0],
        });
        p.sample_into(&mut rng(1), &mut Vec::new());
    }

    #[test]
    fn single_dag_stream_reduces_to_offline_pair() {
        // One DAG at t = 0, no failures: the stream outcome must be
        // bit-identical to schedule_into + simulate_outcome_into.
        let insts = small_instances(1, 8, 11);
        let mut ws = StreamWorkspace::new();
        let mut out = Vec::new();
        for alg in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
            run_stream_into(
                &insts,
                &[0.0],
                1,
                alg,
                &FailureScenario::none(),
                FallbackPolicy::Strict,
                0xABCD,
                &mut ws,
                &mut out,
            )
            .unwrap();
            let mut sws = ScheduleWorkspace::new();
            let mut seed_rng = StdRng::seed_from_u64(crate::replication_seed(0xABCD, 0));
            let sched = schedule_into(&insts[0], 1, alg, &mut seed_rng, &mut sws).unwrap();
            let mut cws = CrashWorkspace::new();
            let offline = simulate_outcome_into(
                &insts[0],
                sched,
                &FailureScenario::none(),
                FallbackPolicy::Strict,
                &mut cws,
            );
            assert_eq!(out.len(), 1);
            assert!(out[0].completed);
            assert_eq!(
                out[0].finish.to_bits(),
                offline.latency.to_bits(),
                "{alg:?}"
            );
            assert_eq!(
                out[0].planned_finish.to_bits(),
                sched.latency_lower_bound().to_bits()
            );
        }
    }

    #[test]
    fn stream_outcomes_respect_arrivals_and_complete() {
        let insts = small_instances(6, 8, 21);
        let arrivals: Vec<f64> = (0..6).map(|i| i as f64 * 10.0).collect();
        let mut ws = StreamWorkspace::new();
        let mut out = Vec::new();
        run_stream_into(
            &insts,
            &arrivals,
            1,
            Algorithm::Ftsa,
            &FailureScenario::none(),
            FallbackPolicy::Strict,
            0xFEED,
            &mut ws,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 6);
        for o in &out {
            assert!(o.completed);
            assert!(o.first_start >= o.arrival - 1e-9, "ran before arrival");
            assert!(o.finish >= o.first_start);
            assert!(o.wait_time() >= -1e-9);
            assert!(o.response_time() >= o.latency() - 1e-9);
        }
    }

    #[test]
    fn congestion_increases_waiting() {
        // The same 4 DAGs arriving all at t=0 versus far apart: the
        // all-at-once stream must wait at least as much in total.
        let insts = small_instances(4, 4, 33);
        let mut ws = StreamWorkspace::new();
        let (mut burst, mut spaced) = (Vec::new(), Vec::new());
        run_stream_into(
            &insts,
            &[0.0; 4],
            1,
            Algorithm::Ftsa,
            &FailureScenario::none(),
            FallbackPolicy::Strict,
            5,
            &mut ws,
            &mut burst,
        )
        .unwrap();
        run_stream_into(
            &insts,
            &[0.0, 1e4, 2e4, 3e4],
            1,
            Algorithm::Ftsa,
            &FailureScenario::none(),
            FallbackPolicy::Strict,
            5,
            &mut ws,
            &mut spaced,
        )
        .unwrap();
        let wait = |v: &[DagOutcome]| v.iter().map(DagOutcome::wait_time).sum::<f64>();
        assert!(wait(&burst) >= wait(&spaced) - 1e-9);
        // Far-apart arrivals see an effectively empty platform.
        for o in &spaced {
            assert!(o.wait_time() < 1e4, "spaced arrivals should not queue");
        }
    }

    #[test]
    fn mid_stream_failure_kills_later_dags_only() {
        // One processor fails deep into the stream: earlier DAGs keep
        // their fault-free latency; with eps = 1 every DAG still
        // completes (strict all-to-all replication).
        let insts = small_instances(4, 6, 44);
        let arrivals = [0.0, 500.0, 1000.0, 1500.0];
        let mut ws = StreamWorkspace::new();
        let (mut clean, mut failed) = (Vec::new(), Vec::new());
        run_stream_into(
            &insts,
            &arrivals,
            1,
            Algorithm::Ftsa,
            &FailureScenario::none(),
            FallbackPolicy::Strict,
            9,
            &mut ws,
            &mut clean,
        )
        .unwrap();
        // Crash strictly after DAG 0 completes but (comfortably) before
        // the stream drains, so the failure is genuinely mid-stream.
        let t_fail = clean[0].finish + 1.0;
        assert!(t_fail < clean.last().unwrap().finish);
        let scen = FailureScenario::new(vec![(ProcId(0), t_fail)]);
        run_stream_into(
            &insts,
            &arrivals,
            1,
            Algorithm::Ftsa,
            &scen,
            FallbackPolicy::Strict,
            9,
            &mut ws,
            &mut failed,
        )
        .unwrap();
        assert_eq!(clean.len(), failed.len());
        // DAG 0 finished before the crash — identical outcome.
        assert_eq!(clean[0].finish.to_bits(), failed[0].finish.to_bits());
        // Every DAG completes despite the crash (ε = 1 replication).
        for o in &failed {
            assert!(o.completed, "eps=1 must survive a single crash");
        }
    }

    #[test]
    fn stream_is_rerun_stable() {
        let insts = small_instances(5, 8, 55);
        let p = ArrivalProcess::Poisson(PoissonArrivals {
            rate: 0.05,
            count: 5,
        });
        let mut arrivals = Vec::new();
        p.sample_into(&mut rng(3), &mut arrivals);
        let mut ws = StreamWorkspace::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let scen = FailureScenario::new(vec![(ProcId(2), 40.0)]);
        run_stream_into(
            &insts,
            &arrivals,
            2,
            Algorithm::McFtsaGreedy,
            &scen,
            FallbackPolicy::Strict,
            77,
            &mut ws,
            &mut a,
        )
        .unwrap();
        let mut ws2 = StreamWorkspace::new();
        run_stream_into(
            &insts,
            &arrivals,
            2,
            Algorithm::McFtsaGreedy,
            &scen,
            FallbackPolicy::Strict,
            77,
            &mut ws2,
            &mut b,
        )
        .unwrap();
        assert_eq!(a, b);
        // And reusing the same workspace is also stable.
        run_stream_into(
            &insts,
            &arrivals,
            2,
            Algorithm::McFtsaGreedy,
            &scen,
            FallbackPolicy::Strict,
            77,
            &mut ws,
            &mut b,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn occupy_raises_floors_past_spans_in_order() {
        let mut floors = [0.0; 2];
        occupy(&mut floors, 0, 0.0, 2.0);
        occupy(&mut floors, 0, 2.5, 4.0);
        occupy(&mut floors, 1, 1.0, 3.0);
        assert_eq!(floors, [4.0, 3.0]);
        // A zero-length span still raises the floor to its start.
        occupy(&mut floors, 1, 5.0, 5.0);
        assert_eq!(floors, [4.0, 5.0]);
        // A span starting before the floor would overlap the last one.
        if cfg!(debug_assertions) {
            let overlapping = std::panic::catch_unwind(move || occupy(&mut floors, 0, 3.0, 5.0));
            assert!(overlapping.is_err(), "out-of-order span accepted");
        }
        let inverted = std::panic::catch_unwind(|| occupy(&mut [0.0], 0, 2.0, 1.0));
        assert!(inverted.is_err(), "inverted span accepted");
        let infinite = std::panic::catch_unwind(|| occupy(&mut [0.0], 0, 1.0, f64::INFINITY));
        assert!(infinite.is_err(), "infinite span accepted");
    }

    #[test]
    fn floors_cover_the_last_arrival_and_every_simulated_span() {
        // After a stream, no floor lies before the last arrival, and the
        // actual floors reach the last simulated finish; a rerun on the
        // same workspace starts from zero floors and ends the same.
        let insts = small_instances(4, 6, 77);
        let arrivals = [0.0, 5.0, 5.0, 40.0];
        let run = |ws: &mut StreamWorkspace| {
            let mut out = Vec::new();
            run_stream_into(
                &insts,
                &arrivals,
                1,
                Algorithm::Ftsa,
                &FailureScenario::none(),
                FallbackPolicy::Strict,
                3,
                ws,
                &mut out,
            )
            .unwrap();
            (ws.planned.clone(), ws.actual.clone(), out)
        };
        let mut ws = StreamWorkspace::new();
        let first = run(&mut ws);
        let (planned, actual, out) = &first;
        assert!(planned.iter().chain(actual).all(|&f| f >= 40.0));
        let latest = actual.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(out.iter().all(|o| o.finish <= latest), "{actual:?}");
        assert_eq!(run(&mut ws), first);
    }

    #[test]
    fn isolated_bound_is_a_true_lower_bound() {
        let insts = small_instances(3, 8, 66);
        let mut scratch = Vec::new();
        for inst in &insts {
            let bound = critical_path_bound(inst, &mut scratch);
            assert!(bound > 0.0);
            let mut ws = ScheduleWorkspace::new();
            let s = schedule_into(inst, 1, Algorithm::Ftsa, &mut rng(1), &mut ws).unwrap();
            assert!(
                s.latency_lower_bound() >= bound - 1e-9,
                "no schedule can beat the free-communication critical path"
            );
        }
    }
}
