//! Contention-aware execution: the bounded multi-port and one-port
//! communication models of the paper's future work (Section 7).
//!
//! The base model charges every message only its link latency
//! `V · d(P_k, P_h)`, with unlimited concurrency. Real network cards
//! serialize: under the **one-port** model a processor drives at most one
//! outgoing transfer at a time; under the **bounded multi-port** model at
//! most `k` concurrent transfers. The paper predicts: "With these models,
//! we expect MC-FTSA to be superior to other scheduling algorithms, since
//! it already accounts for reduced communications" — FTSA's `e(ε+1)²`
//! messages fight for ports, MC-FTSA's `e(ε+1)` do not.
//!
//! The replay runs on the event loop of [`crate::crash::CrashWorkspace`]
//! with sender ports of the model's capacity. Bounded ports make the
//! event order matter, which is why this model keeps the loop while
//! crash replays run the static pass; the
//! [crash module docs](crate::crash) give the event order, which decides
//! which queued transfer gets a free port first. Model details
//! (documented simplifications):
//!
//! * Contention is applied on the *sender* side only; receivers accept
//!   any number of concurrent incoming transfers. (The symmetric
//!   receiver-side port would need a global transfer schedule; the
//!   sender-side model already exhibits the serialization effect the
//!   paper anticipates.)
//! * A transfer occupies the sender's port for its whole duration
//!   `V · d(src, dst)`; intra-processor deliveries bypass the port.
//! * Pending transfers leave the port in FIFO order of their enqueue
//!   time (ties: insertion order), which keeps runs deterministic.
//! * Failure scenarios are fail-at-time-zero (the paper's experimental
//!   model); matched communications use the rerouted delivery policy of
//!   [`crate::crash`], under which a receiver with no matched sender on
//!   an edge is fed by any live sender.

use crate::crash::{CrashWorkspace, FallbackPolicy};
use ftsched_core::Schedule;
use platform::{FailureScenario, Instance};

/// How many concurrent outgoing transfers a processor may drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortModel {
    /// Unlimited concurrency — the paper's base model; matches
    /// [`crate::crash::simulate`] bit for bit.
    Unbounded,
    /// At most one outgoing transfer at a time.
    OnePort,
    /// At most `k ≥ 1` concurrent outgoing transfers.
    BoundedMultiPort(usize),
}

impl PortModel {
    fn capacity(self) -> usize {
        match self {
            PortModel::Unbounded => usize::MAX,
            PortModel::OnePort => 1,
            PortModel::BoundedMultiPort(k) => {
                assert!(k >= 1, "multi-port capacity must be >= 1");
                k
            }
        }
    }
}

/// Result of a contention-aware simulation.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Achieved latency (`f64::INFINITY` if a task lost every replica).
    pub latency: f64,
    /// Whether every task completed at least one replica.
    pub completed: bool,
    /// Total number of port-serialized transfers.
    pub transfers: usize,
    /// Total time transfers spent *queued* behind busy ports (a direct
    /// measure of contention).
    pub queueing_delay: f64,
}

/// Simulates `sched` under `scenario` with sender-side port contention.
///
/// With [`PortModel::Unbounded`] this is the event loop the static pass
/// of [`crate::crash::simulate`] is tested against, so the latencies are
/// equal bit for bit. Builds a throwaway workspace; batch callers should
/// hold one and use [`simulate_contention_into`].
pub fn simulate_contention(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    ports: PortModel,
) -> ContentionResult {
    simulate_contention_into(inst, sched, scenario, ports, &mut CrashWorkspace::new())
}

/// [`simulate_contention`] reusing the caller's workspace — allocation-free
/// once the workspace is warm.
pub fn simulate_contention_into(
    inst: &Instance,
    sched: &Schedule,
    scenario: &FailureScenario,
    ports: PortModel,
    ws: &mut CrashWorkspace,
) -> ContentionResult {
    assert!(
        scenario.iter().all(|(_, t)| t == 0.0),
        "contention simulation supports fail-at-time-zero scenarios only"
    );
    ws.prepare(inst, sched, FallbackPolicy::Rerouted);
    ws.run_event_loop(inst, sched, scenario, None, ports.capacity());
    let out = ws.outcome(inst);
    ContentionResult {
        latency: out.latency,
        completed: out.completed(),
        transfers: ws.transfers,
        queueing_delay: ws.queueing_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::simulate;
    use ftsched_core::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use platform::ProcId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(seed: u64) -> Instance {
        let mut r = StdRng::seed_from_u64(seed);
        paper_instance(&mut r, &PaperInstanceConfig::default())
    }

    #[test]
    fn unbounded_matches_base_engine() {
        for seed in 0..3u64 {
            let inst = instance(seed);
            for alg in Algorithm::ALL {
                let s = schedule(&inst, 2, alg, &mut StdRng::seed_from_u64(seed)).unwrap();
                let base = simulate(&inst, &s, &FailureScenario::none());
                let cont =
                    simulate_contention(&inst, &s, &FailureScenario::none(), PortModel::Unbounded);
                assert!(
                    (base.latency - cont.latency).abs() < 1e-9,
                    "{alg:?} seed {seed}: {} vs {}",
                    base.latency,
                    cont.latency
                );
                assert!(cont.completed);
                assert_eq!(cont.queueing_delay, 0.0);
            }
        }
    }

    #[test]
    fn one_port_can_only_slow_things_down() {
        for seed in 0..3u64 {
            let inst = instance(seed + 10);
            let s = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(seed)).unwrap();
            let unb =
                simulate_contention(&inst, &s, &FailureScenario::none(), PortModel::Unbounded);
            let one = simulate_contention(&inst, &s, &FailureScenario::none(), PortModel::OnePort);
            assert!(one.latency >= unb.latency - 1e-9);
            assert!(one.completed);
        }
    }

    #[test]
    fn capacity_is_monotone() {
        let inst = instance(30);
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 64] {
            let r = simulate_contention(
                &inst,
                &s,
                &FailureScenario::none(),
                PortModel::BoundedMultiPort(k),
            );
            assert!(
                r.latency <= last + 1e-9,
                "more ports must not increase latency (k={k})"
            );
            last = r.latency;
        }
    }

    #[test]
    fn mc_ftsa_suffers_less_contention_than_ftsa() {
        // The paper's Section 7 prediction, quantified: under one-port,
        // MC-FTSA's e(ε+1) messages queue less than FTSA's e(ε+1)².
        let mut ftsa_penalty = 0.0;
        let mut mc_penalty = 0.0;
        for seed in 0..5u64 {
            let inst = instance(seed + 60);
            let f = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mc = schedule(
                &inst,
                2,
                Algorithm::McFtsaGreedy,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            let pen = |s: &ftsched_core::Schedule| {
                let unb =
                    simulate_contention(&inst, s, &FailureScenario::none(), PortModel::Unbounded);
                let one =
                    simulate_contention(&inst, s, &FailureScenario::none(), PortModel::OnePort);
                one.latency / unb.latency
            };
            ftsa_penalty += pen(&f);
            mc_penalty += pen(&mc);
        }
        assert!(
            mc_penalty < ftsa_penalty,
            "MC-FTSA should pay a smaller one-port penalty \
             (MC {mc_penalty:.3} vs FTSA {ftsa_penalty:.3})"
        );
    }

    #[test]
    fn transfers_counted_and_failures_handled() {
        let inst = instance(90);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(2)).unwrap();
        let scen = FailureScenario::at_time_zero([ProcId(0)]);
        let r = simulate_contention(&inst, &s, &scen, PortModel::OnePort);
        assert!(r.completed);
        assert!(r.transfers > 0);
        assert!(r.latency.is_finite());
    }

    #[test]
    #[should_panic]
    fn rejects_timed_failures() {
        let inst = instance(91);
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(3)).unwrap();
        let scen = FailureScenario::new(vec![(ProcId(0), 5.0)]);
        let _ = simulate_contention(&inst, &s, &scen, PortModel::OnePort);
    }
}
