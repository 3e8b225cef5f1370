//! Discrete-event crash-execution simulator.
//!
//! The paper's Section 6 evaluates schedules "when processors crash down
//! by computing the real execution time for a given schedule rather than
//! just bounds". The authors' evaluation harness is not public; this
//! crate rebuilds it as a discrete-event simulator implementing exactly
//! the execution semantics the paper's proofs rely on:
//!
//! * **Fail-silent / fail-stop processors** — a failed processor computes
//!   and sends nothing from its failure time onwards. A replica that
//!   finishes strictly before the failure still delivers its messages.
//! * **Active replication, first-input-wins** — "as soon as it receives
//!   the first input data, the task is executed and ignores later
//!   incoming data" (proof of Proposition 4.2).
//! * **In-order processors** — each processor executes its planned
//!   replica sequence non-preemptively, skipping replicas that are dead
//!   (placed on a failed processor, or starved because every potential
//!   sender of some input died).
//!
//! Beyond single-schedule replay, [`streaming`] drives whole **DAG
//! streams** on a shared platform: arrivals (Poisson or trace-driven)
//! schedule onto the persistent [`platform::OccupancyTimeline`] left by
//! earlier DAGs, failures strike mid-stream on the absolute clock, and
//! an empty occupancy reduces every step bit-for-bit to the offline
//! single-DAG pair.
//!
//! One engine replays every schedule: the event loop of
//! [`crash::CrashWorkspace`] ([`crash::simulate`] and its `_into`
//! forms). It covers mid-execution failures, release floors, FTBAR's
//! late duplicates and sender ports, and it serves the Monte-Carlo crash
//! and reliability drivers, the campaign and streaming drivers, and the
//! port-contention model ([`contention::simulate_contention`], the same
//! loop with one or `k` slots per sender port). Its crash outputs do not
//! depend on the order of equal-time events: every one is a min over
//! arrivals, a max over slots and processor release times, or a
//! structural death (the argument is in the [`crash`] module docs).
//! [`replay::replay`], a one-pass analytic replay for fail-at-time-zero
//! scenarios without duplicates, is kept only as the oracle the tests
//! compare the engine against.
//!
//! [`parallel`] holds the workspace's one parallel executor,
//! [`parallel::parallel_map_with`]. The Monte-Carlo drivers
//! ([`crash::simulate_replication_outcomes`] and
//! [`reliability::survival_probability_monte_carlo_par`]) take their
//! worker count as a final `threads` argument and seed replication `i`
//! with [`replication_seed`], so their results are bit-identical at any
//! thread count.
//!
//! Key invariants (covered by the test suites):
//!
//! * `simulate(∅) == M*` for FTSA/MC-FTSA schedules, `≤ M*` for FTBAR
//!   (later duplicates can only improve arrivals);
//! * `M* ≤ simulate(F) ≤ M` for every scenario `F` with at most `ε`
//!   fail-at-zero failures (Proposition 4.2);
//! * every task completes at least one replica under at most `ε`
//!   failures (Theorem 4.1 / Proposition 4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod crash;
pub mod parallel;
pub mod reliability;
pub mod replay;
pub mod streaming;
pub mod trace;

pub use contention::{simulate_contention, simulate_contention_into, ContentionResult, PortModel};
pub use crash::{simulate, SimOutcome, SimResult};
pub use streaming::{
    run_stream_into, ArrivalProcess, DagOutcome, PoissonArrivals, StreamWorkspace, TraceArrivals,
};

/// Derives the RNG seed of Monte-Carlo replication `index` from a base
/// seed (a SplitMix64 finalizer over `base ^ index`). Replications seeded
/// this way are independent of evaluation order, which is what lets the
/// crash and reliability campaigns fan out over threads while returning
/// bit-identical results at any worker count.
pub fn replication_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod seed_tests {
    use super::replication_seed;

    #[test]
    fn replication_seeds_are_stable_and_distinct() {
        let a = replication_seed(42, 0);
        let b = replication_seed(42, 1);
        let c = replication_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, replication_seed(42, 0));
    }
}
