//! The paper's Section 7 future work, in action: (1) how reliable is a
//! replicated schedule when *every* processor can fail probabilistically,
//! and (2) what do the replicated messages cost once network ports
//! serialize transfers?
//!
//! Run with: `cargo run --release -p ftsched --example reliability_and_contention`

use ftsched::prelude::*;
use ftsched::simulator::reliability::survival_probability_monte_carlo_par;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let procs = 10usize;
    let mut rng = StdRng::seed_from_u64(2718);
    let inst = paper_instance(
        &mut rng,
        &PaperInstanceConfig {
            procs,
            granularity: 0.5,
            ..Default::default()
        },
    );
    println!(
        "instance: {} tasks, {} edges, {} processors (communication-heavy, g = 0.5)\n",
        inst.num_tasks(),
        inst.dag.num_edges(),
        procs
    );

    // --- reliability ------------------------------------------------------
    println!("survival probability under iid processor failure probability p:");
    println!(
        "{:>4} {:>8} {:>12} {:>12} {:>22}",
        "ε", "p", "exact", "monte-carlo", "guaranteed P(≤ε fail)"
    );
    for eps in [1usize, 2] {
        let sched = schedule(&inst, eps, Algorithm::Ftsa, &mut rng).unwrap();
        for p in [0.05, 0.2] {
            let exact = survival_probability_exact(&inst, &sched, p);
            let mc = survival_probability_monte_carlo_par(
                &inst,
                &sched,
                p,
                5_000,
                eps as u64 * 100 + (p * 100.0) as u64,
                2,
            );
            println!(
                "{eps:>4} {p:>8.2} {exact:>12.5} {:>12.5} {:>22.5}",
                mc.survival,
                design_point_probability(procs, eps, p)
            );
        }
    }

    // --- contention -------------------------------------------------------
    println!("\none-port vs unbounded network, fault-free latency:");
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>10}",
        "algorithm", "unbounded", "one-port", "penalty", "transfers"
    );
    for (alg, eps) in [(Algorithm::Ftsa, 2usize), (Algorithm::McFtsaGreedy, 2)] {
        let sched = schedule(&inst, eps, alg, &mut StdRng::seed_from_u64(5)).unwrap();
        let unb = simulate_contention(
            &inst,
            &sched,
            &FailureScenario::none(),
            PortModel::Unbounded,
        );
        let one = simulate_contention(&inst, &sched, &FailureScenario::none(), PortModel::OnePort);
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>8.2}x {:>10}",
            alg.name(),
            unb.latency,
            one.latency,
            one.latency / unb.latency,
            one.transfers
        );
    }
    println!(
        "\nMC-FTSA's e(ε+1) messages queue far less than FTSA's e(ε+1)² — the\n\
         paper's Section 7 prediction, quantified."
    );
}
