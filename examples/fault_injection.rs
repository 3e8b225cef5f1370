//! Fault-injection campaign: schedule one instance, then sweep *every*
//! possible failure pattern up to ε processors and report the latency
//! distribution — an empirical check of Proposition 4.2's `M* ≤ L ≤ M`.
//!
//! Run with: `cargo run --release -p ftsched --example fault_injection`

use ftsched::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let epsilon = 2usize;
    let procs = 8usize;

    let mut rng = StdRng::seed_from_u64(2024);
    let inst = paper_instance(
        &mut rng,
        &PaperInstanceConfig {
            procs,
            granularity: 1.0,
            ..Default::default()
        },
    );
    let sched = schedule(&inst, epsilon, Algorithm::Ftsa, &mut rng).expect("schedulable");
    let m_star = sched.latency_lower_bound();
    let m_up = sched.latency_upper_bound();
    println!(
        "instance: {} tasks, {} processors, ε = {epsilon}",
        inst.num_tasks(),
        procs
    );
    println!("bounds: M* = {m_star:.1}, M = {m_up:.1}\n");

    // Enumerate all single and double failures.
    let mut latencies = Vec::new();
    let mut worst: (f64, Vec<u32>) = (0.0, vec![]);
    for a in 0..procs as u32 {
        for pattern in std::iter::once(vec![a]).chain(((a + 1)..procs as u32).map(|b| vec![a, b])) {
            let scen = FailureScenario::at_time_zero(pattern.iter().copied().map(ProcId));
            let sim = simulate(&inst, &sched, &scen);
            assert!(sim.completed(), "≤ ε failures must be masked");
            assert!(sim.latency >= m_star - 1e-6 && sim.latency <= m_up + 1e-6);
            if sim.latency > worst.0 {
                worst = (sim.latency, pattern.clone());
            }
            latencies.push(sim.latency);
        }
    }

    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let pct = |q: f64| latencies[((n - 1) as f64 * q) as usize];
    println!("{n} failure patterns simulated (all 1- and 2-subsets)");
    println!(
        "latency min/median/p90/max: {:.1} / {:.1} / {:.1} / {:.1}",
        latencies[0],
        pct(0.5),
        pct(0.9),
        latencies[n - 1]
    );
    println!(
        "worst pattern: processors {:?} → latency {:.1} ({}% of the M guarantee)",
        worst.1,
        worst.0,
        (worst.0 / m_up * 100.0).round()
    );

    // Mid-execution crashes (the extension beyond the paper's t=0 model).
    println!("\nmid-execution crashes of P0 at increasing times:");
    for tau in [0.0, m_star * 0.25, m_star * 0.5, m_star * 0.75] {
        let scen = FailureScenario::new(vec![(ProcId(0), tau)]);
        let sim = simulate(&inst, &sched, &scen);
        println!(
            "  fail(P0 @ {tau:>8.1}) → latency {:.1} ({} replicas lost)",
            sim.latency,
            sim.times.iter().flatten().filter(|t| t.is_none()).count()
        );
    }
}
