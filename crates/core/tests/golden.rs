//! Golden bit-identity tests for the four paper algorithms.
//!
//! The snapshots under `tests/golden/` were generated from the *seed*
//! implementations (the pre-pipeline `ftsa.rs` / `mc_ftsa.rs` /
//! `ftbar.rs` loops) and pin every replica's processor and the raw IEEE
//! bits of all four timeline values, the schedule order, and the matched
//! communication pairs. The unified [`ftsched_core::pipeline`] must
//! reproduce them byte for byte: the refactor is a pure reorganization
//! of the same floating-point expressions and the same RNG stream.
//!
//! Regenerating (only legitimate when an *intentional* semantic change
//! lands, never to paper over a drift):
//!
//! ```text
//! FTSCHED_BLESS=1 cargo test -p ftsched-core --test golden
//! ```

use ftsched_core::{schedule, Algorithm, CommSelection, Schedule};
use platform::gen::{paper_instance, PaperInstanceConfig};
use platform::{ExecutionMatrix, Instance, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use taskgraph::{DagBuilder, TaskId};

/// Bit-exact textual digest of a schedule: hex `f64::to_bits` for every
/// timeline value, so no decimal formatting can hide a drift.
fn digest(sched: &Schedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "epsilon {}", sched.epsilon);
    let order: Vec<String> = sched
        .schedule_order
        .iter()
        .map(|t| t.index().to_string())
        .collect();
    let _ = writeln!(out, "order {}", order.join(" "));
    for (ti, reps) in sched.tasks_replicas().enumerate() {
        for (k, r) in reps.iter().enumerate() {
            let _ = writeln!(
                out,
                "t{ti} r{k} p{} {:016x} {:016x} {:016x} {:016x}",
                r.proc.index(),
                r.start_lb.to_bits(),
                r.finish_lb.to_bits(),
                r.start_ub.to_bits(),
                r.finish_ub.to_bits(),
            );
        }
    }
    match &sched.comm {
        CommSelection::AllToAll => {
            let _ = writeln!(out, "comm all-to-all");
        }
        CommSelection::Matched(m) => {
            for (eid, pairs) in m.chunks(sched.epsilon + 1).enumerate() {
                let ps: Vec<String> = pairs.iter().map(|&(s, d)| format!("{s}>{d}")).collect();
                let _ = writeln!(out, "comm e{eid} {}", ps.join(" "));
            }
        }
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Fixed-shape diamond on a deterministic heterogeneous 5-proc platform.
fn diamond_instance() -> Instance {
    let mut b = DagBuilder::new();
    let t: Vec<TaskId> = (0..6).map(|i| b.add_task(10.0 + i as f64)).collect();
    b.add_edge(t[0], t[1], 5.0);
    b.add_edge(t[0], t[2], 7.0);
    b.add_edge(t[1], t[3], 5.0);
    b.add_edge(t[2], t[3], 3.0);
    b.add_edge(t[3], t[4], 11.0);
    b.add_edge(t[3], t[5], 2.0);
    let dag = b.build().unwrap();
    let plat = Platform::uniform_delay(5, 0.7);
    let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.5, 2.0, 0.5, 3.0]);
    Instance::new(dag, plat, exec)
}

/// The paper-style random layered instance used by the figures.
fn paper_seed_instance() -> Instance {
    let mut r = StdRng::seed_from_u64(0x601D);
    paper_instance(&mut r, &PaperInstanceConfig::default())
}

fn check(name: &str, inst: &Instance, eps: usize, alg: Algorithm, tie_seed: u64) {
    let mut rng = StdRng::seed_from_u64(tie_seed);
    let sched = schedule(inst, eps, alg, &mut rng).expect("schedulable");
    let got = digest(&sched);
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("FTSCHED_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with FTSCHED_BLESS=1)", name));
    assert_eq!(
        got, want,
        "schedule digest for {name} drifted from the seed implementation"
    );
}

#[test]
fn paper_algorithms_bit_identical_to_seed() {
    let diamond = diamond_instance();
    let paper = paper_seed_instance();
    for alg in [
        Algorithm::Ftsa,
        Algorithm::McFtsaGreedy,
        Algorithm::McFtsaBottleneck,
        Algorithm::Ftbar,
    ] {
        let key = match alg {
            Algorithm::Ftsa => "ftsa",
            Algorithm::McFtsaGreedy => "mc-ftsa",
            Algorithm::McFtsaBottleneck => "mc-ftsa-bn",
            Algorithm::Ftbar => "ftbar",
            _ => unreachable!("only the four paper algorithms are pinned"),
        };
        for eps in [0usize, 1, 2] {
            check(
                &format!("diamond_{key}_eps{eps}"),
                &diamond,
                eps,
                alg,
                0xD1A_0000 + eps as u64,
            );
            check(
                &format!("paper_{key}_eps{eps}"),
                &paper,
                eps,
                alg,
                0x9A9E_0000 + eps as u64,
            );
        }
    }
}
