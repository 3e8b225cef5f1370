//! `schedule_onto` release-floor contract: all-zero floors are
//! bit-identical to `schedule_into`, and nonzero floors shift every
//! replica into the stream's absolute clock without reordering work.

use ftsched_core::{schedule_into, schedule_onto, Algorithm, ScheduleWorkspace};
use platform::gen::{paper_instance, PaperInstanceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn empty_occupancy_is_bit_identical_to_schedule_into() {
    for seed in 0..3u64 {
        let inst = paper_instance(&mut rng(seed), &PaperInstanceConfig::default());
        let floors = vec![0.0; inst.num_procs()];
        for alg in Algorithm::ALL {
            for eps in [0usize, 1, 2] {
                let mut ws_a = ScheduleWorkspace::new();
                let mut ws_b = ScheduleWorkspace::new();
                let a = schedule_into(&inst, eps, alg, &mut rng(seed + 7), &mut ws_a).unwrap();
                let b =
                    schedule_onto(&inst, eps, alg, &mut rng(seed + 7), &floors, &mut ws_b).unwrap();
                assert_eq!(
                    a.latency_lower_bound().to_bits(),
                    b.latency_lower_bound().to_bits(),
                    "{alg:?} eps={eps} seed={seed}"
                );
                assert_eq!(
                    a.latency_upper_bound().to_bits(),
                    b.latency_upper_bound().to_bits()
                );
                for t in inst.dag.tasks() {
                    let (ra, rb) = (a.replicas_of(t), b.replicas_of(t));
                    assert_eq!(ra.len(), rb.len());
                    for (x, y) in ra.iter().zip(rb) {
                        assert_eq!(x.proc, y.proc);
                        assert_eq!(x.start_lb.to_bits(), y.start_lb.to_bits());
                        assert_eq!(x.finish_lb.to_bits(), y.finish_lb.to_bits());
                        assert_eq!(x.start_ub.to_bits(), y.start_ub.to_bits());
                        assert_eq!(x.finish_ub.to_bits(), y.finish_ub.to_bits());
                    }
                }
            }
        }
    }
}

#[test]
fn advanced_floors_shift_all_starts_past_the_arrival() {
    let inst = paper_instance(&mut rng(42), &PaperInstanceConfig::default());
    let floors = vec![100.0; inst.num_procs()];
    for alg in Algorithm::ALL {
        let mut ws = ScheduleWorkspace::new();
        let s = schedule_onto(&inst, 1, alg, &mut rng(42), &floors, &mut ws).unwrap();
        for t in inst.dag.tasks() {
            for r in s.replicas_of(t) {
                assert!(
                    r.start_lb >= 100.0 - 1e-9,
                    "{alg:?}: replica starts before the release floor"
                );
            }
        }
        assert!(s.latency_lower_bound() >= 100.0);
        ftsched_core::validate::validate(&inst, s).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
    }
}

#[test]
fn per_processor_floors_steer_placement_and_times() {
    // Chain a -> b on two processors: P0 is fast (exec 1.0) but released
    // only at t = 50, P1 is slow (exec 10.0) and free at t = 0. Starting
    // from the floors, both fault-free replicas must wait for P0 anyway
    // (50 + 1 + 1 = 52 beats 10 + 10 = 20? no — 20 < 52, so the chain
    // runs on slow-but-free P1 instead). The floor changes the winning
    // processor, which is exactly the occupancy-aware eq. (1) decision.
    use platform::{ExecutionMatrix, Platform};
    use taskgraph::DagBuilder;

    let mut b = DagBuilder::new();
    let t0 = b.add_task(1.0);
    let t1 = b.add_task(1.0);
    b.add_edge(t0, t1, 0.0);
    let dag = b.build().unwrap();
    let plat = Platform::uniform_delay(2, 0.0);
    let exec = ExecutionMatrix::consistent(&dag, &[1.0, 0.1]);
    let inst = platform::Instance::new(dag, plat, exec);

    // Empty platform: both tasks pick fast P0 (finish at 2.0).
    let mut ws = ScheduleWorkspace::new();
    let s = schedule_onto(&inst, 0, Algorithm::Ftsa, &mut rng(1), &[0.0; 2], &mut ws).unwrap();
    assert_eq!(s.replicas_of(t0)[0].proc.index(), 0);
    assert!((s.latency_lower_bound() - 2.0).abs() < 1e-9);

    // P0 occupied until t = 50: the chain reroutes to slow-but-free P1.
    let s = schedule_onto(
        &inst,
        0,
        Algorithm::Ftsa,
        &mut rng(1),
        &[50.0, 0.0],
        &mut ws,
    )
    .unwrap();
    assert_eq!(s.replicas_of(t0)[0].proc.index(), 1);
    assert_eq!(s.replicas_of(t1)[0].proc.index(), 1);
    assert!((s.replicas_of(t0)[0].start_lb - 0.0).abs() < 1e-9);
    assert!((s.latency_lower_bound() - 20.0).abs() < 1e-9);

    // P0 occupied only until t = 3: waiting for the fast processor wins
    // again (3 + 1 + 1 = 5 < 20), and the start honors the floor.
    let s = schedule_onto(&inst, 0, Algorithm::Ftsa, &mut rng(1), &[3.0, 0.0], &mut ws).unwrap();
    assert_eq!(s.replicas_of(t0)[0].proc.index(), 0);
    assert!((s.replicas_of(t0)[0].start_lb - 3.0).abs() < 1e-9);
    assert!((s.latency_lower_bound() - 5.0).abs() < 1e-9);
}
