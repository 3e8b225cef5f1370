//! Wall-clock speedup of the fig1 preset sweep at 4 threads over 1
//! thread.
//!
//! This lives in its own test binary on purpose: cargo runs test
//! binaries one at a time, so no sibling test competes for cores while
//! the sweep is being timed. The speedup is only *asserted* where at
//! least 4 cores exist (CI runners); on smaller machines the measurement
//! is reported and the assertion skipped. Each thread count takes the
//! minimum of three runs — the minimum is the noise-robust estimator for
//! "how fast can this go".

use experiments::campaign::{presets, run_campaign_with_threads, PlatformSpec};

#[test]
fn figure_sweep_speedup_at_four_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spec = presets::preset("fig1", Some(8)).expect("preset");
    spec.platforms = [0.4, 0.8, 1.2, 1.6]
        .map(|g| PlatformSpec::paper(20, g))
        .to_vec();
    // Warm-up run so page faults and lazy init don't skew the baseline.
    let warm = run_campaign_with_threads(&spec, 4).unwrap();
    assert_eq!(warm.groups.len(), 4);

    let time = |threads: usize| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let fig = run_campaign_with_threads(&spec, threads).unwrap();
                assert_eq!(fig.groups.len(), 4);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t1 = time(1);
    let t4 = time(4);
    let speedup = t1 / t4;
    eprintln!(
        "figure sweep: {t1:.3}s at 1 thread, {t4:.3}s at 4 threads \
         (speedup {speedup:.2}x, {cores} cores)"
    );
    if cores >= 4 {
        assert!(
            speedup > 1.5,
            "expected >1.5x speedup at 4 threads on {cores} cores, measured {speedup:.2}x \
             ({t1:.3}s -> {t4:.3}s)"
        );
    } else {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
    }
}
