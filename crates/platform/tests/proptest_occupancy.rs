//! Property tests for [`platform::OccupancyTimeline`] — the structural
//! invariants the streaming driver leans on (see the module docs in
//! `platform::occupancy`):
//!
//! * every release floor is **monotone non-decreasing** across
//!   `insert` / `advance` (only `reset` may lower it), and a floor
//!   covers the end of every span inserted on its processor, so spans
//!   appended at the floor never overlap;
//! * a timeline that never saw work is empty, and `reset` restores
//!   exactly that state.

use platform::OccupancyTimeline;
use proptest::prelude::*;

/// One randomized operation: `(selector, a, b)` with payloads drawn from
/// a bounded time range. `a`/`b` are interpreted per operation.
type Op = (u8, f64, f64);

fn apply(occ: &mut OccupancyTimeline, op: &Op, j: usize) {
    let (sel, a, b) = *op;
    match sel % 3 {
        // Legal insert: start at or after the current floor.
        0 => {
            let start = occ.release_floor(j) + a;
            occ.insert(j, start, start + b);
        }
        1 => occ.advance(a),
        _ => {
            // Zero-length span: a floor bump to its start.
            let start = occ.release_floor(j) + a;
            occ.insert(j, start, start);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intervals_stay_disjoint_and_floors_monotone(
        m in 1usize..6,
        ops in proptest::collection::vec((0u8..3, 0.0f64..40.0, 0.0f64..25.0), 1..50),
    ) {
        let mut occ = OccupancyTimeline::new(m);
        for (i, op) in ops.iter().enumerate() {
            let j = i % m;
            let before: Vec<f64> = occ.floors().to_vec();
            apply(&mut occ, op, j);
            for (p, (&fb, &fa)) in before.iter().zip(occ.floors()).enumerate() {
                prop_assert!(fa >= fb, "P{p}: floor dropped {fb} -> {fa} on op {op:?}");
            }
            if op.0 == 0 {
                // The next span on P{j} starts at or after this one's end.
                let end = before[j] + op.1 + op.2;
                prop_assert!(occ.release_floor(j) >= end, "P{j}: floor below span end {end}");
            }
        }
    }

    #[test]
    fn reset_always_restores_the_empty_state(
        m in 1usize..5,
        ops in proptest::collection::vec((0u8..3, 0.0f64..30.0, 0.0f64..20.0), 0..25),
    ) {
        let mut occ = OccupancyTimeline::new(m);
        prop_assert!(occ.is_empty(), "a fresh timeline is empty");
        for (i, op) in ops.iter().enumerate() {
            apply(&mut occ, op, i % m);
        }
        occ.reset();
        prop_assert!(occ.is_empty());
        prop_assert_eq!(occ.floors(), &vec![0.0; m][..]);
    }
}
