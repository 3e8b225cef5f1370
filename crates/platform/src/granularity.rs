//! The paper's granularity `g(G, P)` and its calibration.
//!
//! Section 2: "For a given graph `G` and processor set `P`, `g(G, P)` is
//! the granularity, i.e., the ratio of the sum of slowest computation
//! times of each task, to the sum of slowest communication times along
//! each edge. If `g(G, P) ≥ 1`, the task graph is said to be coarse
//! grain, otherwise it is fine grain."
//!
//! The experiments sweep `g` from 0.2 to 2.0: after drawing random
//! volumes, delays and raw execution times, [`scale_to_granularity`]
//! rescales the execution matrix so the instance hits the target exactly.

use crate::exec::ExecutionMatrix;
use crate::plat::Platform;
use std::fmt;
use taskgraph::Dag;

/// Sum over edges of the *slowest* communication time
/// `V(e) · max_{k≠h} d(P_k, P_h)`.
pub fn total_slowest_communication(dag: &Dag, platform: &Platform) -> f64 {
    let m = platform.num_procs();
    let max_delay = (0..m)
        .flat_map(|k| (0..m).map(move |h| (k, h)))
        .filter(|&(k, h)| k != h)
        .map(|(k, h)| platform.delay(k, h))
        .fold(0.0, f64::max);
    dag.total_volume() * max_delay
}

/// The granularity `g(G, P)`; `None` when the graph has no communication
/// at all (no edges, zero volumes, or a single processor), in which case
/// granularity is undefined (infinite).
pub fn granularity(dag: &Dag, platform: &Platform, exec: &ExecutionMatrix) -> Option<f64> {
    let comm = total_slowest_communication(dag, platform);
    if comm == 0.0 {
        None
    } else {
        Some(exec.total_slowest() / comm)
    }
}

/// Why [`scale_to_granularity`] could not rescale an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GranularityError {
    /// The instance has no communication (no edges, zero volumes or one
    /// processor), so its granularity is undefined.
    NoCommunication,
    /// The target is not positive and finite, or reaching it would take
    /// a scale factor or execution times that are not.
    OutOfRange {
        /// The requested granularity.
        target: f64,
    },
}

impl fmt::Display for GranularityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GranularityError::NoCommunication => f.write_str(
                "granularity is undefined for an instance without communication \
                 (no edges, zero volumes or one processor)",
            ),
            GranularityError::OutOfRange { target } => write!(
                f,
                "granularity {target:?} is out of range: the rescaled execution times \
                 would not be finite"
            ),
        }
    }
}

impl std::error::Error for GranularityError {}

/// Rescales `exec` in place so the instance's granularity becomes exactly
/// `target`, and returns the applied factor. Leaves `exec` untouched and
/// reports why when the granularity is undefined or the target cannot be
/// reached with positive, finite execution times.
pub fn scale_to_granularity(
    dag: &Dag,
    platform: &Platform,
    exec: &mut ExecutionMatrix,
    target: f64,
) -> Result<f64, GranularityError> {
    let current = granularity(dag, platform, exec).ok_or(GranularityError::NoCommunication)?;
    let factor = target / current;
    let fits = |x: f64| x > 0.0 && x.is_finite();
    // No time exceeds the sum of the per-task slowest ones.
    if !(fits(target) && fits(factor) && fits(exec.total_slowest() * factor)) {
        return Err(GranularityError::OutOfRange { target });
    }
    exec.scale(factor);
    Ok(factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::DagBuilder;

    fn instance() -> (Dag, Platform, ExecutionMatrix) {
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 100.0);
        let dag = b.build().unwrap();
        let platform = Platform::uniform_delay(2, 0.5);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 2.0]);
        (dag, platform, exec)
    }

    #[test]
    fn granularity_formula() {
        let (dag, platform, exec) = instance();
        // Slowest computation: both tasks are slowest on proc 0 → 10+10.
        // Slowest communication: 100 * 0.5 = 50.
        assert_eq!(granularity(&dag, &platform, &exec), Some(0.4));
    }

    #[test]
    fn scaling_hits_target_exactly() {
        let (dag, platform, mut exec) = instance();
        for target in [0.2, 0.6, 1.0, 1.4, 2.0] {
            scale_to_granularity(&dag, &platform, &mut exec, target).unwrap();
            let g = granularity(&dag, &platform, &exec).unwrap();
            assert!((g - target).abs() < 1e-9, "target {target}, got {g}");
        }
    }

    #[test]
    fn scaling_preserves_relative_speeds() {
        let (dag, platform, mut exec) = instance();
        let ratio_before = exec.time(0, 0) / exec.time(0, 1);
        scale_to_granularity(&dag, &platform, &mut exec, 1.5).unwrap();
        let ratio_after = exec.time(0, 0) / exec.time(0, 1);
        assert!((ratio_before - ratio_after).abs() < 1e-12);
    }

    #[test]
    fn no_edges_means_undefined() {
        let mut b = DagBuilder::new();
        b.add_task(5.0);
        let dag = b.build().unwrap();
        let platform = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0]);
        assert_eq!(granularity(&dag, &platform, &exec), None);
    }

    #[test]
    fn single_processor_undefined() {
        let (dag, _, _) = instance();
        let platform = Platform::uniform_delay(1, 0.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0]);
        assert_eq!(granularity(&dag, &platform, &exec), None);
    }

    #[test]
    fn unreachable_targets_are_errors_and_leave_times_untouched() {
        let (dag, platform, mut exec) = instance();
        let before = exec.clone();
        // 1e308 overflows the factor; the rest are not positive and
        // finite.
        for target in [1e308, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let res = scale_to_granularity(&dag, &platform, &mut exec, target);
            assert!(
                matches!(res, Err(GranularityError::OutOfRange { .. })),
                "target {target}: {res:?}"
            );
            assert_eq!(exec.time(0, 0).to_bits(), before.time(0, 0).to_bits());
        }
        let one = Platform::uniform_delay(1, 0.0);
        let mut single = ExecutionMatrix::consistent(&dag, &[1.0]);
        assert_eq!(
            scale_to_granularity(&dag, &one, &mut single, 1.0),
            Err(GranularityError::NoCommunication)
        );
    }
}
