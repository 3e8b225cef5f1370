//! The campaign layer's handle on the workspace's parallel executor.
//!
//! [`parallel_map_into`] and its collecting form [`parallel_map_with`]
//! are [`simulator::parallel`]'s, re-exported here because the campaign
//! executor, the streaming service and their callers reach them through
//! this crate. The figure experiments evaluate hundreds of
//! independent (granularity, repetition) cells; each cell derives its
//! own RNG seed from its index, so results are identical whatever the
//! thread count — the **index-derived-seed determinism contract** every
//! sweep in this crate relies on, and which `tests/parallel_determinism.rs`
//! (repo root) enforces end to end. [`default_threads`] resolves the
//! worker count when a caller asks for the default.

pub use simulator::parallel::{parallel_map_into, parallel_map_with};

/// Number of worker threads to use: the `FTSCHED_THREADS` environment
/// variable when set to a positive integer (the CI thread matrix uses
/// this to pin both the sequential and parallel paths), otherwise the
/// available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("FTSCHED_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_controls_default_threads() {
        // Only meaningful when the harness hasn't set the variable.
        if std::env::var("FTSCHED_THREADS").is_err() {
            assert!(default_threads() >= 1);
        } else {
            let n: usize = std::env::var("FTSCHED_THREADS").unwrap().parse().unwrap();
            assert_eq!(default_threads(), n);
        }
    }
}
