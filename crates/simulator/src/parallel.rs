//! The workspace's one parallel executor: a deterministic chunked map
//! over `0..n` on scoped threads.
//!
//! Together with [`crate::replication_seed`] this is the determinism
//! contract every sweep relies on. Work item `i` derives everything
//! random from its index, and the executor returns the results in index
//! order with chunk boundaries that depend on `n` alone, so output is
//! bit-identical at any thread count. The campaign executor, the
//! Monte-Carlo crash replications and the reliability estimator all run
//! through [`parallel_map_with`]; `tests/parallel_determinism.rs` (repo
//! root) enforces the contract end to end.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Upper bound on the number of chunks a map is split into: enough for
/// the workers to balance uneven chunks, few enough that per-chunk
/// state is built a bounded number of times.
const MAX_CHUNKS: usize = 64;

/// Applies `f` to every index `0..n` and returns the results in index
/// order, on at most `threads` workers.
///
/// The indices are cut into contiguous chunks of `n.div_ceil(64)`
/// (at least 1), a function of `n` alone. Each chunk builds one state
/// with `init` and calls `f(&mut state, i)` for its indices in
/// ascending order; `min(threads, chunks)` workers claim chunks from a
/// shared cursor and the per-chunk results are reassembled in chunk
/// order. As long as `f(state, i)` returns the same value whatever the
/// state's history (the reuse contract of `ScheduleWorkspace` and
/// `CrashWorkspace`), the output is bit-identical at any thread count.
///
/// With one worker everything runs inline on the calling thread and no
/// thread is spawned; empty input calls neither `init` nor `f`. A panic
/// in `init` or `f` resumes on the caller with its original payload.
///
/// # Panics
///
/// If `threads == 0`; callers resolve "default" to a count first.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(threads >= 1, "parallel_map_with needs at least one thread");
    let chunk = n.div_ceil(MAX_CHUNKS).max(1);
    let chunks = n.div_ceil(chunk);
    let run = |c: usize| -> Vec<T> {
        let mut state = init();
        (c * chunk..n.min((c + 1) * chunk))
            .map(|i| f(&mut state, i))
            .collect()
    };
    let workers = threads.min(chunks);
    let parts: Vec<Vec<T>> = if workers <= 1 {
        (0..chunks).map(run).collect()
    } else {
        // The cursor only hands out chunk numbers; results travel back
        // through `join`, which synchronizes on its own.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return mine;
                }
                mine.push((c, run(c)));
            }
        };
        let mut tagged: Vec<(usize, Vec<T>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        });
        tagged.sort_unstable_by_key(|&(c, _)| c);
        tagged.into_iter().map(|(_, part)| part).collect()
    };
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map_with(100, 8, || (), |_, i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let a = parallel_map_with(37, 1, || (), |_, i| i as f64 * 1.5);
        let b = parallel_map_with(37, 8, || (), |_, i| i as f64 * 1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        for threads in [1, 4] {
            let out: Vec<u32> = parallel_map_with(
                0,
                threads,
                || unreachable!(),
                |_: &mut (), _| unreachable!(),
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_with(3, 16, || (), |_, i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn index_order_survives_skewed_work() {
        // Early indices get the most work, so late (cheap) chunks finish
        // first; they must still come back in index order.
        let skewed = |_: &mut (), i: usize| {
            let mut acc = i as u64;
            for _ in 0..(64 - i) * 2000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let reference: Vec<(usize, u64)> = (0..64).map(|i| skewed(&mut (), i)).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map_with(64, threads, || (), skewed);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn map_with_state_matches_stateless_map_at_any_thread_count() {
        // Per-chunk state must be invisible in the output: the same
        // values as a sequential map, in index order, at every worker
        // count.
        let plain: Vec<usize> = (0..150).map(|i| (i * 31) % 17).collect();
        for threads in [1, 2, 8] {
            let with_state = parallel_map_with(150, threads, Vec::<usize>::new, |scratch, i| {
                // Use the state in a way that depends on chunk
                // history; the *returned* value must not.
                scratch.push(i);
                (i * 31) % 17
            });
            assert_eq!(with_state, plain, "threads = {threads}");
        }
    }

    #[test]
    fn map_with_reuses_state_within_chunks() {
        // One state per chunk, whatever the worker count, and each
        // chunk's calls arrive in ascending index order.
        let n: usize = 200;
        let chunk = n.div_ceil(MAX_CHUNKS);
        for threads in [1, 2, 4, 8] {
            let inits = AtomicUsize::new(0);
            let out = parallel_map_with(
                n,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    None::<usize>
                },
                |last, i| {
                    if let Some(l) = *last {
                        assert_eq!(l + 1, i, "a chunk skipped or reordered an index");
                    }
                    *last = Some(i);
                    i
                },
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert_eq!(inits.load(Ordering::Relaxed), n.div_ceil(chunk));
        }
    }

    #[test]
    fn map_with_empty_input() {
        let out: Vec<u8> = parallel_map_with(0, 4, || (), |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn one_thread_runs_on_the_caller() {
        let caller = thread::current().id();
        let ids = parallel_map_with(100, 1, || (), |_, _| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn panics_resume_on_the_caller_with_their_payload() {
        for threads in [1, 4] {
            let caught = panic::catch_unwind(|| {
                parallel_map_with(
                    16,
                    threads,
                    || (),
                    |_, i| {
                        if i == 9 {
                            panic!("cell {i} exploded");
                        }
                        i
                    },
                )
            })
            .expect_err("the panic must reach the caller");
            let message = caught.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("cell 9 exploded"), "threads = {threads}");
        }
    }
}
