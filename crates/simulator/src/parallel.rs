//! The workspace's one parallel executor: a deterministic chunked map
//! over `0..n` on scoped threads.
//!
//! Together with [`crate::replication_seed`] this is the determinism
//! contract every sweep relies on. Work item `i` derives everything
//! random from its index, and the executor hands the results back in
//! index order, so output is bit-identical at any thread count as long
//! as `f(state, i)` does not depend on the state's history (which chunks
//! a worker claims depends on timing) — the reuse contract of
//! `ScheduleWorkspace`, `CrashWorkspace` and the campaign's
//! `CellContext`. The campaign executor, the streaming campaign service,
//! the Monte-Carlo crash replications and the reliability estimator all
//! run through [`parallel_map_into`]; `tests/parallel_determinism.rs`
//! (repo root) enforces the contract end to end.
//!
//! The sink receives results in runs: whenever the calling thread wakes
//! for a result, it takes every result already sent and hands over, in
//! one call, the [`ReadyRun`] of those now next in index order. A sink
//! that must pay a fixed cost per delivery — the streaming service's
//! WAL `fsync` — pays it once per run instead of once per result; how
//! the indices split into runs depends on timing, the values and their
//! order never do.

use std::collections::{vec_deque, VecDeque};
use std::convert::Infallible;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Upper bound on the number of chunks a map is split into: enough for
/// the workers to balance uneven chunks.
const MAX_CHUNKS: usize = 64;

/// A run of consecutive results handed to a [`parallel_map_into`] sink:
/// every result already received whose index is next in order, yielded
/// in index order. It borrows the executor's reorder buffer, so handing
/// it over allocates nothing.
pub struct ReadyRun<'a, T>(vec_deque::IterMut<'a, Option<T>>);

impl<T> Iterator for ReadyRun<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.next().map(|slot| {
            slot.take()
                .expect("a ready run holds only received results")
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<T> ExactSizeIterator for ReadyRun<'_, T> {}

/// Applies `f` to every index `0..n` on at most `threads` workers and
/// hands the results to `sink` on the calling thread, in index order, a
/// run at a time.
///
/// The indices are cut into contiguous chunks of `n.div_ceil(64)` (at
/// least 1). `min(threads, chunks)` scoped workers are spawned, even for
/// one thread; each builds one state with `init`, then claims chunks
/// from a shared cursor and calls `f(&mut state, i)` in ascending index
/// order. Each time the calling thread wakes for a result it also takes
/// every other result already sent, then calls `sink(first, run)` once
/// with the [`ReadyRun`] of all results from index `first` on that are
/// now contiguous. The runs partition `0..n` in ascending order; their
/// lengths depend on timing, never their contents. A result the sink
/// leaves in its run is dropped once the sink returns. The reorder
/// buffer holds only the results that arrived ahead of the next one in
/// order, so a sink that folds its runs keeps memory flat in `n`. After
/// a sink error no further chunk is handed out, and the error is
/// returned once the workers have finished the chunks in hand. Empty input calls none of
/// `init`, `f` or `sink`. A panic in `init` or `f` resumes on the caller
/// with its original payload.
///
/// # Panics
///
/// If `threads == 0`; callers resolve "default" to a count first.
pub fn parallel_map_into<T, S, E, I, F, K>(
    n: usize,
    threads: usize,
    init: I,
    f: F,
    mut sink: K,
) -> Result<(), E>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    K: FnMut(usize, ReadyRun<'_, T>) -> Result<(), E>,
{
    assert!(threads >= 1, "parallel_map_into needs at least one thread");
    let chunk = n.div_ceil(MAX_CHUNKS).max(1);
    let chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(chunks))
            .map(|_| {
                let tx = tx.clone();
                let (cursor, init, f) = (&cursor, &init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            return;
                        }
                        for i in c * chunk..n.min((c + 1) * chunk) {
                            tx.send((i, f(&mut state, i)))
                                .expect("the receiver outlives every worker");
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        // `pending[k]` holds result `next + k` until the run holding it
        // is sunk.
        let mut pending: VecDeque<Option<T>> = VecDeque::new();
        let mut next = 0;
        let mut outcome = Ok(());
        let hold = |pending: &mut VecDeque<Option<T>>, next: usize, (i, value): (usize, T)| {
            let k = i - next;
            if k >= pending.len() {
                pending.resize_with(k + 1, || None);
            }
            pending[k] = Some(value);
        };
        while let Ok(received) = rx.recv() {
            hold(&mut pending, next, received);
            for received in rx.try_iter() {
                hold(&mut pending, next, received);
            }
            let ready = pending.iter().take_while(|v| v.is_some()).count();
            if ready == 0 {
                continue;
            }
            let sunk = sink(next, ReadyRun(pending.range_mut(..ready)));
            pending.drain(..ready);
            if let Err(e) = sunk {
                // Claims after this store read at least `chunks`; the
                // cursor publishes no data, so `Relaxed` suffices.
                cursor.store(chunks, Ordering::Relaxed);
                outcome = Err(e);
                break;
            }
            next += ready;
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic::resume_unwind(payload);
            }
        }
        outcome
    })
}

/// [`parallel_map_into`] collected into a `Vec`, in index order.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    let Ok(()) = parallel_map_into(n, threads, init, f, |_, run| {
        out.extend(run);
        Ok::<(), Infallible>(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
            let into: Result<(), ()> = parallel_map_into(
                0,
                threads,
                || unreachable!(),
                |_: &mut (), _| -> u32 { unreachable!() },
                |_, _| unreachable!(),
            );
            assert_eq!(into, Ok(()));
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
        // Per-worker state must be invisible in the output: the same
        // values as a sequential map, in index order, at every worker
        // count.
        let plain: Vec<usize> = (0..150).map(|i| (i * 31) % 17).collect();
        for threads in [1, 2, 8] {
            let with_state = parallel_map_with(150, threads, Vec::<usize>::new, |scratch, i| {
                // Use the state in a way that depends on its history;
                // the *returned* value must not.
                scratch.push(i);
                (i * 31) % 17
            });
            assert_eq!(with_state, plain, "threads = {threads}");
        }
    }

    #[test]
    fn map_with_reuses_state_within_chunks() {
        // One state per worker, built before its first claim whether or
        // not a chunk is left for it, and each state sees its indices in
        // strictly ascending order.
        let n: usize = 200;
        let chunks = n.div_ceil(n.div_ceil(MAX_CHUNKS));
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
                        assert!(l < i, "a worker saw index {i} after {l}");
                    }
                    *last = Some(i);
                    i
                },
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert_eq!(inits.load(Ordering::Relaxed), threads.min(chunks));
        }
    }

    #[test]
    fn map_with_empty_input() {
        let out: Vec<u8> = parallel_map_with(0, 4, || (), |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn sink_runs_on_the_caller_in_index_order() {
        let caller = thread::current().id();
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let res: Result<(), ()> = parallel_map_into(
                300,
                threads,
                || (),
                |_, i| (i, thread::current().id()),
                |first, run| {
                    assert_eq!(thread::current().id(), caller, "sink off the caller");
                    for (k, (j, worker)) in run.enumerate() {
                        assert_ne!(worker, caller, "f ran on the caller");
                        assert_eq!(first + k, j);
                        seen.push(j);
                    }
                    Ok(())
                },
            );
            assert_eq!(res, Ok(()));
            assert_eq!(seen, (0..300).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn sink_error_is_returned_and_stops_delivery() {
        for threads in [1, 4] {
            let mut last = None;
            let res = parallel_map_into(
                500,
                threads,
                || (),
                |_, i| i,
                |_, run| {
                    for i in run {
                        last = Some(i);
                        if i == 123 {
                            return Err(format!("stop at {i}"));
                        }
                    }
                    Ok(())
                },
            );
            assert_eq!(res, Err("stop at 123".to_string()), "threads = {threads}");
            assert_eq!(last, Some(123), "threads = {threads}");
        }
    }

    #[test]
    fn runs_partition_the_indices_in_ascending_order() {
        // Skewed work makes late chunks finish first, so results pile up
        // and come out in runs longer than one.
        let skewed = |_: &mut (), i: usize| {
            let mut acc = i as u64;
            for _ in 0..(200 - i) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let reference: Vec<(usize, u64)> = (0..200).map(|i| skewed(&mut (), i)).collect();
        for threads in [1, 2, 8] {
            let mut runs = Vec::new();
            let mut values = Vec::new();
            let res: Result<(), ()> = parallel_map_into(
                200,
                threads,
                || (),
                skewed,
                |first, run| {
                    runs.push((first, run.len()));
                    values.extend(run);
                    Ok(())
                },
            );
            assert_eq!(res, Ok(()));
            let mut next = 0;
            for &(first, len) in &runs {
                assert_eq!(first, next, "threads = {threads}: runs {runs:?}");
                assert!(len >= 1, "threads = {threads}: an empty run");
                next += len;
            }
            assert_eq!(next, 200, "threads = {threads}: runs {runs:?}");
            assert_eq!(values, reference, "threads = {threads}");
        }
    }

    #[test]
    fn sink_error_mid_run_stops_delivery() {
        // One worker, forced into a known interleaving: index 1 waits
        // until the sink has taken the run [0], and the sink holds that
        // run until index 9 has started, so indices 1..=8 are all sent
        // and the second run holds at least them. The error at 5 falls
        // inside that run: 6.. must never reach the sink.
        let sunk_first = AtomicBool::new(false);
        let started_last = AtomicBool::new(false);
        let mut runs = Vec::new();
        let mut seen = Vec::new();
        let res = parallel_map_into(
            10,
            1,
            || (),
            |_, i| {
                if i == 1 {
                    while !sunk_first.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                }
                if i == 9 {
                    started_last.store(true, Ordering::SeqCst);
                }
                i
            },
            |first, run| {
                runs.push((first, run.len()));
                if first == 0 {
                    sunk_first.store(true, Ordering::SeqCst);
                    while !started_last.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                }
                for i in run {
                    seen.push(i);
                    if i == 5 {
                        return Err(format!("stop at {i}"));
                    }
                }
                Ok(())
            },
        );
        assert_eq!(res, Err("stop at 5".to_string()));
        assert_eq!(runs[0], (0, 1));
        assert_eq!(runs.len(), 2, "no run after the error: {runs:?}");
        assert_eq!(runs[1].0, 1);
        assert!(runs[1].1 >= 8, "the error must fall mid-run: {runs:?}");
        assert_eq!(seen, (0..=5).collect::<Vec<_>>());
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
