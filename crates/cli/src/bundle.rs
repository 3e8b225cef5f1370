//! The self-contained *bundle* file: everything needed to re-simulate a
//! schedule (graph, platform, execution matrix, the schedule itself and
//! its ε).
//!
//! A bundle has one layout, cut into ordered pieces:
//!
//! 1. `{` and `dag`;
//! 2. `platform`, and `exec` up to its first time;
//! 3. `exec`'s row-major times, 32 768 to a piece;
//! 4. `exec`'s close and the key `schedule`;
//! 5. the schedule's [`JsonPart`]s in order, with `replicas` cut at task
//!    boundaries into pieces of about 4096 replicas, `proc_order` one
//!    processor to a piece, and a matched table cut at edge boundaries
//!    into pieces of about 8192 pairs;
//! 6. `algorithm` and the closing `}`.
//!
//! Apart from `dag` and the tail (`schedule_order` with the close), a
//! piece holds about 1 MiB of text or less, unless one processor's
//! placement list is longer. The pretty [`Writer`]'s whole state is its
//! position (open containers, and whether the innermost has a member
//! yet), so a piece rendered by its own writer, resumed at the piece's
//! start ([`Writer::resume`]), is byte for byte what one writer writes
//! there.
//!
//! [`Bundle`]'s `Serialize` writes the pieces in order on one writer,
//! and [`write_bundle`] writes the same pieces on two threads, so a
//! bundle file is byte for byte [`Bundle::to_json`] of the same run.

use ftsched_core::schedule::JsonPart;
use ftsched_core::validate::validate;
use ftsched_core::{CommSelection, Schedule};
use platform::exec::JsonPart as ExecPart;
use platform::{ExecutionMatrix, Instance, Platform};
use serde::{Deserialize, Serialize, Writer};
use std::fs::File;
use std::io::{self, Write as _};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::{mem, panic, thread};
use taskgraph::Dag;

/// `exec` times per piece: at most 31 bytes each, so under 1 MiB.
const TIMES_PER_PIECE: usize = 1 << 15;

/// Replicas per piece of `replicas`, about 210 bytes each; a piece holds
/// `REPLICAS_PER_PIECE / (ε + 1)` tasks.
const REPLICAS_PER_PIECE: usize = 1 << 12;

/// Pairs per piece of a matched table, about 60 bytes each; a piece
/// holds `PAIRS_PER_PIECE / (ε + 1)` edges.
const PAIRS_PER_PIECE: usize = 1 << 13;

/// The capacity of each worker's one piece buffer. The cuts above fit
/// in it; a longer piece grows it.
const PIECE_BUFFER: usize = 1 << 20;

/// One piece of a bundle's text (see the module docs).
enum Piece<'a> {
    /// `{` and `dag`: the first piece, streamed straight to the file.
    Dag(&'a Dag),
    /// `platform`, and `exec` up to its first time.
    Platform(&'a Platform, &'a ExecutionMatrix),
    /// A range of `exec`'s row-major times.
    Times(&'a ExecutionMatrix, Range<usize>),
    /// `exec`'s close and the key `schedule`.
    ExecClose(&'a ExecutionMatrix),
    /// A part of the schedule.
    Schedule(&'a Schedule, JsonPart),
    /// `algorithm` and the bundle's `}`.
    Algorithm(&'a str),
}

impl Piece<'_> {
    /// The writer position the piece starts at (see [`Writer::resume`]),
    /// which follows from the bundle's nesting; the serial path checks
    /// each against its writer.
    fn start(&self) -> (usize, bool) {
        match self {
            Piece::Dag(_) => (0, true),
            Piece::Platform(..) | Piece::Algorithm(_) => (1, false),
            Piece::Times(_, times) => (3, times.start == 0),
            Piece::ExecClose(exec) => (3, exec.num_tasks() == 0),
            Piece::Schedule(s, part) => match part {
                JsonPart::Head => (1, false),
                JsonPart::Replicas(r) | JsonPart::ProcOrder(r) => (3, r.start == 0),
                JsonPart::ProcOrderHead => (3, s.num_tasks() == 0),
                JsonPart::CommHead => (3, s.num_procs() == 0),
                JsonPart::Matched(r) => (4, r.start == 0),
                JsonPart::Tail => match &s.comm {
                    CommSelection::AllToAll => (2, false),
                    CommSelection::Matched(pairs) => (4, pairs.is_empty()),
                },
            },
        }
    }

    /// Writes the piece.
    fn render(&self, w: &mut Writer<'_>) {
        match self {
            Piece::Dag(dag) => {
                w.begin_object();
                w.field("dag");
                dag.serialize(w);
            }
            Piece::Platform(platform, exec) => {
                w.field("platform");
                platform.serialize(w);
                w.field("exec");
                exec.write_json_part(w, &ExecPart::Head);
            }
            Piece::Times(exec, times) => exec.write_json_part(w, &ExecPart::Times(times.clone())),
            Piece::ExecClose(exec) => {
                exec.write_json_part(w, &ExecPart::Close);
                w.field("schedule");
            }
            Piece::Schedule(s, part) => s.write_json_part(w, part),
            Piece::Algorithm(name) => {
                w.field("algorithm");
                w.write_str(name);
                w.end_object();
            }
        }
    }
}

/// The `k`-th run of `per` elements of `range`, or `Err` with `k` less
/// the number of runs.
fn cut(range: Range<usize>, per: usize, k: usize) -> Result<Range<usize>, usize> {
    let runs = range.len().div_ceil(per);
    if k < runs {
        let start = range.start + k * per;
        Ok(start..range.end.min(start + per))
    } else {
        Err(k - runs)
    }
}

/// A bundle's pieces by index, in file order.
struct Plan<'a> {
    dag: &'a Dag,
    platform: &'a Platform,
    exec: &'a ExecutionMatrix,
    algorithm: &'a str,
}

impl<'a> Plan<'a> {
    /// Piece `i`, or `None` past the last. `dag`, `platform`, the times
    /// and `exec`'s close need no schedule; without one, every later
    /// index is `None` too.
    fn piece(&self, i: usize, schedule: Option<&'a Schedule>) -> Option<Piece<'a>> {
        let times = self.exec.num_tasks() * self.exec.num_procs();
        let mut i = match i {
            0 => return Some(Piece::Dag(self.dag)),
            1 => return Some(Piece::Platform(self.platform, self.exec)),
            _ => match cut(0..times, TIMES_PER_PIECE, i - 2) {
                Ok(range) => return Some(Piece::Times(self.exec, range)),
                Err(0) => return Some(Piece::ExecClose(self.exec)),
                Err(rest) => rest - 1,
            },
        };
        let schedule = schedule?;
        let eps1 = schedule.epsilon.saturating_add(1);
        for mut part in schedule.json_parts() {
            let per = match part {
                JsonPart::Replicas(_) => (REPLICAS_PER_PIECE / eps1).max(1),
                JsonPart::Matched(_) => (PAIRS_PER_PIECE / eps1).max(1),
                _ => 1,
            };
            match &mut part {
                JsonPart::Replicas(range)
                | JsonPart::ProcOrder(range)
                | JsonPart::Matched(range) => match cut(range.clone(), per, i) {
                    Ok(run) => *range = run,
                    Err(rest) => {
                        i = rest;
                        continue;
                    }
                },
                _ if i > 0 => {
                    i -= 1;
                    continue;
                }
                _ => {}
            }
            return Some(Piece::Schedule(schedule, part));
        }
        (i == 0).then_some(Piece::Algorithm(self.algorithm))
    }
}

/// A serializable scheduling artifact. It serializes as its pieces in
/// order (see the module docs), the one layout [`write_bundle`] also
/// writes. A bundle is a whole JSON document, never a member of one.
#[derive(Debug, Clone, Deserialize)]
pub struct Bundle {
    /// The task graph.
    pub dag: Dag,
    /// The platform (link delays).
    pub platform: Platform,
    /// The execution-time matrix.
    pub exec: ExecutionMatrix,
    /// The fault-tolerant schedule.
    pub schedule: Schedule,
    /// Which algorithm produced it (display name).
    pub algorithm: String,
}

/// The pieces in order, on one writer.
impl Serialize for Bundle {
    fn serialize(&self, w: &mut Writer<'_>) {
        let plan = Plan {
            dag: &self.dag,
            platform: &self.platform,
            exec: &self.exec,
            algorithm: &self.algorithm,
        };
        for i in 0.. {
            let Some(piece) = plan.piece(i, Some(&self.schedule)) else {
                break;
            };
            debug_assert_eq!(w.position(), piece.start(), "bundle piece {i}");
            piece.render(w);
        }
    }
}

impl Bundle {
    /// Reassembles the [`Instance`] (clones the parts).
    pub fn instance(&self) -> Instance {
        Instance::new(self.dag.clone(), self.platform.clone(), self.exec.clone())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON. Each part checks its own invariants as it
    /// is read; this also rejects parts whose dimensions disagree, so
    /// [`Bundle::instance`] cannot panic on a loaded bundle, and a
    /// schedule that does not [`validate`] on its instance, so the
    /// simulator never replays one that names missing tasks, processors
    /// or replicas.
    pub fn from_json(s: &str) -> serde_json::Result<Bundle> {
        let Bundle {
            dag,
            platform,
            exec,
            schedule,
            algorithm,
        } = serde_json::from_str(s)?;
        let (v, m) = (dag.num_tasks(), platform.num_procs());
        let (rows, cols) = (exec.num_tasks(), exec.num_procs());
        if (rows, cols) != (v, m) {
            return Err(serde::Error::custom(format!(
                "bundle parts disagree: exec is {rows}×{cols}, \
                 but the dag has {v} tasks and the platform {m} processors"
            ))
            .into());
        }
        let inst = Instance::new(dag, platform, exec);
        validate(&inst, &schedule).map_err(|e| {
            serde::Error::custom(format!("bundle schedule does not fit its instance: {e}"))
        })?;
        let Instance {
            dag,
            platform,
            exec,
        } = inst;
        Ok(Bundle {
            dag,
            platform,
            exec,
            schedule,
            algorithm,
        })
    }
}

/// What the two workers of [`write_bundle`] share, under one lock.
struct Turns<'s> {
    /// The next piece index to claim.
    next: usize,
    /// The index of the next piece to reach the file.
    turn: usize,
    /// The schedule, once handed over.
    schedule: Option<&'s Schedule>,
    /// Set by a failure or a panic: no worker claims or waits any more.
    stop: bool,
    /// The first write error.
    error: Option<io::Error>,
}

/// A bundle's plan, its file, and the workers' shared [`Turns`].
struct Pool<'s> {
    plan: Plan<'s>,
    file: &'s File,
    turns: Mutex<Turns<'s>>,
    changed: Condvar,
}

impl<'s> Pool<'s> {
    /// The shared state. Every update under the lock is a few field
    /// stores that cannot panic, so the state is valid even after a panic
    /// elsewhere poisoned the lock, and recovering it lets the other
    /// worker see `stop`.
    fn lock(&self) -> MutexGuard<'_, Turns<'s>> {
        self.turns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while `wait` holds and the pool runs.
    fn wait_while(&self, mut wait: impl FnMut(&Turns<'s>) -> bool) -> MutexGuard<'_, Turns<'s>> {
        self.changed
            .wait_while(self.lock(), |t| !t.stop && wait(t))
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Changes the shared state and wakes the other worker.
    fn update(&self, change: impl FnOnce(&mut Turns<'s>)) {
        change(&mut self.lock());
        self.changed.notify_all();
    }

    /// Claims the next piece, waiting for the schedule if the piece needs
    /// it; `None` past the last piece or once the pool has stopped.
    fn claim(&self) -> Option<(usize, Piece<'s>)> {
        let i = {
            let mut turns = self.lock();
            if turns.stop {
                return None;
            }
            let i = turns.next;
            turns.next += 1;
            i
        };
        if let Some(piece) = self.plan.piece(i, None) {
            return Some((i, piece));
        }
        let turns = self.wait_while(|t| t.schedule.is_none());
        let schedule = turns.schedule.filter(|_| !turns.stop)?;
        Some((i, self.plan.piece(i, Some(schedule))?))
    }

    /// Claims pieces until none is left or the pool stops: renders each
    /// with `render` into this thread's one buffer, waits for its turn
    /// and writes it. Piece 0, `dag`, is always the first turn, so it is
    /// streamed to the file instead.
    fn work<R>(&self, render: &R)
    where
        R: Fn(&Piece<'_>, &mut Writer<'_>),
    {
        let _stop = StopOnUnwind(self);
        let mut buf = Vec::with_capacity(PIECE_BUFFER);
        while let Some((i, piece)) = self.claim() {
            let mut file = self.file;
            let written = if let Piece::Dag(_) = piece {
                let mut w = Writer::with_sink(&mut file, true);
                render(&piece, &mut w);
                w.finish()
            } else {
                let mut w = Writer::resume(mem::take(&mut buf), true, piece.start());
                render(&piece, &mut w);
                let text = w.into_string();
                if self.wait_while(|t| t.turn != i).stop {
                    return;
                }
                let written = file.write_all(text.as_bytes());
                buf = text.into_bytes();
                buf.clear();
                written
            };
            self.update(|t| {
                t.turn += 1;
                if let Err(e) = written {
                    t.error = Some(e);
                    t.stop = true;
                }
            });
        }
    }
}

/// Stops the pool when its thread unwinds, so the other worker never
/// waits for a turn or a schedule that will not come.
struct StopOnUnwind<'p, 's>(&'p Pool<'s>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.update(|t| t.stop = true);
        }
    }
}

/// Writes the bundle of `inst`, `algorithm` and the schedule that
/// `schedule` makes into `file`, on the calling thread and one scoped
/// render thread.
///
/// The render thread starts at once: it streams `dag` into the file and
/// renders the instance's pieces while the calling thread runs
/// `schedule`. The calling thread hands the schedule over, runs `check`
/// on it, and then pulls pieces beside the render thread. Each worker
/// takes the next piece index from one shared cursor and renders that
/// piece into its own reusable buffer, and the pieces reach the file
/// strictly in index order, so the file is byte for byte
/// [`Bundle::to_json`] of the same parts.
///
/// Returns `check`'s value, or the first error of `schedule` then
/// `check`, beside the first write error; either error stops both
/// workers from pulling pieces. A panic on either thread stops the other
/// and resumes on the caller with its payload.
pub fn write_bundle<T>(
    file: &File,
    inst: &Instance,
    algorithm: &str,
    schedule: impl FnOnce() -> Result<Schedule, String>,
    check: impl FnOnce(&Schedule) -> Result<T, String>,
) -> (Result<T, String>, io::Result<()>) {
    let render = |piece: &Piece<'_>, w: &mut Writer<'_>| piece.render(w);
    write_pieces(file, inst, algorithm, schedule, check, &render)
}

/// [`write_bundle`] with `render` writing each piece.
fn write_pieces<T, R>(
    file: &File,
    inst: &Instance,
    algorithm: &str,
    schedule: impl FnOnce() -> Result<Schedule, String>,
    check: impl FnOnce(&Schedule) -> Result<T, String>,
    render: &R,
) -> (Result<T, String>, io::Result<()>)
where
    R: Fn(&Piece<'_>, &mut Writer<'_>) + Sync,
{
    let mut slot = None;
    let pool = Pool {
        plan: Plan {
            dag: &inst.dag,
            platform: &inst.platform,
            exec: &inst.exec,
            algorithm,
        },
        file,
        turns: Mutex::new(Turns {
            next: 0,
            turn: 0,
            schedule: None,
            stop: false,
            error: None,
        }),
        changed: Condvar::new(),
    };
    thread::scope(|scope| {
        let render_thread = scope.spawn(|| pool.work(render));
        let checked = {
            let _stop = StopOnUnwind(&pool);
            schedule().and_then(|s| {
                let s = &*slot.insert(s);
                pool.update(|t| t.schedule = Some(s));
                check(s)
            })
        };
        match checked {
            Ok(_) => pool.work(render),
            Err(_) => pool.update(|t| t.stop = true),
        }
        render_thread
            .join()
            .unwrap_or_else(|p| panic::resume_unwind(p));
        let written = pool.lock().error.take().map_or(Ok(()), Err);
        (checked, written)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_core::{schedule, Algorithm};
    use platform::gen::{paper_instance, random_platform, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;
    use taskgraph::DagBuilder;

    /// A fresh output file of its own for each call.
    fn out_file() -> (File, std::path::PathBuf) {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "ftsched_bundle_pieces_{}_{}.json",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        (File::create(&path).expect("create the output"), path)
    }

    /// `v` tasks on `m` processors, chained by `v - 1` edges unless
    /// `edgeless`.
    fn chain(v: usize, m: usize, edgeless: bool) -> Instance {
        let mut b = DagBuilder::new();
        let tasks: Vec<_> = (0..v).map(|i| b.add_task(10.0 + (i % 7) as f64)).collect();
        if !edgeless {
            for pair in tasks.windows(2) {
                b.add_edge(pair[0], pair[1], 5.0);
            }
        }
        let dag = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(v as u64);
        let platform = random_platform(&mut rng, m, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, m, &mut rng, 0.5);
        Instance::new(dag, platform, exec)
    }

    /// Writes the bundle of `algorithm` at `epsilon` on `inst` through
    /// the two workers and requires the bytes of [`Bundle::to_json`].
    /// Returns the pieces.
    fn same_bytes(inst: &Instance, epsilon: usize, algorithm: Algorithm) -> usize {
        let sched = schedule(inst, epsilon, algorithm, &mut StdRng::seed_from_u64(5)).unwrap();
        let (file, path) = out_file();
        let (checked, written) = write_bundle(
            &file,
            inst,
            algorithm.name(),
            || Ok(sched.clone()),
            |_| Ok(()),
        );
        checked.unwrap();
        written.unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let bundle = Bundle {
            dag: inst.dag.clone(),
            platform: inst.platform.clone(),
            exec: inst.exec.clone(),
            schedule: sched,
            algorithm: algorithm.name().into(),
        };
        let v = inst.num_tasks();
        assert!(
            text == bundle.to_json().unwrap(),
            "{algorithm} at ε = {epsilon}, v = {v}, m = {}: the two workers wrote other bytes",
            inst.num_procs()
        );
        let plan = Plan {
            dag: &bundle.dag,
            platform: &bundle.platform,
            exec: &bundle.exec,
            algorithm: &bundle.algorithm,
        };
        (0..)
            .map_while(|i| plan.piece(i, Some(&bundle.schedule)))
            .count()
    }

    #[test]
    fn cut_runs_cover_the_range_in_order() {
        for (len, per) in [(0, 4), (1, 4), (3, 4), (4, 4), (5, 4), (13, 4), (7, 1)] {
            let mut k = 0;
            let mut next = 10;
            while let Ok(run) = cut(10..10 + len, per, k) {
                assert_eq!(run.start, next, "{len} by {per}");
                assert!(!run.is_empty() && run.len() <= per, "{len} by {per}");
                next = run.end;
                k += 1;
            }
            assert_eq!(next, 10 + len, "{len} by {per}");
            assert_eq!(k, len.div_ceil(per));
            assert_eq!(cut(10..10 + len, per, k + 2), Err(2));
        }
    }

    /// Task counts 1, k − 1, k, k + 1 and 3k + 1 for each piece size k:
    /// 1024 rows of times on 32 processors, 512 tasks of replicas and
    /// 1024 edges of matched pairs at ε = 7, and one processor's order
    /// (the small counts). A chain of v tasks has v − 1 edges.
    #[test]
    fn two_workers_write_the_serial_bytes_at_every_piece_boundary() {
        let (m, epsilon) = (32, 7);
        let rows = TIMES_PER_PIECE / m;
        let tasks = REPLICAS_PER_PIECE / (epsilon + 1);
        let edges = PAIRS_PER_PIECE / (epsilon + 1);
        assert_eq!((rows, tasks, edges), (1024, 512, 1024));
        let around = |k: usize| [1, k - 1, k, k + 1, 3 * k + 1];
        let mut counts: Vec<usize> = around(rows)
            .into_iter()
            .chain(around(tasks))
            .chain(around(edges).map(|e| e + 1))
            .chain([0, 1, 2, 4])
            .collect();
        counts.sort_unstable();
        counts.dedup();
        for v in counts {
            let pieces = same_bytes(&chain(v, m, false), epsilon, Algorithm::McFtsaGreedy);
            let expected = 3
                + (v * m).div_ceil(TIMES_PER_PIECE)
                + 1
                + v.div_ceil(tasks)
                + 1
                + m
                + 1
                + v.saturating_sub(1).div_ceil(edges)
                + 1
                + 1;
            assert_eq!(pieces, expected, "v = {v}");
        }
    }

    /// An edgeless graph gives an empty `edges` and an empty matched
    /// table; the empty graph, which `ftsched schedule` accepts, empty
    /// everything but `proc_order`.
    #[test]
    fn two_workers_write_the_serial_bytes_for_edgeless_and_empty_graphs() {
        let empty = taskgraph::io::from_json(r#"{"nodes": [], "edges": []}"#).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let platform = random_platform(&mut rng, 3, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&empty, 3, &mut rng, 0.5);
        let empty = Instance::new(empty, platform, exec);
        let edgeless = chain(40, 3, true);
        for inst in [&empty, &edgeless] {
            for algorithm in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
                for epsilon in 0..=2 {
                    same_bytes(inst, epsilon, algorithm);
                }
            }
        }
    }

    #[test]
    fn two_workers_write_the_serial_bytes_for_each_paper_algorithm() {
        let inst = paper_instance(
            &mut StdRng::seed_from_u64(3),
            &PaperInstanceConfig {
                tasks_lo: 300,
                tasks_hi: 300,
                procs: 5,
                ..Default::default()
            },
        );
        for algorithm in [Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar] {
            for epsilon in 0..=2 {
                same_bytes(&inst, epsilon, algorithm);
            }
        }
    }

    /// Runs `body` on a thread of its own, given that thread's id, and
    /// returns what it returned or the message it panicked with. A
    /// worker left waiting fails the test at the timeout instead of
    /// hanging it.
    fn outcome<T: Send + 'static>(
        body: impl FnOnce(ThreadId) -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let caught =
                panic::catch_unwind(panic::AssertUnwindSafe(|| body(thread::current().id())));
            let _ = tx.send(caught.map_err(|p| {
                p.downcast_ref::<&str>()
                    .map_or_else(|| "a panic without a message".into(), |s| s.to_string())
            }));
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("write_pieces returned")
    }

    /// An instance and FTSA schedule with a few hundred pieces.
    fn many_pieces() -> (Instance, Schedule) {
        let inst = chain(3000, 8, false);
        let sched = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        (inst, sched)
    }

    fn render(piece: &Piece<'_>, w: &mut Writer<'_>) {
        piece.render(w);
    }

    #[test]
    fn a_scheduler_or_check_error_stops_both_workers() {
        let (inst, sched) = many_pieces();
        let failed = outcome(move |_| {
            let (file, path) = out_file();
            let no_schedule = write_pieces(
                &file,
                &inst,
                "FTSA",
                || Err::<Schedule, _>("no schedule".into()),
                |_| Ok(()),
                &render,
            );
            let rejected = write_pieces(
                &file,
                &inst,
                "FTSA",
                || Ok(sched),
                |_| Err::<(), _>("rejected".into()),
                &render,
            );
            let _ = std::fs::remove_file(path);
            (no_schedule.0, rejected.0)
        });
        assert_eq!(
            failed,
            Ok((Err("no schedule".into()), Err("rejected".into())))
        );
    }

    /// The render thread panics on its first schedule piece once the
    /// calling thread holds the next one, so the calling thread waits for
    /// a turn that never comes: the panic must stop it and resume on it.
    #[test]
    fn a_render_thread_panic_resumes_on_the_caller() {
        let (inst, sched) = many_pieces();
        let panicked = outcome(move |caller| {
            let meet = Barrier::new(2);
            let joined = AtomicBool::new(false);
            let render = |piece: &Piece<'_>, w: &mut Writer<'_>| {
                if thread::current().id() == caller {
                    if !joined.swap(true, Ordering::SeqCst) {
                        meet.wait(); // 2: the caller holds a later piece.
                    }
                } else if let Piece::Schedule(_, JsonPart::Head) = piece {
                    meet.wait(); // 1: the caller may join.
                    meet.wait(); // 2
                    panic!("render thread");
                }
                piece.render(w);
            };
            let (file, path) = out_file();
            let check = |_: &Schedule| {
                meet.wait(); // 1
                Ok(())
            };
            let _ = std::fs::remove_file(path);
            let _ = write_pieces(&file, &inst, "FTSA", || Ok(sched), check, &render);
        });
        assert_eq!(panicked, Err("render thread".into()));
    }

    /// The calling thread panics in its first piece once the render
    /// thread has rendered the piece after it and waits for its turn:
    /// the panic must stop the render thread and come back with its
    /// payload.
    #[test]
    fn a_calling_thread_panic_stops_the_render_thread() {
        let (inst, sched) = many_pieces();
        let panicked = outcome(move |caller| {
            let meet = Barrier::new(2);
            let rendered = AtomicUsize::new(0);
            let render = |piece: &Piece<'_>, w: &mut Writer<'_>| {
                if thread::current().id() == caller {
                    meet.wait(); // 2: the render thread may go on.
                    meet.wait(); // 3: it holds the piece after this one.
                    panic!("calling thread");
                }
                let schedule_pieces = match piece {
                    Piece::Schedule(..) => rendered.fetch_add(1, Ordering::SeqCst),
                    _ => usize::MAX,
                };
                if schedule_pieces == 0 {
                    meet.wait(); // 1: the caller may join.
                    meet.wait(); // 2
                }
                piece.render(w);
                if schedule_pieces == 1 {
                    meet.wait(); // 3
                }
            };
            let (file, path) = out_file();
            let check = |_: &Schedule| {
                meet.wait(); // 1
                Ok(())
            };
            let _ = std::fs::remove_file(path);
            let _ = write_pieces(&file, &inst, "FTSA", || Ok(sched), check, &render);
        });
        assert_eq!(panicked, Err("calling thread".into()));
    }

    #[test]
    fn bundle_round_trips() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = paper_instance(
            &mut rng,
            &PaperInstanceConfig {
                tasks_lo: 20,
                tasks_hi: 20,
                procs: 5,
                ..Default::default()
            },
        );
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng).unwrap();
        let b = Bundle {
            dag: inst.dag.clone(),
            platform: inst.platform.clone(),
            exec: inst.exec.clone(),
            schedule: s.clone(),
            algorithm: "FTSA".into(),
        };
        let json = b.to_json().unwrap();
        let back = Bundle::from_json(&json).unwrap();
        assert_eq!(back.schedule, s);
        assert_eq!(back.algorithm, "FTSA");
        // The reassembled instance still validates the schedule.
        validate(&back.instance(), &back.schedule).unwrap();

        // Parts that do not fit together are an error, not a panic in
        // `instance()`.
        let narrow = Bundle {
            platform: Platform::uniform_delay(4, 1.0),
            ..b.clone()
        };
        let short = Bundle {
            dag: taskgraph::DagBuilder::new().build().unwrap(),
            ..b
        };
        for bad in [narrow, short] {
            let err = Bundle::from_json(&bad.to_json().unwrap()).unwrap_err();
            assert!(err.to_string().contains("bundle parts disagree"), "{err}");
        }
    }
}
