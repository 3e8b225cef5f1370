//! Library backing the `ftsched` command-line tool.
//!
//! Commands:
//!
//! * `generate` — emit a task graph (random family or structured
//!   workload) as JSON, optionally with a Graphviz DOT rendering.
//! * `schedule` — read a graph, draw a paper-style random platform, run
//!   one of the algorithms, and write a self-contained *bundle* (graph +
//!   platform + execution matrix + schedule) for later simulation. The
//!   bundle's text is cut into ordered pieces that two threads render
//!   (see [`bundle`]): a scoped render thread streams `dag` into the
//!   file and renders the instance's pieces while the calling thread
//!   schedules; once the schedule is validated and its stats computed,
//!   the calling thread pulls pieces beside it. The pieces reach the
//!   file in order, so it is byte for byte [`Bundle::to_json`] of the
//!   same run. Options are checked before the graph is read (`--procs`
//!   at most [`platform::MAX_PROCS`]), and input errors are found before
//!   the file is created; a later failure (scheduler, `validate` or a
//!   write) removes the output if it is a regular file and unlinks
//!   nothing else.
//! * `simulate` — read a bundle, crash a chosen or random processor set,
//!   and report the achieved latency with an ASCII Gantt chart; or run a
//!   parallel Monte-Carlo crash campaign with `--replications`.
//! * `reliability` — Monte-Carlo survival estimate of a bundle under
//!   independent processor failures, through the simulator's parallel
//!   executor (`--threads` pins the worker count; results are identical
//!   at any thread count).
//! * `campaign` — run a declarative scenario grid: a named preset (every
//!   figure and table of the paper is one) or an arbitrary
//!   `CampaignSpec` JSON file, with streaming aggregation and unified
//!   CSV/JSON emission (see `experiments::campaign`).
//! * `serve` — the streaming campaign service: accept `CampaignSpec`
//!   JSON over HTTP, run its groups across workers, and chunk-stream the
//!   statistics back byte-identical to `campaign`'s file emission; with
//!   `--data-dir`, runs are durable — every group WAL-checkpointed
//!   (one `fsync` per batch of ready groups) before it is streamed, and
//!   resumed bit-exactly after a crash (see `experiments::serve`).
//! * `info` — structural statistics of a graph file.
//!
//! The binary prints a command's text on stdout; a stdout it cannot
//! write (closed, or a full device) is an error like any other, `exit
//! 1` with `error: writing stdout: …` on stderr.
//!
//! Argument parsing is the tiny `--key value` scanner in [`args`] — the
//! sanctioned dependency set has no CLI parser, and the surface is
//! small. Each command declares the options it accepts; an unknown
//! option is an error, never silently ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod bundle;
pub mod commands;

pub use args::Args;
pub use bundle::Bundle;

/// Entry point shared by `main` and the tests.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err(usage());
    };
    let args = &argv[1..];
    match cmd.as_str() {
        "generate" => commands::generate(args),
        "schedule" => commands::schedule_cmd(args),
        "simulate" => commands::simulate_cmd(args),
        "reliability" => commands::reliability(args),
        "campaign" => commands::campaign(args),
        "serve" => commands::serve(args),
        "info" => commands::info(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

/// The usage banner.
pub fn usage() -> String {
    "\
ftsched — fault-tolerant scheduling of precedence task graphs

USAGE:
  ftsched generate --family <layered|erdos|forkjoin|gauss|fft|stencil|wavefront|mapreduce>
                   [--tasks N] [--size N] [--seed S] --out graph.json [--dot graph.dot]
  ftsched schedule --graph graph.json --procs M --epsilon E
                   [--algorithm ftsa|mc-ftsa|mc-ftsa-bn|ftbar|p-ftsa|ftsa-mst|mc-ftbar]
                   [--seed S] [--granularity G] --out bundle.json
  ftsched simulate --bundle bundle.json [--fail 0,3,7 | --random-failures K]
                   [--replications N [--crashes K] [--threads T]]
                   [--seed S] [--gantt]
  ftsched reliability --bundle bundle.json [--p P] [--samples N] [--seed S] [--threads T]
  ftsched campaign --preset <fig1|fig2|fig3|fig4|table1|table1-full|contention|reliability|timed-crash|online|ci-smoke>
                   | --spec grid.json
                   [--reps N | --quick] [--threads T] [--out DIR] [--dump-spec]
                   (extra series: set extra_algorithms in a --dump-spec file, run it with --spec)
  ftsched serve [--addr 127.0.0.1:7878] [--threads T] [--queue N] [--data-dir DIR]
                (POST /campaigns with a CampaignSpec JSON body streams the
                 statistics; resubmitting a spec replays the existing run;
                 GET /campaigns lists runs, GET /campaigns/<key> replays or
                 resumes one; --data-dir makes runs durable: a restart
                 recovers them and resumes interrupted runs bit-exactly)
  ftsched info --graph graph.json

`--threads 0` (the default) resolves from FTSCHED_THREADS or the
available parallelism; sweeps yield identical results at any thread
count. Exception: specs that time the algorithms (table1, table1-full)
run on one thread unless --threads explicitly asks otherwise.
--reps and --quick leave table1, table1-full and reliability at their
single repetition (their cells do not vary by repetition).
"
    .to_string()
}
