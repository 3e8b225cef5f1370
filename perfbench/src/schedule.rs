//! `schedule-100k`: one operation runs the real `ftsched schedule`
//! command three times back to back (FTSA, MC-FTSA, FTBAR) on one
//! generated layered graph, each job writing its bundle file.
//!
//! Set-up (`setup_s`) is the `ftsched generate` step, timed at the
//! start and before every operation. The reference is computed once per run through the same
//! library calls `schedule_cmd` makes: each written bundle must be
//! byte-identical (length and [`digest`]) to the reference bundle, whose
//! schedule re-validated and whose M*/M bits are recorded; the last
//! operation's bundles are also parsed back, re-validated, and their
//! M*/M bits compared with the reference. The traced
//! operation makes those library calls itself, each inside a span.

use crate::measure::{
    cpu_seconds, derive_seed, digest, median, span_medians, timed, OpPeak, Samples, Spans, Window,
};
use crate::{sum_check, Opts, Report, Size};
use ftsched_cli::Bundle;
use ftsched_core::{stats::schedule_stats, validate::validate, Algorithm};
use platform::gen::random_platform;
use platform::{ExecutionMatrix, Instance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// The three algorithms of an operation, by CLI key, in job order.
pub const ALGS: [&str; 3] = ["ftsa", "mc-ftsa", "ftbar"];

/// How many times set-up generates the graph before the first operation
/// (once more before each operation; the median is reported).
const GENERATE_REPS: usize = 3;

/// Workload shape at a given size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tasks in the generated graph.
    pub tasks: usize,
    /// Processors of the drawn platform.
    pub procs: usize,
    /// Tolerated failures ε.
    pub epsilon: usize,
}

/// The workload's parameters at `size`.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            tasks: 100_000,
            procs: 20,
            epsilon: 1,
        },
        Size::Tiny => Params {
            tasks: 2_000,
            procs: 6,
            epsilon: 1,
        },
    }
}

/// The generated inputs: the graph seed (`generate --seed`) and the
/// platform/tie-break seed (`schedule --seed`).
pub fn input_seeds(seed: u64) -> (u64, u64) {
    (
        derive_seed(seed, 0x5C4E_0001),
        derive_seed(seed, 0x5C4E_0002),
    )
}

/// What a correct bundle of one job looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Bundle length in bytes.
    pub len: u64,
    /// [`digest`] of the bundle bytes.
    pub digest: u64,
    /// `M*` bits of the library schedule.
    pub lower_bits: u64,
    /// `M` bits of the library schedule.
    pub upper_bits: u64,
    /// Replicas placed.
    pub replicas: usize,
    /// Messages of the fault-free run.
    pub messages: usize,
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Where an operation writes the bundle of algorithm `alg`.
pub fn bundle_path(dir: &Path, alg: &str) -> PathBuf {
    dir.join(format!("bundle-{alg}.json"))
}

/// `ftsched generate` for the workload's graph.
pub fn generate(p: &Params, graph_seed: u64, out: &Path) -> Result<String, String> {
    ftsched_cli::run(&argv(&[
        "generate",
        "--family",
        "layered",
        "--tasks",
        &p.tasks.to_string(),
        "--seed",
        &graph_seed.to_string(),
        "--out",
        &path_str(out),
    ]))
}

/// One untraced operation: the three `ftsched schedule` jobs through
/// [`ftsched_cli::run`], writing `bundle-<alg>.json` into `dir`. Returns
/// each job's wall time.
pub fn cli_op(p: &Params, graph: &Path, seed: u64, dir: &Path) -> Result<[f64; 3], String> {
    let mut secs = [0.0; 3];
    for (i, alg) in ALGS.iter().enumerate() {
        let out = bundle_path(dir, alg);
        let (res, s) = timed(|| {
            ftsched_cli::run(&argv(&[
                "schedule",
                "--graph",
                &path_str(graph),
                "--procs",
                &p.procs.to_string(),
                "--epsilon",
                &p.epsilon.to_string(),
                "--algorithm",
                alg,
                "--seed",
                &seed.to_string(),
                "--out",
                &path_str(&out),
            ]))
        });
        res?;
        secs[i] = s;
    }
    Ok(secs)
}

/// One job through the library calls `schedule_cmd` makes, in its
/// order, each inside a span. Writes the bundle to `out` when given.
fn library_job(
    p: &Params,
    graph: &Path,
    seed: u64,
    alg_index: usize,
    out: Option<&Path>,
    spans: &mut Spans,
) -> Result<Expected, String> {
    let key = ALGS[alg_index];
    let algorithm: Algorithm = key.parse()?;
    let text = spans
        .span("cli.graph_read_s", || std::fs::read_to_string(graph))
        .map_err(|e| e.to_string())?;
    let dag = spans
        .span("taskgraph.from_json_s", || taskgraph::io::from_json(&text))
        .map_err(|e| e.to_string())?;
    drop(text);
    let inst_and_rng = spans.span("platform.instance_s", || {
        let mut rng = StdRng::seed_from_u64(seed);
        let platform = random_platform(&mut rng, p.procs, 0.5, 1.0);
        let exec = ExecutionMatrix::unrelated_with_procs(&dag, p.procs, &mut rng, 0.5);
        (Instance::new(dag, platform, exec), rng)
    });
    let (inst, mut rng) = inst_and_rng;
    let sched = spans
        .span(schedule_span(alg_index), || {
            ftsched_core::schedule(&inst, p.epsilon, algorithm, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    spans
        .span(validate_span(alg_index), || validate(&inst, &sched))
        .map_err(|e| e.to_string())?;
    let (lower_bits, upper_bits) = (
        sched.latency_lower_bound().to_bits(),
        sched.latency_upper_bound().to_bits(),
    );
    let (bundle, json) = spans.span(bundle_json_span(alg_index), || {
        let bundle = Bundle {
            dag: inst.dag.clone(),
            platform: inst.platform.clone(),
            exec: inst.exec.clone(),
            schedule: sched,
            algorithm: algorithm.name().to_string(),
        };
        let json = bundle.to_json();
        (bundle, json)
    });
    let json = json.map_err(|e| e.to_string())?;
    if let Some(out) = out {
        spans
            .span(bundle_write_span(alg_index), || std::fs::write(out, &json))
            .map_err(|e| e.to_string())?;
    }
    let stats = spans.span(stats_span(alg_index), || {
        let stats = schedule_stats(&inst, &bundle.schedule);
        let msg = format!(
            "{} schedule, ε = {}, {} processors\n{stats}\n",
            bundle.algorithm, p.epsilon, p.procs
        );
        (stats, msg)
    });
    Ok(Expected {
        len: json.len() as u64,
        digest: digest(json.as_bytes()),
        lower_bits,
        upper_bits,
        replicas: stats.0.replicas,
        messages: stats.0.messages,
    })
}

fn schedule_span(i: usize) -> &'static str {
    [
        "core.schedule_s.ftsa",
        "core.schedule_s.mc-ftsa",
        "core.schedule_s.ftbar",
    ][i]
}
fn validate_span(i: usize) -> &'static str {
    [
        "core.validate_s.ftsa",
        "core.validate_s.mc-ftsa",
        "core.validate_s.ftbar",
    ][i]
}
fn stats_span(i: usize) -> &'static str {
    [
        "core.stats_s.ftsa",
        "core.stats_s.mc-ftsa",
        "core.stats_s.ftbar",
    ][i]
}
fn bundle_json_span(i: usize) -> &'static str {
    [
        "cli.bundle_json_s.ftsa",
        "cli.bundle_json_s.mc-ftsa",
        "cli.bundle_json_s.ftbar",
    ][i]
}
fn bundle_write_span(i: usize) -> &'static str {
    [
        "cli.bundle_write_s.ftsa",
        "cli.bundle_write_s.mc-ftsa",
        "cli.bundle_write_s.ftbar",
    ][i]
}

/// The reference bundle of each algorithm, computed through the library
/// calls `schedule_cmd` makes (the schedule is validated on the way).
pub fn reference(p: &Params, graph: &Path, seed: u64) -> Result<Vec<Expected>, String> {
    (0..ALGS.len())
        .map(|i| {
            library_job(p, graph, seed, i, None, &mut Spans::default())
                .map_err(|e| format!("reference {}: {e}", ALGS[i]))
        })
        .collect()
}

/// Whether the bundle at `path` is byte-identical to the reference.
pub fn check_bundle(path: &Path, expected: &Expected) -> bool {
    matches!(std::fs::read(path), Ok(bytes)
        if bytes.len() as u64 == expected.len && digest(&bytes) == expected.digest)
}

/// Parses a written bundle back, re-validates its schedule on its own
/// instance, and compares its M*/M bits with the library reference.
pub fn deep_check(path: &Path, expected: &Expected) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let Ok(bundle) = Bundle::from_json(&text) else {
        return false;
    };
    drop(text);
    validate(&bundle.instance(), &bundle.schedule).is_ok()
        && bundle.schedule.latency_lower_bound().to_bits() == expected.lower_bits
        && bundle.schedule.latency_upper_bound().to_bits() == expected.upper_bits
}

/// Deletes an operation's bundles before the next one writes its own:
/// fresh files are never flushed to disk before they are deleted, while
/// rewriting a file in place would be.
fn remove_bundles(dir: &Path) {
    for alg in ALGS {
        let _ = std::fs::remove_file(bundle_path(dir, alg));
    }
}

fn check_op(dir: &Path, expected: &[Expected], deep: bool) -> bool {
    ALGS.iter().zip(expected).all(|(alg, exp)| {
        let path = bundle_path(dir, alg);
        check_bundle(&path, exp) && (!deep || deep_check(&path, exp))
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let p = params(opts.size);
    let (graph_seed, sched_seed) = input_seeds(opts.seed);
    let dir = &opts.work_dir;
    let graph = dir.join("graph.json");
    let mut report = Report::default();

    // `generate` is timed at the start and again before every operation,
    // so set-up samples span the run. Each sample writes a fresh file:
    // rewriting one in place makes the filesystem flush it to disk, and
    // that write-back would disturb the measurements that follow. The
    // first sample's file becomes the workload's graph.
    let sample_path = dir.join("graph-setup.json");
    let setup_sample = || -> Result<f64, String> {
        let (res, secs) = timed(|| generate(&p, graph_seed, &sample_path));
        res.map_err(|e| format!("generate: {e}"))?;
        let _ = std::fs::remove_file(&sample_path);
        Ok(secs)
    };
    let (res, secs) = timed(|| generate(&p, graph_seed, &graph));
    res.map_err(|e| format!("generate: {e}"))?;
    let mut setups = vec![secs];
    for _ in 1..GENERATE_REPS {
        setups.push(setup_sample()?);
    }
    let graph_bytes = std::fs::metadata(&graph).map_err(|e| e.to_string())?.len();

    let expected = reference(&p, &graph, sched_seed)?;

    let mut window = Window::new(opts.seconds);
    let mut ops = Samples::default();
    let mut jobs: [Samples; 3] = Default::default();
    let mut traced = Samples::default();
    let mut span_ops = Vec::new();
    let mut cpu = 0.0;
    let mut rss = OpPeak::default();
    while window.open() {
        setups.push(setup_sample()?);
        remove_bundles(dir);
        let c0 = cpu_seconds();
        let (res, secs) = rss.around(|| timed(|| cli_op(&p, &graph, sched_seed, dir)));
        cpu += cpu_seconds() - c0;
        window.add(secs);
        ops.push(secs);
        if let Ok(job_secs) = &res {
            for (s, &j) in jobs.iter_mut().zip(job_secs) {
                s.push(j);
            }
        }
        report.count(res.is_ok() && check_op(dir, &expected, false));

        if opts.trace {
            remove_bundles(dir);
            let mut spans = Spans::default();
            let (res, secs) = timed(|| -> Result<(), String> {
                for (i, alg) in ALGS.iter().enumerate() {
                    let out = bundle_path(dir, alg);
                    library_job(&p, &graph, sched_seed, i, Some(&out), &mut spans)?;
                }
                Ok(())
            });
            window.add(secs);
            traced.push(secs);
            span_ops.push(spans);
            report.count(res.is_ok() && check_op(dir, &expected, false));
        }
    }
    report.lines.push(window.stolen_line());
    report.lines.push(rss.line());
    // Every operation's bundles were byte-identical to the reference;
    // parse the last ones back and re-validate them too.
    if report.failed == 0 && !check_op(dir, &expected, true) {
        report.failed += 1;
    }

    report.set("setup_s", median(&setups).expect("set-up samples"));
    let op_s = ops.median().expect("at least one operation");
    report.lines.push(ops.summary("job triple (op_s)"));
    for (alg, s) in ALGS.iter().zip(&jobs) {
        report.lines.push(s.summary(&format!("job_s.{alg}")));
    }
    if opts.trace {
        let medians = span_medians(&span_ops);
        let layers: f64 = medians.values().sum();
        for (&name, &v) in &medians {
            report.set(name, v);
        }
        report.set("taskgraph.graph_bytes", graph_bytes as f64);
        let counts = [
            [
                "core.replicas.ftsa",
                "core.replicas.mc-ftsa",
                "core.replicas.ftbar",
            ],
            [
                "core.messages.ftsa",
                "core.messages.mc-ftsa",
                "core.messages.ftbar",
            ],
            [
                "cli.bundle_bytes.ftsa",
                "cli.bundle_bytes.mc-ftsa",
                "cli.bundle_bytes.ftbar",
            ],
        ];
        for (i, exp) in expected.iter().enumerate() {
            report.set(counts[0][i], exp.replicas as f64);
            report.set(counts[1][i], exp.messages as f64);
            report.set(counts[2][i], exp.len as f64);
        }
        report.lines.push(traced.summary("traced job triple"));
        sum_check(&mut report, layers, op_s, traced.median());
    } else {
        report.set("op_s", op_s);
        report.set("cpu_s", cpu / ops.len() as f64);
        report.set("peak_rss_mb", rss.mb());
    }
    Ok(report)
}
