//! Command implementations. Each takes its arguments (after the command
//! word), declares the options and flags it accepts at its top, and
//! returns the text to print on success.

use crate::args::Args;
use crate::bundle::{write_bundle, Bundle};
use experiments::campaign::{
    presets, run_campaign_with_threads, CampaignSpec, ForkJoinShape, StructuredKernel,
    StructuredWorkload, TaskCount, WorkloadSpec,
};
use experiments::output::{campaign_to_table, write_campaign_outputs};
use experiments::parallel::default_threads;
use experiments::serve::{ServeConfig, Server};
use ftsched_core::stats::{schedule_stats, ScheduleStats};
use ftsched_core::{schedule as run_schedule, validate::validate, Algorithm, ScheduleError};
use platform::gen::random_platform;
use platform::granularity::scale_to_granularity;
use platform::{ExecutionMatrix, FailureScenario, Instance, ProcId, MAX_PROCS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::crash::summarize_replications;
use simulator::reliability::survival_probability_monte_carlo_par;
use simulator::simulate;
use simulator::trace::gantt;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::Write as _;
use taskgraph::Dag;

fn read_graph(path: &str) -> Result<Dag, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    taskgraph::io::from_json(&s).map_err(|e| format!("parsing {path}: {e}"))
}

/// `ftsched generate`
pub fn generate(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv, "--family --tasks --size --seed --out --dot", "")?;
    let family = args.require("family")?;
    let seed: u64 = args.get_num("seed", 42)?;
    let tasks: usize = args.get_num("tasks", 120)?;
    let size: usize = args.get_num("size", 8)?;
    // Each family is a campaign workload: `--tasks` or `--size` sets its
    // shape, and the graph is what a campaign draws for it.
    let kernel = |kernel| WorkloadSpec::Structured(StructuredWorkload { kernel, size });
    let (workload, name, value) = match family {
        "layered" => (WorkloadSpec::Layered(TaskCount { tasks }), "tasks", tasks),
        "erdos" => (WorkloadSpec::Erdos(TaskCount { tasks }), "tasks", tasks),
        "forkjoin" => {
            let shape = ForkJoinShape {
                width: size,
                depth: size,
            };
            (WorkloadSpec::ForkJoin(shape), "size", size)
        }
        "gauss" => (kernel(StructuredKernel::GaussianElimination), "size", size),
        "fft" => (kernel(StructuredKernel::Fft), "size", size),
        "stencil" => (kernel(StructuredKernel::Stencil1d), "size", size),
        "wavefront" => (kernel(StructuredKernel::Wavefront), "size", size),
        "mapreduce" => (kernel(StructuredKernel::MapReduce), "size", size),
        other => return Err(format!("unknown graph family `{other}`")),
    };
    // The generators assert a non-empty shape: name the option instead
    // (`gauss` and `fft` round a small size up).
    if value == 0 && !matches!(family, "gauss" | "fft") {
        return Err(format!(
            "--{name} must be at least 1 for the {family} family"
        ));
    }
    workload
        .check_size()
        .map_err(|e| format!("--{name} {value} {e}"))?;
    let dag = workload.build_dag(&mut StdRng::seed_from_u64(seed));

    let out = args.require("out")?;
    let file = File::create(out).map_err(|e| format!("writing {out}: {e}"))?;
    // Streamed, so the text is never held whole in memory.
    serde_json::to_writer_pretty(file, &dag).map_err(|e| format!("writing {out}: {e}"))?;
    let mut msg = format!(
        "wrote {out}: {} tasks, {} edges ({family})\n",
        dag.num_tasks(),
        dag.num_edges()
    );
    if let Some(dot) = args.get("dot") {
        std::fs::write(dot, taskgraph::io::to_dot(&dag))
            .map_err(|e| format!("writing {dot}: {e}"))?;
        let _ = writeln!(msg, "wrote {dot} (Graphviz)");
    }
    Ok(msg)
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    name.parse()
}

/// `ftsched schedule`
///
/// Writes the bundle on two threads through [`write_bundle`]: a scoped
/// render thread streams `dag` into the output file and renders the
/// instance's pieces while the calling thread schedules; the calling
/// thread then validates the schedule, computes its stats, and renders
/// the remaining pieces beside the render thread. The pieces reach the
/// file in order, so it is byte for byte [`Bundle::to_json`] of the
/// same run.
///
/// Every option that needs no graph is checked before the graph is
/// read, so a typo costs no parse of a large graph. The file exists
/// before the schedule does, so everything the input decides is checked
/// before it is created: `--out` is given, `ε + 1 ≤ --procs`, and the
/// granularity applies to the graph. If the scheduler still fails,
/// `validate` rejects the schedule or a write fails, the first of
/// these errors, in that order, is returned, and the output is removed
/// when it is a regular file; nothing else (a device, FIFO, directory
/// or symlink, say `--out /dev/stdout`) is unlinked.
pub fn schedule_cmd(argv: &[String]) -> Result<String, String> {
    let options = "--graph --procs --epsilon --algorithm --seed --granularity --out";
    let args = Args::parse(argv, options, "")?;
    let graph = args.require("graph")?;
    let procs: usize = args.require_num("procs")?;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    if procs > MAX_PROCS {
        return Err(format!("--procs must be at most {MAX_PROCS}, got {procs}"));
    }
    let epsilon: usize = args.require_num("epsilon")?;
    let seed: u64 = args.get_num("seed", 42)?;
    let algorithm = parse_algorithm(args.get("algorithm").unwrap_or("ftsa"))?;
    let granularity = match args.get("granularity") {
        None => None,
        Some(g) => {
            let g: f64 = g.parse().map_err(|_| "bad --granularity")?;
            if !(g > 0.0 && g.is_finite()) {
                return Err(format!(
                    "--granularity must be positive and finite, got {g}"
                ));
            }
            Some(g)
        }
    };
    let out = args.require("out")?;
    if epsilon + 1 > procs {
        return Err(ScheduleError::NotEnoughProcessors { epsilon, procs }.to_string());
    }

    let dag = read_graph(graph)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let platform = random_platform(&mut rng, procs, 0.5, 1.0);
    let mut exec = ExecutionMatrix::unrelated_with_procs(&dag, procs, &mut rng, 0.5);
    if let Some(g) = granularity {
        // The error text starts with "granularity": name the option.
        scale_to_granularity(&dag, &platform, &mut exec, g).map_err(|e| format!("--{e}"))?;
    }
    let inst = Instance::new(dag, platform, exec);

    let stats = schedule_and_render(&inst, epsilon, algorithm, &mut rng, out)?;
    Ok(format!(
        "{} schedule, ε = {epsilon}, {} processors\n{stats}\nwrote {out}\n",
        algorithm.name(),
        procs,
    ))
}

/// Creates `out` and writes the bundle of [`schedule_cmd`] into it, the
/// check being `validate` and the stats. On an error the output is
/// removed when it is a regular file.
fn schedule_and_render(
    inst: &Instance,
    epsilon: usize,
    algorithm: Algorithm,
    rng: &mut StdRng,
    out: &str,
) -> Result<ScheduleStats, String> {
    let file = File::create(out).map_err(|e| format!("writing {out}: {e}"))?;
    let (stats, written) = write_bundle(
        &file,
        inst,
        algorithm.name(),
        || run_schedule(inst, epsilon, algorithm, rng).map_err(|e| e.to_string()),
        |sched| {
            validate(inst, sched).map_err(|e| e.to_string())?;
            Ok(schedule_stats(inst, sched))
        },
    );
    let outcome = stats.and_then(|stats| {
        written.map_err(|e| format!("writing {out}: {e}"))?;
        Ok(stats)
    });
    if outcome.is_err() && fs::symlink_metadata(out).is_ok_and(|m| m.is_file()) {
        let _ = fs::remove_file(out);
    }
    outcome
}

/// `ftsched simulate`
pub fn simulate_cmd(argv: &[String]) -> Result<String, String> {
    let options = "--bundle --fail --random-failures --replications --crashes --threads --seed";
    let args = Args::parse(argv, options, "--gantt")?;
    let path = args.require("bundle")?;
    let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bundle = Bundle::from_json(&s).map_err(|e| format!("parsing {path}: {e}"))?;
    let inst = bundle.instance();

    // Monte-Carlo mode: many random scenarios through the parallel
    // replication campaign instead of one simulation. The single-run
    // scenario options would be silently meaningless here, so reject
    // them instead of ignoring them.
    if let Some(reps) = args.get("replications") {
        for conflicting in ["fail", "random-failures"] {
            if args.get(conflicting).is_some() {
                return Err(format!(
                    "--replications draws its own random scenarios; \
                     it cannot be combined with --{conflicting} (use --crashes K)"
                ));
            }
        }
        if args.has_flag("gantt") {
            return Err("--gantt applies to a single simulation, not --replications".into());
        }
        let reps: usize = reps.parse().map_err(|_| "bad --replications")?;
        if reps == 0 {
            return Err("--replications must be at least 1".into());
        }
        let crashes: usize = args.get_num("crashes", bundle.schedule.epsilon)?;
        check_crash_count("crashes", crashes, inst.num_procs())?;
        let seed: u64 = args.get_num("seed", 42)?;
        let threads = threads_from(&args)?;
        let runs = summarize_replications(&inst, &bundle.schedule, crashes, reps, seed, threads);
        let completed = runs.completed;
        let mut out = format!(
            "{reps} replications x {crashes} crash(es) on {threads} thread(s)\n\
             completed: {completed}/{reps}\n",
        );
        if let Some(mean) = runs.mean_latency() {
            let (min, max) = (runs.latency_min, runs.latency_max);
            let _ = writeln!(
                out,
                "latency over completed runs: mean {mean:.3}, min {min:.3}, max {max:.3}\n\
                 schedule bounds: [{:.3}, {:.3}]",
                bundle.schedule.latency_lower_bound(),
                bundle.schedule.latency_upper_bound()
            );
        }
        return Ok(out);
    }

    let scenario = if let Some(list) = args.get("fail") {
        let ids: Result<Vec<u32>, _> = list.split(',').map(str::parse).collect();
        let ids = ids.map_err(|_| "bad --fail list (expected e.g. 0,3,7)")?;
        for (i, &p) in ids.iter().enumerate() {
            if p as usize >= inst.num_procs() {
                return Err(format!("--fail: no processor P{p}"));
            }
            if ids[..i].contains(&p) {
                return Err(format!("--fail: P{p} is listed twice"));
            }
        }
        FailureScenario::at_time_zero(ids.into_iter().map(ProcId))
    } else if let Some(k) = args.get("random-failures") {
        let k: usize = k.parse().map_err(|_| "bad --random-failures")?;
        check_crash_count("random-failures", k, inst.num_procs())?;
        let seed: u64 = args.get_num("seed", 42)?;
        FailureScenario::uniform(&mut StdRng::seed_from_u64(seed), inst.num_procs(), k)
    } else {
        FailureScenario::none()
    };

    let sim = simulate(&inst, &bundle.schedule, &scenario);
    let failed: Vec<String> = scenario.iter().map(|(p, _)| p.to_string()).collect();
    let mut out = format!(
        "scenario: {} failed [{}]\n",
        scenario.len(),
        failed.join(", ")
    );
    if sim.completed() {
        let _ = writeln!(
            out,
            "completed; achieved latency {:.3} (bounds: [{:.3}, {:.3}])",
            sim.latency,
            bundle.schedule.latency_lower_bound(),
            bundle.schedule.latency_upper_bound()
        );
    } else {
        let _ = writeln!(
            out,
            "FAILED: a task lost all replicas (scenario exceeds the design ε = {})",
            bundle.schedule.epsilon
        );
    }
    if args.has_flag("gantt") {
        let _ = write!(out, "\n{}", gantt(&inst, &bundle.schedule, &sim, 72));
    }
    Ok(out)
}

/// Rejects a `--{flag}` crash count above the bundle's `procs`.
fn check_crash_count(flag: &str, crashes: usize, procs: usize) -> Result<(), String> {
    if crashes > procs {
        return Err(format!(
            "--{flag} {crashes} exceeds the bundle's {procs} processors"
        ));
    }
    Ok(())
}

/// Worker count from `--threads` (0 or absent = `FTSCHED_THREADS` /
/// available parallelism via [`default_threads`]).
fn threads_from(args: &Args) -> Result<usize, String> {
    let t: usize = args.get_num("threads", 0)?;
    Ok(if t == 0 { default_threads() } else { t })
}

/// `ftsched reliability` — Monte-Carlo survival estimate of a saved
/// bundle: every processor fails independently with probability `--p`,
/// over `--samples` draws fanned out on the parallel harness (identical
/// figures at any `--threads`).
pub fn reliability(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv, "--bundle --p --samples --seed --threads", "")?;
    let path = args.require("bundle")?;
    let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bundle = Bundle::from_json(&s).map_err(|e| format!("parsing {path}: {e}"))?;
    let inst = bundle.instance();
    let p: f64 = args.get_num("p", 0.1)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--p must be a probability in [0, 1], got {p}"));
    }
    let samples: usize = args.get_num("samples", 10_000)?;
    if samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    let seed: u64 = args.get_num("seed", 42)?;
    let threads = threads_from(&args)?;
    let mc =
        survival_probability_monte_carlo_par(&inst, &bundle.schedule, p, samples, seed, threads);
    Ok(format!(
        "Monte-Carlo reliability ({samples} samples, p = {p}, {threads} thread(s))\n\
         P(survive) = {:.6}\nE[latency | survival] = {:.3}\n",
        mc.survival, mc.expected_latency
    ))
}

/// `ftsched campaign` — runs a declarative scenario grid: a named
/// preset (`--preset fig1|…|ci-smoke`) or an arbitrary spec file
/// (`--spec grid.json`), with streaming aggregation and unified CSV/JSON
/// emission. Results are bit-identical at any `--threads` count.
pub fn campaign(argv: &[String]) -> Result<String, String> {
    let options = "--preset --spec --reps --threads --out";
    let args = Args::parse(argv, options, "--quick --dump-spec")?;
    // The repetition override applies to *both* sources — a spec file
    // run with `--quick` must actually shrink, not silently ignore the
    // flag and burn the full grid.
    let reps_override: Option<usize> = if args.has_flag("quick") {
        Some(10)
    } else {
        args.get("reps")
            .map(|s| s.parse().map_err(|_| "bad --reps"))
            .transpose()?
    };
    let mut spec: CampaignSpec = match (args.get("preset"), args.get("spec")) {
        (Some(_), Some(_)) => return Err("--preset and --spec are mutually exclusive".into()),
        (Some(name), None) => presets::preset(name, None).ok_or_else(|| {
            format!(
                "unknown preset `{name}` (expected one of: {})",
                presets::PRESET_NAMES.join("|")
            )
        })?,
        (None, Some(path)) => {
            let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            CampaignSpec::from_json(&s).map_err(|e| format!("parsing {path}: {e}"))?
        }
        (None, None) => {
            return Err(format!(
                "campaign needs --preset <name> or --spec <file.json>\n\
                 presets: {}",
                presets::PRESET_NAMES.join(", ")
            ))
        }
    };
    if let Some(r) = reps_override {
        if r == 0 {
            return Err("--reps must be at least 1".into());
        }
        // A seeding that ignores the repetition index would only redo
        // identical work, so such specs keep their single repetition.
        if spec.seeding.uses_repetition_index() {
            spec.repetitions = r;
        }
    }
    if args.has_flag("dump-spec") {
        return spec.to_json();
    }
    // Wall-clock columns measure the algorithms; cells running at the
    // same time would contend for cores and distort them, so a timing
    // spec runs on one thread unless --threads asks otherwise.
    let threads = match args.get_num("threads", 0)? {
        0 if spec.measures.timing => 1,
        0 => default_threads(),
        t => t,
    };

    let res = run_campaign_with_threads(&spec, threads).map_err(|e| e.to_string())?;
    let mut out = format!(
        "== campaign {}: {} cells ({} workloads x {} platforms x {} eps x {} reps), \
         {threads} thread(s) ==\n\n",
        spec.id,
        spec.num_cells(),
        spec.workloads.len(),
        spec.platforms.len(),
        spec.epsilons.len(),
        spec.repetitions,
    );
    out.push_str(&campaign_to_table(&res));
    if let Some(dir) = args.get("out") {
        let (csv, json) = write_campaign_outputs(&res, std::path::Path::new(dir))
            .map_err(|e| format!("writing outputs: {e}"))?;
        let _ = writeln!(out, "[csv] {}", csv.display());
        let _ = writeln!(out, "[json] {}", json.display());
    }
    Ok(out)
}

/// `ftsched serve` — the streaming campaign service. Binds
/// (recovering persisted runs first when `--data-dir` is given), prints
/// the listening address, then blocks in the accept loop; the response
/// bytes for a spec are identical to what `ftsched campaign` writes for
/// it (see `experiments::serve` for the wire protocol and the
/// durability contract).
pub fn serve(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv, "--addr --threads --queue --data-dir", "")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let config = ServeConfig {
        threads: threads_from(&args)?,
        queue: args.get_num("queue", 32)?,
        data_dir: args.get("data-dir").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let durable = config.data_dir.is_some();
    let server = Server::bind(addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // The port line is parsed by supervisors and tests spawning the
    // binary with piped stdout; flush pushes it past the pipe's buffer.
    let mut stdout = std::io::stdout();
    writeln!(
        stdout,
        "ftsched serve listening on http://{local} \
         (POST /campaigns, GET /campaigns[/<key>], GET /healthz, GET /metrics{})",
        if durable { ", durable runs on" } else { "" }
    )
    .and_then(|()| stdout.flush())
    .map_err(|e| format!("writing stdout: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(String::new())
}

/// `ftsched info`
pub fn info(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv, "--graph", "")?;
    let dag = read_graph(args.require("graph")?)?;
    let st = taskgraph::metrics::stats(&dag);
    Ok(format!(
        "tasks: {}\nedges: {}\nentries: {}\nexits: {}\ndepth: {}\nwidth (level bound): {}\n\
         mean out-degree: {:.2}\ntotal work: {:.1}\ntotal volume: {:.1}\n\
         computation critical path: {:.1}\n",
        st.tasks,
        st.edges,
        st.entries,
        st.exits,
        st.depth,
        st.width_lb,
        st.mean_out_degree,
        st.total_work,
        st.total_volume,
        taskgraph::metrics::critical_path_length(&dag, 0.0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::campaign::LayeredRange;
    use std::sync::mpsc;
    use std::thread;
    use taskgraph::generators::{layered, LayeredConfig};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ftsched_cli_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn full_cli_round_trip() {
        let graph = tmp("graph.json");
        let bundle = tmp("bundle.json");

        let msg = generate(&argv(&format!("--family gauss --size 6 --out {graph}"))).unwrap();
        assert!(msg.contains("tasks"));

        let msg = schedule_cmd(&argv(&format!(
            "--graph {graph} --procs 6 --epsilon 2 --algorithm mc-ftsa --out {bundle}"
        )))
        .unwrap();
        assert!(msg.contains("latency (M*/M)"), "{msg}");
        assert!(msg.contains("utilization"));

        let msg = simulate_cmd(&argv(&format!("--bundle {bundle} --fail 0,1 --gantt"))).unwrap();
        assert!(msg.contains("completed"), "{msg}");
        assert!(msg.contains('#'));

        let msg = info(&argv(&format!("--graph {graph}"))).unwrap();
        assert!(msg.contains("critical path"));

        let _ = std::fs::remove_file(graph);
        let _ = std::fs::remove_file(bundle);
    }

    /// The scheduler fails after the output exists (here `ε + 1 > m`,
    /// which `schedule_cmd` rejects earlier): the render thread must
    /// stop rather than wait for a schedule, the scheduler's error comes
    /// back, and the partly written regular file is removed.
    #[test]
    fn a_late_scheduler_failure_stops_the_render_thread_and_removes_the_file() {
        let out = tmp("late-failure.json");
        let (tx, rx) = mpsc::channel();
        let path = out.clone();
        // A render thread left waiting would hang the call: time it out.
        thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(4);
            let dag = layered(&mut rng, &LayeredConfig::paper(2000));
            let platform = random_platform(&mut rng, 2, 0.5, 1.0);
            let exec = ExecutionMatrix::unrelated_with_procs(&dag, 2, &mut rng, 0.5);
            let inst = Instance::new(dag, platform, exec);
            for algorithm in [Algorithm::Ftsa, Algorithm::Ftbar] {
                let outcome = schedule_and_render(&inst, 2, algorithm, &mut rng, &path);
                let left = std::path::Path::new(&path).exists();
                let _ = tx.send((algorithm, outcome.map(|_| ()), left));
            }
        });
        for _ in 0..2 {
            let (algorithm, outcome, left) = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("schedule_and_render returned");
            assert_eq!(
                outcome.unwrap_err(),
                "cannot tolerate 2 failures with only 2 processors (need at least 3)"
            );
            assert!(!left, "{algorithm} left {out}");
        }
    }

    #[test]
    fn too_many_failures_reported() {
        let graph = tmp("g2.json");
        let bundle = tmp("b2.json");
        generate(&argv(&format!("--family fft --size 8 --out {graph}"))).unwrap();
        schedule_cmd(&argv(&format!(
            "--graph {graph} --procs 4 --epsilon 0 --out {bundle}"
        )))
        .unwrap();
        let msg = simulate_cmd(&argv(&format!("--bundle {bundle} --fail 0,1,2,3"))).unwrap();
        assert!(msg.contains("FAILED"));
        let _ = std::fs::remove_file(graph);
        let _ = std::fs::remove_file(bundle);
    }

    #[test]
    fn monte_carlo_simulate_and_reliability() {
        let graph = tmp("g3.json");
        let bundle = tmp("b3.json");
        generate(&argv(&format!("--family gauss --size 5 --out {graph}"))).unwrap();
        schedule_cmd(&argv(&format!(
            "--graph {graph} --procs 6 --epsilon 1 --out {bundle}"
        )))
        .unwrap();

        let msg = simulate_cmd(&argv(&format!(
            "--bundle {bundle} --replications 12 --crashes 1 --threads 2"
        )))
        .unwrap();
        assert!(msg.contains("completed: 12/12"), "{msg}");
        // Identical campaign at a different thread count.
        let msg2 = simulate_cmd(&argv(&format!(
            "--bundle {bundle} --replications 12 --crashes 1 --threads 1"
        )))
        .unwrap();
        let stats = |m: &str| {
            m.lines()
                .find(|l| l.starts_with("latency over completed runs"))
                .map(String::from)
        };
        assert_eq!(stats(&msg), stats(&msg2));

        // The Monte-Carlo survival estimate gives the same figures at
        // any thread count.
        let estimate = |threads: usize| {
            let msg = reliability(&argv(&format!(
                "--bundle {bundle} --p 0.2 --samples 500 --threads {threads}"
            )))
            .unwrap();
            assert!(msg.contains(&format!("{threads} thread(s)")), "{msg}");
            msg.lines().skip(1).map(String::from).collect::<Vec<_>>()
        };
        let figures = estimate(1);
        assert!(figures[0].starts_with("P(survive) = "), "{figures:?}");
        assert_eq!(figures, estimate(2));

        // Single-run scenario options conflict with the campaign mode.
        let err = simulate_cmd(&argv(&format!(
            "--bundle {bundle} --replications 4 --fail 0"
        )))
        .unwrap_err();
        assert!(err.contains("--fail"), "{err}");
        let err = simulate_cmd(&argv(&format!(
            "--bundle {bundle} --replications 4 --random-failures 1"
        )))
        .unwrap_err();
        assert!(err.contains("--random-failures"), "{err}");
        let err = simulate_cmd(&argv(&format!(
            "--bundle {bundle} --replications 4 --gantt"
        )))
        .unwrap_err();
        assert!(err.contains("--gantt"), "{err}");

        let _ = std::fs::remove_file(graph);
        let _ = std::fs::remove_file(bundle);
    }

    #[test]
    fn campaign_preset_runs_and_emits_outputs() {
        let dir = tmp("campaign_out");
        let msg = campaign(&argv(&format!(
            "--preset ci-smoke --reps 1 --threads 2 --out {dir}"
        )))
        .unwrap();
        assert!(msg.contains("campaign ci-smoke"), "{msg}");
        assert!(msg.contains("FTSA-LowerBound"), "{msg}");
        let json_path = format!("{dir}/ci-smoke.campaign.json");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("paper-layered[30..40]"));
        assert!(json.contains("wavefront[4]"));
        let csv = std::fs::read_to_string(format!("{dir}/ci-smoke.campaign.csv")).unwrap();
        assert!(csv.starts_with("workload,procs,granularity,epsilon,series"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_spec_file_round_trip() {
        let dir = tmp("campaign_spec");
        std::fs::create_dir_all(&dir).unwrap();
        // Dump a preset spec, edit nothing, run it back through --spec.
        let spec_json = campaign(&argv("--preset ci-smoke --reps 1 --dump-spec")).unwrap();
        let path = format!("{dir}/grid.json");
        std::fs::write(&path, &spec_json).unwrap();
        let msg = campaign(&argv(&format!("--spec {path} --threads 1"))).unwrap();
        assert!(msg.contains("campaign ci-smoke"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_spec_file_honours_reps_override() {
        // `--quick` / `--reps` must shrink a spec-file run too, not be
        // silently dropped.
        let dir = tmp("campaign_reps");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_json = campaign(&argv("--preset ci-smoke --reps 3 --dump-spec")).unwrap();
        // --dump-spec reflects the override…
        assert!(spec_json.contains("\"repetitions\": 3"), "{spec_json}");
        let path = format!("{dir}/grid.json");
        std::fs::write(&path, &spec_json).unwrap();
        // …and a run from the file applies a further override.
        let msg = campaign(&argv(&format!("--spec {path} --reps 1 --threads 1"))).unwrap();
        assert!(msg.contains("x 1 reps"), "{msg}");
        assert!(campaign(&argv(&format!("--spec {path} --reps 0"))).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reps_override_skips_specs_that_ignore_the_repetition_index() {
        // table1 and reliability seed every repetition alike: `--quick`
        // must not multiply their work, while ci-smoke still shrinks to
        // the quick repetition count.
        for name in ["table1", "table1-full", "reliability"] {
            let spec = campaign(&argv(&format!("--preset {name} --quick --dump-spec"))).unwrap();
            assert!(spec.contains("\"repetitions\": 1,"), "{name}: {spec}");
        }
        let spec = campaign(&argv("--preset ci-smoke --quick --dump-spec")).unwrap();
        assert!(spec.contains("\"repetitions\": 10,"), "{spec}");

        // A spec file asking for repeated PaperTable cells is a named
        // error, not ten copies of one measurement.
        let dir = tmp("campaign_table_reps");
        std::fs::create_dir_all(&dir).unwrap();
        let path = format!("{dir}/table.json");
        let spec = campaign(&argv("--preset table1 --dump-spec")).unwrap();
        std::fs::write(
            &path,
            spec.replace("\"repetitions\": 1,", "\"repetitions\": 2,"),
        )
        .unwrap();
        let err = campaign(&argv(&format!("--spec {path}"))).unwrap_err();
        assert!(
            err.contains("PaperTable seeding ignores the repetition index"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_specs_default_to_one_thread() {
        // Wall-clock columns stay free of co-running cells unless
        // --threads asks for more.
        let dir = tmp("campaign_timing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = format!("{dir}/table.json");
        std::fs::write(&path, small_table1(&[])).unwrap();
        let msg = campaign(&argv(&format!("--spec {path}"))).unwrap();
        assert!(msg.contains(", 1 thread(s) =="), "{msg}");
        let msg = campaign(&argv(&format!("--spec {path} --threads 2"))).unwrap();
        assert!(msg.contains(", 2 thread(s) =="), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `table1` preset's `--dump-spec` file narrowed to one 60-task
    /// row on 10 processors at ε = 1, with `extras` as its
    /// `extra_algorithms`.
    fn small_table1(extras: &[&str]) -> String {
        let mut spec =
            CampaignSpec::from_json(&campaign(&argv("--preset table1 --dump-spec")).unwrap())
                .unwrap();
        spec.workloads = vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 60,
            tasks_hi: 60,
        })];
        spec.platforms[0].procs = 10;
        spec.epsilons = vec![1];
        spec.extra_algorithms = extras.iter().map(|a| parse_algorithm(a).unwrap()).collect();
        spec.to_json().unwrap()
    }

    #[test]
    fn campaign_argument_errors() {
        assert!(campaign(&argv("")).unwrap_err().contains("--preset"));
        assert!(campaign(&argv("--preset nope"))
            .unwrap_err()
            .contains("unknown preset"));
        let err = campaign(&argv("--preset fig1 --spec x.json")).unwrap_err();
        assert!(err.contains("mutually exclusive"));
        assert!(campaign(&argv("--spec /definitely/missing.json")).is_err());
    }

    #[test]
    fn unknown_family_and_algorithm() {
        assert!(generate(&argv("--family nope --out /tmp/x.json")).is_err());
        assert!(parse_algorithm("nope").is_err());
        assert!(parse_algorithm("ftbar").is_ok());
    }

    #[test]
    fn cross_combination_algorithms_end_to_end() {
        // The pipeline cross-combinations must be first-class citizens:
        // schedule → simulate via the CLI, and act as extra series in
        // campaign specs.
        let graph = tmp("g5.json");
        generate(&argv(&format!("--family gauss --size 6 --out {graph}"))).unwrap();
        for alg in ["p-ftsa", "ftsa-mst", "mc-ftbar"] {
            let bundle = tmp(&format!("b5_{alg}.json"));
            let msg = schedule_cmd(&argv(&format!(
                "--graph {graph} --procs 6 --epsilon 2 --algorithm {alg} --out {bundle}"
            )))
            .unwrap();
            assert!(msg.contains("latency (M*/M)"), "{alg}: {msg}");
            let msg = simulate_cmd(&argv(&format!("--bundle {bundle} --fail 0,1"))).unwrap();
            assert!(msg.contains("completed"), "{alg}: {msg}");
            let _ = std::fs::remove_file(bundle);
        }
        let _ = std::fs::remove_file(graph);

        // Extra series come from `extra_algorithms` in a --dump-spec file.
        let dir = tmp("campaign_extras");
        std::fs::create_dir_all(&dir).unwrap();
        let path = format!("{dir}/fig4.json");
        let spec = campaign(&argv("--preset fig4 --reps 2 --dump-spec")).unwrap();
        let spec = spec.replace(
            "\"extra_algorithms\": [],",
            "\"extra_algorithms\": [\"p-ftsa\", \"mc-ftbar\"],",
        );
        std::fs::write(&path, spec).unwrap();
        let msg = campaign(&argv(&format!("--spec {path} --threads 2"))).unwrap();
        assert!(msg.contains("P-FTSA-LowerBound"), "{msg}");
        assert!(msg.contains("MC-FTBAR with 2 Crash"), "{msg}");

        std::fs::write(&path, small_table1(&["p-ftsa", "mc-ftbar"])).unwrap();
        let msg = campaign(&argv(&format!("--spec {path}"))).unwrap();
        for series in [
            "Seconds: P-FTSA",
            "Seconds: MC-FTBAR",
            "MC-FTBAR-LowerBound",
        ] {
            assert!(msg.contains(series), "{series}: {msg}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
