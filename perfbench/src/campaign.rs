//! `campaign-fig1`: one operation is `ftsched campaign --spec FILE
//! --threads 2 --out DIR` through [`ftsched_cli::run`], where FILE is the
//! fig1 preset (600 cells of 100–150-task layered DAGs) with its seed
//! drawn from the benchmark seed.
//!
//! Set-up (`setup_s`) is the preset build, `validate` and
//! [`CellPlan::new`], timed in batches at the start and between
//! operations. The reference JSON and CSV bytes
//! come from a `--threads 1` library run at set-up; every operation's
//! emitted files must equal them byte for byte. The traced operation
//! makes the executor's calls itself (instance per cell, cell
//! evaluation on two threads, aggregation, rendering), and one extra
//! single-threaded pass splits cell evaluation into scheduling and
//! crash replay on the same instances.

use crate::measure::{
    cpu_seconds, derive_seed, median, span_medians, timed, OpPeak, Samples, Spans, Window,
};
use crate::{sum_check, Opts, Report, Size};
use experiments::campaign::{
    cell_seed, evaluate_cell_into, instance_for_cell, presets, run_campaign_with_threads,
    Aggregator, CampaignResult, CampaignSpec, CellContext, CellPlan,
};
use experiments::output::{campaign_to_csv, campaign_to_json, campaign_to_table};
use experiments::parallel::parallel_map_with;
use ftsched_core::{schedule_into, ScheduleWorkspace};
use platform::FailureScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::crash::{simulate_outcome_into, CrashWorkspace, FallbackPolicy};
use std::path::Path;
use std::time::Instant;

/// Executor worker threads.
pub const THREADS: usize = 2;

/// The campaign spec of a run: the fig1 preset (full: 60 repetitions per
/// granularity; tiny: 2) with its seed drawn from `seed`.
pub fn spec(seed: u64, size: Size) -> CampaignSpec {
    let reps = match size {
        Size::Full => 60,
        Size::Tiny => 2,
    };
    let mut spec = presets::preset("fig1", Some(reps)).expect("fig1 is a preset");
    spec.seed = derive_seed(seed, 0xF161);
    spec
}

/// The reference outputs `(json, csv)` of a spec, computed on one thread.
pub fn reference(spec: &CampaignSpec) -> Result<(String, String), String> {
    let res = run_campaign_with_threads(spec, 1).map_err(|e| e.to_string())?;
    Ok((campaign_to_json(&res), campaign_to_csv(&res)))
}

/// Whether the emitted JSON and CSV bytes equal the reference.
pub fn check_outputs(json: &[u8], csv: &[u8], reference: &(String, String)) -> bool {
    json == reference.0.as_bytes() && csv == reference.1.as_bytes()
}

fn check_dir(out: &Path, id: &str, reference: &(String, String)) -> Option<u64> {
    let json = std::fs::read(out.join(format!("{id}.campaign.json"))).ok()?;
    let csv = std::fs::read(out.join(format!("{id}.campaign.csv"))).ok()?;
    check_outputs(&json, &csv, reference).then_some((json.len() + csv.len()) as u64)
}

fn cli_op(spec_path: &Path, out: &Path) -> Result<String, String> {
    let argv: Vec<String> = [
        "campaign",
        "--spec",
        &spec_path.to_string_lossy(),
        "--threads",
        &THREADS.to_string(),
        "--out",
        &out.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    ftsched_cli::run(&argv)
}

/// Spans that lie on the operation's wall-clock path (cell-level spans
/// are thread-time sums inside `experiments.executor_s`).
const WALL_SPANS: [&str; 5] = [
    "experiments.plan_s",
    "experiments.executor_s",
    "experiments.aggregate_s",
    "experiments.render_s",
    "cli.table_s",
];

/// One traced operation: the calls the `campaign` command and the
/// executor make, each inside a span. Returns the parallel efficiency.
fn traced_op(spec_path: &Path, out: &Path, spans: &mut Spans) -> Result<f64, String> {
    let (spec, plan) = spans.span("experiments.plan_s", || -> Result<_, String> {
        let text = std::fs::read_to_string(spec_path).map_err(|e| e.to_string())?;
        let spec = CampaignSpec::from_json(&text)?;
        spec.validate()?;
        let plan = CellPlan::new(&spec);
        Ok((spec, plan))
    })?;
    let n = spec.num_cells();
    let t0 = Instant::now();
    let cells = parallel_map_with(n, THREADS, CellContext::new, |ctx, i| {
        let coord = spec.coord(i);
        let (inst, inst_s) = timed(|| instance_for_cell(&spec, &coord));
        let mut out = Vec::new();
        let (res, eval_s) =
            timed(|| evaluate_cell_into(&spec, &plan, &coord, &inst, ctx, &mut out));
        res.map(|()| (out, inst_s, eval_s))
    });
    let executor = t0.elapsed().as_secs_f64();
    spans.add("experiments.executor_s", executor);
    let res: CampaignResult = spans
        .span("experiments.aggregate_s", || -> Result<_, String> {
            let mut agg = Aggregator::new(spec.num_groups());
            let (mut inst_s, mut eval_s) = (0.0, 0.0);
            for (i, cell) in cells.into_iter().enumerate() {
                let (out, a, b) = cell.map_err(|e| e.to_string())?;
                inst_s += a;
                eval_s += b;
                agg.push_cell(spec.group_index(&spec.coord(i)), &out);
            }
            Ok((agg.finalize(&spec, &plan), inst_s, eval_s))
        })
        .map(|(res, inst_s, eval_s)| {
            spans.add("experiments.instance_for_cell_s", inst_s);
            spans.add("experiments.evaluate_cell_s", eval_s);
            res
        })?;
    spans
        .span("experiments.render_s", || {
            experiments::output::write_campaign_outputs(&res, out)
        })
        .map_err(|e| e.to_string())?;
    std::hint::black_box(spans.span("cli.table_s", || campaign_to_table(&res)));
    let busy =
        spans.get("experiments.instance_for_cell_s") + spans.get("experiments.evaluate_cell_s");
    Ok(busy / (THREADS as f64 * executor))
}

/// Scheduling / crash-replay split of every cell on its own instance,
/// single-threaded, mirroring the cell evaluation of the fig1 grid
/// (shared tie stream, shared first failure scenario). Returns
/// `(schedule seconds, replay seconds, schedules, replays)`.
fn split(spec: &CampaignSpec, plan: &CellPlan) -> Result<(f64, f64, u64, u64), String> {
    let mut ws: Vec<ScheduleWorkspace> = plan
        .slots
        .iter()
        .map(|_| ScheduleWorkspace::new())
        .collect();
    let mut crash = CrashWorkspace::new();
    let (mut shared, mut scenario) = (FailureScenario::default(), FailureScenario::default());
    let mut ids = Vec::new();
    let (mut sched_s, mut replay_s, mut schedules, mut replays) = (0.0, 0.0, 0u64, 0u64);
    for i in 0..spec.num_cells() {
        let coord = spec.coord(i);
        let inst = instance_for_cell(spec, &coord);
        let eps = spec.epsilons[coord.eps];
        let seed = cell_seed(spec, &coord);
        let mut tie = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let mut lb0 = f64::NAN;
        for (si, slot) in plan.slots.iter().enumerate() {
            let run_eps = if slot.baseline { 0 } else { eps };
            let (res, s) = timed(|| {
                schedule_into(&inst, run_eps, slot.alg, &mut tie, &mut ws[si])
                    .map(|s| s.latency_lower_bound())
            });
            let lb = res.map_err(|e| e.to_string())?;
            if si == 0 {
                lb0 = lb;
            }
            sched_s += s;
            schedules += 1;
        }
        let mut crash_rng = StdRng::seed_from_u64(seed ^ 0xC4A5);
        let policy = |fm: &platform::FailureModel| {
            if fm.is_timed() {
                FallbackPolicy::Strict
            } else {
                FallbackPolicy::Rerouted
            }
        };
        for (fi, fm) in spec.measures.failures.iter().enumerate() {
            if plan.failure_skip[coord.eps][fi] {
                continue;
            }
            let buf = if fi == 0 { &mut shared } else { &mut scenario };
            fm.sample_into_scaled(&mut crash_rng, inst.num_procs(), eps, lb0, buf, &mut ids);
            let (_, s) = timed(|| {
                simulate_outcome_into(&inst, ws[0].schedule(), buf, policy(fm), &mut crash)
            });
            replay_s += s;
            replays += 1;
        }
        let policy0 = policy(&spec.measures.failures[0]);
        for (si, slot) in plan.slots.iter().enumerate().skip(1) {
            if slot.baseline {
                continue;
            }
            let (_, s) = timed(|| {
                simulate_outcome_into(&inst, ws[si].schedule(), &shared, policy0, &mut crash)
            });
            replay_s += s;
            replays += 1;
        }
    }
    Ok((sched_s, replay_s, schedules, replays))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let spec = spec(opts.seed, opts.size);
    let mut report = Report::default();

    // Set-up takes about a microsecond, and its speed drifts with the
    // machine's state over seconds, so a sample times a batch of
    // set-ups (reporting the batch mean) and samples are taken at the
    // start and again before every operation; the first warms the
    // allocator and code paths and is dropped.
    let batch = match opts.size {
        Size::Full => 200,
        Size::Tiny => 2,
    };
    let setup_sample = || -> Result<f64, String> {
        let (plans, secs) = timed(|| -> Result<Vec<CellPlan>, String> {
            (0..batch)
                .map(|_| {
                    let mut s =
                        presets::preset("fig1", Some(spec.repetitions)).expect("fig1 is a preset");
                    s.seed = spec.seed;
                    s.validate().map(|()| CellPlan::new(&s))
                })
                .collect()
        });
        std::hint::black_box(plans?);
        Ok(secs / batch as f64)
    };
    let mut setups = Vec::new();
    for _ in 0..6 {
        setups.push(setup_sample()?);
    }
    setups.remove(0);

    let dir = &opts.work_dir;
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()?).map_err(|e| e.to_string())?;
    let out = dir.join("out");
    let reference = reference(&spec)?;

    let mut window = Window::new(opts.seconds);
    let mut ops = Samples::default();
    let mut traced = Samples::default();
    let mut span_ops = Vec::new();
    let mut effs = Vec::new();
    let mut output_bytes = 0u64;
    let mut cpu = 0.0;
    let mut rss = OpPeak::default();
    while window.open() {
        setups.push(setup_sample()?);
        let _ = std::fs::remove_dir_all(&out);
        let c0 = cpu_seconds();
        let (res, secs) = rss.around(|| timed(|| cli_op(&spec_path, &out)));
        cpu += cpu_seconds() - c0;
        window.add(secs);
        ops.push(secs);
        let checked = res.ok().and_then(|_| check_dir(&out, &spec.id, &reference));
        report.count(checked.is_some());
        output_bytes = checked.unwrap_or(output_bytes);

        if opts.trace {
            let _ = std::fs::remove_dir_all(&out);
            let mut spans = Spans::default();
            let (res, secs) = timed(|| traced_op(&spec_path, &out, &mut spans));
            window.add(secs);
            traced.push(secs);
            if let Ok(eff) = &res {
                effs.push(*eff);
            }
            span_ops.push(spans);
            report.count(res.is_ok() && check_dir(&out, &spec.id, &reference).is_some());
        }
    }
    report.lines.push(window.stolen_line());
    report.lines.push(rss.line());
    report.set("setup_s", median(&setups).expect("set-up samples"));
    let op_s = ops.median().expect("at least one operation");
    report.lines.push(ops.summary("campaign_s (op_s)"));
    if opts.trace {
        let medians = span_medians(&span_ops);
        for (&name, &v) in &medians {
            report.set(name, v);
        }
        let layers: f64 = WALL_SPANS
            .iter()
            .map(|n| medians.get(n).copied().unwrap_or(0.0))
            .sum();
        report.set("experiments.parallel_eff", median(&effs).unwrap_or(0.0));
        let plan = CellPlan::new(&spec);
        let (sched_s, replay_s, schedules, replays) = split(&spec, &plan)?;
        report.set("core.schedule_into_s", sched_s);
        report.set("simulator.crash_replay_s", replay_s);
        report.set("experiments.cells", spec.num_cells() as f64);
        report.set("core.schedules", schedules as f64);
        report.set("simulator.replays", replays as f64);
        report.set("experiments.output_bytes", output_bytes as f64);
        report.lines.push(traced.summary("traced campaign"));
        sum_check(&mut report, layers, op_s, traced.median());
    } else {
        report.set("op_s", op_s);
        report.set("cpu_s", cpu / ops.len() as f64);
        report.set("peak_rss_mb", rss.mb());
    }
    Ok(report)
}
