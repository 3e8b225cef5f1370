//! The ftsched end-to-end benchmark.
//!
//! Three workloads drive the workspace from outside, through the public
//! functions of its crates:
//!
//! * `schedule-100k` — the `ftsched schedule` command (via
//!   [`ftsched_cli::run`]) on one 100 000-task layered graph, three jobs
//!   per operation (FTSA, MC-FTSA, FTBAR);
//! * `campaign-fig1` — the `ftsched campaign` command on the fig1 grid
//!   (600 cells) with two worker threads;
//! * `serve-durable` — an in-process `experiments::serve::Server` with a
//!   data directory, driven by one closed-loop client over loopback HTTP.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics; a
//! traced run re-issues the same work as spans around each layer's
//! public calls and reports the per-layer metrics. Every operation's
//! output is checked; a failed check counts in [`Report::failed`].
//! Metric names and units are fixed by [`END_TO_END`] and [`PER_LAYER`].

pub mod campaign;
pub mod measure;
pub mod schedule;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ftsched schedule` at v = 100 000.
    Schedule100k,
    /// `ftsched campaign` on the fig1 grid.
    CampaignFig1,
    /// `POST /campaigns` against a durable in-process server.
    ServeDurable,
}

impl Workload {
    /// Every workload, in display order.
    pub const ALL: [Workload; 3] = [
        Workload::Schedule100k,
        Workload::CampaignFig1,
        Workload::ServeDurable,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Schedule100k => "schedule-100k",
            Workload::CampaignFig1 => "campaign-fig1",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark proper, or a tiny version for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are defined at.
    Full,
    /// Small inputs with the same structure, for smoke tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Seconds of operations to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory (created, and removed afterwards, by [`run`]).
    pub work_dir: PathBuf,
}

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with tracing on. A
/// workload reports 0 for a layer it does not reach.
pub const PER_LAYER: [(&str, &str); 53] = [
    // schedule-100k, per operation (three jobs)
    ("cli.graph_read_s", "s"),
    ("taskgraph.from_json_s", "s"),
    ("platform.instance_s", "s"),
    ("core.schedule_s.ftsa", "s"),
    ("core.schedule_s.mc-ftsa", "s"),
    ("core.schedule_s.ftbar", "s"),
    ("core.validate_s.ftsa", "s"),
    ("core.validate_s.mc-ftsa", "s"),
    ("core.validate_s.ftbar", "s"),
    ("core.stats_s.ftsa", "s"),
    ("core.stats_s.mc-ftsa", "s"),
    ("core.stats_s.ftbar", "s"),
    ("cli.bundle_json_s.ftsa", "s"),
    ("cli.bundle_json_s.mc-ftsa", "s"),
    ("cli.bundle_json_s.ftbar", "s"),
    ("cli.bundle_write_s.ftsa", "s"),
    ("cli.bundle_write_s.mc-ftsa", "s"),
    ("cli.bundle_write_s.ftbar", "s"),
    ("taskgraph.graph_bytes", "bytes"),
    ("core.replicas.ftsa", "count"),
    ("core.replicas.mc-ftsa", "count"),
    ("core.replicas.ftbar", "count"),
    ("core.messages.ftsa", "count"),
    ("core.messages.mc-ftsa", "count"),
    ("core.messages.ftbar", "count"),
    ("cli.bundle_bytes.ftsa", "bytes"),
    ("cli.bundle_bytes.mc-ftsa", "bytes"),
    ("cli.bundle_bytes.ftbar", "bytes"),
    // campaign-fig1, per operation
    ("experiments.plan_s", "s"),
    ("experiments.executor_s", "s"),
    ("experiments.instance_for_cell_s", "s"),
    ("experiments.evaluate_cell_s", "s"),
    ("core.schedule_into_s", "s"),
    ("simulator.crash_replay_s", "s"),
    ("experiments.aggregate_s", "s"),
    ("experiments.render_s", "s"),
    ("cli.table_s", "s"),
    ("experiments.parallel_eff", "ratio"),
    ("experiments.cells", "count"),
    ("core.schedules", "count"),
    ("simulator.replays", "count"),
    ("experiments.output_bytes", "bytes"),
    // serve-durable, per new run (recover/bind: per server bind)
    ("store.recover_s", "s"),
    ("serve.group_s", "s"),
    ("store.wal_append_s", "s"),
    ("store.record_s", "s"),
    ("store.begin_run_s", "s"),
    ("serve.self_s", "s"),
    ("serve.groups", "count"),
    ("store.wal_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    // every workload: the traced run's own bookkeeping
    ("trace.sum_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (at least one).
    pub attempted: u64,
    /// Operations whose run failed or whose output check failed.
    pub failed: u64,
    /// Measured metric values by name (see [`END_TO_END`], [`PER_LAYER`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric value and its report line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.lines.push(format!("{name} = {value} {unit}"));
        self.values.insert(name, value);
    }

    /// Counts one operation and whether it passed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds the failure fraction line every workload prints.
    pub fn note_failures(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.lines.push(format!(
            "failed_frac = {frac} ({} of {} operations failed)",
            self.failed, self.attempted
        ));
    }

    /// The single-line JSON result: end-to-end metrics untraced,
    /// per-layer metrics traced (0 for layers the workload does not
    /// reach).
    pub fn result_json(&self, trace: bool) -> String {
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Runs one benchmark invocation in `opts.work_dir`, removing the
/// directory afterwards. An `Err` is a set-up failure (no result).
pub fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let out = match opts.workload {
        Workload::Schedule100k => schedule::run(opts),
        Workload::CampaignFig1 => campaign::run(opts),
        Workload::ServeDurable => serve::run(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let mut report = out?;
    report.note_failures();
    Ok(report)
}

/// The sum-check line of a traced run: per-layer self times against the
/// untraced wall time of the same operation, with the tracing overhead
/// when a traced wall time of the same operation exists (`None`: not
/// measured, reported as 0). The check is reported, not enforced: a
/// ratio outside 10% does not fail the run.
pub fn sum_check(report: &mut Report, layers_s: f64, untraced_s: f64, traced_s: Option<f64>) {
    let ratio = layers_s / untraced_s;
    report.set("trace.sum_ratio", ratio);
    let overhead = match traced_s {
        Some(t) => {
            let frac = t / untraced_s - 1.0;
            report.set("trace.overhead_frac", frac);
            format!("tracing overhead {:+.1}%", frac * 100.0)
        }
        None => {
            report.set("trace.overhead_frac", 0.0);
            "tracing overhead not measured".to_string()
        }
    };
    report.lines.push(format!(
        "sum check: layer self times {layers_s:.6} s vs untraced wall {untraced_s:.6} s \
         = {:.1}% ({}); {overhead}",
        ratio * 100.0,
        if (ratio - 1.0).abs() <= 0.10 {
            "within 10%"
        } else {
            "OUTSIDE 10%"
        },
    ));
}
