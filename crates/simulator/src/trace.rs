//! Execution traces and ASCII Gantt rendering.

use crate::crash::SimResult;
use ftsched_core::Schedule;
use platform::Instance;
use std::fmt::Write as _;

/// One executed interval on a processor.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Processor index.
    pub proc: usize,
    /// The task (its workload label when present, else `t<i>`).
    pub label: String,
    /// Simulated start time.
    pub start: f64,
    /// Simulated finish time.
    pub finish: f64,
}

/// Extracts the executed intervals of a simulation, sorted by processor
/// then start time.
pub fn trace(inst: &Instance, sched: &Schedule, sim: &SimResult) -> Vec<TraceEntry> {
    let mut out = Vec::new();
    for t in inst.dag.tasks() {
        for (k, times) in sim.times[t.index()].iter().enumerate() {
            if let Some((start, finish)) = *times {
                out.push(TraceEntry {
                    proc: sched.replicas_of(t)[k].proc.index(),
                    label: inst
                        .dag
                        .label(t)
                        .map_or_else(|| t.to_string(), str::to_owned),
                    start,
                    finish,
                });
            }
        }
    }
    out.sort_by(|a, b| a.proc.cmp(&b.proc).then(a.start.total_cmp(&b.start)));
    out
}

/// Renders an ASCII Gantt chart of the simulation, `width` columns wide.
///
/// Each processor gets one row; `#` marks busy time, `.` idle. A legend
/// of `proc: task[start, finish)` lines follows the chart.
pub fn gantt(inst: &Instance, sched: &Schedule, sim: &SimResult, width: usize) -> String {
    let entries = trace(inst, sched, sim);
    let horizon = entries
        .iter()
        .map(|e| e.finish)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let m = inst.num_procs();
    let width = width.max(10);
    let scale = width as f64 / horizon;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "time 0 {:-^w$} {horizon:.1}",
        "",
        w = width.saturating_sub(8)
    );
    for j in 0..m {
        let mut row = vec!['.'; width];
        for e in entries.iter().filter(|e| e.proc == j) {
            let a = ((e.start * scale) as usize).min(width - 1);
            let b = ((e.finish * scale).ceil() as usize).clamp(a + 1, width);
            for c in &mut row[a..b] {
                *c = '#';
            }
        }
        let _ = writeln!(out, "P{j:<3} {}", row.iter().collect::<String>());
    }
    out.push('\n');
    for e in &entries {
        let _ = writeln!(
            out,
            "P{}: {} [{:.2}, {:.2})",
            e.proc, e.label, e.start, e.finish
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::simulate;
    use ftsched_core::{schedule, Algorithm};
    use platform::{ExecutionMatrix, FailureScenario, Platform, ProcId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::DagBuilder;

    fn instance() -> Instance {
        let mut b = DagBuilder::new();
        let a = b.add_labelled_task(10.0, "prep");
        let c = b.add_task(10.0);
        b.add_edge(a, c, 5.0);
        let dag = b.build().unwrap();
        let plat = Platform::uniform_delay(2, 1.0);
        let exec = ExecutionMatrix::consistent(&dag, &[1.0, 1.0]);
        Instance::new(dag, plat, exec)
    }

    #[test]
    fn trace_contains_all_completed_replicas() {
        let inst = instance();
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        let sim = simulate(&inst, &s, &FailureScenario::none());
        let tr = trace(&inst, &s, &sim);
        // 2 tasks × 2 replicas, all complete without failures.
        assert_eq!(tr.len(), 4);
        assert!(tr.iter().any(|e| e.label == "prep"));
        // Sorted by processor then start.
        for w in tr.windows(2) {
            assert!(w[0].proc <= w[1].proc);
        }
    }

    #[test]
    fn gantt_renders_rows_per_processor() {
        let inst = instance();
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(2)).unwrap();
        let sim = simulate(&inst, &s, &FailureScenario::none());
        let g = gantt(&inst, &s, &sim, 40);
        assert!(g.contains("P0"));
        assert!(g.contains("P1"));
        assert!(g.contains('#'));
        assert!(g.contains("prep"));
    }

    #[test]
    fn gantt_of_empty_sim() {
        let inst = instance();
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut StdRng::seed_from_u64(3)).unwrap();
        let scen = FailureScenario::at_time_zero((0..inst.num_procs() as u32).map(ProcId));
        let sim = simulate(&inst, &s, &scen);
        let g = gantt(&inst, &s, &sim, 30);
        assert!(!g.contains('#'), "nothing executed, nothing drawn");
    }
}
