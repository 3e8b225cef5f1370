//! Schedule analysis: utilization, load balance, replication overhead
//! breakdown — the quantities the experiment logs and ablations report.

use crate::schedule::Schedule;
use platform::Instance;
use std::fmt;

/// Aggregate statistics of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Latency if nothing fails (`M*`).
    pub latency_lb: f64,
    /// Guaranteed latency under ε failures (`M`).
    pub latency_ub: f64,
    /// Total replicas placed (≥ `v · (ε+1)`; FTBAR duplicates add more).
    pub replicas: usize,
    /// Inter-processor messages shipped in the fault-free run.
    pub messages: usize,
    /// Mean processor utilization on the optimistic timeline:
    /// busy time / (m · M*).
    pub mean_utilization: f64,
    /// Max/min busy-time ratio across *used* processors (1.0 = perfectly
    /// balanced; ∞ if some used processor has zero busy time).
    pub load_imbalance: f64,
    /// Fraction of total busy time spent on replicas beyond the first
    /// copy of each task — the raw compute cost of fault tolerance.
    pub replication_compute_share: f64,
}

/// Computes [`ScheduleStats`] for a schedule on its instance.
pub fn schedule_stats(inst: &Instance, sched: &Schedule) -> ScheduleStats {
    let m = inst.num_procs();
    let latency_lb = sched.latency_lower_bound();
    let latency_ub = sched.latency_upper_bound();

    let mut busy = vec![0.0f64; m];
    let mut primary_time = 0.0f64;
    let mut total_time = 0.0f64;
    let mut replicas = 0usize;
    for t in inst.dag.tasks() {
        for (k, r) in sched.replicas_of(t).iter().enumerate() {
            let dur = r.finish_lb - r.start_lb;
            busy[r.proc.index()] += dur;
            total_time += dur;
            if k == 0 {
                primary_time += dur;
            }
            replicas += 1;
        }
    }

    let used: Vec<f64> = busy.iter().copied().filter(|&b| b > 0.0).collect();
    let load_imbalance = match (
        used.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        used.iter().copied().fold(f64::INFINITY, f64::min),
    ) {
        (max, min) if min > 0.0 => max / min,
        _ => f64::INFINITY,
    };

    ScheduleStats {
        latency_lb,
        latency_ub,
        replicas,
        messages: sched.message_count(&inst.dag),
        mean_utilization: if latency_lb > 0.0 {
            total_time / (m as f64 * latency_lb)
        } else {
            0.0
        },
        load_imbalance,
        replication_compute_share: if total_time > 0.0 {
            (total_time - primary_time) / total_time
        } else {
            0.0
        },
    }
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "latency (M*/M):        {:.2} / {:.2}",
            self.latency_lb, self.latency_ub
        )?;
        writeln!(f, "replicas placed:       {}", self.replicas)?;
        writeln!(f, "messages:              {}", self.messages)?;
        writeln!(
            f,
            "mean utilization:      {:.1}%",
            self.mean_utilization * 100.0
        )?;
        writeln!(f, "load imbalance:        {:.2}x", self.load_imbalance)?;
        write!(
            f,
            "replication compute:   {:.1}%",
            self.replication_compute_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inst() -> Instance {
        let mut r = StdRng::seed_from_u64(21);
        paper_instance(&mut r, &PaperInstanceConfig::default())
    }

    #[test]
    fn basic_invariants() {
        let inst = inst();
        let s = schedule(&inst, 2, Algorithm::Ftsa, &mut StdRng::seed_from_u64(1)).unwrap();
        let st = schedule_stats(&inst, &s);
        assert_eq!(st.replicas, inst.num_tasks() * 3);
        assert!(st.latency_lb <= st.latency_ub);
        assert!(st.mean_utilization > 0.0 && st.mean_utilization <= 1.0);
        assert!(st.load_imbalance >= 1.0);
        // With 3 replicas of equal-ish cost, ~2/3 of compute is replication.
        assert!((st.replication_compute_share - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn epsilon_zero_has_no_replication_share() {
        let inst = inst();
        let s = schedule(&inst, 0, Algorithm::Ftsa, &mut StdRng::seed_from_u64(2)).unwrap();
        let st = schedule_stats(&inst, &s);
        assert_eq!(st.replication_compute_share, 0.0);
        assert_eq!(st.replicas, inst.num_tasks());
    }

    #[test]
    fn display_renders_all_lines() {
        let inst = inst();
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut StdRng::seed_from_u64(3)).unwrap();
        let text = schedule_stats(&inst, &s).to_string();
        for key in [
            "latency",
            "replicas",
            "messages",
            "utilization",
            "imbalance",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn utilization_grows_with_replication() {
        let inst = inst();
        let u = |eps: usize| {
            let s = schedule(&inst, eps, Algorithm::Ftsa, &mut StdRng::seed_from_u64(4)).unwrap();
            schedule_stats(&inst, &s).mean_utilization
        };
        assert!(u(3) > u(0), "replication must raise platform utilization");
    }
}
