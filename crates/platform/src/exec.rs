//! The execution-time matrix `E(t, P)`.

use rand::Rng;
use serde::{Deserialize, Serialize};
use taskgraph::{Dag, TaskId};

/// The `v × m` matrix of task execution times: `E(t, P_j)` is the time
/// task `t` takes on processor `P_j`.
///
/// ```
/// use platform::ExecutionMatrix;
/// let e = ExecutionMatrix::from_fn(2, 3, |t, p| (t * 3 + p + 1) as f64);
/// assert_eq!(e.time(0, 2), 3.0);
/// assert_eq!(e.average(1), 5.0); // (4 + 5 + 6) / 3
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct ExecutionMatrix {
    v: usize,
    m: usize,
    /// Row-major `v × m` execution times.
    times: Vec<f64>,
}

impl ExecutionMatrix {
    /// Builds a matrix from an explicit function of `(task, processor)`.
    /// Panics unless `m >= 1` and every time is positive and finite.
    pub fn from_fn(v: usize, m: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut times = Vec::with_capacity(v * m);
        for t in 0..v {
            for p in 0..m {
                times.push(f(t, p));
            }
        }
        Self::from_parts(v, m, times).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The matrix, if the parts meet the invariants: `m >= 1`, `v · m`
    /// times, each positive and finite.
    fn from_parts(v: usize, m: usize, times: Vec<f64>) -> Result<Self, String> {
        if m == 0 {
            return Err("ExecutionMatrix: need at least one processor".into());
        }
        if Some(times.len()) != v.checked_mul(m) {
            return Err(format!(
                "ExecutionMatrix: times has {} entries, expected v·m = {v}·{m}",
                times.len()
            ));
        }
        if let Some(i) = times.iter().position(|&x| !(x > 0.0 && x.is_finite())) {
            return Err(format!(
                "ExecutionMatrix: time E({}, {}) = {} must be positive and finite",
                i / m,
                i % m,
                times[i]
            ));
        }
        Ok(ExecutionMatrix { v, m, times })
    }

    /// *Consistent* (related-machines) heterogeneity: processor `j` has a
    /// speed `s_j`, and `E(t, j) = work(t) / s_j`.
    pub fn consistent(dag: &Dag, speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty());
        assert!(speeds.iter().all(|&s| s > 0.0));
        Self::from_fn(dag.num_tasks(), speeds.len(), |t, p| {
            (dag.work(TaskId(t as u32)).max(f64::MIN_POSITIVE)) / speeds[p]
        })
    }

    /// *Unrelated-machines* heterogeneity over `m` processors, the
    /// paper's general model: each `(task, processor)` pair draws an
    /// independent factor in `[1 − spread, 1 + spread]` applied to the
    /// task's work.
    pub fn unrelated_with_procs(dag: &Dag, m: usize, rng: &mut impl Rng, spread: f64) -> Self {
        assert!((0.0..1.0).contains(&spread));
        assert!(m >= 1);
        let mut times = Vec::with_capacity(dag.num_tasks() * m);
        for t in dag.tasks() {
            let w = dag.work(t).max(f64::MIN_POSITIVE);
            for _ in 0..m {
                let factor = if spread == 0.0 {
                    1.0
                } else {
                    rng.gen_range((1.0 - spread)..=(1.0 + spread))
                };
                times.push(w * factor);
            }
        }
        ExecutionMatrix {
            v: dag.num_tasks(),
            m,
            times,
        }
    }

    /// Number of tasks (rows).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.v
    }

    /// Number of processors (columns).
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.m
    }

    /// Execution time `E(t, P_j)`.
    #[inline]
    pub fn time(&self, task: usize, proc: usize) -> f64 {
        self.times[task * self.m + proc]
    }

    /// The contiguous per-processor row `E(t, ·)` of `task` — the
    /// scheduler's selection sweeps stream this instead of issuing `m`
    /// strided [`ExecutionMatrix::time`] lookups.
    #[inline]
    pub fn times_row(&self, task: usize) -> &[f64] {
        &self.times[task * self.m..(task + 1) * self.m]
    }

    /// Average execution time `Ē(t)` over all processors (used by the
    /// static bottom levels).
    pub fn average(&self, task: usize) -> f64 {
        let row = &self.times[task * self.m..(task + 1) * self.m];
        row.iter().sum::<f64>() / self.m as f64
    }

    /// Slowest execution time `max_j E(t, P_j)` (the granularity
    /// numerator).
    pub fn slowest(&self, task: usize) -> f64 {
        let row = &self.times[task * self.m..(task + 1) * self.m];
        row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fastest execution time `min_j E(t, P_j)`.
    pub fn fastest(&self, task: usize) -> f64 {
        let row = &self.times[task * self.m..(task + 1) * self.m];
        row.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean of `E(t, ·)` over the `count` *fastest processors overall*
    /// (smallest column means), per the Section 4.3 deadline computation.
    pub fn average_on_fastest_procs(&self, task: usize, count: usize) -> f64 {
        let procs = self.fastest_procs(count);
        procs.iter().map(|&p| self.time(task, p)).sum::<f64>() / procs.len() as f64
    }

    /// Indices of the `count` processors with the smallest column mean.
    pub fn fastest_procs(&self, count: usize) -> Vec<usize> {
        let count = count.clamp(1, self.m);
        let mut means: Vec<(f64, usize)> = (0..self.m)
            .map(|p| {
                let s: f64 = (0..self.v).map(|t| self.time(t, p)).sum();
                (s, p)
            })
            .collect();
        means.sort_by(|a, b| a.0.total_cmp(&b.0));
        means[..count].iter().map(|&(_, p)| p).collect()
    }

    /// Scales every entry by `factor` (granularity calibration).
    pub fn scale(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        for x in &mut self.times {
            *x *= factor;
        }
    }

    /// Sum over tasks of the slowest execution time — the numerator of the
    /// paper's granularity.
    pub fn total_slowest(&self) -> f64 {
        (0..self.v).map(|t| self.slowest(t)).sum()
    }
}

impl Deserialize for ExecutionMatrix {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut v, mut m, mut times) = (None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "v" => r.field(&mut v)?,
                "m" => r.field(&mut m)?,
                "times" => r.field(&mut times)?,
                _ => r.skip_value()?,
            }
        }
        let missing = |f| serde::Error::missing_field(f, "ExecutionMatrix");
        ExecutionMatrix::from_parts(
            v.ok_or_else(|| missing("v"))?,
            m.ok_or_else(|| missing("m"))?,
            times.ok_or_else(|| missing("times"))?,
        )
        .map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::DagBuilder;

    fn tiny_dag() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(20.0);
        b.add_edge(a, c, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn consistent_machines() {
        let g = tiny_dag();
        let e = ExecutionMatrix::consistent(&g, &[1.0, 2.0]);
        assert_eq!(e.time(0, 0), 10.0);
        assert_eq!(e.time(0, 1), 5.0);
        assert_eq!(e.time(1, 0), 20.0);
        assert_eq!(e.average(1), 15.0);
        assert_eq!(e.slowest(1), 20.0);
        assert_eq!(e.fastest(1), 10.0);
    }

    #[test]
    fn unrelated_within_spread() {
        let g = tiny_dag();
        let mut rng = StdRng::seed_from_u64(5);
        let e = ExecutionMatrix::unrelated_with_procs(&g, 8, &mut rng, 0.5);
        for t in 0..2 {
            let w = g.work(taskgraph::TaskId(t as u32));
            for p in 0..8 {
                let x = e.time(t, p);
                assert!(x >= w * 0.5 - 1e-9 && x <= w * 1.5 + 1e-9);
            }
        }
    }

    #[test]
    fn zero_spread_is_homogeneous() {
        let g = tiny_dag();
        let mut rng = StdRng::seed_from_u64(5);
        let e = ExecutionMatrix::unrelated_with_procs(&g, 4, &mut rng, 0.0);
        for p in 0..4 {
            assert_eq!(e.time(0, p), 10.0);
        }
    }

    #[test]
    fn scale_multiplies_everything() {
        let g = tiny_dag();
        let mut e = ExecutionMatrix::consistent(&g, &[1.0, 1.0]);
        let before = e.total_slowest();
        e.scale(3.0);
        assert_eq!(e.total_slowest(), before * 3.0);
    }

    #[test]
    fn fastest_procs_orders_by_column_mean() {
        let e = ExecutionMatrix::from_fn(3, 3, |_, p| (p + 1) as f64);
        assert_eq!(e.fastest_procs(2), vec![0, 1]);
        assert_eq!(e.average_on_fastest_procs(0, 2), 1.5);
    }

    #[test]
    fn from_fn_dimensions() {
        let e = ExecutionMatrix::from_fn(4, 2, |t, p| (t + p + 1) as f64);
        assert_eq!(e.num_tasks(), 4);
        assert_eq!(e.num_procs(), 2);
    }

    #[test]
    fn deserialize_checks_from_fn_invariants() {
        let e = ExecutionMatrix::from_fn(2, 2, |t, p| (t + p + 1) as f64);
        let back: ExecutionMatrix =
            serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back.times_row(1), e.times_row(1));
        for (bad, why) in [
            (r#"{"v":3,"m":2,"times":[1.0,-2.0]}"#, "times has 2 entries"),
            (r#"{"v":1,"m":2,"times":[1.0,-2.0]}"#, "E(0, 1) = -2"),
            (r#"{"v":1,"m":2,"times":[0.0,2.0]}"#, "E(0, 0) = 0"),
            (r#"{"v":0,"m":0,"times":[]}"#, "at least one processor"),
            (
                r#"{"v":4294967296,"m":4294967296,"times":[]}"#,
                "times has 0 entries",
            ),
            (r#"{"m":1,"times":[]}"#, "missing field `v`"),
        ] {
            let err = serde_json::from_str::<ExecutionMatrix>(bad)
                .unwrap_err()
                .to_string();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_time_rejected() {
        let _ = ExecutionMatrix::from_fn(1, 1, |_, _| 0.0);
    }
}
