//! FFT butterfly task graph.
//!
//! A radix-2 FFT over `n = 2^k` points: one input task per point, then
//! `log2 n` butterfly stages of `n` tasks each. Stage `s` task `i` reads
//! from stage `s−1` tasks `i` and `i XOR 2^s` — the classic butterfly
//! wiring, which gives a width-`n`, depth-`log n + 1` DAG.

use crate::graph::{Dag, DagBuilder, TaskId};

/// Builds the FFT butterfly DAG for `n` points (`n` must be a power of
/// two, `n >= 2`). Each butterfly costs `work`, each dependency carries
/// `volume` units of data.
pub fn fft(n: usize, work: f64, volume: f64) -> Dag {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "n must be a power of two >= 2"
    );
    let stages = n.trailing_zeros() as usize;
    let mut b = DagBuilder::with_capacity(n * (stages + 1), 2 * n * stages);

    let mut prev: Vec<TaskId> = (0..n)
        .map(|i| b.add_labelled_task(work, format!("in({i})")))
        .collect();

    for s in 0..stages {
        let cur: Vec<TaskId> = (0..n)
            .map(|i| b.add_labelled_task(work, format!("bfly({s},{i})")))
            .collect();
        let stride = 1usize << s;
        for i in 0..n {
            b.add_edge(prev[i], cur[i], volume);
            b.add_edge(prev[i ^ stride], cur[i], volume);
        }
        prev = cur;
    }

    b.build().expect("butterfly DAG is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{stats, DagStats};
    use crate::topology::{is_weakly_connected, levels};

    #[test]
    fn counts() {
        let g = fft(8, 1.0, 1.0);
        // 8 inputs + 3 stages of 8 = 32 tasks; 2*8*3 = 48 edges.
        assert_eq!(g.num_tasks(), 32);
        assert_eq!(g.num_edges(), 48);
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn depth_is_stages_plus_one() {
        let g = fft(16, 1.0, 1.0);
        let lv = levels(&g);
        assert_eq!(lv.iter().max(), Some(&4)); // log2(16) stages
    }

    #[test]
    fn width_is_n() {
        let g = fft(8, 1.0, 1.0);
        assert_eq!(stats(&g).width_lb, 8);
    }

    #[test]
    fn entries_and_exits() {
        let g = fft(4, 1.0, 1.0);
        assert_eq!(g.entries().len(), 4);
        assert_eq!(g.exits().len(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = fft(6, 1.0, 1.0);
    }

    #[test]
    fn stats_type_usable() {
        let g = fft(4, 2.0, 3.0);
        let s: DagStats = crate::metrics::stats(&g);
        assert_eq!(s.total_work, 2.0 * 12.0);
        assert_eq!(s.total_volume, 3.0 * 16.0);
    }
}
