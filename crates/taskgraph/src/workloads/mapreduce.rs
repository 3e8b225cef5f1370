//! Map–reduce task graph: splitter → mappers → (all-to-all shuffle) →
//! reducers → collector. The shuffle creates the dense communication
//! pattern where MC-FTSA's message reduction matters most.

use crate::graph::{Dag, DagBuilder};

/// Builds a map–reduce DAG with the given fan-outs. `map_work` /
/// `reduce_work` set task costs; `shuffle_volume` is the per-pair shuffle
/// payload.
pub fn map_reduce(
    mappers: usize,
    reducers: usize,
    map_work: f64,
    reduce_work: f64,
    shuffle_volume: f64,
) -> Dag {
    assert!(mappers >= 1 && reducers >= 1);
    let mut b = DagBuilder::with_capacity(
        mappers + reducers + 2,
        mappers + mappers * reducers + reducers,
    );
    let split = b.add_labelled_task(map_work * 0.1, "split");
    let maps: Vec<_> = (0..mappers)
        .map(|i| {
            let t = b.add_labelled_task(map_work, format!("map({i})"));
            b.add_edge(split, t, shuffle_volume);
            t
        })
        .collect();
    let reds: Vec<_> = (0..reducers)
        .map(|i| b.add_labelled_task(reduce_work, format!("reduce({i})")))
        .collect();
    for &m in &maps {
        for &r in &reds {
            b.add_edge(m, r, shuffle_volume);
        }
    }
    let collect = b.add_labelled_task(reduce_work * 0.1, "collect");
    for &r in &reds {
        b.add_edge(r, collect, shuffle_volume);
    }
    b.build().expect("map-reduce DAG is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::stats;
    use crate::topology::is_weakly_connected;

    #[test]
    fn counts() {
        let g = map_reduce(4, 3, 10.0, 20.0, 5.0);
        assert_eq!(g.num_tasks(), 4 + 3 + 2);
        assert_eq!(g.num_edges(), 4 + 12 + 3);
        assert!(is_weakly_connected(&g));
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.exits().len(), 1);
    }

    #[test]
    fn width_is_max_stage() {
        let g = map_reduce(6, 2, 1.0, 1.0, 1.0);
        assert_eq!(stats(&g).width_lb, 6);
    }

    #[test]
    fn shuffle_is_all_to_all() {
        let g = map_reduce(3, 3, 1.0, 1.0, 7.0);
        let shuffle_edges = g
            .edge_list()
            .filter(|&(_, s, d, _)| {
                g.label(s).is_some_and(|l| l.starts_with("map"))
                    && g.label(d).is_some_and(|l| l.starts_with("reduce"))
            })
            .count();
        assert_eq!(shuffle_edges, 9);
    }
}
