//! Graph I/O: Graphviz DOT export and JSON (de)serialization.

use crate::graph::{read_dag, Dag, EdgeData, EdgeTail, ReadState, TailResult};
use serde::{Deserialize, Reader};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, ScopedJoinHandle};

/// Renders the DAG in Graphviz DOT syntax. Node labels show the task id
/// (or its workload label) and work; edge labels show the data volume.
pub fn to_dot(dag: &Dag) -> String {
    let mut out = String::with_capacity(64 * dag.num_tasks());
    out.push_str("digraph taskgraph {\n  rankdir=TB;\n  node [shape=ellipse];\n");
    for t in dag.tasks() {
        let name = dag.label(t).map_or_else(|| t.to_string(), str::to_owned);
        let _ = writeln!(
            out,
            "  {} [label=\"{}\\nw={:.1}\"];",
            t.index(),
            name,
            dag.work(t)
        );
    }
    for (_, s, d, v) in dag.edge_list() {
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{:.0}\"];",
            s.index(),
            d.index(),
            v
        );
    }
    out.push_str("}\n");
    out
}

/// Serializes the DAG to a JSON string.
pub fn to_json(dag: &Dag) -> serde_json::Result<String> {
    serde_json::to_string_pretty(dag)
}

/// Texts shorter than this read on one thread. Below about 40 KB the
/// helper thread costs more than it saves: on a 2-vCPU guest (best of
/// 1000 reads each way) a 12 KB layered graph read 11 µs slower on two
/// threads, a 25 KB one 7 µs slower, a 40 KB one even, a 54 KB one 8 µs
/// faster and a 1.4 MB one (5000 tasks) 0.73 ms faster.
const TWO_THREAD_MIN_LEN: usize = 64 << 10;

/// Deserializes a DAG from JSON produced by [`to_json`]: the result of
/// `serde_json::from_str::<Dag>`, byte for byte in its errors too.
///
/// A long text is read on two threads. A scoped helper thread resumes a
/// second reader just after the first `}` followed by `,` past the
/// text's midpoint, as if it stood after an element of the `edges`
/// array, and reads edges to the array's end. The calling thread reads
/// from the start with the same body as `Dag`'s `Deserialize`; inside
/// the first `edges` member, standing at that boundary in that very
/// state (offset, depth 2, after a member), it takes the helper's edges
/// and end state, or the helper's error, instead of reading on. A reader
/// in the same state over the same text reads the same thing, so the
/// result equals the one-thread read. Anywhere else the guess was wrong
/// (a `},` inside a label or a nested object, say), and the helper's
/// result is discarded. The helper stops early once the caller is done
/// without it, and a panic on the helper resumes on the caller. If no
/// thread can be spawned, the text reads on one.
pub fn from_json(s: &str) -> serde_json::Result<Dag> {
    let Some(at) = tail_start(s) else {
        return serde_json::from_str(s);
    };
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let spawned = thread::Builder::new().spawn_scoped(scope, || read_tail(s, at, &done));
        let Ok(helper) = spawned else {
            return serde_json::from_str(s);
        };
        let mut helper = Some(helper);
        let tail = EdgeTail {
            src: s,
            at,
            join: || join(helper.take().expect("the tail is joined once")),
        };
        let mut r = Reader::new(s);
        let dag = read_dag(&mut r, Some(tail)).and_then(|dag| r.finish().map(|()| dag));
        done.store(true, Ordering::Relaxed);
        if let Some(h) = helper {
            // The guess was wrong: the result goes unread.
            let _ = join(h);
        }
        Ok(dag?)
    })
}

/// The state a reader stands in after an element of the `edges` array
/// that ends just before the first `},` past the text's midpoint, if the
/// text is long enough to split.
fn tail_start(s: &str) -> Option<ReadState> {
    if s.len() < TWO_THREAD_MIN_LEN {
        return None;
    }
    let mid = s.len() / 2;
    let brace = s.as_bytes()[mid..].windows(2).position(|w| w == b"},")?;
    Some((mid + brace + 1, 2, false))
}

/// Reads `edges` elements from `at` to the array's `]`, as one reader
/// standing in `at` would. Once `done` is set nobody will read the
/// result, so the helper stops.
fn read_tail(s: &str, at: ReadState, done: &AtomicBool) -> TailResult {
    let mut r = Reader::resume(s, at);
    let mut edges = Vec::new();
    while r.next_element()? {
        if done.load(Ordering::Relaxed) {
            return Err(serde::Error::custom(
                "the graph read ended without this tail",
            ));
        }
        edges.push(EdgeData::deserialize(&mut r)?);
    }
    Ok((edges, r.position()))
}

fn join<T>(h: ScopedJoinHandle<'_, T>) -> T {
    h.join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn tiny() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_labelled_task(1.5, "start");
        let c = b.add_task(2.5);
        b.add_edge(a, c, 42.0);
        b.build().unwrap()
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let dot = to_dot(&tiny());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("start"));
        assert!(dot.contains("0 -> 1"));
        assert!(dot.contains("42"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn json_round_trip_preserves_structure() {
        let g = tiny();
        let s = to_json(&g).unwrap();
        let g2 = from_json(&s).unwrap();
        assert_eq!(g2.num_tasks(), 2);
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(g2.label(crate::TaskId(0)), Some("start"));
        assert_eq!(g2.volume(crate::EdgeId(0)), 42.0);
        // Topological order must survive the trip.
        assert_eq!(g2.topological_order(), g.topological_order());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(from_json("{not json").is_err());
    }

    /// The split guess lands on an element boundary of a generated
    /// graph's `edges`, and the caller joins the helper there: a guess
    /// the caller never reaches would read the same graph on one thread.
    #[test]
    fn a_generated_graph_joins_the_tail_at_the_split() {
        use crate::generators::{layered, LayeredConfig};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let text = to_json(&layered(&mut rng, &LayeredConfig::paper(500))).unwrap();
        let at = tail_start(&text).expect("long enough to split");
        let mut joined = false;
        let tail = EdgeTail {
            src: &text,
            at,
            join: || {
                joined = true;
                read_tail(&text, at, &AtomicBool::new(false))
            },
        };
        let dag = read_dag(&mut Reader::new(&text), Some(tail)).unwrap();
        assert!(joined, "the caller passed the split without joining");
        assert_eq!(to_json(&dag).unwrap(), text);
    }
}
