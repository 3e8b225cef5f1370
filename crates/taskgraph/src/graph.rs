//! The DAG representation: dense task/edge ids, bidirectional adjacency
//! in a flat CSR layout, edge data volumes and abstract per-task work.
//!
//! # Memory layout
//!
//! Adjacency is stored *compressed sparse row* style: one contiguous
//! `(TaskId, EdgeId)` arena per direction plus a `v + 1` offset array, so
//! `preds(t)` / `succs(t)` are O(1) slice views into memory that is
//! contiguous across consecutive task ids — the scheduler's per-edge
//! folds stream it without pointer chasing. Within a task, neighbors
//! appear in **edge-insertion order** (the order `add_edge` was called),
//! which is the order the pre-CSR `Vec<Vec<…>>` representation produced;
//! the golden bit-identity suite and a dedicated property test pin this.
//!
//! Entry tasks, exit tasks and a topological order are precomputed by
//! [`DagBuilder::build`] and returned as slices — no per-call filtering.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a task (node) in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Dense identifier of an edge in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct NodeData {
    /// Abstract amount of computation; the platform model turns this into
    /// per-processor execution times.
    pub work: f64,
    /// Optional human-readable label (workloads name their tasks).
    pub label: Option<String>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct EdgeData {
    pub src: TaskId,
    pub dst: TaskId,
    /// Data volume `V(src, dst)` shipped along this edge.
    pub volume: f64,
}

/// One direction of adjacency in CSR form: `items[off[t]..off[t + 1]]`
/// are the `(neighbor, connecting edge)` pairs of task `t`, in edge
/// insertion order.
#[derive(Debug, Clone, Default)]
struct CsrAdjacency {
    off: Vec<u32>,
    items: Vec<(TaskId, EdgeId)>,
}

impl CsrAdjacency {
    #[inline]
    fn range(&self, t: TaskId) -> std::ops::Range<usize> {
        self.off[t.index()] as usize..self.off[t.index() + 1] as usize
    }

    /// Builds the CSR arrays by stable counting sort over `edges`,
    /// bucketing each edge under `key(edge)`; iterating edges in id order
    /// keeps every bucket in insertion order.
    fn build(v: usize, edges: &[EdgeData], key: impl Fn(&EdgeData) -> (TaskId, TaskId)) -> Self {
        let mut off = vec![0u32; v + 1];
        for e in edges {
            let (owner, _) = key(e);
            off[owner.index() + 1] += 1;
        }
        for t in 0..v {
            off[t + 1] += off[t];
        }
        let mut cursor = off.clone();
        let mut items = vec![(TaskId(0), EdgeId(0)); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let (owner, neighbor) = key(e);
            let slot = cursor[owner.index()];
            items[slot as usize] = (neighbor, EdgeId(i as u32));
            cursor[owner.index()] = slot + 1;
        }
        CsrAdjacency { off, items }
    }

    #[inline]
    fn row(&self, t: TaskId) -> &[(TaskId, EdgeId)] {
        &self.items[self.off[t.index()] as usize..self.off[t.index() + 1] as usize]
    }

    #[inline]
    fn degree(&self, t: TaskId) -> usize {
        (self.off[t.index() + 1] - self.off[t.index()]) as usize
    }
}

/// A weighted directed acyclic task graph.
///
/// Construct with [`DagBuilder`], which validates acyclicity:
///
/// ```
/// use taskgraph::DagBuilder;
/// let mut b = DagBuilder::new();
/// let a = b.add_task(2.0);
/// let c = b.add_task(3.0);
/// b.add_edge(a, c, 10.0);
/// let dag = b.build().unwrap();
/// assert_eq!(dag.num_tasks(), 2);
/// assert_eq!(dag.num_edges(), 1);
/// assert_eq!(dag.entries(), vec![a]);
/// assert_eq!(dag.exits(), vec![c]);
/// ```
#[derive(Debug, Clone)]
pub struct Dag {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) edges: Vec<EdgeData>,
    /// CSR view of `Γ⁻`: per task, (predecessor, connecting edge).
    preds: CsrAdjacency,
    /// CSR view of `Γ⁺`: per task, (successor, connecting edge).
    succs: CsrAdjacency,
    /// `pred_slot[eid]` = position of edge `eid` in the preds CSR arena
    /// (see [`Dag::pred_slot`]).
    pred_slot: Vec<u32>,
    /// A fixed topological order, computed at build time.
    pub(crate) topo: Vec<TaskId>,
    /// Tasks with no predecessors, in increasing id order.
    entries: Vec<TaskId>,
    /// Tasks with no successors, in increasing id order.
    exits: Vec<TaskId>,
}

impl Dag {
    /// Number of tasks `v = |V|`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `e = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All task ids in increasing id order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.nodes.len() as u32).map(TaskId)
    }

    /// Abstract computation amount of `t`.
    #[inline]
    pub fn work(&self, t: TaskId) -> f64 {
        self.nodes[t.index()].work
    }

    /// Optional label of `t`.
    pub fn label(&self, t: TaskId) -> Option<&str> {
        self.nodes[t.index()].label.as_deref()
    }

    /// Data volume `V(src, dst)` of edge `e`.
    #[inline]
    pub fn volume(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].volume
    }

    /// Endpoints `(src, dst)` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (TaskId, TaskId) {
        let d = &self.edges[e.index()];
        (d.src, d.dst)
    }

    /// Immediate predecessors `Γ⁻(t)` with the connecting edges.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[(TaskId, EdgeId)] {
        self.preds.row(t)
    }

    /// Immediate successors `Γ⁺(t)` with the connecting edges.
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[(TaskId, EdgeId)] {
        self.succs.row(t)
    }

    /// The contiguous range of *pred-arena slots* owned by `t`: the
    /// positions of `t`'s incoming edges in the predecessor CSR arena,
    /// aligned with [`Dag::preds`] (slot `pred_range(t).start + i`
    /// belongs to `preds(t)[i]`). Consumers that key per-edge data by
    /// pred-arena slot instead of [`EdgeId`] get one contiguous block
    /// per destination task — the scheduler's arrival cache streams an
    /// entire eq. (1) query from a single block this way.
    #[inline]
    pub fn pred_range(&self, t: TaskId) -> std::ops::Range<usize> {
        self.preds.range(t)
    }

    /// The pred-arena slot of edge `e`: its position in the predecessor
    /// CSR arena (the index [`Dag::pred_range`] addresses). Every edge
    /// has exactly one slot; slots are a permutation of `0..num_edges()`.
    #[inline]
    pub fn pred_slot(&self, e: EdgeId) -> usize {
        self.pred_slot[e.index()] as usize
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.preds.degree(t)
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succs.degree(t)
    }

    /// Entry tasks (no predecessors), in increasing id order.
    /// Precomputed at build time — O(1).
    #[inline]
    pub fn entries(&self) -> &[TaskId] {
        &self.entries
    }

    /// Exit tasks (no successors), in increasing id order.
    /// Precomputed at build time — O(1).
    #[inline]
    pub fn exits(&self) -> &[TaskId] {
        &self.exits
    }

    /// A topological order of the tasks (fixed at build time).
    #[inline]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// All edges as `(EdgeId, src, dst, volume)` tuples.
    pub fn edge_list(&self) -> impl Iterator<Item = (EdgeId, TaskId, TaskId, f64)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e.src, e.dst, e.volume))
    }

    /// Sum of all task work values.
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.work).sum()
    }

    /// Sum of all edge volumes.
    pub fn total_volume(&self) -> f64 {
        self.edges.iter().map(|e| e.volume).sum()
    }
}

/// Only `nodes` and `edges` are serialized; the CSR adjacency, the
/// topological order and the entry/exit sets are derived data and are
/// rebuilt (and re-validated) on deserialization.
impl Serialize for Dag {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.field("nodes");
        self.nodes.serialize(w);
        w.field("edges");
        self.edges.serialize(w);
        w.end_object();
    }
}

impl Deserialize for Dag {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut nodes, mut edges) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "nodes" => r.field(&mut nodes)?,
                "edges" => r.field(&mut edges)?,
                _ => r.skip_value()?,
            }
        }
        DagBuilder {
            nodes: nodes.ok_or_else(|| serde::Error::missing_field("nodes", "Dag"))?,
            edges: edges.ok_or_else(|| serde::Error::missing_field("edges", "Dag"))?,
        }
        .build()
        .map_err(|e| serde::Error::custom(format!("Dag: invalid graph: {e}")))
    }
}

/// Incremental constructor for [`Dag`]; validates acyclicity in
/// [`DagBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
}

/// Errors raised when finalizing a [`DagBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The edge set contains a directed cycle.
    Cyclic,
    /// An edge repeats an existing (src, dst) pair.
    DuplicateEdge(TaskId, TaskId),
    /// An edge is a self-loop.
    SelfLoop(TaskId),
    /// An edge names an endpoint that is not a task of the graph.
    UnknownEndpoint(EdgeId, TaskId),
    /// A task's work is negative or not finite.
    InvalidWork(TaskId),
    /// An edge's data volume is negative or not finite.
    InvalidVolume(EdgeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cyclic => write!(f, "graph contains a directed cycle"),
            GraphError::DuplicateEdge(s, d) => write!(f, "duplicate edge {s} -> {d}"),
            GraphError::SelfLoop(t) => write!(f, "self loop on {t}"),
            GraphError::UnknownEndpoint(e, t) => {
                write!(f, "edge {} names unknown task {t}", e.index())
            }
            GraphError::InvalidWork(t) => write!(f, "work of {t} is negative or not finite"),
            GraphError::InvalidVolume(e) => {
                write!(f, "volume of edge {} is negative or not finite", e.index())
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with reserved capacity.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        DagBuilder {
            nodes: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a task with the given abstract work; returns its id.
    pub fn add_task(&mut self, work: f64) -> TaskId {
        assert!(
            work >= 0.0 && work.is_finite(),
            "work must be finite and >= 0"
        );
        let id = TaskId(self.nodes.len() as u32);
        self.nodes.push(NodeData { work, label: None });
        id
    }

    /// Adds a labelled task.
    pub fn add_labelled_task(&mut self, work: f64, label: impl Into<String>) -> TaskId {
        let id = self.add_task(work);
        self.nodes[id.index()].label = Some(label.into());
        id
    }

    /// Adds a precedence edge shipping `volume` units of data.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, volume: f64) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "unknown src task");
        assert!(dst.index() < self.nodes.len(), "unknown dst task");
        assert!(
            volume >= 0.0 && volume.is_finite(),
            "volume must be finite and >= 0"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, volume });
        id
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the graph, checking weights (finite and `>= 0`), edge
    /// endpoints, self-loops, duplicate edges and cycles (Kahn's
    /// algorithm), and assembling the flat CSR adjacency plus the
    /// precomputed entry/exit sets. The checks matter for builders
    /// filled by deserialization, which bypasses the asserting adders.
    pub fn build(self) -> Result<Dag, GraphError> {
        let v = self.nodes.len();
        let valid = |x: f64| x >= 0.0 && x.is_finite();
        if let Some(t) = self.nodes.iter().position(|n| !valid(n.work)) {
            return Err(GraphError::InvalidWork(TaskId(t as u32)));
        }
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            for t in [e.src, e.dst] {
                if t.index() >= v {
                    return Err(GraphError::UnknownEndpoint(id, t));
                }
            }
            if !valid(e.volume) {
                return Err(GraphError::InvalidVolume(id));
            }
            if e.src == e.dst {
                return Err(GraphError::SelfLoop(e.src));
            }
            if !seen.insert((e.src, e.dst)) {
                return Err(GraphError::DuplicateEdge(e.src, e.dst));
            }
        }
        let preds = CsrAdjacency::build(v, &self.edges, |e| (e.dst, e.src));
        let succs = CsrAdjacency::build(v, &self.edges, |e| (e.src, e.dst));
        let mut pred_slot = vec![0u32; self.edges.len()];
        for (slot, &(_, eid)) in preds.items.iter().enumerate() {
            pred_slot[eid.index()] = slot as u32;
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<usize> = (0..v as u32).map(|t| preds.degree(TaskId(t))).collect();
        let mut queue: std::collections::VecDeque<TaskId> = (0..v as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(v);
        while let Some(t) = queue.pop_front() {
            topo.push(t);
            for &(s, _) in succs.row(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if topo.len() != v {
            return Err(GraphError::Cyclic);
        }

        let entries: Vec<TaskId> = (0..v as u32)
            .map(TaskId)
            .filter(|&t| preds.degree(t) == 0)
            .collect();
        let exits: Vec<TaskId> = (0..v as u32)
            .map(TaskId)
            .filter(|&t| succs.degree(t) == 0)
            .collect();

        Ok(Dag {
            nodes: self.nodes,
            edges: self.edges,
            preds,
            succs,
            pred_slot,
            topo,
            entries,
            exits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..4).map(|i| b.add_task(i as f64 + 1.0)).collect();
        b.add_edge(t[0], t[1], 1.0);
        b.add_edge(t[0], t[2], 2.0);
        b.add_edge(t[1], t[3], 3.0);
        b.add_edge(t[2], t[3], 4.0);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.entries(), vec![TaskId(0)]);
        assert_eq!(g.exits(), vec![TaskId(3)]);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.total_work(), 10.0);
        assert_eq!(g.total_volume(), 10.0);
    }

    #[test]
    fn adjacency_preserves_insertion_order() {
        let g = diamond();
        // succs(t0): edges 0 then 1; preds(t3): edges 2 then 3 — exactly
        // the order `add_edge` was called, as the Vec-of-Vecs layout
        // produced before the CSR flattening.
        assert_eq!(
            g.succs(TaskId(0)),
            &[(TaskId(1), EdgeId(0)), (TaskId(2), EdgeId(1))]
        );
        assert_eq!(
            g.preds(TaskId(3)),
            &[(TaskId(1), EdgeId(2)), (TaskId(2), EdgeId(3))]
        );
    }

    #[test]
    fn pred_slots_are_contiguous_aligned_permutation() {
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        // A random DAG (edges only forward in id order) exercises
        // interleaved insertion across destinations.
        let mut b = DagBuilder::new();
        let t: Vec<TaskId> = (0..40).map(|_| b.add_task(1.0)).collect();
        let mut added = std::collections::HashSet::new();
        for _ in 0..150 {
            let i = (next() % 39) as usize;
            let j = i + 1 + (next() % (39 - i as u64 + 1)) as usize;
            if j < 40 && added.insert((i, j)) {
                b.add_edge(t[i], t[j], 1.0);
            }
        }
        let g = b.build().unwrap();
        // Slot ranges align with preds() and partition 0..e.
        let mut seen = vec![false; g.num_edges()];
        for task in g.tasks() {
            let range = g.pred_range(task);
            assert_eq!(range.len(), g.in_degree(task));
            for (i, &(_, eid)) in g.preds(task).iter().enumerate() {
                assert_eq!(g.pred_slot(eid), range.start + i);
                assert!(!seen[g.pred_slot(eid)]);
                seen[g.pred_slot(eid)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "slots are a permutation of 0..e");
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_tasks()];
            for (i, t) in g.topological_order().iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for (_, s, d, _) in g.edge_list() {
            assert!(pos[s.index()] < pos[d.index()]);
        }
    }

    #[test]
    fn cycle_detected() {
        let mut b = DagBuilder::new();
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        b.add_edge(x, y, 1.0);
        b.add_edge(y, x, 1.0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = DagBuilder::new();
        let x = b.add_task(1.0);
        b.add_edge(x, x, 1.0);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(x));
    }

    #[test]
    fn duplicate_edge_detected() {
        let mut b = DagBuilder::new();
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        b.add_edge(x, y, 1.0);
        b.add_edge(x, y, 2.0);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(x, y));
    }

    #[test]
    fn labels_round_trip() {
        let mut b = DagBuilder::new();
        let t = b.add_labelled_task(1.0, "pivot(0)");
        let g = b.build().unwrap();
        assert_eq!(g.label(t), Some("pivot(0)"));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = DagBuilder::new().build().unwrap();
        assert_eq!(g.num_tasks(), 0);
        assert!(g.entries().is_empty());
    }

    #[test]
    fn serde_json_round_trip() {
        let g = diamond();
        let s = serde_json::to_string(&g).unwrap();
        let g2: Dag = serde_json::from_str(&s).unwrap();
        assert_eq!(g2.num_tasks(), g.num_tasks());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_work(), g.total_work());
        // Derived data is rebuilt identically.
        assert_eq!(g2.entries(), g.entries());
        assert_eq!(g2.exits(), g.exits());
        assert_eq!(g2.topological_order(), g.topological_order());
        for t in g.tasks() {
            assert_eq!(g2.preds(t), g.preds(t));
            assert_eq!(g2.succs(t), g.succs(t));
        }
    }

    #[test]
    fn deserialized_graphs_are_validated() {
        let node = r#"{"work": 1.0, "label": null}"#;
        let graph =
            |nodes: &str, edges: &str| format!(r#"{{"nodes": [{nodes}], "edges": [{edges}]}}"#);
        let reject = |json: String, err: GraphError| {
            let e = serde_json::from_str::<Dag>(&json).unwrap_err().to_string();
            assert_eq!(e, format!("Dag: invalid graph: {err}"));
        };
        reject(
            graph(node, r#"{"src": 0, "dst": 5, "volume": 1.0}"#),
            GraphError::UnknownEndpoint(EdgeId(0), TaskId(5)),
        );
        reject(
            graph(
                &format!("{node}, {node}"),
                r#"{"src": 7, "dst": 1, "volume": 1.0}"#,
            ),
            GraphError::UnknownEndpoint(EdgeId(0), TaskId(7)),
        );
        reject(
            graph(&format!(r#"{node}, {{"work": -3.0, "label": null}}"#), ""),
            GraphError::InvalidWork(TaskId(1)),
        );
        reject(
            graph(
                &format!("{node}, {node}"),
                r#"{"src": 0, "dst": 1, "volume": -0.5}"#,
            ),
            GraphError::InvalidVolume(EdgeId(0)),
        );
        // Non-finite weights cannot even be spelled: an overflowing
        // literal is a parse error, not an infinite weight.
        let inf = graph(r#"{"work": 1e400, "label": null}"#, "");
        assert!(serde_json::from_str::<Dag>(&inf)
            .unwrap_err()
            .to_string()
            .contains("overflows f64"));
        // Zero weights stay legal.
        let zero = graph(
            &format!(r#"{node}, {{"work": 0.0, "label": "z"}}"#),
            r#"{"src": 0, "dst": 1, "volume": 0.0}"#,
        );
        assert_eq!(serde_json::from_str::<Dag>(&zero).unwrap().num_edges(), 1);
    }
}
