//! Weighted precedence task graphs for fault-tolerant scheduling.
//!
//! The execution model of the FTSA paper (Section 2): a weighted DAG
//! `G = (V, E)` where nodes are tasks and edge `(t_i, t_j)` carries the
//! data volume `V(t_i, t_j)` that `t_i` must ship to `t_j`. Entry nodes
//! have no predecessors, exit nodes no successors. `Γ⁻(t)` / `Γ⁺(t)` are
//! immediate predecessors / successors; the *width* `ω` is the maximum
//! antichain size, which bounds the free list `|α| ≤ ω` in FTSA.
//!
//! Provided here, all built from scratch:
//!
//! * [`Dag`] — the graph representation: dense ids, edge volumes,
//!   abstract per-task work, and bidirectional adjacency in a flat CSR
//!   layout (`preds`/`succs` are O(1) slice views into one contiguous
//!   arena, in edge-insertion order; entry/exit sets and a topological
//!   order are precomputed at build time — see [`graph`]).
//! * [`generators`] — random DAGs: layered (the shape used in the paper's
//!   experiments and the scheduling literature), Erdős–Rényi-style, and
//!   fork–join families.
//! * [`workloads`] — structured application graphs: Gaussian elimination,
//!   FFT butterfly, 1-D stencil/wavefront sweeps, and map–reduce, used by
//!   the examples and extended benchmarks.
//! * [`metrics`] — critical paths, a level-based width bound, degree
//!   statistics.
//! * [`io`] — DOT export and JSON (de)serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod topology;
pub mod workloads;

pub use graph::{Dag, DagBuilder, EdgeId, TaskId};
