//! Ordered and priority data structures used by the `ftsched` scheduler.
//!
//! The FTSA algorithm of Benoit, Hakem and Robert (RR-6418, 2008) keeps
//! its list of free tasks `α` "using a balanced search tree data structure
//! (AVL)" so that selecting the critical task costs `O(log ω)` where `ω` is
//! the width of the task graph. The scheduler meets that bound with the
//! indexed [`DaryHeap`] below; the AVL structures remain for the
//! `ablations` bench, which compares them. Every structure is built from
//! scratch:
//!
//! * [`AvlTree`] — a generic AVL-balanced ordered map with `O(log n)`
//!   insert / remove / min / max and in-order iteration.
//! * [`PriorityList`] — a max-priority list over `(priority, tie-break)`
//!   keys with stable membership queries, backed by the AVL tree.
//! * [`IndexedHeap`] — a binary min-heap with `O(log n)` decrease-key /
//!   remove by handle, used by the discrete-event simulator and by the
//!   greedy communication selector.
//! * [`DaryHeap`] — an indexed d-ary min-heap (default arity 4); the
//!   unified list-scheduling pipeline keeps its free list `α` here
//!   (max-ordering via `core::cmp::Reverse` keys).
//! * [`EpochHeap`] — a lazy d-ary max-heap with epoch-tombstoned
//!   entries and O(1) invalidation through a caller-shared epoch array;
//!   the incremental pressure engine keys its urgency queue and the
//!   per-processor guard queues here.
//! * [`select_smallest`] — deterministic `O(m · k)` partial selection of
//!   the `k` smallest candidates, bit-equal to a stable sort-then-
//!   truncate; backs the `ε + 1`-processor selection of the scheduler.
//! * [`fold`] — elementwise min/max folds over contiguous `f64`
//!   rows, bit-identical to their scalar references; the scheduler's
//!   arrival-cache read/write folds stream through these.
//! * [`OrdF64`] — a total-order wrapper over finite `f64` values, the key
//!   type used throughout the scheduler (latencies and priorities are
//!   finite by construction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avl;
pub mod dary;
pub mod epoch_heap;
pub mod fold;
pub mod heap;
pub mod ordf64;
pub mod priority_list;
pub mod select;

pub use avl::AvlTree;
pub use dary::DaryHeap;
pub use epoch_heap::EpochHeap;
pub use heap::IndexedHeap;
pub use ordf64::OrdF64;
pub use priority_list::PriorityList;
pub use select::{select_smallest, select_smallest_into};
