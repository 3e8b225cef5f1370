//! Ordered and priority data structures used by the `ftsched` scheduler.
//!
//! The FTSA algorithm of Benoit, Hakem and Robert (RR-6418, 2008) keeps
//! its list of free tasks `α` "using a balanced search tree data structure
//! (AVL)" so that selecting the critical task costs `O(log ω)` where `ω` is
//! the width of the task graph. Each task enters `α` once, with a key that
//! never changes, and leaves it as the maximum, so the scheduler meets
//! that bound with `std::collections::BinaryHeap`. The structures here
//! serve the rest of the scheduler's hot path; every one is built from
//! scratch:
//!
//! * [`EpochHeap`] — a lazy d-ary max-heap with epoch-tombstoned
//!   entries and O(1) invalidation through a caller-shared epoch array;
//!   the incremental pressure engine keys its urgency queue and the
//!   per-processor guard queues here.
//! * [`select_smallest_into`] — deterministic `O(m · k)` partial
//!   selection of the `k` smallest candidates into a reused buffer,
//!   bit-equal to a stable sort-then-truncate; backs the
//!   `ε + 1`-processor selection of the scheduler.
//! * [`fold`] — elementwise min/max folds over contiguous `f64`
//!   rows, bit-identical to their scalar references; the scheduler's
//!   arrival-cache read/write folds stream through these.
//! * [`OrdF64`] — a total-order wrapper over finite `f64` values, the key
//!   type used throughout the scheduler (latencies and priorities are
//!   finite by construction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch_heap;
pub mod fold;
pub mod ordf64;
pub mod select;

pub use epoch_heap::EpochHeap;
pub use ordf64::OrdF64;
pub use select::select_smallest_into;
