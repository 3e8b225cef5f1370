//! An indexed d-ary min-heap.
//!
//! The unified list-scheduling pipeline keeps its free list `α` here: a
//! d-ary heap trades slightly more sibling comparisons per level for a
//! much shallower tree and cache-friendly child blocks, which wins for
//! the insert-heavy / pop-heavy α workload (every task enters and leaves
//! exactly once). Entries are addressed by dense caller-chosen `usize`
//! ids through an id → position index, so membership tests and in-place
//! key updates stay O(1)/O(log n).
//!
//! The default arity of 4 is the usual sweet spot on modern caches; any
//! `D >= 2` works.

/// A d-ary min-heap keyed by `P: Ord`, addressable by dense `usize` ids.
///
/// Pop order among *distinct* keys is fully determined by `Ord`; the
/// scheduler guarantees key uniqueness (its keys embed a random
/// tie-break token), which makes every pop sequence deterministic.
///
/// ```
/// use ftcollections::DaryHeap;
///
/// let mut h: DaryHeap<u32, 4> = DaryHeap::new(8);
/// h.push(0, 50);
/// h.push(1, 30);
/// h.push(2, 40);
/// h.push(3, 60);
/// h.decrease_key(3, 10);
/// assert_eq!(h.pop(), Some((3, 10)));
/// assert_eq!(h.pop(), Some((1, 30)));
/// assert_eq!(h.pop(), Some((2, 40)));
/// assert_eq!(h.pop(), Some((0, 50)));
/// ```
#[derive(Debug, Clone)]
pub struct DaryHeap<P, const D: usize = 4> {
    /// Heap-ordered `(priority, id)` pairs.
    data: Vec<(P, usize)>,
    /// `pos[id]` = index into `data`, or `usize::MAX` when absent.
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl<P: Ord, const D: usize> Default for DaryHeap<P, D> {
    fn default() -> Self {
        DaryHeap::new(0)
    }
}

impl<P: Ord, const D: usize> DaryHeap<P, D> {
    /// Creates a heap able to hold ids `0..capacity` (grows on demand).
    pub fn new(capacity: usize) -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
        DaryHeap {
            data: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
        }
    }

    /// Number of entries currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether `id` is currently enqueued.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        id < self.pos.len() && self.pos[id] != ABSENT
    }

    /// Current priority of `id`, if enqueued.
    pub fn priority(&self, id: usize) -> Option<&P> {
        if self.contains(id) {
            Some(&self.data[self.pos[id]].0)
        } else {
            None
        }
    }

    /// Removes every entry, keeping the allocated capacity — O(capacity).
    /// Reusing a heap across scheduler runs this way is allocation-free
    /// as long as the id universe does not grow.
    pub fn clear(&mut self) {
        self.data.clear();
        self.pos.fill(ABSENT);
    }

    fn ensure_id(&mut self, id: usize) {
        if id >= self.pos.len() {
            self.pos.resize(id + 1, ABSENT);
        }
    }

    /// Inserts `id` with `priority`.
    ///
    /// # Panics
    /// Panics if `id` is already enqueued.
    pub fn push(&mut self, id: usize, priority: P) {
        self.ensure_id(id);
        assert_eq!(self.pos[id], ABSENT, "id {id} already enqueued");
        self.data.push((priority, id));
        let i = self.data.len() - 1;
        self.pos[id] = i;
        self.sift_up(i);
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(usize, P)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let (priority, id) = self.data.pop().expect("nonempty");
        self.pos[id] = ABSENT;
        if !self.data.is_empty() {
            self.pos[self.data[0].1] = 0;
            self.sift_down(0);
        }
        Some((id, priority))
    }

    /// Returns the minimum entry without removing it.
    pub fn peek(&self) -> Option<(usize, &P)> {
        self.data.first().map(|(p, id)| (*id, p))
    }

    /// Removes `id` from the heap, returning its priority.
    pub fn remove(&mut self, id: usize) -> Option<P> {
        if !self.contains(id) {
            return None;
        }
        let i = self.pos[id];
        let last = self.data.len() - 1;
        self.data.swap(i, last);
        let (priority, removed_id) = self.data.pop().expect("nonempty");
        debug_assert_eq!(removed_id, id);
        self.pos[id] = ABSENT;
        if i < self.data.len() {
            self.pos[self.data[i].1] = i;
            // The swapped-in leaf may belong either above or below `i`.
            self.sift_up(i);
            self.sift_down(i);
        }
        Some(priority)
    }

    /// Lowers the priority of `id`. Panics if absent or if the new
    /// priority is greater than the current one.
    pub fn decrease_key(&mut self, id: usize, priority: P) {
        assert!(self.contains(id), "id {id} not enqueued");
        let i = self.pos[id];
        assert!(
            priority <= self.data[i].0,
            "decrease_key must not increase the priority"
        );
        self.data[i].0 = priority;
        self.sift_up(i);
    }

    /// Sets the priority of `id` to any value, inserting it if absent.
    pub fn update_key(&mut self, id: usize, priority: P) {
        self.ensure_id(id);
        if self.pos[id] == ABSENT {
            self.push(id, priority);
            return;
        }
        let i = self.pos[id];
        let up = priority < self.data[i].0;
        self.data[i].0 = priority;
        if up {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.data[i].0 < self.data[parent].0 {
                self.data.swap(i, parent);
                self.pos[self.data[i].1] = i;
                self.pos[self.data[parent].1] = parent;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        loop {
            let first = D * i + 1;
            if first >= n {
                break;
            }
            let mut smallest = i;
            for c in first..(first + D).min(n) {
                if self.data[c].0 < self.data[smallest].0 {
                    smallest = c;
                }
            }
            if smallest == i {
                break;
            }
            self.data.swap(i, smallest);
            self.pos[self.data[i].1] = i;
            self.pos[self.data[smallest].1] = smallest;
            i = smallest;
        }
    }

    /// Verifies the heap property and index consistency; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 1..self.data.len() {
            let parent = (i - 1) / D;
            if self.data[i].0 < self.data[parent].0 {
                return Err(format!("heap property violated at index {i}"));
            }
        }
        for (i, (_, id)) in self.data.iter().enumerate() {
            if self.pos[*id] != i {
                return Err(format!("pos index stale for id {id}"));
            }
        }
        let live = self.pos.iter().filter(|&&p| p != ABSENT).count();
        if live != self.data.len() {
            return Err("pos/data length mismatch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_sorted_all_arities() {
        fn run<const D: usize>() {
            let mut h: DaryHeap<i32, D> = DaryHeap::new(4);
            let xs = [9, 4, 7, 1, 8, 3, 0, 6, 2, 5, 11, 10];
            for (id, &x) in xs.iter().enumerate() {
                h.push(id, x);
                h.check_invariants().unwrap();
            }
            let mut out = Vec::new();
            while let Some((_, p)) = h.pop() {
                out.push(p);
                h.check_invariants().unwrap();
            }
            assert_eq!(out, (0..12).collect::<Vec<_>>());
        }
        run::<2>();
        run::<3>();
        run::<4>();
        run::<8>();
    }

    #[test]
    fn max_heap_via_reverse() {
        use std::cmp::Reverse;
        let mut h: DaryHeap<Reverse<(u64, u64)>, 4> = DaryHeap::new(4);
        h.push(0, Reverse((10, 1)));
        h.push(1, Reverse((30, 2)));
        h.push(2, Reverse((30, 9)));
        // Max (priority, tiebreak) pops first: (30, 9) beats (30, 2).
        assert_eq!(h.pop(), Some((2, Reverse((30, 9)))));
        assert_eq!(h.pop(), Some((1, Reverse((30, 2)))));
        assert_eq!(h.pop(), Some((0, Reverse((10, 1)))));
    }

    #[test]
    fn remove_and_update() {
        let mut h: DaryHeap<i32, 4> = DaryHeap::new(8);
        for id in 0..8 {
            h.push(id, (id as i32 * 13) % 7);
        }
        assert!(h.remove(3).is_some());
        assert!(!h.contains(3));
        assert_eq!(h.remove(3), None);
        h.check_invariants().unwrap();
        h.update_key(5, -10);
        assert_eq!(h.peek().map(|(id, _)| id), Some(5));
        h.update_key(5, 100);
        assert_ne!(h.peek().map(|(id, _)| id), Some(5));
        h.check_invariants().unwrap();
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut h: DaryHeap<usize, 4> = DaryHeap::new(1);
        for id in 0..100 {
            h.push(id, 100 - id);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.pop(), Some((99, 1)));
        h.check_invariants().unwrap();
    }

    #[test]
    fn clear_resets_membership() {
        let mut h: DaryHeap<i32, 4> = DaryHeap::new(8);
        for id in 0..8 {
            h.push(id, id as i32);
        }
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(3));
        h.push(3, -1);
        assert_eq!(h.pop(), Some((3, -1)));
        h.check_invariants().unwrap();
    }

    #[test]
    fn priority_lookup_and_empty_pop() {
        let mut h: DaryHeap<i32, 4> = DaryHeap::new(4);
        assert_eq!(h.pop(), None);
        h.push(2, 42);
        assert_eq!(h.priority(2), Some(&42));
        assert_eq!(h.priority(0), None);
        assert!(!h.is_empty());
    }
}
