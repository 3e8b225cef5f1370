//! A lazy d-ary max-heap with epoch-tombstoned entries.
//!
//! The incremental schedule-pressure engine needs a priority queue over
//! per-task urgency keys where a key *invalidation* is O(1): tasks are
//! re-keyed whenever a bound tightens, and the per-processor guard
//! queues re-key whole batches per placement. An indexed heap pays
//! `O(log n)` per remove and needs an id → position index per instance
//! — too much for `m + 1` heaps over the same id universe. This heap
//! instead never removes eagerly: every entry carries the **epoch** of
//! its id at push time, the caller keeps one
//! shared `epochs: &[u32]` array (one slot per id, shared across any
//! number of heaps), and bumping `epochs[id]` tombstones *all* of that
//! id's outstanding entries in *all* heaps at once. Stale entries are
//! discarded lazily when they surface at the top, and
//! [`EpochHeap::compact`] sweeps them out wholesale when they dominate.
//!
//! The heap is a **max**-heap over `K: Ord` (the scheduler's urgency
//! keys embed a random tie-break token, so tops are unique and pop
//! order is deterministic); min-at-top uses `core::cmp::Reverse` keys.

/// One lazily-deleted heap entry.
#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    key: K,
    id: u32,
    epoch: u32,
}

/// A d-ary max-heap with lazy epoch-based invalidation; see the
/// [module docs](self).
///
/// ```
/// use ftcollections::EpochHeap;
///
/// let mut epochs = vec![0u32; 3];
/// let mut h: EpochHeap<u64> = EpochHeap::new();
/// h.push(0, epochs[0], 50);
/// h.push(1, epochs[1], 70);
/// h.push(2, epochs[2], 60);
/// // Re-key id 1: bump its epoch (killing the old entry) and push anew.
/// epochs[1] += 1;
/// h.push(1, epochs[1], 40);
/// assert_eq!(h.pop(&epochs), Some((2, 60)));
/// assert_eq!(h.pop(&epochs), Some((0, 50)));
/// assert_eq!(h.pop(&epochs), Some((1, 40)));
/// assert_eq!(h.pop(&epochs), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochHeap<K, const D: usize = 4> {
    data: Vec<Entry<K>>,
}

impl<K: Ord + Copy, const D: usize> EpochHeap<K, D> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
        EpochHeap { data: Vec::new() }
    }

    /// Number of entries physically stored — live *and* tombstoned.
    #[inline]
    pub fn raw_len(&self) -> usize {
        self.data.len()
    }

    /// Whether no entries are stored at all (not even tombstones).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Inserts an entry for `id` tagged with its current `epoch`
    /// (i.e. `epochs[id]` — passed by value so pushes never borrow the
    /// caller's epoch array). Entries whose epoch has since been bumped
    /// become tombstones and are skipped by the pop family.
    pub fn push(&mut self, id: u32, epoch: u32, key: K) {
        self.data.push(Entry { key, id, epoch });
        self.sift_up(self.data.len() - 1);
    }

    /// Discards tombstoned tops, then removes and returns the live
    /// maximum entry.
    pub fn pop(&mut self, epochs: &[u32]) -> Option<(u32, K)> {
        self.prune_top(epochs);
        self.pop_top()
    }

    /// Discards tombstoned tops, then removes and returns the live
    /// maximum entry *only if* `take` accepts its key — the guard-queue
    /// drain primitive (`while let Some(..) = h.pop_if(epochs, |k| ..)`).
    pub fn pop_if(&mut self, epochs: &[u32], take: impl FnOnce(&K) -> bool) -> Option<(u32, K)> {
        self.prune_top(epochs);
        let top = self.data.first()?;
        if take(&top.key) {
            self.pop_top()
        } else {
            None
        }
    }

    /// Discards tombstoned tops and returns the live maximum without
    /// removing it.
    pub fn peek(&mut self, epochs: &[u32]) -> Option<(u32, &K)> {
        self.prune_top(epochs);
        self.data.first().map(|e| (e.id, &e.key))
    }

    /// Drops every tombstoned entry and restores the heap property over
    /// the survivors (Floyd heap construction, O(n)) — in place, no
    /// allocation. Callers invoke this when tombstones outnumber live
    /// entries by a known bound (the scheduler compacts when the raw
    /// size exceeds twice the id universe) so heap depth stays
    /// proportional to the live population.
    pub fn compact(&mut self, epochs: &[u32]) {
        self.data.retain(|e| epochs[e.id as usize] == e.epoch);
        let n = self.data.len();
        for i in (0..n / D + 1).rev() {
            self.sift_down(i);
        }
    }

    /// Pops while the top is tombstoned.
    fn prune_top(&mut self, epochs: &[u32]) {
        while let Some(top) = self.data.first() {
            if epochs[top.id as usize] == top.epoch {
                break;
            }
            self.pop_top();
        }
    }

    /// Unconditional top removal (caller has validated the top).
    fn pop_top(&mut self) -> Option<(u32, K)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let e = self.data.pop().expect("nonempty");
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        Some((e.id, e.key))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.data[i].key > self.data[parent].key {
                self.data.swap(i, parent);
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
            let mut largest = i;
            for c in first..(first + D).min(n) {
                if self.data[c].key > self.data[largest].key {
                    largest = c;
                }
            }
            if largest == i {
                break;
            }
            self.data.swap(i, largest);
            i = largest;
        }
    }

    /// Verifies the max-heap property; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 1..self.data.len() {
            let parent = (i - 1) / D;
            if self.data[i].key > self.data[parent].key {
                return Err(format!("heap property violated at index {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn pop_order_is_descending() {
        let epochs = vec![0u32; 12];
        let mut h: EpochHeap<i32> = EpochHeap::new();
        for (id, x) in [9, 4, 7, 1, 8, 3, 0, 6, 2, 5, 11, 10]
            .into_iter()
            .enumerate()
        {
            h.push(id as u32, 0, x);
            h.check_invariants().unwrap();
        }
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop(&epochs) {
            out.push(k);
            h.check_invariants().unwrap();
        }
        assert_eq!(out, (0..12).rev().collect::<Vec<_>>());
    }

    #[test]
    fn epoch_bump_tombstones_all_outstanding_entries() {
        let mut epochs = vec![0u32; 4];
        let mut h: EpochHeap<u64> = EpochHeap::new();
        // Three generations of keys for id 2, one live key for id 0.
        h.push(2, 0, 100);
        epochs[2] = 1;
        h.push(2, 1, 90);
        epochs[2] = 2;
        h.push(2, 2, 80);
        h.push(0, 0, 85);
        assert_eq!(h.raw_len(), 4);
        assert_eq!(h.pop(&epochs), Some((0, 85)));
        assert_eq!(h.pop(&epochs), Some((2, 80)));
        assert_eq!(h.pop(&epochs), None);
        assert!(h.is_empty(), "popping past the end drains tombstones");
    }

    #[test]
    fn shared_epochs_invalidate_across_heaps() {
        // One epoch array serving several heaps: a single bump kills the
        // id's entries everywhere — the m-guard-queue use case.
        let mut epochs = vec![0u32; 3];
        let mut a: EpochHeap<u32> = EpochHeap::new();
        let mut b: EpochHeap<u32> = EpochHeap::new();
        a.push(1, 0, 10);
        b.push(1, 0, 20);
        a.push(2, 0, 5);
        epochs[1] = 1;
        assert_eq!(a.pop(&epochs), Some((2, 5)));
        assert_eq!(a.pop(&epochs), None);
        assert_eq!(b.pop(&epochs), None);
    }

    #[test]
    fn pop_if_takes_only_matching_tops() {
        let mut epochs = vec![0u32; 4];
        let mut h: EpochHeap<Reverse<u32>> = EpochHeap::new();
        // Min-at-top via Reverse: thresholds 10, 20, 30.
        h.push(0, 0, Reverse(10));
        h.push(1, 0, Reverse(20));
        h.push(2, 0, Reverse(30));
        epochs[0] = 1; // tombstone the smallest
        let mut fired = Vec::new();
        while let Some((id, _)) = h.pop_if(&epochs, |Reverse(th)| *th < 25) {
            fired.push(id);
        }
        assert_eq!(fired, vec![1], "tombstone skipped, 30 left in place");
        assert_eq!(h.pop(&epochs), Some((2, Reverse(30))));
    }

    #[test]
    fn peek_skips_tombstones_without_losing_live_entries() {
        let mut epochs = vec![0u32; 2];
        let mut h: EpochHeap<u32> = EpochHeap::new();
        h.push(0, 0, 50);
        h.push(1, 0, 40);
        epochs[0] = 1;
        assert_eq!(h.peek(&epochs), Some((1, &40)));
        assert_eq!(h.pop(&epochs), Some((1, 40)));
    }

    #[test]
    fn compact_drops_tombstones_and_preserves_order() {
        let mut epochs = vec![0u32; 64];
        let mut h: EpochHeap<(u32, u32)> = EpochHeap::new();
        for round in 0..8u32 {
            for id in 0..64u32 {
                epochs[id as usize] = round;
                h.push(id, round, (id * 7 % 64 + round, id));
            }
        }
        assert_eq!(h.raw_len(), 8 * 64);
        h.compact(&epochs);
        assert_eq!(h.raw_len(), 64);
        h.check_invariants().unwrap();
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop(&epochs) {
            out.push(k);
        }
        let mut sorted = out.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(out, sorted);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        let epochs = vec![0u32; 8];
        let mut h: EpochHeap<u32> = EpochHeap::new();
        for id in 0..8 {
            h.push(id, 0, id);
        }
        let cap = h.data.capacity();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.data.capacity(), cap);
        h.push(3, 0, 1);
        assert_eq!(h.pop(&epochs), Some((3, 1)));
    }

    /// Randomized oracle: the heap with interleaved pushes, epoch bumps
    /// and pops agrees with a naive scan over the live set.
    #[test]
    fn randomized_against_naive_oracle() {
        // Small deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ids = 32usize;
        let mut epochs = vec![0u32; ids];
        let mut h: EpochHeap<(u64, u32)> = EpochHeap::new();
        // live[id] = Some(key) mirrors the single live entry per id the
        // scheduler maintains.
        let mut live: Vec<Option<(u64, u32)>> = vec![None; ids];
        for step in 0..4000 {
            let id = (next() % ids as u64) as usize;
            match next() % 4 {
                // Re-key: bump + push (the scheduler's invalidation).
                0 | 1 => {
                    epochs[id] += 1;
                    let key = (next() % 1000, id as u32);
                    h.push(id as u32, epochs[id], key);
                    live[id] = Some(key);
                }
                // Drop the id entirely.
                2 => {
                    epochs[id] += 1;
                    live[id] = None;
                }
                // Pop and compare against the naive max.
                _ => {
                    let expect = live
                        .iter()
                        .enumerate()
                        .filter_map(|(i, k)| k.map(|k| (k, i)))
                        .max();
                    let got = h.pop(&epochs);
                    match expect {
                        None => assert_eq!(got, None, "step {step}"),
                        Some((k, i)) => {
                            assert_eq!(got, Some((i as u32, k)), "step {step}");
                            live[i] = None;
                            epochs[i] += 1;
                        }
                    }
                }
            }
            if h.raw_len() > 4 * ids {
                h.compact(&epochs);
                h.check_invariants().unwrap();
                assert!(h.raw_len() <= ids, "compaction leaves only live entries");
            }
        }
    }
}
