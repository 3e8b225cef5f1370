//! The tombstone rule of FTBAR's pressure heaps.
//!
//! The pressure heaps are std max-heaps of `(key, task id, epoch)`
//! entries, all reading one per-task epoch array: an entry is live while
//! its epoch equals `epoch[id]`, so one bump kills a task's entries in
//! every heap at once. [`Tombstoned`] is the rule; the heaps themselves
//! live in [`crate::workspace::PressureCache`].

use std::collections::BinaryHeap;

/// The tombstone rule of the pressure heaps, which are std max-heaps of
/// `(key, task id, epoch)` entries: an entry is live while its epoch
/// equals `epoch[id]`, so one bump kills a task's entries in every heap
/// at once. Dead entries are dropped when they surface at the top, and
/// wholesale by [`compact`](Tombstoned::compact). Ties between equal
/// keys fall to the id, then the epoch; selection never depends on
/// that order (see `select_next` in the pipeline).
pub(crate) trait Tombstoned<K> {
    /// Drops dead tops and returns the live maximum key.
    fn peek_live(&mut self, epoch: &[u32]) -> Option<&K>;

    /// Drops dead tops, then pops the live maximum as `(id, key)` only
    /// if `take` accepts its key.
    fn pop_live_if(&mut self, epoch: &[u32], take: impl FnOnce(&K) -> bool) -> Option<(u32, K)>;

    /// Drops every dead entry once more than `cap` are stored, so the
    /// heap's depth stays proportional to its live population.
    fn compact(&mut self, epoch: &[u32], cap: usize);
}

impl<K: Ord> Tombstoned<K> for BinaryHeap<(K, u32, u32)> {
    fn peek_live(&mut self, epoch: &[u32]) -> Option<&K> {
        while let Some(&(_, id, ep)) = self.peek() {
            if epoch[id as usize] == ep {
                break;
            }
            self.pop();
        }
        self.peek().map(|(key, _, _)| key)
    }

    fn pop_live_if(&mut self, epoch: &[u32], take: impl FnOnce(&K) -> bool) -> Option<(u32, K)> {
        if !take(self.peek_live(epoch)?) {
            return None;
        }
        self.pop().map(|(key, id, _)| (id, key))
    }

    fn compact(&mut self, epoch: &[u32], cap: usize) {
        if self.len() > cap {
            self.retain(|&(_, id, ep)| epoch[id as usize] == ep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// Pops the live maximum unconditionally.
    fn pop<K: Ord>(h: &mut BinaryHeap<(K, u32, u32)>, epoch: &[u32]) -> Option<(u32, K)> {
        h.pop_live_if(epoch, |_| true)
    }

    #[test]
    fn epoch_bump_tombstones_all_outstanding_entries() {
        let mut epoch = vec![0u32; 4];
        let mut h: BinaryHeap<(u64, u32, u32)> = BinaryHeap::new();
        // Three generations of keys for id 2, one live key for id 0.
        h.push((100, 2, 0));
        epoch[2] = 1;
        h.push((90, 2, 1));
        epoch[2] = 2;
        h.push((80, 2, 2));
        h.push((85, 0, 0));
        assert_eq!(h.len(), 4);
        assert_eq!(pop(&mut h, &epoch), Some((0, 85)));
        assert_eq!(pop(&mut h, &epoch), Some((2, 80)));
        assert_eq!(pop(&mut h, &epoch), None);
        assert!(h.is_empty(), "popping past the end drains tombstones");
    }

    #[test]
    fn shared_epochs_invalidate_across_heaps() {
        // One epoch array serving several heaps: a single bump kills the
        // id's entries everywhere — the per-processor guard use case.
        let mut epoch = vec![0u32; 3];
        let mut a: BinaryHeap<(u32, u32, u32)> = BinaryHeap::new();
        let mut b: BinaryHeap<(u32, u32, u32)> = BinaryHeap::new();
        a.push((10, 1, 0));
        b.push((20, 1, 0));
        a.push((5, 2, 0));
        epoch[1] = 1;
        assert_eq!(pop(&mut a, &epoch), Some((2, 5)));
        assert_eq!(pop(&mut a, &epoch), None);
        assert_eq!(pop(&mut b, &epoch), None);
    }

    #[test]
    fn pop_if_takes_only_matching_tops() {
        let mut epoch = vec![0u32; 4];
        let mut h: BinaryHeap<(Reverse<u32>, u32, u32)> = BinaryHeap::new();
        // Min-at-top via Reverse: thresholds 10, 20, 30.
        h.push((Reverse(10), 0, 0));
        h.push((Reverse(20), 1, 0));
        h.push((Reverse(30), 2, 0));
        epoch[0] = 1; // tombstone the smallest
        let mut fired = Vec::new();
        while let Some((id, _)) = h.pop_live_if(&epoch, |Reverse(th)| *th < 25) {
            fired.push(id);
        }
        assert_eq!(fired, vec![1], "tombstone skipped, 30 left in place");
        assert_eq!(pop(&mut h, &epoch), Some((2, Reverse(30))));
    }

    #[test]
    fn peek_skips_tombstones_without_losing_live_entries() {
        let mut epoch = vec![0u32; 2];
        let mut h: BinaryHeap<(u32, u32, u32)> = BinaryHeap::new();
        h.push((50, 0, 0));
        h.push((40, 1, 0));
        epoch[0] = 1;
        assert_eq!(h.peek_live(&epoch), Some(&40));
        assert_eq!(h.len(), 1, "the dead top is dropped, the live entry kept");
        assert_eq!(pop(&mut h, &epoch), Some((1, 40)));
    }

    #[test]
    fn compact_drops_tombstones_and_preserves_order() {
        let mut epoch = vec![0u32; 64];
        let mut h: BinaryHeap<((u32, u32), u32, u32)> = BinaryHeap::new();
        for round in 0..8u32 {
            for id in 0..64u32 {
                epoch[id as usize] = round;
                h.push(((id * 7 % 64 + round, id), id, round));
            }
        }
        assert_eq!(h.len(), 8 * 64);
        h.compact(&epoch, 8 * 64);
        assert_eq!(h.len(), 8 * 64, "nothing is dropped at or below the cap");
        h.compact(&epoch, 64);
        assert_eq!(h.len(), 64);
        let mut out = Vec::new();
        while let Some((_, k)) = pop(&mut h, &epoch) {
            out.push(k);
        }
        let mut sorted = out.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(out, sorted);
        assert_eq!(out.len(), 64);
    }

    /// Randomized oracle: two heaps over one epoch array, under
    /// interleaved re-keys, drops, guarded pops and compactions, agree
    /// with a naive scan of the live keys: one bump kills an id's
    /// entries in both heaps, and compaction above the cap leaves
    /// exactly the live ones.
    #[test]
    fn randomized_against_naive_oracle() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (ids, cap) = (32, 64);
        let mut epoch = vec![0u32; ids];
        let mut heaps: [BinaryHeap<(u64, u32, u32)>; 2] = Default::default();
        // live[id] = (heap, key) of the one live entry an id may hold.
        let mut live: Vec<Option<(usize, u64)>> = vec![None; ids];
        for step in 0..4000 {
            let (id, h) = ((next() % ids as u64) as usize, (next() % 2) as usize);
            match next() % 4 {
                0 => {
                    epoch[id] += 1;
                    let key = next() % 100;
                    heaps[h].push((key, id as u32, epoch[id]));
                    live[id] = Some((h, key));
                }
                1 => {
                    epoch[id] += 1;
                    live[id] = None;
                }
                _ => {
                    let threshold = next() % 100;
                    let max = (0..ids)
                        .filter_map(|i| live[i].filter(|&(lh, _)| lh == h).map(|(_, k)| (k, i)))
                        .max();
                    assert_eq!(heaps[h].peek_live(&epoch).copied(), max.map(|m| m.0));
                    let got = heaps[h].pop_live_if(&epoch, |&k| k >= threshold);
                    match max {
                        Some((k, i)) if k >= threshold => {
                            assert_eq!(got, Some((i as u32, k)), "step {step}");
                            live[i] = None;
                        }
                        _ => assert_eq!(got, None, "step {step}"),
                    }
                }
            }
            for (h, heap) in heaps.iter_mut().enumerate() {
                let stored = heap.len();
                heap.compact(&epoch, cap);
                let held = live.iter().flatten().filter(|&&(lh, _)| lh == h).count();
                let expect = if stored > cap { held } else { stored };
                assert_eq!(heap.len(), expect, "step {step}");
            }
        }
    }
}
