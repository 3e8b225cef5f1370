//! Property-based tests: the indexed d-ary heap must behave like a
//! sorted oracle across random operation sequences.

use ftcollections::DaryHeap;
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn heap_pops_sorted_after_updates(
        entries in proptest::collection::vec((0usize..64, 0i64..1000), 1..100),
        updates in proptest::collection::vec((0usize..64, 0i64..1000), 0..50),
    ) {
        let mut heap: DaryHeap<i64> = DaryHeap::new(64);
        let mut oracle: BTreeMap<usize, i64> = BTreeMap::new();
        for (id, p) in entries {
            if !heap.contains(id) {
                heap.push(id, p);
                oracle.insert(id, p);
            }
        }
        for (id, p) in updates {
            if oracle.contains_key(&id) {
                heap.update_key(id, p);
                oracle.insert(id, p);
            }
        }
        heap.check_invariants().map_err(TestCaseError::fail)?;
        let mut popped = Vec::new();
        while let Some((id, p)) = heap.pop() {
            prop_assert_eq!(oracle.remove(&id), Some(p));
            popped.push(p);
        }
        prop_assert!(oracle.is_empty());
        let mut sorted = popped.clone();
        sorted.sort();
        prop_assert_eq!(popped, sorted);
    }

    #[test]
    fn heap_remove_is_consistent(
        ids in proptest::collection::vec(0usize..32, 1..64),
        kill in proptest::collection::vec(0usize..32, 0..16),
    ) {
        let mut heap: DaryHeap<usize> = DaryHeap::new(32);
        let mut live = std::collections::BTreeSet::new();
        for id in ids {
            if !heap.contains(id) {
                heap.push(id, id * 7 % 13);
                live.insert(id);
            }
        }
        for id in kill {
            let was = heap.remove(id).is_some();
            prop_assert_eq!(was, live.remove(&id));
            heap.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(heap.len(), live.len());
    }
}
