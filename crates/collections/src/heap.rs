//! Unit tests of the binary (arity-2) [`DaryHeap`]: the smallest arity
//! the heap accepts, and the one with the deepest sift paths.

use crate::dary::DaryHeap;

mod tests {
    use super::*;

    type Heap<P> = DaryHeap<P, 2>;

    #[test]
    fn push_pop_sorted() {
        let mut h = Heap::new(16);
        let xs = [9, 4, 7, 1, 8, 3, 0, 6, 2, 5];
        for (id, &x) in xs.iter().enumerate() {
            h.push(id, x);
            h.check_invariants().unwrap();
        }
        let mut out = Vec::new();
        while let Some((_, p)) = h.pop() {
            out.push(p);
            h.check_invariants().unwrap();
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = Heap::new(4);
        h.push(0, 100);
        h.push(1, 200);
        h.push(2, 300);
        h.decrease_key(2, 50);
        assert_eq!(h.peek(), Some((2, &50)));
        h.check_invariants().unwrap();
    }

    #[test]
    #[should_panic]
    fn decrease_key_rejects_increase() {
        let mut h = Heap::new(2);
        h.push(0, 10);
        h.decrease_key(0, 20);
    }

    #[test]
    fn update_key_any_direction() {
        let mut h = Heap::new(4);
        h.push(0, 10);
        h.push(1, 20);
        h.update_key(0, 30); // increase
        assert_eq!(h.peek(), Some((1, &20)));
        h.update_key(0, 5); // decrease
        assert_eq!(h.peek(), Some((0, &5)));
        h.update_key(7, 1); // insert via update
        assert_eq!(h.peek(), Some((7, &1)));
        h.check_invariants().unwrap();
    }

    #[test]
    fn remove_middle() {
        let mut h = Heap::new(8);
        for id in 0..8 {
            h.push(id, (id * 13 % 7) as i32);
        }
        assert!(h.remove(3).is_some());
        assert!(!h.contains(3));
        assert_eq!(h.remove(3), None);
        h.check_invariants().unwrap();
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut h = Heap::new(1);
        for id in 0..100 {
            h.push(id, 100 - id);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.pop(), Some((99, 1)));
        h.check_invariants().unwrap();
    }

    #[test]
    fn priority_lookup() {
        let mut h = Heap::new(4);
        h.push(2, 42);
        assert_eq!(h.priority(2), Some(&42));
        assert_eq!(h.priority(0), None);
    }

    #[test]
    fn pop_empty() {
        let mut h: Heap<i32> = Heap::new(0);
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }
}
