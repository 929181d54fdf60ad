//! A deterministic binary max-heap keyed by `f64` weights.
//!
//! Algorithm HF repeatedly extracts the *heaviest* subproblem. The standard
//! library's `BinaryHeap` breaks ties in an unspecified (though
//! deterministic) order and requires an `Ord` key, which `f64` is not. This
//! heap:
//!
//! * orders by weight descending,
//! * breaks exact weight ties by **insertion sequence number** (earlier
//!   insertion wins), making every HF run fully reproducible,
//! * rejects NaN weights at the door instead of corrupting the heap.
//!
//! The implementation is a textbook array heap with `sift_up`/`sift_down`
//! written out explicitly so its invariants can be property-tested. The
//! array holds only keys — weight, sequence number and a slot index — and
//! payloads stay put in a slot table with a free list: a sift moves 24
//! bytes per level however large the payload (HF's problems run to over a
//! hundred bytes).

/// A heap key: weight, tiebreak and the payload's slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    weight: f64,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `true` if `self` has priority over (is "greater than") `other`.
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        match self.weight.partial_cmp(&other.weight) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Less) => false,
            // Equal weights: earlier insertion wins.
            _ => self.seq < other.seq,
        }
    }
}

/// A max-heap of `(f64 weight, T)` pairs with deterministic tie-breaking.
#[derive(Debug, Clone)]
pub struct WeightHeap<T> {
    keys: Vec<Key>,
    /// Payloads by slot; `None` marks a free slot.
    values: Vec<Option<T>>,
    /// Free slots, reused before the table grows.
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> Default for WeightHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WeightHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            keys: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts `value` with priority `weight`.
    ///
    /// # Panics
    /// Panics if `weight` is NaN.
    pub fn push(&mut self, weight: f64, value: T) {
        assert!(!weight.is_nan(), "NaN weight pushed into WeightHeap");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.values[slot as usize] = Some(value);
                slot
            }
            None => {
                self.values.push(Some(value));
                u32::try_from(self.values.len() - 1).expect("WeightHeap holds at most 2^32 entries")
            }
        };
        self.keys.push(Key { weight, seq, slot });
        self.sift_up(self.keys.len() - 1);
    }

    /// The maximum weight currently stored, if any.
    pub fn peek_weight(&self) -> Option<f64> {
        self.keys.first().map(|k| k.weight)
    }

    /// Borrows the payload with maximum weight, if any.
    pub fn peek(&self) -> Option<(f64, &T)> {
        self.keys.first().map(|k| (k.weight, self.value(k)))
    }

    /// Removes and returns the entry with maximum weight.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        if self.keys.is_empty() {
            return None;
        }
        let top = self.keys.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        let value = self.values[top.slot as usize]
            .take()
            .expect("occupied slot");
        self.free.push(top.slot);
        Some((top.weight, value))
    }

    /// Drains the heap into a vector sorted by descending priority.
    pub fn into_sorted_vec(mut self) -> Vec<(f64, T)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(pair) = self.pop() {
            out.push(pair);
        }
        out
    }

    /// Iterates over `(weight, &value)` pairs in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &T)> {
        self.keys.iter().map(|k| (k.weight, self.value(k)))
    }

    fn value(&self, key: &Key) -> &T {
        self.values[key.slot as usize]
            .as_ref()
            .expect("occupied slot")
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.keys[i].beats(&self.keys[parent]) {
                self.keys.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < n && self.keys[l].beats(&self.keys[best]) {
                best = l;
            }
            if r < n && self.keys[r].beats(&self.keys[best]) {
                best = r;
            }
            if best == i {
                return;
            }
            self.keys.swap(i, best);
            i = best;
        }
    }

    /// Verifies the heap invariant; used by tests.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        (1..self.keys.len()).all(|i| !self.keys[i].beats(&self.keys[(i - 1) / 2]))
    }
}

impl<T> FromIterator<(f64, T)> for WeightHeap<T> {
    fn from_iter<I: IntoIterator<Item = (f64, T)>>(iter: I) -> Self {
        let mut heap = WeightHeap::new();
        for (w, v) in iter {
            heap.push(w, v);
        }
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    #[test]
    fn basic_ordering() {
        let mut h = WeightHeap::new();
        h.push(1.0, "a");
        h.push(3.0, "b");
        h.push(2.0, "c");
        assert_eq!(h.pop(), Some((3.0, "b")));
        assert_eq!(h.pop(), Some((2.0, "c")));
        assert_eq!(h.pop(), Some((1.0, "a")));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn ties_resolved_by_insertion_order() {
        let mut h = WeightHeap::new();
        for name in ["first", "second", "third"] {
            h.push(5.0, name);
        }
        assert_eq!(h.pop().unwrap().1, "first");
        assert_eq!(h.pop().unwrap().1, "second");
        assert_eq!(h.pop().unwrap().1, "third");
    }

    #[test]
    fn peek_matches_pop() {
        let mut h: WeightHeap<u32> = [(2.0, 20), (9.0, 90), (4.0, 40)].into_iter().collect();
        assert_eq!(h.peek_weight(), Some(9.0));
        assert_eq!(h.peek().map(|(w, v)| (w, *v)), Some((9.0, 90)));
        assert_eq!(h.pop(), Some((9.0, 90)));
        assert_eq!(h.peek_weight(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut h = WeightHeap::new();
        h.push(f64::NAN, ());
    }

    #[test]
    fn into_sorted_vec_is_descending() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut h = WeightHeap::new();
        for i in 0..500 {
            h.push(rng.next_f64(), i);
        }
        let v = h.into_sorted_vec();
        assert!(v.windows(2).all(|w| w[0].0 >= w[1].0));
        assert_eq!(v.len(), 500);
    }

    #[test]
    fn interleaved_push_pop_keeps_invariant() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut h = WeightHeap::new();
        for round in 0..200 {
            for _ in 0..(round % 5 + 1) {
                h.push(rng.next_f64(), round);
            }
            if round % 3 == 0 {
                h.pop();
            }
            assert!(h.check_invariant());
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_matches_stable_sort(weights in prop::collection::vec(0u32..50, 0..200)) {
            // Use coarse integer-derived weights so ties are common and the
            // tie-break rule is genuinely exercised.
            let mut h = WeightHeap::new();
            for (i, w) in weights.iter().enumerate() {
                h.push(*w as f64, i);
            }
            let got: Vec<(f64, usize)> = h.into_sorted_vec();

            let mut expect: Vec<(f64, usize)> =
                weights.iter().enumerate().map(|(i, w)| (*w as f64, i)).collect();
            // Stable sort by descending weight preserves insertion order on
            // ties, which is exactly the heap's documented contract.
            expect.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_invariant_after_bulk_build(weights in prop::collection::vec(-1e9f64..1e9, 0..300)) {
            let h: WeightHeap<usize> =
                weights.iter().copied().zip(0..).collect();
            prop_assert!(h.check_invariant());
            prop_assert_eq!(h.len(), weights.len());
        }
    }
}
