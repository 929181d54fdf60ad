//! A deterministic binary max-heap of `f64` weights over caller-owned
//! payloads.
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
//! It holds only keys. The caller keeps its payloads in place in its own
//! arena and hands the heap each payload's index; a pop returns the index
//! back. A key packs the weight, the sequence number and the index into
//! one `u128` whose integer order *is* the heap order, so every
//! comparison is a single branch-free integer compare and a sift moves 16
//! bytes per level however large the payload.
//!
//! A pop moves the hole at the root down to a leaf along the heavier
//! child, one comparison per level, and then sifts the last key up from
//! there (Floyd's bottom-up deletion): the last key almost always belongs
//! near the bottom, so this takes about half the comparisons of a
//! top-down sift. Keys are unique, so the pop sequence is the sorted key
//! order whatever shape the heap has.

/// Sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// A heap key: `weight_bits << 64 | (u32::MAX − seq) << 32 | index`,
/// where `weight_bits` maps `f64` order onto `u64` order.
type Key = u128;

/// The `u64` whose unsigned order is the `f64` order of `w` (not NaN).
/// `-0.0` and `0.0` compare equal as `f64`s, so both map to `0.0`'s
/// image and their tie falls to the sequence number.
#[inline]
fn order_bits(w: f64) -> u64 {
    let bits = (w + 0.0).to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// Inverse of [`order_bits`].
#[inline]
fn weight_of(key: Key) -> f64 {
    let bits = (key >> 64) as u64;
    f64::from_bits(if bits & SIGN != 0 {
        bits & !SIGN
    } else {
        !bits
    })
}

#[inline]
fn index_of(key: Key) -> u32 {
    key as u32
}

/// A max-heap of `(f64 weight, u32 index)` pairs with deterministic
/// tie-breaking by insertion order.
#[derive(Debug, Clone, Default)]
pub struct WeightHeap {
    keys: Vec<Key>,
    next_seq: u32,
}

impl WeightHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            keys: Vec::with_capacity(cap),
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

    /// Inserts `index` with priority `weight`.
    ///
    /// # Panics
    /// Panics if `weight` is NaN, or after 2^32 pushes into one heap.
    pub fn push(&mut self, weight: f64, index: u32) {
        assert!(!weight.is_nan(), "NaN weight pushed into WeightHeap");
        let seq = self.next_seq;
        self.next_seq = seq
            .checked_add(1)
            .expect("WeightHeap takes at most 2^32 pushes");
        let key = (Key::from(order_bits(weight)) << 64)
            | (Key::from(u32::MAX - seq) << 32)
            | Key::from(index);
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    /// The maximum weight currently stored, if any.
    pub fn peek_weight(&self) -> Option<f64> {
        self.keys.first().map(|&k| weight_of(k))
    }

    /// Removes and returns the entry with maximum weight.
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some((weight_of(last), index_of(last)));
        };
        let keys = &mut self.keys[..];
        let n = keys.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < n {
            child += usize::from(keys[child + 1] > keys[child]);
            keys[hole] = keys[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < n {
            keys[hole] = keys[child];
            hole = child;
        }
        keys[hole] = last;
        self.sift_up(hole);
        Some((weight_of(top), index_of(top)))
    }

    /// Drains the heap into its indices in pop order, with one sort.
    pub fn into_sorted_indices(mut self) -> Vec<u32> {
        self.keys.sort_unstable_by(|a, b| b.cmp(a));
        self.keys.into_iter().map(index_of).collect()
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if key <= self.keys[parent] {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Verifies the heap invariant; used by tests.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        (1..self.keys.len()).all(|i| self.keys[i] < self.keys[(i - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    fn drain(mut h: WeightHeap) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    #[test]
    fn basic_ordering() {
        let mut h = WeightHeap::new();
        h.push(1.0, 0);
        h.push(3.0, 1);
        h.push(2.0, 2);
        assert_eq!(drain(h), vec![(3.0, 1), (2.0, 2), (1.0, 0)]);
    }

    #[test]
    fn ties_resolved_by_insertion_order() {
        let mut h = WeightHeap::new();
        for index in [7, 3, 5] {
            h.push(5.0, index);
        }
        assert_eq!(drain(h), vec![(5.0, 7), (5.0, 3), (5.0, 5)]);
    }

    #[test]
    fn weights_round_trip_through_their_keys() {
        for w in [
            0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(
                weight_of(Key::from(order_bits(w)) << 64).to_bits(),
                w.to_bits()
            );
        }
        // Signed zeros tie, as `f64` comparison has it.
        let mut h = WeightHeap::new();
        h.push(-0.0, 0);
        h.push(0.0, 1);
        h.push(-f64::from_bits(1), 2);
        assert_eq!(drain(h), vec![(0.0, 0), (0.0, 1), (-f64::from_bits(1), 2)]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = WeightHeap::new();
        for (w, i) in [(2.0, 20), (9.0, 90), (4.0, 40)] {
            h.push(w, i);
        }
        assert_eq!(h.peek_weight(), Some(9.0));
        assert_eq!(h.pop(), Some((9.0, 90)));
        assert_eq!(h.peek_weight(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        WeightHeap::new().push(f64::NAN, 0);
    }

    #[test]
    fn sorted_indices_follow_pop_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut h = WeightHeap::new();
        for i in 0..500 {
            h.push((rng.next_f64() * 20.0).floor(), i);
        }
        let popped: Vec<u32> = drain(h.clone()).into_iter().map(|(_, i)| i).collect();
        assert_eq!(h.into_sorted_indices(), popped);
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

    /// Reference heap: a list sorted by (weight descending, insertion
    /// ascending) on every pop.
    fn reference_pop(live: &mut Vec<(f64, u64, u32)>) -> Option<(f64, u32)> {
        let best = (0..live.len()).max_by(|&a, &b| {
            let (wa, sa, _) = live[a];
            let (wb, sb, _) = live[b];
            wa.partial_cmp(&wb).unwrap().then(sb.cmp(&sa))
        })?;
        let (w, _, i) = live.remove(best);
        Some((w, i))
    }

    proptest! {
        #[test]
        fn prop_pop_order_matches_stable_sort(weights in prop::collection::vec(0u32..50, 0..200)) {
            // Coarse integer-derived weights make ties common, so the
            // tie-break rule is genuinely exercised.
            let mut h = WeightHeap::new();
            for (i, w) in weights.iter().enumerate() {
                h.push(f64::from(*w), i as u32);
            }
            let got = drain(h);
            let mut expect: Vec<(f64, u32)> =
                weights.iter().enumerate().map(|(i, w)| (f64::from(*w), i as u32)).collect();
            // A stable sort by descending weight keeps insertion order on
            // ties, which is exactly the heap's documented contract.
            expect.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_interleaved_pops_match_a_sorted_reference(
            ops in prop::collection::vec((0u32..8, 0u32..4), 0..400),
        ) {
            // HF's pattern: pops interleaved with pushes, on weights with
            // many exact ties (grid cells tie), negative and zero ones
            // included. Op `(w, 0)` pops; anything else pushes `w − 2`.
            let mut h = WeightHeap::new();
            let mut live = Vec::new();
            let mut seq = 0u64;
            for (w, op) in ops {
                if op == 0 {
                    prop_assert_eq!(h.pop(), reference_pop(&mut live));
                } else {
                    let w = f64::from(w) - 2.0;
                    h.push(w, seq as u32);
                    live.push((w, seq, seq as u32));
                    seq += 1;
                }
                prop_assert!(h.check_invariant());
            }
            let rest: Vec<u32> = std::iter::from_fn(|| reference_pop(&mut live)).map(|(_, i)| i).collect();
            prop_assert_eq!(h.into_sorted_indices(), rest);
        }

        #[test]
        fn prop_invariant_after_bulk_build(weights in prop::collection::vec(-1e9f64..1e9, 0..300)) {
            let mut h = WeightHeap::new();
            for (i, w) in weights.iter().enumerate() {
                h.push(*w, i as u32);
            }
            prop_assert!(h.check_invariant());
            prop_assert_eq!(h.len(), weights.len());
        }
    }
}
