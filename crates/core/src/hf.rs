//! Algorithm **HF** — Heaviest problem First (Figure 1 of the paper).
//!
//! ```text
//! algorithm HF(p, N):
//!     P := {p}
//!     while |P| < N do
//!         q := a problem in P with maximum weight
//!         bisect q into q1 and q2
//!         P := (P ∪ {q1, q2}) \ {q}
//!     return P
//! ```
//!
//! HF uses `N−1` bisections and, for a class with α-bisectors, guarantees
//! `max_i w(p_i) ≤ (w(p)/N) · r_α` (Theorem 2; see
//! [`crate::bounds::r_hf`]). It is the quality yardstick of the paper: the
//! parallel algorithm PHF (crate `gb-parlb`) reproduces *exactly* this
//! partition, and BA / BA-HF trade some balance quality for parallelism.
//!
//! The "maximum weight" selection is implemented with the deterministic
//! [`crate::heap::WeightHeap`] over indices into an arena that keeps the
//! pieces in place: ties are broken by insertion order, so a run of HF
//! is a pure function of the input problem.

use crate::heap::WeightHeap;
use crate::partition::Partition;
use crate::problem::Bisectable;
use crate::tree::{BisectionTree, NoRecord, NodeId, Recorder};

/// Runs HF, splitting `p` into at most `n` subproblems.
///
/// Returns fewer than `n` pieces only if atomic (unbisectable) problems
/// are encountered first.
///
/// ```
/// use gb_core::hf::hf;
/// use gb_core::synthetic_alpha::FixedAlpha;
/// use gb_core::bounds::r_hf;
///
/// // Every bisection splits 30/70.
/// let partition = hf(FixedAlpha::new(1.0, 0.3), 10);
/// assert_eq!(partition.len(), 10);
/// // The achieved ratio respects Theorem 2's guarantee r_α.
/// assert!(partition.ratio() <= r_hf(0.3));
/// ```
///
/// # Panics
/// Panics if `n == 0`.
pub fn hf<P: Bisectable>(p: P, n: usize) -> Partition<P> {
    let mut rec = NoRecord;
    hf_rec(p, n, &mut rec)
}

/// Runs HF and additionally returns the bisection tree of the run.
pub fn hf_traced<P: Bisectable>(p: P, n: usize) -> (Partition<P>, BisectionTree) {
    let mut tree = BisectionTree::with_pieces_capacity(n);
    let partition = hf_rec(p, n, &mut tree);
    (partition, tree)
}

/// HF with an arbitrary recorder.
pub fn hf_rec<P: Bisectable, R: Recorder>(p: P, n: usize, rec: &mut R) -> Partition<P> {
    assert!(n > 0, "HF needs at least one processor");
    let total = p.weight();
    let root = rec.root(total);
    let pieces = hf_pieces(vec![(p, root)], n, rec);
    Partition::new(pieces.into_iter().map(|(q, _)| q).collect(), total, n)
}

/// The HF loop, exposed at crate level so BA-HF can continue a run on an
/// existing bisection tree: starting from `start` pieces (with their tree
/// nodes), bisect the heaviest bisectable piece until there are
/// `target_pieces` pieces (or everything is atomic).
///
/// The pieces stay in place in one arena and the heap orders their
/// indices: a bisection overwrites its piece's slot with the first child
/// and appends the second. They come out as the heap would drain them:
/// atomic pieces in the order they were popped, then the rest by weight
/// descending, ties in insertion order.
pub(crate) fn hf_pieces<P: Bisectable, R: Recorder>(
    start: Vec<(P, NodeId)>,
    target_pieces: usize,
    rec: &mut R,
) -> Vec<(P, NodeId)> {
    debug_assert!(!start.is_empty());
    let slot = |i: usize| u32::try_from(i).expect("HF holds at most 2^32 pieces");
    let mut arena = start;
    arena.reserve(target_pieces.saturating_sub(arena.len()));
    let mut heap = WeightHeap::with_capacity(arena.len().max(target_pieces));
    for (i, (q, _)) in arena.iter().enumerate() {
        heap.push(q.weight(), slot(i));
    }
    // Atomic pieces that dropped out of the heap, in pop order.
    let mut atomic: Vec<u32> = Vec::new();
    while arena.len() < target_pieces {
        let Some((_, i)) = heap.pop() else {
            break; // everything is atomic
        };
        let (q, id) = &arena[i as usize];
        if !q.can_bisect() {
            atomic.push(i);
            continue;
        }
        let (q1, q2) = q.bisect();
        let (w1, w2) = (q1.weight(), q2.weight());
        let (id1, id2) = rec.record(*id, w1, w2);
        heap.push(w1, i);
        heap.push(w2, slot(arena.len()));
        arena[i as usize] = (q1, id1);
        arena.push((q2, id2));
    }
    let mut order = atomic;
    order.extend(heap.into_sorted_indices());
    // Put every piece in its place in `order`, in place: `dest[i]` is
    // where the piece now in slot `i` belongs, and each swap settles one.
    let mut dest = vec![0u32; arena.len()];
    for (k, &i) in order.iter().enumerate() {
        dest[i as usize] = slot(k);
    }
    for i in 0..arena.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            arena.swap(i, j);
            dest.swap(i, j);
        }
    }
    arena
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{hf_upper_bound, r_hf};
    use crate::synthetic_alpha::{AtomicAfter, CycleAlpha, FixedAlpha};
    use proptest::prelude::*;

    #[test]
    fn one_processor_returns_input() {
        let p = FixedAlpha::new(5.0, 0.3);
        let part = hf(p, 1);
        assert_eq!(part.len(), 1);
        assert_eq!(part.max_weight(), 5.0);
        assert_eq!(part.ratio(), 1.0);
    }

    #[test]
    fn produces_exactly_n_pieces() {
        for n in 1..=64 {
            let part = hf(FixedAlpha::new(1.0, 0.37), n);
            assert_eq!(part.len(), n, "n = {n}");
            assert!(part.check_conservation(1e-9), "n = {n}");
        }
    }

    #[test]
    fn half_split_powers_of_two_are_perfect() {
        // α = 1/2 splits evenly; for N = 2^k the partition is exact.
        for k in 0..8 {
            let n = 1usize << k;
            let part = hf(FixedAlpha::new(1.0, 0.5), n);
            assert!((part.ratio() - 1.0).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn bisects_heaviest_first() {
        // α = 0.4: after the first bisection the pieces are 0.4 and 0.6;
        // HF must split 0.6 next, giving {0.4, 0.24, 0.36}.
        let part = hf(FixedAlpha::new(1.0, 0.4), 3);
        let mut w = part.sorted_weights();
        w.iter_mut().for_each(|x| *x = (*x * 1e9).round() / 1e9);
        assert_eq!(w, vec![0.24, 0.36, 0.4]);
    }

    #[test]
    fn traced_tree_matches_partition() {
        let (part, tree) = hf_traced(FixedAlpha::new(2.0, 0.3), 17);
        assert_eq!(tree.leaf_count(), 17);
        assert_eq!(tree.bisection_count(), 16); // N − 1 bisections
        let mut tw = tree.leaf_weights();
        tw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(tw, part.sorted_weights());
        assert!(tree.verify_weight_conservation(1e-12).is_ok());
        assert!(tree.verify_alpha(0.3, 1e-9).is_ok());
    }

    #[test]
    fn atomic_problems_stop_early() {
        // Weight 1, α = 1/2, atomic below 0.3 ⇒ pieces of weight 0.25 are
        // atomic: at most 4 pieces no matter how many processors.
        let p = AtomicAfter::new(1.0, 0.5, 0.3);
        let part = hf(p, 64);
        assert_eq!(part.len(), 4);
        assert!(part.check_conservation(1e-12));
    }

    #[test]
    fn ratio_respects_theorem_2_for_fixed_alpha() {
        for &alpha in &[0.05, 0.1, 0.2, 1.0 / 3.0, 0.4, 0.5] {
            for &n in &[2usize, 3, 7, 16, 33, 128, 1000] {
                let part = hf(FixedAlpha::new(1.0, alpha), n);
                let bound = hf_upper_bound(alpha, n);
                assert!(
                    part.ratio() <= bound + 1e-9,
                    "alpha={alpha} n={n}: ratio {} > bound {bound}",
                    part.ratio()
                );
            }
        }
    }

    #[test]
    fn cycle_alpha_also_within_bound() {
        let p = CycleAlpha::new(1.0, &[0.5, 0.2, 0.35]);
        let alpha = 0.2;
        for &n in &[4usize, 9, 64, 257] {
            let part = hf(p.clone(), n);
            assert!(part.ratio() <= r_hf(alpha) + 1e-9, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        hf(FixedAlpha::new(1.0, 0.5), 0);
    }

    proptest! {
        #[test]
        fn prop_hf_conserves_weight_and_counts(
            alpha in 0.01f64..=0.5,
            n in 1usize..200,
            weight in 0.1f64..1e6,
        ) {
            let (part, tree) = hf_traced(FixedAlpha::new(weight, alpha), n);
            prop_assert_eq!(part.len(), n);
            prop_assert_eq!(tree.bisection_count(), n - 1);
            prop_assert!(part.check_conservation(1e-9));
            prop_assert!(tree.verify_alpha(alpha, 1e-9).is_ok());
        }

        #[test]
        fn prop_hf_ratio_below_bound(
            alpha in 0.02f64..=0.5,
            n in 1usize..300,
        ) {
            let part = hf(FixedAlpha::new(1.0, alpha), n);
            prop_assert!(part.ratio() <= hf_upper_bound(alpha, n) + 1e-9);
        }

        #[test]
        fn prop_hf_never_bisects_lighter_than_a_final_piece(
            alpha in 0.05f64..=0.5,
            n in 2usize..64,
        ) {
            // Defining HF invariant: whenever q was bisected it was the
            // current maximum, and weights only shrink downward, so every
            // final leaf weighs no more than ANY bisected node:
            //     max(leaf weights) ≤ min(internal weights).
            let p = FixedAlpha::new(1.0, alpha);
            let (_, tree) = hf_traced(p, n);
            let min_internal = tree
                .iter()
                .filter(|(_, node)| !node.is_leaf())
                .map(|(_, node)| node.weight)
                .fold(f64::INFINITY, f64::min);
            let max_leaf = tree
                .iter()
                .filter(|(_, node)| node.is_leaf())
                .map(|(_, node)| node.weight)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(max_leaf <= min_internal + 1e-12);
        }
    }
}
