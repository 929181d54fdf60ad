//! A shared bisection tree: several algorithm runs over one problem,
//! each node bisected at most once.
//!
//! Bisection is deterministic (see [`crate::problem`]), so HF, BA and
//! BA-HF started from the same root walk one and the same binary tree of
//! subproblems; they differ only in which nodes they expand. A
//! [`BisectionMemo`] keeps that tree. Its [`MemoNode`] handles are
//! themselves [`Bisectable`]: the first `bisect` of a node bisects the
//! wrapped problem and stores both children, every later `bisect` of the
//! same node hands back the stored children. A second algorithm run over
//! the memo therefore pays only for the nodes the first run did not
//! reach, and returns bit for bit the partition it would return on the
//! raw problem.
//!
//! The tree is a flat arena: nodes live in one `Vec` and a bisected node
//! names its children by index, so freeing it never recurses however
//! skewed the tree. Bisecting moves the problem out of its node; only
//! unbisected nodes hold one. The memo is meant for one thread: it uses
//! interior mutability without locks.
//!
//! ```
//! use gb_core::memo::BisectionMemo;
//! use gb_core::synthetic_alpha::FixedAlpha;
//! use gb_core::{ba, hf};
//!
//! let p = FixedAlpha::new(1.0, 0.3);
//! let memo = BisectionMemo::new(p);
//! let from_hf = hf(memo.root(), 16);
//! assert_eq!(memo.bisections(), 15);
//! // BA over the same memo reuses every node HF already split.
//! let from_ba = ba(memo.root(), 16);
//! assert_eq!(from_ba.sorted_weights(), ba(p, 16).sorted_weights());
//! assert_eq!(from_hf.sorted_weights(), hf(p, 16).sorted_weights());
//! assert!(memo.reused() > 0);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;

use crate::problem::Bisectable;

/// One node of the arena: its weight, and either the problem itself or,
/// once bisected, the index of its first child (the second follows it).
struct Slot<P> {
    weight: f64,
    state: State<P>,
}

enum State<P> {
    Piece(P),
    Split(usize),
}

/// The arena of a shared bisection tree; see the [module docs](self).
pub struct BisectionMemo<P> {
    nodes: RefCell<Vec<Slot<P>>>,
    bisections: Cell<u64>,
    reused: Cell<u64>,
}

impl<P: Bisectable> BisectionMemo<P> {
    /// Starts a tree whose root is `root`.
    pub fn new(root: P) -> Self {
        Self {
            nodes: RefCell::new(vec![Slot {
                weight: root.weight(),
                state: State::Piece(root),
            }]),
            bisections: Cell::new(0),
            reused: Cell::new(0),
        }
    }

    /// A handle on the root; every algorithm run over the memo starts here.
    pub fn root(&self) -> MemoNode<'_, P> {
        self.node(0)
    }

    fn node(&self, index: usize) -> MemoNode<'_, P> {
        MemoNode {
            memo: self,
            index,
            weight: self.nodes.borrow()[index].weight,
        }
    }

    /// Bisections of the wrapped problem performed so far.
    pub fn bisections(&self) -> u64 {
        self.bisections.get()
    }

    /// Bisections answered from the tree instead of the problem.
    pub fn reused(&self) -> u64 {
        self.reused.get()
    }
}

impl<P> fmt::Debug for BisectionMemo<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BisectionMemo")
            .field("nodes", &self.nodes.borrow().len())
            .field("bisections", &self.bisections.get())
            .field("reused", &self.reused.get())
            .finish()
    }
}

/// A node of a [`BisectionMemo`], usable wherever a problem is.
pub struct MemoNode<'a, P> {
    memo: &'a BisectionMemo<P>,
    index: usize,
    weight: f64,
}

impl<P> fmt::Debug for MemoNode<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoNode")
            .field("index", &self.index)
            .field("weight", &self.weight)
            .finish()
    }
}

impl<P: Bisectable> Bisectable for MemoNode<'_, P> {
    fn weight(&self) -> f64 {
        self.weight
    }

    fn bisect(&self) -> (Self, Self) {
        let memo = self.memo;
        let first = {
            let mut nodes = memo.nodes.borrow_mut();
            if let State::Split(first) = nodes[self.index].state {
                memo.reused.set(memo.reused.get() + 1);
                first
            } else {
                let first = nodes.len();
                let State::Piece(piece) =
                    std::mem::replace(&mut nodes[self.index].state, State::Split(first))
                else {
                    unreachable!("checked above")
                };
                let (a, b) = piece.bisect();
                memo.bisections.set(memo.bisections.get() + 1);
                for child in [a, b] {
                    nodes.push(Slot {
                        weight: child.weight(),
                        state: State::Piece(child),
                    });
                }
                first
            }
        };
        (memo.node(first), memo.node(first + 1))
    }

    fn can_bisect(&self) -> bool {
        match &self.memo.nodes.borrow()[self.index].state {
            State::Piece(piece) => piece.can_bisect(),
            State::Split(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ba::ba;
    use crate::bahf::ba_hf;
    use crate::hf::hf;
    use crate::synthetic_alpha::{AtomicAfter, CycleAlpha, FixedAlpha};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::rc::Rc;

    /// A problem that logs the id of every node it bisects; each node
    /// gets a fresh id when it is created, so a repeated id in the log is
    /// a node bisected twice.
    #[derive(Clone, Debug)]
    struct Counting {
        inner: CycleAlpha,
        id: u64,
        next_id: Rc<Cell<u64>>,
        log: Rc<RefCell<Vec<u64>>>,
    }

    impl Counting {
        fn new(inner: CycleAlpha) -> Self {
            Self {
                inner,
                id: 0,
                next_id: Rc::new(Cell::new(1)),
                log: Rc::default(),
            }
        }
    }

    impl Bisectable for Counting {
        fn weight(&self) -> f64 {
            self.inner.weight()
        }

        fn bisect(&self) -> (Self, Self) {
            self.log.borrow_mut().push(self.id);
            let (a, b) = self.inner.bisect();
            let child = |inner| {
                let id = self.next_id.get();
                self.next_id.set(id + 1);
                Self {
                    inner,
                    id,
                    next_id: Rc::clone(&self.next_id),
                    log: Rc::clone(&self.log),
                }
            };
            (child(a), child(b))
        }
    }

    #[test]
    fn a_second_run_reuses_the_first_runs_nodes() {
        let p = FixedAlpha::new(1.0, 0.5);
        let memo = BisectionMemo::new(p);
        hf(memo.root(), 8);
        assert_eq!((memo.bisections(), memo.reused()), (7, 0));
        // α = 1/2 and N = 8: BA bisects exactly the tree HF built.
        hf(memo.root(), 8);
        ba(memo.root(), 8);
        assert_eq!((memo.bisections(), memo.reused()), (7, 14));
    }

    #[test]
    fn only_unbisected_nodes_hold_problems() {
        let memo = BisectionMemo::new(FixedAlpha::new(1.0, 0.3));
        hf(memo.root(), 10);
        let nodes = memo.nodes.borrow();
        let pieces = nodes
            .iter()
            .filter(|s| matches!(s.state, State::Piece(_)))
            .count();
        assert_eq!((nodes.len(), pieces), (19, 10));
    }

    #[test]
    fn atomic_nodes_stay_atomic_through_the_memo() {
        let p = AtomicAfter::new(1.0, 0.5, 0.3);
        let memo = BisectionMemo::new(p);
        assert_eq!(hf(memo.root(), 64).len(), 4);
        assert_eq!(ba(memo.root(), 64).len(), 4);
        assert_eq!(memo.reused(), 3);
    }

    #[test]
    fn a_deep_skewed_tree_drops_without_recursion() {
        // 2^16 pieces at α = 0.001: HF's tree is hundreds of levels deep
        // along its heavy spine; the arena frees it in one flat pass.
        let memo = BisectionMemo::new(FixedAlpha::new(1.0, 0.001));
        hf(memo.root(), 1 << 16);
        assert_eq!(memo.bisections(), (1 << 16) - 1);
        drop(memo);
    }

    fn check_walks<P: Bisectable + Clone>(p: P, n: usize, alpha: f64, theta: f64) {
        let memo = BisectionMemo::new(p.clone());
        let shared_hf = hf(memo.root(), n);
        let shared_ba = ba(memo.root(), n);
        let shared_bahf = ba_hf(memo.root(), n, alpha, theta);
        let raw_hf = hf(p.clone(), n);
        let raw_ba = ba(p.clone(), n);
        let raw_bahf = ba_hf(p, n, alpha, theta);
        assert_eq!(shared_hf.sorted_weights(), raw_hf.sorted_weights());
        assert_eq!(shared_ba.sorted_weights(), raw_ba.sorted_weights());
        assert_eq!(shared_bahf.sorted_weights(), raw_bahf.sorted_weights());
        assert_eq!(shared_hf.ratio().to_bits(), raw_hf.ratio().to_bits());
        assert_eq!(shared_ba.ratio().to_bits(), raw_ba.ratio().to_bits());
        assert_eq!(shared_bahf.ratio().to_bits(), raw_bahf.ratio().to_bits());
    }

    proptest! {
        #[test]
        fn prop_memo_walks_match_raw_fixed(
            alpha in 0.01f64..=0.5,
            theta in 0.25f64..4.0,
            n in 1usize..300,
        ) {
            check_walks(FixedAlpha::new(1.0, alpha), n, alpha, theta);
        }

        #[test]
        fn prop_memo_walks_match_raw_cycle(
            fractions in prop::collection::vec(0.02f64..=0.5, 1..5),
            theta in 0.25f64..4.0,
            n in 1usize..300,
        ) {
            let p = CycleAlpha::new(3.0, &fractions);
            check_walks(p.clone(), n, p.min_fraction(), theta);
        }

        #[test]
        fn prop_memo_walks_match_raw_atomic(
            alpha in 0.05f64..=0.5,
            floor in 0.0005f64..0.05,
            theta in 0.25f64..4.0,
            n in 1usize..300,
        ) {
            check_walks(AtomicAfter::new(1.0, alpha, floor), n, alpha, theta);
        }

        #[test]
        fn prop_no_node_is_bisected_twice(
            fractions in prop::collection::vec(0.02f64..=0.5, 1..5),
            theta in 0.25f64..4.0,
            n in 1usize..300,
        ) {
            let inner = CycleAlpha::new(1.0, &fractions);
            let alpha = inner.min_fraction();
            let p = Counting::new(inner);
            let memo = BisectionMemo::new(p.clone());
            hf(memo.root(), n);
            ba(memo.root(), n);
            ba_hf(memo.root(), n, alpha, theta);
            let log = p.log.borrow();
            let distinct: HashSet<_> = log.iter().collect();
            prop_assert_eq!(distinct.len(), log.len());
            prop_assert_eq!(memo.bisections(), log.len() as u64);
        }
    }
}
