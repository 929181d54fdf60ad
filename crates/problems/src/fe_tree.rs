//! FE-trees: unbalanced binary trees from adaptive recursive substructuring.
//!
//! The paper's motivating application is a parallel finite-element solver
//! whose "recursive substructuring phase yields an unbalanced binary tree
//! (called FE-tree). In order to parallelize the main part of the
//! computation, the FE-tree must be split into subtrees that can be
//! distributed among the available processors."
//!
//! We model an FE-tree as a binary tree with a positive cost per node
//! (assembly/elimination work of that substructure). A **problem** is a
//! connected fragment of the tree: a subtree root minus a set of already
//! cut-away subtrees. Its **bisection** removes the tree edge whose lower
//! endpoint's effective subtree cost is closest to half the fragment's
//! weight — the natural "useful bisection method for FE-trees" of \[1\].
//! Cutting an edge splits a tree fragment into two tree fragments, so the
//! class is closed under bisection; weights are additive by construction.
//!
//! The generator simulates adaptive refinement: starting from a root
//! region, repeatedly refine a leaf (biased towards recently refined
//! regions to create the *unbalanced* trees adaptive FEM produces).

use std::sync::Arc;

use gb_core::problem::Bisectable;
use gb_core::rng::Xoshiro256StarStar;

use crate::fragment::{Fragment, Tour, NO_PARENT};

/// An immutable FE-tree shared by all problems derived from it.
#[derive(Debug)]
pub struct FeTree {
    tour: Tour,
}

impl FeTree {
    /// Builds an FE-tree by simulated adaptive refinement.
    ///
    /// Starts from a single root region and performs `refinements` steps;
    /// each step picks a leaf — with probability `bias` the most recently
    /// created leaf (deep, unbalanced refinement), otherwise a uniformly
    /// random leaf — and splits it into two child regions with costs
    /// uniform in `[0.5, 1.5)`. The result has `2·refinements + 1` nodes.
    ///
    /// # Panics
    /// Panics if `bias ∉ [0, 1]`.
    pub fn adaptive(refinements: usize, bias: f64, seed: u64) -> Arc<Self> {
        assert!((0.0..=1.0).contains(&bias), "bias {bias} outside [0, 1]");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n_nodes = 2 * refinements + 1;
        let mut cost = Vec::with_capacity(n_nodes);
        let mut parent = Vec::with_capacity(n_nodes);
        cost.push(rng.range_f64(0.5, 1.5));
        parent.push(NO_PARENT);
        let mut leaves: Vec<u32> = vec![0];
        for _ in 0..refinements {
            let pick = if rng.next_f64() < bias {
                leaves.len() - 1
            } else {
                rng.range_usize(leaves.len())
            };
            let v = leaves.swap_remove(pick);
            let l = cost.len() as u32;
            for _ in 0..2 {
                cost.push(rng.range_f64(0.5, 1.5));
                parent.push(v);
            }
            leaves.push(l);
            leaves.push(l + 1);
        }
        Arc::new(Self::finish(cost, parent))
    }

    /// Builds a perfectly balanced FE-tree of the given depth with unit
    /// node costs — the best case for bisection-based balancing.
    pub fn balanced(depth: u32) -> Arc<Self> {
        let n_nodes = (1usize << (depth + 1)) - 1;
        let cost = vec![1.0; n_nodes];
        let mut parent = vec![NO_PARENT; n_nodes];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = ((v - 1) / 2) as u32;
        }
        Arc::new(Self::finish(cost, parent))
    }

    /// Builds a maximally unbalanced "caterpillar" FE-tree: a spine of
    /// `spine` internal nodes, each with one leaf child — the worst case
    /// produced by strictly local refinement.
    pub fn caterpillar(spine: usize, seed: u64) -> Arc<Self> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n_nodes = 2 * spine + 1;
        let mut cost = Vec::with_capacity(n_nodes);
        let mut parent = Vec::with_capacity(n_nodes);
        cost.push(rng.range_f64(0.5, 1.5));
        parent.push(NO_PARENT);
        let mut spine_node = 0u32;
        for _ in 0..spine {
            let l = cost.len() as u32;
            for _ in 0..2 {
                cost.push(rng.range_f64(0.5, 1.5));
                parent.push(spine_node);
            }
            spine_node = l + 1; // continue the spine on the right child
        }
        Arc::new(Self::finish(cost, parent))
    }

    /// Completes the derived tables. Every builder gives a node no
    /// children or two, numbered consecutively after it; an FE-tree sums
    /// a subtree as own cost plus the sum of its two children's. Falling
    /// id order does exactly that: the right child's sum lands on the
    /// parent first, the left one's is added to it, and the parent's own
    /// cost last.
    fn finish(cost: Vec<f64>, parent: Vec<u32>) -> Self {
        let mut sums = vec![0.0; cost.len()];
        for v in (0..cost.len()).rev() {
            sums[v] += cost[v];
            if v > 0 {
                let p = parent[v] as usize;
                sums[p] += sums[v];
            }
        }
        Self {
            tour: Tour::new(cost, parent, Some(sums)),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tour.len()
    }

    /// `true` if the tree has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tour.cost.is_empty()
    }

    /// Total cost of all nodes.
    pub fn total_cost(&self) -> f64 {
        self.tour.subtree_cost(0)
    }

    /// `true` iff `a` is an ancestor of `b` or equal to it.
    pub fn in_subtree(&self, b: u32, a: u32) -> bool {
        self.tour.in_subtree(b, a)
    }

    /// The parent of `v`, if any.
    pub fn parent_of(&self, v: u32) -> Option<u32> {
        self.tour.parent(v)
    }

    /// Wraps the whole tree into the root problem.
    pub fn root_problem(self: &Arc<Self>) -> FeTreeProblem {
        FeTreeProblem {
            tree: Arc::clone(self),
            frag: Fragment::new(&self.tour, 0, Vec::new()),
        }
    }
}

/// A connected tree fragment: `subtree(root)` minus the subtrees rooted at
/// the (disjoint) cut nodes. The problem type of the FE-tree class.
#[derive(Debug, Clone)]
pub struct FeTreeProblem {
    tree: Arc<FeTree>,
    frag: Fragment,
}

impl FeTreeProblem {
    /// The root node of this fragment.
    pub fn fragment_root(&self) -> u32 {
        self.frag.root()
    }

    /// Number of nodes in this fragment.
    pub fn node_count(&self) -> u32 {
        self.frag.nodes()
    }

    /// Visits every active node of the fragment, calling `f(node)`;
    /// traversal is depth-first from the fragment root, skipping cut
    /// subtrees.
    pub fn for_each_node<F: FnMut(u32)>(&self, f: F) {
        self.frag.for_each_node(&self.tree.tour, f)
    }

    /// The edge-cut node the next bisection will split at (for tests):
    /// the non-root active node whose effective subtree cost is closest to
    /// half the fragment weight (ties: smallest Euler index).
    pub fn best_cut(&self) -> Option<u32> {
        self.frag.best_split(&self.tree.tour)
    }
}

impl PartialEq for FeTreeProblem {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tree, &other.tree) && self.frag == other.frag
    }
}

impl Bisectable for FeTreeProblem {
    fn weight(&self) -> f64 {
        self.frag.weight()
    }

    fn bisect(&self) -> (Self, Self) {
        let v = self
            .best_cut()
            .expect("bisect called on an atomic FE-tree fragment");
        // Fragment 1: subtree(v) minus the cut roots inside it; fragment
        // 2: the remainder — same root, v added to the cut.
        let (below, rest) = self.frag.split_at(&self.tree.tour, v);
        let wrap = |frag| Self {
            tree: Arc::clone(&self.tree),
            frag,
        };
        (wrap(below), wrap(rest))
    }

    fn can_bisect(&self) -> bool {
        self.frag.nodes() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical_alpha;
    use gb_core::ba::ba;
    use gb_core::hf::{hf, hf_traced};

    #[test]
    fn adaptive_tree_shape() {
        let t = FeTree::adaptive(100, 0.5, 7);
        assert_eq!(t.len(), 201);
        assert!(t.total_cost() > 0.0);
        // Subtree sizes are consistent: root covers everything.
        assert_eq!(t.tour.size(0) as usize, t.len());
    }

    #[test]
    fn balanced_tree_shape() {
        let t = FeTree::balanced(4);
        assert_eq!(t.len(), 31);
        assert_eq!(t.total_cost(), 31.0);
    }

    #[test]
    fn euler_intervals_nest() {
        let t = FeTree::adaptive(50, 0.3, 9);
        for v in 0..t.len() as u32 {
            assert!(t.in_subtree(v, 0), "root spans all");
            assert!(t.in_subtree(v, v), "reflexive");
            if let Some(p) = t.parent_of(v) {
                assert!(t.in_subtree(v, p));
                assert!(!t.in_subtree(p, v));
            }
        }
    }

    #[test]
    fn bisection_conserves_weight_and_nodes() {
        let t = FeTree::adaptive(200, 0.6, 11);
        let p = t.root_problem();
        let (a, b) = p.bisect();
        assert!((a.weight() + b.weight() - p.weight()).abs() < 1e-9);
        assert_eq!(a.node_count() + b.node_count(), p.node_count());
        assert!(a.weight() > 0.0 && b.weight() > 0.0);
    }

    #[test]
    fn bisection_is_deterministic() {
        let t = FeTree::adaptive(80, 0.4, 13);
        let p = t.root_problem();
        assert_eq!(p.bisect(), p.bisect());
    }

    #[test]
    fn single_node_is_atomic() {
        let t = FeTree::adaptive(0, 0.0, 1);
        assert_eq!(t.len(), 1);
        assert!(!t.root_problem().can_bisect());
    }

    #[test]
    fn hf_partitions_fe_tree() {
        let t = FeTree::adaptive(2000, 0.5, 17);
        let p = t.root_problem();
        let total = p.weight();
        let part = hf(p, 32);
        assert_eq!(part.len(), 32);
        let sum: f64 = part.weights().iter().sum();
        assert!((sum - total).abs() < 1e-6 * total);
        // Large trees with bounded node costs balance well.
        assert!(part.ratio() < 2.5, "ratio {}", part.ratio());
    }

    #[test]
    fn ba_partitions_fe_tree() {
        let t = FeTree::adaptive(2000, 0.5, 19);
        let part = ba(t.root_problem(), 32);
        assert_eq!(part.len(), 32);
        assert!(part.check_conservation(1e-9));
    }

    #[test]
    fn caterpillar_still_has_usable_bisectors() {
        // Even the degenerate caterpillar admits reasonable cuts because
        // the best-edge rule can split anywhere along the spine.
        let t = FeTree::caterpillar(500, 23);
        let alpha = empirical_alpha(&t.root_problem(), 16).unwrap();
        assert!(alpha > 0.2, "alpha {alpha}");
    }

    #[test]
    fn balanced_tree_bisects_near_half() {
        let t = FeTree::balanced(10);
        let p = t.root_problem();
        let (a, b) = p.bisect();
        let frac = a.weight().min(b.weight()) / p.weight();
        // Cutting a child subtree of the root on a complete unit-cost tree
        // removes (2^10 − 1)/(2^11 − 1) ≈ 0.4998 of the weight.
        assert!(frac > 0.49, "frac {frac}");
    }

    #[test]
    fn observed_alpha_is_good_for_adaptive_trees() {
        for seed in 0..5 {
            let t = FeTree::adaptive(1500, 0.5, seed);
            let alpha = empirical_alpha(&t.root_problem(), 64).unwrap();
            assert!(alpha > 0.15, "seed {seed}: alpha {alpha}");
        }
    }

    #[test]
    fn fragments_partition_all_tree_nodes() {
        let t = FeTree::adaptive(300, 0.5, 29);
        let (part, tree) = hf_traced(t.root_problem(), 16);
        assert_eq!(tree.leaf_count(), 16);
        let mut counted = 0u32;
        let mut seen = vec![false; t.len()];
        for piece in part.pieces() {
            counted += piece.node_count();
            piece.for_each_node(|v| {
                assert!(!seen[v as usize], "node {v} in two fragments");
                seen[v as usize] = true;
            });
        }
        assert_eq!(counted as usize, t.len());
        assert!(seen.iter().all(|&s| s));
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::fragment::oracle::{self, TreeFragment};
    use gb_parlb::pool::ThreadPool;
    use proptest::prelude::*;

    impl TreeFragment for FeTreeProblem {
        fn tour(&self) -> &Tour {
            &self.tree.tour
        }

        fn fragment(&self) -> &Fragment {
            &self.frag
        }

        fn with_fragment(&self, frag: Fragment) -> Self {
            Self {
                tree: Arc::clone(&self.tree),
                frag,
            }
        }
    }

    /// The FE-trees `miss-mixed`-style requests build at `n` pieces.
    fn served_tree(n: usize, seed: u64) -> Arc<FeTree> {
        FeTree::adaptive(2 * n, 0.5 + 0.4 * (seed % 5) as f64 / 5.0, seed)
    }

    #[test]
    fn partitions_match_the_oracle() {
        let pool = ThreadPool::new(2);
        for n in [64, 256, 1024] {
            oracle::assert_partitions_match(&served_tree(n, n as u64).root_problem(), n, &pool);
        }
        let caterpillar = FeTree::caterpillar(300, 3).root_problem();
        oracle::assert_partitions_match(&caterpillar, 64, &pool);
        oracle::assert_partitions_match(&FeTree::balanced(9).root_problem(), 256, &pool);
    }

    #[test]
    #[ignore = "n = 4096 oracle runs; release-mode CI step"]
    fn partitions_match_the_oracle_at_4096() {
        let pool = ThreadPool::new(2);
        for seed in 0..3 {
            oracle::assert_partitions_match(&served_tree(4096, seed).root_problem(), 4096, &pool);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_random_bisections_match_the_oracle(
            shape in 0u32..3,
            size in 1usize..200,
            bias in 0.0f64..=1.0,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let tree = match shape {
                0 => FeTree::adaptive(size, bias, seed),
                1 => FeTree::caterpillar(size, seed),
                _ => FeTree::balanced(1 + size as u32 % 8),
            };
            oracle::assert_random_bisections_match(tree.root_problem(), &picks);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_adaptive_trees_bisect_soundly(
            refinements in 1usize..150,
            bias in 0.0f64..=1.0,
            seed in any::<u64>(),
        ) {
            let t = FeTree::adaptive(refinements, bias, seed);
            prop_assert_eq!(t.len(), 2 * refinements + 1);
            let p = t.root_problem();
            prop_assert!(p.can_bisect());
            let (a, b) = p.bisect();
            prop_assert!((a.weight() + b.weight() - p.weight()).abs() < 1e-9);
            prop_assert_eq!(a.node_count() + b.node_count(), t.len() as u32);
            prop_assert!(a.weight() > 0.0 && b.weight() > 0.0);
        }

        #[test]
        fn prop_full_partitions_tile_the_tree(
            refinements in 4usize..120,
            seed in any::<u64>(),
            n in 2usize..16,
        ) {
            let t = FeTree::adaptive(refinements, 0.5, seed);
            let part = gb_core::hf::hf(t.root_problem(), n);
            let covered: u32 = part.pieces().iter().map(|p| p.node_count()).sum();
            prop_assert_eq!(covered as usize, t.len());
            prop_assert!(part.check_conservation(1e-9));
        }
    }
}
