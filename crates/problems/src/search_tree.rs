//! Backtrack-search spaces (Karp–Zhang style).
//!
//! §2 of the paper notes that "problems might correspond to […] parts of
//! the search space for an optimization problem (cf. \[9\])", citing Karp
//! and Zhang's randomized parallel backtrack search. We model a search
//! space as a materialised irregular tree with a positive cost per node
//! (the work of expanding that search node): a **problem** is a connected
//! fragment of the tree — a subtree minus already donated subtrees — and
//! a **bisection** donates the best-splitting subtree, exactly the
//! "donate part of your subtree to an idle processor" move of
//! work-donation schedulers.
//!
//! Unlike the binary FE-trees of [`crate::fe_tree`], search trees have
//! irregular branching (0–`max_branch` children per node, seeded), which
//! exercises the load balancers on bushier, more skewed shapes. Both
//! classes share one fragment type and one bisector (the non-public
//! `fragment` module).

use std::sync::Arc;

use gb_core::problem::Bisectable;
use gb_core::rng::Xoshiro256StarStar;

use crate::fragment::{Fragment, Tour, NO_PARENT};

/// An immutable search tree shared by all problems derived from it.
#[derive(Debug)]
pub struct SearchTree {
    tour: Tour,
}

impl SearchTree {
    /// Generates a random search tree of roughly `target_nodes` nodes.
    ///
    /// Nodes spawn 0..=`max_branch` children (geometric-ish, seeded);
    /// expansion costs are uniform in `[0.5, 1.5)`. Generation proceeds
    /// breadth-first until the budget is exhausted, so trees are ragged
    /// but connected.
    ///
    /// # Panics
    /// Panics if `target_nodes == 0` or `max_branch < 2`.
    pub fn random(target_nodes: usize, max_branch: usize, seed: u64) -> Arc<Self> {
        assert!(target_nodes > 0, "need at least one node");
        assert!(max_branch >= 2, "need branching >= 2");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut cost = vec![rng.range_f64(0.5, 1.5)];
        let mut parent = vec![NO_PARENT];
        // Breadth first: nodes are expanded in the order they were made,
        // which is id order, and each one's children get consecutive ids.
        let mut v = 0;
        while v < cost.len() && cost.len() < target_nodes {
            // Between 0 and max_branch children, biased towards bushiness
            // early (so the tree does not die out).
            let max_kids = max_branch.min(target_nodes - cost.len());
            let kids = if cost.len() < 8 {
                max_kids.max(1)
            } else {
                rng.range_usize(max_kids + 1)
            };
            for _ in 0..kids {
                cost.push(rng.range_f64(0.5, 1.5));
                parent.push(v as u32);
            }
            v += 1;
        }
        // A search tree sums a subtree as its fold does.
        Arc::new(Self {
            tour: Tour::new(cost, parent, None),
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tour.len()
    }

    /// `true` if the tree has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tour.cost.is_empty()
    }

    /// Total expansion cost.
    pub fn total_cost(&self) -> f64 {
        self.tour.subtree_cost(0)
    }

    /// `true` iff `b` lies in the subtree rooted at `a`.
    pub fn in_subtree(&self, b: u32, a: u32) -> bool {
        self.tour.in_subtree(b, a)
    }

    /// Wraps the whole space into the root problem.
    pub fn root_problem(self: &Arc<Self>) -> SearchTreeProblem {
        SearchTreeProblem {
            tree: Arc::clone(self),
            frag: Fragment::new(&self.tour, 0, Vec::new()),
        }
    }
}

/// A connected fragment of a [`SearchTree`]: `subtree(root)` minus the
/// subtrees rooted at the cut nodes.
#[derive(Debug, Clone)]
pub struct SearchTreeProblem {
    tree: Arc<SearchTree>,
    frag: Fragment,
}

impl SearchTreeProblem {
    /// Number of nodes in this fragment.
    pub fn node_count(&self) -> u32 {
        self.frag.nodes()
    }

    /// The donation the next bisection makes: the non-root active node
    /// whose effective cost is closest to half the fragment weight.
    pub fn best_donation(&self) -> Option<u32> {
        self.frag.best_split(&self.tree.tour)
    }
}

impl PartialEq for SearchTreeProblem {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tree, &other.tree) && self.frag == other.frag
    }
}

impl Bisectable for SearchTreeProblem {
    fn weight(&self) -> f64 {
        self.frag.weight()
    }

    fn bisect(&self) -> (Self, Self) {
        let v = self
            .best_donation()
            .expect("bisect called on an atomic fragment");
        let (donated, rest) = self.frag.split_at(&self.tree.tour, v);
        let wrap = |frag| Self {
            tree: Arc::clone(&self.tree),
            frag,
        };
        (wrap(donated), wrap(rest))
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
    use gb_core::hf::hf;

    #[test]
    fn generator_hits_the_budget() {
        let t = SearchTree::random(5000, 4, 7);
        assert!(t.len() >= 4000 && t.len() <= 5003, "{} nodes", t.len());
        assert_eq!(t.tour.size(0) as usize, t.len());
        assert!(t.total_cost() > 0.0);
    }

    #[test]
    fn bisection_conserves_cost_and_nodes() {
        let t = SearchTree::random(2000, 5, 9);
        let p = t.root_problem();
        let (a, b) = p.bisect();
        assert!((a.weight() + b.weight() - p.weight()).abs() < 1e-9);
        assert_eq!(a.node_count() + b.node_count(), p.node_count());
    }

    #[test]
    fn bisection_is_deterministic() {
        let t = SearchTree::random(500, 3, 11);
        let p = t.root_problem();
        assert_eq!(p.bisect(), p.bisect());
    }

    #[test]
    fn hf_and_ba_partition_search_spaces() {
        let t = SearchTree::random(8000, 6, 13);
        let p = t.root_problem();
        for part in [hf(p.clone(), 48), ba(p.clone(), 48)] {
            assert_eq!(part.len(), 48);
            assert!(part.check_conservation(1e-9));
            let covered: u32 = part.pieces().iter().map(|q| q.node_count()).sum();
            assert_eq!(covered as usize, t.len());
        }
    }

    #[test]
    fn bushy_trees_have_good_bisectors() {
        for seed in 0..4 {
            let t = SearchTree::random(4000, 8, seed);
            let alpha = empirical_alpha(&t.root_problem(), 64).unwrap();
            assert!(alpha > 0.1, "seed {seed}: alpha {alpha}");
        }
    }

    #[test]
    fn single_node_fragments_are_atomic() {
        let t = SearchTree::random(1, 2, 3);
        assert_eq!(t.len(), 1);
        assert!(!t.root_problem().can_bisect());
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::fragment::oracle::{self, TreeFragment};
    use gb_parlb::pool::ThreadPool;
    use proptest::prelude::*;

    impl TreeFragment for SearchTreeProblem {
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

    /// The search trees `miss-mixed`-style requests build at `n` pieces.
    fn served_tree(n: usize, seed: u64) -> Arc<SearchTree> {
        SearchTree::random(4 * n, 8 + (seed % 9) as usize, seed)
    }

    #[test]
    fn partitions_match_the_oracle() {
        let pool = ThreadPool::new(2);
        for n in [64, 256, 1024] {
            oracle::assert_partitions_match(&served_tree(n, n as u64).root_problem(), n, &pool);
        }
        // Sparse branching: long chains and deep fragments.
        oracle::assert_partitions_match(&SearchTree::random(800, 2, 5).root_problem(), 64, &pool);
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
            nodes in 1usize..400,
            branch in 2usize..12,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let tree = SearchTree::random(nodes, branch, seed);
            oracle::assert_random_bisections_match(tree.root_problem(), &picks);
        }
    }
}
