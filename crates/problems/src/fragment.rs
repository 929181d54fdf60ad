//! Connected fragments of an immutable rooted tree — the problem shape
//! shared by the [`crate::fe_tree`] and [`crate::search_tree`] classes.
//!
//! A fragment is `subtree(root)` minus the subtrees rooted at its cut
//! nodes. Its bisection removes the edge above the non-root node whose
//! fragment-restricted ("effective") subtree cost is closest to half the
//! fragment's weight, ties to the smallest Euler entry index.
//!
//! Only the proper ancestors of cut nodes have an effective cost other
//! than their whole subtree's, so a bisection refolds just those, then
//! descends from the root into the children whose effective cost reaches
//! half the weight. Costs are non-negative, so no node below a lighter
//! child can come closer to half than that child, and none wins a tie
//! against it (its entry index is larger): the descent finds the split a
//! full sweep of the fragment would, and pays for the path to its cut.

use std::cell::RefCell;

/// The parent entry of a tree's root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Per-node tables of a tree, indexed by node id except `order`.
#[derive(Debug)]
pub(crate) struct Tour {
    /// Own cost of each node.
    pub(crate) cost: Vec<f64>,
    /// Each node's whole-subtree cost folded as a bisection folds it: own
    /// cost, then each child's fold in tour order.
    fold: Vec<f64>,
    /// Each node's whole-subtree cost as its class sums it, where that
    /// differs from `fold`; fragment weights subtract these.
    sums: Option<Vec<f64>>,
    /// Parent of each node, [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Euler-tour entry index; `tin[v]..tout[v]` spans v's subtree.
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// Inverse of `tin`: the node entered at each index.
    order: Vec<u32>,
}

impl Tour {
    /// Builds the tables of the tree with the given own costs and parents:
    /// node 0 is the root (`parent[0] == NO_PARENT`), every other node's
    /// parent has a smaller id, and siblings are entered in id order.
    /// `sums` gives the class's whole-subtree costs when it adds them up
    /// in another order than `fold`.
    ///
    /// # Panics
    /// Panics if a cost is negative or not finite, or a parent does not
    /// precede its child.
    pub(crate) fn new(cost: Vec<f64>, parent: Vec<u32>, sums: Option<Vec<f64>>) -> Self {
        let n = cost.len();
        assert!(n > 0 && parent.len() == n && parent[0] == NO_PARENT);
        assert!(
            cost.iter().all(|c| c.is_finite() && *c >= 0.0),
            "tree costs must be finite and non-negative"
        );
        assert!(sums.as_ref().is_none_or(|s| s.len() == n));
        // `span[v]` first counts v's subtree; then, once v is entered, it
        // is the entry index where v's next child starts, which ends as
        // v's `tout`. Children follow their parent and their elder
        // siblings, so each one starts where the one before it ended.
        let mut span = vec![1u32; n];
        for v in (1..n).rev() {
            let p = parent[v] as usize;
            assert!(p < v, "node {v} does not follow its parent {p}");
            span[p] += span[v];
        }
        let mut tin = vec![0u32; n];
        span[0] = 1;
        for v in 1..n {
            let p = parent[v] as usize;
            tin[v] = span[p];
            span[p] += span[v];
            span[v] = tin[v] + 1;
        }
        let mut order = vec![0u32; n];
        for (v, &t) in tin.iter().enumerate() {
            order[t as usize] = v as u32;
        }
        let mut tour = Self {
            fold: Vec::new(),
            cost,
            sums,
            parent,
            tin,
            tout: span,
            order,
        };
        // Children have larger ids, so each fold is final before its parent's.
        let mut fold = vec![0.0; n];
        for v in (0..n).rev() {
            let mut sum = tour.cost[v];
            for c in tour.children(v as u32) {
                sum += fold[c as usize];
            }
            fold[v] = sum;
        }
        tour.fold = fold;
        tour
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.cost.len()
    }

    /// Cost of `v`'s whole subtree, as the class sums it.
    pub(crate) fn subtree_cost(&self, v: u32) -> f64 {
        self.sums.as_ref().unwrap_or(&self.fold)[v as usize]
    }

    /// Node count of `v`'s whole subtree.
    pub(crate) fn size(&self, v: u32) -> u32 {
        self.tout[v as usize] - self.tin[v as usize]
    }

    /// The parent of `v`, if any.
    pub(crate) fn parent(&self, v: u32) -> Option<u32> {
        Some(self.parent[v as usize]).filter(|&p| p != NO_PARENT)
    }

    /// `true` iff `b` lies in the subtree rooted at `a` (or is `a`).
    pub(crate) fn in_subtree(&self, b: u32, a: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }

    /// Children of `v`, in tour order.
    fn children(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let end = self.tout[v as usize];
        let mut i = self.tin[v as usize] + 1;
        std::iter::from_fn(move || {
            (i < end).then(|| {
                let c = self.order[i as usize];
                i = self.tout[c as usize];
                c
            })
        })
    }
}

/// A cut root (`eff: None`) or a proper ancestor of one with its
/// effective cost, in a list sorted by entry index.
struct Known {
    tin: u32,
    /// The list index just past this node's subtree.
    end: u32,
    eff: Option<f64>,
}

/// Buffers a bisection reuses, so that it allocates nothing once warm.
struct Scratch {
    cuts: Vec<u32>,
    known: Vec<Known>,
    todo: Vec<(u32, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            cuts: Vec::new(),
            known: Vec::new(),
            todo: Vec::new(),
        })
    };
}

/// `subtree(root)` minus the (disjoint) subtrees rooted at `cut`, with
/// its weight and node count fixed at construction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fragment {
    root: u32,
    /// Roots of cut-away subtrees, each strictly inside `subtree(root)`,
    /// pairwise disjoint, sorted by node id: the weight subtracts them in
    /// this order, which keeps its floating-point value deterministic.
    cut: Vec<u32>,
    weight: f64,
    nodes: u32,
}

impl Fragment {
    pub(crate) fn root(&self) -> u32 {
        self.root
    }

    pub(crate) fn weight(&self) -> f64 {
        self.weight
    }

    pub(crate) fn nodes(&self) -> u32 {
        self.nodes
    }

    pub(crate) fn new(tour: &Tour, root: u32, cut: Vec<u32>) -> Self {
        let mut weight = tour.subtree_cost(root);
        let mut nodes = tour.size(root);
        for &c in &cut {
            weight -= tour.subtree_cost(c);
            nodes -= tour.size(c);
        }
        Self {
            root,
            cut,
            weight,
            nodes,
        }
    }

    /// The non-root node whose effective subtree cost is closest to half
    /// the fragment weight, ties to the smallest Euler index; `None` for
    /// a single-node fragment.
    pub(crate) fn best_split(&self, tour: &Tour) -> Option<u32> {
        SCRATCH.with_borrow_mut(|s| {
            self.known_costs(tour, &mut s.cuts, &mut s.known);
            self.descend(tour, &s.known, &mut s.todo)
        })
    }

    /// Fills `known` with the cut roots and their proper ancestors below
    /// the fragment root, in entry order, each ancestor with its
    /// effective cost.
    ///
    /// The ancestors are the union of the cuts' root paths. Taken in entry
    /// order, each cut's walk up stops at the first ancestor of the
    /// previous cut, which is already listed (an interval holding an
    /// earlier cut and this one holds every cut between); what the walk
    /// finds lies between the two cuts in entry order. The list is then
    /// refolded deepest first, as the fold sums: own cost, then each child
    /// in tour order, a cut child adding `0.0`. A node with a listed
    /// descendant is listed itself, so a node's listed children are the
    /// entries after it, each skipping to its `end`. O(c log c + k·degree)
    /// for c cuts and k listed nodes.
    fn known_costs(&self, tour: &Tour, cuts: &mut Vec<u32>, known: &mut Vec<Known>) {
        cuts.clear();
        cuts.extend(self.cut.iter().map(|&c| tour.tin[c as usize]));
        cuts.sort_unstable();
        known.clear();
        let mut prev: Option<u32> = None;
        for &tin in cuts.iter() {
            let c = tour.order[tin as usize];
            let from = known.len();
            let mut v = tour.parent[c as usize];
            while v != self.root && prev.is_none_or(|p| !tour.in_subtree(p, v)) {
                known.push(Known {
                    tin: tour.tin[v as usize],
                    end: 0,
                    eff: Some(0.0),
                });
                v = tour.parent[v as usize];
            }
            known[from..].reverse();
            known.push(Known {
                tin,
                end: 0,
                eff: None,
            });
            prev = Some(c);
        }
        for i in (0..known.len()).rev() {
            let mut end = i + 1;
            if known[i].eff.is_some() {
                let v = tour.order[known[i].tin as usize];
                let mut eff = tour.cost[v as usize];
                for c in tour.children(v) {
                    match known.get(end) {
                        Some(k) if k.tin == tour.tin[c as usize] => {
                            eff += k.eff.unwrap_or(0.0);
                            end = k.end as usize;
                        }
                        _ => eff += tour.fold[c as usize],
                    }
                }
                known[i].eff = Some(eff);
            }
            known[i].end = end as u32;
        }
    }

    /// Scores every active child of the root, and of each node whose
    /// effective cost is at least half the weight, by `(|eff − half|,
    /// entry index)`, and returns the least. A child lighter than half is
    /// scored but not entered: every node below it weighs at most as much
    /// (a sum of non-negative terms is at least each term), so it sits at
    /// least as far from half, and enters later.
    ///
    /// Each node waits in `todo` with the index of the first `known`
    /// entry that could be one of its children.
    fn descend(&self, tour: &Tour, known: &[Known], todo: &mut Vec<(u32, u32)>) -> Option<u32> {
        let half = self.weight / 2.0;
        let mut best: Option<(f64, u32)> = None; // (|eff − half|, entry index)
        todo.clear();
        todo.push((self.root, 0));
        while let Some((u, mut next)) = todo.pop() {
            for c in tour.children(u) {
                let tin = tour.tin[c as usize];
                let (eff, below) = match known.get(next as usize) {
                    Some(k) if k.tin == tin => {
                        let below = next + 1;
                        next = k.end;
                        match k.eff {
                            Some(eff) => (eff, below),
                            None => continue,
                        }
                    }
                    _ => (tour.fold[c as usize], next),
                };
                let key = (eff - half).abs();
                if best.is_none_or(|(k, t)| key < k || (key == k && tin < t)) {
                    best = Some((key, tin));
                }
                if eff >= half {
                    todo.push((c, below));
                }
            }
        }
        best.map(|(_, t)| tour.order[t as usize])
    }

    /// Splits off `subtree(v)` (for an active non-root `v`): returns that
    /// part, then the remainder.
    pub(crate) fn split_at(&self, tour: &Tour, v: u32) -> (Self, Self) {
        let (cut_in, mut cut_out): (Vec<u32>, Vec<u32>) =
            self.cut.iter().partition(|&&c| tour.in_subtree(c, v));
        cut_out.push(v);
        cut_out.sort_unstable();
        (
            Self::new(tour, v, cut_in),
            Self::new(tour, self.root, cut_out),
        )
    }

    /// Calls `f` on every node of the fragment in Euler (pre-)order.
    pub(crate) fn for_each_node<F: FnMut(u32)>(&self, tour: &Tour, mut f: F) {
        let mut cuts: Vec<(u32, u32)> = self
            .cut
            .iter()
            .map(|&c| (tour.tin[c as usize], tour.tout[c as usize]))
            .collect();
        cuts.sort_unstable();
        let mut next_cut = cuts.iter().peekable();
        let mut i = tour.tin[self.root as usize];
        let end = tour.tout[self.root as usize];
        while i < end {
            if let Some(&&(start, stop)) = next_cut.peek() {
                if start == i {
                    i = stop;
                    next_cut.next();
                    continue;
                }
            }
            f(tour.order[i as usize]);
            i += 1;
        }
    }
}

/// The bisector as first written — a post-order walk per call that keeps
/// effective costs in a `HashMap` and looks each node up in the cut list —
/// kept as the reference the descent must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use gb_core::partition::Partition;
    use gb_core::problem::Bisectable;
    use gb_parlb::pool::ThreadPool;

    use super::{Fragment, Tour};

    /// A tree-fragment problem class, opened up for the oracle.
    pub(crate) trait TreeFragment: Bisectable + Clone + Send + 'static {
        fn tour(&self) -> &Tour;
        fn fragment(&self) -> &Fragment;
        fn with_fragment(&self, frag: Fragment) -> Self;
    }

    /// Children of `v` in tour order.
    fn children(tour: &Tour, v: u32) -> Vec<u32> {
        tour.children(v).collect()
    }

    fn effective_costs(tour: &Tour, frag: &Fragment) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let mut stack: Vec<(u32, bool)> = vec![(frag.root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if frag.cut.contains(&v) {
                continue;
            }
            if expanded {
                let mut c = tour.cost[v as usize];
                for ch in children(tour, v) {
                    c += acc.get(&ch).copied().unwrap_or(0.0);
                }
                acc.insert(v, c);
                out.push((v, c));
            } else {
                stack.push((v, true));
                for ch in children(tour, v).into_iter().rev() {
                    stack.push((ch, false));
                }
            }
        }
        out
    }

    pub(crate) fn weight(tour: &Tour, frag: &Fragment) -> f64 {
        let mut w = tour.subtree_cost(frag.root);
        for &c in &frag.cut {
            w -= tour.subtree_cost(c);
        }
        w
    }

    /// Counts the fragment's nodes one by one.
    pub(crate) fn node_count(tour: &Tour, frag: &Fragment) -> u32 {
        let mut n = 0;
        frag.for_each_node(tour, |_| n += 1);
        n
    }

    pub(crate) fn best_split(tour: &Tour, frag: &Fragment) -> Option<u32> {
        let half = weight(tour, frag) / 2.0;
        let mut best: Option<(f64, u32, u32)> = None; // (|eff-half|, tin, node)
        for (v, eff) in effective_costs(tour, frag) {
            if v == frag.root {
                continue;
            }
            let key = (eff - half).abs();
            let tin = tour.tin[v as usize];
            match best {
                Some((bk, bt, _)) if (bk, bt) <= (key, tin) => {}
                _ => best = Some((key, tin, v)),
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// A problem whose weight, bisectability and bisection all come from
    /// the oracle.
    #[derive(Debug, Clone)]
    pub(crate) struct Oracle<P>(pub(crate) P);

    impl<P: TreeFragment> Bisectable for Oracle<P> {
        fn weight(&self) -> f64 {
            weight(self.0.tour(), self.0.fragment())
        }

        fn bisect(&self) -> (Self, Self) {
            let (tour, frag) = (self.0.tour(), self.0.fragment());
            let v = best_split(tour, frag).expect("oracle bisects a non-atomic fragment");
            let mut cut_in = Vec::new();
            let mut cut_out = Vec::new();
            for &c in &frag.cut {
                if tour.in_subtree(c, v) {
                    cut_in.push(c);
                } else {
                    cut_out.push(c);
                }
            }
            cut_out.push(v);
            cut_out.sort_unstable();
            let below = Fragment::new(tour, v, cut_in);
            let rest = Fragment::new(tour, frag.root, cut_out);
            (
                Oracle(self.0.with_fragment(below)),
                Oracle(self.0.with_fragment(rest)),
            )
        }

        fn can_bisect(&self) -> bool {
            node_count(self.0.tour(), self.0.fragment()) >= 2
        }
    }

    /// Asserts that `p`'s cached weight and node count, every effective
    /// cost the descent reads and its next cut agree with the oracle
    /// exactly.
    pub(crate) fn assert_matches<P: TreeFragment>(p: &P) {
        let (tour, frag) = (p.tour(), p.fragment());
        assert_eq!(frag.weight.to_bits(), weight(tour, frag).to_bits());
        assert_eq!(frag.nodes, node_count(tour, frag));
        let mut known = Vec::new();
        frag.known_costs(tour, &mut Vec::new(), &mut known);
        for (i, k) in known.iter().enumerate() {
            let v = tour.order[k.tin as usize];
            let past = known.partition_point(|j| j.tin < tour.tout[v as usize]);
            assert_eq!(k.end as usize, past, "list end of node {v}");
            assert!(
                i == 0 || known[i - 1].tin < k.tin,
                "list out of entry order"
            );
        }
        let mut read: Vec<(u32, u64)> = Vec::new();
        frag.for_each_node(tour, |v| {
            if v != frag.root {
                let eff = match known.binary_search_by_key(&tour.tin[v as usize], |k| k.tin) {
                    Ok(i) => known[i].eff.expect("an active node is not cut away"),
                    Err(_) => tour.fold[v as usize],
                };
                read.push((v, eff.to_bits()));
            }
        });
        read.sort_unstable();
        let mut walked: Vec<(u32, u64)> = effective_costs(tour, frag)
            .into_iter()
            .filter(|&(v, _)| v != frag.root)
            .map(|(v, eff)| (v, eff.to_bits()))
            .collect();
        walked.sort_unstable();
        assert_eq!(read, walked, "root {} cut {:?}", frag.root, frag.cut);
        assert_eq!(
            frag.best_split(tour),
            best_split(tour, frag),
            "root {} cut {:?}",
            frag.root,
            frag.cut
        );
    }

    /// The pieces of a partition as (root, cut, weight bits), sorted.
    fn pieces<'a>(frags: impl Iterator<Item = &'a Fragment>) -> Vec<(u32, Vec<u32>, u64)> {
        let mut out: Vec<_> = frags
            .map(|f| (f.root, f.cut.clone(), f.weight.to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    fn assert_same<P: TreeFragment>(ours: Partition<P>, theirs: Partition<Oracle<P>>, what: &str) {
        assert_eq!(
            pieces(ours.pieces().iter().map(|p| p.fragment())),
            pieces(theirs.pieces().iter().map(|o| o.0.fragment())),
            "{what}"
        );
        for o in theirs.pieces() {
            assert_eq!(o.weight().to_bits(), o.0.weight().to_bits(), "{what}");
        }
    }

    /// Asserts that `hf`, `ba`, `ba_hf` and `par_phf` cut `p` into exactly
    /// the fragments the same algorithms cut it into under the oracle.
    pub(crate) fn assert_partitions_match<P: TreeFragment>(p: &P, n: usize, pool: &ThreadPool) {
        use gb_core::{ba::ba, bahf::ba_hf, hf::hf};
        let alpha = crate::empirical_alpha(p, n)
            .unwrap_or(0.25)
            .clamp(1e-3, 0.5);
        let o = Oracle(p.clone());
        assert_same(hf(p.clone(), n), hf(o.clone(), n), "hf");
        assert_same(ba(p.clone(), n), ba(o.clone(), n), "ba");
        assert_same(
            ba_hf(p.clone(), n, alpha, 1.5),
            ba_hf(o.clone(), n, alpha, 1.5),
            "ba_hf",
        );
        assert_same(
            gb_parlb::par_phf(pool, p.clone(), n, alpha),
            gb_parlb::par_phf(pool, o, n, alpha),
            "par_phf",
        );
    }

    /// Bisects `p` `steps` times, each time splitting the fragment that
    /// `picks` selects (so remainders pile up long cut lists), and checks
    /// every fragment produced against the oracle.
    pub(crate) fn assert_random_bisections_match<P: TreeFragment>(p: P, picks: &[u64]) {
        assert_matches(&p);
        let mut live = vec![p];
        for &pick in picks {
            let open: Vec<usize> = (0..live.len()).filter(|&i| live[i].can_bisect()).collect();
            let Some(&at) = open.get(pick as usize % open.len().max(1)) else {
                break;
            };
            let (a, b) = live.swap_remove(at).bisect();
            assert_matches(&a);
            assert_matches(&b);
            live.push(a);
            live.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gb_core::problem::Bisectable;
    use proptest::prelude::*;

    use super::oracle::{self, TreeFragment};
    use super::{Fragment, Tour, NO_PARENT};

    /// A whole tree given by explicit parents and small integer costs, so
    /// that effective costs tie exactly and often sit exactly at half a
    /// fragment's weight.
    #[derive(Debug, Clone)]
    struct Plain {
        tour: Arc<Tour>,
        frag: Fragment,
    }

    impl Plain {
        /// Node `v ≥ 1` hangs under `parents[v − 1] % v`, so any list
        /// makes a tree; nodes without a listed parent hang under the root.
        fn new(costs: &[u32], parents: &[u32]) -> Self {
            let parent = (0..costs.len() as u32)
                .map(|v| match v {
                    0 => NO_PARENT,
                    _ => parents.get(v as usize - 1).map_or(0, |p| p % v),
                })
                .collect();
            let cost = costs.iter().map(|&c| f64::from(c)).collect();
            let tour = Arc::new(Tour::new(cost, parent, None));
            let frag = Fragment::new(&tour, 0, Vec::new());
            Self { tour, frag }
        }
    }

    impl Bisectable for Plain {
        fn weight(&self) -> f64 {
            self.frag.weight()
        }

        fn bisect(&self) -> (Self, Self) {
            let v = self
                .frag
                .best_split(&self.tour)
                .expect("a non-atomic fragment");
            let (below, rest) = self.frag.split_at(&self.tour, v);
            (self.with_fragment(below), self.with_fragment(rest))
        }

        fn can_bisect(&self) -> bool {
            self.frag.nodes() >= 2
        }
    }

    impl TreeFragment for Plain {
        fn tour(&self) -> &Tour {
            &self.tour
        }

        fn fragment(&self) -> &Fragment {
            &self.frag
        }

        fn with_fragment(&self, frag: Fragment) -> Self {
            Self {
                tour: Arc::clone(&self.tour),
                frag,
            }
        }
    }

    #[test]
    fn a_child_at_exactly_half_wins_over_its_subtree() {
        // 0 ─ 1 ─ 2 ─ 3, costs 1, 0, 0, 1: nodes 1, 2 and 3 each weigh
        // exactly half of 2; 1 enters first.
        let p = Plain::new(&[1, 0, 0, 1], &[0, 1, 2]);
        assert_eq!(p.frag.best_split(&p.tour), Some(1));
        oracle::assert_random_bisections_match(p, &[0, 1, 2]);
    }

    #[test]
    fn zero_cost_trees_tie_everywhere() {
        let p = Plain::new(&[0; 12], &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]);
        oracle::assert_random_bisections_match(p, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
    }

    #[test]
    fn effective_costs_fold_as_the_walk_does_not_as_the_class_sums() {
        // Node 1 folds to (1 + e) + e = 1 with e = 2^-53, but sums to
        // 1 + (e + e) = 1 + 2e, which is exactly half the weight, and so
        // is node 4. Only the fold keeps node 1 off the split.
        let e = 2f64.powi(-53);
        let half = 1.0 + 2.0 * e;
        let tour = Tour::new(
            vec![0.0, 1.0, e, e, half],
            vec![NO_PARENT, 0, 1, 1, 0],
            Some(vec![2.0 * half, half, e, e, half]),
        );
        let frag = Fragment::new(&tour, 0, Vec::new());
        assert_eq!(frag.best_split(&tour), Some(4));
        assert_eq!(oracle::best_split(&tour, &frag), Some(4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn tour_rejects_a_negative_cost() {
        Tour::new(vec![1.0, -0.5], vec![NO_PARENT, 0], None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn tour_rejects_a_cost_that_is_not_a_number() {
        Tour::new(vec![1.0, f64::NAN], vec![NO_PARENT, 0], None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_descent_picks_the_oracles_split_on_tied_costs(
            costs in proptest::collection::vec(0u32..4, 1..80),
            parents in proptest::collection::vec(any::<u32>(), 0..80),
            picks in proptest::collection::vec(any::<u64>(), 1..100),
        ) {
            oracle::assert_random_bisections_match(Plain::new(&costs, &parents), &picks);
        }
    }
}
