//! Connected fragments of an immutable rooted tree — the problem shape
//! shared by the [`crate::fe_tree`] and [`crate::search_tree`] classes.
//!
//! A fragment is `subtree(root)` minus the subtrees rooted at its cut
//! nodes. Its bisection removes the edge above the non-root node whose
//! fragment-restricted ("effective") subtree cost is closest to half the
//! fragment's weight. Everything here works on the tree's Euler tour: a
//! subtree is the entry-index interval `tin[v]..tout[v]`, so a fragment is
//! its root's interval with the cut intervals taken out, and one backward
//! sweep over that range yields every effective cost.

/// Euler-tour tables of a tree, indexed by node id except `order`.
#[derive(Debug)]
pub(crate) struct Tour {
    /// Own cost of each node.
    pub(crate) cost: Vec<f64>,
    /// Cost of each node's whole subtree.
    pub(crate) subtree_cost: Vec<f64>,
    /// Node count of each node's whole subtree.
    pub(crate) subtree_size: Vec<u32>,
    /// Euler-tour entry index; `tin[v]..tout[v]` spans v's subtree.
    pub(crate) tin: Vec<u32>,
    pub(crate) tout: Vec<u32>,
    /// Inverse of `tin`: the node entered at each index.
    order: Vec<u32>,
}

impl Tour {
    /// Bundles the per-node tables and builds the inverse Euler array.
    pub(crate) fn new(
        cost: Vec<f64>,
        subtree_cost: Vec<f64>,
        subtree_size: Vec<u32>,
        tin: Vec<u32>,
        tout: Vec<u32>,
    ) -> Self {
        let mut order = vec![0u32; tin.len()];
        for (v, &t) in tin.iter().enumerate() {
            order[t as usize] = v as u32;
        }
        Self {
            cost,
            subtree_cost,
            subtree_size,
            tin,
            tout,
            order,
        }
    }

    /// `true` iff `b` lies in the subtree rooted at `a` (or is `a`).
    pub(crate) fn in_subtree(&self, b: u32, a: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }
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
        let mut weight = tour.subtree_cost[root as usize];
        let mut nodes = tour.subtree_size[root as usize];
        for &c in &cut {
            weight -= tour.subtree_cost[c as usize];
            nodes -= tour.subtree_size[c as usize];
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
        let half = self.weight / 2.0;
        let mut best: Option<(f64, u32)> = None; // (|eff − half|, entry index)
        self.effective_costs(tour, |i, eff| {
            // Indices fall, so an equal key replaces: the smaller index wins.
            let key = (eff - half).abs();
            if best.is_none_or(|(k, _)| key <= k) {
                best = Some((key, i));
            }
        });
        best.map(|(_, i)| tour.order[i as usize])
    }

    /// Calls `visit(entry index, effective cost)` for every non-root node
    /// of the fragment, in falling entry order.
    ///
    /// Sweeps the root's Euler range from its end back to the root,
    /// jumping over each cut interval, so every node is seen after all of
    /// its descendants. Completed subtree values wait on a stack tagged
    /// with their entry index; a node folds off the entries inside its own
    /// interval, which are exactly its children, first child on top. The
    /// sum is therefore own cost, then each child in order — a cut child
    /// contributing a `0.0` placeholder — the same additions a recursive
    /// post-order fold makes. O(|F| + |cut| log |cut|) time; the stack
    /// holds one entry per pending sibling along the current path.
    fn effective_costs(&self, tour: &Tour, mut visit: impl FnMut(u32, f64)) {
        let mut cuts = self.cut_intervals(tour);
        let mut pending: Vec<(u32, f64)> = Vec::new();
        let first = tour.tin[self.root as usize] + 1; // the root is never cut off
        let mut i = tour.tout[self.root as usize];
        while i > first {
            i -= 1;
            if let Some(&(start, end)) = cuts.last() {
                if end == i + 1 {
                    pending.push((start, 0.0));
                    cuts.pop();
                    i = start;
                    continue;
                }
            }
            let v = tour.order[i as usize] as usize;
            let end = tour.tout[v];
            let mut eff = tour.cost[v];
            while let Some(&(at, value)) = pending.last() {
                if at >= end {
                    break;
                }
                eff += value;
                pending.pop();
            }
            pending.push((i, eff));
            visit(i, eff);
        }
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
        let cuts = self.cut_intervals(tour);
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

    /// The cut subtrees as Euler intervals, in tour order.
    fn cut_intervals(&self, tour: &Tour) -> Vec<(u32, u32)> {
        let mut spans: Vec<(u32, u32)> = self
            .cut
            .iter()
            .map(|&c| (tour.tin[c as usize], tour.tout[c as usize]))
            .collect();
        spans.sort_unstable();
        spans
    }
}

/// The bisector as first written — a post-order walk per call that keeps
/// effective costs in a `HashMap` and looks each node up in the cut list —
/// kept as the reference the Euler sweep must match bit for bit.
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
        let mut out = Vec::new();
        let mut i = tour.tin[v as usize] + 1;
        while i < tour.tout[v as usize] {
            let c = tour.order[i as usize];
            out.push(c);
            i = tour.tout[c as usize];
        }
        out
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
        let mut w = tour.subtree_cost[frag.root as usize];
        for &c in &frag.cut {
            w -= tour.subtree_cost[c as usize];
        }
        w
    }

    pub(crate) fn node_count(tour: &Tour, frag: &Fragment) -> u32 {
        let mut n = tour.subtree_size[frag.root as usize];
        for &c in &frag.cut {
            n -= tour.subtree_size[c as usize];
        }
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

    /// Asserts that `p`'s cached weight and node count, its effective
    /// costs and its next cut agree with the oracle exactly.
    pub(crate) fn assert_matches<P: TreeFragment>(p: &P) {
        let (tour, frag) = (p.tour(), p.fragment());
        assert_eq!(frag.weight.to_bits(), weight(tour, frag).to_bits());
        assert_eq!(frag.nodes, node_count(tour, frag));
        let mut swept = Vec::new();
        frag.effective_costs(tour, |i, eff| {
            swept.push((tour.order[i as usize], eff.to_bits()))
        });
        swept.sort_unstable();
        let mut walked: Vec<(u32, u64)> = effective_costs(tour, frag)
            .into_iter()
            .filter(|&(v, _)| v != frag.root)
            .map(|(v, eff)| (v, eff.to_bits()))
            .collect();
        walked.sort_unstable();
        assert_eq!(swept, walked, "root {} cut {:?}", frag.root, frag.cut);
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
