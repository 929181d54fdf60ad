//! Arena-based bisection trees.
//!
//! The paper represents a run of a bisection-based load-balancing algorithm
//! by its **bisection tree** `T_p`: the root is the input problem; whenever
//! the algorithm bisects `q` into `q1`, `q2`, the two children are added
//! under `q`. At the end the tree has (at most) `N` leaves — the computed
//! subproblems — and every bisected problem is an internal node with exactly
//! two children.
//!
//! [`BisectionTree`] stores node weights, parent/child links and depths in
//! a flat arena; it is the common currency between the sequential
//! algorithms, the simulated parallel machine and the analysis helpers
//! (depth statistics, α verification, weight conservation).

use crate::error::{Error, Result};
use crate::problem::AlphaObserver;

/// Identifier of a node inside a [`BisectionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(u32);

impl NodeId {
    /// A sentinel id used by the no-op recorder; never a valid index.
    pub const DUMMY: NodeId = NodeId(u32::MAX);

    /// The arena index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a bisection tree.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    /// Weight of the (sub)problem this node represents.
    pub weight: f64,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// The two children created by bisecting this node, if it was bisected.
    pub children: Option<(NodeId, NodeId)>,
    /// Distance from the root.
    pub depth: u32,
}

impl Node {
    /// `true` if this node was never bisected.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// Sink for bisection events; lets algorithms run traced or untraced
/// through the same code path.
pub trait Recorder {
    /// Registers the root problem, returning its id.
    fn root(&mut self, weight: f64) -> NodeId;
    /// Registers the bisection of `parent` into weights `(w_left, w_right)`.
    fn record(&mut self, parent: NodeId, w_left: f64, w_right: f64) -> (NodeId, NodeId);
}

/// A recorder that discards everything (zero-cost untraced runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRecord;

impl Recorder for NoRecord {
    #[inline]
    fn root(&mut self, _weight: f64) -> NodeId {
        NodeId::DUMMY
    }

    #[inline]
    fn record(&mut self, _parent: NodeId, _w1: f64, _w2: f64) -> (NodeId, NodeId) {
        (NodeId::DUMMY, NodeId::DUMMY)
    }
}

/// A recorder that keeps only what the run's `α̂` needs — each node's
/// weight and the running worst split fraction — so a run can measure its
/// own `α̂` without building a [`BisectionTree`]. Reports exactly what
/// [`BisectionTree::observed_alpha`] would for the same run.
#[derive(Debug, Clone, Default)]
pub struct AlphaRecorder {
    weights: Vec<f64>,
    observer: AlphaObserver,
}

impl AlphaRecorder {
    /// The worst (smallest) realised split fraction so far, or `None` if
    /// nothing was bisected.
    pub fn alpha(&self) -> Option<f64> {
        self.observer.alpha()
    }
}

impl Recorder for AlphaRecorder {
    fn root(&mut self, weight: f64) -> NodeId {
        assert!(
            self.weights.is_empty(),
            "root registered twice on the same recorder"
        );
        self.weights.push(weight);
        NodeId(0)
    }

    fn record(&mut self, parent: NodeId, w_left: f64, w_right: f64) -> (NodeId, NodeId) {
        self.observer
            .record(self.weights[parent.index()], w_left, w_right);
        let l = NodeId(self.weights.len() as u32);
        self.weights.extend([w_left, w_right]);
        (l, NodeId(l.0 + 1))
    }
}

/// The bisection tree of an algorithm run.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BisectionTree {
    nodes: Vec<Node>,
}

impl BisectionTree {
    /// Creates an empty tree (populated through the [`Recorder`] interface).
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates an empty tree with room for the `2N−1` nodes of a full run.
    pub fn with_pieces_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(2 * n.saturating_sub(1).max(1)),
        }
    }

    /// The root node id.
    ///
    /// # Panics
    /// Panics if the tree is empty.
    pub fn root_id(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "empty bisection tree");
        NodeId(0)
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no root was registered yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of leaves (= subproblems of the computed partition).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of internal nodes (= bisections performed).
    pub fn bisection_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_leaf()).count()
    }

    /// Ids of all leaves, in arena order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf())
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Weights of all leaves, in arena order.
    pub fn leaf_weights(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.weight)
            .collect()
    }

    /// Maximum depth over all leaves (0 for a root-only tree).
    pub fn max_leaf_depth(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.depth)
            .max()
            .unwrap_or(0)
    }

    /// Minimum depth over all leaves.
    pub fn min_leaf_depth(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.depth)
            .min()
            .unwrap_or(0)
    }

    /// The path from `id` up to the root (inclusive on both ends).
    pub fn path_to_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.nodes[cur.index()].parent {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Iterates over `(id, &node)` pairs in arena order (parents precede
    /// children).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Verifies that every internal node's weight equals the sum of its
    /// children's weights within relative tolerance `rel_tol`.
    pub fn verify_weight_conservation(&self, rel_tol: f64) -> Result<()> {
        for node in &self.nodes {
            if let Some((l, r)) = node.children {
                let wl = self.nodes[l.index()].weight;
                let wr = self.nodes[r.index()].weight;
                if (wl + wr - node.weight).abs() > rel_tol * node.weight.abs().max(1.0) {
                    return Err(Error::BisectionContract {
                        parent: node.weight,
                        left: wl,
                        right: wr,
                        alpha: f64::NAN,
                    });
                }
            }
        }
        Ok(())
    }

    /// Verifies the α-bisector property of every recorded bisection.
    pub fn verify_alpha(&self, alpha: f64, rel_tol: f64) -> Result<()> {
        for node in &self.nodes {
            if let Some((l, r)) = node.children {
                let wl = self.nodes[l.index()].weight;
                let wr = self.nodes[r.index()].weight;
                crate::problem::validate_bisection(node.weight, wl, wr, alpha, rel_tol)?;
            }
        }
        Ok(())
    }

    /// The worst (smallest) realised split fraction over all bisections,
    /// or `None` if the tree has no internal node.
    pub fn observed_alpha(&self) -> Option<f64> {
        let mut obs = AlphaObserver::new();
        for node in &self.nodes {
            if let Some((l, r)) = node.children {
                obs.record(
                    node.weight,
                    self.nodes[l.index()].weight,
                    self.nodes[r.index()].weight,
                );
            }
        }
        obs.alpha()
    }

    /// Renders the tree as indented ASCII (weights to three decimals),
    /// truncated at `max_depth`. Intended for examples and debugging.
    pub fn render_ascii(&self, max_depth: u32) -> String {
        let mut out = String::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![self.root_id()];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.depth > max_depth {
                continue;
            }
            for _ in 0..node.depth {
                out.push_str("  ");
            }
            let marker = if node.is_leaf() { "leaf" } else { "split" };
            out.push_str(&format!("{marker} w={:.3}\n", node.weight));
            if let Some((l, r)) = node.children {
                stack.push(r);
                stack.push(l);
            }
        }
        out
    }
}

impl Recorder for BisectionTree {
    fn root(&mut self, weight: f64) -> NodeId {
        assert!(
            self.nodes.is_empty(),
            "root registered twice on the same tree"
        );
        self.nodes.push(Node {
            weight,
            parent: None,
            children: None,
            depth: 0,
        });
        NodeId(0)
    }

    fn record(&mut self, parent: NodeId, w_left: f64, w_right: f64) -> (NodeId, NodeId) {
        let depth = self.nodes[parent.index()].depth + 1;
        assert!(
            self.nodes[parent.index()].children.is_none(),
            "node bisected twice"
        );
        let l = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            weight: w_left,
            parent: Some(parent),
            children: None,
            depth,
        });
        let r = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            weight: w_right,
            parent: Some(parent),
            children: None,
            depth,
        });
        self.nodes[parent.index()].children = Some((l, r));
        (l, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> BisectionTree {
        // 1.0 → (0.4, 0.6); 0.6 → (0.3, 0.3)
        let mut t = BisectionTree::new();
        let root = t.root(1.0);
        let (_a, b) = t.record(root, 0.4, 0.6);
        t.record(b, 0.3, 0.3);
        t
    }

    #[test]
    fn counts_and_depths() {
        let t = sample_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.bisection_count(), 2);
        assert_eq!(t.max_leaf_depth(), 2);
        assert_eq!(t.min_leaf_depth(), 1);
    }

    #[test]
    fn leaf_weights_sum_to_root() {
        let t = sample_tree();
        let total: f64 = t.leaf_weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_conservation_detects_loss() {
        let mut t = BisectionTree::new();
        let root = t.root(1.0);
        t.record(root, 0.4, 0.55); // loses 0.05
        assert!(t.verify_weight_conservation(1e-9).is_err());
        assert!(sample_tree().verify_weight_conservation(1e-12).is_ok());
    }

    #[test]
    fn alpha_verification() {
        let t = sample_tree();
        assert!(t.verify_alpha(0.4, 1e-9).is_ok());
        assert!(t.verify_alpha(0.45, 1e-9).is_err());
        assert_eq!(t.observed_alpha(), Some(0.4));
    }

    #[test]
    fn path_to_root_walks_parents() {
        let t = sample_tree();
        // Node 4 is the right child of node 2 (arena order: root, 0.4, 0.6, 0.3, 0.3).
        let path = t.path_to_root(NodeId(4));
        assert_eq!(path, vec![NodeId(4), NodeId(2), NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "bisected twice")]
    fn double_bisection_panics() {
        let mut t = sample_tree();
        let root = t.root_id();
        t.record(root, 0.5, 0.5);
    }

    #[test]
    fn no_record_is_inert() {
        let mut r = NoRecord;
        let id = r.root(1.0);
        assert_eq!(id, NodeId::DUMMY);
        assert_eq!(r.record(id, 0.5, 0.5), (NodeId::DUMMY, NodeId::DUMMY));
    }

    #[test]
    fn alpha_recorder_matches_the_tree() {
        use crate::hf::{hf_rec, hf_traced};
        use crate::synthetic_alpha::CycleAlpha;
        for n in [1usize, 2, 7, 64, 333] {
            let p = CycleAlpha::new(3.0, &[0.31, 0.5, 0.07, 0.44]);
            let mut rec = AlphaRecorder::default();
            let part = hf_rec(p.clone(), n, &mut rec);
            let (traced, tree) = hf_traced(p, n);
            assert_eq!(
                rec.alpha().map(f64::to_bits),
                tree.observed_alpha().map(f64::to_bits)
            );
            assert!(part.same_weights_as(&traced), "n = {n}");
        }
    }

    #[test]
    fn render_ascii_shows_all_levels() {
        let t = sample_tree();
        let s = t.render_ascii(8);
        assert!(s.contains("split w=1.000"));
        assert!(s.contains("leaf w=0.400"));
        assert_eq!(s.lines().count(), 5);
        // Truncation at depth 0 keeps only the root line.
        assert_eq!(t.render_ascii(0).lines().count(), 1);
    }

    #[test]
    fn empty_tree_is_empty() {
        let t = BisectionTree::new();
        assert!(t.is_empty());
        assert_eq!(t.leaf_count(), 0);
        assert_eq!(t.max_leaf_depth(), 0);
    }
}
