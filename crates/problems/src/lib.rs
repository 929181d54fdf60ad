//! # gb-problems — concrete problem classes with good bisectors
//!
//! The paper treats problems abstractly: anything with a positive weight
//! and an α-bisector. This crate supplies concrete classes, each honouring
//! the determinism contract of `gb_core::problem` (bisection is a pure
//! function of the problem value):
//!
//! * [`synthetic`] — **the paper's stochastic model** (§4): every bisection
//!   splits at a fraction `α̂ ~ U[l, u]`, i.i.d. across bisections. All
//!   tables and figures of the evaluation use this class.
//! * [`task_list`] — lists of weighted tasks split at a random pivot; the
//!   example the paper gives to motivate the uniform-`α̂` model.
//! * [`fe_tree`] — unbalanced binary FE-trees as produced by adaptive
//!   recursive substructuring in the authors' finite-element solver
//!   \[1, 6, 7\]; bisection = best edge cut.
//! * [`quadrature`] — hyper-rectangles with analytically integrable work
//!   densities, modelling multi-dimensional adaptive numerical quadrature
//!   \[4\]; bisection = midpoint split of the widest dimension.
//! * [`grid`] — 2-D load grids (domain decomposition / chip layout \[12\]);
//!   bisection = weighted median cut along the longer axis.
//! * [`search_tree`] — backtrack-search spaces (Karp–Zhang \[9\]); a
//!   bisection donates the best-splitting subtree to an idle processor.
//!
//! For classes whose α cannot be established analytically, [`empirical_alpha`]
//! measures the realised `α̂` of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fe_tree;
mod fragment;
pub mod grid;
pub mod quadrature;
pub mod search_tree;
pub mod synthetic;
pub mod task_list;

pub use fe_tree::{FeTree, FeTreeProblem};
pub use grid::{Grid, GridProblem};
pub use quadrature::{Integrand, Region};
pub use search_tree::{SearchTree, SearchTreeProblem};
pub use synthetic::SyntheticProblem;
pub use task_list::{TaskList, TaskListProblem};

use gb_core::problem::Bisectable;

/// Measures the empirical bisection quality of a problem: runs `n − 1`
/// heaviest-first bisections and returns the worst realised split fraction
/// `min(w1, w2)/w` over all of them (`None` if nothing was bisectable).
///
/// This is the per-instance `α̂` that connects the concrete classes back to
/// the abstract α-bisector model. A caller that runs HF anyway can read the
/// same value off its own run with a [`gb_core::tree::AlphaRecorder`].
pub fn empirical_alpha<P: Bisectable + Clone>(p: &P, n: usize) -> Option<f64> {
    let mut rec = gb_core::tree::AlphaRecorder::default();
    gb_core::hf::hf_rec(p.clone(), n, &mut rec);
    rec.alpha()
}
