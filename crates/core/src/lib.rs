//! # gb-core — load balancing for problems with good bisectors
//!
//! This crate is the core of a reproduction of
//!
//! > S. Bischof, R. Ebner, T. Erlebach.
//! > *Parallel Load Balancing for Problems with Good Bisectors.*
//! > IPPS/SPDP 1999.
//!
//! A class of problems has **α-bisectors** (`0 < α ≤ 1/2`) if every problem
//! `p` of weight `w(p)` can be split into two subproblems `p1`, `p2` with
//! `w(p1) + w(p2) = w(p)` and both weights in `[α·w(p), (1−α)·w(p)]`.
//! Given `N` processors the goal is to split `p` by repeated bisections into
//! at most `N` subproblems minimising the maximum subproblem weight; quality
//! is reported as the ratio of that maximum to the ideal `w(p)/N`.
//!
//! The crate provides:
//!
//! * the problem model ([`Bisectable`], [`AlphaBisectable`]) and partition /
//!   ratio bookkeeping ([`Partition`]),
//! * arena-based [`BisectionTree`]s recording algorithm runs,
//! * the *sequential semantics* of the paper's algorithms:
//!   [`hf`](hf::hf) (Heaviest problem First), [`ba`](ba::ba)
//!   (Best Approximation of ideal weight) and [`bahf::ba_hf`]
//!   (the combined algorithm of §3.3),
//! * a shared bisection tree ([`memo`]) over which several of those runs
//!   bisect each node at most once,
//! * the worst-case performance guarantees of Theorems 2, 7 and 8
//!   ([`bounds`]),
//! * small self-contained utilities the rest of the workspace builds on:
//!   a deterministic counter-based RNG ([`rng`]), a deterministic max-heap
//!   ([`heap`]) and streaming statistics ([`stats`]).
//!
//! The *parallel* versions (PHF on a simulated machine, BA on a work-stealing
//! thread pool) live in the `gb-pram` and `gb-parlb` crates; the simulation
//! study of §4 lives in `gb-simstudy`.
//!
//! ## Quick example
//!
//! ```
//! use gb_core::problem::WeightedSplit;
//! use gb_core::synthetic_alpha::FixedAlpha;
//! use gb_core::hf::hf;
//!
//! // A toy problem of weight 100 whose bisections always split 0.4 / 0.6.
//! let p = FixedAlpha::new(100.0, 0.4);
//! let partition = hf(p, 8);
//! assert_eq!(partition.len(), 8);
//! // With α = 0.4 the HF guarantee is r_α = 1/(0.4 · 0.6) ≈ 4.17;
//! // the observed ratio is far better.
//! assert!(partition.ratio() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ba;
pub mod bahf;
pub mod blind;
pub mod bounds;
pub mod error;
pub mod fingerprint;
pub mod heap;
pub mod hf;
pub mod memo;
pub mod oracle;
pub mod partition;
pub mod problem;
pub mod rng;
pub mod stats;
pub mod synthetic_alpha;
pub mod tree;

pub use ba::{ba, ba_traced, ba_with_ranges, split_processors};
pub use bahf::{ba_hf, ba_hf_traced};
pub use bounds::{ba_upper_bound, bahf_upper_bound, hf_upper_bound, r_ba, r_bahf, r_hf};
pub use error::{Error, Result};
pub use hf::{hf, hf_traced};
pub use partition::Partition;
pub use problem::{AlphaBisectable, Bisectable};
pub use tree::{AlphaRecorder, BisectionTree, NodeId};
