//! The miss pipeline: one balance request from spec to answer.
//!
//! [`solve`] builds the problem, settles α, runs the algorithm and
//! evaluates its worst-case bound — everything a cache miss computes
//! before the result is cached and sent. α comes from the spec's hint,
//! else from the class's analytic α, else from an HF run of the problem
//! itself (the realised split fraction `α̂`, see
//! [`AlphaRecorder`]).
//!
//! Every path runs on the calling thread: a server's request workers
//! already keep its cores busy, so a miss gains nothing from a second
//! pool. Which path a request takes depends only on the request:
//!
//! * `hf` runs HF once and reads `α̂` off that run when it needs it.
//! * With α known, `ba` and `bahf` run BA and BA-HF on the problem, and
//!   `phf` runs HF: PHF with the class's own α returns HF's partition
//!   (Theorem 3).
//! * Without it they run HF over a [`BisectionMemo`] of the problem for
//!   `α̂`, and the algorithm then walks the same tree: PHF's answer *is*
//!   that run's partition, and BA or BA-HF bisect only the nodes HF did
//!   not.
//!
//! The exception is PHF when the α it runs with was clamped up to
//! [`MIN_ALPHA`]: that α is not the problem's own, Theorem 3 no longer
//! ties PHF to HF, and it runs PHF's cascade and window rounds
//! ([`inline_phf`]) on the problem as is.
//!
//! The answer is the same whichever path computes it, and the same as
//! `gb_parlb`'s pool versions return: every algorithm bisects the same
//! tree.

use gb_core::memo::BisectionMemo;
use gb_core::partition::Partition;
use gb_core::problem::Bisectable;
use gb_core::tree::AlphaRecorder;
use gb_parlb::inline_phf;

use crate::proto::Algorithm;
use crate::spec::ProblemSpec;

/// Smallest α used for bound computation, so bounds stay finite even for
/// degenerate empirical measurements.
pub const MIN_ALPHA: f64 = 1e-3;

/// What a miss computes: the answer plus the work it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// Piece weights, sorted ascending.
    pub pieces: Vec<f64>,
    /// Max piece over the ideal weight `W/n`.
    pub ratio: f64,
    /// The algorithm's worst-case bound for `alpha`.
    pub bound: f64,
    /// The α in effect, clamped into `[MIN_ALPHA, 1/2]`.
    pub alpha: f64,
    /// Bisections of the problem performed.
    pub bisections: u64,
    /// Bisections answered from the shared tree instead.
    pub tree_reused: u64,
}

/// Solves one balance request; see the [module docs](self).
pub fn solve(spec: &ProblemSpec, algorithm: Algorithm, n: usize, theta: f64) -> Solved {
    let problem = spec.build();
    let known = spec.alpha_hint().or_else(|| problem.analytic_alpha());
    let settle = |alpha: Option<f64>| alpha.unwrap_or(0.25).clamp(MIN_ALPHA, 0.5);
    let (outcome, alpha) = match (algorithm, known) {
        (Algorithm::Hf, _) => {
            let mut rec = AlphaRecorder::default();
            let partition = gb_core::hf::hf_rec(problem, n, &mut rec);
            (Outcome::of(&partition), settle(known.or(rec.alpha())))
        }
        (_, None) => {
            let memo = BisectionMemo::new(problem);
            let mut rec = AlphaRecorder::default();
            let from_hf = gb_core::hf::hf_rec(memo.root(), n, &mut rec);
            let alpha = settle(rec.alpha());
            let outcome = match algorithm {
                // PHF run with the tree's own α̂ returns HF's partition
                // (Theorem 3); a clamped α̂ is not the tree's own.
                Algorithm::Phf if rec.alpha() == Some(alpha) => Outcome::over(&from_hf, &memo),
                Algorithm::Phf => {
                    let raw = Outcome::of(&inline_phf(spec.build(), n, alpha));
                    Outcome {
                        bisections: raw.bisections + memo.bisections(),
                        ..raw
                    }
                }
                Algorithm::Ba => Outcome::over(&gb_core::ba::ba(memo.root(), n), &memo),
                _ => Outcome::over(&gb_core::bahf::ba_hf(memo.root(), n, alpha, theta), &memo),
            };
            (outcome, alpha)
        }
        (_, Some(known)) => {
            let alpha = settle(Some(known));
            let outcome = match algorithm {
                Algorithm::Ba => Outcome::of(&gb_core::ba::ba(problem, n)),
                Algorithm::BaHf => Outcome::of(&gb_core::bahf::ba_hf(problem, n, alpha, theta)),
                // PHF run with the class's own α returns HF's partition
                // (Theorem 3); a clamped α is not the class's own.
                _ if known == alpha => Outcome::of(&gb_core::hf::hf(problem, n)),
                _ => Outcome::of(&inline_phf(problem, n, alpha)),
            };
            (outcome, alpha)
        }
    };
    let bound = match algorithm {
        Algorithm::Hf | Algorithm::Phf => gb_core::hf_upper_bound(alpha, n),
        Algorithm::Ba => gb_core::ba_upper_bound(alpha, n),
        Algorithm::BaHf => gb_core::bahf_upper_bound(alpha, theta, n),
    };
    Solved {
        pieces: outcome.pieces,
        ratio: outcome.ratio,
        bound,
        alpha,
        bisections: outcome.bisections,
        tree_reused: outcome.tree_reused,
    }
}

/// A partition's answer and the work behind it.
struct Outcome {
    pieces: Vec<f64>,
    ratio: f64,
    bisections: u64,
    tree_reused: u64,
}

impl Outcome {
    /// A run on the problem itself. Every bisection turns one piece into
    /// two, so a run that returns every leaf of its tree made one fewer
    /// bisection than it has pieces.
    fn of<P: Bisectable>(partition: &Partition<P>) -> Self {
        Self {
            pieces: partition.sorted_weights(),
            ratio: partition.ratio(),
            bisections: partition.len() as u64 - 1,
            tree_reused: 0,
        }
    }

    /// A run over `memo`, which counts the work of every run over it.
    fn over<P: Bisectable, Q: Bisectable>(
        partition: &Partition<P>,
        memo: &BisectionMemo<Q>,
    ) -> Self {
        Self {
            bisections: memo.bisections(),
            tree_reused: memo.reused(),
            ..Self::of(partition)
        }
    }
}
