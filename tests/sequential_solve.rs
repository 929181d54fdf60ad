//! `gb_service::solve` runs every miss on the calling thread. Its answers
//! with a known α must be the ones the pool versions give: BA and BA-HF
//! because their piece multisets do not depend on the schedule, PHF
//! because with the class's own α it is HF (Theorem 3), and with a
//! clamped α because `inline_phf` runs `par_phf`'s own cascade and
//! window rounds.

use gb_core::partition::Partition;
use gb_core::problem::Bisectable;
use gb_parlb::{inline_phf, par_ba, par_ba_hf, par_phf, ThreadPool};
use gb_problems::synthetic::SyntheticProblem;
use gb_service::proto::Algorithm;
use gb_service::solve::MIN_ALPHA;
use gb_service::spec::{ProblemSpec, ServiceProblem};
use proptest::prelude::*;

/// The bit patterns of a partition's pieces, sorted.
fn sorted_bits<P: Bisectable>(partition: &Partition<P>) -> Vec<u64> {
    bits(&partition.sorted_weights())
}

fn bits(pieces: &[f64]) -> Vec<u64> {
    pieces.iter().map(|w| w.to_bits()).collect()
}

/// Checks `solve` against the pool version of `algorithm` on a 2-worker
/// pool: sorted piece bits, ratio, bound and α.
fn check_against_the_pool(
    pool: &ThreadPool,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    n: usize,
    theta: f64,
) -> Result<(), TestCaseError> {
    let p: ServiceProblem = spec.build();
    let alpha = spec
        .alpha_hint()
        .or_else(|| p.analytic_alpha())
        .expect("a class with a known α")
        .clamp(MIN_ALPHA, 0.5);
    let (partition, bound) = match algorithm {
        Algorithm::Ba => (par_ba(pool, p, n), gb_core::ba_upper_bound(alpha, n)),
        Algorithm::BaHf => (
            par_ba_hf(pool, p, n, alpha, theta),
            gb_core::bahf_upper_bound(alpha, theta, n),
        ),
        Algorithm::Phf => (
            par_phf(pool, p, n, alpha),
            gb_core::hf_upper_bound(alpha, n),
        ),
        Algorithm::Hf => unreachable!("HF has no pool version"),
    };
    let solved = gb_service::solve(spec, algorithm, n, theta);
    let what = format!("{spec:?} {algorithm:?} n={n} theta={theta}");
    prop_assert_eq!(bits(&solved.pieces), sorted_bits(&partition), "{}", what);
    prop_assert_eq!(
        solved.ratio.to_bits(),
        partition.ratio().to_bits(),
        "{}",
        what
    );
    prop_assert_eq!(solved.bound.to_bits(), bound.to_bits(), "{}", what);
    prop_assert_eq!(solved.alpha.to_bits(), alpha.to_bits(), "{}", what);
    Ok(())
}

/// 1, 2, or anything up to 4096 (mostly not a power of two).
fn processors() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), 3usize..=4096]
}

const POOLED: [Algorithm; 3] = [Algorithm::Ba, Algorithm::BaHf, Algorithm::Phf];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic problems, with `lo` both above and below `MIN_ALPHA`
    /// (below it the α in effect is clamped and PHF runs its rounds).
    #[test]
    fn synthetic_answers_match_the_pool(
        seed in any::<u64>(),
        lo in prop_oneof![1e-4f64..2e-3, 0.01f64..=0.5],
        spread in 0.0f64..=1.0,
        n in processors(),
        theta in 0.1f64..4.0,
    ) {
        let pool = ThreadPool::new(2);
        let spec = ProblemSpec::Synthetic {
            weight: 1.0,
            lo,
            hi: lo + (0.5 - lo) * spread,
            seed,
        };
        for algorithm in POOLED {
            check_against_the_pool(&pool, &spec, algorithm, n, theta)?;
        }
    }

    /// Adaptive-quadrature regions, whose analytic α is a bound the
    /// class computes from its integrand.
    #[test]
    fn quadrature_answers_match_the_pool(
        seed in any::<u64>(),
        dims in 1usize..=3,
        sharpness in 0.5f64..30.0,
        halvings in 4u32..=14,
        n in processors(),
        theta in 0.1f64..4.0,
    ) {
        let pool = ThreadPool::new(2);
        let spec = ProblemSpec::Quadrature {
            dims,
            sharpness,
            min_width: 0.9 * 0.5f64.powf((halvings as f64 / dims as f64).ceil()),
            seed,
        };
        for algorithm in POOLED {
            check_against_the_pool(&pool, &spec, algorithm, n, theta)?;
        }
    }
}

/// Runs `inline_phf` and `par_phf` on `p` at each α in `alphas` and
/// checks they agree; at `own`, a valid α, both must also be HF. Returns
/// how many runs came out unlike HF.
fn inline_matches_par_phf<P>(pool: &ThreadPool, p: &P, n: usize, own: f64, alphas: &[f64]) -> usize
where
    P: Bisectable + Clone + Send + 'static,
{
    let hf = sorted_bits(&gb_core::hf::hf(p.clone(), n));
    let mut unlike_hf = 0;
    for &alpha in alphas {
        let inline = sorted_bits(&inline_phf(p.clone(), n, alpha));
        let pooled = sorted_bits(&par_phf(pool, p.clone(), n, alpha));
        assert_eq!(inline, pooled, "n={n} alpha={alpha}");
        if alpha == own {
            assert_eq!(inline, hf, "n={n} alpha={alpha}");
        }
        unlike_hf += usize::from(inline != hf);
    }
    unlike_hf
}

/// The sequential rounds against `par_phf` at a valid α and above the
/// problem's smallest split. Heavy-tailed task lists whose smallest split
/// falls below `MIN_ALPHA` run at the α HF measures and at `MIN_ALPHA`,
/// the clamped α `solve` runs PHF with. Synthetic problems with 1% splits
/// run at α = 0.3 too, where the window rule bisects pieces HF would not
/// and the rounds alone define the answer.
#[test]
fn inline_rounds_match_par_phf_above_the_smallest_split() {
    let pool = ThreadPool::new(2);
    let cases: [(usize, usize, [u64; 3]); 5] = [
        (1024, 16, [175, 175, 175]),
        (1024, 64, [175, 175, 175]),
        (1024, 256, [139, 175, 336]),
        (4096, 1024, [6, 41, 53]),
        (16_384, 4096, [5, 10, 18]),
    ];
    for (tasks, n, seeds) in cases {
        for seed in seeds {
            let spec = ProblemSpec::TaskList {
                tasks,
                heavy: true,
                seed,
            };
            let p = spec.build();
            let own = gb_problems::empirical_alpha(&p, n).expect("bisectable");
            assert!(
                own < MIN_ALPHA,
                "tasks={tasks} seed={seed} n={n}: α̂ = {own}"
            );
            inline_matches_par_phf(&pool, &p, n, own, &[own, MIN_ALPHA]);
        }
    }
    let mut unlike_hf = 0;
    for seed in 0..64 {
        let p = SyntheticProblem::new(1.0, 0.01, 0.5, seed);
        // n ≤ r_α(0.3) ≈ 6.8: phase 1 has nothing to cascade. Above the
        // smallest split its threshold no longer bounds HF's pieces, and
        // a cascade could outrun `n`.
        for n in 2..=6 {
            unlike_hf += inline_matches_par_phf(&pool, &p, n, 0.01, &[0.01, 0.3]);
        }
    }
    assert!(unlike_hf > 0, "no run above the smallest split left HF");
}
