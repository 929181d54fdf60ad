//! **Ablations** (extension E-ABL): what each load-bearing design choice
//! of the paper's algorithms buys, measured by swapping it out.
//!
//! 1. **BA's processor split** — the best-approximation rule vs naive
//!    `round(α̂·N)`. The rule is what makes Lemma 4
//!    (`max(w1/N1, w2/N2) ≤ w/(N−1)`) and hence Theorem 7 go through;
//!    naive rounding breaks Lemma 4 (at `α̂ = 0.24, N = 10` it gives
//!    `0.12 > 1/9`), yet on `U[0.1, 0.5]` it happens to average lower.
//! 2. **HF's heaviest-first order** — vs bisecting a *random* piece.
//! 3. **PHF's `(1−α)` batch window** — vs bisecting only the maximum per
//!    round: the batch is what makes phase 2 `O(log N)` (at most
//!    `1 + ln N / ln(1/(1−α))` rounds, against `N − 1`).
//! 4. **Weight information** — HF and BA vs the weight-oblivious
//!    variants of [`gb_core::blind`] (the unknown-weight model of the
//!    paper's reference [10]).
//! 5. **Free-processor managers** (§3.4) — ranges vs randomized probing
//!    vs a central directory, phase-1 makespan on the simulated machine.
//!
//! Instance `i` is `SyntheticProblem::new(1.0, lo, hi, i)` (ablation 4
//! uses seed `i ^ 0x51D`); the manager comparison runs one instance of
//! seed 7 with probing seed 42. The master `--seed` does not apply.

use gb_core::ba::{ba, split_processors};
use gb_core::blind::{blind_ba, blind_hf};
use gb_core::bounds::ba_upper_bound;
use gb_core::heap::WeightHeap;
use gb_core::hf::hf;
use gb_core::problem::Bisectable;
use gb_core::rng::Xoshiro256StarStar;
use gb_core::stats::Welford;
use gb_parlb::managers::{compare_managers, ManagerComparison};
use gb_problems::synthetic::SyntheticProblem;

use crate::config::StudyConfig;
use crate::report::render_csv;

/// `log₂ N` the CLI runs the ablations at.
pub const LOG_N: u32 = 12;

/// The whole study. Each `(f64, f64)` pairs the paper's choice with its
/// ablated replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationStudy {
    /// Configuration used (interval and instance count).
    pub cfg: StudyConfig,
    /// `log₂ N` of the ablations' problem size.
    pub log_n: u32,
    /// BA avg ratio: best-approximation split vs naive rounding.
    pub split: (f64, f64),
    /// BA's worst observed ratio with the best-approximation split.
    pub ba_max_ratio: f64,
    /// Worst `max(w1/N1, w2/N2)·(N−1)/w` of BA's split rule over
    /// `α̂ ∈ (0, 0.5)`, `N ≤ 64`; Lemma 4 says it is at most 1.
    pub lemma4_worst: f64,
    /// Naive rounding's `max(w1/N1, w2/N2)` at `α̂ = 0.24, N = 10`.
    pub naive_at_024: f64,
    /// Avg ratio: heaviest-first vs a random piece.
    pub order: (f64, f64),
    /// Phase-2 rounds, averaged over the instances: PHF's window vs one
    /// bisection per round (`N−1`).
    pub window: (f64, f64),
    /// Avg ratio: HF vs blind breadth-first bisection.
    pub hf_blind: (f64, f64),
    /// Avg ratio: BA vs blind halve-the-processors.
    pub ba_blind: (f64, f64),
    /// Phase-1 makespan per manager, at `N = 2^8` and `N = 2^log_n`.
    pub managers: [ManagerComparison; 2],
}

/// Naive rounding's share of `n` processors for the lighter side
/// `frac = w1/w`, clamped to `[1, n−1]`.
fn naive_split(frac: f64, n: usize) -> usize {
    ((frac * n as f64).round() as usize).clamp(1, n - 1)
}

/// BA with the naive `round(α̂·N)` processor split.
fn ba_naive_split<P: Bisectable>(p: P, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut stack = vec![(p, n)];
    while let Some((q, m)) = stack.pop() {
        if m == 1 || !q.can_bisect() {
            out.push(q.weight());
            continue;
        }
        let (q1, q2) = q.bisect();
        let n1 = naive_split(q1.weight() / q.weight(), m);
        stack.push((q2, m - n1));
        stack.push((q1, n1));
    }
    out
}

/// "HF" bisecting a uniformly random (instead of the heaviest) piece.
fn random_first<P: Bisectable>(p: P, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut pieces = vec![p];
    while pieces.len() < n {
        let i = rng.range_usize(pieces.len());
        let q = pieces.swap_remove(i);
        if !q.can_bisect() {
            pieces.push(q);
            break;
        }
        let (a, b) = q.bisect();
        pieces.push(a);
        pieces.push(b);
    }
    pieces.iter().map(|q| q.weight()).collect()
}

/// Synchronised phase-2 rounds of PHF's window rule (every piece within
/// `(1−α)` of the maximum is bisected in the same round) until `n` pieces.
/// Pieces stay in place; a bisection overwrites its piece's slot with the
/// first child and appends the second.
fn batched_rounds(p: SyntheticProblem, n: usize, alpha: f64) -> usize {
    let mut pieces = vec![p];
    let mut heap = WeightHeap::with_capacity(n);
    heap.push(p.weight(), 0);
    let mut rounds = 0usize;
    while pieces.len() < n {
        rounds += 1;
        let m = heap.peek_weight().expect("non-empty");
        let window = m * (1.0 - alpha);
        let budget = n - pieces.len();
        let mut batch = Vec::new();
        while let Some(w) = heap.peek_weight() {
            if w < window || batch.len() == budget {
                break;
            }
            batch.push(heap.pop().expect("peeked").1);
        }
        for i in batch {
            let (a, b) = pieces[i as usize].bisect();
            heap.push(a.weight(), i);
            heap.push(b.weight(), pieces.len() as u32);
            pieces[i as usize] = a;
            pieces.push(b);
        }
    }
    rounds
}

fn ratio_of(weights: &[f64], n: usize) -> f64 {
    let total: f64 = weights.iter().sum();
    let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max / (total / n as f64)
}

/// `max(w1/N1, w2/N2)` for a unit-weight problem split `frac : 1−frac`.
fn split_load(frac: f64, n1: usize, n2: usize) -> f64 {
    (frac / n1 as f64).max((1.0 - frac) / n2 as f64)
}

/// Runs the five ablations at `N = 2^log_n` (`log_n > 8`, the managers'
/// smaller size) over `cfg.trials` instances of `α̂ ~ U[cfg.lo, cfg.hi]`;
/// the PHF window uses `α = cfg.lo` and at most 20 instances.
pub fn ablation_study(cfg: &StudyConfig, log_n: u32) -> AblationStudy {
    let n = 1usize << log_n;
    let trials = cfg.trials as u64;
    let instance = |seed: u64| SyntheticProblem::new(1.0, cfg.lo, cfg.hi, seed);

    let (mut best, mut naive) = (Welford::new(), Welford::new());
    for seed in 0..trials {
        best.push(ba(instance(seed), n).ratio());
        naive.push(ratio_of(&ba_naive_split(instance(seed), n), n));
    }

    let mut lemma4_worst = 0.0f64;
    for i in 1..100 {
        let frac = i as f64 / 200.0;
        for m in 2..=64usize {
            let (n1, n2) = split_processors(frac, 1.0 - frac, m);
            lemma4_worst = lemma4_worst.max(split_load(frac, n1, n2) * (m - 1) as f64);
        }
    }
    let naive1 = naive_split(0.24, 10);
    let naive_at_024 = split_load(0.24, naive1, 10 - naive1);

    let (mut heaviest, mut random) = (Welford::new(), Welford::new());
    for seed in 0..trials {
        heaviest.push(hf(instance(seed), n).ratio());
        random.push(ratio_of(&random_first(instance(seed), n, seed ^ 0xABCD), n));
    }

    let mut batched = Welford::new();
    for seed in 0..trials.min(20) {
        batched.push(batched_rounds(instance(seed), n, cfg.lo) as f64);
    }

    let (mut hf_aware, mut hf_blind) = (Welford::new(), Welford::new());
    let (mut ba_aware, mut ba_blind) = (Welford::new(), Welford::new());
    for seed in 0..trials {
        let p = instance(seed ^ 0x51D);
        hf_aware.push(hf(p, n).ratio());
        hf_blind.push(blind_hf(p, n).ratio());
        ba_aware.push(ba(p, n).ratio());
        ba_blind.push(blind_ba(p, n).ratio());
    }

    let managers = [8, log_n].map(|k| compare_managers(instance(7), 1 << k, cfg.lo, 42));

    AblationStudy {
        cfg: *cfg,
        log_n,
        split: (best.mean(), naive.mean()),
        ba_max_ratio: best.max(),
        lemma4_worst,
        naive_at_024,
        order: (heaviest.mean(), random.mean()),
        window: (batched.mean(), (n - 1) as f64),
        hf_blind: (hf_aware.mean(), hf_blind.mean()),
        ba_blind: (ba_aware.mean(), ba_blind.mean()),
        managers,
    }
}

/// Renders the study, one line per ablation.
pub fn render(s: &AblationStudy) -> String {
    let [small, large] = s.managers;
    format!(
        "Ablations — what each design choice buys (N = 2^{k}, alpha-hat ~ U[{}, {}], {} instances)

BA split rule     : best-approximation avg ratio {:.3} vs naive-round {:.3}
Lemma 4           : best-approximation max(w1/N1, w2/N2)·(N−1)/w ≤ {:.3} over alpha-hat ≤ 0.495, N ≤ 64; \
naive-round at alpha-hat 0.24, N 10: {:.3} vs 1/9 = {:.3}
HF order          : heaviest-first avg ratio {:.3} vs random-piece {:.3}
PHF batch window  : batched rounds are {:.2}% of max-only rounds (N−1) at N=2^{k}
weight knowledge  : HF {:.3} vs blind-BFS {:.3}; BA {:.3} vs blind-halves {:.3}
free-proc manager : N=2^8: ranges {} | random probing {} | central directory {}
free-proc manager : N=2^{k}: ranges {} | random probing {} | central directory {}
",
        s.cfg.lo,
        s.cfg.hi,
        s.cfg.trials,
        s.split.0,
        s.split.1,
        s.lemma4_worst,
        s.naive_at_024,
        1.0 / 9.0,
        s.order.0,
        s.order.1,
        100.0 * s.window.0 / s.window.1,
        s.hf_blind.0,
        s.hf_blind.1,
        s.ba_blind.0,
        s.ba_blind.1,
        small.ranges,
        small.probing,
        small.central,
        large.ranges,
        large.probing,
        large.central,
        k = s.log_n,
    )
}

/// CSV form: one `(ablation, paper, ablated)` row per contrast; the
/// managers' rows set ranges against probing and central.
pub fn to_csv(s: &AblationStudy) -> String {
    let header = ["ablation", "paper", "ablated"];
    let [small, large] = s.managers;
    let rows: Vec<Vec<String>> = [
        ("split_rule".to_string(), s.split),
        ("hf_order".to_string(), s.order),
        ("phf_window_rounds".to_string(), s.window),
        ("hf_weight_knowledge".to_string(), s.hf_blind),
        ("ba_weight_knowledge".to_string(), s.ba_blind),
        (
            "managers_probing_2^8".to_string(),
            (small.ranges as f64, small.probing as f64),
        ),
        (
            "managers_central_2^8".to_string(),
            (small.ranges as f64, small.central as f64),
        ),
        (
            format!("managers_probing_2^{}", s.log_n),
            (large.ranges as f64, large.probing as f64),
        ),
        (
            format!("managers_central_2^{}", s.log_n),
            (large.ranges as f64, large.central as f64),
        ),
    ]
    .into_iter()
    .map(|(name, (paper, ablated))| vec![name, paper.to_string(), ablated.to_string()])
    .collect();
    render_csv(&header, &rows)
}

/// Checks each ablation's qualitative finding; returns violations.
pub fn check_claims(s: &AblationStudy) -> Vec<String> {
    let n = 1usize << s.log_n;
    let bound = ba_upper_bound(s.cfg.lo, n);
    // Each window round shrinks the maximum by (1−α) and the maximum
    // stays above w/N until the last round, so no instance needs more
    // than 1 + ln N / ln(1/(1−α)) rounds.
    let rounds_bound = 1.0 + (n as f64).ln() / (1.0 / (1.0 - s.cfg.lo)).ln();
    let [small, large] = s.managers;
    let mut bad = Vec::new();
    let mut claim = |held: bool, what: &str| {
        if !held {
            bad.push(format!("does not hold: {what}"));
        }
    };
    claim(
        s.lemma4_worst <= 1.0 + 1e-12,
        "BA's split rule satisfies Lemma 4",
    );
    claim(
        s.naive_at_024 > 1.0 / 9.0,
        "naive rounding breaks Lemma 4 at alpha-hat 0.24, N 10",
    );
    claim(
        s.ba_max_ratio <= bound + 1e-9,
        "BA stays within its Theorem-7 bound",
    );
    claim(
        s.split.1 < s.split.0,
        "naive rounding averages below best-approximation",
    );
    claim(
        s.order.1 >= 10.0 * s.order.0,
        "a random piece order is 10x worse than heaviest-first",
    );
    claim(
        s.window.0 <= rounds_bound,
        "PHF's window needs at most 1 + ln N / ln(1/(1-alpha)) rounds",
    );
    claim(
        s.hf_blind.1 >= 5.0 * s.hf_blind.0,
        "weight information pays HF 5x",
    );
    claim(
        s.ba_blind.1 >= 5.0 * s.ba_blind.0,
        "weight information pays BA 5x",
    );
    claim(
        large.ranges <= large.probing,
        "ranges cost no more than random probing",
    );
    claim(
        large.probing < large.central,
        "random probing beats the central directory",
    );
    claim(
        large.central - large.ranges > small.central - small.ranges,
        "the central directory's gap grows with N",
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> AblationStudy {
        ablation_study(&StudyConfig::fig5().with_trials(12), 10)
    }

    #[test]
    fn claims_hold_at_small_scale() {
        let violations = check_claims(&study());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn render_and_csv_name_every_ablation() {
        let s = study();
        let txt = render(&s);
        for key in [
            "split rule",
            "Lemma 4",
            "HF order",
            "window",
            "weight",
            "N=2^8",
            "N=2^10",
        ] {
            assert!(txt.contains(key), "missing {key}");
        }
        assert_eq!(to_csv(&s).lines().count(), 1 + 9);
    }
}
