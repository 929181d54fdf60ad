//! **Depth study** (extension E-DEPTH): the bisection-tree depth bounds
//! behind the running-time analysis, verified empirically.
//!
//! The `O(log N)` running times of §3 all reduce to depth bounds on the
//! bisection tree:
//!
//! * **BA** (§3.2): "the number of processors is reduced by at least a
//!   factor of `(1 − α/2)` in each bisection step, and thus the depth of
//!   a leaf in the bisection tree can be at most `log_{1/(1−α/2)} N`";
//! * **PHF phase 1** (§3.1): "a node at depth d in the bisection tree has
//!   weight at most `w(p)(1−α)^d`. Therefore, D can be at most
//!   `log_{1/(1−α)} N`" (for the over-threshold cascade; we check the
//!   weight-implied bound `log_{1/(1−α)}(N·r_α)` for the full HF tree).
//!
//! This study runs traced algorithms over the stochastic model and
//! reports max/min leaf depths against those analytic bounds.

use gb_core::ba::ba_traced;
use gb_core::bahf::ba_hf_traced;
use gb_core::bounds::r_hf;
use gb_core::hf::hf_traced;
use gb_problems::synthetic::SyntheticProblem;

use crate::config::StudyConfig;
use crate::report::{render_csv, render_table};

/// Depth measurements at one size for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthRow {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// `log₂ N`.
    pub log_n: u32,
    /// Deepest leaf over the measured instances.
    pub max_depth: u32,
    /// Shallowest leaf over the measured instances.
    pub min_depth: u32,
    /// The analytic depth bound (see module docs).
    pub bound: f64,
}

/// The whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthStudy {
    /// Configuration used.
    pub cfg: StudyConfig,
    /// One row per (algorithm, size).
    pub rows: Vec<DepthRow>,
}

/// BA's §3.2 depth bound `log_{1/(1−α/2)} N`.
pub fn ba_depth_bound(alpha: f64, n: usize) -> f64 {
    (n as f64).ln() / (1.0 / (1.0 - alpha / 2.0)).ln()
}

/// The weight-implied depth bound for HF: a leaf at depth `d` has weight
/// `≤ (1−α)^d·w`, and HF's lightest possible piece is `≥ α·w(p)·r_α/N /
/// …` — conservatively, every HF leaf weighs at least `α/N · w(p)/r_α`
/// over the *bisected* region, giving `d ≤ log_{1/(1−α)}(N·r_α/α)`.
pub fn hf_depth_bound(alpha: f64, n: usize) -> f64 {
    ((n as f64) * r_hf(alpha) / alpha).ln() / (1.0 / (1.0 - alpha)).ln()
}

/// Measures depths over `trials` instances at each size.
pub fn depth_study(cfg: &StudyConfig, logs: &[u32]) -> DepthStudy {
    let alpha = cfg.lo;
    let trials = 8.min(cfg.trials).max(1);
    let mut rows = Vec::new();
    for &k in logs {
        let n = 1usize << k;
        let mut acc = [(0u32, u32::MAX); 3]; // (max, min) per algorithm
        for t in 0..trials {
            let p = SyntheticProblem::new(1.0, cfg.lo, cfg.hi, cfg.trial_seed(n, t));
            let trees = [
                hf_traced(p, n).1,
                ba_traced(p, n).1,
                ba_hf_traced(p, n, alpha, cfg.theta).1,
            ];
            for (slot, tree) in acc.iter_mut().zip(&trees) {
                slot.0 = slot.0.max(tree.max_leaf_depth());
                slot.1 = slot.1.min(tree.min_leaf_depth());
            }
        }
        let names = ["HF", "BA", "BA-HF"];
        let bounds = [
            hf_depth_bound(alpha, n),
            ba_depth_bound(alpha, n),
            // BA-HF: BA phase depth + an HF tail over ≤ θ/α + 1
            // processors, which is itself depth-bounded like HF at that
            // width.
            ba_depth_bound(alpha, n)
                + hf_depth_bound(alpha, (cfg.theta / alpha + 1.0) as usize + 1),
        ];
        for i in 0..3 {
            rows.push(DepthRow {
                algorithm: names[i],
                log_n: k,
                max_depth: acc[i].0,
                min_depth: acc[i].1,
                bound: bounds[i],
            });
        }
    }
    DepthStudy { cfg: *cfg, rows }
}

/// Renders the study.
pub fn render(study: &DepthStudy) -> String {
    let header = ["algorithm", "N", "min depth", "max depth", "analytic bound"];
    let rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.to_string(),
                format!("2^{}", r.log_n),
                r.min_depth.to_string(),
                r.max_depth.to_string(),
                format!("{:.1}", r.bound),
            ]
        })
        .collect();
    format!(
        "Depth study — bisection-tree leaf depths vs the analytic bounds \
         (alpha = {}, alpha-hat ~ U[{}, {}])\n\n{}",
        study.cfg.lo,
        study.cfg.lo,
        study.cfg.hi,
        render_table(&header, &rows)
    )
}

/// CSV form.
pub fn to_csv(study: &DepthStudy) -> String {
    let header = ["algorithm", "log_n", "min_depth", "max_depth", "bound"];
    let rows = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.to_string(),
                r.log_n.to_string(),
                r.min_depth.to_string(),
                r.max_depth.to_string(),
                format!("{}", r.bound),
            ]
        })
        .collect::<Vec<_>>();
    render_csv(&header, &rows)
}

/// Checks the analytic depth bounds; returns violations.
pub fn check_claims(study: &DepthStudy) -> Vec<String> {
    let mut bad = Vec::new();
    for r in &study.rows {
        if (r.max_depth as f64) > r.bound + 1e-9 {
            bad.push(format!(
                "{} at 2^{}: depth {} exceeds bound {:.1}",
                r.algorithm, r.log_n, r.max_depth, r.bound
            ));
        }
        if r.min_depth > r.max_depth {
            bad.push(format!(
                "{} at 2^{}: empty measurement",
                r.algorithm, r.log_n
            ));
        }
        // Depth is at least log2 N (a binary tree with N leaves).
        if (r.max_depth as f64) < r.log_n as f64 {
            bad.push(format!(
                "{} at 2^{}: max depth {} below log2 N",
                r.algorithm, r.log_n, r.max_depth
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> DepthStudy {
        depth_study(&StudyConfig::fig5().with_trials(4), &[5, 8, 11])
    }

    #[test]
    fn depth_bounds_hold() {
        let violations = check_claims(&study());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ba_is_shallower_than_hf() {
        // BA's proportional splitting keeps the tree shallow; HF's tree
        // may run deeper (its depth bound is weight- not processor-driven).
        let s = study();
        let get = |alg: &str, k: u32| {
            s.rows
                .iter()
                .find(|r| r.algorithm == alg && r.log_n == k)
                .unwrap()
                .max_depth
        };
        assert!(get("BA", 11) <= get("HF", 11) + 2);
    }

    #[test]
    fn bounds_grow_logarithmically() {
        assert!(ba_depth_bound(0.3, 1 << 20) < 100.0);
        assert!(ba_depth_bound(0.3, 1 << 10) * 1.9 < ba_depth_bound(0.3, 1 << 20) * 1.1);
        assert!(hf_depth_bound(0.1, 1 << 10) > 0.0);
    }

    #[test]
    fn render_lists_each_algorithm_per_size() {
        let txt = render(&study());
        assert_eq!(txt.matches("2^8").count(), 3);
    }
}
