//! The **variance remarks** of §4.
//!
//! "It is remarkable that the sample variance was very small in all cases
//! except if an interval `[l, 2l]` with very small l was chosen. Even more
//! astonishingly, the outcome of each individual simulation was fairly
//! close to the sample mean of all 1000 experiments. Especially for
//! Algorithm HF the observed ratios were sharply concentrated around the
//! sample mean for larger values of N."
//!
//! [`variance_study`] computes per-interval, per-algorithm summaries at a
//! fixed size so these observations can be verified side by side: wide
//! intervals and large-l narrow intervals show tiny variance; `[l, 2l]`
//! with small `l` stands out.

use gb_core::stats::Summary;

use crate::config::{Algorithm, StudyConfig};
use crate::report::{render_csv, render_table};
use crate::run::ratio_summary;

/// Result of one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalResult {
    /// The `α̂` interval.
    pub interval: (f64, f64),
    /// Per-algorithm summaries in `Algorithm::ALL` order.
    pub summaries: [Summary; 3],
}

/// The whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceStudy {
    /// Base configuration (interval overridden per row).
    pub cfg: StudyConfig,
    /// The size `N` used.
    pub n: usize,
    /// One row per interval.
    pub rows: Vec<IntervalResult>,
}

/// The paper's implied interval set: a very small `[l, 2l]`, a moderate
/// `[l, 2l]`, and two wide intervals (including Table 1's and Figure 5's).
pub fn default_intervals() -> Vec<(f64, f64)> {
    vec![
        (0.01, 0.02),
        (0.05, 0.1),
        (0.2, 0.4),
        (0.01, 0.5),
        (0.1, 0.5),
    ]
}

/// Runs the study at size `n` over the given intervals.
pub fn variance_study(
    cfg: &StudyConfig,
    intervals: &[(f64, f64)],
    n: usize,
    threads: usize,
) -> VarianceStudy {
    let rows = intervals
        .iter()
        .map(|&(lo, hi)| {
            let c = cfg.with_interval(lo, hi);
            IntervalResult {
                interval: (lo, hi),
                summaries: Algorithm::ALL.map(|alg| ratio_summary(alg, &c, n, threads)),
            }
        })
        .collect();
    VarianceStudy { cfg: *cfg, n, rows }
}

/// Renders the study.
pub fn render(study: &VarianceStudy) -> String {
    let header = [
        "interval",
        "algorithm",
        "mean",
        "std",
        "rel-std",
        "min",
        "max",
    ];
    let mut rows = Vec::new();
    for row in &study.rows {
        for (alg, s) in Algorithm::ALL.iter().zip(&row.summaries) {
            rows.push(vec![
                format!("[{}, {}]", row.interval.0, row.interval.1),
                alg.name().to_string(),
                format!("{:.3}", s.mean),
                format!("{:.4}", s.std_dev()),
                format!("{:.2}%", 100.0 * s.std_dev() / s.mean),
                format!("{:.3}", s.min),
                format!("{:.3}", s.max),
            ]);
        }
    }
    format!(
        "Variance study — N = {}, {} trials\n\n{}",
        study.n,
        study.cfg.trials_for(study.n),
        render_table(&header, &rows)
    )
}

/// CSV form.
pub fn to_csv(study: &VarianceStudy) -> String {
    let header = ["lo", "hi", "algorithm", "mean", "var", "min", "max"];
    let mut rows = Vec::new();
    for row in &study.rows {
        for (alg, s) in Algorithm::ALL.iter().zip(&row.summaries) {
            rows.push(vec![
                format!("{}", row.interval.0),
                format!("{}", row.interval.1),
                alg.name().to_string(),
                format!("{}", s.mean),
                format!("{}", s.variance),
                format!("{}", s.min),
                format!("{}", s.max),
            ]);
        }
    }
    render_csv(&header, &rows)
}

/// Verifies the paper's qualitative observations; returns violations.
///
/// * wide intervals (`hi − lo ≥ 0.1`): relative standard deviation of
///   every algorithm below 20%;
/// * individual outcomes close to the mean: `max ≤ 2 × mean`;
/// * HF sharply concentrated: relative std below 10% on wide intervals.
pub fn check_claims(study: &VarianceStudy) -> Vec<String> {
    let mut bad = Vec::new();
    for row in &study.rows {
        let wide = row.interval.1 - row.interval.0 >= 0.1;
        for (alg, s) in Algorithm::ALL.iter().zip(&row.summaries) {
            let rel = s.std_dev() / s.mean;
            if wide && rel > 0.20 {
                bad.push(format!(
                    "{:?} {}: rel std {:.1}% too large for a wide interval",
                    row.interval,
                    alg.name(),
                    100.0 * rel
                ));
            }
            if wide && s.max > 2.0 * s.mean {
                bad.push(format!(
                    "{:?} {}: max {} far from mean {}",
                    row.interval,
                    alg.name(),
                    s.max,
                    s.mean
                ));
            }
        }
        let hf = &row.summaries[2];
        if wide && hf.std_dev() / hf.mean > 0.10 {
            bad.push(format!(
                "{:?}: HF not sharply concentrated (rel std {:.1}%)",
                row.interval,
                100.0 * hf.std_dev() / hf.mean
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> VarianceStudy {
        let cfg = StudyConfig::table1().with_trials(80);
        variance_study(&cfg, &[(0.01, 0.02), (0.1, 0.5)], 512, 2)
    }

    #[test]
    fn rows_cover_intervals() {
        let s = small_study();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].interval, (0.01, 0.02));
    }

    #[test]
    fn wide_interval_claims_hold() {
        let s = small_study();
        let violations = check_claims(&s);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn narrow_small_interval_has_larger_relative_spread_for_hf() {
        // The paper's [l, 2l]-with-small-l anomaly: compare HF's relative
        // std between U[0.01, 0.02] and U[0.1, 0.5].
        let s = small_study();
        let narrow_hf = &s.rows[0].summaries[2];
        let wide_hf = &s.rows[1].summaries[2];
        let rel_narrow = narrow_hf.std_dev() / narrow_hf.mean;
        let rel_wide = wide_hf.std_dev() / wide_hf.mean;
        assert!(
            rel_narrow > rel_wide,
            "expected anomaly: narrow {rel_narrow} vs wide {rel_wide}"
        );
    }

    #[test]
    fn render_lists_every_interval_once_per_algorithm() {
        let s = small_study();
        let txt = render(&s);
        assert_eq!(txt.matches("[0.01, 0.02]").count(), 3);
        assert_eq!(txt.matches("[0.1, 0.5]").count(), 3);
    }
}
