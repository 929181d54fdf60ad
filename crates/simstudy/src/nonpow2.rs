//! **Non-power-of-two N** (§4, prose).
//!
//! "We chose the number of processors as consecutive powers of 2 to
//! explore the asymptotic behavior of our load balancing algorithms
//! (experiments with values of N that were not powers of 2 gave very
//! similar results)."
//!
//! [`nonpow2_study`] compares each non-power-of-two size against its
//! neighbouring powers of two, per algorithm.

use crate::config::{Algorithm, StudyConfig};
use crate::report::{render_csv, render_table};
use crate::run::ratio_summary;

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The non-power-of-two size.
    pub n: usize,
    /// The bracketing powers of two.
    pub neighbours: (usize, usize),
    /// Average ratios `(at n, at lower pow2, at upper pow2)` per algorithm
    /// in `Algorithm::ALL` order.
    pub avgs: [(f64, f64, f64); 3],
}

/// The study: one comparison per requested size.
#[derive(Debug, Clone, PartialEq)]
pub struct NonPow2Study {
    /// Configuration used.
    pub cfg: StudyConfig,
    /// Comparisons.
    pub rows: Vec<Comparison>,
}

fn bracketing_powers(n: usize) -> (usize, usize) {
    assert!(n >= 2);
    let hi = n.next_power_of_two();
    let lo = if hi == n { hi } else { hi / 2 };
    (lo, hi)
}

/// Runs the study for the given (typically non-power-of-two) sizes.
pub fn nonpow2_study(cfg: &StudyConfig, sizes: &[usize], threads: usize) -> NonPow2Study {
    let rows = sizes
        .iter()
        .map(|&n| {
            let (lo, hi) = bracketing_powers(n);
            let avgs = Algorithm::ALL.map(|alg| {
                (
                    ratio_summary(alg, cfg, n, threads).mean,
                    ratio_summary(alg, cfg, lo, threads).mean,
                    ratio_summary(alg, cfg, hi, threads).mean,
                )
            });
            Comparison {
                n,
                neighbours: (lo, hi),
                avgs,
            }
        })
        .collect();
    NonPow2Study { cfg: *cfg, rows }
}

/// Renders the study.
pub fn render(study: &NonPow2Study) -> String {
    let header = ["N", "algorithm", "avg(N)", "avg(lo pow2)", "avg(hi pow2)"];
    let mut rows = Vec::new();
    for row in &study.rows {
        for (alg, &(at, lo, hi)) in Algorithm::ALL.iter().zip(&row.avgs) {
            rows.push(vec![
                format!("{} ({}..{})", row.n, row.neighbours.0, row.neighbours.1),
                alg.name().to_string(),
                format!("{at:.3}"),
                format!("{lo:.3}"),
                format!("{hi:.3}"),
            ]);
        }
    }
    format!(
        "Non-power-of-two study — alpha ~ U[{}, {}]\n\n{}",
        study.cfg.lo,
        study.cfg.hi,
        render_table(&header, &rows)
    )
}

/// CSV form.
pub fn to_csv(study: &NonPow2Study) -> String {
    let header = ["n", "algorithm", "avg", "avg_lo_pow2", "avg_hi_pow2"];
    let mut rows = Vec::new();
    for row in &study.rows {
        for (alg, &(at, lo, hi)) in Algorithm::ALL.iter().zip(&row.avgs) {
            rows.push(vec![
                row.n.to_string(),
                alg.name().to_string(),
                format!("{at}"),
                format!("{lo}"),
                format!("{hi}"),
            ]);
        }
    }
    render_csv(&header, &rows)
}

/// Verifies "very similar results": each non-power-of-two average lies
/// within 20% of the bracketing powers' range (extended by 20% slack).
pub fn check_claims(study: &NonPow2Study) -> Vec<String> {
    let mut bad = Vec::new();
    for row in &study.rows {
        for (alg, &(at, lo, hi)) in Algorithm::ALL.iter().zip(&row.avgs) {
            let band_lo = lo.min(hi) * 0.8;
            let band_hi = lo.max(hi) * 1.2;
            if at < band_lo || at > band_hi {
                bad.push(format!(
                    "N={} {}: avg {at:.3} outside [{band_lo:.3}, {band_hi:.3}]",
                    row.n,
                    alg.name()
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_are_correct() {
        assert_eq!(bracketing_powers(1000), (512, 1024));
        assert_eq!(bracketing_powers(1024), (1024, 1024));
        assert_eq!(bracketing_powers(33), (32, 64));
    }

    #[test]
    fn nonpow2_results_similar_to_neighbours() {
        let cfg = StudyConfig::fig5().with_trials(60);
        let study = nonpow2_study(&cfg, &[100, 1000], 2);
        assert_eq!(study.rows.len(), 2);
        let violations = check_claims(&study);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn render_includes_each_size() {
        let cfg = StudyConfig::fig5().with_trials(30);
        let study = nonpow2_study(&cfg, &[48], 2);
        let txt = render(&study);
        assert!(txt.contains("48 (32..64)"));
    }
}
