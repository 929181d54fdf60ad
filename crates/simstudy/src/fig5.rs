//! **Figure 5**: average ratio vs `log₂ N` for `α̂ ~ U[0.1, 0.5]`, θ = 1.
//!
//! The figure plots three curves (BA on top, BA-HF in the middle, HF at
//! the bottom) over `N = 2^5 … 2^20`; the paper highlights that HF's
//! average ratio "was observed to be almost constant for the whole range"
//! of sizes. [`check_claims`] verifies both observations on the computed
//! series.

use crate::config::{Algorithm, StudyConfig};
use crate::report::{ascii_chart, render_csv};
use crate::run::ratio_summary;

/// One point of one curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// `log₂ N`.
    pub log_n: u32,
    /// Average observed ratio.
    pub avg: f64,
}

/// The three curves of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// The configuration that produced the series.
    pub cfg: StudyConfig,
    /// Curves in `Algorithm::ALL` order (BA, BA-HF, HF).
    pub series: [Vec<Point>; 3],
}

/// Computes the Figure 5 series for `k ∈ logs`.
pub fn fig5(
    cfg: &StudyConfig,
    logs: impl IntoIterator<Item = u32> + Clone,
    threads: usize,
) -> Fig5 {
    let series = Algorithm::ALL.map(|alg| {
        logs.clone()
            .into_iter()
            .map(|log_n| Point {
                log_n,
                avg: ratio_summary(alg, cfg, 1usize << log_n, threads).mean,
            })
            .collect()
    });
    Fig5 { cfg: *cfg, series }
}

/// Renders the series as an ASCII chart plus a data table.
pub fn render(f: &Fig5) -> String {
    let title = format!(
        "Figure 5 — average ratio, alpha ~ U[{}, {}], theta = {}",
        f.cfg.lo, f.cfg.hi, f.cfg.theta
    );
    let series: Vec<(String, Vec<(String, f64)>)> = Algorithm::ALL
        .iter()
        .zip(&f.series)
        .map(|(alg, pts)| {
            (
                alg.name().to_string(),
                pts.iter()
                    .map(|p| (format!("2^{}", p.log_n), p.avg))
                    .collect(),
            )
        })
        .collect();
    ascii_chart(&title, &series)
}

/// Renders the series as CSV.
pub fn to_csv(f: &Fig5) -> String {
    let header = ["log_n", "n", "BA", "BA-HF", "HF"];
    let mut rows = Vec::new();
    for (i, p) in f.series[0].iter().enumerate() {
        rows.push(vec![
            p.log_n.to_string(),
            (1u64 << p.log_n).to_string(),
            format!("{}", f.series[0][i].avg),
            format!("{}", f.series[1][i].avg),
            format!("{}", f.series[2][i].avg),
        ]);
    }
    render_csv(&header, &rows)
}

/// Renders the figure as a standalone SVG line chart.
pub fn to_svg(f: &Fig5) -> String {
    use crate::plot::{line_chart, ChartSpec, Series};
    let series: Vec<Series> = Algorithm::ALL
        .iter()
        .zip(&f.series)
        .map(|(alg, pts)| Series {
            name: alg.name().to_string(),
            points: pts.iter().map(|p| (p.log_n as f64, p.avg)).collect(),
        })
        .collect();
    let spec = ChartSpec {
        title: format!(
            "Figure 5: average ratio, alpha ~ U[{}, {}], theta = {}",
            f.cfg.lo, f.cfg.hi, f.cfg.theta
        ),
        x_label: "log2 N".to_string(),
        y_label: "avg ratio vs ideal w/N".to_string(),
        ..ChartSpec::default()
    };
    line_chart(&spec, &series)
}

/// Verifies the paper's qualitative claims about the figure; returns the
/// violations (empty = reproduced).
pub fn check_claims(f: &Fig5) -> Vec<String> {
    let mut bad = Vec::new();
    let [ba, bahf, hf] = &f.series;
    for i in 0..hf.len() {
        if !(hf[i].avg <= bahf[i].avg + 1e-9 && bahf[i].avg <= ba[i].avg + 1e-9) {
            bad.push(format!(
                "2^{}: curve ordering violated (hf {} / bahf {} / ba {})",
                hf[i].log_n, hf[i].avg, bahf[i].avg, ba[i].avg
            ));
        }
    }
    // "The average ratio obtained from Algorithm HF was observed to be
    // almost constant for the whole range" — spread within ±10%.
    let hf_min = hf.iter().map(|p| p.avg).fold(f64::INFINITY, f64::min);
    let hf_max = hf.iter().map(|p| p.avg).fold(f64::NEG_INFINITY, f64::max);
    if hf_max > 1.10 * hf_min {
        bad.push(format!(
            "HF average ratio not ~constant: spans [{hf_min}, {hf_max}]"
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fig() -> Fig5 {
        let cfg = StudyConfig::fig5().with_trials(60);
        fig5(&cfg, [5u32, 7, 10], 2)
    }

    #[test]
    fn computes_three_series() {
        let f = small_fig();
        for s in &f.series {
            assert_eq!(s.len(), 3);
            assert!(s.iter().all(|p| p.avg >= 1.0));
        }
    }

    #[test]
    fn claims_hold_on_small_series() {
        let violations = check_claims(&small_fig());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn render_and_csv_contain_all_points() {
        let f = small_fig();
        let chart = render(&f);
        assert!(chart.contains("BA") && chart.contains("HF"));
        let csv = to_csv(&f);
        assert_eq!(csv.lines().count(), 4); // header + 3 sizes
        assert!(csv.contains("2") && csv.contains("1024"));
    }
}
