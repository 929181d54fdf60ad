//! **Problem-class study** (extension E-CLS): the algorithms on the
//! *realistic* problem classes of `gb-problems`, next to the stochastic
//! model.
//!
//! The paper's simulations use the abstract stochastic model only; its
//! applications sections (§1, [1, 4, 12]) promise that FE-trees,
//! quadrature regions and decomposition domains behave like problems with
//! good bisectors. This study closes that loop: for each concrete class
//! it measures the *empirical* bisection quality `α̂` and the achieved
//! ratios of BA / BA-HF / HF, confirming that the abstract predictions
//! (ordering, ratios far below worst case, quality tracking `α̂`) carry
//! over.

use gb_core::ba::ba;
use gb_core::bahf::ba_hf;
use gb_core::hf::hf;
use gb_core::problem::Bisectable;
use gb_problems::empirical_alpha;
use gb_problems::fe_tree::FeTree;
use gb_problems::grid::Grid;
use gb_problems::quadrature::Integrand;
use gb_problems::search_tree::SearchTree;
use gb_problems::synthetic::SyntheticProblem;
use gb_problems::task_list::TaskList;

use crate::config::StudyConfig;
use crate::report::{render_csv, render_table};

/// Results for one problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Human-readable class/instance label.
    pub name: &'static str,
    /// Worst split fraction observed over an HF run (per-instance α̂).
    pub empirical_alpha: f64,
    /// Ratios in the order BA, BA-HF, HF.
    pub ratios: [f64; 3],
}

/// The whole study at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStudy {
    /// The size `N` used.
    pub n: usize,
    /// One row per instance.
    pub rows: Vec<ClassRow>,
}

fn measure<P: Bisectable + Clone>(name: &'static str, p: P, n: usize, theta: f64) -> ClassRow {
    let alpha = empirical_alpha(&p, n).unwrap_or(0.5).clamp(1e-6, 0.5);
    ClassRow {
        name,
        empirical_alpha: alpha,
        ratios: [
            ba(p.clone(), n).ratio(),
            ba_hf(p.clone(), n, alpha, theta).ratio(),
            hf(p, n).ratio(),
        ],
    }
}

/// Runs the study at size `n` with the given seed and θ.
pub fn classes_study(cfg: &StudyConfig, n: usize) -> ClassStudy {
    let seed = cfg.seed;
    let theta = cfg.theta;
    let rows = vec![
        measure(
            "synthetic U[0.1,0.5]",
            SyntheticProblem::new(1.0, 0.1, 0.5, seed),
            n,
            theta,
        ),
        measure(
            "synthetic U[0.01,0.5]",
            SyntheticProblem::new(1.0, 0.01, 0.5, seed ^ 1),
            n,
            theta,
        ),
        measure(
            "fe-tree adaptive",
            FeTree::adaptive(4000, 0.5, seed ^ 2).root_problem(),
            n,
            theta,
        ),
        measure(
            "fe-tree caterpillar",
            FeTree::caterpillar(4000, seed ^ 3).root_problem(),
            n,
            theta,
        ),
        measure(
            "grid uniform 128x128",
            Grid::uniform(128, 128, seed ^ 4).root_problem(),
            n,
            theta,
        ),
        measure(
            "grid 5 hotspots",
            Grid::hotspots(128, 128, 5, seed ^ 5).root_problem(),
            n,
            theta,
        ),
        measure(
            "quadrature gaussian 3d",
            Integrand::gaussian_peak(3, 0.15, seed ^ 6).unit_region(1e-9),
            n,
            theta,
        ),
        measure(
            "quadrature oscillatory 2d",
            Integrand::oscillatory(2, seed ^ 7).unit_region(1e-9),
            n,
            theta,
        ),
        measure(
            "search tree b<=4",
            SearchTree::random(6000, 4, seed ^ 12).root_problem(),
            n,
            theta,
        ),
        measure(
            "search tree b<=8",
            SearchTree::random(6000, 8, seed ^ 13).root_problem(),
            n,
            theta,
        ),
        measure(
            "tasks uniform 100k",
            TaskList::uniform(100_000, seed ^ 8).root_problem(seed ^ 9),
            n,
            theta,
        ),
        measure(
            "tasks heavy-tailed 100k",
            TaskList::heavy_tailed(100_000, seed ^ 10).root_problem(seed ^ 11),
            n,
            theta,
        ),
    ];
    ClassStudy { n, rows }
}

/// Renders the study.
pub fn render(study: &ClassStudy) -> String {
    let header = ["class", "emp. alpha", "BA", "BA-HF", "HF"];
    let rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.4}", r.empirical_alpha),
                format!("{:.3}", r.ratios[0]),
                format!("{:.3}", r.ratios[1]),
                format!("{:.3}", r.ratios[2]),
            ]
        })
        .collect();
    format!(
        "Problem-class study — N = {} (ratio vs ideal w/N; HF = instance optimum)\n\n{}",
        study.n,
        render_table(&header, &rows)
    )
}

/// CSV form.
pub fn to_csv(study: &ClassStudy) -> String {
    let header = ["class", "empirical_alpha", "ba", "bahf", "hf"];
    let rows = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.replace(',', ";"),
                format!("{}", r.empirical_alpha),
                format!("{}", r.ratios[0]),
                format!("{}", r.ratios[1]),
                format!("{}", r.ratios[2]),
            ]
        })
        .collect::<Vec<_>>();
    render_csv(&header, &rows)
}

/// Checks the abstract model's predictions on the concrete classes.
pub fn check_claims(study: &ClassStudy) -> Vec<String> {
    let mut bad = Vec::new();
    for r in &study.rows {
        let [ba, bahf, hf] = r.ratios;
        if !(hf <= bahf + 1e-9 && hf <= ba + 1e-9) {
            bad.push(format!(
                "{}: HF not best (ba {ba} bahf {bahf} hf {hf})",
                r.name
            ));
        }
        if hf < 1.0 - 1e-9 {
            bad.push(format!("{}: ratio below 1", r.name));
        }
        if !(r.empirical_alpha > 0.0 && r.empirical_alpha <= 0.5) {
            bad.push(format!("{}: empirical alpha {}", r.name, r.empirical_alpha));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> ClassStudy {
        classes_study(&StudyConfig::fig5().with_trials(1), 32)
    }

    #[test]
    fn covers_all_classes() {
        let s = study();
        assert_eq!(s.rows.len(), 12);
        assert!(s.rows.iter().any(|r| r.name.contains("fe-tree")));
        assert!(s.rows.iter().any(|r| r.name.contains("quadrature")));
        assert!(s.rows.iter().any(|r| r.name.contains("search tree")));
    }

    #[test]
    fn abstract_predictions_hold_on_concrete_classes() {
        let violations = check_claims(&study());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn render_and_csv_align() {
        let s = study();
        let txt = render(&s);
        assert_eq!(txt.lines().count(), 2 + 2 + s.rows.len());
        let csv = to_csv(&s);
        assert_eq!(csv.lines().count(), 1 + s.rows.len());
    }
}
