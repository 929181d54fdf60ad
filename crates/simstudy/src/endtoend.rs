//! **End-to-end study** (extension E-E2E): balancing overhead *plus*
//! application processing time.
//!
//! The paper's conclusion says the choice of algorithm depends on "the
//! characteristics of the parallel machine architecture as well as the
//! relative importance of fast running-time of the load balancing
//! algorithm and of the quality of the achieved load balance", and that
//! its bounds and simulations "provide helpful guidance for this
//! decision". This module turns that guidance into numbers.
//!
//! Model: after balancing, every processor works on its piece for
//! `weight × grain` time units (`grain` = application work per unit of
//! problem weight, in machine time units), so
//!
//! ```text
//! T_total(alg) = makespan(balancing on the simulated machine)
//!              + max_piece_weight · grain
//! T_seq        = w(p) · grain                  (no balancing, 1 processor)
//! speedup      = T_seq / T_total
//! ```
//!
//! Fine-grained problems (small `grain`) favour BA — balancing cost
//! dominates and BA's cascade is the cheapest; coarse-grained problems
//! favour PHF — the max piece dominates and PHF delivers HF's (optimal)
//! quality. The **crossover grain** where PHF overtakes BA is the
//! decision boundary the paper alludes to.

use gb_parlb::ba_machine::ba_on_machine;
use gb_parlb::bahf_machine::{ba_hf_on_machine, TailAlgorithm};
use gb_parlb::phf::phf;
use gb_pram::machine::Machine;
use gb_problems::synthetic::SyntheticProblem;

use crate::config::StudyConfig;
use crate::report::{render_csv, render_table};

/// Balancing cost and quality of one algorithm on one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoProfile {
    /// Balancing makespan in machine time units.
    pub balance_time: u64,
    /// Weight of the heaviest piece (total weight is 1).
    pub max_piece: f64,
}

impl AlgoProfile {
    /// Total end-to-end time at the given grain.
    pub fn total(&self, grain: f64) -> f64 {
        self.balance_time as f64 + self.max_piece * grain
    }

    /// Speedup over one processor working through the whole weight.
    pub fn speedup(&self, grain: f64) -> f64 {
        grain / self.total(grain)
    }
}

/// End-to-end profiles of the three parallel algorithms at one size
/// (averaged over `cfg.trials_for(n).min(32)` instances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Problem size (processor count).
    pub n: usize,
    /// PHF (= HF quality at parallel cost).
    pub phf: AlgoProfile,
    /// BA.
    pub ba: AlgoProfile,
    /// BA-HF (sequential-HF tail).
    pub bahf: AlgoProfile,
}

/// Measures the averaged balancing profiles at size `n`.
pub fn profiles(cfg: &StudyConfig, n: usize) -> EndToEnd {
    let alpha = cfg.lo;
    let trials = cfg.trials_for(n).min(32);
    let mut acc = [(0u64, 0.0f64); 3];
    for trial in 0..trials {
        let p = SyntheticProblem::new(1.0, cfg.lo, cfg.hi, cfg.trial_seed(n, trial));

        let mut m = Machine::with_paper_costs(n);
        let (part, _) = phf(&mut m, p, n, alpha);
        acc[0].0 += m.makespan();
        acc[0].1 += part.max_weight();

        let mut m = Machine::with_paper_costs(n);
        let part = ba_on_machine(&mut m, p, n);
        acc[1].0 += m.makespan();
        acc[1].1 += part.max_weight();

        let mut m = Machine::with_paper_costs(n);
        let part = ba_hf_on_machine(&mut m, p, n, alpha, cfg.theta, TailAlgorithm::SequentialHf);
        acc[2].0 += m.makespan();
        acc[2].1 += part.max_weight();
    }
    let t = trials as u64;
    let tf = trials as f64;
    let mk = |(time, piece): (u64, f64)| AlgoProfile {
        balance_time: time / t,
        max_piece: piece / tf,
    };
    EndToEnd {
        n,
        phf: mk(acc[0]),
        ba: mk(acc[1]),
        bahf: mk(acc[2]),
    }
}

/// The grain above which PHF's end-to-end time beats BA's, if any:
/// `T_phf(g) < T_ba(g) ⟺ g > Δtime / Δpiece` (when PHF's piece is
/// smaller). Returns `None` if PHF never overtakes.
pub fn crossover_grain(e: &EndToEnd) -> Option<f64> {
    let dt = e.phf.balance_time as f64 - e.ba.balance_time as f64;
    let dp = e.ba.max_piece - e.phf.max_piece;
    if dp <= 0.0 {
        return None;
    }
    Some((dt / dp).max(0.0))
}

/// One rendered study: per grain, total times and speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndStudy {
    /// Configuration used.
    pub cfg: StudyConfig,
    /// The measured profiles.
    pub profiles: EndToEnd,
    /// The grains swept.
    pub grains: Vec<f64>,
}

/// Runs the study at size `n` over the given grains.
pub fn end_to_end_study(cfg: &StudyConfig, n: usize, grains: &[f64]) -> EndToEndStudy {
    EndToEndStudy {
        cfg: *cfg,
        profiles: profiles(cfg, n),
        grains: grains.to_vec(),
    }
}

/// Renders the study.
pub fn render(study: &EndToEndStudy) -> String {
    let e = &study.profiles;
    let mut out = format!(
        "End-to-end study — N = {}, alpha ~ U[{}, {}], theta = {}\n\
         balancing: PHF {} units (max piece {:.5}), BA {} units ({:.5}), \
         BA-HF {} units ({:.5})\n",
        e.n,
        study.cfg.lo,
        study.cfg.hi,
        study.cfg.theta,
        e.phf.balance_time,
        e.phf.max_piece,
        e.ba.balance_time,
        e.ba.max_piece,
        e.bahf.balance_time,
        e.bahf.max_piece,
    );
    match crossover_grain(e) {
        Some(g) => out.push_str(&format!(
            "PHF overtakes BA end-to-end at grain ≈ {g:.0} time units per unit weight\n\n"
        )),
        None => out.push_str("PHF never overtakes BA in this configuration\n\n"),
    }
    let header = [
        "grain", "T(PHF)", "T(BA)", "T(BA-HF)", "S(PHF)", "S(BA)", "S(BA-HF)", "winner",
    ];
    let rows: Vec<Vec<String>> = study
        .grains
        .iter()
        .map(|&g| {
            let (tp, tb, th) = (e.phf.total(g), e.ba.total(g), e.bahf.total(g));
            let winner = if tp <= tb && tp <= th {
                "PHF"
            } else if tb <= tp && tb <= th {
                "BA"
            } else {
                "BA-HF"
            };
            vec![
                format!("{g:.0}"),
                format!("{tp:.0}"),
                format!("{tb:.0}"),
                format!("{th:.0}"),
                format!("{:.1}", e.phf.speedup(g)),
                format!("{:.1}", e.ba.speedup(g)),
                format!("{:.1}", e.bahf.speedup(g)),
                winner.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&header, &rows));
    out
}

/// CSV form.
pub fn to_csv(study: &EndToEndStudy) -> String {
    let e = &study.profiles;
    let header = [
        "grain", "t_phf", "t_ba", "t_bahf", "s_phf", "s_ba", "s_bahf",
    ];
    let rows: Vec<Vec<String>> = study
        .grains
        .iter()
        .map(|&g| {
            vec![
                format!("{g}"),
                format!("{}", e.phf.total(g)),
                format!("{}", e.ba.total(g)),
                format!("{}", e.bahf.total(g)),
                format!("{}", e.phf.speedup(g)),
                format!("{}", e.ba.speedup(g)),
                format!("{}", e.bahf.speedup(g)),
            ]
        })
        .collect();
    render_csv(&header, &rows)
}

/// Verifies the expected regime structure; returns violations.
pub fn check_claims(study: &EndToEndStudy) -> Vec<String> {
    let mut bad = Vec::new();
    let e = &study.profiles;
    let n = e.n as f64;
    // BA balances fastest, PHF slowest; PHF's pieces are the smallest.
    if !(e.ba.balance_time <= e.bahf.balance_time && e.bahf.balance_time <= e.phf.balance_time) {
        bad.push(format!(
            "balancing-time order violated: ba {} / bahf {} / phf {}",
            e.ba.balance_time, e.bahf.balance_time, e.phf.balance_time
        ));
    }
    if !(e.phf.max_piece <= e.bahf.max_piece + 1e-12 && e.bahf.max_piece <= e.ba.max_piece + 1e-12)
    {
        bad.push(format!(
            "quality order violated: phf {} / bahf {} / ba {}",
            e.phf.max_piece, e.bahf.max_piece, e.ba.max_piece
        ));
    }
    // Fine grain ⇒ BA wins; coarse grain ⇒ PHF wins.
    if let (Some(&first), Some(&last)) = (study.grains.first(), study.grains.last()) {
        if e.ba.total(first) > e.phf.total(first) {
            bad.push(format!("BA should win at fine grain {first}"));
        }
        if let Some(g) = crossover_grain(e) {
            if last > g && e.phf.total(last) > e.ba.total(last) {
                bad.push(format!("PHF should win at coarse grain {last}"));
            }
        } else {
            bad.push("no PHF/BA crossover found".to_string());
        }
    }
    // Speedups are bounded by N and grow with the grain.
    for (name, prof) in [("PHF", e.phf), ("BA", e.ba), ("BA-HF", e.bahf)] {
        let mut prev = 0.0;
        for &g in &study.grains {
            let s = prof.speedup(g);
            if s > n + 1e-9 {
                bad.push(format!("{name}: speedup {s} exceeds N at grain {g}"));
            }
            if s + 1e-12 < prev {
                bad.push(format!("{name}: speedup not monotone at grain {g}"));
            }
            prev = s;
        }
    }
    bad
}

/// A default log-spaced grain sweep.
pub fn default_grains() -> Vec<f64> {
    (0..=7).map(|k| 10f64.powi(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> EndToEndStudy {
        let cfg = StudyConfig::fig5().with_trials(8);
        end_to_end_study(&cfg, 1 << 10, &default_grains())
    }

    #[test]
    fn regimes_and_crossover_exist() {
        let s = study();
        let violations = check_claims(&s);
        assert!(violations.is_empty(), "{violations:?}");
        let g = crossover_grain(&s.profiles).expect("crossover");
        assert!(g > 0.0 && g.is_finite());
    }

    #[test]
    fn totals_decompose() {
        let s = study();
        let e = &s.profiles;
        let g = 1234.5;
        assert!((e.ba.total(g) - (e.ba.balance_time as f64 + e.ba.max_piece * g)).abs() < 1e-9);
    }

    #[test]
    fn render_names_a_winner_per_row() {
        let s = study();
        let txt = render(&s);
        let data_rows = s.grains.len();
        let winners = txt.matches("PHF").count() + txt.matches("BA").count();
        assert!(winners >= data_rows, "every row names a winner");
        assert!(txt.contains("overtakes BA"));
    }

    #[test]
    fn csv_row_per_grain() {
        let s = study();
        assert_eq!(to_csv(&s).lines().count(), 1 + s.grains.len());
    }
}
