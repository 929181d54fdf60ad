//! **Table 1**: worst-case upper bounds and observed minimum / average /
//! maximum ratios for `α̂ ~ U[0.01, 0.5]`, θ = 1.0.
//!
//! The paper tabulates, for each algorithm (BA, BA-HF, HF) and each
//! `N = 2^k`, `k = 5..20`, the analytic worst-case bound ("ub") next to
//! the observed min/avg/max ratio over 1000 trials; the observed values
//! sit far below the bounds, which is the table's point. We reproduce the
//! same blocks, plus the sample variance the paper discusses in prose.

use gb_core::stats::Summary;

use crate::config::{Algorithm, StudyConfig};
use crate::report::{fmt_ratio, render_csv, render_table};
use crate::run::ratio_summary;

/// One algorithm's cell at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Worst-case ratio bound (the "ub" row).
    pub ub: f64,
    /// Observed statistics over the trials.
    pub observed: Summary,
}

/// One column of the table (one problem size).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// `log₂ N`.
    pub log_n: u32,
    /// `N`.
    pub n: usize,
    /// Trials actually run at this size.
    pub trials: usize,
    /// Cells in `Algorithm::ALL` order (BA, BA-HF, HF).
    pub cells: [Cell; 3],
}

/// The whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The configuration that produced it.
    pub cfg: StudyConfig,
    /// Columns in ascending size order.
    pub columns: Vec<Column>,
}

/// Computes Table 1 for `N = 2^k`, `k ∈ logs`, using `threads` workers.
pub fn table1(cfg: &StudyConfig, logs: impl IntoIterator<Item = u32>, threads: usize) -> Table1 {
    let columns = logs
        .into_iter()
        .map(|log_n| {
            let n = 1usize << log_n;
            let cells = Algorithm::ALL.map(|alg| Cell {
                ub: alg.upper_bound(cfg, n),
                observed: ratio_summary(alg, cfg, n, threads),
            });
            Column {
                log_n,
                n,
                trials: cfg.trials_for(n),
                cells,
            }
        })
        .collect();
    Table1 { cfg: *cfg, columns }
}

/// Renders the table in the paper's layout: per algorithm, rows
/// ub / min / avg / max (plus var), one column per `log₂ N`.
pub fn render(t: &Table1) -> String {
    let mut out = format!(
        "Table 1 — alpha ~ U[{}, {}], theta = {}, base trials = {} \
         (thinned for large N; row 'trials')\n\n",
        t.cfg.lo, t.cfg.hi, t.cfg.theta, t.cfg.trials
    );
    let mut header = vec!["".to_string()];
    header.extend(t.columns.iter().map(|c| format!("2^{}", c.log_n)));
    // Trial counts once, at the top.
    let mut trials_row = vec!["trials".to_string()];
    trials_row.extend(t.columns.iter().map(|c| c.trials.to_string()));

    for (ai, alg) in Algorithm::ALL.iter().enumerate() {
        out.push_str(&format!("[{}]\n", alg.name()));
        let mut rows = Vec::new();
        if ai == 0 {
            rows.push(trials_row.clone());
        }
        for (label, get) in [
            ("ub", 0usize),
            ("min", 1),
            ("avg", 2),
            ("max", 3),
            ("var", 4),
        ] {
            let mut row = vec![label.to_string()];
            for col in &t.columns {
                let cell = &col.cells[ai];
                let v = match get {
                    0 => cell.ub,
                    1 => cell.observed.min,
                    2 => cell.observed.mean,
                    3 => cell.observed.max,
                    _ => cell.observed.variance,
                };
                row.push(if get == 4 {
                    format!("{v:.4}")
                } else {
                    fmt_ratio(v)
                });
            }
            rows.push(row);
        }
        out.push_str(&render_table(&header, &rows));
        out.push('\n');
    }
    out
}

/// Renders the table as CSV (one row per algorithm × size).
pub fn to_csv(t: &Table1) -> String {
    let header = [
        "algorithm",
        "log_n",
        "n",
        "trials",
        "ub",
        "min",
        "avg",
        "max",
        "var",
    ];
    let mut rows = Vec::new();
    for col in &t.columns {
        for (ai, alg) in Algorithm::ALL.iter().enumerate() {
            let cell = &col.cells[ai];
            rows.push(vec![
                alg.name().to_string(),
                col.log_n.to_string(),
                col.n.to_string(),
                col.trials.to_string(),
                format!("{}", cell.ub),
                format!("{}", cell.observed.min),
                format!("{}", cell.observed.mean),
                format!("{}", cell.observed.max),
                format!("{}", cell.observed.variance),
            ]);
        }
    }
    render_csv(&header, &rows)
}

/// Checks the paper's qualitative claims on a computed table; returns a
/// list of violations (empty = all claims reproduced).
pub fn check_claims(t: &Table1) -> Vec<String> {
    let mut bad = Vec::new();
    for col in &t.columns {
        let [ba, bahf, hf] = &col.cells;
        // Observed values sit below the worst-case bounds.
        for (alg, cell) in Algorithm::ALL.iter().zip(&col.cells) {
            if cell.observed.max > cell.ub + 1e-9 {
                bad.push(format!(
                    "N=2^{}: {} max {} exceeds ub {}",
                    col.log_n,
                    alg.name(),
                    cell.observed.max,
                    cell.ub
                ));
            }
        }
        // HF best, BA worst (on the average ratio).
        if !(hf.observed.mean <= bahf.observed.mean + 1e-9
            && bahf.observed.mean <= ba.observed.mean + 1e-9)
        {
            bad.push(format!(
                "N=2^{}: ordering violated (hf {} / bahf {} / ba {})",
                col.log_n, hf.observed.mean, bahf.observed.mean, ba.observed.mean
            ));
        }
        // "Usually, the observed ratios differed by no more than a factor
        // of 3 for fixed N."
        if ba.observed.mean > 3.5 * hf.observed.mean {
            bad.push(format!(
                "N=2^{}: BA/HF mean gap {} unexpectedly large",
                col.log_n,
                ba.observed.mean / hf.observed.mean
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table1 {
        let cfg = StudyConfig::table1().with_trials(40);
        table1(&cfg, [5u32, 8], 2)
    }

    #[test]
    fn computes_all_columns_and_cells() {
        let t = small_table();
        assert_eq!(t.columns.len(), 2);
        assert_eq!(t.columns[0].n, 32);
        assert_eq!(t.columns[1].n, 256);
        for col in &t.columns {
            for cell in &col.cells {
                assert!(cell.ub >= 1.0);
                assert!(cell.observed.count as usize == col.trials);
                assert!(cell.observed.min >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn render_contains_all_blocks() {
        let t = small_table();
        let s = render(&t);
        for name in ["[BA]", "[BA-HF]", "[HF]"] {
            assert!(s.contains(name), "missing block {name}");
        }
        assert!(s.contains("2^5") && s.contains("2^8"));
        for row in ["ub", "min", "avg", "max", "var", "trials"] {
            assert!(s.contains(row), "missing row {row}");
        }
    }

    #[test]
    fn csv_has_row_per_algorithm_and_size() {
        let t = small_table();
        let csv = to_csv(&t);
        assert_eq!(csv.lines().count(), 1 + 2 * 3);
        assert!(csv.starts_with("algorithm,log_n"));
    }

    #[test]
    fn paper_claims_hold_on_small_table() {
        let violations = check_claims(&small_table());
        assert!(violations.is_empty(), "{violations:?}");
    }
}
