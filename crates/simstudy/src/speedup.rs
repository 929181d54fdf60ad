//! **Real-thread speedup** (experiment E-SPD): wall-clock time of
//! `par_ba` on the work-stealing pool against sequential `ba`, as the
//! worker count grows — the practical payoff of BA's "inherently
//! parallel" structure.
//!
//! Plain synthetic bisections are too cheap for threading to pay off, so
//! the workload makes each bisection cost real work (a small quadrature
//! refinement), as it would in the paper's FEM setting.
//!
//! The only claim checked is that `par_ba` returns exactly `ba`'s weights
//! at every worker count. The speedups are printed, not checked: they
//! depend on the host's cores and on whatever else it runs.

use std::hint::black_box;
use std::time::Instant;

use gb_core::ba::ba;
use gb_core::problem::Bisectable;
use gb_core::rng::{u64_to_unit_f64, SplitMix64};
use gb_parlb::par_ba::par_ba;
use gb_parlb::pool::ThreadPool;

use crate::report::{render_csv, render_table};

/// Processors the CLI balances onto.
pub const N: usize = 4096;

/// Worker counts the CLI measures.
pub const WORKERS: [usize; 3] = [1, 2, 4];

/// Iterations of arithmetic per bisection in the CLI's workload.
pub const WORK: u32 = 20_000;

/// Timed runs of each configuration in the CLI; the fastest counts.
pub const ROUNDS: usize = 3;

/// A synthetic problem whose `bisect` performs `work` iterations of real
/// arithmetic — standing in for an application where producing two
/// subproblems costs real computation (mesh splitting, error estimation).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostlyProblem {
    w: f64,
    seed: u64,
    work: u32,
}

impl CostlyProblem {
    /// A unit-weight root with the given seed and per-bisection work.
    fn new(seed: u64, work: u32) -> Self {
        Self { w: 1.0, seed, work }
    }
}

impl Bisectable for CostlyProblem {
    fn weight(&self) -> f64 {
        self.w
    }

    fn bisect(&self) -> (Self, Self) {
        let mut acc = 0.0f64;
        let mut x = self.seed | 1;
        for _ in 0..self.work {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc += u64_to_unit_f64(x).sqrt();
        }
        black_box(acc);
        let u = u64_to_unit_f64(SplitMix64::derive(self.seed, 0));
        let frac = 0.3 + 0.2 * u;
        (
            Self {
                w: frac * self.w,
                seed: SplitMix64::derive(self.seed, 1),
                work: self.work,
            },
            Self {
                w: (1.0 - frac) * self.w,
                seed: SplitMix64::derive(self.seed, 2),
                work: self.work,
            },
        )
    }
}

/// One worker count's run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupRow {
    /// Pool workers.
    pub workers: usize,
    /// Fastest wall-clock seconds of `par_ba`.
    pub seconds: f64,
    /// Sequential seconds over `seconds`.
    pub speedup: f64,
    /// `par_ba` returned exactly `ba`'s weights in every round.
    pub identical: bool,
}

/// The whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupStudy {
    /// Processors balanced onto.
    pub n: usize,
    /// Arithmetic iterations per bisection.
    pub work: u32,
    /// Timed runs of each configuration.
    pub rounds: usize,
    /// Fastest wall-clock seconds of sequential `ba`.
    pub sequential_s: f64,
    /// One row per worker count.
    pub rows: Vec<SpeedupRow>,
}

/// Times `ba`, then `par_ba` at each entry of `workers`, on
/// `CostlyProblem::new(42, work)` balanced onto `n` processors. All of
/// them run `rounds` times in rotation, and each keeps its fastest run, so
/// a stall of the host in one round does not land on one side only.
pub fn speedup_study(n: usize, work: u32, workers: &[usize], rounds: usize) -> SpeedupStudy {
    let p = CostlyProblem::new(42, work);
    let seq = ba(p, n);
    let mut sequential_s = f64::INFINITY;
    let mut rows: Vec<SpeedupRow> = workers
        .iter()
        .map(|&workers| SpeedupRow {
            workers,
            seconds: f64::INFINITY,
            speedup: 0.0,
            identical: true,
        })
        .collect();
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(ba(p, n));
        sequential_s = sequential_s.min(t0.elapsed().as_secs_f64());
        for row in &mut rows {
            let pool = ThreadPool::new(row.workers);
            let t0 = Instant::now();
            let par = par_ba(&pool, p, n);
            row.seconds = row.seconds.min(t0.elapsed().as_secs_f64());
            row.identical &= par.same_weights_as(&seq);
        }
    }
    for row in &mut rows {
        row.speedup = sequential_s / row.seconds;
    }
    SpeedupStudy {
        n,
        work,
        rounds,
        sequential_s,
        rows,
    }
}

/// Renders the study.
pub fn render(s: &SpeedupStudy) -> String {
    let header = ["run", "wall ms", "speedup", "same weights as ba"];
    let mut rows = vec![vec![
        "sequential ba".to_string(),
        format!("{:.1}", 1e3 * s.sequential_s),
        "1.00x".to_string(),
        "-".to_string(),
    ]];
    rows.extend(s.rows.iter().map(|r| {
        vec![
            format!("par_ba, {} worker(s)", r.workers),
            format!("{:.1}", 1e3 * r.seconds),
            format!("{:.2}x", r.speedup),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ]
    }));
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    format!(
        "Real-thread speedup — par_ba vs sequential ba (N = {}, {} iterations per bisection, \
         fastest of {} runs, {cores} core(s); speedups are not checked)\n\n{}",
        s.n,
        s.work,
        s.rounds,
        render_table(&header, &rows)
    )
}

/// CSV form.
pub fn to_csv(s: &SpeedupStudy) -> String {
    let header = ["workers", "seconds", "speedup", "identical"];
    let mut rows = vec![vec![
        "0".to_string(),
        s.sequential_s.to_string(),
        "1".to_string(),
        "true".to_string(),
    ]];
    rows.extend(s.rows.iter().map(|r| {
        vec![
            r.workers.to_string(),
            r.seconds.to_string(),
            r.speedup.to_string(),
            r.identical.to_string(),
        ]
    }));
    render_csv(&header, &rows)
}

/// Checks that every parallel run matched `ba` bit for bit.
pub fn check_claims(s: &SpeedupStudy) -> Vec<String> {
    s.rows
        .iter()
        .filter(|r| !r.identical)
        .map(|r| format!("par_ba with {} worker(s) differs from ba", r.workers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_workers_give_exactly_bas_weights() {
        let p = CostlyProblem::new(7, 50);
        let pool = ThreadPool::new(2);
        assert!(par_ba(&pool, p, 300).same_weights_as(&ba(p, 300)));
    }

    #[test]
    fn study_reports_a_row_per_worker_count_and_no_violation() {
        let s = speedup_study(128, 50, &[1, 2], 2);
        assert_eq!(s.rows.iter().map(|r| r.workers).collect::<Vec<_>>(), [1, 2]);
        assert!(check_claims(&s).is_empty());
        assert!(render(&s).contains("2 worker(s)"));
        assert_eq!(to_csv(&s).lines().count(), 4);
    }
}
