//! `simstudy` — command-line front end for the simulation study.
//!
//! ```text
//! simstudy <experiment> [options]
//!
//! experiments:
//!   table1     Table 1 (ub + min/avg/max ratios, U[0.01, 0.5])
//!   fig5       Figure 5 (average ratio curves, U[0.1, 0.5])
//!   theta      the BA-HF theta study
//!   variance   the variance remarks
//!   nonpow2    non-power-of-two N comparison
//!   runtime    the model-time study on the simulated machine
//!   endtoend   balancing overhead + processing time (extension)
//!   classes    realistic problem classes vs the abstract model (extension)
//!   topology   hypercube/mesh/ring interconnects vs the ideal machine (extension)
//!   tightness  adversarial attainment of the worst-case bounds (extension)
//!   depth      bisection-tree depths vs the analytic bounds (extension)
//!   ablation   what each design choice buys: split rule, HF order, PHF window,
//!              weight information, free-processor managers (extension)
//!   speedup    real-thread par_ba vs sequential ba, 1/2/4 workers (extension)
//!   all        every experiment, paper parameters (long!)
//!
//! options:
//!   --lo F --hi F     alpha-hat interval            (per-experiment default)
//!   --theta F         BA-HF threshold               (default 1.0)
//!   --trials K        base trials per configuration (default 1000, at least 1)
//!   --min-log K       smallest log2 N               (default 5)
//!   --max-log K       largest log2 N                (default 20, at most 24)
//!   --seed S          master seed                   (default 0x5EED1999)
//!   --threads T       worker threads                (default: all cores)
//!   --csv             emit CSV instead of tables
//!   --svg FILE        additionally write an SVG chart (fig5, runtime)
//! ```
//!
//! `ablation` and `speedup` run at `N = 2^12`, the size their findings
//! are quoted at. A bad option value is a usage error (exit 2); a claim
//! that does not reproduce exits 1, after every selected study ran.

use std::fmt::Display;
use std::str::FromStr;

use gb_core::error::{check_alpha, check_theta};
use gb_simstudy::config::StudyConfig;
use gb_simstudy::run::default_threads;
use gb_simstudy::{
    ablation, classes, depth, endtoend, fig5, nonpow2, runtime, speedup, table1, theta, tightness,
    topology_study, variance,
};

/// The largest accepted `--max-log`: keeps `1 << max_log` (and the
/// memory a study allocates for it) in range.
const MAX_LOG: u32 = 24;

#[derive(Debug, Clone)]
struct Options {
    lo: Option<f64>,
    hi: Option<f64>,
    theta: f64,
    trials: usize,
    min_log: u32,
    max_log: u32,
    seed: u64,
    threads: usize,
    csv: bool,
    svg: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            lo: None,
            hi: None,
            theta: 1.0,
            trials: 1000,
            min_log: 5,
            max_log: 20,
            seed: 0x5EED_1999,
            threads: default_threads(),
            csv: false,
            svg: None,
        }
    }
}

/// Parses the value following `flag`.
fn value<T: FromStr>(it: &mut std::slice::Iter<String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opt = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--lo" => opt.lo = Some(value(&mut it, flag)?),
            "--hi" => opt.hi = Some(value(&mut it, flag)?),
            "--theta" => opt.theta = value(&mut it, flag)?,
            "--trials" => opt.trials = value(&mut it, flag)?,
            "--min-log" => opt.min_log = value(&mut it, flag)?,
            "--max-log" => opt.max_log = value(&mut it, flag)?,
            "--seed" => opt.seed = value(&mut it, flag)?,
            "--threads" => opt.threads = value(&mut it, flag)?,
            "--csv" => opt.csv = true,
            "--svg" => opt.svg = Some(value(&mut it, flag)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    for (name, alpha) in [("--lo", opt.lo), ("--hi", opt.hi)] {
        if let Some(a) = alpha {
            check_alpha(a).map_err(|e| format!("{name}: {e}"))?;
        }
    }
    if let (Some(lo), Some(hi)) = (opt.lo, opt.hi) {
        if lo > hi {
            return Err(format!("--lo {lo} exceeds --hi {hi}"));
        }
    }
    check_theta(opt.theta).map_err(|e| format!("--theta: {e}"))?;
    if opt.trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    if opt.max_log > MAX_LOG {
        return Err(format!("--max-log must not exceed {MAX_LOG}"));
    }
    if opt.min_log > opt.max_log {
        return Err("--min-log must not exceed --max-log".to_string());
    }
    Ok(opt)
}

/// The study configuration, with the study's default interval for any end
/// not given on the command line.
fn config(opt: &Options, default_lo: f64, default_hi: f64) -> Result<StudyConfig, String> {
    let (lo, hi) = (opt.lo.unwrap_or(default_lo), opt.hi.unwrap_or(default_hi));
    if lo > hi {
        return Err(format!("alpha-hat interval [{lo}, {hi}] is empty"));
    }
    Ok(StudyConfig::new(lo, hi, opt.theta, opt.trials, opt.seed))
}

/// What one study produced: its table, the same data as CSV, its claim
/// violations, and an SVG chart where it draws one.
struct Report {
    table: String,
    csv: String,
    claims: Vec<String>,
    svg: Option<String>,
}

impl Report {
    /// Prints the CSV, or the table followed by the `claims[...]` line
    /// (on stderr with `--csv`, only when a claim fails), and writes the
    /// SVG if one was asked for. Returns whether every claim reproduced.
    fn emit(self, label: &str, opt: &Options) -> bool {
        let held = self.claims.is_empty();
        let mut verdict = if held {
            format!("claims[{label}]: all reproduced\n")
        } else {
            format!("claims[{label}]: {} violation(s)\n", self.claims.len())
        };
        for v in &self.claims {
            verdict += &format!("  ! {v}\n");
        }
        if opt.csv {
            print!("{}", self.csv);
            if !held {
                eprint!("{verdict}");
            }
        } else {
            print!("{}{verdict}", self.table);
        }
        if let (Some(path), Some(svg)) = (&opt.svg, self.svg) {
            match std::fs::write(path, svg) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
        held
    }
}

/// A study module's table, CSV and claims for one computed study.
macro_rules! report {
    ($module:ident, $study:expr) => {
        Report {
            table: $module::render($study),
            csv: $module::to_csv($study),
            claims: $module::check_claims($study),
            svg: None,
        }
    };
}

type Run = fn(&Options) -> Result<Report, String>;

/// Every study the CLI runs, in `all`'s order.
const STUDIES: &[(&str, Run)] = &[
    ("table1", |opt| {
        let cfg = config(opt, 0.01, 0.5)?;
        let t = table1::table1(&cfg, opt.min_log..=opt.max_log, opt.threads);
        Ok(report!(table1, &t))
    }),
    ("fig5", |opt| {
        let f = fig5::fig5(
            &config(opt, 0.1, 0.5)?,
            opt.min_log..=opt.max_log,
            opt.threads,
        );
        Ok(Report {
            svg: Some(fig5::to_svg(&f)),
            ..report!(fig5, &f)
        })
    }),
    ("theta", |opt| {
        let logs: Vec<u32> = (opt.min_log..=opt.max_log.min(opt.min_log + 7))
            .step_by(2)
            .collect();
        let cfg = config(opt, 0.1, 0.5)?;
        let s = theta::theta_study(&cfg, &[0.5, 1.0, 2.0, 3.0, 4.0], &logs, opt.threads);
        Ok(report!(theta, &s))
    }),
    ("variance", |opt| {
        let cfg = config(opt, 0.01, 0.5)?;
        let n = 1usize << opt.min_log.max(9);
        let s = variance::variance_study(&cfg, &variance::default_intervals(), n, opt.threads);
        Ok(report!(variance, &s))
    }),
    ("nonpow2", |opt| {
        let cfg = config(opt, 0.1, 0.5)?;
        let s = nonpow2::nonpow2_study(&cfg, &[100, 1000, 3000, 100_000], opt.threads);
        Ok(report!(nonpow2, &s))
    }),
    ("runtime", |opt| {
        let s = runtime::runtime_study(&config(opt, 0.1, 0.5)?, opt.min_log..=opt.max_log);
        Ok(Report {
            svg: Some(runtime::to_svg(&s)),
            ..report!(runtime, &s)
        })
    }),
    ("endtoend", |opt| {
        let cfg = config(opt, 0.1, 0.5)?;
        let n = 1usize << opt.max_log.min(14).max(opt.min_log);
        let s = endtoend::end_to_end_study(&cfg, n, &endtoend::default_grains());
        Ok(report!(endtoend, &s))
    }),
    ("classes", |opt| {
        let s = classes::classes_study(&config(opt, 0.1, 0.5)?, 1usize << opt.min_log.max(5));
        Ok(report!(classes, &s))
    }),
    ("topology", |opt| {
        let logs: Vec<u32> = (opt.min_log..=opt.max_log.min(16)).step_by(2).collect();
        let s = topology_study::topology_study(&config(opt, 0.1, 0.5)?, &logs);
        Ok(report!(topology_study, &s))
    }),
    ("tightness", |_| {
        let s =
            tightness::tightness_study(&tightness::default_alphas(), &tightness::default_sizes());
        Ok(report!(tightness, &s))
    }),
    ("depth", |opt| {
        let logs: Vec<u32> = (opt.min_log..=opt.max_log.min(16)).step_by(3).collect();
        let s = depth::depth_study(&config(opt, 0.1, 0.5)?, &logs);
        Ok(report!(depth, &s))
    }),
    ("ablation", |opt| {
        let s = ablation::ablation_study(&config(opt, 0.1, 0.5)?, ablation::LOG_N);
        Ok(report!(ablation, &s))
    }),
    ("speedup", |_| {
        let s = speedup::speedup_study(
            speedup::N,
            speedup::WORK,
            &speedup::WORKERS,
            speedup::ROUNDS,
        );
        Ok(report!(speedup, &s))
    }),
];

fn usage() -> String {
    let names: Vec<&str> = STUDIES.iter().map(|(name, _)| *name).collect();
    format!("usage: simstudy <{}|all> [options]", names.join("|"))
}

/// The studies `experiment` names: one, or every study for `all`.
fn selected(experiment: &str) -> Option<&'static [(&'static str, Run)]> {
    if experiment == "all" {
        return Some(STUDIES);
    }
    let i = STUDIES.iter().position(|(name, _)| *name == experiment)?;
    Some(&STUDIES[i..=i])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((experiment, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        eprintln!("       (see crate docs for the option list)");
        std::process::exit(2);
    };
    let opt = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(studies) = selected(experiment) else {
        eprintln!("unknown experiment: {experiment}");
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let mut held = true;
    for (i, (name, run)) in studies.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match run(&opt) {
            Ok(report) => held &= report.emit(name, &opt),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if !held {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&owned)
    }

    #[test]
    fn defaults_match_paper_parameters() {
        let opt = parse(&[]).unwrap();
        assert_eq!(opt.trials, 1000);
        assert_eq!((opt.min_log, opt.max_log), (5, 20));
        assert_eq!(opt.theta, 1.0);
        assert!(opt.lo.is_none() && opt.hi.is_none());
        assert!(!opt.csv);
        assert!(opt.svg.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let opt = parse(&[
            "--lo",
            "0.05",
            "--hi",
            "0.4",
            "--theta",
            "2.5",
            "--trials",
            "77",
            "--min-log",
            "6",
            "--max-log",
            "9",
            "--seed",
            "123",
            "--threads",
            "3",
            "--csv",
            "--svg",
            "out.svg",
        ])
        .unwrap();
        assert_eq!(opt.lo, Some(0.05));
        assert_eq!(opt.hi, Some(0.4));
        assert_eq!(opt.theta, 2.5);
        assert_eq!(opt.trials, 77);
        assert_eq!((opt.min_log, opt.max_log), (6, 9));
        assert_eq!(opt.seed, 123);
        assert_eq!(opt.threads, 3);
        assert!(opt.csv);
        assert_eq!(opt.svg.as_deref(), Some("out.svg"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "abc"]).is_err());
        assert!(parse(&["--min-log", "9", "--max-log", "5"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--lo", "0.6", "--hi", "0.2"]).is_err());
        assert!(parse(&["--lo", "0.3", "--hi", "0.2"]).is_err());
        assert!(parse(&["--hi", "0"]).is_err());
        assert!(parse(&["--theta", "-1"]).is_err());
        assert!(parse(&["--min-log", "64", "--max-log", "64", "--trials", "1"]).is_err());
        assert!(parse(&["--max-log", &MAX_LOG.to_string()]).is_ok());
        assert!(parse(&["--max-log", &(MAX_LOG + 1).to_string()]).is_err());
    }

    #[test]
    fn config_uses_defaults_unless_overridden() {
        let opt = parse(&[]).unwrap();
        let cfg = config(&opt, 0.1, 0.5).unwrap();
        assert_eq!((cfg.lo, cfg.hi), (0.1, 0.5));
        let opt = parse(&["--lo", "0.2"]).unwrap();
        let cfg = config(&opt, 0.1, 0.5).unwrap();
        assert_eq!((cfg.lo, cfg.hi), (0.2, 0.5));
    }

    #[test]
    fn an_empty_interval_is_an_error_not_a_panic() {
        // A lone --hi below a study's default low end.
        let opt = parse(&["--hi", "0.05"]).unwrap();
        assert!(config(&opt, 0.1, 0.5).is_err());
        assert!(config(&opt, 0.01, 0.5).is_ok());
    }

    #[test]
    fn every_study_is_in_the_usage_line_and_runs_under_all() {
        let usage = usage();
        let all = selected("all").unwrap();
        assert_eq!(all.len(), STUDIES.len());
        for (name, _) in STUDIES {
            assert!(
                usage.contains(&format!("{name}|")),
                "{name} missing from {usage}"
            );
            assert!(all.iter().any(|(n, _)| n == name), "{name} not run by all");
            assert_eq!(selected(name).unwrap()[0].0, *name);
        }
        assert!(selected("bogus").is_none());
    }
}
