//! # gb-simstudy — the paper's simulation study (§4)
//!
//! "To gain further insight about the balancing quality achieved by the
//! proposed algorithms, we carried out a series of simulation
//! experiments." This crate reproduces that study and the running-time
//! claims of §3:
//!
//! | Experiment (see `DESIGN.md` §4) | Module |
//! |---------------------------------|--------|
//! | **Table 1** — worst-case ub + observed min/avg/max ratios, `α̂ ~ U[0.01, 0.5]`, θ = 1 | [`table1`] |
//! | **Figure 5** — average ratio vs `log₂ N`, `α̂ ~ U[0.1, 0.5]` | [`fig5`] |
//! | **θ study** — BA-HF improvement for θ = 1 → 2 → 3 | [`theta`] |
//! | **Variance remarks** — concentration of ratios; `U[l, 2l]` anomaly | [`variance`] |
//! | **Non-power-of-two N** | [`nonpow2`] |
//! | **Model-time study** — HF `Θ(N)` vs PHF/BA/BA-HF `O(log N)`; BA's zero global ops | [`runtime`] |
//! | **End-to-end study** (extension) — balancing overhead + processing time; PHF/BA crossover grain | [`endtoend`] |
//! | **Problem-class study** (extension) — the realistic classes of `gb-problems` vs the abstract model | [`classes`] |
//! | **Topology study** (extension) — hypercube/mesh/ring interconnects vs the idealised machine | [`topology_study`] |
//! | **Bound-tightness study** (extension) — how nearly adversaries attain the reconstructed bounds | [`tightness`] |
//! | **Depth study** (extension) — bisection-tree depths vs the analytic bounds behind the O(log N) claims | [`depth`] |
//! | **Ablations** (extension) — split rule and Lemma 4, HF order, PHF window, weight information, §3.4 managers | [`ablation`] |
//! | **Real-thread speedup** (extension) — `par_ba` on the work-stealing pool vs sequential `ba` | [`speedup`] |
//!
//! Every experiment is deterministic given a [`StudyConfig`] seed: trial
//! `i` at size `N` uses a seed derived from `(config seed, N, i)`, so runs
//! are reproducible and trivially parallelisable (trials are farmed out to
//! threads; results merge through `gb_core::stats::Welford`). Two
//! exceptions: the ablations use fixed instance seeds, and the speedup
//! study's wall-clock times vary from run to run.
//!
//! The stochastic model is `gb_problems::synthetic::SyntheticProblem` —
//! the paper's i.i.d. `α̂ ~ U[l, u]` bisections. The `simstudy` binary
//! exposes every experiment on the command line, each followed by a
//! `claims[<experiment>]` line that checks its findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod classes;
pub mod config;
pub mod depth;
pub mod endtoend;
pub mod fig5;
pub mod nonpow2;
pub mod plot;
pub mod report;
pub mod run;
pub mod runtime;
pub mod speedup;
pub mod table1;
pub mod theta;
pub mod tightness;
pub mod topology_study;
pub mod variance;

pub use config::{Algorithm, StudyConfig};
pub use run::{ratio_summary, run_trial};
