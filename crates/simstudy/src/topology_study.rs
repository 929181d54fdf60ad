//! **Topology study** (extension E-TOP): the §2 assumption, measured.
//!
//! The paper assumes `O(log N)` collectives and constant-latency sends,
//! noting the assumption "is satisfied by the idealized PRAM model, which
//! can be simulated on many realistic architectures with at most
//! logarithmic slowdown". This study re-runs the parallel algorithms on
//! explicit interconnects:
//!
//! * on the **hypercube** the claim holds exactly for collectives
//!   (`⌈log₂ s⌉`), and BA's cascade sends cost Hamming distances —
//!   everything stays polylogarithmic;
//! * on the **2-D mesh** diameters are `Θ(√N)`: collectives (hence PHF)
//!   degrade to `Θ(√N)`;
//! * on the **ring** diameters are `Θ(N)`: both PHF's collectives and
//!   BA's long cascade hops degrade towards linear — quantifying exactly
//!   how much the idealised model flatters each algorithm, and showing
//!   that BA's *zero-collective* design degrades more gracefully than
//!   PHF's collective-heavy phase 2 on diameter-bound networks.

use gb_parlb::ba_machine::ba_on_machine;
use gb_parlb::bahf_machine::{ba_hf_on_machine, TailAlgorithm};
use gb_parlb::phf::phf;
use gb_pram::cost::CostModel;
use gb_pram::machine::Machine;
use gb_pram::topology::Topology;
use gb_problems::synthetic::SyntheticProblem;

use crate::config::StudyConfig;
use crate::report::{render_csv, render_table};

/// Makespans of the three parallel algorithms on one topology at one size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyRow {
    /// The interconnect.
    pub topology: Topology,
    /// `log₂ N`.
    pub log_n: u32,
    /// PHF makespan.
    pub phf_time: u64,
    /// BA makespan.
    pub ba_time: u64,
    /// BA-HF makespan (sequential-HF tail).
    pub bahf_time: u64,
}

/// The whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStudy {
    /// Configuration used (interval, θ, seed).
    pub cfg: StudyConfig,
    /// One row per (topology, size).
    pub rows: Vec<TopologyRow>,
}

/// Measures one (topology, size) cell.
pub fn topology_row(cfg: &StudyConfig, topology: Topology, log_n: u32) -> TopologyRow {
    let n = 1usize << log_n;
    let alpha = cfg.lo;
    let p = SyntheticProblem::new(1.0, cfg.lo, cfg.hi, cfg.trial_seed(n, 0));

    let mut m_phf = Machine::with_topology(n, CostModel::paper(), topology);
    phf(&mut m_phf, p, n, alpha);
    let mut m_ba = Machine::with_topology(n, CostModel::paper(), topology);
    ba_on_machine(&mut m_ba, p, n);
    let mut m_bahf = Machine::with_topology(n, CostModel::paper(), topology);
    ba_hf_on_machine(
        &mut m_bahf,
        p,
        n,
        alpha,
        cfg.theta,
        TailAlgorithm::SequentialHf,
    );

    TopologyRow {
        topology,
        log_n,
        phf_time: m_phf.makespan(),
        ba_time: m_ba.makespan(),
        bahf_time: m_bahf.makespan(),
    }
}

/// Runs the study over all topologies and the given sizes.
pub fn topology_study(cfg: &StudyConfig, logs: &[u32]) -> TopologyStudy {
    let mut rows = Vec::new();
    for topology in Topology::ALL {
        for &log_n in logs {
            rows.push(topology_row(cfg, topology, log_n));
        }
    }
    TopologyStudy { cfg: *cfg, rows }
}

/// Renders the study grouped by topology.
pub fn render(study: &TopologyStudy) -> String {
    let mut out = format!(
        "Topology study — model time of the parallel algorithms, \
         alpha ~ U[{}, {}] (sequential HF for scale: 2(N-1))\n\n",
        study.cfg.lo, study.cfg.hi
    );
    let header = ["topology", "N", "PHF", "BA", "BA-HF"];
    let rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.topology.name().to_string(),
                format!("2^{}", r.log_n),
                r.phf_time.to_string(),
                r.ba_time.to_string(),
                r.bahf_time.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&header, &rows));
    out
}

/// CSV form.
pub fn to_csv(study: &TopologyStudy) -> String {
    let header = ["topology", "log_n", "phf", "ba", "bahf"];
    let rows = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.topology.name().to_string(),
                r.log_n.to_string(),
                r.phf_time.to_string(),
                r.ba_time.to_string(),
                r.bahf_time.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    render_csv(&header, &rows)
}

/// Verifies the expected structure; returns violations.
pub fn check_claims(study: &TopologyStudy) -> Vec<String> {
    let mut bad = Vec::new();
    let cell = |t: Topology, k: u32| {
        study
            .rows
            .iter()
            .find(|r| r.topology == t && r.log_n == k)
            .copied()
    };
    let logs: Vec<u32> = {
        let mut v: Vec<u32> = study.rows.iter().map(|r| r.log_n).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &k in &logs {
        let Some(ideal) = cell(Topology::Complete, k) else {
            continue;
        };
        // The idealised machine is the cheapest for every algorithm.
        for t in [Topology::Hypercube, Topology::Mesh2D, Topology::Ring] {
            if let Some(r) = cell(t, k) {
                if r.phf_time < ideal.phf_time || r.ba_time < ideal.ba_time {
                    bad.push(format!(
                        "{} at 2^{k}: cheaper than the idealised machine",
                        t.name()
                    ));
                }
            }
        }
        // Hypercube stays within a logarithmic factor of ideal (the §2
        // "at most logarithmic slowdown" claim).
        if let Some(r) = cell(Topology::Hypercube, k) {
            let budget = ideal.ba_time * (k as u64 + 1);
            if r.ba_time > budget {
                bad.push(format!(
                    "hypercube BA at 2^{k}: {} exceeds log-slowdown budget {budget}",
                    r.ba_time
                ));
            }
        }
    }
    // On the ring, BA (no collectives) degrades more gracefully than PHF
    // at the largest measured size.
    if let Some(&k) = logs.last() {
        if let Some(r) = cell(Topology::Ring, k) {
            if r.ba_time > r.phf_time {
                bad.push(format!(
                    "ring at 2^{k}: expected BA ({}) to beat PHF ({})",
                    r.ba_time, r.phf_time
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> TopologyStudy {
        topology_study(&StudyConfig::fig5().with_trials(1), &[6, 10])
    }

    #[test]
    fn covers_all_topologies_and_sizes() {
        let s = study();
        assert_eq!(s.rows.len(), Topology::ALL.len() * 2);
    }

    #[test]
    fn structural_claims_hold() {
        let violations = check_claims(&study());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ring_is_much_slower_than_ideal() {
        let s = study();
        let ideal = s
            .rows
            .iter()
            .find(|r| r.topology == Topology::Complete && r.log_n == 10)
            .unwrap();
        let ring = s
            .rows
            .iter()
            .find(|r| r.topology == Topology::Ring && r.log_n == 10)
            .unwrap();
        assert!(ring.phf_time > 5 * ideal.phf_time);
    }

    #[test]
    fn render_groups_by_topology() {
        let txt = render(&study());
        for t in Topology::ALL {
            assert!(txt.contains(t.name()), "missing {}", t.name());
        }
    }
}
