//! Theorem 3, end to end: PHF on the simulated machine and on real
//! threads computes exactly the partition of sequential HF — across
//! problem classes, sizes, machine cost models and pool widths.

mod common;

use gb_parlb::par_phf::par_phf;
use gb_parlb::phf::phf;
use gb_pram::cost::CostModel;
use gb_pram::machine::Machine;
use gb_problems::fe_tree::FeTree;
use gb_problems::grid::Grid;
use gb_problems::quadrature::Integrand;
use gb_problems::synthetic::SyntheticProblem;
use gb_problems::task_list::TaskList;
use good_bisectors::prelude::*;
use proptest::prelude::*;

#[test]
fn synthetic_model_bit_exact_across_sizes() {
    for &n in &[2usize, 3, 5, 16, 31, 64, 255, 1024] {
        for seed in 0..5 {
            let p = SyntheticProblem::new(1.0, 0.1, 0.5, seed);
            let mut machine = Machine::with_paper_costs(n);
            let (par, _) = phf(&mut machine, p, n, 0.1);
            let seq = hf(p, n);
            assert!(par.same_weights_as(&seq), "n={n} seed={seed}");
        }
    }
}

#[test]
fn narrow_interval_still_exact() {
    // Nearly equal weights stress the tie-sensitivity of the window rule.
    for seed in 0..10 {
        let p = SyntheticProblem::new(1.0, 0.49, 0.5, seed);
        let mut machine = Machine::with_paper_costs(128);
        let (par, _) = phf(&mut machine, p, 128, 0.49);
        assert!(par.same_weights_as(&hf(p, 128)), "seed={seed}");
    }
}

#[test]
fn task_lists_match() {
    let tasks = TaskList::heavy_tailed(20_000, 3);
    for &n in &[8usize, 48, 200] {
        let p = tasks.root_problem(11);
        let alpha = 0.01; // conservative class guess for the threshold
        let mut machine = Machine::with_paper_costs(n);
        let (par, _) = phf(&mut machine, p.clone(), n, alpha);
        let seq = hf(p, n);
        assert!(par.same_weights_as(&seq), "n={n}");
    }
}

#[test]
fn fe_trees_match() {
    let tree = FeTree::adaptive(3000, 0.6, 5);
    for &n in &[4usize, 32, 100] {
        let mut machine = Machine::with_paper_costs(n);
        let (par, _) = phf(&mut machine, tree.root_problem(), n, 0.05);
        let seq = hf(tree.root_problem(), n);
        assert!(par.same_weights_as(&seq), "n={n}");
    }
}

#[test]
fn grids_match() {
    let grid = Grid::hotspots(96, 80, 3, 9);
    for &n in &[8usize, 33, 64] {
        let mut machine = Machine::with_paper_costs(n);
        let (par, _) = phf(&mut machine, grid.root_problem(), n, 0.05);
        let seq = hf(grid.root_problem(), n);
        assert!(par.same_weights_as(&seq), "n={n}");
    }
}

#[test]
fn quadrature_regions_match() {
    let integrand = Integrand::gaussian_peak(3, 0.2, 17);
    let root = integrand.unit_region(1e-9);
    let alpha = root.alpha();
    for &n in &[8usize, 64, 200] {
        let mut machine = Machine::with_paper_costs(n);
        let (par, _) = phf(&mut machine, root.clone(), n, alpha);
        let seq = hf(root.clone(), n);
        assert!(par.same_weights_as(&seq), "n={n}");
    }
}

#[test]
fn equality_is_cost_model_independent() {
    // The partition PHF computes must not depend on the machine's cost
    // model — costs only change the clocks.
    let p = SyntheticProblem::new(1.0, 0.2, 0.5, 77);
    let n = 96;
    let baseline = {
        let mut m = Machine::with_paper_costs(n);
        phf(&mut m, p, n, 0.2).0
    };
    for cost in [
        CostModel {
            t_bisect: 10,
            t_send: 1,
            t_global_factor: 1,
        },
        CostModel {
            t_bisect: 1,
            t_send: 20,
            t_global_factor: 7,
        },
    ] {
        let mut m = Machine::new(n, cost);
        let (part, _) = phf(&mut m, p, n, 0.2);
        assert!(part.same_weights_as(&baseline));
    }
}

#[test]
fn equality_is_topology_independent() {
    // Interconnect choice changes clocks, never the partition.
    use gb_pram::topology::Topology;
    let p = SyntheticProblem::new(1.0, 0.15, 0.5, 123);
    let n = 64;
    let seq = hf(p, n);
    for topology in Topology::ALL {
        let mut m = Machine::with_topology(n, CostModel::paper(), topology);
        let (part, _) = phf(&mut m, p, n, 0.15);
        assert!(part.same_weights_as(&seq), "{}", topology.name());
    }
}

#[test]
fn alpha_parameter_may_be_conservative() {
    // PHF's threshold only needs α to be a *valid* lower bound for the
    // class; a smaller (more conservative) α shifts work from phase 1 to
    // phase 2 but must not change the result.
    let p = SyntheticProblem::new(1.0, 0.3, 0.5, 31);
    let n = 128;
    let seq = hf(p, n);
    for alpha in [0.3, 0.2, 0.1, 0.02] {
        let mut m = Machine::with_paper_costs(n);
        let (par, _) = phf(&mut m, p, n, alpha);
        assert!(par.same_weights_as(&seq), "alpha={alpha}");
    }
}

/// `par_phf` on pools of 1, 2 and 4 workers, for every served class at
/// `n` pieces with the α a cold miss would estimate, against sequential HF.
fn par_phf_matches_hf_on_every_class(n: usize) {
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    for spec in common::served_specs(n, n as u64 + 3) {
        let p = spec.build();
        let alpha = gb_problems::empirical_alpha(&p, n)
            .unwrap_or(0.25)
            .clamp(1e-3, 0.5);
        let seq = hf(p.clone(), n);
        for pool in &pools {
            let par = par_phf(pool, p.clone(), n, alpha);
            assert!(
                par.same_weights_as(&seq),
                "{} n={n} workers={}",
                spec.class(),
                pool.workers()
            );
        }
    }
}

#[test]
fn real_threads_match_hf_on_every_class() {
    for n in [64, 256, 1024] {
        par_phf_matches_hf_on_every_class(n);
    }
}

#[test]
#[ignore = "n = 4096; release-mode CI step"]
fn real_threads_match_hf_on_every_class_at_4096() {
    par_phf_matches_hf_on_every_class(4096);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_phf_equals_hf_on_synthetic(
        seed in any::<u64>(),
        lo_pct in 2u32..=50,
        n in 2usize..256,
    ) {
        let lo = lo_pct as f64 / 100.0;
        let p = SyntheticProblem::new(1.0, lo, 0.5, seed);
        let mut machine = Machine::with_paper_costs(n);
        let (par, report) = phf(&mut machine, p, n, lo);
        let seq = hf(p, n);
        prop_assert!(par.same_weights_as(&seq));
        // The machine counted exactly n − 1 bisections.
        prop_assert_eq!(machine.metrics().bisections, n as u64 - 1);
        // Threshold bookkeeping is consistent.
        prop_assert!(report.threshold >= 1.0 / n as f64);
    }
}
