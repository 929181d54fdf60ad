//! Problem specs shared by the integration tests.

use gb_service::spec::ProblemSpec;

/// One spec per served class, shaped like the mixed cold-miss traffic at
/// `n` pieces: about 4n atoms each, so every problem splits into n pieces.
pub fn served_specs(n: usize, seed: u64) -> Vec<ProblemSpec> {
    let side = ((4 * n) as f64).sqrt().ceil() as usize;
    let dims = 1 + (seed % 3) as usize;
    let halvings = (((4 * n) as f64).log2() / dims as f64).ceil();
    vec![
        ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.1,
            hi: 0.5,
            seed,
        },
        ProblemSpec::FeTree {
            refinements: 2 * n,
            bias: 0.5 + 0.1 * (seed % 5) as f64,
            seed,
        },
        ProblemSpec::Grid {
            rows: side,
            cols: side,
            hotspots: (seed % 5) as usize,
            seed,
        },
        ProblemSpec::Quadrature {
            dims,
            sharpness: 1.0 + (seed % 20) as f64,
            min_width: 0.9 * 0.5f64.powf(halvings),
            seed,
        },
        ProblemSpec::SearchTree {
            nodes: 4 * n,
            branch: 8 + (seed % 9) as usize,
            seed,
        },
        ProblemSpec::TaskList {
            tasks: 4 * n,
            heavy: seed % 2 == 0,
            seed,
        },
    ]
}
