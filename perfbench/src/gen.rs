//! Deterministic request generators: every request the benchmark sends
//! is a pure function of (workload, seed, request index), so the same
//! seed yields byte-identical frames.

use gb_core::rng::SplitMix64;
use gb_service::proto::{Algorithm, BalanceRequest, Request};
use gb_service::spec::ProblemSpec;

use crate::workload::Workload;

/// The JSON wire rejects seeds of 2^63 and above ("must be a
/// non-negative integer"), so every generated seed is masked below it.
const SEED_MASK: u64 = (1 << 63) - 1;

/// Store-seeded specs set this bit in their problem seed and run specs
/// never do, so the seeded records are disjoint from the run's keys.
const STORE_SEED_BIT: u64 = 1 << 62;

/// Hot-set size of the two cache-hit workloads.
pub const HOT_KEYS: usize = 1024;

/// Processor counts of the `miss-mixed` mix.
const MISS_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// One balance request, minus its id.
#[derive(Debug, Clone)]
pub struct Key {
    pub spec: ProblemSpec,
    pub algorithm: Algorithm,
    pub n: usize,
    pub want_pieces: bool,
}

impl Key {
    pub fn request(&self, id: u64) -> Request {
        Request::Balance(BalanceRequest {
            id: Some(id),
            algorithm: self.algorithm,
            n: self.n,
            theta: 1.0,
            deadline_ms: None,
            want_pieces: self.want_pieces,
            problem: self.spec.clone(),
        })
    }

    /// Root weight when it is known without building the problem.
    pub fn known_weight(&self) -> Option<f64> {
        match self.spec {
            ProblemSpec::Synthetic { weight, .. } => Some(weight),
            _ => None,
        }
    }
}

fn rng(workload: Workload, seed: u64, lane: u64) -> SplitMix64 {
    let salt = workload
        .name()
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(0x100_0000_01B3) ^ b as u64);
    SplitMix64::new(SplitMix64::derive(seed ^ salt, lane))
}

fn spec_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() & SEED_MASK & !STORE_SEED_BIT
}

fn synthetic(rng: &mut SplitMix64, seed: u64) -> ProblemSpec {
    let lo = 0.05 + 0.4 * rng.next_f64();
    let hi = lo + (0.5 - lo) * rng.next_f64();
    ProblemSpec::Synthetic {
        weight: 1.0,
        lo,
        hi,
        seed,
    }
}

/// The hot set of `hit-binary` (all four algorithms at n = 64, pieces
/// wanted on every other key) or `proxied-zipf` (n = 256).
pub fn hot_keys(workload: Workload, seed: u64) -> Vec<Key> {
    let n = match workload {
        Workload::ProxiedZipf => 256,
        _ => 64,
    };
    let mut rng = rng(workload, seed, 0);
    (0..HOT_KEYS)
        .map(|i| {
            let s = spec_seed(&mut rng);
            Key {
                spec: synthetic(&mut rng, s),
                algorithm: Algorithm::ALL[i % 4],
                n,
                want_pieces: (i / 4) % 2 == 0,
            }
        })
        .collect()
}

/// Key indices a hit workload's connection `conn` cycles through:
/// uniform over the hot set for `hit-binary`, zipf(1.0) for
/// `proxied-zipf` (rank r drawn with probability ∝ 1/r, ranks mapped to
/// keys by a seeded permutation so the hot keys spread over the ring).
pub fn hot_sequence(workload: Workload, seed: u64, conn: usize, len: usize) -> Vec<u32> {
    let mut rng = rng(workload, seed, 1 + conn as u64);
    match workload {
        Workload::ProxiedZipf => {
            let mut perm: Vec<u32> = (0..HOT_KEYS as u32).collect();
            let mut prng = self::rng(workload, seed, 1000);
            for i in (1..perm.len()).rev() {
                let j = (prng.next_u64() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            let mut cdf = Vec::with_capacity(HOT_KEYS);
            let mut acc = 0.0;
            for r in 1..=HOT_KEYS {
                acc += 1.0 / r as f64;
                cdf.push(acc);
            }
            (0..len)
                .map(|_| {
                    let u = rng.next_f64() * acc;
                    let rank = cdf.partition_point(|&c| c < u).min(HOT_KEYS - 1);
                    perm[rank]
                })
                .collect()
        }
        _ => (0..len)
            .map(|_| (rng.next_u64() % HOT_KEYS as u64) as u32)
            .collect(),
    }
}

/// Class × algorithm × n combinations of the `miss-mixed` mix.
pub const MISS_COMBOS: u64 = 6 * 4 * MISS_SIZES.len() as u64;

/// Request `index` of `miss-mixed`: a distinct key from one of the six
/// classes × hf/ba/bahf/phf × n ∈ {64, 256, 1024, 4096}, pieces wanted.
/// Every block of [`MISS_COMBOS`] consecutive requests holds each
/// combination exactly once, in a seeded order, so the mix a run
/// measures does not drift with the seed. Problem sizes scale with n
/// (about 4n atoms) so every request can be split into n pieces.
pub fn miss_key(seed: u64, index: u64) -> Key {
    let mut order: Vec<u64> = (0..MISS_COMBOS).collect();
    let mut shuffle = rng(Workload::MissMixed, seed, (3 << 32) | (index / MISS_COMBOS));
    for i in (1..order.len()).rev() {
        let j = (shuffle.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let pick = order[(index % MISS_COMBOS) as usize];
    let mut rng = rng(Workload::MissMixed, seed, (1 << 32) | index);
    let class = (pick % 6) as usize;
    let algorithm = Algorithm::ALL[((pick / 6) % 4) as usize];
    let n = MISS_SIZES[((pick / 24) % 4) as usize];
    let s = spec_seed(&mut rng);
    let spec = match class {
        0 => synthetic(&mut rng, s),
        1 => ProblemSpec::FeTree {
            refinements: 2 * n,
            bias: 0.5 + 0.4 * rng.next_f64(),
            seed: s,
        },
        2 => {
            let side = ((4 * n) as f64).sqrt().ceil() as usize;
            ProblemSpec::Grid {
                rows: side,
                cols: side,
                hotspots: (rng.next_u64() % 5) as usize,
                seed: s,
            }
        }
        3 => {
            let dims = 1 + (rng.next_u64() % 3) as usize;
            // Halving each dimension k times leaves 2^(k·dims) ≥ 4n atoms.
            let k = ((4 * n) as f64).log2() / dims as f64;
            ProblemSpec::Quadrature {
                dims,
                sharpness: 1.0 + 19.0 * rng.next_f64(),
                min_width: 0.9 * 0.5f64.powf(k.ceil()),
                seed: s,
            }
        }
        // At least four children on average, so the tree does not die
        // out long before its node budget.
        4 => ProblemSpec::SearchTree {
            nodes: 4 * n,
            branch: 8 + (rng.next_u64() % 9) as usize,
            seed: s,
        },
        _ => ProblemSpec::TaskList {
            tasks: 4 * n,
            heavy: rng.next_u64().is_multiple_of(2),
            seed: s,
        },
    };
    Key {
        spec,
        algorithm,
        n,
        want_pieces: true,
    }
}

/// Store record `index` for pre-seeding `miss-mixed`: a synthetic HF
/// problem at n = 64 whose seed carries [`STORE_SEED_BIT`].
pub fn store_key(seed: u64, index: u64) -> Key {
    let mut rng = rng(Workload::MissMixed, seed, (2 << 32) | index);
    let s = (rng.next_u64() & SEED_MASK) | STORE_SEED_BIT;
    Key {
        spec: synthetic(&mut rng, s),
        algorithm: Algorithm::Hf,
        n: 64,
        want_pieces: true,
    }
}
