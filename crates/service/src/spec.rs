//! Problem specifications: the wire-level description of *what* to
//! balance, mapped onto the concrete `gb-problems` classes.
//!
//! A [`ProblemSpec`] is fully deterministic — every field participates in
//! the [`fingerprint`](ProblemSpec::fingerprint), and building the same
//! spec twice yields problems that bisect identically. That is what makes
//! the server-side result cache sound: `(fingerprint, algorithm, N, θ)`
//! identifies the partition a request will produce.

use std::fmt;

use gb_core::fingerprint::Fingerprint;
use gb_core::problem::{AlphaBisectable, Bisectable};
use gb_problems::{
    FeTree, FeTreeProblem, Grid, GridProblem, Integrand, Region, SearchTree, SearchTreeProblem,
    SyntheticProblem, TaskList, TaskListProblem,
};

use crate::proto::{Json, ProtoError};

/// Upper limit on the processor count `N` accepted over the wire.
pub const MAX_PROCESSORS: usize = 1 << 16;

/// Upper limit on node/task/cell counts in a spec, so a single request
/// cannot ask the server to materialise a gigabyte-scale problem.
pub const MAX_SIZE: usize = 1 << 20;

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError {
        message: msg.into(),
    }
}

/// A deterministic description of a problem instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// The paper's stochastic model: split fractions uniform in `[lo, hi]`.
    Synthetic {
        /// Root weight (`> 0`, finite).
        weight: f64,
        /// Lower split fraction (`0 < lo ≤ hi`). This is the class α.
        lo: f64,
        /// Upper split fraction (`hi ≤ 1/2`).
        hi: f64,
        /// Seed of the virtual bisection tree.
        seed: u64,
    },
    /// Adaptively refined FE-tree (`2·refinements + 1` nodes).
    FeTree {
        /// Number of refinement steps.
        refinements: usize,
        /// Probability of refining the most recent leaf (`[0, 1]`).
        bias: f64,
        /// RNG seed.
        seed: u64,
    },
    /// 2-D load grid with `hotspots` Gaussian hotspots (0 = uniform).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Hotspot count; `0` selects the uniform load model.
        hotspots: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Adaptive-quadrature region for a Genz Gaussian-peak integrand.
    Quadrature {
        /// Dimensions (`1..=6`).
        dims: usize,
        /// Peak sharpness (`> 0`).
        sharpness: f64,
        /// Atomic-region width (`0 < min_width ≤ 1/2`).
        min_width: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Random backtrack-search tree.
    SearchTree {
        /// Target node count (`≥ 1`).
        nodes: usize,
        /// Maximum branching factor (`≥ 2`).
        branch: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Weighted task list split at random pivots.
    TaskList {
        /// Number of tasks (`≥ 1`).
        tasks: usize,
        /// Heavy-tailed (Pareto-like) costs instead of uniform.
        heavy: bool,
        /// RNG seed.
        seed: u64,
    },
}

impl ProblemSpec {
    /// Wire name of the problem class.
    pub fn class(&self) -> &'static str {
        match self {
            ProblemSpec::Synthetic { .. } => "synthetic",
            ProblemSpec::FeTree { .. } => "fe_tree",
            ProblemSpec::Grid { .. } => "grid",
            ProblemSpec::Quadrature { .. } => "quadrature",
            ProblemSpec::SearchTree { .. } => "search_tree",
            ProblemSpec::TaskList { .. } => "task_list",
        }
    }

    /// The JSON form used inside a balance request.
    pub fn to_json(&self) -> Json {
        let mut e = vec![("class".into(), Json::Str(self.class().into()))];
        match *self {
            ProblemSpec::Synthetic {
                weight,
                lo,
                hi,
                seed,
            } => {
                e.push(("weight".into(), Json::Num(weight)));
                e.push(("lo".into(), Json::Num(lo)));
                e.push(("hi".into(), Json::Num(hi)));
                e.push(("seed".into(), Json::from(seed)));
            }
            ProblemSpec::FeTree {
                refinements,
                bias,
                seed,
            } => {
                e.push(("refinements".into(), Json::Int(refinements as i64)));
                e.push(("bias".into(), Json::Num(bias)));
                e.push(("seed".into(), Json::from(seed)));
            }
            ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                seed,
            } => {
                e.push(("rows".into(), Json::Int(rows as i64)));
                e.push(("cols".into(), Json::Int(cols as i64)));
                e.push(("hotspots".into(), Json::Int(hotspots as i64)));
                e.push(("seed".into(), Json::from(seed)));
            }
            ProblemSpec::Quadrature {
                dims,
                sharpness,
                min_width,
                seed,
            } => {
                e.push(("dims".into(), Json::Int(dims as i64)));
                e.push(("sharpness".into(), Json::Num(sharpness)));
                e.push(("min_width".into(), Json::Num(min_width)));
                e.push(("seed".into(), Json::from(seed)));
            }
            ProblemSpec::SearchTree {
                nodes,
                branch,
                seed,
            } => {
                e.push(("nodes".into(), Json::Int(nodes as i64)));
                e.push(("branch".into(), Json::Int(branch as i64)));
                e.push(("seed".into(), Json::from(seed)));
            }
            ProblemSpec::TaskList { tasks, heavy, seed } => {
                e.push(("tasks".into(), Json::Int(tasks as i64)));
                e.push(("heavy".into(), Json::Bool(heavy)));
                e.push(("seed".into(), Json::from(seed)));
            }
        }
        Json::Obj(e)
    }

    /// Parses and validates a spec from its JSON form.
    pub fn from_json(json: &Json) -> Result<ProblemSpec, ProtoError> {
        let class = json
            .get("class")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("problem missing \"class\""))?;
        let f64_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| bad(format!("problem field \"{key}\" must be a finite number")))
        };
        let size_field = |key: &str, min: usize| -> Result<usize, ProtoError> {
            let v = json
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("problem field \"{key}\" must be an integer")))?;
            if (v as usize) < min || v as usize > MAX_SIZE {
                return Err(bad(format!(
                    "problem field \"{key}\" must be in {min}..={MAX_SIZE}"
                )));
            }
            Ok(v as usize)
        };
        let seed_field = || {
            json.get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("problem field \"seed\" must be a non-negative integer"))
        };
        let spec = match class {
            "synthetic" => {
                let weight = f64_field("weight")?;
                let lo = f64_field("lo")?;
                let hi = f64_field("hi")?;
                if weight <= 0.0 {
                    return Err(bad("\"weight\" must be positive"));
                }
                if !(0.0 < lo && lo <= hi && hi <= 0.5) {
                    return Err(bad("need 0 < lo <= hi <= 0.5"));
                }
                ProblemSpec::Synthetic {
                    weight,
                    lo,
                    hi,
                    seed: seed_field()?,
                }
            }
            "fe_tree" => {
                let bias = f64_field("bias")?;
                if !(0.0..=1.0).contains(&bias) {
                    return Err(bad("\"bias\" must be in [0, 1]"));
                }
                ProblemSpec::FeTree {
                    refinements: size_field("refinements", 1)?,
                    bias,
                    seed: seed_field()?,
                }
            }
            "grid" => {
                let rows = size_field("rows", 1)?;
                let cols = size_field("cols", 1)?;
                if rows.saturating_mul(cols) > MAX_SIZE {
                    return Err(bad(format!("grid larger than {MAX_SIZE} cells")));
                }
                let hotspots = json
                    .get("hotspots")
                    .map(|v| {
                        v.as_u64()
                            .filter(|&k| k <= 64)
                            .ok_or_else(|| bad("\"hotspots\" must be an integer in 0..=64"))
                    })
                    .transpose()?
                    .unwrap_or(0) as usize;
                ProblemSpec::Grid {
                    rows,
                    cols,
                    hotspots,
                    seed: seed_field()?,
                }
            }
            "quadrature" => {
                let dims = size_field("dims", 1)?;
                if dims > gb_problems::quadrature::MAX_DIMS {
                    return Err(bad(format!(
                        "\"dims\" must be at most {}",
                        gb_problems::quadrature::MAX_DIMS
                    )));
                }
                let sharpness = f64_field("sharpness")?;
                if sharpness <= 0.0 {
                    return Err(bad("\"sharpness\" must be positive"));
                }
                let min_width = match json.get("min_width") {
                    None => 1e-2,
                    Some(_) => f64_field("min_width")?,
                };
                if !(min_width > 0.0 && min_width <= 0.5) {
                    return Err(bad("\"min_width\" must be in (0, 0.5]"));
                }
                ProblemSpec::Quadrature {
                    dims,
                    sharpness,
                    min_width,
                    seed: seed_field()?,
                }
            }
            "search_tree" => {
                let branch = size_field("branch", 2)?;
                if branch > 64 {
                    return Err(bad("\"branch\" must be at most 64"));
                }
                ProblemSpec::SearchTree {
                    nodes: size_field("nodes", 1)?,
                    branch,
                    seed: seed_field()?,
                }
            }
            "task_list" => ProblemSpec::TaskList {
                tasks: size_field("tasks", 1)?,
                heavy: json.get("heavy").and_then(Json::as_bool).unwrap_or(false),
                seed: seed_field()?,
            },
            other => return Err(bad(format!("unknown problem class \"{other}\""))),
        };
        Ok(spec)
    }

    /// Binary class tag (dense, stable across releases — append only).
    fn class_tag(&self) -> u8 {
        match self {
            ProblemSpec::Synthetic { .. } => 0,
            ProblemSpec::FeTree { .. } => 1,
            ProblemSpec::Grid { .. } => 2,
            ProblemSpec::Quadrature { .. } => 3,
            ProblemSpec::SearchTree { .. } => 4,
            ProblemSpec::TaskList { .. } => 5,
        }
    }

    /// Appends the binary wire form: `class u8` followed by the class
    /// fields in declaration order — counts as `u32` LE (all capped by
    /// [`MAX_SIZE`]), floats as LE IEEE-754 bits, seeds as `u64` LE,
    /// bools as one byte.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        out.push(self.class_tag());
        match *self {
            ProblemSpec::Synthetic {
                weight,
                lo,
                hi,
                seed,
            } => {
                out.extend_from_slice(&weight.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ProblemSpec::FeTree {
                refinements,
                bias,
                seed,
            } => {
                out.extend_from_slice(&(refinements as u32).to_le_bytes());
                out.extend_from_slice(&bias.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                seed,
            } => {
                out.extend_from_slice(&(rows as u32).to_le_bytes());
                out.extend_from_slice(&(cols as u32).to_le_bytes());
                out.extend_from_slice(&(hotspots as u32).to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ProblemSpec::Quadrature {
                dims,
                sharpness,
                min_width,
                seed,
            } => {
                out.extend_from_slice(&(dims as u32).to_le_bytes());
                out.extend_from_slice(&sharpness.to_le_bytes());
                out.extend_from_slice(&min_width.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ProblemSpec::SearchTree {
                nodes,
                branch,
                seed,
            } => {
                out.extend_from_slice(&(nodes as u32).to_le_bytes());
                out.extend_from_slice(&(branch as u32).to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ProblemSpec::TaskList { tasks, heavy, seed } => {
                out.extend_from_slice(&(tasks as u32).to_le_bytes());
                out.push(heavy as u8);
                out.extend_from_slice(&seed.to_le_bytes());
            }
        }
    }

    /// Decodes and validates the binary wire form; enforces the same
    /// range rules as [`from_json`](Self::from_json) via
    /// [`validate`](Self::validate).
    pub fn decode_binary(
        cur: &mut crate::proto::ByteCursor<'_>,
    ) -> Result<ProblemSpec, ProtoError> {
        let spec = match cur.u8()? {
            0 => ProblemSpec::Synthetic {
                weight: cur.f64()?,
                lo: cur.f64()?,
                hi: cur.f64()?,
                seed: cur.u64()?,
            },
            1 => ProblemSpec::FeTree {
                refinements: cur.u32()? as usize,
                bias: cur.f64()?,
                seed: cur.u64()?,
            },
            2 => ProblemSpec::Grid {
                rows: cur.u32()? as usize,
                cols: cur.u32()? as usize,
                hotspots: cur.u32()? as usize,
                seed: cur.u64()?,
            },
            3 => ProblemSpec::Quadrature {
                dims: cur.u32()? as usize,
                sharpness: cur.f64()?,
                min_width: cur.f64()?,
                seed: cur.u64()?,
            },
            4 => ProblemSpec::SearchTree {
                nodes: cur.u32()? as usize,
                branch: cur.u32()? as usize,
                seed: cur.u64()?,
            },
            5 => ProblemSpec::TaskList {
                tasks: cur.u32()? as usize,
                heavy: cur.u8()? != 0,
                seed: cur.u64()?,
            },
            other => return Err(bad(format!("unknown problem class tag {other}"))),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range validation shared by the binary decoder (the JSON decoder
    /// enforces the same rules inline, where it can name the offending
    /// field in its wire spelling).
    pub fn validate(&self) -> Result<(), ProtoError> {
        let size = |name: &str, v: usize, min: usize| {
            if v < min || v > MAX_SIZE {
                Err(bad(format!(
                    "problem field \"{name}\" must be in {min}..={MAX_SIZE}"
                )))
            } else {
                Ok(())
            }
        };
        match *self {
            ProblemSpec::Synthetic { weight, lo, hi, .. } => {
                if !weight.is_finite() || weight <= 0.0 {
                    return Err(bad("\"weight\" must be positive"));
                }
                if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi && hi <= 0.5) {
                    return Err(bad("need 0 < lo <= hi <= 0.5"));
                }
            }
            ProblemSpec::FeTree {
                refinements, bias, ..
            } => {
                size("refinements", refinements, 1)?;
                if !(bias.is_finite() && (0.0..=1.0).contains(&bias)) {
                    return Err(bad("\"bias\" must be in [0, 1]"));
                }
            }
            ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                ..
            } => {
                size("rows", rows, 1)?;
                size("cols", cols, 1)?;
                if rows.saturating_mul(cols) > MAX_SIZE {
                    return Err(bad(format!("grid larger than {MAX_SIZE} cells")));
                }
                if hotspots > 64 {
                    return Err(bad("\"hotspots\" must be an integer in 0..=64"));
                }
            }
            ProblemSpec::Quadrature {
                dims,
                sharpness,
                min_width,
                ..
            } => {
                size("dims", dims, 1)?;
                if dims > gb_problems::quadrature::MAX_DIMS {
                    return Err(bad(format!(
                        "\"dims\" must be at most {}",
                        gb_problems::quadrature::MAX_DIMS
                    )));
                }
                if !(sharpness.is_finite() && sharpness > 0.0) {
                    return Err(bad("\"sharpness\" must be positive"));
                }
                if !(min_width.is_finite() && min_width > 0.0 && min_width <= 0.5) {
                    return Err(bad("\"min_width\" must be in (0, 0.5]"));
                }
            }
            ProblemSpec::SearchTree { nodes, branch, .. } => {
                size("nodes", nodes, 1)?;
                size("branch", branch, 2)?;
                if branch > 64 {
                    return Err(bad("\"branch\" must be at most 64"));
                }
            }
            ProblemSpec::TaskList { tasks, .. } => size("tasks", tasks, 1)?,
        }
        Ok(())
    }

    /// Process-stable fingerprint of the spec; equal specs always agree,
    /// distinct classes never collide on tag.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.str(self.class());
        match *self {
            ProblemSpec::Synthetic {
                weight,
                lo,
                hi,
                seed,
            } => {
                fp.f64(weight).f64(lo).f64(hi).u64(seed);
            }
            ProblemSpec::FeTree {
                refinements,
                bias,
                seed,
            } => {
                fp.usize(refinements).f64(bias).u64(seed);
            }
            ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                seed,
            } => {
                fp.usize(rows).usize(cols).usize(hotspots).u64(seed);
            }
            ProblemSpec::Quadrature {
                dims,
                sharpness,
                min_width,
                seed,
            } => {
                fp.usize(dims).f64(sharpness).f64(min_width).u64(seed);
            }
            ProblemSpec::SearchTree {
                nodes,
                branch,
                seed,
            } => {
                fp.usize(nodes).usize(branch).u64(seed);
            }
            ProblemSpec::TaskList { tasks, heavy, seed } => {
                fp.usize(tasks).u64(heavy as u64).u64(seed);
            }
        }
        fp.finish()
    }

    /// The class α when one is known analytically without building the
    /// problem (synthetic: `lo`, by construction).
    pub fn alpha_hint(&self) -> Option<f64> {
        match *self {
            ProblemSpec::Synthetic { lo, .. } => Some(lo),
            _ => None,
        }
    }

    /// Materialises the problem instance. Costs up to `O(MAX_SIZE)` time
    /// and memory; call from a worker, not the connection thread.
    pub fn build(&self) -> ServiceProblem {
        match *self {
            ProblemSpec::Synthetic {
                weight,
                lo,
                hi,
                seed,
            } => ServiceProblem::Synthetic(SyntheticProblem::new(weight, lo, hi, seed)),
            ProblemSpec::FeTree {
                refinements,
                bias,
                seed,
            } => ServiceProblem::FeTree(FeTree::adaptive(refinements, bias, seed).root_problem()),
            ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                seed,
            } => {
                let grid = if hotspots == 0 {
                    Grid::uniform(rows, cols, seed)
                } else {
                    Grid::hotspots(rows, cols, hotspots, seed)
                };
                ServiceProblem::Grid(grid.root_problem())
            }
            ProblemSpec::Quadrature {
                dims,
                sharpness,
                min_width,
                seed,
            } => ServiceProblem::Quadrature(
                Integrand::gaussian_peak(dims, sharpness, seed).unit_region(min_width),
            ),
            ProblemSpec::SearchTree {
                nodes,
                branch,
                seed,
            } => ServiceProblem::SearchTree(SearchTree::random(nodes, branch, seed).root_problem()),
            ProblemSpec::TaskList { tasks, heavy, seed } => {
                let list = if heavy {
                    TaskList::heavy_tailed(tasks, seed)
                } else {
                    TaskList::uniform(tasks, seed)
                };
                ServiceProblem::TaskList(list.root_problem(seed))
            }
        }
    }
}

impl fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{:016x}", self.class(), self.fingerprint())
    }
}

/// A problem instance of any served class, dispatching [`Bisectable`]
/// to the wrapped concrete type.
#[derive(Debug, Clone)]
pub enum ServiceProblem {
    /// Synthetic stochastic model.
    Synthetic(SyntheticProblem),
    /// FE-tree region.
    FeTree(FeTreeProblem),
    /// Grid region.
    Grid(GridProblem),
    /// Quadrature region.
    Quadrature(Region),
    /// Search-tree slice.
    SearchTree(SearchTreeProblem),
    /// Task-list slice.
    TaskList(TaskListProblem),
}

impl Bisectable for ServiceProblem {
    fn weight(&self) -> f64 {
        match self {
            ServiceProblem::Synthetic(p) => p.weight(),
            ServiceProblem::FeTree(p) => p.weight(),
            ServiceProblem::Grid(p) => p.weight(),
            ServiceProblem::Quadrature(p) => p.weight(),
            ServiceProblem::SearchTree(p) => p.weight(),
            ServiceProblem::TaskList(p) => p.weight(),
        }
    }

    fn bisect(&self) -> (Self, Self) {
        match self {
            ServiceProblem::Synthetic(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::Synthetic(a), ServiceProblem::Synthetic(b))
            }
            ServiceProblem::FeTree(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::FeTree(a), ServiceProblem::FeTree(b))
            }
            ServiceProblem::Grid(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::Grid(a), ServiceProblem::Grid(b))
            }
            ServiceProblem::Quadrature(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::Quadrature(a), ServiceProblem::Quadrature(b))
            }
            ServiceProblem::SearchTree(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::SearchTree(a), ServiceProblem::SearchTree(b))
            }
            ServiceProblem::TaskList(p) => {
                let (a, b) = p.bisect();
                (ServiceProblem::TaskList(a), ServiceProblem::TaskList(b))
            }
        }
    }

    fn can_bisect(&self) -> bool {
        match self {
            ServiceProblem::Synthetic(p) => p.can_bisect(),
            ServiceProblem::FeTree(p) => p.can_bisect(),
            ServiceProblem::Grid(p) => p.can_bisect(),
            ServiceProblem::Quadrature(p) => p.can_bisect(),
            ServiceProblem::SearchTree(p) => p.can_bisect(),
            ServiceProblem::TaskList(p) => p.can_bisect(),
        }
    }
}

impl ServiceProblem {
    /// Analytic class α when the wrapped type provides one.
    pub fn analytic_alpha(&self) -> Option<f64> {
        match self {
            ServiceProblem::Synthetic(p) => Some(p.alpha()),
            ServiceProblem::Quadrature(p) => Some(p.alpha()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// HF moves pieces by value, so their size is part of a miss's cost.
    /// The largest is a quadrature `Region`: its box, its cached weight
    /// and one pointer to what its class shares.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_service_problem_stays_at_120_bytes() {
        assert_eq!(std::mem::size_of::<ServiceProblem>(), 120);
    }

    fn all_specs() -> Vec<ProblemSpec> {
        vec![
            ProblemSpec::Synthetic {
                weight: 1.0,
                lo: 0.2,
                hi: 0.5,
                seed: 1,
            },
            ProblemSpec::FeTree {
                refinements: 100,
                bias: 0.7,
                seed: 2,
            },
            ProblemSpec::Grid {
                rows: 16,
                cols: 16,
                hotspots: 3,
                seed: 3,
            },
            ProblemSpec::Quadrature {
                dims: 2,
                sharpness: 5.0,
                min_width: 0.05,
                seed: 4,
            },
            ProblemSpec::SearchTree {
                nodes: 200,
                branch: 4,
                seed: 5,
            },
            ProblemSpec::TaskList {
                tasks: 64,
                heavy: true,
                seed: 6,
            },
        ]
    }

    #[test]
    fn every_class_round_trips_through_json() {
        for spec in all_specs() {
            let json = spec.to_json();
            let back = ProblemSpec::from_json(&json).unwrap();
            assert_eq!(spec, back, "{spec}");
        }
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        let specs = all_specs();
        for (i, a) in specs.iter().enumerate() {
            assert_eq!(a.fingerprint(), a.clone().fingerprint());
            for b in specs.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a} vs {b}");
            }
        }
        // Seed participates in the fingerprint.
        let a = ProblemSpec::TaskList {
            tasks: 64,
            heavy: false,
            seed: 1,
        };
        let b = ProblemSpec::TaskList {
            tasks: 64,
            heavy: false,
            seed: 2,
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_class_builds_and_bisects() {
        for spec in all_specs() {
            let p = spec.build();
            let w = p.weight();
            assert!(w > 0.0, "{spec}");
            assert!(p.can_bisect(), "{spec}");
            let (a, b) = p.bisect();
            assert!((a.weight() + b.weight() - w).abs() <= 1e-9 * w, "{spec}");
        }
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        // synthetic with hi > 0.5
        let j = Json::parse(r#"{"class":"synthetic","weight":1.0,"lo":0.1,"hi":0.9,"seed":0}"#)
            .unwrap();
        assert!(ProblemSpec::from_json(&j).is_err());
        // oversized grid
        let j = Json::parse(r#"{"class":"grid","rows":1048576,"cols":1048576,"seed":0}"#).unwrap();
        assert!(ProblemSpec::from_json(&j).is_err());
        // unknown class
        let j = Json::parse(r#"{"class":"mystery","seed":0}"#).unwrap();
        assert!(ProblemSpec::from_json(&j).is_err());
        // quadrature beyond MAX_DIMS
        let j = Json::parse(r#"{"class":"quadrature","dims":7,"sharpness":1.0,"seed":0}"#).unwrap();
        assert!(ProblemSpec::from_json(&j).is_err());
    }

    #[test]
    fn deterministic_rebuild_bisects_identically() {
        let spec = ProblemSpec::Grid {
            rows: 12,
            cols: 9,
            hotspots: 2,
            seed: 11,
        };
        let (a1, b1) = spec.build().bisect();
        let (a2, b2) = spec.build().bisect();
        assert_eq!(a1.weight(), a2.weight());
        assert_eq!(b1.weight(), b2.weight());
    }
}
