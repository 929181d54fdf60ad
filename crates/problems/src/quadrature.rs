//! Multi-dimensional adaptive quadrature regions.
//!
//! The paper lists "multi-dimensional adaptive numerical quadrature" \[4\]
//! among the applications of bisection-based load balancing. We model the
//! work of integrating a region as the integral of a positive, separable
//! **work density** over the region: adaptive quadrature spends effort
//! where the integrand is large or ill-behaved, so the density plays the
//! role of a cost surface. Because every factor of the density has a
//! closed-form antiderivative, region weights are *analytic integrals* —
//! additive under splitting by construction (up to floating-point
//! rounding).
//!
//! A [`Region`] is an axis-aligned box; bisection halves the widest
//! dimension at its midpoint. The class has a provable α:
//! if `g_min`/`g_max` are the density extremes over the root box, every
//! midpoint split of every subregion gives each half at least
//! `g_min/(2·g_max)` of the weight ([`Integrand::alpha_bound`]), since
//! each half has exactly half the volume. The bound only tightens on
//! subregions, so it is a genuine class-level α in the sense of
//! Definition 1.

use std::sync::Arc;

use gb_core::problem::{AlphaBisectable, Bisectable};
use gb_core::rng::Xoshiro256StarStar;

/// Maximum number of dimensions supported (keeps [`Region`] `Copy`-cheap).
pub const MAX_DIMS: usize = 6;

/// One separable factor `g(x)` of a work density `Π_d g_d(x_d)`.
///
/// All factors are strictly positive on `[0, 1]` for valid parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Factor {
    /// `g(x) = exp(c·x)` — exponential concentration towards one face.
    Exp {
        /// Growth rate.
        c: f64,
    },
    /// `g(x) = 1 / ((x − peak)² + s²)` — a peak at `peak` of sharpness `1/s`.
    Peak {
        /// Peak location.
        peak: f64,
        /// Peak width (must be positive).
        s: f64,
    },
    /// `g(x) = 1 + b·sin(ω·x + φ)` — oscillatory density, `|b| < 1`.
    Oscillatory {
        /// Amplitude, `|b| < 1` keeps the density positive.
        b: f64,
        /// Angular frequency.
        omega: f64,
        /// Phase.
        phi: f64,
    },
    /// `g(x) = (x + a)^k` — polynomial growth, `a > 0`, `k ≥ 0`.
    Power {
        /// Offset (must be positive).
        a: f64,
        /// Exponent.
        k: i32,
    },
}

impl Factor {
    /// The exact integral `∫_lo^hi g(x) dx`.
    pub fn integral(&self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        match *self {
            Factor::Exp { c } => {
                if c.abs() < 1e-12 {
                    hi - lo
                } else {
                    ((c * hi).exp() - (c * lo).exp()) / c
                }
            }
            Factor::Peak { peak, s } => (((hi - peak) / s).atan() - ((lo - peak) / s).atan()) / s,
            Factor::Oscillatory { b, omega, phi } => {
                if omega.abs() < 1e-12 {
                    (hi - lo) * (1.0 + b * phi.sin())
                } else {
                    (hi - lo) - (b / omega) * ((omega * hi + phi).cos() - (omega * lo + phi).cos())
                }
            }
            Factor::Power { a, k } => {
                let kk = k as f64 + 1.0;
                ((hi + a).powi(k + 1) - (lo + a).powi(k + 1)) / kk
            }
        }
    }

    /// The pointwise value `g(x)`.
    pub fn value(&self, x: f64) -> f64 {
        match *self {
            Factor::Exp { c } => (c * x).exp(),
            Factor::Peak { peak, s } => 1.0 / ((x - peak).powi(2) + s * s),
            Factor::Oscillatory { b, omega, phi } => 1.0 + b * (omega * x + phi).sin(),
            Factor::Power { a, k } => (x + a).powi(k),
        }
    }

    /// Bounds `(min, max)` of `g` over `[lo, hi]`.
    pub fn min_max(&self, lo: f64, hi: f64) -> (f64, f64) {
        match *self {
            Factor::Exp { .. } | Factor::Power { .. } => {
                // Monotone: extremes at the endpoints.
                let a = self.value(lo);
                let b = self.value(hi);
                (a.min(b), a.max(b))
            }
            Factor::Peak { peak, s: _ } => {
                let mut min = self.value(lo).min(self.value(hi));
                let mut max = self.value(lo).max(self.value(hi));
                if (lo..=hi).contains(&peak) {
                    max = max.max(self.value(peak));
                }
                // Minimum of a unimodal peak is at an endpoint.
                min = min.min(self.value(lo)).min(self.value(hi));
                (min, max)
            }
            Factor::Oscillatory { b, omega, phi } => {
                let mut min = self.value(lo).min(self.value(hi));
                let mut max = self.value(lo).max(self.value(hi));
                if omega.abs() > 1e-12 {
                    // Interior extrema where sin(ωx+φ) = ±1.
                    let half_pi = std::f64::consts::FRAC_PI_2;
                    let k_lo = ((omega * lo + phi - half_pi) / std::f64::consts::PI).ceil() as i64;
                    let k_hi = ((omega * hi + phi - half_pi) / std::f64::consts::PI).floor() as i64;
                    if k_hi >= k_lo {
                        // Both +1 and −1 are attained if at least two
                        // critical points fall inside; otherwise one of them.
                        for k in k_lo..=k_hi.min(k_lo + 1) {
                            let x = (half_pi + k as f64 * std::f64::consts::PI - phi) / omega;
                            let v = self.value(x);
                            min = min.min(v);
                            max = max.max(v);
                        }
                    }
                } else {
                    let v = 1.0 + b * phi.sin();
                    min = min.min(v);
                    max = max.max(v);
                }
                (min, max)
            }
        }
    }

    /// Validates that the factor is strictly positive on `[0, 1]`.
    fn validate(&self) {
        match *self {
            Factor::Exp { c } => assert!(c.is_finite(), "Exp c must be finite"),
            Factor::Peak { peak, s } => {
                assert!(s.is_finite() && s > 0.0, "Peak s must be positive");
                assert!(peak.is_finite());
            }
            Factor::Oscillatory { b, omega, phi } => {
                assert!(b.abs() < 1.0, "Oscillatory needs |b| < 1, got {b}");
                assert!(omega.is_finite() && phi.is_finite());
            }
            Factor::Power { a, k } => {
                assert!(a > 0.0 && a.is_finite(), "Power a must be positive");
                assert!(k >= 0, "Power k must be non-negative");
            }
        }
    }
}

/// A separable positive work density `Π_d g_d(x_d)` over `[0, 1]^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Integrand {
    factors: Vec<Factor>,
}

impl Integrand {
    /// Creates an integrand from one factor per dimension.
    ///
    /// # Panics
    /// Panics if there are no factors, more than [`MAX_DIMS`], or a factor
    /// has invalid parameters.
    pub fn new(factors: Vec<Factor>) -> Arc<Self> {
        assert!(
            !factors.is_empty() && factors.len() <= MAX_DIMS,
            "need 1..={MAX_DIMS} factors"
        );
        for f in &factors {
            f.validate();
        }
        Arc::new(Self { factors })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.factors.len()
    }

    /// Genz-style "Gaussian peak": a sharp peak at a random interior point
    /// in each dimension.
    pub fn gaussian_peak(dims: usize, sharpness: f64, seed: u64) -> Arc<Self> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Self::new(
            (0..dims)
                .map(|_| Factor::Peak {
                    peak: rng.range_f64(0.2, 0.8),
                    s: sharpness,
                })
                .collect(),
        )
    }

    /// Genz-style "corner peak": density concentrated at the origin corner.
    pub fn corner_peak(dims: usize, strength: f64) -> Arc<Self> {
        Self::new((0..dims).map(|_| Factor::Exp { c: -strength }).collect())
    }

    /// Genz-style "oscillatory": positive oscillation in every dimension.
    pub fn oscillatory(dims: usize, seed: u64) -> Arc<Self> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Self::new(
            (0..dims)
                .map(|_| Factor::Oscillatory {
                    b: rng.range_f64(0.3, 0.8),
                    omega: rng.range_f64(4.0, 12.0),
                    phi: rng.range_f64(0.0, std::f64::consts::TAU),
                })
                .collect(),
        )
    }

    /// The class α on a given box: `g_min / (2·g_max)` where `g_min`,
    /// `g_max` bound the density over the box (see module docs). Clamped
    /// to `(0, 1/2]`.
    pub fn alpha_bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut gmin = 1.0f64;
        let mut gmax = 1.0f64;
        for (d, f) in self.factors.iter().enumerate() {
            let (mn, mx) = f.min_max(lo[d], hi[d]);
            gmin *= mn;
            gmax *= mx;
        }
        (gmin / (2.0 * gmax)).min(0.5)
    }

    /// Wraps the unit box `[0, 1]^d` into the root problem, atomic below
    /// width `min_width`.
    pub fn unit_region(self: &Arc<Self>, min_width: f64) -> Region {
        let d = self.dims();
        let lo = [0.0; MAX_DIMS];
        let mut hi = [0.0; MAX_DIMS];
        hi[..d].fill(1.0);
        let alpha = self.alpha_bound(&lo[..d], &hi[..d]);
        let class = Arc::new(RegionClass {
            integrand: Arc::clone(self),
            alpha,
            min_width,
        });
        Region::new(class, lo, hi)
    }

    /// The exact integral of the density over the box `lo × hi`.
    fn integral(&self, lo: &[f64; MAX_DIMS], hi: &[f64; MAX_DIMS]) -> f64 {
        let mut w = 1.0;
        for (d, f) in self.factors.iter().enumerate() {
            w *= f.integral(lo[d], hi[d]);
        }
        w
    }
}

/// What every region cut from one root box shares.
#[derive(Debug)]
struct RegionClass {
    integrand: Arc<Integrand>,
    /// Class α, computed once on the root box (valid for all subregions).
    alpha: f64,
    min_width: f64,
}

/// An axis-aligned box with an attached work density; the problem type of
/// the quadrature class.
#[derive(Debug, Clone)]
pub struct Region {
    class: Arc<RegionClass>,
    lo: [f64; MAX_DIMS],
    hi: [f64; MAX_DIMS],
    /// The integral over the box, computed when the box is made.
    weight: f64,
}

impl Region {
    fn new(class: Arc<RegionClass>, lo: [f64; MAX_DIMS], hi: [f64; MAX_DIMS]) -> Self {
        let weight = class.integrand.integral(&lo, &hi);
        Self {
            class,
            lo,
            hi,
            weight,
        }
    }

    /// The box bounds of dimension `d`.
    pub fn bounds(&self, d: usize) -> (f64, f64) {
        assert!(d < self.class.integrand.dims());
        (self.lo[d], self.hi[d])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.class.integrand.dims()
    }

    /// The dimension the next bisection will split (widest; ties lowest).
    pub fn widest_dim(&self) -> usize {
        let d = self.class.integrand.dims();
        let mut best = 0;
        let mut best_w = self.hi[0] - self.lo[0];
        for i in 1..d {
            let w = self.hi[i] - self.lo[i];
            if w > best_w {
                best_w = w;
                best = i;
            }
        }
        best
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.hi[d] - self.lo[d]).product()
    }
}

impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.class.integrand, &other.class.integrand)
            && self.lo == other.lo
            && self.hi == other.hi
    }
}

impl Bisectable for Region {
    fn weight(&self) -> f64 {
        self.weight
    }

    fn bisect(&self) -> (Self, Self) {
        debug_assert!(self.can_bisect());
        let d = self.widest_dim();
        let mid = 0.5 * (self.lo[d] + self.hi[d]);
        let (mut a_hi, mut b_lo) = (self.hi, self.lo);
        a_hi[d] = mid;
        b_lo[d] = mid;
        (
            Self::new(Arc::clone(&self.class), self.lo, a_hi),
            Self::new(Arc::clone(&self.class), b_lo, self.hi),
        )
    }

    fn can_bisect(&self) -> bool {
        let d = self.widest_dim();
        self.hi[d] - self.lo[d] > self.class.min_width
    }
}

impl AlphaBisectable for Region {
    fn alpha(&self) -> f64 {
        self.class.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::bounds::hf_upper_bound;
    use gb_core::hf::{hf, hf_traced};
    use gb_core::problem::validate_bisection;

    fn numeric_integral(f: &Factor, lo: f64, hi: f64) -> f64 {
        // Simpson's rule with many panels, for cross-checking.
        let n = 4000;
        let h = (hi - lo) / n as f64;
        let mut s = f.value(lo) + f.value(hi);
        for i in 1..n {
            let x = lo + i as f64 * h;
            s += if i % 2 == 1 { 4.0 } else { 2.0 } * f.value(x);
        }
        s * h / 3.0
    }

    #[test]
    fn factor_integrals_match_numeric() {
        let factors = [
            Factor::Exp { c: 2.5 },
            Factor::Exp { c: -1.0 },
            Factor::Exp { c: 0.0 },
            Factor::Peak { peak: 0.3, s: 0.05 },
            Factor::Oscillatory {
                b: 0.7,
                omega: 9.0,
                phi: 1.0,
            },
            Factor::Power { a: 0.5, k: 3 },
        ];
        for f in &factors {
            let exact = f.integral(0.1, 0.9);
            let approx = numeric_integral(f, 0.1, 0.9);
            assert!(
                (exact - approx).abs() < 1e-6 * exact.abs().max(1.0),
                "{f:?}: exact {exact} vs numeric {approx}"
            );
        }
    }

    #[test]
    fn factor_min_max_brackets_samples() {
        let factors = [
            Factor::Exp { c: 3.0 },
            Factor::Peak { peak: 0.5, s: 0.1 },
            Factor::Oscillatory {
                b: 0.6,
                omega: 15.0,
                phi: 0.3,
            },
            Factor::Power { a: 0.2, k: 4 },
        ];
        for f in &factors {
            let (lo, hi) = (0.05, 0.95);
            let (mn, mx) = f.min_max(lo, hi);
            assert!(mn > 0.0, "{f:?} density must be positive");
            for i in 0..=400 {
                let x = lo + (hi - lo) * i as f64 / 400.0;
                let v = f.value(x);
                assert!(
                    v >= mn - 1e-9 && v <= mx + 1e-9,
                    "{f:?} at {x}: {v} outside [{mn}, {mx}]"
                );
            }
        }
    }

    #[test]
    fn region_bisection_conserves_weight() {
        let integrand = Integrand::gaussian_peak(3, 0.1, 5);
        let r = integrand.unit_region(1e-6);
        let (a, b) = r.bisect();
        assert!(
            (a.weight() + b.weight() - r.weight()).abs() < 1e-9 * r.weight(),
            "weight not conserved"
        );
    }

    #[test]
    fn region_splits_widest_dimension() {
        let integrand = Integrand::corner_peak(2, 1.0);
        let r = integrand.unit_region(1e-6);
        let (a, _) = r.bisect(); // square: ties → dim 0
        assert_eq!(a.bounds(0), (0.0, 0.5));
        assert_eq!(a.bounds(1), (0.0, 1.0));
        let (aa, _) = a.bisect(); // now dim 1 is widest
        assert_eq!(aa.bounds(1), (0.0, 0.5));
    }

    #[test]
    fn alpha_bound_is_honoured_by_every_bisection() {
        for seed in 0..4 {
            let integrand = Integrand::gaussian_peak(2, 0.2, seed);
            let r = integrand.unit_region(1e-9);
            let alpha = r.alpha();
            assert!(alpha > 0.0 && alpha <= 0.5);
            let (_, tree) = hf_traced(r, 256);
            for (_, node) in tree.iter() {
                if let Some((l, rr)) = node.children {
                    validate_bisection(
                        node.weight,
                        tree.node(l).weight,
                        tree.node(rr).weight,
                        alpha,
                        1e-9,
                    )
                    .unwrap();
                }
            }
        }
    }

    #[test]
    fn hf_ratio_within_bound_for_quadrature() {
        let integrand = Integrand::oscillatory(3, 11);
        let r = integrand.unit_region(1e-9);
        let alpha = r.alpha();
        let part = hf(r, 64);
        assert_eq!(part.len(), 64);
        assert!(part.ratio() <= hf_upper_bound(alpha, 64) + 1e-9);
    }

    #[test]
    fn atomicity_respects_min_width() {
        let integrand = Integrand::corner_peak(1, 2.0);
        let r = integrand.unit_region(0.3);
        assert!(r.can_bisect()); // width 1.0 > 0.3
        let (a, _) = r.bisect(); // width 0.5
        assert!(a.can_bisect());
        let (aa, _) = a.bisect(); // width 0.25 ≤ 0.3
        assert!(!aa.can_bisect());
    }

    #[test]
    fn volume_halves_on_bisection() {
        let integrand = Integrand::gaussian_peak(4, 0.3, 2);
        let r = integrand.unit_region(1e-9);
        let (a, b) = r.bisect();
        assert!((a.volume() - 0.5).abs() < 1e-12);
        assert!((b.volume() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "|b| < 1")]
    fn oscillatory_rejects_large_amplitude() {
        Integrand::new(vec![Factor::Oscillatory {
            b: 1.5,
            omega: 1.0,
            phi: 0.0,
        }]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn factor_strategy() -> impl Strategy<Value = Factor> {
        prop_oneof![
            (-4.0f64..4.0).prop_map(|c| Factor::Exp { c }),
            ((-0.2f64..1.2), (0.02f64..0.5)).prop_map(|(peak, s)| Factor::Peak { peak, s }),
            (
                (-0.95f64..0.95),
                (0.1f64..20.0),
                (0.0..std::f64::consts::TAU)
            )
                .prop_map(|(b, omega, phi)| Factor::Oscillatory { b, omega, phi }),
            ((0.05f64..2.0), (0i32..5)).prop_map(|(a, k)| Factor::Power { a, k }),
        ]
    }

    proptest! {
        #[test]
        fn prop_integral_is_additive(
            f in factor_strategy(),
            lo in 0.0f64..0.5,
            span in 0.01f64..0.5,
            frac in 0.05f64..0.95,
        ) {
            let hi = lo + span;
            let mid = lo + frac * span;
            let whole = f.integral(lo, hi);
            let parts = f.integral(lo, mid) + f.integral(mid, hi);
            prop_assert!(
                (whole - parts).abs() <= 1e-9 * whole.abs().max(1.0),
                "{f:?}: {whole} vs {parts}"
            );
        }

        #[test]
        fn prop_integral_positive_and_bracketed_by_min_max(
            f in factor_strategy(),
            lo in 0.0f64..0.8,
            span in 0.05f64..0.2,
        ) {
            let hi = lo + span;
            let integral = f.integral(lo, hi);
            let (mn, mx) = f.min_max(lo, hi);
            prop_assert!(mn > 0.0, "{f:?}: min {mn}");
            prop_assert!(integral >= mn * span - 1e-9, "{f:?}");
            prop_assert!(integral <= mx * span + 1e-9, "{f:?}");
        }

        #[test]
        fn prop_region_bisection_conserves(
            dims in 1usize..4,
            seed in any::<u64>(),
        ) {
            let integrand = Integrand::gaussian_peak(dims, 0.2, seed);
            let root = integrand.unit_region(1e-9);
            let (a, b) = {
                use gb_core::problem::Bisectable;
                root.bisect()
            };
            use gb_core::problem::Bisectable;
            prop_assert!(
                (a.weight() + b.weight() - root.weight()).abs()
                    <= 1e-9 * root.weight()
            );
        }
    }
}
