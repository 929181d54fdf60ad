//! Streaming statistics used by the simulation study.
//!
//! The paper reports, over 1000 trials per configuration, the minimum,
//! sample mean, maximum and sample variance of the observed load-balance
//! ratio. [`Welford`] accumulates exactly those moments in one pass with
//! good numerical behaviour; [`Summary`] is the frozen result.

/// One-pass accumulator for count/mean/variance/min/max (Welford's method).
#[derive(Debug, Clone, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freezes the accumulator into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            variance: self.variance(),
            min: self.min,
            max: self.max,
        }
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Frozen summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation.
///
/// Sorts a copy of the data; intended for modest, report-sized samples.
///
/// # Panics
/// Panics if the sample is empty, `q` is outside `[0, 1]`, or the data
/// contains NaN.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q = {q} outside [0, 1]");
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() <= eps, "{a} vs {b}");
    }

    #[test]
    fn empty_accumulator() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
    }

    #[test]
    fn single_value() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.min(), 3.5);
        assert_eq!(w.max(), 3.5);
        assert!(w.variance().is_nan());
    }

    #[test]
    fn known_mean_and_variance() {
        let mut w = Welford::new();
        w.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_close(w.mean(), 5.0, 1e-12);
        // Population variance is 4; unbiased sample variance is 32/7.
        assert_close(w.variance(), 32.0 / 7.0, 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let mut all = Welford::new();
        all.extend(data.iter().copied());

        let mut a = Welford::new();
        let mut b = Welford::new();
        a.extend(data[..313].iter().copied());
        b.extend(data[313..].iter().copied());
        a.merge(&b);

        assert_eq!(a.count(), all.count());
        assert_close(a.mean(), all.mean(), 1e-9);
        assert_close(a.variance(), all.variance(), 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&Welford::new());
        assert_eq!(a, before);

        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert_close(quantile(&data, 0.5), 2.5, 1e-12);
        assert_close(quantile(&data, 0.25), 1.75, 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn summary_round_trip() {
        let mut w = Welford::new();
        w.extend([1.0, 3.0]);
        let s = w.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        assert_close(s.variance, 2.0, 1e-12);
        assert_close(s.std_dev(), 2f64.sqrt(), 1e-12);
    }
}
