//! Numerically careful running estimators.
//!
//! [`RunningMean`] implements the incremental update of Algorithm 1 line 9,
//! `ν ← (m−1)/m·ν + x/m`, in the standard numerically stable form
//! `ν ← ν + (x − ν)/m`, and [`Extrema`] tracks the observed range, which
//! lets callers sanity-check the `[0, c]` boundedness assumption at run
//! time.

/// Incrementally maintained sample mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    mean: f64,
}

impl RunningMean {
    /// An empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The mean of `count` observations computed elsewhere, e.g. by one
    /// exact pass over a whole group.
    #[must_use]
    pub fn from_parts(count: u64, mean: f64) -> Self {
        Self { count, mean }
    }

    /// Incorporates one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Incorporates a whole batch of observations, bit-identical to
    /// pushing each element in order, so batching can never change an
    /// estimate. The steppers' batched rounds do not call it: they fold
    /// value `j` of every group's batch before value `j + 1`, one
    /// [`Self::push`] at a time, so the groups' divides overlap.
    pub fn push_batch(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Incorporates a batch of `(x, z)` draw/size-estimate pairs as the
    /// products `x·z` — the hook the unknown-group-size `SUM` path
    /// (Algorithm 5) feeds from its batched size-estimating draws.
    /// Bit-identical to pushing each product in order.
    pub fn push_products(&mut self, pairs: &[(f64, f64)]) {
        for &(x, z) in pairs {
            self.push(x * z);
        }
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; `0.0` before any observation (matching an estimate
    /// initialized to the empty sum).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Whether any observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another running mean into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMean) {
        if other.count == 0 {
            return;
        }
        let total = self.count + other.count;
        let w = other.count as f64 / total as f64;
        self.mean += (other.mean - self.mean) * w;
        self.count = total;
    }
}

/// Running minimum/maximum tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrema {
    min: f64,
    max: f64,
    count: u64,
}

impl Default for Extrema {
    fn default() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }
}

impl Extrema {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporates one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observed minimum; `None` before any observation.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Observed maximum; `None` before any observation.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Observed range width; `None` before any observation.
    #[must_use]
    pub fn range(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max - self.min)
    }

    /// Whether all observations so far lie within `[0, c]`.
    #[must_use]
    pub fn within_bound(&self, c: f64) -> bool {
        self.count == 0 || (self.min >= 0.0 && self.max <= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_exact_small() {
        let mut rm = RunningMean::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            rm.push(x);
        }
        assert_eq!(rm.count(), 4);
        assert!((rm.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn running_mean_empty() {
        let rm = RunningMean::new();
        assert!(rm.is_empty());
        assert_eq!(rm.mean(), 0.0);
    }

    #[test]
    fn running_mean_merge_matches_pooled() {
        let mut a = RunningMean::new();
        let mut b = RunningMean::new();
        for x in [1.0, 5.0, 9.0] {
            a.push(x);
        }
        for x in [2.0, 4.0] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert!((a.mean() - 4.2).abs() < 1e-12);
    }

    #[test]
    fn push_batch_bit_identical_to_singles() {
        let xs: Vec<f64> = (0..57)
            .map(|i| (f64::from(i)).sin() * 40.0 + 50.0)
            .collect();
        let mut singles = RunningMean::new();
        for &x in &xs {
            singles.push(x);
        }
        let mut batched = RunningMean::new();
        batched.push_batch(&xs[..20]);
        batched.push_batch(&xs[20..]);
        assert_eq!(batched, singles, "batching must not change the estimate");
    }

    #[test]
    fn push_products_bit_identical_to_singles() {
        let pairs: Vec<(f64, f64)> = (0..31)
            .map(|i| (f64::from(i) * 3.0, f64::from(i % 2)))
            .collect();
        let mut singles = RunningMean::new();
        for &(x, z) in &pairs {
            singles.push(x * z);
        }
        let mut batched = RunningMean::new();
        batched.push_products(&pairs);
        assert_eq!(batched, singles);
    }

    #[test]
    fn running_mean_merge_empty_is_noop() {
        let mut a = RunningMean::new();
        a.push(7.0);
        let before = a;
        a.merge(&RunningMean::new());
        assert_eq!(a, before);
    }

    #[test]
    fn extrema_basic() {
        let mut e = Extrema::new();
        assert_eq!(e.min(), None);
        assert!(e.within_bound(1.0), "vacuous before observations");
        for x in [3.0, -1.0, 7.0, 0.5] {
            e.push(x);
        }
        assert_eq!(e.min(), Some(-1.0));
        assert_eq!(e.max(), Some(7.0));
        assert_eq!(e.range(), Some(8.0));
        assert!(!e.within_bound(10.0), "negative value violates [0, c]");
    }

    #[test]
    fn extrema_within_bound() {
        let mut e = Extrema::new();
        for x in [0.0, 50.0, 100.0] {
            e.push(x);
        }
        assert!(e.within_bound(100.0));
        assert!(!e.within_bound(99.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn running_mean_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut rm = RunningMean::new();
            for &x in &xs {
                rm.push(x);
            }
            let naive = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((rm.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        }

        #[test]
        fn extrema_bounds_every_observation(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        ) {
            let mut e = Extrema::new();
            for &x in &xs {
                e.push(x);
            }
            let (min, max) = (e.min().unwrap(), e.max().unwrap());
            for &x in &xs {
                prop_assert!(min <= x && x <= max);
            }
        }
    }
}
