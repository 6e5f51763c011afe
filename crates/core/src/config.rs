//! Algorithm configuration.

use rapidviz_stats::{EpsilonSchedule, SamplingMode};

/// Shared configuration for every algorithm in this crate.
///
/// `c` and `δ` are the two parameters Problem 1 requires; everything else
/// defaults to the paper's experimental choices (sampling without
/// replacement, no resolution relaxation, no heuristic shrinking). The
/// anytime schedule's epoch base is the paper's `κ = 1`, and a deactivated
/// group never returns to the active set (§3.1's option (a), which keeps
/// the sample-complexity optimality proof).
#[derive(Debug, Clone)]
pub struct AlgoConfig {
    /// Upper bound `c` on any individual value (values live in `[0, c]`).
    pub c: f64,
    /// Failure probability `δ`: ordering is correct w.p. `≥ 1 − δ`.
    pub delta: f64,
    /// Minimum resolution `r` (Problem 2). `None` = exact ordering
    /// (Problem 1); `Some(r)` stops refining once `ε_m < r/4`.
    pub resolution: Option<f64>,
    /// With or without replacement (§3.6).
    pub mode: SamplingMode,
    /// Heuristic confidence-shrink factor `h ≥ 1` (Figures 5a/5b). `1.0`
    /// (no shrinking) preserves the correctness guarantee.
    pub heuristic_factor: f64,
    /// Hard cap on rounds, as a runaway guard for with-replacement runs on
    /// adversarial data. `u64::MAX` = no cap. Without replacement the
    /// schedule's exhaustion collapse bounds rounds by `max_i n_i` already.
    pub max_rounds: u64,
    /// Samples drawn per active group per round (default 1, the paper's
    /// Algorithm 1). Larger batches amortize the per-round overlap
    /// bookkeeping at the cost of up to `b − 1` overshoot samples per
    /// group; the anytime bound is checked at the post-batch `m`, so
    /// correctness is unaffected. Ablated in the benches.
    pub samples_per_round: u64,
    /// Hard cap on samples drawn from any single group. Matters for
    /// IREFINE, whose per-phase batches quadruple: a batch that would
    /// exceed the remaining budget retires the group instead (the run is
    /// marked truncated). `u64::MAX` = no cap.
    pub max_samples_per_group: u64,
}

impl AlgoConfig {
    /// Paper-default configuration for values in `[0, c]` and failure
    /// probability `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `δ ∉ (0, 1)`.
    #[must_use]
    pub fn new(c: f64, delta: f64) -> Self {
        assert!(c > 0.0, "range c must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        Self {
            c,
            delta,
            resolution: None,
            mode: SamplingMode::WithoutReplacement,
            heuristic_factor: 1.0,
            max_rounds: u64::MAX,
            max_samples_per_group: u64::MAX,
            samples_per_round: 1,
        }
    }

    /// Sets the minimum resolution `r` (the `-R` algorithm variants).
    ///
    /// # Panics
    ///
    /// Panics if `r <= 0`.
    #[must_use]
    pub fn with_resolution(mut self, r: f64) -> Self {
        assert!(r > 0.0, "resolution must be positive");
        self.resolution = Some(r);
        self
    }

    /// Sets the sampling mode.
    #[must_use]
    pub fn with_mode(mut self, mode: SamplingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the heuristic shrink factor (≥ 1).
    #[must_use]
    pub fn with_heuristic_factor(mut self, h: f64) -> Self {
        assert!(h >= 1.0, "heuristic factor must be >= 1");
        self.heuristic_factor = h;
        self
    }

    /// Caps the number of rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, cap: u64) -> Self {
        self.max_rounds = cap;
        self
    }

    /// Caps the samples drawn from any single group.
    #[must_use]
    pub fn with_max_samples_per_group(mut self, cap: u64) -> Self {
        self.max_samples_per_group = cap;
        self
    }

    /// Sets the per-round batch size (>= 1).
    #[must_use]
    pub fn with_samples_per_round(mut self, b: u64) -> Self {
        assert!(b >= 1, "batch size must be at least 1");
        self.samples_per_round = b;
        self
    }

    /// Builds the ε-schedule this configuration induces for `k` groups.
    #[must_use]
    pub fn schedule(&self, k: usize) -> EpsilonSchedule {
        EpsilonSchedule::with_options(self.c, self.delta, k, self.mode, self.heuristic_factor)
    }

    /// The ε threshold below which the resolution relaxation allows
    /// termination (`r/4`, §3.6), or `None` without a resolution.
    #[must_use]
    pub fn resolution_epsilon(&self) -> Option<f64> {
        self.resolution.map(|r| r / 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AlgoConfig::new(100.0, 0.05);
        assert_eq!(c.mode, SamplingMode::WithoutReplacement);
        assert_eq!(c.heuristic_factor, 1.0);
        assert_eq!(c.resolution, None);
        assert_eq!(c.resolution_epsilon(), None);
    }

    #[test]
    fn builder_chain() {
        let c = AlgoConfig::new(100.0, 0.05)
            .with_resolution(1.0)
            .with_mode(SamplingMode::WithReplacement)
            .with_heuristic_factor(2.0)
            .with_max_rounds(1000);
        assert_eq!(c.resolution, Some(1.0));
        assert_eq!(c.resolution_epsilon(), Some(0.25));
        assert_eq!(c.mode, SamplingMode::WithReplacement);
        assert_eq!(c.max_rounds, 1000);
    }

    #[test]
    fn batch_size_builder() {
        let c = AlgoConfig::new(1.0, 0.05).with_samples_per_round(16);
        assert_eq!(c.samples_per_round, 16);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn rejects_zero_batch() {
        let _ = AlgoConfig::new(1.0, 0.05).with_samples_per_round(0);
    }

    #[test]
    fn schedule_inherits_options() {
        let c = AlgoConfig::new(50.0, 0.1).with_heuristic_factor(4.0);
        let s = c.schedule(10);
        assert_eq!(s.c(), 50.0);
        assert_eq!(s.delta(), 0.1);
        assert_eq!(s.k(), 10);
        assert_eq!(s.heuristic_factor(), 4.0);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn rejects_bad_resolution() {
        let _ = AlgoConfig::new(1.0, 0.05).with_resolution(0.0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        let _ = AlgoConfig::new(1.0, 0.0);
    }
}
