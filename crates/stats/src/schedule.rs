//! The anytime (iterated-logarithm) confidence schedule of Algorithm 1.
//!
//! Line 6 of IFOCUS sets, at round `m`,
//!
//! ```text
//!            ┌──────────────────────────────────────────────────────────┐
//! ε_m = c · √│ (1 − (m/κ − 1)/N) · (2·log log_κ(m) + log(π²k/(3δ)))     │
//!            │ ──────────────────────────────────────────────────────── │
//!            │                       2·m/κ                              │
//!            └──────────────────────────────────────────────────────────┘
//! ```
//!
//! where `N = max_{i∈A} n_i` is the largest active-group population. The
//! schedule is *anytime*: by Theorem 3.2 (the paper's adaptation of the Law
//! of the Iterated Logarithm upper-bound argument over geometric epochs
//! `κ^{r−1} ≤ m ≤ κ^r`), with probability `1 − δ/k` the running mean of one
//! group stays within `±ε_m` of its true mean **simultaneously for every
//! round** `m ≥ 1` — which is exactly what the stopping rule needs.
//!
//! Paper-faithful details implemented here:
//!
//! * **κ = 1.** The paper admits any epoch base `κ ≥ 1`; its experiments
//!   use `κ = 1`, and so does this schedule. There `log_κ` degenerates, so
//!   (per the paper's footnote †) the `log log_κ m` term falls back to
//!   `log(ln m)`. We additionally clamp the iterated logarithm at zero from
//!   below so `m ∈ {1, 2}` yields a valid (conservative) width rather than
//!   NaN.
//! * **Sampling mode.** Without replacement retains the Serfling factor
//!   `1 − (m − 1)/N`; with replacement drops it (§3.6), in which case the
//!   schedule does not need the group sizes at all.
//! * **Heuristic factor.** Figures 5a/5b study dividing ε by a factor
//!   `h ≥ 1`; `h = 1` is the prescribed schedule.

use crate::serfling::serfling_sampling_fraction_factor;

/// Whether per-group samples are drawn with or without replacement (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingMode {
    /// Sampling without replacement: Hoeffding–Serfling factor applies and
    /// intervals collapse as a group nears exhaustion. Paper default.
    #[default]
    WithoutReplacement,
    /// I.i.d. sampling with replacement: plain Hoeffding; group sizes are
    /// not needed.
    WithReplacement,
}

/// The anytime ε-schedule of Algorithm 1 line 6.
///
/// Construct once per query (it captures `c`, `δ`, `k`, the sampling
/// mode, and the heuristic factor) and call [`EpsilonSchedule::half_width`]
/// each round.
///
/// ```
/// use rapidviz_stats::EpsilonSchedule;
///
/// // 10 groups of values in [0, 100], overall failure probability 5%.
/// let schedule = EpsilonSchedule::new(100.0, 0.05, 10);
/// let group_size = 1_000_000;
///
/// // The half-width shrinks as rounds accumulate...
/// assert!(schedule.half_width(10_000, group_size) < schedule.half_width(100, group_size));
/// // ...and collapses to zero when a group is exhausted (without
/// // replacement, the empirical mean then IS the true mean).
/// assert_eq!(schedule.half_width(group_size + 1, group_size), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EpsilonSchedule {
    c: f64,
    delta: f64,
    k: usize,
    mode: SamplingMode,
    heuristic_factor: f64,
    /// Precomputed `ln(π²·k / (3δ))`.
    delta_term: f64,
}

impl EpsilonSchedule {
    /// Creates the schedule for `k` groups of values in `[0, c]` with overall
    /// failure probability `δ`, `κ = 1`, without replacement, and no
    /// heuristic shrinking — the paper's experimental configuration.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`, `δ ∉ (0, 1)`, or `k == 0`.
    #[must_use]
    pub fn new(c: f64, delta: f64, k: usize) -> Self {
        Self::with_options(c, delta, k, SamplingMode::WithoutReplacement, 1.0)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`, `δ ∉ (0, 1)`, `k == 0`, or
    /// `heuristic_factor < 1`.
    #[must_use]
    pub fn with_options(
        c: f64,
        delta: f64,
        k: usize,
        mode: SamplingMode,
        heuristic_factor: f64,
    ) -> Self {
        assert!(c > 0.0, "range c must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        assert!(k > 0, "need at least one group");
        assert!(
            heuristic_factor >= 1.0,
            "heuristic factor < 1 would widen intervals past the proof"
        );
        let delta_term = (std::f64::consts::PI.powi(2) * k as f64 / (3.0 * delta)).ln();
        Self {
            c,
            delta,
            k,
            mode,
            heuristic_factor,
            delta_term,
        }
    }

    /// The value range bound `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The overall failure probability `δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of groups `k` the union bound is split across.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sampling mode.
    #[must_use]
    pub fn mode(&self) -> SamplingMode {
        self.mode
    }

    /// The heuristic shrink factor `h` (ε is divided by `h`).
    #[must_use]
    pub fn heuristic_factor(&self) -> f64 {
        self.heuristic_factor
    }

    /// The `ln(π²k/(3δ))` additive term.
    #[must_use]
    pub fn delta_term(&self) -> f64 {
        self.delta_term
    }

    /// The iterated-logarithm term: `ln(ln m)` (the paper's footnote's
    /// substitute for `ln(log_κ m)` at `κ = 1`), floored so early rounds
    /// produce a finite, conservative value.
    #[must_use]
    pub fn loglog_term(&self, m: u64) -> f64 {
        let inner = (m.max(1) as f64).ln();
        if inner <= 1.0 {
            0.0
        } else {
            inner.ln()
        }
    }

    /// ε at round `m`, for largest active-group population `n_max`.
    ///
    /// `n_max` is only consulted in [`SamplingMode::WithoutReplacement`];
    /// pass [`u64::MAX`] (or anything) when sampling with replacement.
    ///
    /// Guaranteed finite and non-negative. Returns 0 once a
    /// without-replacement schedule has exhausted the population.
    #[must_use]
    pub fn half_width(&self, m: u64, n_max: u64) -> f64 {
        let m = m.max(1);
        let numerator = 2.0 * self.loglog_term(m) + self.delta_term;
        let factor = match self.mode {
            SamplingMode::WithReplacement => 1.0,
            // 1 − (m − 1)/N, clamped: the Serfling factor.
            SamplingMode::WithoutReplacement => serfling_sampling_fraction_factor(m, n_max.max(1)),
        };
        let eps = self.c * (factor * numerator / (2.0 * m as f64)).sqrt();
        eps / self.heuristic_factor
    }

    /// Smallest round `m` at which `half_width(m, n_max) < target`, found by
    /// galloping + binary search. Returns `None` if no `m ≤ m_cap` achieves
    /// it (with replacement the width decays like `sqrt(log log m / m)`, so
    /// every positive target is eventually reached; the cap guards callers).
    #[must_use]
    pub fn rounds_to_reach(&self, target: f64, n_max: u64, m_cap: u64) -> Option<u64> {
        assert!(target > 0.0, "target half-width must be positive");
        if self.half_width(1, n_max) < target {
            return Some(1);
        }
        // Gallop for an upper bound where the width drops below target.
        let mut hi = 2u64;
        while hi < m_cap && self.half_width(hi, n_max) >= target {
            hi = hi.saturating_mul(2);
        }
        if hi >= m_cap && self.half_width(m_cap, n_max) >= target {
            return None;
        }
        let hi = hi.min(m_cap);
        // Binary search in (lo, hi]: width(lo) >= target > width(hi).
        // The schedule is not perfectly monotone at tiny m because of the
        // loglog clamp, but is monotone non-increasing for m >= 2; the search
        // is still valid because we only need *some* round where the width is
        // below target and all later rounds stay below (verified in tests).
        let mut lo = hi / 2;
        let mut hi = hi;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.half_width(mid, n_max) < target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(delta: f64, k: usize) -> EpsilonSchedule {
        EpsilonSchedule::new(1.0, delta, k)
    }

    #[test]
    fn first_round_is_finite_and_positive() {
        let s = sched(0.05, 10);
        let e = s.half_width(1, 1_000_000);
        assert!(e.is_finite() && e > 0.0, "epsilon at m=1 was {e}");
    }

    #[test]
    fn monotone_non_increasing_from_round_two() {
        let s = sched(0.05, 10);
        let mut prev = s.half_width(2, 1_000_000);
        for m in 3..5000 {
            let e = s.half_width(m, 1_000_000);
            assert!(
                e <= prev + 1e-12,
                "epsilon increased at m={m}: {prev} -> {e}"
            );
            prev = e;
        }
    }

    #[test]
    fn delta_term_value() {
        // ln(pi^2 * 10 / (3 * 0.05)) = ln(657.97...) ≈ 6.489.
        let s = sched(0.05, 10);
        let expect = (std::f64::consts::PI.powi(2) * 10.0 / 0.15).ln();
        assert!((s.delta_term() - expect).abs() < 1e-12);
    }

    #[test]
    fn loglog_clamped_small_m() {
        let s = sched(0.05, 10);
        assert_eq!(s.loglog_term(1), 0.0);
        assert_eq!(s.loglog_term(2), 0.0, "ln 2 < 1 so clamp applies");
        assert!(s.loglog_term(100) > 0.0);
    }

    #[test]
    fn without_replacement_never_wider_than_with() {
        let wo = EpsilonSchedule::new(1.0, 0.05, 10);
        let wi = EpsilonSchedule::with_options(1.0, 0.05, 10, SamplingMode::WithReplacement, 1.0);
        for &m in &[1u64, 10, 100, 999] {
            assert!(wo.half_width(m, 1000) <= wi.half_width(m, 1000) + 1e-12);
        }
    }

    #[test]
    fn exhaustion_collapses_width() {
        let s = sched(0.05, 4);
        let e = s.half_width(2000, 1000);
        assert_eq!(e, 0.0, "past-exhaustion width should clamp to zero");
    }

    #[test]
    fn heuristic_factor_divides_width() {
        let s1 = sched(0.05, 10);
        let s4 =
            EpsilonSchedule::with_options(1.0, 0.05, 10, SamplingMode::WithoutReplacement, 4.0);
        let (a, b) = (s1.half_width(100, 1 << 30), s4.half_width(100, 1 << 30));
        assert!((a / b - 4.0).abs() < 1e-9);
    }

    #[test]
    fn more_groups_widen_intervals() {
        // Union bound across more groups demands more confidence per group.
        let s10 = sched(0.05, 10);
        let s50 = sched(0.05, 50);
        assert!(s50.half_width(100, 1 << 30) > s10.half_width(100, 1 << 30));
    }

    #[test]
    fn smaller_delta_widens_intervals() {
        let loose = sched(0.2, 10);
        let tight = sched(0.01, 10);
        assert!(tight.half_width(100, 1 << 30) > loose.half_width(100, 1 << 30));
    }

    #[test]
    fn c_scales_width() {
        let s1 = EpsilonSchedule::new(1.0, 0.05, 10);
        let s100 = EpsilonSchedule::new(100.0, 0.05, 10);
        let (a, b) = (s1.half_width(64, 1 << 30), s100.half_width(64, 1 << 30));
        assert!((b / a - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_to_reach_finds_threshold() {
        let s = EpsilonSchedule::with_options(1.0, 0.05, 10, SamplingMode::WithReplacement, 1.0);
        let target = 0.01;
        let m = s
            .rounds_to_reach(target, u64::MAX, 1 << 40)
            .expect("reachable");
        assert!(s.half_width(m, u64::MAX) < target);
        assert!(s.half_width(m - 1, u64::MAX) >= target);
    }

    #[test]
    fn rounds_to_reach_respects_cap() {
        let s = EpsilonSchedule::with_options(1.0, 0.05, 10, SamplingMode::WithReplacement, 1.0);
        assert_eq!(s.rounds_to_reach(1e-9, u64::MAX, 1000), None);
    }

    #[test]
    fn anytime_vs_fixed_m_width() {
        // The anytime schedule must be wider than the fixed-m Hoeffding
        // width at the same per-group confidence (it pays for uniformity
        // over all rounds).
        let k = 10usize;
        let delta = 0.05;
        let s = EpsilonSchedule::with_options(1.0, delta, k, SamplingMode::WithReplacement, 1.0);
        for &m in &[10u64, 100, 10_000] {
            let anytime = s.half_width(m, u64::MAX);
            let fixed = crate::hoeffding::hoeffding_half_width(m, delta / k as f64, 1.0);
            assert!(
                anytime >= fixed,
                "m={m}: anytime width {anytime} below fixed-m width {fixed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "heuristic")]
    fn rejects_widening_heuristic() {
        let _ = EpsilonSchedule::with_options(1.0, 0.05, 10, SamplingMode::WithoutReplacement, 0.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn width_finite_nonnegative(
            m in 1u64..10_000_000,
            n in 1u64..10_000_000_000,
            delta in 0.0001f64..0.999,
            k in 1usize..200,
            c in 0.001f64..10_000.0,
        ) {
            let s = EpsilonSchedule::new(c, delta, k);
            let e = s.half_width(m, n);
            prop_assert!(e.is_finite());
            prop_assert!(e >= 0.0);
        }

        #[test]
        fn monotone_in_m_beyond_two(
            m in 2u64..1_000_000,
            delta in 0.001f64..0.5,
            k in 1usize..100,
        ) {
            let s = EpsilonSchedule::with_options(
                1.0, delta, k, SamplingMode::WithReplacement, 1.0,
            );
            prop_assert!(s.half_width(m + 1, u64::MAX) <= s.half_width(m, u64::MAX) + 1e-15);
        }

        /// Anytime empirical coverage: the running mean stays inside ±ε_m for
        /// *every* prefix, with frequency at least 1 − δ (per group budget
        /// δ/k is what the schedule actually guarantees; we test the whole-
        /// run event with generous slack).
        #[test]
        fn anytime_coverage(seed in 0u64..20) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let delta = 0.1;
            let s = EpsilonSchedule::with_options(
                1.0, delta, 1, SamplingMode::WithReplacement, 1.0,
            );
            let p = 0.5;
            let trials = 60;
            let horizon = 2_000u64;
            let mut violated = 0;
            for _ in 0..trials {
                let mut sum = 0.0;
                let mut bad = false;
                for m in 1..=horizon {
                    sum += f64::from(u8::from(rng.gen_bool(p)));
                    let mean = sum / m as f64;
                    if (mean - p).abs() > s.half_width(m, u64::MAX) {
                        bad = true;
                        break;
                    }
                }
                violated += u32::from(bad);
            }
            prop_assert!(
                f64::from(violated) <= 2.0 * delta * f64::from(trials),
                "anytime bound violated in {violated}/{trials} runs"
            );
        }
    }
}
