//! Empirical Bernstein bounds — a variance-adaptive alternative schedule.
//!
//! The paper's remarks (§3.6, "Theory Remarks") note that all bounds
//! obtained via Bernstein's elementary inequality extend to maxima, which
//! invites a variance-adaptive variant of IFOCUS: Hoeffding charges the
//! worst case `c²/4` variance, while the *empirical Bernstein* inequality
//! (Audibert, Munos & Szepesvári 2009; Maurer & Pontil 2009) pays only for
//! the **observed** sample variance `V̂_m`:
//!
//! ```text
//! Pr[ |X̄_m − µ| ≥ √(2·V̂_m·ln(3/δ)/m) + 3·c·ln(3/δ)/m ] ≤ δ.
//! ```
//!
//! For low-variance groups (e.g. the `truncnorm` family with σ ≪ c) this
//! is dramatically tighter than Hoeffding once `m` is moderate, so an
//! IFOCUS configured with a Bernstein schedule deactivates low-variance
//! groups much sooner.
//!
//! The anytime extension ([`BernsteinSchedule`]) splits `δ` evenly over the
//! `k` groups and, within a group, over geometric epochs: every `m` in
//! epoch `e = ⌊log₂ m⌋ + 1` (so `2^(e−1) ≤ m < 2^e`) is tested at
//! `δ_e = δ·6/(π²·e²·k)`, and `Σ_e 6/(π²·e²) = 1`. Like Theorem 3.2's
//! argument for [`crate::schedule::EpsilonSchedule`], this covers every `m`
//! at once only if the bound holds *simultaneously for all `m` within an
//! epoch* — a maximal empirical-Bernstein inequality. Theorem 3.2 has a
//! maximal Hoeffding–Serfling inequality (Lemma 2) for this step; nothing
//! in this crate proves the Bernstein counterpart, so the anytime claim
//! rests on that assumption until it is discharged.
//!
//! This is an *extension*, off by default; `experiments extensions`
//! compares it against the paper's Hoeffding-based schedule.

/// Fixed-`m` empirical Bernstein half-width at confidence `1 − δ` for
/// values in `[0, c]` with observed sample variance `variance`.
///
/// # Panics
///
/// Panics if `m == 0`, `c <= 0`, `variance < 0`, or `δ ∉ (0, 1)`.
#[must_use]
pub fn empirical_bernstein_half_width(m: u64, variance: f64, delta: f64, c: f64) -> f64 {
    assert!(m > 0, "need at least one sample");
    assert!(c > 0.0, "range c must be positive");
    assert!(variance >= 0.0, "variance must be non-negative");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    let log_term = (3.0 / delta).ln();
    let mf = m as f64;
    (2.0 * variance * log_term / mf).sqrt() + 3.0 * c * log_term / mf
}

/// Anytime empirical Bernstein schedule for `k` groups: spends
/// `δ·6/(π²·e²·k)` on epoch `e = ⌊log₂ m⌋ + 1`, which covers every round
/// `m ≥ 1` of every group with total failure probability `δ` under the
/// maximal-inequality assumption in the module docs.
#[derive(Debug, Clone)]
pub struct BernsteinSchedule {
    c: f64,
    delta: f64,
    k: usize,
}

impl BernsteinSchedule {
    /// Creates the schedule for `k` groups of values in `[0, c]` with
    /// overall failure probability `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`, `δ ∉ (0, 1)`, or `k == 0`.
    #[must_use]
    pub fn new(c: f64, delta: f64, k: usize) -> Self {
        assert!(c > 0.0, "range c must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        assert!(k > 0, "need at least one group");
        Self { c, delta, k }
    }

    /// The per-round confidence budget at round `m` (per group, after the
    /// union bound over groups and epochs).
    fn round_delta(&self, m: u64) -> f64 {
        let epoch = 64 - m.max(1).leading_zeros(); // ⌊log2 m⌋ + 1, m >= 1
        let epoch = f64::from(epoch.max(1));
        self.delta * 6.0 / (std::f64::consts::PI.powi(2) * epoch * epoch * self.k as f64)
    }

    /// ε at round `m` given the group's observed sample variance.
    #[must_use]
    pub fn half_width(&self, m: u64, variance: f64) -> f64 {
        empirical_bernstein_half_width(m, variance, self.round_delta(m), self.c)
    }

    /// The Hoeffding-equivalent width (worst-case variance `c²/4`) at the
    /// same budget — for comparing how much the observed variance saves.
    #[must_use]
    pub fn worst_case_half_width(&self, m: u64) -> f64 {
        self.half_width(m, self.c * self.c / 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hoeffding::hoeffding_half_width;

    #[test]
    fn low_variance_beats_hoeffding() {
        // σ = 2 on a [0, 100] range: Bernstein should crush Hoeffding once
        // m is moderate.
        let c = 100.0;
        let delta = 0.005;
        let m = 10_000;
        let bern = empirical_bernstein_half_width(m, 4.0, delta, c);
        let hoef = hoeffding_half_width(m, delta, c);
        assert!(
            bern < hoef / 5.0,
            "bernstein {bern} should be far below hoeffding {hoef}"
        );
    }

    #[test]
    fn worst_case_variance_comparable_to_hoeffding() {
        // With variance = c²/4, Bernstein ≈ √2·Hoeffding + O(1/m): same
        // order, slightly worse constants.
        let c = 1.0;
        let delta = 0.01;
        let m = 100_000;
        let bern = empirical_bernstein_half_width(m, 0.25, delta, c);
        let hoef = hoeffding_half_width(m, delta, c);
        assert!(bern > hoef, "bernstein pays extra constants");
        assert!(bern < 3.0 * hoef, "but stays the same order");
    }

    #[test]
    fn width_decreases_in_m() {
        let mut prev = f64::INFINITY;
        for m in [1u64, 10, 100, 1000, 10_000] {
            let w = empirical_bernstein_half_width(m, 1.0, 0.05, 10.0);
            assert!(w < prev);
            prev = w;
        }
    }

    #[test]
    fn zero_variance_leaves_only_range_term() {
        let w = empirical_bernstein_half_width(1000, 0.0, 0.05, 10.0);
        let expected = 3.0 * 10.0 * (3.0f64 / 0.05).ln() / 1000.0;
        assert!((w - expected).abs() < 1e-12);
    }

    #[test]
    fn schedule_epochs_widen_with_m_slowly() {
        let s = BernsteinSchedule::new(100.0, 0.05, 10);
        // Budget shrinks ~1/log² m: widths at adjacent epochs stay close.
        let a = s.half_width(1000, 25.0);
        let b = s.half_width(2000, 25.0);
        assert!(b < a, "more samples must narrow the interval");
        let far = s.half_width(1 << 30, 25.0);
        assert!(far < a / 10.0);
    }

    #[test]
    fn schedule_anytime_coverage() {
        use rand::{Rng, SeedableRng};
        // Empirical anytime coverage on a low-variance stream.
        let delta = 0.1;
        let s = BernsteinSchedule::new(1.0, delta, 1);
        let mut violations = 0u32;
        let trials: u32 = 40;
        for seed in 0..u64::from(trials) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p: f64 = 0.5;
            let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
            let mut bad = false;
            for m in 1..=3000u64 {
                let x = 0.45 + 0.1 * rng.gen_range(0.0..1.0) * f64::from(u8::from(rng.gen_bool(p)));
                sum += x;
                sumsq += x * x;
                let mean = sum / m as f64;
                let var = (sumsq / m as f64 - mean * mean).max(0.0);
                // True mean of the stream: 0.45 + 0.1*E[U]*E[B] = 0.475.
                if (mean - 0.475).abs() > s.half_width(m, var) {
                    bad = true;
                    break;
                }
            }
            violations += u32::from(bad);
        }
        assert!(
            f64::from(violations) <= 2.0 * delta * f64::from(trials),
            "anytime Bernstein violated in {violations}/{trials} runs"
        );
    }

    #[test]
    fn worst_case_accessor() {
        let s = BernsteinSchedule::new(10.0, 0.05, 4);
        assert!((s.worst_case_half_width(100) - s.half_width(100, 25.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "variance")]
    fn rejects_negative_variance() {
        let _ = empirical_bernstein_half_width(10, -1.0, 0.05, 1.0);
    }
}
