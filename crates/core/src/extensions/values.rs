//! Problem 6 — AVG-ORDER-ACTUAL (§6.2.1).
//!
//! Beyond ordering, each returned estimate must satisfy `|ν_i − µ_i| ≤ d`.
//! Per the paper's solution we enforce a minimum amount of sampling: a
//! group cannot deactivate while the anytime half-width is still above
//! `d/2` (so on the `1 − δ` event every estimate is within `d/2 ≤ d` of its
//! true mean). The sample complexity matches Theorem 3.6 with `η_i`
//! replaced by `min(η_i, d/2)` — the value requirement can only *increase*
//! sampling, never reduce it.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;

/// IFOCUS with a per-group value-accuracy requirement `±d`.
#[derive(Debug, Clone)]
pub struct IFocusValues {
    config: AlgoConfig,
    d: f64,
}

impl IFocusValues {
    /// Creates the algorithm with value tolerance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0`.
    #[must_use]
    pub fn new(config: AlgoConfig, d: f64) -> Self {
        assert!(d > 0.0, "value tolerance d must be positive");
        Self { config, d }
    }

    /// Runs over the groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        FocusStepper::run(
            &self.config,
            Rule::Values { d: self.d },
            Width::anytime,
            groups,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::is_correctly_ordered;
    use rand::{Rng, SeedableRng};

    fn two_point_groups(means: &[f64], n: usize, seed: u64) -> Vec<VecGroup> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        means
            .iter()
            .enumerate()
            .map(|(i, &mu)| {
                let values: Vec<f64> = (0..n)
                    .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                    .collect();
                VecGroup::new(format!("g{i}"), values)
            })
            .collect()
    }

    #[test]
    fn values_are_accurate_and_ordered() {
        let means = [20.0, 50.0, 80.0];
        let d = 3.0;
        let mut groups = two_point_groups(&means, 200_000, 100);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusValues::new(AlgoConfig::new(100.0, 0.05), d);
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
        for (est, truth) in result.estimates.iter().zip(&truths) {
            assert!(
                (est - truth).abs() <= d,
                "estimate {est} strayed more than {d} from {truth}"
            );
        }
    }

    #[test]
    fn costs_more_than_plain_ifocus_on_easy_data() {
        // Widely separated groups: plain IFOCUS stops early with sloppy
        // values; the value requirement forces more sampling.
        let means = [10.0, 50.0, 90.0];
        let mut g1 = two_point_groups(&means, 200_000, 102);
        let mut g2 = g1.clone();
        let values = IFocusValues::new(AlgoConfig::new(100.0, 0.05), 2.0);
        let plain = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(103);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(103);
        let r_values = values.run(&mut g1, &mut rng1);
        let r_plain = plain.run(&mut g2, &mut rng2);
        assert!(
            r_values.total_samples() > r_plain.total_samples(),
            "value accuracy must cost extra: {} vs {}",
            r_values.total_samples(),
            r_plain.total_samples()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_d() {
        let _ = IFocusValues::new(AlgoConfig::new(1.0, 0.05), 0.0);
    }
}
