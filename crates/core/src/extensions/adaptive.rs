//! Variance-adaptive IFOCUS (empirical-Bernstein widths).
//!
//! An extension beyond the paper (invited by its §3.6 theory remarks on
//! Bernstein-type bounds): the IFOCUS round, but each group's half-width
//! comes from the anytime **empirical Bernstein** bound, which pays for the
//! *observed* group variance instead of the worst case `c²/4`. On
//! low-variance workloads (`truncnorm` has σ ≤ 10 on a range of 100) groups
//! separate after a fraction of the samples Hoeffding needs. The overlap
//! test then compares heterogeneous intervals, like Algorithm 4's. Sampling
//! is with replacement, as the inequality is stated for i.i.d. draws.
//!
//! It is [`crate::focus`]'s round under the full-order rule with the round
//! state's Bernstein width, one draw a round. Library-only, eager `run`.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;
use rapidviz_stats::SamplingMode;

/// IFOCUS with the empirical-Bernstein anytime schedule.
#[derive(Debug, Clone)]
pub struct IFocusBernstein {
    config: AlgoConfig,
}

impl IFocusBernstein {
    /// Creates the algorithm. Only `c`, `δ`, `resolution` and the round cap
    /// apply: it samples with replacement, one draw per active group a
    /// round.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Runs over the groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let config = AlgoConfig {
            mode: SamplingMode::WithReplacement,
            ..self.config.clone()
        };
        let width = Width::empirical_bernstein;
        FocusStepper::run(&config, Rule::FullOrder, width, groups, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::is_correctly_ordered;
    use rand::{Rng, SeedableRng};

    /// Low-variance groups: values within ±3 of the mean on a [0, 100]
    /// range.
    fn narrow_groups(means: &[f64], n: usize, seed: u64) -> Vec<VecGroup> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        means
            .iter()
            .enumerate()
            .map(|(i, &mu)| {
                let values: Vec<f64> = (0..n).map(|_| mu + rng.gen_range(-3.0..3.0)).collect();
                VecGroup::new(format!("g{i}"), values)
            })
            .collect()
    }

    #[test]
    fn orders_correctly() {
        let mut groups = narrow_groups(&[20.0, 50.0, 80.0], 100_000, 1);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusBernstein::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
        assert!(!result.truncated);
    }

    #[test]
    fn beats_hoeffding_on_low_variance_data() {
        // Close means + tiny variance: the Bernstein variant should need
        // far fewer samples than Hoeffding-based IFOCUS.
        let means = [40.0, 43.0, 60.0];
        let mut g1 = narrow_groups(&means, 300_000, 3);
        let mut g2 = g1.clone();
        let bern = IFocusBernstein::new(AlgoConfig::new(100.0, 0.05));
        let hoef = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(4);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(4);
        let r_bern = bern.run(&mut g1, &mut rng1);
        let r_hoef = hoef.run(&mut g2, &mut rng2);
        assert!(
            r_bern.total_samples() * 5 < r_hoef.total_samples(),
            "bernstein {} should be far below hoeffding {}",
            r_bern.total_samples(),
            r_hoef.total_samples()
        );
        let truths: Vec<f64> = g1.iter().map(|g| g.true_mean().unwrap()).collect();
        assert!(is_correctly_ordered(&r_bern.estimates, &truths));
    }

    #[test]
    fn high_variance_data_still_correct() {
        // Two-point data (worst-case variance): no advantage, but the
        // guarantee must hold.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut groups: Vec<VecGroup> = [30.0f64, 70.0]
            .iter()
            .enumerate()
            .map(|(i, &mu)| {
                let values: Vec<f64> = (0..50_000)
                    .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                    .collect();
                VecGroup::new(format!("g{i}"), values)
            })
            .collect();
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusBernstein::new(AlgoConfig::new(100.0, 0.05));
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(6);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
    }

    #[test]
    fn resolution_cut_off_applies() {
        let mut groups = narrow_groups(&[50.0, 50.4], 400_000, 7);
        let algo = IFocusBernstein::new(AlgoConfig::new(100.0, 0.05).with_resolution(2.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
        assert!(
            result.total_samples() < 400_000,
            "resolution should bound sampling, took {}",
            result.total_samples()
        );
    }
}
