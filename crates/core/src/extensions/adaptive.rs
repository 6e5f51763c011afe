//! Variance-adaptive IFOCUS (empirical-Bernstein schedule).
//!
//! An extension beyond the paper (invited by its §3.6 theory remarks on
//! Bernstein-type bounds): identical round structure to IFOCUS, but the
//! per-group confidence half-width comes from the anytime **empirical
//! Bernstein** bound, which pays for the *observed* group variance instead
//! of the worst case `c²/4`. On low-variance workloads (the `truncnorm`
//! family has σ ≤ 10 on a range of 100) groups separate after a small
//! fraction of the samples Hoeffding needs.
//!
//! Because widths are per-group (they depend on each group's variance),
//! the overlap test uses heterogeneous intervals, like Algorithm 4's.
//! Sampling is with replacement (the empirical Bernstein inequality is
//! stated for i.i.d. draws); a finite-population refinement would only
//! tighten it.
//!
//! Outside [`crate::focus`]'s one round, whose state holds one ε per round:
//! this loop keeps a Welford variance and a width per *group* (ROADMAP
//! item 8's `Bound` axis, not a rule). Library-only reference, eager `run`.

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::state::FixpointScratch;
use rand::RngCore;
use rapidviz_stats::{BernsteinSchedule, Interval, SamplingMode, WelfordVariance};

/// IFOCUS with the empirical-Bernstein anytime schedule.
#[derive(Debug, Clone)]
pub struct IFocusBernstein {
    config: AlgoConfig,
}

impl IFocusBernstein {
    /// Creates the algorithm (uses `c`, `δ`, `resolution`, and the round
    /// caps from the config; κ/heuristic options do not apply).
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
        assert!(!groups.is_empty(), "need at least one group");
        let k = groups.len();
        let schedule = BernsteinSchedule::new(self.config.c, self.config.delta, k);
        let labels: Vec<String> = groups.iter().map(GroupSource::label).collect();
        let mut stats = vec![WelfordVariance::new(); k];
        let mut active = vec![true; k];
        let mut samples = vec![0u64; k];
        let mut m = 1u64;
        let mut truncated = false;
        let resolution_eps = self.config.resolution_epsilon();
        let mut fix = FixpointScratch::default();

        for (i, group) in groups.iter_mut().enumerate() {
            if let Some(x) = group.sample(rng, SamplingMode::WithReplacement) {
                stats[i].push(x);
                samples[i] += 1;
            }
        }
        loop {
            let eps_of = |i: usize| {
                let var = stats[i].population_variance().unwrap_or(0.0);
                schedule.half_width(stats[i].count().max(1), var)
            };
            // Resolution cut-off: every active width below r/4.
            if let Some(thresh) = resolution_eps {
                if (0..k).filter(|&i| active[i]).all(|i| eps_of(i) < thresh) {
                    active.iter_mut().for_each(|a| *a = false);
                }
            }
            // Fixpoint deactivation with per-group widths.
            while fix.separate(&active, |i| Interval::centered(stats[i].mean(), eps_of(i))) {
                for &i in &fix.remove {
                    active[i] = false;
                }
            }
            if !active.iter().any(|&a| a) {
                break;
            }
            if m >= self.config.max_rounds {
                truncated = true;
                break;
            }
            m += 1;
            for i in 0..k {
                if active[i] {
                    if let Some(x) = groups[i].sample(rng, SamplingMode::WithReplacement) {
                        stats[i].push(x);
                        samples[i] += 1;
                    }
                }
            }
        }
        RunResult {
            labels,
            estimates: stats.iter().map(WelfordVariance::mean).collect(),
            samples_per_group: samples,
            rounds: m,
            truncated,
        }
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
