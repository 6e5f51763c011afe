//! Problem 5 — AVG-ORDER-MISTAKES (§6.1.3).
//!
//! The analyst tolerates incorrect ordering on up to a fraction γ of the
//! group pairs (in exchange for speed). Following the paper's solution, the
//! algorithm tracks the fraction of pairs whose ordering is already
//! *certified* — pairs of mutually inactive groups — and terminates as soon
//! as that fraction reaches `1 − γ`, abandoning the hardest comparisons.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;

/// IFOCUS with an allowed fraction of pair mistakes.
#[derive(Debug, Clone)]
pub struct IFocusMistakes {
    config: AlgoConfig,
    /// Allowed fraction γ ∈ [0, 1) of pairs that may be mis-ordered.
    gamma: f64,
}

impl IFocusMistakes {
    /// Creates the algorithm with mistake budget `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma ∉ [0, 1)`.
    #[must_use]
    pub fn new(config: AlgoConfig, gamma: f64) -> Self {
        assert!((0.0..1.0).contains(&gamma), "gamma must lie in [0, 1)");
        Self { config, gamma }
    }

    /// Runs over the groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let rule = Rule::Mistakes { gamma: self.gamma };
        FocusStepper::run(&self.config, rule, Width::anytime, groups, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::fraction_correct_pairs;
    use crate::runner::AlgorithmStepper;
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
    fn zero_gamma_equals_full_ifocus_cost_profile() {
        let means = [20.0, 50.0, 80.0];
        let mut g1 = two_point_groups(&means, 50_000, 90);
        let mut g2 = g1.clone();
        let strict = IFocusMistakes::new(AlgoConfig::new(100.0, 0.05), 0.0);
        let full = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(91);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(91);
        let r_strict = strict.run(&mut g1, &mut rng1);
        let r_full = full.run(&mut g2, &mut rng2);
        assert_eq!(r_strict.total_samples(), r_full.total_samples());
    }

    #[test]
    fn budget_skips_hard_pair() {
        // One near-tie among 5 groups: allowing 1/10 of pairs wrong lets the
        // run stop without resolving it.
        let means = [30.0, 30.5, 55.0, 75.0, 90.0];
        let mut g1 = two_point_groups(&means, 400_000, 92);
        let mut g2 = g1.clone();
        let lenient = IFocusMistakes::new(AlgoConfig::new(100.0, 0.05), 0.11);
        let strict = IFocusMistakes::new(AlgoConfig::new(100.0, 0.05), 0.0);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(93);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(93);
        let r_lenient = lenient.run(&mut g1, &mut rng1);
        let r_strict = strict.run(&mut g2, &mut rng2);
        assert!(
            r_lenient.total_samples() * 3 < r_strict.total_samples(),
            "lenient {} should be far below strict {}",
            r_lenient.total_samples(),
            r_strict.total_samples()
        );
        // The result is still mostly correct.
        let truths: Vec<f64> = g1.iter().map(|g| g.true_mean().unwrap()).collect();
        let frac = fraction_correct_pairs(&r_lenient.estimates, &truths);
        assert!(frac >= 0.89, "pair accuracy {frac}");
    }

    #[test]
    fn budget_stop_shows_in_the_last_trace_row_and_history_point() {
        // The γ stop must land in the round that fires it: the snapshot
        // after the last round shows every group inactive, while the one
        // before still shows the abandoned near-tie drawing.
        let means = [30.0, 30.5, 55.0, 75.0, 90.0];
        let config = AlgoConfig::new(100.0, 0.05);
        let mut groups = two_point_groups(&means, 400_000, 92);
        let mut rng = rand::rngs::StdRng::seed_from_u64(93);
        let rule = Rule::Mistakes { gamma: 0.11 };
        let mut stepper = FocusStepper::start(&config, rule, Width::anytime, &mut groups, &mut rng);
        let mut before = stepper.snapshot();
        while stepper.step_any(&mut groups, &mut rng).is_running() {
            before = stepper.snapshot();
        }
        let last = stepper.snapshot();
        assert_eq!(last.rounds, before.rounds + 1);
        assert!(!last.truncated);
        assert!(last.active.iter().all(|&a| !a), "{:?}", last.active);
        // The near-tie was abandoned, not resolved: frozen still overlapping.
        assert!(last.intervals[0].overlaps(&last.intervals[1]));
        assert!(before.active[..2].iter().all(|&a| a));
        // The observed drive is the public run.
        let mut groups = two_point_groups(&means, 400_000, 92);
        let mut rng = rand::rngs::StdRng::seed_from_u64(93);
        let result = IFocusMistakes::new(config, 0.11).run(&mut groups, &mut rng);
        assert_eq!(last.estimates, result.estimates);
        assert_eq!(last.samples_per_group, result.samples_per_group);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_one() {
        let _ = IFocusMistakes::new(AlgoConfig::new(1.0, 0.05), 1.0);
    }
}
