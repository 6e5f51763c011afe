//! Problem 4 — AVG-ORDER-TOP-t (§6.1.2).
//!
//! With many groups the analyst examines only the top-`t`; the algorithm
//! must (a) certify which groups are in the top-`t` and (b) order those
//! correctly among themselves. Activity is redefined: a group leaves the
//! active set as soon as it is **certainly outside the top-t** — i.e. at
//! least `t` other groups' confidence intervals lie entirely above its own
//! — even if its interval still overlaps someone (that comparison no longer
//! matters). Groups potentially in the top-`t` follow the usual
//! overlap rule restricted to other still-relevant groups.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;

pub use crate::focus::TopTDirection;

/// IFOCUS for certified top-`t` (or bottom-`t`) visualization.
#[derive(Debug, Clone)]
pub struct IFocusTopT {
    config: AlgoConfig,
    t: usize,
    direction: TopTDirection,
}

impl IFocusTopT {
    /// Creates the algorithm for the largest `t` groups.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    #[must_use]
    pub fn new(config: AlgoConfig, t: usize) -> Self {
        assert!(t > 0, "t must be positive");
        Self {
            config,
            t,
            direction: TopTDirection::Largest,
        }
    }

    /// Creates the algorithm for the smallest `t` groups (e.g. "which
    /// airline should receive the prize for least delay" from §1).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    #[must_use]
    pub fn new_bottom(config: AlgoConfig, t: usize) -> Self {
        assert!(t > 0, "t must be positive");
        Self {
            config,
            t,
            direction: TopTDirection::Smallest,
        }
    }

    /// The certification direction.
    #[must_use]
    pub fn direction(&self) -> TopTDirection {
        self.direction
    }

    /// The group indices the run certified, best first (largest first for
    /// [`TopTDirection::Largest`], smallest first for
    /// [`TopTDirection::Smallest`]).
    #[must_use]
    pub fn top_indices(&self, result: &RunResult) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..result.estimates.len()).collect();
        idx.sort_by(|&a, &b| {
            let ord = result.estimates[b].total_cmp(&result.estimates[a]);
            match self.direction {
                TopTDirection::Largest => ord,
                TopTDirection::Smallest => ord.reverse(),
            }
        });
        idx.truncate(self.t);
        idx
    }

    /// Runs over the groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or `t > k`.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        assert!(
            self.t <= groups.len(),
            "t = {} exceeds the number of groups {}",
            self.t,
            groups.len()
        );
        let rule = Rule::TopT {
            t: self.t,
            direction: self.direction,
            ruled_out: vec![false; groups.len()],
        };
        FocusStepper::run(&self.config, rule, Width::anytime, groups, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::is_top_t_correct;
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
    fn certifies_the_right_top_groups() {
        let means = [15.0, 70.0, 40.0, 85.0, 25.0, 55.0];
        let mut groups = two_point_groups(&means, 100_000, 80);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusTopT::new(AlgoConfig::new(100.0, 0.05), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_top_t_correct(&result.estimates, &truths, 3, 0.0));
        let top = algo.top_indices(&result);
        assert_eq!(top, vec![3, 1, 5], "85, 70, 55 in that order");
    }

    #[test]
    fn cheaper_when_bottom_groups_conflict() {
        // Two near-ties at the bottom: top-2 certification can ignore them;
        // full ordering cannot.
        let means = [20.0, 21.0, 70.0, 90.0];
        let mut g1 = two_point_groups(&means, 400_000, 82);
        let mut g2 = g1.clone();
        let topt = IFocusTopT::new(AlgoConfig::new(100.0, 0.05), 2);
        let full = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(83);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(83);
        let r_top = topt.run(&mut g1, &mut rng1);
        let r_full = full.run(&mut g2, &mut rng2);
        assert!(
            r_top.total_samples() * 4 < r_full.total_samples(),
            "top-t {} should be far below full {}",
            r_top.total_samples(),
            r_full.total_samples()
        );
    }

    #[test]
    fn t_equals_k_degenerates_to_full_ordering() {
        let means = [20.0, 50.0, 80.0];
        let mut groups = two_point_groups(&means, 50_000, 84);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusTopT::new(AlgoConfig::new(100.0, 0.05), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(85);
        let result = algo.run(&mut groups, &mut rng);
        assert!(crate::ordering::is_correctly_ordered(
            &result.estimates,
            &truths
        ));
    }

    #[test]
    fn bottom_t_certifies_smallest() {
        let means = [15.0, 70.0, 40.0, 85.0, 25.0, 55.0];
        let mut groups = two_point_groups(&means, 100_000, 88);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusTopT::new_bottom(AlgoConfig::new(100.0, 0.05), 2);
        assert_eq!(algo.direction(), TopTDirection::Smallest);
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let result = algo.run(&mut groups, &mut rng);
        let bottom = algo.top_indices(&result);
        assert_eq!(bottom, vec![0, 4], "15 and 25 are the two smallest");
        // Bottom-t correctness == top-t correctness on negated values.
        let neg_est: Vec<f64> = result.estimates.iter().map(|e| -e).collect();
        let neg_truth: Vec<f64> = truths.iter().map(|t| -t).collect();
        assert!(is_top_t_correct(&neg_est, &neg_truth, 2, 0.0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn t_larger_than_k_panics() {
        let mut groups = two_point_groups(&[50.0], 100, 86);
        let algo = IFocusTopT::new(AlgoConfig::new(100.0, 0.05), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(87);
        let _ = algo.run(&mut groups, &mut rng);
    }
}
