//! Problem 3 — AVG-ORDER-TRENDS (§6.1.1).
//!
//! For a trend-line (ordinal x-axis) or a choropleth, only comparisons
//! between *neighboring* groups must be correct. The IFOCUS generalization
//! redefines activity: a group stays active while one of its **incident
//! adjacent pairs** is unresolved, where pair `(i, i+1)` resolves when the
//! two confidence intervals become disjoint. The sample complexity bound
//! holds with `η_i` replaced by `η*_i = min(τ_{i−1,i}, τ_{i,i+1})` — never
//! smaller than the all-pairs `η_i`, so trends are never harder and usually
//! far cheaper.

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::state::FocusState;
use rand::RngCore;

/// IFOCUS for adjacent-pair (trend/choropleth) ordering.
#[derive(Debug, Clone)]
pub struct IFocusTrends {
    config: AlgoConfig,
}

impl IFocusTrends {
    /// Creates the algorithm; group order is the x-axis order.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Runs over the groups (in x-axis order).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let mut state = FocusState::initialize(&self.config, groups, rng);
        let k = state.k();
        // pair_resolved[i] covers (i, i+1).
        let mut pair_resolved = vec![false; k.saturating_sub(1)];
        Self::update(&mut state, &mut pair_resolved);
        state.record();

        while state.begin_round(1).is_none() {
            state.draw_active(groups, rng);
            if state.resolution_reached() || state.all_active_exhausted() {
                state.deactivate_all();
            } else {
                Self::update(&mut state, &mut pair_resolved);
            }
            state.record();
        }
        state.finish()
    }

    /// Resolves adjacent pairs whose intervals separated, then deactivates
    /// groups with no unresolved incident pair.
    fn update(state: &mut FocusState, pair_resolved: &mut [bool]) {
        let eps_now = state.epsilon();
        let k = state.k();
        for i in 0..k.saturating_sub(1) {
            if !pair_resolved[i] {
                let a = state.interval(i, eps_now);
                let b = state.interval(i + 1, eps_now);
                if !a.overlaps(&b) {
                    pair_resolved[i] = true;
                }
            }
        }
        for i in 0..k {
            let left_open = i > 0 && !pair_resolved[i - 1];
            let right_open = i + 1 < k && !pair_resolved[i];
            if !left_open && !right_open {
                state.deactivate(i, eps_now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::is_trend_correct;
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
                VecGroup::new(format!("t{i}"), values)
            })
            .collect()
    }

    #[test]
    fn trend_ordering_holds() {
        // A zig-zag trend with close non-adjacent values.
        let means = [20.0, 60.0, 35.0, 70.0, 30.0];
        let mut groups = two_point_groups(&means, 100_000, 70);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusTrends::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_trend_correct(&result.estimates, &truths, 0.0));
        assert!(!result.truncated);
    }

    #[test]
    fn cheaper_than_all_pairs_when_distant_groups_conflict() {
        // Groups 0 and 3 nearly tied but NOT adjacent: the trend variant can
        // ignore that conflict; full IFOCUS cannot.
        let means = [40.0, 10.0, 90.0, 41.0];
        let mut g1 = two_point_groups(&means, 400_000, 72);
        let mut g2 = g1.clone();
        let trends = IFocusTrends::new(AlgoConfig::new(100.0, 0.05));
        let full = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(73);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(73);
        let r_trends = trends.run(&mut g1, &mut rng1);
        let r_full = full.run(&mut g2, &mut rng2);
        assert!(
            r_trends.total_samples() * 4 < r_full.total_samples(),
            "trends {} should be far below full {}",
            r_trends.total_samples(),
            r_full.total_samples()
        );
    }

    #[test]
    fn single_group_trivial() {
        let mut groups = vec![VecGroup::new("only", vec![5.0, 6.0])];
        let algo = IFocusTrends::new(AlgoConfig::new(10.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(74);
        let result = algo.run(&mut groups, &mut rng);
        assert_eq!(result.total_samples(), 1);
    }

    #[test]
    fn resolution_variant_terminates_fast() {
        let means = [20.0, 21.0, 22.0, 23.0];
        let mut groups = two_point_groups(&means, 500_000, 75);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusTrends::new(AlgoConfig::new(100.0, 0.05).with_resolution(5.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(76);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_trend_correct(&result.estimates, &truths, 5.0));
        assert!(
            result.total_samples() < 500_000,
            "resolution keeps cost bounded"
        );
    }
}
