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
use crate::extensions::graph::IFocusGraph;
use crate::group::GroupSource;
use crate::result::RunResult;
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

    /// Runs over the groups (in x-axis order): [`IFocusGraph::path`], the
    /// graph variant over the edges `(0, 1), (1, 2), …`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        IFocusGraph::path(self.config.clone(), groups.len()).run(groups, rng)
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
    fn equals_the_path_graph_bit_for_bit() {
        // The licence for this module keeping no deactivation logic of its
        // own: a trend line *is* `IFocusGraph::path(k)`.
        let base = AlgoConfig::new(100.0, 0.05).with_max_rounds(3_000);
        for k in [1usize, 2, 7, 12] {
            let means: Vec<f64> = (0..k).map(|i| 20.0 + ((i * 37) % 60) as f64).collect();
            for config in [base.clone(), base.clone().with_resolution(8.0)] {
                for seed in 0..10u64 {
                    let mut g1 = two_point_groups(&means, 20_000, 300 + seed);
                    let mut g2 = g1.clone();
                    let mut rng1 = rand::rngs::StdRng::seed_from_u64(400 + seed);
                    let mut rng2 = rand::rngs::StdRng::seed_from_u64(400 + seed);
                    let trend = IFocusTrends::new(config.clone()).run(&mut g1, &mut rng1);
                    let path = IFocusGraph::path(config.clone(), k).run(&mut g2, &mut rng2);
                    let bits = |r: &RunResult| -> Vec<u64> {
                        r.estimates.iter().map(|e| e.to_bits()).collect()
                    };
                    assert_eq!(bits(&trend), bits(&path), "k {k} seed {seed}");
                    assert_eq!(trend.samples_per_group, path.samples_per_group);
                    assert_eq!(trend.rounds, path.rounds);
                    assert_eq!(trend.truncated, path.truncated);
                }
            }
        }
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
