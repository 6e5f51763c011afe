//! Choropleth / proximity-graph ordering (§6.1.1, second half).
//!
//! For a heat map the paper asks that "adjacent regions are correctly
//! ordered with respect to each other (or, even ... regions that are close
//! by)". [`IFocusGraph`] generalizes the trend-line variant from the path
//! graph to an arbitrary symmetric adjacency relation: only pairs joined by
//! an edge must order correctly, and a group deactivates when all its
//! incident edges are resolved. The trend-line algorithm is exactly this
//! with the path graph; a choropleth supplies its region-adjacency edges.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule};
use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;

/// IFOCUS for graph-restricted pairwise ordering.
#[derive(Debug, Clone)]
pub struct IFocusGraph {
    config: AlgoConfig,
    /// Symmetric edge list over group indices.
    edges: Vec<(usize, usize)>,
}

impl IFocusGraph {
    /// Creates the algorithm for the given adjacency edges (self-loops are
    /// ignored; duplicates are harmless).
    #[must_use]
    pub fn new(config: AlgoConfig, edges: Vec<(usize, usize)>) -> Self {
        Self { config, edges }
    }

    /// Builds the path graph over `k` groups — the trend-line special case.
    #[must_use]
    pub fn path(config: AlgoConfig, k: usize) -> Self {
        let edges = (1..k).map(|i| (i - 1, i)).collect();
        Self::new(config, edges)
    }

    /// Builds a 2D grid adjacency over `rows x cols` regions (row-major
    /// group indexing) — the typical choropleth lattice.
    #[must_use]
    pub fn grid(config: AlgoConfig, rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    edges.push((i, i + 1));
                }
                if r + 1 < rows {
                    edges.push((i, i + cols));
                }
            }
        }
        Self::new(config, edges)
    }

    /// The edges this instance certifies.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Runs over the groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or an edge references a missing group.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let k = groups.len();
        for &(a, b) in &self.edges {
            assert!(a < k && b < k, "edge ({a}, {b}) out of range for k={k}");
        }
        let rule = Rule::neighbours(self.edges.clone());
        FocusStepper::run(&self.config, rule, groups, rng)
    }
}

/// Verifies graph-restricted ordering: every edge `(a, b)` with
/// `|µ_a − µ_b| > r` must have matching estimate and truth orderings.
///
/// # Panics
///
/// Panics if slices mismatch or an edge is out of range.
#[must_use]
pub fn is_graph_correct(
    estimates: &[f64],
    truths: &[f64],
    edges: &[(usize, usize)],
    r: f64,
) -> bool {
    assert_eq!(estimates.len(), truths.len(), "length mismatch");
    edges.iter().all(|&(a, b)| {
        let dt = truths[a] - truths[b];
        if dt.abs() <= r {
            return true;
        }
        let de = estimates[a] - estimates[b];
        de != 0.0 && (de > 0.0) == (dt > 0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
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
                VecGroup::new(format!("region{i}"), values)
            })
            .collect()
    }

    #[test]
    fn grid_choropleth_orders_neighbors() {
        // 2x3 grid of regions; diagonal pairs (not adjacent) may stay
        // unresolved.
        let means = [30.0, 55.0, 20.0, 70.0, 45.0, 80.0];
        let mut groups = two_point_groups(&means, 80_000, 10);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusGraph::grid(AlgoConfig::new(100.0, 0.05), 2, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_graph_correct(
            &result.estimates,
            &truths,
            algo.edges(),
            0.0
        ));
    }

    #[test]
    fn path_graph_matches_trends_semantics() {
        let means = [20.0, 60.0, 35.0, 75.0];
        let mut groups = two_point_groups(&means, 60_000, 12);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusGraph::path(AlgoConfig::new(100.0, 0.05), 4);
        assert_eq!(algo.edges(), &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let result = algo.run(&mut groups, &mut rng);
        assert!(crate::ordering::is_trend_correct(
            &result.estimates,
            &truths,
            0.0
        ));
    }

    #[test]
    fn sparse_graph_cheaper_than_full_ordering() {
        // Near-tied pair (0, 3) NOT joined by an edge: graph variant skips
        // the expensive comparison.
        let means = [40.0, 10.0, 90.0, 40.8];
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let mut g1 = two_point_groups(&means, 400_000, 14);
        let mut g2 = g1.clone();
        let graph = IFocusGraph::new(AlgoConfig::new(100.0, 0.05), edges);
        let full = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(15);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(15);
        let r_graph = graph.run(&mut g1, &mut rng1);
        let r_full = full.run(&mut g2, &mut rng2);
        assert!(
            r_graph.total_samples() * 4 < r_full.total_samples(),
            "graph {} should be far below full {}",
            r_graph.total_samples(),
            r_full.total_samples()
        );
    }

    #[test]
    fn empty_edge_set_terminates_immediately() {
        let mut groups = two_point_groups(&[30.0, 60.0], 1000, 16);
        let algo = IFocusGraph::new(AlgoConfig::new(100.0, 0.05), vec![]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let result = algo.run(&mut groups, &mut rng);
        assert_eq!(result.total_samples(), 2, "one bootstrap sample each");
    }

    #[test]
    fn self_loops_ignored() {
        let mut groups = two_point_groups(&[30.0, 60.0], 10_000, 18);
        let algo = IFocusGraph::new(AlgoConfig::new(100.0, 0.05), vec![(0, 0), (0, 1)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge() {
        let mut groups = two_point_groups(&[30.0], 100, 20);
        let algo = IFocusGraph::new(AlgoConfig::new(100.0, 0.05), vec![(0, 5)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let _ = algo.run(&mut groups, &mut rng);
    }

    #[test]
    fn graph_verifier() {
        let truths = [1.0, 5.0, 3.0];
        let est_good = [1.1, 5.2, 2.9];
        let est_bad = [5.5, 5.2, 2.9];
        let edges = [(0, 1), (1, 2)];
        assert!(is_graph_correct(&est_good, &truths, &edges, 0.0));
        assert!(!is_graph_correct(&est_bad, &truths, &edges, 0.0));
        // Pair (0, 2) is not an edge; mis-ordering it is fine.
        let est_non_edge = [3.5, 5.2, 3.4];
        assert!(is_graph_correct(&est_non_edge, &truths, &edges, 0.0));
        // Resolution exemption.
        assert!(is_graph_correct(&est_bad, &truths, &edges, 5.0));
    }
}
