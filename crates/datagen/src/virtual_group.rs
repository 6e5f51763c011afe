//! Lazily evaluated groups for data-size sweeps.
//!
//! The paper evaluates dataset sizes up to `10^10` records (hundreds of
//! GB). Sample complexity, however, depends only on `(c, δ, k, η_i, n_i)`
//! — Theorem 3.6 — so the experiment harness does not need the records,
//! only a stream of draws from each group's distribution and the virtual
//! `n_i` for the without-replacement correction. [`VirtualGroup`] provides
//! exactly that, a substitution for the records themselves: draws are i.i.d.
//! from the distribution, indistinguishable from without-replacement
//! sampling at these scales (the algorithms never draw more than a
//! vanishing fraction of a 10^9-element group, and the Serfling factor the
//! schedule applies is conservative).

use crate::dist::ValueDist;
use rand::RngCore;
use rapidviz_core::group::GroupSource;
use rapidviz_core::SamplingMode;
use std::sync::Arc;

/// A group defined by a distribution and a virtual population size.
#[derive(Clone)]
pub struct VirtualGroup {
    label: String,
    dist: Arc<dyn ValueDist>,
    size: u64,
    drawn: u64,
}

impl std::fmt::Debug for VirtualGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualGroup")
            .field("label", &self.label)
            .field("size", &self.size)
            .field("mean", &self.dist.mean())
            .finish()
    }
}

impl VirtualGroup {
    /// Creates a virtual group of `size` records drawn from `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(label: impl Into<String>, dist: Arc<dyn ValueDist>, size: u64) -> Self {
        assert!(size > 0, "virtual group must be non-empty");
        Self {
            label: label.into(),
            dist,
            size,
            drawn: 0,
        }
    }

    /// The distribution.
    #[must_use]
    pub fn dist(&self) -> &Arc<dyn ValueDist> {
        &self.dist
    }
}

impl GroupSource for VirtualGroup {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn len(&self) -> u64 {
        self.size
    }

    fn sample(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64> {
        match mode {
            SamplingMode::WithReplacement => Some(self.dist.sample(rng)),
            SamplingMode::WithoutReplacement => {
                // I.i.d. draws with an exhaustion bound: valid at virtual
                // scale (see module docs), and the bound keeps degenerate
                // configurations terminating.
                if self.drawn >= self.size {
                    return None;
                }
                self.drawn += 1;
                Some(self.dist.sample(rng))
            }
        }
    }

    fn true_mean(&self) -> Option<f64> {
        Some(self.dist.mean())
    }

    fn reset(&mut self) {
        self.drawn = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::TwoPoint;
    use rand::SeedableRng;
    use rapidviz_core::{AlgoConfig, IFocus};

    #[test]
    fn virtual_group_basics() {
        let g = VirtualGroup::new("v", Arc::new(TwoPoint::paper(42.0)), 1 << 40);
        assert_eq!(g.len(), 1 << 40);
        assert_eq!(g.true_mean(), Some(42.0));
        assert_eq!(g.label(), "v");
    }

    #[test]
    fn exhaustion_bound_respected() {
        let mut g = VirtualGroup::new("tiny", Arc::new(TwoPoint::paper(50.0)), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..5 {
            assert!(g
                .sample(&mut rng, SamplingMode::WithoutReplacement)
                .is_some());
        }
        assert!(g
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_none());
        g.reset();
        assert!(g
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_some());
    }

    #[test]
    fn ifocus_runs_on_billion_row_virtual_groups() {
        // The point of virtual groups: a 3-billion-row "dataset" ordered
        // with a few thousand samples and no materialization.
        let mut groups: Vec<VirtualGroup> = [20.0, 50.0, 80.0]
            .iter()
            .enumerate()
            .map(|(i, &mu)| {
                VirtualGroup::new(
                    format!("g{i}"),
                    Arc::new(TwoPoint::paper(mu)),
                    1_000_000_000,
                )
            })
            .collect();
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = algo.run(&mut groups, &mut rng);
        assert!(rapidviz_core::is_correctly_ordered(
            &result.estimates,
            &truths
        ));
        assert!(
            result.total_samples() < 100_000,
            "sampled {} of 3e9 records",
            result.total_samples()
        );
    }
}
