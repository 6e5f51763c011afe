//! ROUNDROBIN — the conventional-sampling baseline (§5.1).
//!
//! Classic round-robin stratified sampling takes one sample from **every**
//! group each round, active or not — it has no notion of focusing. To make
//! it a fair baseline the paper instruments it with the same anytime
//! confidence machinery as IFOCUS so it can stop with the identical
//! `1 − δ` ordering guarantee: the run terminates when all group intervals
//! are pairwise disjoint (or, for ROUNDROBIN-R, when `ε_m < r/4`).
//!
//! Because every group keeps paying one sample per round until the *last*
//! contentious pair separates, its cost is `k · max_i m_i` versus IFOCUS's
//! `Σ_i m_i` — the gap the paper's Figure 3a quantifies.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::AlgorithmStepper;
use rand::RngCore;

/// The ROUNDROBIN baseline (and ROUNDROBIN-R with a resolution configured).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    config: AlgoConfig,
}

impl RoundRobin {
    /// Creates the algorithm with the given configuration.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AlgoConfig {
        &self.config
    }

    /// Begins a resumable run (bootstrap sample plus the round-1 separation
    /// check). A fixed-seed `start`/`step`/`finish` drive is byte-identical
    /// to [`RoundRobin::run`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> RoundRobinStepper {
        FocusStepper::start(&self.config, Rule::EveryGroup, Width::anytime, groups, rng)
    }

    /// Runs ROUNDROBIN over the groups to completion — a thin loop over
    /// [`RoundRobin::start`] and [`AlgorithmStepper::step`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let mut stepper = self.start(groups, rng);
        while stepper.step(groups, rng).is_running() {}
        stepper.finish()
    }
}

/// The ROUNDROBIN state machine: each step samples **every** unexhausted
/// group once (batched), then runs the same deactivation test as IFOCUS —
/// the shared round under its every-group rule.
pub type RoundRobinStepper = FocusStepper;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
    use crate::ordering::is_correctly_ordered;
    use crate::state::FocusState;
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
    fn correct_ordering() {
        let mut groups = two_point_groups(&[20.0, 50.0, 80.0], 50_000, 21);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
    }

    #[test]
    fn samples_all_groups_equally_until_the_end() {
        let mut groups = two_point_groups(&[30.0, 45.0, 48.0, 80.0], 100_000, 23);
        let algo = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let result = algo.run(&mut groups, &mut rng);
        // Round-robin: every group gets m samples (modulo exhaustion).
        let m0 = result.samples_per_group[0];
        assert!(
            result.samples_per_group.iter().all(|&m| m == m0),
            "round robin must sample uniformly: {:?}",
            result.samples_per_group
        );
    }

    #[test]
    fn ifocus_never_costlier_than_roundrobin() {
        for seed in 0..5 {
            let mut g1 = two_point_groups(&[25.0, 40.0, 42.0, 75.0], 100_000, 30 + seed);
            let mut g2 = g1.clone();
            let rr = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
            let ifx = IFocus::new(AlgoConfig::new(100.0, 0.05));
            let mut rng1 = rand::rngs::StdRng::seed_from_u64(40 + seed);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(40 + seed);
            let r_rr = rr.run(&mut g1, &mut rng1);
            let r_if = ifx.run(&mut g2, &mut rng2);
            assert!(
                r_if.total_samples() <= r_rr.total_samples(),
                "seed {seed}: ifocus {} > roundrobin {}",
                r_if.total_samples(),
                r_rr.total_samples()
            );
        }
    }

    #[test]
    fn resolution_variant_stops_early() {
        let mut g1 = two_point_groups(&[30.0, 32.0, 70.0], 200_000, 50);
        let mut g2 = g1.clone();
        let plain = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
        let relaxed = RoundRobin::new(AlgoConfig::new(100.0, 0.05).with_resolution(5.0));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(51);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(51);
        let r_plain = plain.run(&mut g1, &mut rng1);
        let r_relaxed = relaxed.run(&mut g2, &mut rng2);
        assert!(r_relaxed.total_samples() < r_plain.total_samples());
    }

    #[test]
    fn exhaustion_terminates_equal_means() {
        let mut groups = vec![
            VecGroup::new("a", vec![50.0; 300]),
            VecGroup::new("b", vec![50.0; 300]),
        ];
        let algo = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
        assert_eq!(result.total_samples(), 600, "full scan fallback");
    }

    /// The pre-stepper ROUNDROBIN loop, verbatim. Guards the acceptance
    /// criterion that the resumable-session refactor is byte-identical for
    /// a fixed seed.
    fn reference_roundrobin(
        config: &AlgoConfig,
        groups: &mut [VecGroup],
        rng: &mut rand::rngs::StdRng,
    ) -> crate::result::RunResult {
        let mut state = FocusState::initialize(config, Width::anytime, groups, rng);
        if state.resolution_reached() {
            state.deactivate_all();
        } else {
            state.standard_deactivation();
        }
        while state.any_active() {
            if state.m >= config.max_rounds {
                state.truncated = true;
                break;
            }
            let batch = config.samples_per_round;
            state.m += batch;
            state.draw_round_selected(true, groups, rng, batch);
            if state.resolution_reached() || state.all_exhausted() {
                state.deactivate_all();
            } else {
                state.standard_deactivation();
            }
        }
        state.finish()
    }

    #[test]
    fn stepper_matches_blocking_reference() {
        let mut g1 = two_point_groups(&[25.0, 48.0, 52.0, 80.0], 30_000, 80);
        let mut g2 = g1.clone();
        let config = AlgoConfig::new(100.0, 0.05);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(81);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(81);
        let result = RoundRobin::new(config.clone()).run(&mut g1, &mut rng1);
        let reference = reference_roundrobin(&config, &mut g2, &mut rng2);
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
        assert_eq!(result.truncated, reference.truncated);
    }

    #[test]
    fn step_snapshots_harden_monotonically() {
        use crate::runner::{AlgorithmStepper, StepOutcome};
        let mut groups = two_point_groups(&[20.0, 50.0, 80.0], 30_000, 82);
        let algo = RoundRobin::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let mut stepper = algo.start(&mut groups, &mut rng);
        let mut prev_active = stepper.snapshot().active_count();
        let mut rounds = 0u64;
        loop {
            let outcome = stepper.step(&mut groups, &mut rng);
            let snap = stepper.snapshot();
            assert!(snap.active_count() <= prev_active, "active set never grows");
            prev_active = snap.active_count();
            rounds += 1;
            if outcome != StepOutcome::Running {
                assert_eq!(outcome, StepOutcome::Converged);
                break;
            }
        }
        assert!(rounds > 1, "multi-round run expected");
    }
}
