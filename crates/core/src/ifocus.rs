//! IFOCUS — Algorithm 1, the paper's primary contribution.
//!
//! Round structure (after one bootstrap sample per group):
//!
//! 1. `m ← m + 1`; recompute the anytime ε (line 6);
//! 2. draw one fresh sample from every **active** group (lines 7–9);
//! 3. deactivate every active group whose interval `[ν_i − ε, ν_i + ε]` is
//!    disjoint from the union of the other active groups' intervals
//!    (lines 10–12), iterating to a fixpoint so cascaded separations
//!    resolve within the round;
//! 4. stop when no group is active.
//!
//! With [`crate::AlgoConfig::resolution`] set this is **IFOCUS-R**
//! (Problem 2): the loop additionally stops as soon as `ε_m < r/4`, which
//! bounds the total sample count by a constant independent of the data size
//! (the flat curves of Figure 3a).
//!
//! Correctness: Theorem 3.5 (ordering holds w.p. `≥ 1 − δ`). Sample
//! complexity: `O(c²·Σ_i (log(k/δ) + log log(1/η_i)) / η_i²)` (Theorem 3.6),
//! optimal up to the `log log` term by the Theorem 3.8 lower bound.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule, Width};
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::AlgorithmStepper;
use crate::state::FocusState;
use rand::RngCore;

/// The IFOCUS algorithm (and IFOCUS-R when a resolution is configured).
///
/// ```
/// use rapidviz_core::{AlgoConfig, IFocus, group::VecGroup, is_correctly_ordered};
/// use rand::SeedableRng;
///
/// let mut groups = vec![
///     VecGroup::new("slow", vec![20.0; 5_000]),
///     VecGroup::new("fast", vec![80.0; 5_000]),
/// ];
/// let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let result = algo.run(&mut groups, &mut rng);
/// assert!(result.estimates[0] < result.estimates[1]);
/// assert!(result.total_samples() < 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct IFocus {
    config: AlgoConfig,
}

impl IFocus {
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

    /// Begins a resumable run: bootstrap sample (one draw per group,
    /// Algorithm 1 lines 1–3) plus the round-1 separation check. Drive the
    /// returned stepper with [`AlgorithmStepper::step`] over the **same**
    /// groups and RNG; a fixed-seed `start`/`step`/`finish` drive is
    /// byte-identical to [`IFocus::run`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> IFocusStepper {
        self.start_planned(groups, &[], rng)
    }

    /// [`IFocus::start`], but the first step reads the groups marked
    /// `exact` whole ([`GroupSource::read_exact`]; without a pass, a group
    /// stops truncated at `[0, c]`) and never samples them.
    pub fn start_planned<G: GroupSource>(
        &self,
        groups: &mut [G],
        exact: &[bool],
        rng: &mut dyn RngCore,
    ) -> IFocusStepper {
        let state = FocusState::initialize(&self.config, Width::anytime, groups, exact, rng);
        FocusStepper::begin(state, Rule::FullOrder, true)
    }

    /// SCAN: every group read whole ([`GroupSource::read_exact`]), one per
    /// step in plan order, leaving the active set once read (never
    /// certified if a row was dropped). No RNG word is read.
    pub fn scan<G: GroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> IFocusStepper {
        let every = vec![true; groups.len()];
        let state = FocusState::initialize(&self.config, Width::anytime, groups, &every, rng);
        FocusStepper::begin(state, Rule::Scan, false)
    }

    /// Runs IFOCUS over the groups to completion — a thin loop over
    /// [`IFocus::start`] and [`AlgorithmStepper::step`].
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

/// The IFOCUS state machine: one [`AlgorithmStepper::step`] call per round
/// (draw a batch from every active group, recompute ε, run the deactivation
/// fixpoint) — the shared round under its full-order rule.
pub type IFocusStepper = FocusStepper;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ordering::{is_correctly_ordered, is_correctly_ordered_with_resolution};
    use crate::runner::{Snapshot, StepOutcome};
    use crate::state::FocusState;
    use rand::{Rng, SeedableRng};
    use rapidviz_stats::SamplingMode;

    /// Groups of two-point values with the given means over [0, 100].
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

    fn true_means(groups: &[VecGroup]) -> Vec<f64> {
        groups.iter().map(|g| g.true_mean().unwrap()).collect()
    }

    #[test]
    fn orders_well_separated_groups() {
        let mut groups = two_point_groups(&[20.0, 50.0, 80.0], 50_000, 1);
        let truths = true_means(&groups);
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
        assert!(
            result.total_samples() < 3 * 50_000,
            "should sample less than the dataset"
        );
        assert!(!result.truncated);
    }

    #[test]
    fn focuses_samples_on_contentious_groups() {
        // Groups 0/1 nearly tied; group 2 far away: group 2 should receive
        // far fewer samples.
        let mut groups = two_point_groups(&[40.0, 43.0, 90.0], 100_000, 3);
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let result = algo.run(&mut groups, &mut rng);
        assert!(
            result.samples_per_group[2] * 4 < result.samples_per_group[0],
            "far group sampled {} vs contentious {}",
            result.samples_per_group[2],
            result.samples_per_group[0]
        );
        assert!(
            result.samples_per_group[2] * 4 < result.samples_per_group[1],
            "far group over-sampled"
        );
    }

    #[test]
    fn resolution_variant_samples_less() {
        // The 60/60.8 near-tie forces plain IFOCUS down to ε < 0.4, while
        // the r = 5 relaxation stops at ε < 1.25.
        let mut g1 = two_point_groups(&[30.0, 35.0, 60.0, 60.8, 90.0], 100_000, 5);
        let mut g2 = g1.clone();
        let plain = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let relaxed = IFocus::new(AlgoConfig::new(100.0, 0.05).with_resolution(5.0));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(6);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(6);
        let r_plain = plain.run(&mut g1, &mut rng1);
        let r_relaxed = relaxed.run(&mut g2, &mut rng2);
        assert!(
            r_relaxed.total_samples() < r_plain.total_samples(),
            "resolution should reduce sampling: {} vs {}",
            r_relaxed.total_samples(),
            r_plain.total_samples()
        );
        let truths = true_means(&g1);
        assert!(is_correctly_ordered_with_resolution(
            &r_relaxed.estimates,
            &truths,
            5.0
        ));
    }

    #[test]
    fn accuracy_over_many_seeds() {
        // δ = 0.2 but empirically the algorithm should essentially never
        // mis-order (the paper observes 100% accuracy).
        let mut failures = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut groups = two_point_groups(&[25.0, 50.0, 75.0], 20_000, 100 + seed);
            let truths = true_means(&groups);
            let algo = IFocus::new(AlgoConfig::new(100.0, 0.2));
            let mut rng = rand::rngs::StdRng::seed_from_u64(200 + seed);
            let result = algo.run(&mut groups, &mut rng);
            if !is_correctly_ordered(&result.estimates, &truths) {
                failures += 1;
            }
        }
        assert_eq!(failures, 0, "{failures}/{trials} runs mis-ordered");
    }

    #[test]
    fn single_group_terminates_immediately() {
        let mut groups = vec![VecGroup::new("only", vec![1.0, 2.0, 3.0])];
        let algo = IFocus::new(AlgoConfig::new(10.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let result = algo.run(&mut groups, &mut rng);
        // A lone interval overlaps nothing: one sample and done.
        assert_eq!(result.total_samples(), 1);
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn identical_groups_exhaust_without_replacement() {
        // Equal true means: separation never happens; without replacement
        // the groups exhaust and the run still terminates.
        let mut groups = vec![
            VecGroup::new("a", vec![50.0; 500]),
            VecGroup::new("b", vec![50.0; 500]),
        ];
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
        assert!(result.total_samples() <= 1000);
        assert!((result.estimates[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn with_replacement_mode_works() {
        let mut groups = two_point_groups(&[20.0, 80.0], 10_000, 9);
        let truths = true_means(&groups);
        let algo =
            IFocus::new(AlgoConfig::new(100.0, 0.05).with_mode(SamplingMode::WithReplacement));
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
    }

    #[test]
    fn max_rounds_truncates() {
        let mut groups = two_point_groups(&[49.0, 51.0], 1_000_000, 11);
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05).with_max_rounds(10));
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let result = algo.run(&mut groups, &mut rng);
        assert!(result.truncated);
        assert!(result.rounds <= 10);
    }

    /// The snapshot after the bootstrap and after every round that ran.
    fn observed_rounds(groups: &mut [VecGroup], seed: u64) -> Vec<Snapshot> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut stepper = IFocus::new(AlgoConfig::new(100.0, 0.05)).start(groups, &mut rng);
        let mut rows = vec![stepper.snapshot()];
        while rows[rows.len() - 1].active_count() > 0 {
            if stepper.step(groups, &mut rng) == StepOutcome::BudgetExhausted {
                break;
            }
            rows.push(stepper.snapshot());
        }
        rows
    }

    #[test]
    fn trace_records_activity_transitions() {
        let mut groups = two_point_groups(&[20.0, 50.0, 80.0], 20_000, 13);
        let rows = observed_rounds(&mut groups, 14);
        // All groups eventually deactivate.
        let last = &rows[rows.len() - 1];
        assert!(last.active.iter().all(|&a| !a));
        // The bootstrap draws every group once and each later round draws
        // the groups active before it: that accounting is the measured cost.
        let before_each_round = rows[..rows.len() - 1].iter().map(Snapshot::active_count);
        let implied = groups.len() + before_each_round.sum::<usize>();
        assert_eq!(implied as u64, last.total_samples());
    }

    #[test]
    fn history_is_monotone() {
        let mut groups = two_point_groups(&[10.0, 45.0, 55.0, 90.0], 50_000, 15);
        let rows = observed_rounds(&mut groups, 16);
        assert!(rows.len() > 1);
        // Samples grow, active groups never grow (policy (a)).
        for w in rows.windows(2) {
            assert!(w[1].total_samples() >= w[0].total_samples());
            assert!(w[1].active_count() <= w[0].active_count());
        }
        assert_eq!(
            rows[rows.len() - 1].active_count(),
            0,
            "ends with no active groups"
        );
    }

    #[test]
    fn heuristic_factor_reduces_samples() {
        let mut g1 = two_point_groups(&[30.0, 40.0, 70.0], 100_000, 19);
        let mut g2 = g1.clone();
        let honest = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let shrunk = IFocus::new(AlgoConfig::new(100.0, 0.05).with_heuristic_factor(4.0));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(20);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(20);
        let r_honest = honest.run(&mut g1, &mut rng1);
        let r_shrunk = shrunk.run(&mut g2, &mut rng2);
        assert!(
            r_shrunk.total_samples() < r_honest.total_samples() / 2,
            "aggressive shrinking should slash sampling: {} vs {}",
            r_shrunk.total_samples(),
            r_honest.total_samples()
        );
    }

    #[test]
    fn batched_rounds_still_correct_and_cheaper_bookkeeping() {
        let mut g1 = two_point_groups(&[20.0, 50.0, 80.0], 100_000, 23);
        let mut g2 = g1.clone();
        let truths = true_means(&g1);
        let single = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let batched = IFocus::new(AlgoConfig::new(100.0, 0.05).with_samples_per_round(64));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(24);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(24);
        let r1 = single.run(&mut g1, &mut rng1);
        let r64 = batched.run(&mut g2, &mut rng2);
        assert!(is_correctly_ordered(&r64.estimates, &truths));
        // Batch overshoot is bounded: within one batch per group of the
        // single-sample cost, modulo randomness.
        assert!(
            (r64.total_samples() as f64) < 1.5 * r1.total_samples() as f64 + 3.0 * 64.0,
            "batched {} vs single {}",
            r64.total_samples(),
            r1.total_samples()
        );
    }

    /// The pre-batching IFOCUS round loop, verbatim: one `state.draw` call
    /// per sample. Guards the acceptance criterion that the batched
    /// pipeline is byte-identical for a fixed seed.
    fn reference_ifocus(
        config: &AlgoConfig,
        groups: &mut [VecGroup],
        rng: &mut rand::rngs::StdRng,
    ) -> crate::result::RunResult {
        let mut state = FocusState::initialize(config, Width::anytime, groups, &[], rng);
        if state.resolution_reached(false) {
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
            for i in 0..state.k() {
                if state.active[i] && !state.exhausted[i] {
                    for _ in 0..batch {
                        state.draw(i, &mut groups[i], rng);
                    }
                }
            }
            if state.resolution_reached(false) || state.all_active_exhausted() {
                state.deactivate_all();
            } else {
                state.standard_deactivation();
            }
        }
        state.finish()
    }

    #[test]
    fn batched_pipeline_matches_single_draw_reference() {
        // Byte-identical results vs the pre-batching per-draw loop, at batch
        // size 1 AND at larger batches (draw_batch replays the same RNG
        // stream).
        for batch in [1u64, 16] {
            let mut g1 = two_point_groups(&[20.0, 45.0, 55.0, 80.0], 30_000, 90);
            let mut g2 = g1.clone();
            let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(batch);
            let mut rng1 = rand::rngs::StdRng::seed_from_u64(91);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(91);
            let result = IFocus::new(config.clone()).run(&mut g1, &mut rng1);
            let reference = reference_ifocus(&config, &mut g2, &mut rng2);
            assert_eq!(result.estimates, reference.estimates, "batch {batch}");
            assert_eq!(
                result.samples_per_group, reference.samples_per_group,
                "batch {batch}"
            );
            assert_eq!(result.rounds, reference.rounds, "batch {batch}");
            assert_eq!(result.truncated, reference.truncated, "batch {batch}");
        }
    }
}
