//! Problem 7 — AVG-ORDER-PARTIAL (§6.2.2).
//!
//! Long-running visualizations should render incrementally: each group's
//! bar appears the moment the algorithm is confident about it. The solution
//! is exactly the paper's: emit a group's estimate when it deactivates.
//! With probability `1 − δ`, the ordering among all groups emitted at any
//! point in time is correct (they were mutually disjoint when they froze).

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule};
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{AlgorithmStepper, Snapshot, StepOutcome};
use crate::state::{FocusState, Width};
use rand::RngCore;

pub use crate::result::PartialEmission;

/// IFOCUS that streams estimates as groups become inactive.
#[derive(Debug, Clone)]
pub struct IFocusPartial {
    config: AlgoConfig,
}

impl IFocusPartial {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Begins a resumable run: bootstrap sample, round-1 deactivation, and
    /// the first emission flush (a group can certify instantly only under
    /// degenerate inputs, but the flush keeps the stream exact). Drain the
    /// stepper's pending emissions after `start` and after every `step`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> IFocusPartialStepper {
        let state = FocusState::initialize(&self.config, Width::anytime, groups, rng);
        let mut stepper = IFocusPartialStepper {
            emitted: vec![false; state.k()],
            // Unlike plain IFOCUS, the round-1 test does not consult the
            // resolution cut-off (pinned as is; see `FocusStepper::start`).
            inner: FocusStepper::begin(state, Rule::FullOrder, false),
            pending: Vec::new(),
        };
        stepper.flush();
        stepper
    }

    /// Runs over the groups, invoking `emit` for each group the moment it
    /// deactivates. The final [`RunResult`] is identical to plain IFOCUS's.
    ///
    /// Rounds draw through the same batched pipeline as IFOCUS (one
    /// `draw_batch` of [`AlgoConfig::samples_per_round`] per active group,
    /// selected via the state's reusable scratch), so fixed-seed results
    /// match the historical per-draw loop exactly at batch size 1. This is
    /// a thin loop over [`IFocusPartial::start`] and
    /// [`IFocusPartialStepper::step`], draining emissions per round.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: GroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(PartialEmission),
    ) -> RunResult {
        let mut stepper = self.start(groups, rng);
        let mut running = true;
        while running {
            stepper.drain_emissions().into_iter().for_each(&mut emit);
            running = stepper.step(groups, rng).is_running();
        }
        stepper.drain_emissions().into_iter().for_each(&mut emit);
        stepper.finish()
    }
}

/// The streaming-IFOCUS state machine: identical rounds to
/// [`crate::IFocus`]'s stepper, plus a pending-emission queue filled the
/// moment groups deactivate. Mirrors [`crate::runner::AlgorithmStepper`]'s
/// shape with an extra [`IFocusPartialStepper::drain_emissions`] hook.
#[derive(Debug)]
pub struct IFocusPartialStepper {
    inner: FocusStepper,
    emitted: Vec<bool>,
    pending: Vec<PartialEmission>,
}

impl IFocusPartialStepper {
    /// Total samples drawn so far.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.inner.total_samples()
    }

    /// Advances one round; mirrors
    /// [`crate::runner::AlgorithmStepper::step`]. Newly certified groups
    /// land in the pending queue — drain it after each call. (A truncated
    /// run still flushes whatever froze.)
    pub fn step<G: GroupSource>(&mut self, groups: &mut [G], rng: &mut dyn RngCore) -> StepOutcome {
        let outcome = self.inner.step(groups, rng);
        self.flush();
        outcome
    }

    /// Removes and returns the emissions produced since the last drain, in
    /// deactivation order.
    pub fn drain_emissions(&mut self) -> Vec<PartialEmission> {
        std::mem::take(&mut self.pending)
    }

    /// The current estimates, intervals, active set, and partial ordering.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    /// Consumes the stepper and packages the final result.
    #[must_use]
    pub fn finish(self) -> RunResult {
        self.inner.finish()
    }

    /// Queues an emission for every group that deactivated since the last
    /// flush.
    fn flush(&mut self) {
        let state = &self.inner.state;
        let total = state.total_samples();
        for i in 0..state.k() {
            if !state.active[i] && !self.emitted[i] {
                self.emitted[i] = true;
                self.pending.push(PartialEmission {
                    group: i,
                    label: state.labels[i].clone(),
                    estimate: state.estimates[i].mean(),
                    round: state.m,
                    total_samples_so_far: total,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ordering::is_correctly_ordered;
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
    fn emits_every_group_exactly_once_in_deactivation_order() {
        let means = [20.0, 48.0, 52.0, 85.0];
        let mut groups = two_point_groups(&means, 200_000, 110);
        let algo = IFocusPartial::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(111);
        let mut emissions = Vec::new();
        let result = algo.run(&mut groups, &mut rng, |e| emissions.push(e));
        assert_eq!(emissions.len(), 4, "each group emitted once");
        let mut seen: Vec<usize> = emissions.iter().map(|e| e.group).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Emission rounds are non-decreasing.
        for w in emissions.windows(2) {
            assert!(w[1].round >= w[0].round);
            assert!(w[1].total_samples_so_far >= w[0].total_samples_so_far);
        }
        // The contentious middle pair deactivates last.
        let last_two: Vec<usize> = emissions[2..].iter().map(|e| e.group).collect();
        assert!(
            last_two.contains(&1) && last_two.contains(&2),
            "near-tied groups should finish last: {last_two:?}"
        );
        // Final estimates equal the streamed ones.
        for e in &emissions {
            assert_eq!(result.estimates[e.group], e.estimate);
        }
    }

    #[test]
    fn prefix_of_emissions_is_correctly_ordered() {
        let means = [15.0, 40.0, 65.0, 90.0];
        let mut groups = two_point_groups(&means, 100_000, 112);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IFocusPartial::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        let mut emissions = Vec::new();
        let _ = algo.run(&mut groups, &mut rng, |e| emissions.push(e));
        // Every prefix of the emission stream must be internally ordered
        // correctly (the partial-results guarantee).
        for prefix_len in 1..=emissions.len() {
            let prefix = &emissions[..prefix_len];
            let est: Vec<f64> = prefix.iter().map(|e| e.estimate).collect();
            let tru: Vec<f64> = prefix.iter().map(|e| truths[e.group]).collect();
            assert!(
                is_correctly_ordered(&est, &tru),
                "prefix of {prefix_len} emissions mis-ordered"
            );
        }
    }

    /// The pre-refactor emission flush, verbatim (the production flush now
    /// lives on the stepper and queues instead of calling out).
    fn reference_flush(
        state: &FocusState,
        emitted: &mut [bool],
        emit: &mut impl FnMut(PartialEmission),
    ) {
        let total: u64 = state.samples.iter().sum();
        for i in 0..state.k() {
            if !state.active[i] && !emitted[i] {
                emitted[i] = true;
                emit(PartialEmission {
                    group: i,
                    label: state.labels[i].clone(),
                    estimate: state.estimates[i].mean(),
                    round: state.m,
                    total_samples_so_far: total,
                });
            }
        }
    }

    /// The pre-batching partial-results round loop, verbatim: one
    /// `state.draw` per active group per round.
    fn reference_partial(
        config: &AlgoConfig,
        groups: &mut [VecGroup],
        rng: &mut dyn rand::RngCore,
        emit: &mut impl FnMut(PartialEmission),
    ) -> RunResult {
        let mut state = FocusState::initialize(config, Width::anytime, groups, rng);
        let mut emitted = vec![false; state.k()];
        state.standard_deactivation();
        reference_flush(&state, &mut emitted, emit);
        while state.any_active() {
            if state.m >= config.max_rounds {
                state.truncated = true;
                break;
            }
            state.m += 1;
            for i in 0..state.k() {
                if state.active[i] && !state.exhausted[i] {
                    state.draw(i, &mut groups[i], rng);
                }
            }
            if state.resolution_reached() || state.all_active_exhausted() {
                state.deactivate_all();
            } else {
                state.standard_deactivation();
            }
            reference_flush(&state, &mut emitted, emit);
        }
        reference_flush(&state, &mut emitted, emit);
        state.finish()
    }

    #[test]
    fn batched_partial_matches_single_draw_reference() {
        // Byte-identical emissions and result vs the per-draw loop at the
        // default batch size.
        let means = [20.0, 46.0, 54.0, 85.0];
        let mut g1 = two_point_groups(&means, 50_000, 140);
        let mut g2 = g1.clone();
        let config = AlgoConfig::new(100.0, 0.05);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(141);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(141);
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        let result = IFocusPartial::new(config.clone()).run(&mut g1, &mut rng1, |e| e1.push(e));
        let reference = reference_partial(&config, &mut g2, &mut rng2, &mut |e| e2.push(e));
        assert_eq!(e1, e2, "emission streams must be identical");
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
    }
}
