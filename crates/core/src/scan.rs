//! The exhaustive SCAN baseline.
//!
//! Reads every member of every group (a full sequential pass in storage
//! terms) and reports exact means. This is what a conventional DBMS does
//! for the visualization query, and the yardstick the paper's Figure 4 and
//! the conclusion's "1000× speedup" compare against.

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{AlgorithmStepper, Snapshot, StepOutcome};
use rand::RngCore;
use rapidviz_stats::{Interval, SamplingMode};

/// Exhaustive exact computation (zero failure probability, maximal cost).
#[derive(Debug, Clone)]
pub struct ExactScan {
    config: AlgoConfig,
}

impl ExactScan {
    /// Creates the baseline (only `c` is meaningful; `δ` is ignored since
    /// the answer is exact).
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Begins a resumable scan. Each [`AlgorithmStepper::step`] reads **one
    /// whole group**, so even the exhaustive baseline streams per-group
    /// exact bars as they complete.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(&self, groups: &mut [G], _rng: &mut dyn RngCore) -> ScanStepper {
        assert!(!groups.is_empty(), "need at least one group");
        let _ = &self.config;
        let k = groups.len();
        ScanStepper {
            labels: groups.iter().map(GroupSource::label).collect(),
            estimates: vec![0.0; k],
            samples: vec![0u64; k],
            next_group: 0,
        }
    }

    /// Reads every group fully and returns exact means — a thin loop over
    /// [`ExactScan::start`] and [`AlgorithmStepper::step`].
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

/// The SCAN state machine: one group read exhaustively per step.
#[derive(Debug)]
pub struct ScanStepper {
    labels: Vec<String>,
    estimates: Vec<f64>,
    samples: Vec<u64>,
    /// Next group to read; groups `..next_group` hold exact estimates.
    next_group: usize,
}

impl AlgorithmStepper for ScanStepper {
    fn step<G: GroupSource>(&mut self, groups: &mut [G], rng: &mut dyn RngCore) -> StepOutcome {
        if self.next_group >= self.labels.len() {
            return StepOutcome::Converged;
        }
        let i = self.next_group;
        let group = &mut groups[i];
        group.reset();
        let mut sum = 0.0;
        let mut n = 0u64;
        while let Some(x) = group.sample(rng, SamplingMode::WithoutReplacement) {
            sum += x;
            n += 1;
        }
        self.estimates[i] = if n == 0 { 0.0 } else { sum / n as f64 };
        self.samples[i] = n;
        self.next_group += 1;
        if self.next_group >= self.labels.len() {
            StepOutcome::Converged
        } else {
            StepOutcome::Running
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            labels: self.labels.clone(),
            estimates: self.estimates.clone(),
            // Scanned groups are exact (point intervals); unscanned ones
            // are completely unknown, rendered as point intervals at the
            // 0.0 placeholder while still marked active.
            intervals: self
                .estimates
                .iter()
                .map(|&e| Interval::centered(e, 0.0))
                .collect(),
            active: (0..self.labels.len())
                .map(|i| i >= self.next_group)
                .collect(),
            samples_per_group: self.samples.clone(),
            rounds: self.samples.iter().copied().max().unwrap_or(0),
            truncated: false,
        }
    }

    fn total_samples(&self) -> u64 {
        self.samples.iter().sum()
    }

    fn finish(self) -> RunResult {
        let max_read = self.samples.iter().copied().max().unwrap_or(0);
        RunResult {
            labels: self.labels,
            estimates: self.estimates,
            samples_per_group: self.samples,
            rounds: max_read,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use rand::SeedableRng;

    #[test]
    fn exact_means_full_cost() {
        let mut groups = vec![
            VecGroup::new("a", vec![1.0, 2.0, 3.0]),
            VecGroup::new("b", vec![10.0, 20.0]),
        ];
        let algo = ExactScan::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let result = algo.run(&mut groups, &mut rng);
        assert_eq!(result.estimates, vec![2.0, 15.0]);
        assert_eq!(result.samples_per_group, vec![3, 2]);
        assert_eq!(result.total_samples(), 5);
    }

    #[test]
    fn scan_after_partial_sampling_still_exact() {
        // reset() must restart the permutation even if the group was
        // partially consumed by another algorithm first.
        let mut g = VecGroup::new("a", vec![4.0, 8.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = g.sample(&mut rng, SamplingMode::WithoutReplacement);
        let mut groups = vec![g];
        let algo = ExactScan::new(AlgoConfig::new(100.0, 0.05));
        let result = algo.run(&mut groups, &mut rng);
        assert_eq!(result.estimates, vec![6.0]);
    }
}
