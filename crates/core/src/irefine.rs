//! IREFINE — the interval-halving alternative (Algorithm 3, §3.6).
//!
//! Where IFOCUS shrinks confidence intervals one sample at a time, IREFINE
//! is aggressive: in each *phase* it halves every active group's target
//! half-width `ε_i` (and failure budget `δ_i`), then calls `EstimateMean`
//! (Algorithm 2) to draw a **fresh** batch of
//! `m = c²/(2ε_i²)·ln(2/δ_i)` samples for the new estimate. A group stays
//! active while its interval `[µ̂_i ± ε_i]` intersects any other group's
//! (note: *any*, not just active ones — Algorithm 3 line 10).
//!
//! Guarantees (Theorem 3.10): correct ordering w.p. `≥ 1 − δ` after at most
//! `O(log(k/δ)·Σ_i log(1/η_i)/η_i²)` samples — a `log(1/η)` factor worse
//! than IFOCUS, and not optimal. The experiments confirm it lands between
//! IFOCUS and ROUNDROBIN.
//!
//! The `δ_i` initialization follows the intent of Algorithm 3 line 3
//! (`δ_i ← δ/(2k)`), so the per-group budgets telescope to `δ/k` and the
//! union bound yields `δ` overall.
//!
//! Implementation notes:
//! * Algorithm 2 as written discards the previous phase's samples and
//!   redraws from scratch. We instead *top up*: each phase draws only the
//!   additional samples needed to reach the target batch size and estimates
//!   from the cumulative mean. A cumulative with-replacement sample is
//!   itself an i.i.d. sample of the target size, so the Chernoff–Hoeffding
//!   guarantee is identical while the cost drops by the geometric-series
//!   overhead (~25%). Under the default without-replacement mode the
//!   Hoeffding–Serfling bound applies and is strictly tighter, so the
//!   target batch size (computed from plain Hoeffding) remains valid.
//! * Without replacement, a group whose cumulative draws reach its
//!   population size is *saturated*: the estimate is exact, the group
//!   retires, and the per-group cost is bounded by `n_i`. This keeps
//!   adversarial equal-mean inputs terminating.

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{AlgorithmStepper, Snapshot, StepOutcome};
use rand::RngCore;
use rapidviz_stats::{hoeffding_sample_size, Interval, IntervalSet, SamplingMode};

/// The IREFINE algorithm (and IREFINE-R with a resolution configured).
#[derive(Debug, Clone)]
pub struct IRefine {
    config: AlgoConfig,
}

impl IRefine {
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

    /// Begins a resumable run (Algorithm 3 lines 1–4: per-group targets and
    /// budgets initialized, nothing sampled yet — IREFINE's first draws
    /// happen in the first phase). A fixed-seed `start`/`step`/`finish`
    /// drive is byte-identical to [`IRefine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(
        &self,
        groups: &mut [G],
        _rng: &mut dyn RngCore,
    ) -> IRefineStepper {
        assert!(!groups.is_empty(), "need at least one group");
        let k = groups.len();
        let c = self.config.c;
        IRefineStepper {
            config: self.config.clone(),
            labels: groups.iter().map(GroupSource::label).collect(),
            sizes: groups.iter().map(GroupSource::len).collect(),
            estimates: vec![c / 2.0; k],
            eps: vec![c / 2.0; k],
            deltas: vec![self.config.delta / (2.0 * k as f64); k],
            active: vec![true; k],
            samples: vec![0u64; k],
            cumulative: vec![(0u64, 0.0f64); k],
            phase: 0,
            truncated: false,
            batch_buf: Vec::new(),
            // Each phase halves ε; ~60 phases reach f64 resolution. Anything
            // deeper means adversarial input; respect max_rounds too.
            phase_cap: self.config.max_rounds.min(200),
        }
    }

    /// Runs IREFINE over the groups to completion — a thin loop over
    /// [`IRefine::start`] and [`AlgorithmStepper::step`].
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

/// The IREFINE state machine: one [`AlgorithmStepper::step`] call per
/// *phase* (halve every active group's target half-width, top up its
/// cumulative sample to the new Hoeffding target, recompute activity).
#[derive(Debug)]
pub struct IRefineStepper {
    config: AlgoConfig,
    labels: Vec<String>,
    sizes: Vec<u64>,
    estimates: Vec<f64>,
    eps: Vec<f64>,
    deltas: Vec<f64>,
    active: Vec<bool>,
    samples: Vec<u64>,
    /// Cumulative (count, sum) of the i.i.d. with-replacement sample.
    cumulative: Vec<(u64, f64)>,
    phase: u64,
    truncated: bool,
    batch_buf: Vec<f64>,
    phase_cap: u64,
}

impl AlgorithmStepper for IRefineStepper {
    fn step<G: GroupSource>(&mut self, groups: &mut [G], rng: &mut dyn RngCore) -> StepOutcome {
        if !self.active.iter().any(|&a| a) {
            return StepOutcome::Converged;
        }
        let k = self.labels.len();
        let c = self.config.c;
        let resolution_eps = self.config.resolution_epsilon();
        // The cap is tested before the counter moves, so a capped run
        // reports `rounds == phase_cap` however often it is stepped again.
        if self.phase >= self.phase_cap {
            self.truncated = true;
            return StepOutcome::BudgetExhausted;
        }
        self.phase += 1;
        for i in 0..k {
            if !self.active[i] {
                continue;
            }
            // Resolution relaxation: stop refining below r/4.
            if resolution_eps.is_some_and(|r| self.eps[i] < r) {
                self.active[i] = false;
                continue;
            }
            // Halve targets and re-estimate (lines 8–9).
            self.eps[i] /= 2.0;
            self.deltas[i] /= 2.0;
            let target = hoeffding_sample_size(self.eps[i], self.deltas[i], c);
            // Sample-budget guard: a target past the per-group budget
            // retires the group with its current estimate (truncated
            // run) rather than spinning on an adversarial near-tie.
            if target > self.config.max_samples_per_group {
                self.active[i] = false;
                self.truncated = true;
                continue;
            }
            // Saturation: under without-replacement sampling a target at
            // or past the population size just tops up to exhaustion —
            // the cumulative sample then IS the population and the
            // estimate is exact (Serfling width 0). With replacement the
            // cap would void the Hoeffding guarantee, so the full target
            // stands (the budget guard above bounds runaway).
            let without_replacement = self.config.mode == SamplingMode::WithoutReplacement;
            let target = if without_replacement {
                target.min(self.sizes[i])
            } else {
                target
            };
            let have = self.cumulative[i].0;
            // Top up to the phase target in one batched call: the
            // engine-backed sources resolve the whole top-up through a
            // single select_many sweep instead of `target - have`
            // independent directory searches.
            self.batch_buf.clear();
            let got =
                groups[i].draw_batch(target - have, rng, self.config.mode, &mut self.batch_buf);
            for &x in &self.batch_buf {
                self.cumulative[i].0 += 1;
                self.cumulative[i].1 += x;
            }
            debug_assert_eq!(self.cumulative[i].0, have + got);
            self.samples[i] += got;
            if self.cumulative[i].0 > 0 {
                self.estimates[i] = self.cumulative[i].1 / self.cumulative[i].0 as f64;
            }
            if without_replacement && self.cumulative[i].0 >= self.sizes[i] {
                // Entire population drawn: estimate is exact (the group
                // is saturated and retires with a zero-width interval).
                self.eps[i] = 0.0;
                self.active[i] = false;
            }
        }
        // Line 10: recompute activity against every group's interval.
        let set = IntervalSet::new(
            (0..k)
                .map(|i| Interval::centered(self.estimates[i], self.eps[i]))
                .collect(),
        );
        for i in 0..k {
            if self.active[i] {
                self.active[i] = set.member_overlaps_others(i);
            }
        }
        if self.active.iter().any(|&a| a) {
            StepOutcome::Running
        } else {
            StepOutcome::Converged
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            labels: self.labels.clone(),
            estimates: self.estimates.clone(),
            intervals: (0..self.labels.len())
                .map(|i| Interval::centered(self.estimates[i], self.eps[i]))
                .collect(),
            active: self.active.clone(),
            samples_per_group: self.samples.clone(),
            rounds: self.phase,
            truncated: self.truncated,
        }
    }

    fn total_samples(&self) -> u64 {
        self.samples.iter().sum()
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.labels.capacity() * size_of::<String>()
            + self.labels.iter().map(String::capacity).sum::<usize>()
            + self.sizes.capacity() * size_of::<u64>()
            + self.estimates.capacity() * size_of::<f64>()
            + self.eps.capacity() * size_of::<f64>()
            + self.deltas.capacity() * size_of::<f64>()
            + self.active.capacity() * size_of::<bool>()
            + self.samples.capacity() * size_of::<u64>()
            + self.cumulative.capacity() * size_of::<(u64, f64)>()
            + self.batch_buf.capacity() * size_of::<f64>()
    }

    fn finish(self) -> RunResult {
        RunResult {
            labels: self.labels,
            estimates: self.estimates,
            samples_per_group: self.samples,
            rounds: self.phase,
            truncated: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ifocus::IFocus;
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
    fn correct_ordering() {
        let mut groups = two_point_groups(&[20.0, 50.0, 80.0], 100_000, 61);
        let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
        let algo = IRefine::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
        assert!(!result.truncated);
    }

    #[test]
    fn lands_between_ifocus_and_exhaustive() {
        let mut g1 = two_point_groups(&[25.0, 45.0, 47.0, 75.0], 300_000, 63);
        let mut g2 = g1.clone();
        let ir = IRefine::new(AlgoConfig::new(100.0, 0.05));
        let ifx = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(64);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(64);
        let r_ir = ir.run(&mut g1, &mut rng1);
        let r_if = ifx.run(&mut g2, &mut rng2);
        // IREFINE overshoots each phase, so it should cost more than IFOCUS
        // (allow slack for randomness but require the trend).
        assert!(
            r_ir.total_samples() > r_if.total_samples() / 2,
            "irefine {} suspiciously below ifocus {}",
            r_ir.total_samples(),
            r_if.total_samples()
        );
        assert!(!r_ir.truncated);
    }

    #[test]
    fn resolution_stops_early() {
        let mut g1 = two_point_groups(&[30.0, 31.0, 70.0], 500_000, 65);
        let mut g2 = g1.clone();
        let plain = IRefine::new(AlgoConfig::new(100.0, 0.05));
        let relaxed = IRefine::new(AlgoConfig::new(100.0, 0.05).with_resolution(8.0));
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(66);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(66);
        let r_plain = plain.run(&mut g1, &mut rng1);
        let r_relaxed = relaxed.run(&mut g2, &mut rng2);
        assert!(r_relaxed.total_samples() < r_plain.total_samples());
    }

    #[test]
    fn equal_means_saturate_and_terminate() {
        let mut groups = vec![
            VecGroup::new("a", vec![50.0; 200]),
            VecGroup::new("b", vec![50.0; 200]),
        ];
        let algo = IRefine::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
        assert!((result.estimates[0] - 50.0).abs() < 1e-9);
        assert!((result.estimates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn single_group() {
        let mut groups = vec![VecGroup::new("only", vec![1.0, 2.0])];
        let algo = IRefine::new(AlgoConfig::new(10.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(68);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
    }

    #[test]
    fn a_phase_capped_run_reports_the_cap_and_further_steps_change_nothing() {
        // A tie only the phase cap can stop: the run reports exactly `cap`
        // phases, and further `step()` calls draw nothing and change nothing
        // (`AlgorithmStepper::step` is idempotent after termination).
        for cap in [1u64, 3] {
            let mut groups = vec![
                VecGroup::new("a", vec![50.0; 100_000]),
                VecGroup::new("b", vec![50.0; 100_000]),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(69);
            let algo = IRefine::new(AlgoConfig::new(100.0, 0.05).with_max_rounds(cap));
            let mut stepper = algo.start(&mut groups, &mut rng);
            while stepper.step(&mut groups, &mut rng).is_running() {}
            let view = |s: &IRefineStepper| {
                let snap = s.snapshot();
                (
                    snap.rounds,
                    snap.estimates,
                    snap.samples_per_group,
                    snap.truncated,
                )
            };
            let capped = view(&stepper);
            assert_eq!(capped.0, cap);
            assert!(capped.3);
            for _ in 0..2 {
                let outcome = stepper.step(&mut groups, &mut rng);
                assert_eq!(outcome, StepOutcome::BudgetExhausted);
                assert_eq!(view(&stepper), capped, "cap {cap}");
            }
        }
    }

    /// The pre-stepper IREFINE phase loop, verbatim. Guards the acceptance
    /// criterion that the resumable-session refactor is byte-identical for
    /// a fixed seed.
    fn reference_irefine(
        config: &AlgoConfig,
        groups: &mut [VecGroup],
        rng: &mut dyn RngCore,
    ) -> RunResult {
        assert!(!groups.is_empty(), "need at least one group");
        let k = groups.len();
        let c = config.c;
        let labels: Vec<String> = groups.iter().map(GroupSource::label).collect();
        let sizes: Vec<u64> = groups.iter().map(GroupSource::len).collect();
        let mut estimates = vec![c / 2.0; k];
        let mut eps = vec![c / 2.0; k];
        let mut deltas = vec![config.delta / (2.0 * k as f64); k];
        let mut active = vec![true; k];
        let mut samples = vec![0u64; k];
        let mut cumulative = vec![(0u64, 0.0f64); k];
        let resolution_eps = config.resolution_epsilon();
        let mut phase = 0u64;
        let mut truncated = false;
        let mut batch_buf: Vec<f64> = Vec::new();
        let phase_cap = config.max_rounds.min(200);
        while active.iter().any(|&a| a) {
            phase += 1;
            if phase > phase_cap {
                truncated = true;
                break;
            }
            for i in 0..k {
                if !active[i] {
                    continue;
                }
                if resolution_eps.is_some_and(|r| eps[i] < r) {
                    active[i] = false;
                    continue;
                }
                eps[i] /= 2.0;
                deltas[i] /= 2.0;
                let target = hoeffding_sample_size(eps[i], deltas[i], c);
                if target > config.max_samples_per_group {
                    active[i] = false;
                    truncated = true;
                    continue;
                }
                let without_replacement = config.mode == SamplingMode::WithoutReplacement;
                let target = if without_replacement {
                    target.min(sizes[i])
                } else {
                    target
                };
                let have = cumulative[i].0;
                batch_buf.clear();
                let got = groups[i].draw_batch(target - have, rng, config.mode, &mut batch_buf);
                for &x in &batch_buf {
                    cumulative[i].0 += 1;
                    cumulative[i].1 += x;
                }
                samples[i] += got;
                if cumulative[i].0 > 0 {
                    estimates[i] = cumulative[i].1 / cumulative[i].0 as f64;
                }
                if without_replacement && cumulative[i].0 >= sizes[i] {
                    eps[i] = 0.0;
                    active[i] = false;
                }
            }
            let set = IntervalSet::new(
                (0..k)
                    .map(|i| Interval::centered(estimates[i], eps[i]))
                    .collect(),
            );
            for i in 0..k {
                if active[i] {
                    active[i] = set.member_overlaps_others(i);
                }
            }
        }
        RunResult {
            labels,
            estimates,
            samples_per_group: samples,
            rounds: phase,
            truncated,
        }
    }

    #[test]
    fn stepper_matches_blocking_reference() {
        let mut g1 = two_point_groups(&[25.0, 47.0, 53.0, 80.0], 60_000, 70);
        let mut g2 = g1.clone();
        let config = AlgoConfig::new(100.0, 0.05);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(71);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(71);
        let result = IRefine::new(config.clone()).run(&mut g1, &mut rng1);
        let reference = reference_irefine(&config, &mut g2, &mut rng2);
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
        assert_eq!(result.truncated, reference.truncated);
    }
}
