//! §6.3.5 — multiple aggregates visualized simultaneously (Problem 8).
//!
//! For `SELECT X, AVG(Y), AVG(Z) … GROUP BY X`, both orderings (by `Y` and
//! by `Z`) must be correct, each with overall failure probability `δ`.
//! Following the paper's solution:
//!
//! 1. run IFOCUS on `Y` with budget `δ/2`, while *also* folding every drawn
//!    tuple's `Z` into running `Z`-estimates (free piggyback samples);
//! 2. once `Y` has no active groups, run IFOCUS on `Z` with budget `δ/2`,
//!    **starting from the piggybacked estimates** — each group enters
//!    phase 2 with whatever sample count it accumulated, so the second
//!    phase usually needs far fewer fresh draws than a from-scratch run.
//!
//! Because the groups enter phase 2 with heterogeneous sample counts, the
//! phase-2 loop uses per-group ε values `ε(m_i)`; the anytime schedule is
//! valid at every per-group `m`, so correctness is unaffected.
//!
//! Outside [`crate::focus`]'s one round: it samples a *pair* stream
//! ([`PairGroupSource`], not `GroupSource`) into two means per group, in two
//! phases at per-group `m_i`. Library-only §6.3.5 reference, eager `run`.

use crate::config::AlgoConfig;
use crate::state::FixpointScratch;
use rand::RngCore;
use rapidviz_stats::{Interval, RunningMean, SamplingMode};

/// A group source producing paired measures `(y, z)` for one tuple.
pub trait PairGroupSource {
    /// Display label.
    fn label(&self) -> String;

    /// Population size.
    fn len(&self) -> u64;

    /// Whether the group has no members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws one tuple's `(y, z)` pair.
    fn sample_pair(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<(f64, f64)>;

    /// True means `(µ_y, µ_z)`, when known (evaluation only).
    fn true_means(&self) -> Option<(f64, f64)> {
        None
    }
}

/// A materialized pair group.
#[derive(Debug, Clone)]
pub struct VecPairGroup {
    label: String,
    pairs: Vec<(f64, f64)>,
    drawn: usize,
}

impl VecPairGroup {
    /// Creates a group from `(y, z)` tuples.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    #[must_use]
    pub fn new(label: impl Into<String>, pairs: Vec<(f64, f64)>) -> Self {
        assert!(!pairs.is_empty(), "a group must have at least one member");
        Self {
            label: label.into(),
            pairs,
            drawn: 0,
        }
    }
}

impl PairGroupSource for VecPairGroup {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn len(&self) -> u64 {
        self.pairs.len() as u64
    }

    fn sample_pair(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<(f64, f64)> {
        use rand::Rng;
        match mode {
            SamplingMode::WithReplacement => Some(self.pairs[rng.gen_range(0..self.pairs.len())]),
            SamplingMode::WithoutReplacement => {
                if self.drawn == self.pairs.len() {
                    return None;
                }
                let j = rng.gen_range(self.drawn..self.pairs.len());
                self.pairs.swap(self.drawn, j);
                let p = self.pairs[self.drawn];
                self.drawn += 1;
                Some(p)
            }
        }
    }

    fn true_means(&self) -> Option<(f64, f64)> {
        let n = self.pairs.len() as f64;
        let (sy, sz) = self
            .pairs
            .iter()
            .fold((0.0, 0.0), |(a, b), (y, z)| (a + y, b + z));
        Some((sy / n, sz / n))
    }
}

/// Result of a multi-aggregate run.
#[derive(Debug, Clone)]
pub struct MultiAggregateResult {
    /// Group labels.
    pub labels: Vec<String>,
    /// Final `AVG(Y)` estimates.
    pub y_estimates: Vec<f64>,
    /// Final `AVG(Z)` estimates.
    pub z_estimates: Vec<f64>,
    /// Samples drawn per group across both phases.
    pub samples_per_group: Vec<u64>,
    /// Whether either phase hit its round cap.
    pub truncated: bool,
}

impl MultiAggregateResult {
    /// Total sample complexity.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.samples_per_group.iter().sum()
    }
}

/// IFOCUS over two aggregates of the same group-by (Problem 8).
#[derive(Debug, Clone)]
pub struct IFocusMultiAggregate {
    config: AlgoConfig,
}

impl IFocusMultiAggregate {
    /// Creates the algorithm; the configured `δ` is split `δ/2 + δ/2`
    /// between the two orderings internally.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Runs both phases.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: PairGroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> MultiAggregateResult {
        assert!(!groups.is_empty(), "need at least one group");
        let k = groups.len();
        let mut half = self.config.clone();
        half.delta /= 2.0;
        let mut run = PairRun {
            config: &self.config,
            schedule: half.schedule(k),
            n_max: groups.iter().map(PairGroupSource::len).max().unwrap_or(1),
            estimates: [vec![RunningMean::new(); k], vec![RunningMean::new(); k]],
            counts: vec![0u64; k],
            fix: FixpointScratch::default(),
        };
        // Phase 1: drive on Y, piggyback Z; the bootstrap draw is round 1.
        run.draw(&vec![true; k], groups, rng);
        let truncated_y = run.phase(0, 1, groups, rng);
        // Phase 2: drive on Z, starting from the piggybacked estimates and
        // heterogeneous per-group counts.
        let truncated_z = run.phase(1, 0, groups, rng);
        let [y_est, z_est] = &run.estimates;
        MultiAggregateResult {
            labels: groups.iter().map(PairGroupSource::label).collect(),
            y_estimates: y_est.iter().map(RunningMean::mean).collect(),
            z_estimates: z_est.iter().map(RunningMean::mean).collect(),
            samples_per_group: run.counts,
            truncated: truncated_y || truncated_z,
        }
    }
}

/// The state both phases share: `[Y, Z]` running means fed by every drawn
/// tuple, and the per-group tuple counts that set each group's ε.
struct PairRun<'a> {
    config: &'a AlgoConfig,
    schedule: rapidviz_stats::EpsilonSchedule,
    n_max: u64,
    estimates: [Vec<RunningMean>; 2],
    counts: Vec<u64>,
    fix: FixpointScratch,
}

impl PairRun<'_> {
    /// One tuple from every active group; `false` when none had one left.
    fn draw<G: PairGroupSource>(
        &mut self,
        active: &[bool],
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> bool {
        let mut progressed = false;
        for i in 0..active.len() {
            if active[i] {
                if let Some((y, z)) = groups[i].sample_pair(rng, self.config.mode) {
                    self.estimates[0][i].push(y);
                    self.estimates[1][i].push(z);
                    self.counts[i] += 1;
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// IFOCUS on measure `drive` with every group active again, its round
    /// counter starting at `round`; returns whether the round cap cut it.
    fn phase<G: PairGroupSource>(
        &mut self,
        drive: usize,
        mut round: u64,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> bool {
        let mut active = vec![true; self.counts.len()];
        loop {
            self.deactivate(drive, &mut active);
            if !active.iter().any(|&a| a) {
                return false;
            }
            if round >= self.config.max_rounds {
                return true;
            }
            round += 1;
            if !self.draw(&active, groups, rng) {
                return false; // every active group exhausted
            }
        }
    }

    /// Fixpoint deactivation with per-group ε(m_i) (heterogeneous counts).
    fn deactivate(&mut self, drive: usize, active: &mut [bool]) {
        let (schedule, counts, n_max) = (&self.schedule, &self.counts, self.n_max);
        let estimates = &self.estimates[drive];
        let eps_of = |i: usize| schedule.half_width(counts[i].max(1), n_max);
        if let Some(thresh) = self.config.resolution_epsilon() {
            if (0..active.len())
                .filter(|&i| active[i])
                .all(|i| eps_of(i) < thresh)
            {
                active.iter_mut().for_each(|a| *a = false);
                return;
            }
        }
        let interval_of = |i: usize| Interval::centered(estimates[i].mean(), eps_of(i));
        while self.fix.separate(active, interval_of) {
            for &i in &self.fix.remove {
                active[i] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::is_correctly_ordered;
    use rand::{Rng, SeedableRng};

    fn pair_groups(specs: &[(f64, f64)], n: usize, seed: u64) -> Vec<VecPairGroup> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        specs
            .iter()
            .enumerate()
            .map(|(i, &(my, mz))| {
                let pairs: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        let y = if rng.gen_bool(my / 100.0) { 100.0 } else { 0.0 };
                        let z = if rng.gen_bool(mz / 100.0) { 100.0 } else { 0.0 };
                        (y, z)
                    })
                    .collect();
                VecPairGroup::new(format!("g{i}"), pairs)
            })
            .collect()
    }

    #[test]
    fn both_orderings_correct() {
        // Y ordering: g0 < g1 < g2; Z ordering: g2 < g0 < g1 (different!).
        let specs = [(20.0, 50.0), (50.0, 80.0), (80.0, 20.0)];
        let mut groups = pair_groups(&specs, 100_000, 130);
        let (ty, tz): (Vec<f64>, Vec<f64>) = groups.iter().map(|g| g.true_means().unwrap()).unzip();
        let algo = IFocusMultiAggregate::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(131);
        let result = algo.run(&mut groups, &mut rng);
        assert!(is_correctly_ordered(&result.y_estimates, &ty), "Y ordering");
        assert!(is_correctly_ordered(&result.z_estimates, &tz), "Z ordering");
        assert!(!result.truncated);
    }

    #[test]
    fn piggybacking_beats_two_independent_runs() {
        // When the Z ordering is easy, phase 2 should add almost nothing:
        // total cost stays well below 2x the Y-only cost.
        let specs = [(40.0, 10.0), (42.0, 50.0), (80.0, 90.0)];
        let mut g1 = pair_groups(&specs, 300_000, 132);
        let algo = IFocusMultiAggregate::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(133);
        let result = algo.run(&mut g1, &mut rng);

        // Y-only baseline via plain IFOCUS on the Y component.
        let mut y_groups: Vec<crate::group::VecGroup> = g1
            .iter()
            .enumerate()
            .map(|(i, g)| {
                crate::group::VecGroup::new(
                    format!("y{i}"),
                    g.pairs.iter().map(|&(y, _)| y).collect(),
                )
            })
            .collect();
        let y_only = crate::ifocus::IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(133);
        let r_y = y_only.run(&mut y_groups, &mut rng2);
        assert!(
            result.total_samples() < r_y.total_samples() * 2,
            "multi {} should cost less than 2x the dominant phase {}",
            result.total_samples(),
            r_y.total_samples()
        );
    }

    #[test]
    fn without_replacement_exhaustion_terminates() {
        let specs = [(50.0, 50.0), (50.0, 50.0)];
        let mut groups = pair_groups(&specs, 200, 134);
        let algo = IFocusMultiAggregate::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(135);
        let result = algo.run(&mut groups, &mut rng);
        assert!(!result.truncated);
        assert!(result.total_samples() <= 400);
    }
}
