//! The one IFOCUS round, and the rule that tells its variants apart.
//!
//! Algorithm 1 and its §6 relatives all run the same round over one
//! `FocusState` — prologue, draw, cut-off or deactivation test, outcome —
//! and differ only in their answer to *which comparisons still
//! matter?* [`FocusStepper`] writes that round once
//! (`FocusStepper::round` holds the crate's only `begin_round` call); a
//! crate-private `Rule` owns the four things the variants disagree on:
//! which groups draw, when the whole run is cut off, the deactivation
//! test, and (for SUM) the sum-space view of snapshots and results. The
//! crate root and [`crate::extensions`] list which rule each public type is.
//! How wide each group's interval is — the anytime ε, or the Bernstein
//! variant's per-group empirical-Bernstein width — is the state's `Width`.
//!
//! Three rules take the batched round of [`AlgorithmStepper::step`], which
//! draws `samples_per_round` from each drawing group in one `draw_batch`
//! call: IFOCUS (`FullOrder`), ROUNDROBIN (`EveryGroup`) and Algorithm 4
//! (`ScaledSum`). Algorithm 5 batches its `(x, z)` draws the same way in
//! its own stepper. The anytime ε holds for every `m` at once, so testing
//! only every `b`-th `m` keeps the 1−δ guarantee. The eager §6 variants and
//! the Bernstein variant run the per-draw [`FocusStepper::step_any`].

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{AlgorithmStepper, Snapshot, StepOutcome};
use crate::state::FocusState;
pub(crate) use crate::state::Width;
use rand::RngCore;
use rapidviz_stats::Interval;

/// Whether the analyst wants the largest or the smallest `t` groups
/// (§6.1.2 supports both "top-t or bottom-t").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopTDirection {
    /// Certify the `t` groups with the largest means.
    #[default]
    Largest,
    /// Certify the `t` groups with the smallest means.
    Smallest,
}

/// Which comparisons still matter — everything a variant adds to the round.
#[derive(Debug)]
pub(crate) enum Rule {
    /// Every pair must order; active groups draw a batch each (Algorithm 1,
    /// and Algorithm 5 over its `x·z` stream).
    FullOrder,
    /// Every pair must order, but *every* unexhausted group keeps drawing
    /// (ROUNDROBIN).
    EveryGroup,
    /// Every pair must order in sum space `|S_i|·ν_i` (Algorithm 4); active
    /// groups draw a batch each, as under `FullOrder`.
    ScaledSum,
    /// SCAN: every group exact, read one per step, each leaving the active
    /// set once read (`FocusState::read_exact`); no fixpoint.
    Scan,
    /// Only the `t` best groups, and the order among them (§6.1.2).
    /// `ruled_out[i]`: group `i` is certainly not one of them.
    TopT {
        t: usize,
        direction: TopTDirection,
        ruled_out: Vec<bool>,
    },
    /// Only pairs joined by an edge (§6.1.1). `resolved[e]`: the intervals
    /// of `edges[e]` have been disjoint once (self-loops start resolved).
    Neighbours {
        edges: Vec<(usize, usize)>,
        resolved: Vec<bool>,
    },
    /// All but a fraction γ of the pairs (§6.1.3).
    Mistakes { gamma: f64 },
    /// Every pair, and every estimate within `±d` (§6.2.1).
    Values { d: f64 },
}

impl Rule {
    /// Graph-restricted ordering over the given adjacency edges.
    pub(crate) fn neighbours(edges: Vec<(usize, usize)>) -> Self {
        let resolved = edges.iter().map(|&(a, b)| a == b).collect();
        Rule::Neighbours { edges, resolved }
    }

    /// Whether a finished round ends the run outright: the resolution
    /// relaxation (`ε_m < r/4`; SUM compares the largest `|S_i|·ε`; the
    /// value requirement replaces it), or nothing left to draw.
    fn cut_off(&self, state: &mut FocusState) -> bool {
        let relaxed = !matches!(self, Rule::Values { .. } | Rule::Scan);
        (relaxed && state.resolution_reached(matches!(self, Rule::ScaledSum)))
            || match self {
                Rule::EveryGroup => state.all_exhausted(),
                _ => state.all_active_exhausted(),
            }
    }

    /// The deactivation test (Algorithm 1 lines 10–12, as each variant
    /// redefines "still matters").
    fn deactivate(&mut self, state: &mut FocusState) {
        match self {
            Rule::FullOrder | Rule::EveryGroup => state.standard_deactivation(),
            Rule::ScaledSum => {
                // Intervals `[|S_i|·(ν_i − ε), |S_i|·(ν_i + ε)]`
                // (Algorithm 4 lines 6–7, 11–13), an exact group's scaled.
                state.read_widths();
                state.separate(|s, i| {
                    let (n, iv) = (s.sizes[i] as f64, s.interval(i));
                    match s.exact[i] {
                        Some(_) => Interval::new(iv.lo * n, iv.hi * n),
                        None => Interval::centered(s.estimates[i].mean() * n, s.live[i] * n),
                    }
                });
            }
            Rule::Scan => {}
            Rule::TopT {
                t,
                direction,
                ruled_out,
            } => {
                state.read_widths();
                let k = state.k();
                let intervals: Vec<Interval> = (0..k).map(|i| state.interval(i)).collect();
                // A group is certainly out when >= t intervals sit strictly
                // on the winning side of it (above for top-t, below for
                // bottom-t); it stops being a comparison target for good.
                for i in 0..k {
                    let better = |j: &usize| match direction {
                        TopTDirection::Largest => intervals[i].strictly_below(&intervals[*j]),
                        TopTDirection::Smallest => intervals[*j].strictly_below(&intervals[i]),
                    };
                    if !ruled_out[i] && (0..k).filter(|&j| j != i).filter(better).count() >= *t {
                        ruled_out[i] = true;
                        state.deactivate(i);
                    }
                }
                // Contenders follow the overlap rule among contenders —
                // exactly the active groups.
                state.separate(FocusState::interval);
            }
            Rule::Neighbours { edges, resolved } => {
                state.read_widths();
                let mut has_open_edge = vec![false; state.k()];
                for (done, &(a, b)) in resolved.iter_mut().zip(edges.iter()) {
                    // An edge to a group stopped by a dropped read can never
                    // resolve; the run is truncated and drops it.
                    let stopped = state.stopped_short(a) || state.stopped_short(b);
                    *done = *done || stopped || !state.interval(a).overlaps(&state.interval(b));
                    if !*done {
                        has_open_edge[a] = true;
                        has_open_edge[b] = true;
                    }
                }
                for (i, open) in has_open_edge.into_iter().enumerate() {
                    if !open {
                        state.deactivate(i);
                    }
                }
            }
            Rule::Mistakes { gamma } => {
                state.standard_deactivation();
                // Certified pairs: every pair with at least one inactive
                // endpoint. (When a group deactivates its interval is
                // disjoint from all then-active intervals, and Lemma 1's
                // argument shows its order relative to *every* other group
                // is settled.) Only active–active pairs remain uncertain;
                // once they are within the budget the rest is abandoned.
                let pairs = |n: usize| n * n.saturating_sub(1) / 2;
                let total = pairs(state.k()).max(1) as f64;
                let certified = total - pairs(state.active_count()) as f64;
                if certified / total >= 1.0 - *gamma {
                    state.deactivate_all();
                }
            }
            Rule::Values { d } => {
                // While `ε ≥ d/2` nobody may deactivate.
                state.read_widths();
                if (0..state.k()).all(|i| !state.active[i] || state.live[i] < *d / 2.0) {
                    state.separate(FocusState::interval);
                }
            }
        }
    }
}

/// The IFOCUS state machine: one [`AlgorithmStepper::step`] per round.
/// [`crate::IFocusStepper`], [`crate::RoundRobinStepper`] and
/// [`crate::extensions::IFocusSum1Stepper`] are this type; the eager §6
/// variants run it to completion inside their `run`.
#[derive(Debug)]
pub struct FocusStepper {
    pub(crate) state: FocusState,
    rule: Rule,
}

impl FocusStepper {
    /// Bootstrap (Algorithm 1 lines 1–3): one sample per group, then the
    /// round-1 test via [`Self::begin`]. Panics if `groups` is empty.
    pub(crate) fn start<G: GroupSource>(
        config: &AlgoConfig,
        rule: Rule,
        width: fn(&AlgoConfig, usize) -> Width,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> Self {
        // An accidental asymmetry, pinned bit for bit until ROADMAP item 4
        // rules on it: only IFOCUS, ROUNDROBIN and Algorithm 5 honour the
        // resolution cut-off at the bootstrap round.
        let honours_resolution = matches!(rule, Rule::FullOrder | Rule::EveryGroup);
        let state = FocusState::initialize(config, width, groups, &[], rng);
        Self::begin(state, rule, honours_resolution)
    }

    /// The round-1 test over a state holding its bootstrap samples. With
    /// `honours_resolution` false the rule applies unguarded, so a run whose
    /// `ε_1` is already below `r/4` draws one extra round.
    pub(crate) fn begin(state: FocusState, rule: Rule, honours_resolution: bool) -> Self {
        let mut stepper = Self { state, rule };
        let stop = honours_resolution && stepper.state.resolution_reached(false);
        stepper.settle(stop);
        stepper
    }

    /// [`Self::start`] run to completion through [`Self::step_any`].
    pub(crate) fn run<G: GroupSource>(
        config: &AlgoConfig,
        rule: Rule,
        width: fn(&AlgoConfig, usize) -> Width,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> RunResult {
        let mut stepper = Self::start(config, rule, width, groups, rng);
        while stepper.step_any(groups, rng).is_running() {}
        stepper.finish()
    }

    /// The one round: prologue (converged / round cap / `m += batch`),
    /// `draw` (which must add `batch` samples to every drawing group),
    /// cut-off or deactivation, outcome.
    pub(crate) fn round(&mut self, batch: u64, draw: impl FnOnce(&mut FocusState)) -> StepOutcome {
        if let Some(terminal) = self.state.begin_round(batch) {
            return terminal;
        }
        draw(&mut self.state);
        let stop = self.rule.cut_off(&mut self.state);
        self.settle(stop);
        self.state.outcome()
    }

    /// Ends a round: everything deactivates on `stop`, otherwise the rule
    /// decides; then a read over the groups left gives the snapshot's.
    fn settle(&mut self, stop: bool) {
        if stop {
            self.state.deactivate_all();
        } else {
            self.rule.deactivate(&mut self.state);
        }
        self.state.read_widths();
    }

    /// The per-draw round: one `sample()` per drawing group,
    /// `samples_per_round` ignored — what the eager §6 variants run (exact
    /// groups are all read at the first).
    pub fn step_any<G: GroupSource>(
        &mut self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> StepOutcome {
        let every = matches!(self.rule, Rule::EveryGroup);
        self.state.read_exact(groups, false);
        self.round(1, |state| {
            for (i, group) in groups.iter_mut().enumerate() {
                if (every || state.active[i]) && !state.exhausted[i] && state.exact[i].is_none() {
                    state.draw(i, group, rng);
                }
            }
        })
    }
}

impl AlgorithmStepper for FocusStepper {
    fn step<G: GroupSource>(&mut self, groups: &mut [G], rng: &mut dyn RngCore) -> StepOutcome {
        let (every, scan) = match self.rule {
            Rule::FullOrder | Rule::ScaledSum => (false, false),
            Rule::EveryGroup => (true, false),
            Rule::Scan => (false, true),
            _ => return self.step_any(groups, rng),
        };
        // Exact groups first, before the prologue (so one certified at
        // bootstrap is still read), then one batch per drawing group.
        self.state.read_exact(groups, scan);
        let batch = self.state.config.samples_per_round;
        self.round(batch, |state| {
            state.draw_round_selected(every, groups, rng, batch)
        })
    }

    /// In **sum space** (`×|S_i|`) for Algorithm 4, matching its result.
    fn snapshot(&self) -> Snapshot {
        let mut snap = self.state.snapshot();
        if matches!(self.rule, Rule::ScaledSum) {
            for (i, &n) in self.state.sizes.iter().enumerate() {
                let scale = n as f64;
                snap.estimates[i] *= scale;
                let iv = snap.intervals[i];
                snap.intervals[i] =
                    Interval::centered(iv.center() * scale, 0.5 * iv.width() * scale);
            }
        }
        snap
    }

    fn total_samples(&self) -> u64 {
        self.state.total_samples()
    }

    fn approx_bytes(&self) -> usize {
        self.state.approx_bytes()
    }

    fn finish(mut self) -> RunResult {
        let sizes = std::mem::take(&mut self.state.sizes);
        let mut result = self.state.finish();
        if matches!(self.rule, Rule::ScaledSum) {
            // Convert mean estimates to sums.
            for (est, &n) in result.estimates.iter_mut().zip(&sizes) {
                *est *= n as f64;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extensions::{
        IFocusBernstein, IFocusGraph, IFocusMistakes, IFocusPartial, IFocusSum1, IFocusSum2,
        IFocusTopT, IFocusTrends, IFocusValues, VecSizedGroup,
    };
    use crate::group::VecGroup;
    use crate::{IFocus, RoundRobin};
    use rand::SeedableRng;
    use rapidviz_stats::SamplingMode;

    /// Three identical constant groups: their intervals coincide, so no rule
    /// can ever separate them and only a cut-off ends the run.
    fn tied() -> Vec<VecGroup> {
        (0..3)
            .map(|i| VecGroup::new(format!("g{i}"), vec![50.0; 100]))
            .collect()
    }

    /// `ε_1 < r/4`: the heuristic factor shrinks ε far below the threshold.
    fn resolved_at_bootstrap() -> AlgoConfig {
        AlgoConfig::new(100.0, 0.05)
            .with_heuristic_factor(1e9)
            .with_resolution(4.0)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn ifocus_roundrobin_and_algorithm_5_honour_resolution_at_bootstrap() {
        let config = resolved_at_bootstrap();
        let ifocus = IFocus::new(config.clone()).run(&mut tied(), &mut rng());
        let roundrobin = RoundRobin::new(config.clone()).run(&mut tied(), &mut rng());
        let mut sized: Vec<VecSizedGroup> = (0..3)
            .map(|i| VecSizedGroup::new(format!("g{i}"), vec![50.0; 100], 1.0))
            .collect();
        let sum2 = IFocusSum2::new(config).run(&mut sized, &mut rng());
        // The m = 1 Bernstein width of a zero-variance group is
        // 3·c·ln(3/δ₁) ≈ 1,707 for c = 100, δ = 0.05, k = 3; r/4 = 2,000.
        let bernstein_config = AlgoConfig::new(100.0, 0.05).with_resolution(8_000.0);
        let bernstein = IFocusBernstein::new(bernstein_config).run(&mut tied(), &mut rng());
        for (name, result) in [
            ("ifocus", ifocus),
            ("roundrobin", roundrobin),
            ("sum2", sum2),
            ("bernstein", bernstein),
        ] {
            assert_eq!(result.rounds, 1, "{name}");
            assert_eq!(result.samples_per_group, [1, 1, 1], "{name}");
            assert!(!result.truncated, "{name}");
        }
    }

    #[test]
    fn the_other_variants_apply_their_rule_unguarded_at_bootstrap() {
        // Pinned, not unified: these draw one extra round before the same
        // cut-off stops them (ROADMAP item 4 rules on the asymmetry).
        let config = resolved_at_bootstrap();
        let c = || config.clone();
        let partial = IFocusPartial::new(c()).run(&mut tied(), &mut rng(), |_| {});
        let results = [
            ("partial", partial),
            ("sum1", IFocusSum1::new(c()).run(&mut tied(), &mut rng())),
            ("topt", IFocusTopT::new(c(), 1).run(&mut tied(), &mut rng())),
            (
                "trends",
                IFocusTrends::new(c()).run(&mut tied(), &mut rng()),
            ),
            (
                "graph",
                IFocusGraph::grid(c(), 1, 3).run(&mut tied(), &mut rng()),
            ),
            (
                "mistakes",
                IFocusMistakes::new(c(), 0.0).run(&mut tied(), &mut rng()),
            ),
        ];
        for (name, result) in results {
            assert_eq!(result.rounds, 2, "{name}");
            assert_eq!(result.samples_per_group, [2, 2, 2], "{name}");
            assert!(!result.truncated, "{name}");
        }
        // The value requirement replaces the resolution cut-off altogether:
        // only exhaustion stops a tie.
        let values = IFocusValues::new(c(), 6.0).run(&mut tied(), &mut rng());
        assert_eq!(values.samples_per_group, [100, 100, 100]);
    }

    #[test]
    fn a_u64_max_batch_saturates_the_round_counter_and_terminates() {
        // A tie only exhaustion can end, so the hostile round is reached.
        let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(u64::MAX);
        let result = IFocus::new(config).run(&mut tied(), &mut rng());
        assert_eq!(result.rounds, u64::MAX);
        assert_eq!(result.samples_per_group, [100, 100, 100]);
        assert!(!result.truncated);
    }

    /// A group that delivers its rows in order when sampled, and all of
    /// them, summed in order from `0.0`, in one exact pass.
    struct Rows(Vec<f64>, usize);

    impl GroupSource for Rows {
        fn label(&self) -> String {
            String::new()
        }
        fn len(&self) -> u64 {
            self.0.len() as u64
        }
        fn sample(&mut self, _rng: &mut dyn RngCore, _mode: SamplingMode) -> Option<f64> {
            self.1 += 1;
            self.0.get(self.1 - 1).copied()
        }
        fn read_exact(&mut self) -> Option<(u64, f64)> {
            Some((self.len(), self.0.iter().fold(0.0, |sum, x| sum + x)))
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn a_sampled_group_stays_active_until_it_clears_an_exact_point() {
        // Group 0 is read whole: its mean is the point 50. Group 1's first
        // 400 rows alternate 40 and 60, so its interval sits on that point
        // for a while before the 90s that follow pull it clear.
        let exact = Rows(vec![40.0, 60.0, 45.0, 55.0], 0);
        let mut sampled: Vec<f64> = (0..400).map(|i| [40.0, 60.0][i % 2]).collect();
        sampled.extend([90.0; 3_000]);
        let mut groups = vec![exact, Rows(sampled, 0)];
        let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(8);
        let mut stepper =
            IFocus::new(config).start_planned(&mut groups, &[true, false], &mut rng());
        let mut overlapped = 0;
        let outcome = loop {
            let outcome = stepper.step(&mut groups, &mut rng());
            let snap = stepper.snapshot();
            assert_eq!(snap.intervals[0], Interval::new(50.0, 50.0));
            let covers = snap.intervals[1].contains(50.0);
            assert!(snap.active[1] || !covers, "round {}", snap.rounds);
            overlapped += usize::from(covers);
            if !outcome.is_running() {
                break outcome;
            }
        };
        assert_eq!(outcome, StepOutcome::Converged);
        assert!(overlapped > 10, "the intervals met in {overlapped} rounds");
        assert_eq!(
            stepper.snapshot().samples_per_group[0],
            4,
            "rows read are samples"
        );
    }

    #[test]
    fn exact_groups_are_read_in_the_first_step_and_never_drawn() {
        let mut groups = vec![Rows(vec![10.0; 50], 0), Rows(vec![90.0; 50], 0)];
        let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
        let mut stepper = algo.start_planned(&mut groups, &[true, true], &mut rng());
        // Nothing is bootstrapped: each group reports `[0, c]` until read.
        let before = stepper.snapshot();
        assert_eq!(before.samples_per_group, [0, 0]);
        assert_eq!(before.intervals[0], Interval::new(0.0, 100.0));
        assert_eq!(
            stepper.step(&mut groups, &mut rng()),
            StepOutcome::Converged
        );
        let after = stepper.finish();
        assert_eq!(after.estimates, [10.0, 90.0]);
        assert_eq!((after.samples_per_group, after.rounds), (vec![50, 50], 50));
        assert_eq!((groups[0].1, groups[1].1), (0, 0), "no draw");
    }

    #[test]
    fn step_any_is_a_batch_one_round_for_every_rule() {
        // On the batched rules `step_any` ignores `samples_per_round`
        // and still draws from the right groups.
        let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(16);
        let mut groups = vec![
            VecGroup::new("lo", vec![10.0; 500]),
            VecGroup::new("hi", vec![90.0; 500]),
            VecGroup::new("hi2", vec![90.0; 500]),
        ];
        let mut run_rng = rng();
        let mut stepper = RoundRobin::new(config).start(&mut groups, &mut run_rng);
        while stepper.step_any(&mut groups, &mut run_rng).is_running() {}
        let result = stepper.finish();
        // "lo" separates early but ROUNDROBIN keeps drawing from it, one
        // sample a round, until the tie exhausts.
        assert_eq!(result.samples_per_group, [500, 500, 500]);
        assert_eq!(result.rounds, 501);
    }
}
