//! §6.3.1 / §6.3.2 — `SUM` and `COUNT` aggregates.
//!
//! * **Known group sizes (Algorithm 4, [`IFocusSum1`]).** `σ_i = µ_i·|S_i|`,
//!   so the machinery is IFOCUS with per-group scaling: estimates and
//!   confidence half-widths are both multiplied by `|S_i|`, making the
//!   interval-overlap test operate in "sum space".
//! * **Unknown group sizes (Algorithm 5, [`IFocusSum2`]).** Sources produce
//!   pairs `(x, z)` where `x` is a random group member and `z` an
//!   independent unbiased `{0,1}` estimate of the normalized group size
//!   `s_i` (NEEDLETAIL gets `z` from its in-memory bitmaps without extra
//!   I/O). `x·z ∈ [0, c]` is an unbiased estimate of the normalized sum
//!   `σ_i = s_i·µ_i`, so the *same* Hoeffding-based schedule applies — the
//!   surprising observation the paper makes. Estimates returned are
//!   normalized sums; multiply by the total relation size for absolute sums.
//! * **`COUNT` ([`ifocus_count`]).** Trivial with known sizes; with unknown
//!   sizes, run the same loop on the `z` stream alone (values in `[0, 1]`,
//!   so the schedule uses `c = 1`), yielding normalized counts `s_i`.
//!
//! A bitmap index knows every group's size, so the `rapidviz` serving path
//! answers `COUNT` exactly from the index and `SUM` with Algorithm 4;
//! Algorithm 5 and [`ifocus_count`] remain the library reference for §6.3.2,
//! for sources whose group sizes are unknown.

use crate::config::AlgoConfig;
use crate::focus::{FocusStepper, Rule};
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{AlgorithmStepper, Snapshot, StepOutcome};
use crate::state::{FocusState, Width};
use rand::RngCore;
use rapidviz_stats::SamplingMode;

/// IFOCUS for `SUM` with known group sizes (Algorithm 4).
#[derive(Debug, Clone)]
pub struct IFocusSum1 {
    config: AlgoConfig,
}

impl IFocusSum1 {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Begins a resumable run (bootstrap sample plus the round-1 scaled
    /// separation check). Each [`AlgorithmStepper::step`] then draws
    /// [`AlgoConfig::samples_per_round`] samples per active, unexhausted
    /// group. A fixed-seed `start`/`step`/`finish` drive is byte-identical
    /// to [`IFocusSum1::run`] at every batch size.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: GroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> IFocusSum1Stepper {
        self.start_planned(groups, &[], rng)
    }

    /// [`IFocusSum1::start`], reading the groups marked `exact` whole as
    /// [`crate::IFocus::start_planned`] does.
    pub fn start_planned<G: GroupSource>(
        &self,
        groups: &mut [G],
        exact: &[bool],
        rng: &mut dyn RngCore,
    ) -> IFocusSum1Stepper {
        let state = FocusState::initialize(&self.config, Width::anytime, groups, exact, rng);
        FocusStepper::begin(state, Rule::ScaledSum, false)
    }

    /// Runs over the groups; estimates are group **sums** `ν_i ≈ σ_i` —
    /// [`IFocusSum1::start`] stepped to completion through the batched
    /// [`AlgorithmStepper::step`]. At the default `samples_per_round` of 1
    /// this draws exactly what the per-draw round did.
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

/// The Algorithm-4 state machine: one step per round (a batch of
/// `samples_per_round` draws per active group, then the scaled-interval
/// deactivation fixpoint) — the shared round under its sum-space rule.
/// Snapshots report estimates and intervals in **sum space** (`×|S_i|`),
/// matching the final result semantics.
pub type IFocusSum1Stepper = FocusStepper;

/// A group source that also yields unbiased normalized-size estimates —
/// what Algorithm 5 needs when group sizes are unknown.
pub trait SizedGroupSource {
    /// Display label.
    fn label(&self) -> String;

    /// Draws `(x, z)`: a uniform random member value and an independent
    /// `{0, 1}` estimate with `E[z] = s_i` (the group's fraction of the
    /// relation). Always with replacement.
    fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)>;

    /// Draws up to `n` `(x, z)` pairs in one call, appending them to `out`
    /// in draw order; returns the number appended (stops early only if the
    /// source comes up dry mid-batch, which i.i.d. sized sources never do).
    ///
    /// The default implementation loops [`Self::sample_with_size`], so
    /// every source is batch-capable with unchanged semantics. Sources
    /// backed by rank/select storage (the NEEDLETAIL size-estimating
    /// sampler) override this to resolve the whole batch through one
    /// sorted `select_many` sweep. Overrides **must** consume the RNG
    /// identically to `n` single draws so batching never changes a
    /// fixed-seed run's output.
    fn sample_with_size_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut Vec<(f64, f64)>,
    ) -> u64 {
        let mut got = 0;
        for _ in 0..n {
            match self.sample_with_size(rng) {
                Some(pair) => {
                    out.push(pair);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    /// True normalized sum `s_i·µ_i`, when known (evaluation only).
    fn true_normalized_sum(&self) -> Option<f64> {
        None
    }
}

/// Mutable references delegate verbatim (including the batch hook, so a
/// `select_many`-backed override is never shadowed by the looping default).
impl<G: SizedGroupSource + ?Sized> SizedGroupSource for &mut G {
    fn label(&self) -> String {
        (**self).label()
    }

    fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)> {
        (**self).sample_with_size(rng)
    }

    fn sample_with_size_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut Vec<(f64, f64)>,
    ) -> u64 {
        (**self).sample_with_size_batch(n, rng, out)
    }

    fn true_normalized_sum(&self) -> Option<f64> {
        (**self).true_normalized_sum()
    }
}

/// The `COUNT` reduction over a [`SizedGroupSource`] (§6.3.2): forwards the
/// inner source's draws but replaces every `x` by the constant 1, so
/// `x·z = z` and IFOCUS runs on the size-estimate stream alone. Owns its
/// inner source, so resumable sessions can hold count-reduced storage
/// handles without borrowing.
#[derive(Debug, Clone)]
pub struct CountSource<G> {
    inner: G,
}

impl<G: SizedGroupSource> CountSource<G> {
    /// Wraps a sized source in the COUNT reduction.
    #[must_use]
    pub fn new(inner: G) -> Self {
        Self { inner }
    }

    /// The wrapped source.
    #[must_use]
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: SizedGroupSource> SizedGroupSource for CountSource<G> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)> {
        self.inner.sample_with_size(rng).map(|(_, z)| (1.0, z))
    }

    fn sample_with_size_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut Vec<(f64, f64)>,
    ) -> u64 {
        // Forward to the source's (possibly select_many-batched)
        // implementation, then overwrite x with the constant 1.
        let base = out.len();
        let got = self.inner.sample_with_size_batch(n, rng, out);
        for pair in &mut out[base..] {
            pair.0 = 1.0;
        }
        got
    }

    // true_normalized_sum deliberately stays at the `None` default: under
    // the x ≡ 1 rewrite the truth would be the normalized count s_i, which
    // the inner SizedGroupSource does not expose on its own.
}

/// A [`SizedGroupSource`] over a materialized vector with a known fraction —
/// the test/synthetic counterpart of a NEEDLETAIL size-estimating handle.
#[derive(Debug, Clone)]
pub struct VecSizedGroup {
    label: String,
    values: Vec<f64>,
    fraction: f64,
}

impl VecSizedGroup {
    /// Creates a group occupying `fraction` of the relation.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `fraction ∉ (0, 1]`.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>, fraction: f64) -> Self {
        assert!(!values.is_empty(), "a group must have at least one member");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must lie in (0, 1]"
        );
        Self {
            label: label.into(),
            values,
            fraction,
        }
    }
}

impl SizedGroupSource for VecSizedGroup {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)> {
        use rand::Rng;
        let x = self.values[rng.gen_range(0..self.values.len())];
        let z = f64::from(u8::from(rng.gen_bool(self.fraction)));
        Some((x, z))
    }

    fn true_normalized_sum(&self) -> Option<f64> {
        let mean = self.values.iter().sum::<f64>() / self.values.len() as f64;
        Some(mean * self.fraction)
    }
}

/// IFOCUS for `SUM` with **unknown** group sizes (Algorithm 5). Returns
/// normalized sums `ν_i ≈ s_i·µ_i`.
#[derive(Debug, Clone)]
pub struct IFocusSum2 {
    config: AlgoConfig,
}

impl IFocusSum2 {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Begins a resumable run: one bootstrap `(x, z)` pair per group plus
    /// the round-1 deactivation test. Drive the returned stepper with
    /// [`IFocusSum2Stepper::step`] over the same groups and RNG; a
    /// fixed-seed `start`/`step`/`finish` drive is byte-identical to
    /// [`IFocusSum2::run`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn start<G: SizedGroupSource>(
        &self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> IFocusSum2Stepper {
        // The x·z products are i.i.d. by construction: no population to
        // exhaust (sizes `u64::MAX`), so ε has no without-replacement
        // factor, whatever the caller's config says.
        let config = AlgoConfig {
            mode: SamplingMode::WithReplacement,
            ..self.config.clone()
        };
        let labels = groups.iter().map(SizedGroupSource::label).collect();
        let width = Width::anytime(&config, groups.len());
        let mut state = FocusState::new(&config, width, labels, vec![u64::MAX; groups.len()]);
        for (i, group) in groups.iter_mut().enumerate() {
            if let Some((x, z)) = group.sample_with_size(rng) {
                state.estimates[i].push(x * z);
                state.samples[i] += 1;
            }
        }
        // Round-1 deactivation (lines 11–13) so the first snapshot already
        // reflects any instant separations.
        IFocusSum2Stepper {
            inner: FocusStepper::begin(state, Rule::FullOrder, true),
            pairs: Vec::new(),
        }
    }

    /// Runs over sized sources to completion — a thin loop over
    /// [`IFocusSum2::start`] and [`IFocusSum2Stepper::step`].
    ///
    /// Rounds draw [`AlgoConfig::samples_per_round`] pairs per active
    /// group through [`SizedGroupSource::sample_with_size_batch`] — one
    /// batched call (and, for NEEDLETAIL-backed sources, one sorted
    /// `select_many` sweep) instead of per-draw sampler round trips — into
    /// a reusable pair buffer, feeding the estimator via the batched
    /// [`rapidviz_stats::RunningMean::push_products`] hook. Fixed-seed
    /// results are byte-identical to the historical per-draw loop
    /// (regression-tested against a verbatim reference implementation).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn run<G: SizedGroupSource>(&self, groups: &mut [G], rng: &mut dyn RngCore) -> RunResult {
        let mut stepper = self.start(groups, rng);
        while stepper.step(groups, rng).is_running() {}
        stepper.finish()
    }
}

/// The Algorithm-5 state machine: one step per round (a batched `(x, z)`
/// draw from every active group, then the deactivation fixpoint at the new
/// `m`) — the shared full-order round over the product stream `x·z`.
/// Operates over [`SizedGroupSource`]s, so it mirrors [`AlgorithmStepper`]'s
/// shape with inherent methods rather than implementing the
/// `GroupSource`-bound trait.
#[derive(Debug)]
pub struct IFocusSum2Stepper {
    inner: FocusStepper,
    /// Reusable draw buffer: cleared, never shrunk, between batches.
    pairs: Vec<(f64, f64)>,
}

impl IFocusSum2Stepper {
    /// Total samples drawn so far (cheaper than a full snapshot — used by
    /// session budget checks every round).
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.inner.total_samples()
    }

    /// Advances one round; mirrors [`AlgorithmStepper::step`].
    pub fn step<G: SizedGroupSource>(
        &mut self,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> StepOutcome {
        let batch = self.inner.state.config.samples_per_round;
        let pairs = &mut self.pairs;
        self.inner.round(batch, |state| {
            for i in 0..state.k() {
                if state.active[i] {
                    pairs.clear();
                    let got = groups[i].sample_with_size_batch(batch, rng, pairs);
                    state.estimates[i].push_products(pairs);
                    state.samples[i] += got;
                }
            }
        })
    }

    /// The current estimates (normalized sums), intervals, active set, and
    /// sample counts; mirrors [`AlgorithmStepper::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    /// Approximate resident bytes of the stepper's state; mirrors
    /// [`AlgorithmStepper::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes() + self.pairs.capacity() * std::mem::size_of::<(f64, f64)>()
    }

    /// Packages the final result; mirrors [`AlgorithmStepper::finish`].
    #[must_use]
    pub fn finish(self) -> RunResult {
        self.inner.finish()
    }
}

/// `COUNT` with unknown group sizes (§6.3.2): IFOCUS over the `z` stream
/// alone. Values lie in `[0, 1]`, so the schedule uses `c = 1`; the
/// returned estimates are normalized counts `ν_i ≈ s_i`.
///
/// # Panics
///
/// Panics if `groups` is empty.
pub fn ifocus_count<G: SizedGroupSource>(
    config: &AlgoConfig,
    groups: &mut [G],
    rng: &mut dyn RngCore,
) -> RunResult {
    // Reuse IFocusSum2 through [`CountSource`], which replaces x by the
    // constant 1 so x·z = z: exactly the "only getting samples for s_i"
    // reduction the paper describes.
    let mut adapters: Vec<CountSource<&mut G>> = groups.iter_mut().map(CountSource::new).collect();
    IFocusSum2::new(count_config(config)).run(&mut adapters, rng)
}

/// The configuration [`ifocus_count`] derives from a caller's: identical
/// except `c = 1` (the z stream lives in `[0, 1]`). Exposed so resumable
/// sessions can build the same COUNT stepper the blocking helper runs.
#[must_use]
pub fn count_config(config: &AlgoConfig) -> AlgoConfig {
    let mut count_config = config.clone();
    count_config.c = 1.0;
    count_config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::VecGroup;
    use crate::ordering::is_correctly_ordered;
    use rand::{Rng, SeedableRng};
    use rapidviz_stats::{EpsilonSchedule, Interval, IntervalSetScratch, RunningMean};

    /// A fresh interval set over `members`, as the pre-scratch loops built
    /// on every fixpoint pass.
    fn fresh_set(members: impl Iterator<Item = Interval>) -> IntervalSetScratch {
        let mut set = IntervalSetScratch::new();
        members.for_each(|member| set.push(member));
        set.build();
        set
    }

    fn two_point_values(mean: f64, n: usize, rng: &mut impl Rng) -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen_bool(mean / 100.0) {
                    100.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn sum1_orders_by_sum_not_mean() {
        // Group "big" has a lower mean but a much larger size, so its SUM
        // dominates: mean ordering and sum ordering disagree.
        let mut rng = rand::rngs::StdRng::seed_from_u64(120);
        let mut groups = vec![
            VecGroup::new("big", two_point_values(30.0, 60_000, &mut rng)),
            VecGroup::new("small", two_point_values(80.0, 5_000, &mut rng)),
        ];
        let true_sums: Vec<f64> = groups
            .iter()
            .map(|g| g.true_mean().unwrap() * g.len() as f64)
            .collect();
        assert!(true_sums[0] > true_sums[1], "test premise");
        let algo = IFocusSum1::new(AlgoConfig::new(100.0, 0.05));
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(121);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(
            result.estimates[0] > result.estimates[1],
            "sum ordering: {:?} vs true {:?}",
            result.estimates,
            true_sums
        );
        assert!(is_correctly_ordered(&result.estimates, &true_sums));
        // Estimated sums in the right ballpark.
        for (est, truth) in result.estimates.iter().zip(&true_sums) {
            assert!(
                (est - truth).abs() / truth < 0.5,
                "sum estimate {est} far from {truth}"
            );
        }
    }

    #[test]
    fn sum2_orders_normalized_sums() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(122);
        // Normalized sums: 0.6*30 = 18, 0.3*80 = 24, 0.1*50 = 5.
        let mut groups = vec![
            VecSizedGroup::new("a", two_point_values(30.0, 20_000, &mut rng), 0.6),
            VecSizedGroup::new("b", two_point_values(80.0, 20_000, &mut rng), 0.3),
            VecSizedGroup::new("c", two_point_values(50.0, 20_000, &mut rng), 0.1),
        ];
        let truths: Vec<f64> = groups
            .iter()
            .map(|g| g.true_normalized_sum().unwrap())
            .collect();
        let algo = IFocusSum2::new(AlgoConfig::new(100.0, 0.05).with_resolution(2.0));
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(123);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(
            crate::ordering::is_correctly_ordered_with_resolution(&result.estimates, &truths, 2.0),
            "estimates {:?} vs truths {truths:?}",
            result.estimates
        );
    }

    #[test]
    fn count_estimates_fractions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(124);
        let mut groups = vec![
            VecSizedGroup::new("half", two_point_values(50.0, 1000, &mut rng), 0.5),
            VecSizedGroup::new("third", two_point_values(50.0, 1000, &mut rng), 0.3),
            VecSizedGroup::new("fifth", two_point_values(50.0, 1000, &mut rng), 0.2),
        ];
        let config = AlgoConfig::new(100.0, 0.05).with_resolution(0.05);
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(125);
        let result = ifocus_count(&config, &mut groups, &mut run_rng);
        assert!(result.estimates[0] > result.estimates[1]);
        assert!(result.estimates[1] > result.estimates[2]);
        assert!((result.estimates[0] - 0.5).abs() < 0.08);
        assert!((result.estimates[1] - 0.3).abs() < 0.08);
        assert!((result.estimates[2] - 0.2).abs() < 0.08);
    }

    #[test]
    fn sum1_equal_sizes_matches_avg_behaviour() {
        // With equal sizes, SUM ordering == AVG ordering.
        let mut rng = rand::rngs::StdRng::seed_from_u64(126);
        let mut groups = vec![
            VecGroup::new("lo", two_point_values(20.0, 30_000, &mut rng)),
            VecGroup::new("hi", two_point_values(70.0, 30_000, &mut rng)),
        ];
        let algo = IFocusSum1::new(AlgoConfig::new(100.0, 0.05));
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(127);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(result.estimates[0] < result.estimates[1]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn sized_group_rejects_bad_fraction() {
        let _ = VecSizedGroup::new("x", vec![1.0], 0.0);
    }

    /// The pre-batching Algorithm 5 loop, verbatim: one `sample_with_size`
    /// call per active group per round. Guards the acceptance criterion
    /// that the batched SUM path is byte-identical for a fixed seed.
    fn reference_sum2<G: SizedGroupSource>(
        config: &AlgoConfig,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> RunResult {
        assert!(!groups.is_empty(), "need at least one group");
        let k = groups.len();
        let schedule = EpsilonSchedule::with_options(
            config.c,
            config.delta,
            k,
            SamplingMode::WithReplacement,
            config.heuristic_factor,
        );
        let labels: Vec<String> = groups.iter().map(SizedGroupSource::label).collect();
        let mut estimates = vec![RunningMean::new(); k];
        let mut active = vec![true; k];
        let mut samples = vec![0u64; k];
        let mut m = 1u64;
        let mut truncated = false;
        for (i, group) in groups.iter_mut().enumerate() {
            if let Some((x, z)) = group.sample_with_size(rng) {
                estimates[i].push(x * z);
                samples[i] += 1;
            }
        }
        loop {
            let eps = schedule.half_width(m, u64::MAX);
            let resolution_hit = config
                .resolution_epsilon()
                .is_some_and(|thresh| eps < thresh);
            if resolution_hit {
                active.iter_mut().for_each(|a| *a = false);
            } else {
                loop {
                    let members: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
                    if members.is_empty() {
                        break;
                    }
                    let set = fresh_set(
                        members
                            .iter()
                            .map(|&i| Interval::centered(estimates[i].mean(), eps)),
                    );
                    let to_remove: Vec<usize> = members
                        .iter()
                        .enumerate()
                        .filter(|&(pos, _)| !set.member_overlaps_others(pos))
                        .map(|(_, &i)| i)
                        .collect();
                    if to_remove.is_empty() {
                        break;
                    }
                    for i in to_remove {
                        active[i] = false;
                    }
                }
            }
            if !active.iter().any(|&a| a) {
                break;
            }
            if m >= config.max_rounds {
                truncated = true;
                break;
            }
            m += 1;
            for i in 0..k {
                if active[i] {
                    if let Some((x, z)) = groups[i].sample_with_size(rng) {
                        estimates[i].push(x * z);
                        samples[i] += 1;
                    }
                }
            }
        }
        RunResult {
            labels,
            estimates: estimates.iter().map(RunningMean::mean).collect(),
            samples_per_group: samples,
            rounds: m,
            truncated,
        }
    }

    #[test]
    fn sum2_batched_matches_single_draw_reference() {
        // Byte-identical results vs the pre-batching per-draw Algorithm 5
        // loop at batch size 1 (the default every caller gets).
        let mut rng = rand::rngs::StdRng::seed_from_u64(130);
        let make = |rng: &mut rand::rngs::StdRng| {
            vec![
                VecSizedGroup::new("a", two_point_values(30.0, 10_000, rng), 0.55),
                VecSizedGroup::new("b", two_point_values(75.0, 10_000, rng), 0.30),
                VecSizedGroup::new("c", two_point_values(50.0, 10_000, rng), 0.15),
            ]
        };
        let mut g1 = make(&mut rng);
        let mut g2 = g1.clone();
        let config = AlgoConfig::new(100.0, 0.05).with_resolution(1.0);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(131);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(131);
        let result = IFocusSum2::new(config.clone()).run(&mut g1, &mut rng1);
        let reference = reference_sum2(&config, &mut g2, &mut rng2);
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
        assert_eq!(result.truncated, reference.truncated);
    }

    #[test]
    fn sum2_larger_batches_still_order_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(132);
        let mut groups = vec![
            VecSizedGroup::new("a", two_point_values(30.0, 20_000, &mut rng), 0.6),
            VecSizedGroup::new("b", two_point_values(80.0, 20_000, &mut rng), 0.3),
            VecSizedGroup::new("c", two_point_values(50.0, 20_000, &mut rng), 0.1),
        ];
        let truths: Vec<f64> = groups
            .iter()
            .map(|g| g.true_normalized_sum().unwrap())
            .collect();
        let algo = IFocusSum2::new(
            AlgoConfig::new(100.0, 0.05)
                .with_resolution(2.0)
                .with_samples_per_round(32),
        );
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(133);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(
            crate::ordering::is_correctly_ordered_with_resolution(&result.estimates, &truths, 2.0),
            "estimates {:?} vs truths {truths:?}",
            result.estimates
        );
    }

    /// The pre-stepper Algorithm 4 loop (per-iteration member / removal
    /// vectors and a fresh interval set per fixpoint pass, as the blocking
    /// implementation had before the scratch arena, and its own anytime ε
    /// over the active groups). Guards the acceptance criterion that the
    /// refactor is byte-identical.
    fn reference_sum1(
        config: &AlgoConfig,
        groups: &mut [VecGroup],
        rng: &mut dyn RngCore,
    ) -> RunResult {
        fn epsilon(state: &FocusState) -> f64 {
            let active = (0..state.k()).filter(|&i| state.active[i]);
            let n_max = active.map(|i| state.sizes[i]).max().unwrap_or(1);
            state.config.schedule(state.k()).half_width(state.m, n_max)
        }
        fn deactivate_scaled(state: &mut FocusState, sizes: &[u64]) {
            let eps_base = epsilon(state);
            loop {
                let members: Vec<usize> = (0..state.k()).filter(|&i| state.active[i]).collect();
                if members.is_empty() {
                    break;
                }
                let set = fresh_set(members.iter().map(|&i| {
                    let scale = sizes[i] as f64;
                    Interval::centered(state.estimates[i].mean() * scale, eps_base * scale)
                }));
                let to_remove: Vec<usize> = members
                    .iter()
                    .enumerate()
                    .filter(|&(pos, _)| !set.member_overlaps_others(pos))
                    .map(|(_, &i)| i)
                    .collect();
                if to_remove.is_empty() {
                    break;
                }
                for i in to_remove {
                    state.active[i] = false;
                }
            }
        }
        let mut state = FocusState::initialize(config, Width::anytime, groups, &[], rng);
        let sizes = state.sizes.clone();
        deactivate_scaled(&mut state, &sizes);
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
            let eps_base = epsilon(&state);
            let max_scaled = sizes
                .iter()
                .zip(&state.active)
                .filter(|(_, &a)| a)
                .map(|(&n, _)| n as f64 * eps_base)
                .fold(0.0f64, f64::max);
            let resolution_hit = config
                .resolution_epsilon()
                .is_some_and(|thresh| max_scaled < thresh);
            if resolution_hit || state.all_active_exhausted() {
                state.deactivate_all();
            } else {
                deactivate_scaled(&mut state, &sizes);
            }
        }
        let mut result = state.finish();
        for (est, &n) in result.estimates.iter_mut().zip(&sizes) {
            *est *= n as f64;
        }
        result
    }

    #[test]
    fn sum1_stepper_matches_blocking_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(140);
        let mut g1 = vec![
            VecGroup::new("big", two_point_values(30.0, 40_000, &mut rng)),
            VecGroup::new("mid", two_point_values(55.0, 20_000, &mut rng)),
            VecGroup::new("small", two_point_values(80.0, 5_000, &mut rng)),
        ];
        let mut g2 = g1.clone();
        let config = AlgoConfig::new(100.0, 0.05);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(141);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(141);
        let result = IFocusSum1::new(config.clone()).run(&mut g1, &mut rng1);
        let reference = reference_sum1(&config, &mut g2, &mut rng2);
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
        assert_eq!(result.truncated, reference.truncated);
    }

    #[test]
    fn count_matches_reference_sum2_with_rewrite() {
        // ifocus_count == reference Algorithm-5 loop over x-rewritten
        // sources with c = 1: the owned CountSource refactor must not move
        // a single RNG draw.
        #[derive(Clone)]
        struct RewriteX(VecSizedGroup);
        impl SizedGroupSource for RewriteX {
            fn label(&self) -> String {
                self.0.label()
            }
            fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)> {
                self.0.sample_with_size(rng).map(|(_, z)| (1.0, z))
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(150);
        let make = |rng: &mut rand::rngs::StdRng| {
            vec![
                VecSizedGroup::new("half", two_point_values(50.0, 2_000, rng), 0.5),
                VecSizedGroup::new("fifth", two_point_values(50.0, 2_000, rng), 0.2),
            ]
        };
        let mut groups = make(&mut rng);
        let mut rewritten: Vec<RewriteX> = groups.iter().cloned().map(RewriteX).collect();
        let config = AlgoConfig::new(100.0, 0.05).with_resolution(0.05);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(151);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(151);
        let result = ifocus_count(&config, &mut groups, &mut rng1);
        let reference = reference_sum2(&count_config(&config), &mut rewritten, &mut rng2);
        assert_eq!(result.estimates, reference.estimates);
        assert_eq!(result.samples_per_group, reference.samples_per_group);
        assert_eq!(result.rounds, reference.rounds);
    }

    #[test]
    fn count_batch_adapter_forwards_and_rewrites_x() {
        // With per-round batches of 8 the COUNT adapter's batch override is
        // on the hot path; had it forwarded z but kept the raw x values,
        // the estimates would land near s_i·µ_i (≈ 12–16 here) instead of
        // the normalized fractions in [0, 1].
        let mut rng = rand::rngs::StdRng::seed_from_u64(134);
        let mut groups = vec![
            VecSizedGroup::new("big", two_point_values(40.0, 5_000, &mut rng), 0.6),
            VecSizedGroup::new("small", two_point_values(40.0, 5_000, &mut rng), 0.2),
        ];
        let config = AlgoConfig::new(100.0, 0.05)
            .with_resolution(0.05)
            .with_samples_per_round(8);
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(135);
        let result = ifocus_count(&config, &mut groups, &mut run_rng);
        assert!((result.estimates[0] - 0.6).abs() < 0.08);
        assert!((result.estimates[1] - 0.2).abs() < 0.08);
    }
}
