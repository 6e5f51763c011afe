//! The one IFOCUS round state.
//!
//! [`FocusState`] is the round state of every algorithm whose estimator is
//! a per-group running mean: IFOCUS, ROUNDROBIN, SUM with known sizes
//! (Algorithm 4), SUM/COUNT with unknown sizes (Algorithm 5 — IFOCUS over
//! the i.i.d. product stream `x·z`), the Bernstein variant, and the trends,
//! graph, top-t, mistakes, values and partial-results variants. It holds
//! the running means, the round counter `m`, the active flags and each
//! group's [`Width`], and supplies the round prologue
//! ([`FocusState::begin_round`]), the draw, the deactivation fixpoint
//! ([`FocusState::separate`]) and the snapshot; the [`crate::focus::Rule`]
//! decides who draws and which intervals must separate. A caller that
//! wants a per-round record (Table 1, Figures 5c/6a) observes snapshots.
//!
//! Widths are read ([`FocusState::read_widths`]) before each deactivation
//! test, at [`FocusState::deactivate_all`] and when a round ends (what the
//! snapshot shows), each over the active set of that moment; an interval
//! freezes at the last read.
//!
//! [`FixpointScratch`] is the workspace's only deactivation fixpoint
//! (Algorithm 1 lines 10–12), public so that code outside this crate need
//! not copy it. [`FocusState::separate`] iterates
//! [`FixpointScratch::separate`], and so does `rapidviz-bench`'s
//! multi-aggregate loop (two means per group); IREFINE and the bench's
//! no-index sampler run one all-groups overlap check per round
//! ([`FixpointScratch::build_full`]).

use crate::config::AlgoConfig;
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{Snapshot, StepOutcome};
use rand::RngCore;
use rapidviz_stats::{
    BernsteinSchedule, EpsilonSchedule, Interval, IntervalSetScratch, RunningMean, SamplingMode,
};

/// Reusable buffers for the deactivation fixpoint: the active-member index
/// list, the interval set, and the per-iteration removal list are all
/// rebuilt in place, so a warmed scratch makes the whole fixpoint
/// allocation-free (the same arena discipline as the samplers'
/// `BatchScratch`). Owned by the crate's round state; IREFINE and the
/// bench crate's multi-aggregate and no-index loops hold one of their own.
#[derive(Debug, Clone, Default)]
pub struct FixpointScratch {
    /// Indices of currently active groups, rebuilt per iteration.
    members: Vec<usize>,
    /// Their confidence intervals, positionally aligned with `members`.
    set: IntervalSetScratch,
    /// Members that separated this iteration.
    remove: Vec<usize>,
}

impl FixpointScratch {
    /// One fixpoint iteration: rebuilds the member list and interval set
    /// from `active`, filling `remove` with every member whose interval is
    /// disjoint from all other members'. Returns `false` when the fixpoint
    /// is reached (no members, or nothing separated); callers loop while
    /// it returns `true`, deactivating [`Self::removed`] between
    /// iterations.
    pub fn separate(&mut self, active: &[bool], interval_of: impl Fn(usize) -> Interval) -> bool {
        self.members.clear();
        self.members
            .extend((0..active.len()).filter(|&i| active[i]));
        if self.members.is_empty() {
            return false;
        }
        self.set.begin();
        for &i in &self.members {
            self.set.push(interval_of(i));
        }
        self.set.build();
        self.remove.clear();
        for (pos, &i) in self.members.iter().enumerate() {
            if !self.set.member_overlaps_others(pos) {
                self.remove.push(i);
            }
        }
        !self.remove.is_empty()
    }

    /// The members the last [`Self::separate`] found separated.
    #[must_use]
    pub fn removed(&self) -> &[usize] {
        &self.remove
    }

    /// Rebuilds the interval set over **all** `k` groups (IREFINE's line 10
    /// and the no-index stopping test, which probe every group rather than
    /// iterating a fixpoint over the active subset).
    pub fn build_full(&mut self, k: usize, interval_of: impl Fn(usize) -> Interval) {
        self.set.begin();
        for i in 0..k {
            self.set.push(interval_of(i));
        }
        self.set.build();
    }

    /// Whether member `i` (an index into the `build_full` ordering)
    /// overlaps any other member.
    #[must_use]
    pub fn full_overlaps_others(&self, i: usize) -> bool {
        self.set.member_overlaps_others(i)
    }

    /// Approximate resident bytes of the retained fixpoint buffers.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.members.capacity() * size_of::<usize>()
            + self.remove.capacity() * size_of::<usize>()
            + self.set.approx_bytes()
    }
}

/// How wide each group's confidence interval is.
#[derive(Debug)]
pub(crate) enum Width {
    /// Algorithm 1 line 6's ε at round `m` and largest active size `N`.
    Anytime(EpsilonSchedule),
    /// Each group's empirical-Bernstein width at its own sample count and
    /// variance; `m2[i]` is group `i`'s sum of squared deviations.
    EmpiricalBernstein {
        schedule: BernsteinSchedule,
        m2: Vec<f64>,
    },
}

impl Width {
    pub(crate) fn anytime(config: &AlgoConfig, k: usize) -> Self {
        Width::Anytime(config.schedule(k))
    }

    pub(crate) fn empirical_bernstein(config: &AlgoConfig, k: usize) -> Self {
        let schedule = BernsteinSchedule::new(config.c, config.delta, k);
        Width::EmpiricalBernstein {
            schedule,
            m2: vec![0.0; k],
        }
    }

    /// Folds a drawn value into group `i`'s running mean and, for
    /// Bernstein, its `m2` (Welford's update, so the mean keeps its bits).
    #[inline]
    fn push(&mut self, i: usize, estimate: &mut RunningMean, x: f64) {
        let Width::EmpiricalBernstein { m2, .. } = self else {
            return estimate.push(x);
        };
        let before = estimate.mean();
        estimate.push(x);
        m2[i] += (x - before) * (x - estimate.mean());
    }
}

/// Round-loop state over `k` groups.
#[derive(Debug)]
pub(crate) struct FocusState {
    width: Width,
    pub(crate) config: AlgoConfig,
    pub(crate) labels: Vec<String>,
    pub(crate) sizes: Vec<u64>,
    pub(crate) estimates: Vec<RunningMean>,
    pub(crate) active: Vec<bool>,
    /// Groups that draw no more: the source came up short. Only a group
    /// that ran dry ([`Self::ran_dry`]) holds its exact mean; one stopped
    /// by a dropped read deactivates with a width and marks the run
    /// truncated ([`Self::stop`]).
    pub(crate) exhausted: Vec<bool>,
    /// Every group's half-width at the last [`Self::read_widths`].
    pub(crate) live: Vec<f64>,
    /// `(m, N)` of the last anytime read: a read at the same pair is free.
    read_at: (u64, u64),
    /// Each group's half-width when it deactivated (its frozen interval).
    frozen: Vec<f64>,
    pub(crate) samples: Vec<u64>,
    /// Round counter `m` (samples per still-active group so far).
    pub(crate) m: u64,
    pub(crate) truncated: bool,
    /// Groups read by one exact pass instead of sampled: the pass's
    /// `(n, sum)` (`(0, 0.0)` until it runs); `None` for a sampled group.
    pub(crate) exact: Vec<Option<(u64, f64)>>,
    /// Each group's values of the last batched round it drew (reused).
    outs: Vec<Vec<f64>>,
    /// The groups drawing this round, ascending (reused).
    picks: Vec<usize>,
    /// Reusable deactivation-fixpoint buffers (member list, interval set,
    /// removal list) — zero steady-state allocation per round.
    fix: FixpointScratch,
}

impl FocusState {
    /// Initializes state and performs the first round (one sample from every
    /// group — Algorithm 1 lines 1–3) but those `exact` marks, which the
    /// first step reads whole instead ([`Self::read_exact`]).
    pub(crate) fn initialize<G: GroupSource>(
        config: &AlgoConfig,
        width: fn(&AlgoConfig, usize) -> Width,
        groups: &mut [G],
        exact: &[bool],
        rng: &mut dyn RngCore,
    ) -> Self {
        let labels = groups.iter().map(GroupSource::label).collect();
        let sizes = groups.iter().map(GroupSource::len).collect();
        let mut state = Self::new(config, width(config, groups.len()), labels, sizes);
        for (i, group) in groups.iter_mut().enumerate() {
            match exact.get(i) {
                Some(true) => state.exact[i] = Some((0, 0.0)),
                _ => state.draw(i, group, rng),
            }
        }
        state
    }

    /// The state at `m = 1` with nothing drawn yet, one group per label;
    /// the caller draws the bootstrap sample.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub(crate) fn new(
        config: &AlgoConfig,
        width: Width,
        labels: Vec<String>,
        sizes: Vec<u64>,
    ) -> Self {
        assert!(!labels.is_empty(), "need at least one group");
        let k = labels.len();
        Self {
            width,
            config: config.clone(),
            labels,
            sizes,
            estimates: vec![RunningMean::new(); k],
            active: vec![true; k],
            exhausted: vec![false; k],
            live: vec![f64::INFINITY; k],
            read_at: (0, 0),
            frozen: vec![f64::INFINITY; k],
            samples: vec![0; k],
            m: 1,
            truncated: false,
            exact: vec![None; k],
            outs: vec![Vec::new(); k],
            picks: Vec::new(),
            fix: FixpointScratch::default(),
        }
    }

    /// The prologue of every round: `Some(terminal)` without touching `m`
    /// when nothing is active ([`Self::outcome`]) or the round cap is
    /// reached (flagged truncated); otherwise advances `m` by `batch` and
    /// returns `None` — draw, deactivate, report.
    pub(crate) fn begin_round(&mut self, batch: u64) -> Option<StepOutcome> {
        if !self.any_active() {
            return Some(self.outcome());
        }
        if self.m >= self.config.max_rounds {
            self.truncated = true;
            return Some(StepOutcome::BudgetExhausted);
        }
        self.m = self.m.saturating_add(batch);
        None
    }

    /// How a round ends: running while a group is active, then converged
    /// unless the run is truncated (a dropped read stopped a group).
    pub(crate) fn outcome(&self) -> StepOutcome {
        if self.any_active() {
            StepOutcome::Running
        } else if self.truncated {
            StepOutcome::BudgetExhausted
        } else {
            StepOutcome::Converged
        }
    }

    /// Number of groups.
    pub(crate) fn k(&self) -> usize {
        self.active.len()
    }

    /// Draws one sample from group `i` into its running mean; stops the
    /// group when the source comes up short ([`Self::stop`]).
    pub(crate) fn draw<G: GroupSource>(&mut self, i: usize, group: &mut G, rng: &mut dyn RngCore) {
        match group.sample(rng, self.config.mode) {
            Some(x) => {
                self.width.push(i, &mut self.estimates[i], x);
                self.samples[i] += 1;
            }
            None => self.stop(i),
        }
    }

    /// Group `i` draws no more. Unless it ran dry, a read was dropped (a
    /// fault injector withheld it): the run is truncated, and the group
    /// deactivates at the width the schedule grants for the samples it
    /// delivered, so no other group waits on an interval that can never
    /// narrow.
    fn stop(&mut self, i: usize) {
        self.exhausted[i] = true;
        if self.stopped_short(i) {
            self.truncated = true;
            if self.active[i] {
                self.frozen[i] = self.delivered_width(i);
                self.active[i] = false;
            }
        }
    }

    /// Whether group `i` was stopped by a dropped read, not by running dry.
    pub(crate) fn stopped_short(&self, i: usize) -> bool {
        self.exhausted[i] && !self.ran_dry(i)
    }

    /// Whether group `i` ran dry: every row drawn without replacement or
    /// read by its exact pass (or none to draw), so its estimate is the
    /// exact group mean.
    fn ran_dry(&self, i: usize) -> bool {
        let whole = self.exact[i].is_some() || self.config.mode == SamplingMode::WithoutReplacement;
        self.samples[i] >= self.sizes[i] && (self.sizes[i] == 0 || whole)
    }

    /// Reads the exact groups not read yet, each in one pass (with `one`,
    /// SCAN's pace, only the first, which then leaves the active set). Its
    /// estimate is `sum/n`, each row read counts as a sample, and a row
    /// short (dropped, or no pass at all) stops it ([`Self::stop`]).
    pub(crate) fn read_exact<G: GroupSource>(&mut self, groups: &mut [G], one: bool) {
        for i in 0..self.k() {
            if self.exact[i].is_some() && !self.exhausted[i] {
                let (n, sum) = groups[i].read_exact().unwrap_or_default();
                (self.exact[i], self.samples[i]) = (Some((n, sum)), n);
                self.estimates[i] = RunningMean::from_parts(n, sum / n.max(1) as f64);
                self.stop(i);
                if one {
                    return self.deactivate(i);
                }
            }
        }
    }

    /// Draws this round's batch from every unexhausted sampled group, one
    /// [`GroupSource::draw_batch`] each in group order on this thread: the
    /// active ones (IFOCUS), or all with `include_inactive` (ROUNDROBIN),
    /// each into its reused `outs` buffer; folds value `j` of every batch
    /// before value `j + 1`, so the groups' divide chains overlap (each
    /// still folds its own values in draw order: a per-group fold's bits);
    /// and stops, in group order, a group that came up short.
    pub(crate) fn draw_round_selected<G: GroupSource>(
        &mut self,
        include_inactive: bool,
        groups: &mut [G],
        rng: &mut dyn RngCore,
        batch: u64,
    ) {
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        let drawing = |i: &usize| {
            (include_inactive || self.active[*i]) && !self.exhausted[*i] && self.exact[*i].is_none()
        };
        picks.extend((0..self.k()).filter(drawing));
        for &i in &picks {
            self.outs[i].clear();
            groups[i].draw_batch(batch, rng, self.config.mode, &mut self.outs[i]);
        }
        let longest = picks.iter().map(|&i| self.outs[i].len()).max();
        for j in 0..longest.unwrap_or(0) {
            for &i in &picks {
                if let Some(&x) = self.outs[i].get(j) {
                    self.width.push(i, &mut self.estimates[i], x);
                }
            }
        }
        for &i in &picks {
            let got = self.outs[i].len() as u64;
            self.samples[i] += got;
            if got < batch {
                self.stop(i);
            }
        }
        self.picks = picks;
    }

    /// Reads every group's live half-width, the one place one is computed:
    /// the anytime ε takes `N` over the active groups (all when none is);
    /// Bernstein, the group's own count (at least 1) and variance (0 if
    /// none).
    pub(crate) fn read_widths(&mut self) {
        if let Width::Anytime(schedule) = &self.width {
            let n_max = self.n_max();
            if self.read_at != (self.m, n_max) {
                self.read_at = (self.m, n_max);
                self.live.fill(schedule.half_width(self.m, n_max));
            }
        } else {
            for i in 0..self.k() {
                self.live[i] = self.delivered_width(i);
            }
        }
    }

    /// The largest active sampled size (the largest of all when none is).
    fn n_max(&self) -> u64 {
        let active = (0..self.k()).filter(|&i| self.active[i] && self.exact[i].is_none());
        let all = || self.sizes.iter().copied().max().unwrap_or(1);
        active.map(|i| self.sizes[i]).max().unwrap_or_else(all)
    }

    /// Group `i`'s half-width at its own sample count (at least 1): the
    /// anytime ε at the current `N`, or its empirical-Bernstein width.
    fn delivered_width(&self, i: usize) -> f64 {
        match &self.width {
            Width::Anytime(schedule) => schedule.half_width(self.samples[i].max(1), self.n_max()),
            Width::EmpiricalBernstein { schedule, m2 } => {
                let n = self.estimates[i].count();
                let variance = if n > 0 { m2[i] / n as f64 } else { 0.0 };
                schedule.half_width(n.max(1), variance)
            }
        }
    }

    /// Group `i`'s interval: live (as of the last read) while active,
    /// frozen once deactivated, zero-width once it ran dry (exact). An
    /// exact group whose pass read `n` of its `N` rows with sum `s` has
    /// `[s/N, (s + c·(N − n))/N]`, each unread row anywhere in `[0, c]`:
    /// `[0, c]` before the pass, the point `s/n` once `n = N`.
    pub(crate) fn interval(&self, i: usize) -> Interval {
        if let Some((n, sum)) = self.exact[i] {
            let (rows, unread) = (self.sizes[i].max(1) as f64, self.sizes[i].saturating_sub(n));
            return Interval::new(sum / rows, (sum + self.config.c * unread as f64) / rows);
        }
        let frozen = if self.exhausted[i] && self.ran_dry(i) {
            0.0
        } else {
            self.frozen[i]
        };
        let eps = if self.active[i] { self.live[i] } else { frozen };
        Interval::centered(self.estimates[i].mean(), eps)
    }

    /// Deactivates group `i`, freezing its interval at the last read.
    pub(crate) fn deactivate(&mut self, i: usize) {
        if self.active[i] {
            self.active[i] = false;
            self.frozen[i] = self.live[i];
        }
    }

    /// The deactivation fixpoint (Algorithm 1 lines 10–12): while some
    /// active group's `interval_of` is disjoint from every *other active*
    /// group's, deactivate it, so cascaded separations resolve within the
    /// round. The widths stay those of the last read throughout.
    ///
    /// Every iteration rebuilds its member list and interval set in the
    /// state's reusable [`FixpointScratch`] — zero steady-state heap
    /// allocation (verified by the `alloc_free` integration tests).
    pub(crate) fn separate(&mut self, interval_of: impl Fn(&Self, usize) -> Interval) {
        let mut fix = std::mem::take(&mut self.fix);
        while fix.separate(&self.active, |i| interval_of(self, i)) {
            for &i in fix.removed() {
                self.deactivate(i);
            }
        }
        self.fix = fix;
    }

    /// Standard IFOCUS deactivation: a read, then [`Self::separate`] over
    /// the plain intervals `ν_i ± ε_i`.
    pub(crate) fn standard_deactivation(&mut self) {
        self.read_widths();
        self.separate(Self::interval);
    }

    /// Deactivates everything at a fresh read (cut-off or exhaustion).
    pub(crate) fn deactivate_all(&mut self) {
        self.read_widths();
        for i in 0..self.k() {
            self.deactivate(i);
        }
    }

    /// Whether the resolution relaxation allows stopping now: at a fresh
    /// read, every active width below `r/4` (times `|S_i|` when `scaled`,
    /// Algorithm 4's sum space), every exact group read.
    pub(crate) fn resolution_reached(&mut self, scaled: bool) -> bool {
        let Some(thresh) = self.config.resolution_epsilon() else {
            return false;
        };
        self.read_widths();
        let scale = |i: usize| if scaled { self.sizes[i] as f64 } else { 1.0 };
        let sampled = |i: usize| scale(i) * self.live[i] < thresh;
        let below = |i: usize| self.exact[i].map_or_else(|| sampled(i), |_| self.exhausted[i]);
        (0..self.k()).all(|i| !self.active[i] || below(i))
    }

    /// True when every active group is exhausted — no further sampling can
    /// change any estimate, so the run must stop.
    pub(crate) fn all_active_exhausted(&self) -> bool {
        let exhausted = |i: usize| !self.active[i] || self.exhausted[i];
        self.any_active() && (0..self.k()).all(exhausted)
    }

    /// Every group exhausted (ROUNDROBIN keeps sampling inactive groups, so
    /// its stopping guard looks at all of them).
    pub(crate) fn all_exhausted(&self) -> bool {
        self.exhausted.iter().all(|&e| e)
    }

    /// Any group still active?
    pub(crate) fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }

    /// Count of active groups.
    pub(crate) fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Total samples drawn so far (cheap; no snapshot allocation).
    pub(crate) fn total_samples(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Approximate resident bytes of the live round-loop state: per-group
    /// estimators, flags, and the reusable scratch arenas. Backs the
    /// steppers' [`crate::runner::AlgorithmStepper::approx_bytes`] memory-
    /// accounting hook without allocating a snapshot.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.labels.capacity() * size_of::<String>()
            + self.labels.iter().map(String::capacity).sum::<usize>()
            + self.sizes.capacity() * size_of::<u64>()
            + self.estimates.capacity() * size_of::<RunningMean>()
            + self.active.capacity() * size_of::<bool>()
            + self.exhausted.capacity() * size_of::<bool>()
            + self.live.capacity() * size_of::<f64>()
            + self.frozen.capacity() * size_of::<f64>()
            + self.samples.capacity() * size_of::<u64>()
            + self.exact.capacity() * size_of::<Option<(u64, f64)>>()
            + self.outs.capacity() * size_of::<Vec<f64>>()
            + self.outs.iter().map(Vec::capacity).sum::<usize>() * size_of::<f64>()
            + self.picks.capacity() * size_of::<usize>()
            + self.fix.approx_bytes()
    }

    /// A point-in-time view for the resumable stepping API: estimates,
    /// intervals (as of the read that ended the round), active flags (an
    /// exact group read short stays active: it is never certified), and
    /// sample counts.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let shown = |i: usize| self.active[i] || (self.exact[i].is_some() && self.stopped_short(i));
        Snapshot {
            labels: self.labels.clone(),
            estimates: self.estimates.iter().map(RunningMean::mean).collect(),
            intervals: (0..self.k()).map(|i| self.interval(i)).collect(),
            active: (0..self.k()).map(shown).collect(),
            samples_per_group: self.samples.clone(),
            rounds: self.rounds(),
            truncated: self.truncated,
        }
    }

    /// The round counter `m`, or with no sampled group the most rows one
    /// group's pass read.
    fn rounds(&self) -> u64 {
        let scan = self.exact.iter().all(Option::is_some);
        let most = self.samples.iter().max().copied();
        most.filter(|_| scan).unwrap_or(self.m)
    }

    /// Packages the final result.
    pub(crate) fn finish(self) -> RunResult {
        RunResult {
            rounds: self.rounds(),
            labels: self.labels,
            estimates: self.estimates.iter().map(RunningMean::mean).collect(),
            samples_per_group: self.samples,
            truncated: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupSource;
    use rand::SeedableRng;

    /// A group of `len` rows that delivers `values` in order and then
    /// comes up short: dry when `values` holds every row, a dropped read
    /// otherwise.
    struct Scripted {
        values: Vec<f64>,
        len: u64,
        next: usize,
    }

    impl GroupSource for Scripted {
        fn label(&self) -> String {
            String::new()
        }
        fn len(&self) -> u64 {
            self.len
        }
        fn sample(&mut self, _rng: &mut dyn RngCore, _mode: SamplingMode) -> Option<f64> {
            let x = self.values.get(self.next).copied();
            self.next += 1;
            x
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn the_lockstep_fold_keeps_every_groups_sequential_bits() {
        // Values whose running mean depends on their order.
        let values = |seed: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|j| (seed + j as f64 * 0.37).sin() * 97.3 + 3.1 / (j as f64 + 1.7))
                .collect()
        };
        // Full batches; dry at 5 of 5 rows, mid-batch; a dropped read
        // after 3 of 100 rows; full again.
        let script = [
            (values(0.1, 40), 40),
            (values(1.3, 5), 5),
            (values(2.9, 3), 100),
            (values(4.4, 24), 24),
        ];
        let config = AlgoConfig::new(100.0, 0.05).with_mode(SamplingMode::WithoutReplacement);
        for width in [Width::anytime, Width::empirical_bernstein] {
            let mut groups: Vec<Scripted> = script
                .iter()
                .map(|(v, len)| Scripted {
                    values: v.clone(),
                    len: *len,
                    next: 0,
                })
                .collect();
            let labels = vec![String::new(); groups.len()];
            let sizes = groups.iter().map(GroupSource::len).collect();
            let mut state = FocusState::new(&config, width(&config, groups.len()), labels, sizes);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            for _ in 0..2 {
                state.draw_round_selected(false, &mut groups, &mut rng, 8);
            }
            for (i, (v, _)) in script.iter().enumerate() {
                // The per-group sequential fold of what group `i` delivered.
                let (mut mean, mut m2) = (RunningMean::new(), 0.0);
                for &x in &v[..v.len().min(16)] {
                    let before = mean.mean();
                    mean.push(x);
                    m2 += (x - before) * (x - mean.mean());
                }
                let got = &state.estimates[i];
                assert_eq!(got.mean().to_bits(), mean.mean().to_bits(), "group {i}");
                assert_eq!(
                    (got.count(), state.samples[i]),
                    (mean.count(), mean.count())
                );
                if let Width::EmpiricalBernstein { m2: kept, .. } = &state.width {
                    assert_eq!(kept[i].to_bits(), m2.to_bits(), "group {i}");
                }
            }
            assert_eq!(state.exhausted, [false, true, true, false]);
            assert!(state.stopped_short(2) && !state.stopped_short(1) && state.truncated);
        }
    }

    #[test]
    fn the_bernstein_width_keeps_m2_beside_an_unchanged_mean() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut width = Width::empirical_bernstein(&AlgoConfig::new(10.0, 0.05), 2);
        let (mut mean, mut plain) = (RunningMean::new(), RunningMean::new());
        for &x in &xs {
            width.push(1, &mut mean, x);
        }
        plain.push_batch(&xs);
        assert_eq!(mean, plain, "the mean keeps its bits");
        let Width::EmpiricalBernstein { m2, .. } = &width else {
            unreachable!()
        };
        // Population variance 4 over 8 values; group 0 drew nothing.
        assert_eq!(m2, &[0.0, 32.0]);
    }
}
