//! The one IFOCUS round state.
//!
//! [`FocusState`] is the round state of every algorithm whose estimator is
//! a per-group running mean under the shared anytime ε: IFOCUS, ROUNDROBIN,
//! SUM with known sizes (Algorithm 4), SUM/COUNT with unknown sizes
//! (Algorithm 5 — IFOCUS over the i.i.d. product stream `x·z`), and the
//! trends, graph, top-t, mistakes, values and partial-results variants. It
//! holds the running means, the round counter `m`, the active flags and the
//! frozen intervals of deactivated groups, and supplies the round prologue
//! ([`FocusState::begin_round`]), the draw, the deactivation fixpoint
//! ([`FocusState::separate`]) and the snapshot; those algorithms differ
//! only in *who gets sampled* each round and *which intervals must
//! separate* — the [`crate::focus::Rule`] the one round in
//! [`crate::focus`] is parameterised by. It keeps no per-round record: a
//! caller that wants one (Table 1, Figures 5c/6a) observes the snapshot
//! after each step.
//!
//! [`FixpointScratch::separate`] is the only implementation of the
//! deactivation fixpoint (Algorithm 1 lines 10–12) in this crate. The three
//! algorithms with a different estimator — IREFINE (per-phase Hoeffding
//! targets), the Bernstein variant (Welford variance) and multi-aggregate
//! (two means per group) — keep their own state; the latter two iterate the
//! same scratch, while IREFINE and the no-index sampler run a single
//! all-groups overlap check per round, which is not a fixpoint.

use crate::config::{AlgoConfig, ReactivationPolicy};
use crate::group::GroupSource;
use crate::result::RunResult;
use crate::runner::{Snapshot, StepOutcome};
use rand::RngCore;
use rapidviz_stats::{EpsilonSchedule, Interval, IntervalSetScratch, RunningMean};

/// Reusable buffers for the deactivation fixpoint: the active-member index
/// list, the interval set, and the per-iteration removal list are all
/// rebuilt in place, so a warmed scratch makes the whole fixpoint
/// allocation-free (the same arena discipline as the samplers'
/// `BatchScratch`). Owned by [`FocusState`]; the Bernstein and
/// multi-aggregate loops hold one of their own.
#[derive(Debug, Clone, Default)]
pub(crate) struct FixpointScratch {
    /// Indices of currently active groups, rebuilt per iteration.
    members: Vec<usize>,
    /// Their confidence intervals, positionally aligned with `members`.
    set: IntervalSetScratch,
    /// Members that separated this iteration.
    pub(crate) remove: Vec<usize>,
}

impl FixpointScratch {
    /// One fixpoint iteration: rebuilds the member list and interval set
    /// from `active`, filling `remove` with every member whose interval is
    /// disjoint from all other members'. Returns `false` when the fixpoint
    /// is reached (no members, or nothing separated); callers loop while
    /// it returns `true`, deactivating `remove` between iterations.
    pub(crate) fn separate(
        &mut self,
        active: &[bool],
        interval_of: impl Fn(usize) -> Interval,
    ) -> bool {
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

    /// Rebuilds the interval set over **all** `k` groups (the reactivation
    /// policy (b) test, which probes every group rather than iterating a
    /// fixpoint over the active subset).
    pub(crate) fn build_full(&mut self, k: usize, interval_of: impl Fn(usize) -> Interval) {
        self.set.begin();
        for i in 0..k {
            self.set.push(interval_of(i));
        }
        self.set.build();
    }

    /// Whether member `i` (an index into the `build_full` ordering)
    /// overlaps any other member.
    pub(crate) fn full_overlaps_others(&self, i: usize) -> bool {
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

/// Round-loop state over `k` groups.
#[derive(Debug)]
pub(crate) struct FocusState {
    pub(crate) schedule: EpsilonSchedule,
    pub(crate) config: AlgoConfig,
    pub(crate) labels: Vec<String>,
    pub(crate) sizes: Vec<u64>,
    pub(crate) estimates: Vec<RunningMean>,
    pub(crate) active: Vec<bool>,
    /// Groups whose population is exhausted (without replacement): their
    /// estimate equals the exact group mean and cannot change.
    pub(crate) exhausted: Vec<bool>,
    /// ε at the moment each group deactivated (its frozen interval).
    pub(crate) frozen_eps: Vec<f64>,
    pub(crate) samples: Vec<u64>,
    /// Round counter `m` (samples per still-active group so far).
    pub(crate) m: u64,
    pub(crate) truncated: bool,
    /// Reusable buffer for batched draws (avoids a per-round allocation).
    scratch: Vec<f64>,
    /// Reusable deactivation-fixpoint buffers (member list, interval set,
    /// removal list) — zero steady-state allocation per round.
    fix: FixpointScratch,
}

impl FocusState {
    /// Initializes state and performs the first round (one sample from every
    /// group — Algorithm 1 lines 1–3).
    pub(crate) fn initialize<G: GroupSource>(
        config: &AlgoConfig,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> Self {
        let labels = groups.iter().map(GroupSource::label).collect();
        let sizes = groups.iter().map(GroupSource::len).collect();
        let mut state = Self::new(config, labels, sizes);
        for (i, group) in groups.iter_mut().enumerate() {
            state.draw(i, group, rng);
        }
        state
    }

    /// The state at `m = 1` with nothing drawn yet, one group per label;
    /// the caller draws the bootstrap sample.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub(crate) fn new(config: &AlgoConfig, labels: Vec<String>, sizes: Vec<u64>) -> Self {
        assert!(!labels.is_empty(), "need at least one group");
        let k = labels.len();
        Self {
            schedule: config.schedule(k),
            config: config.clone(),
            labels,
            sizes,
            estimates: vec![RunningMean::new(); k],
            active: vec![true; k],
            exhausted: vec![false; k],
            frozen_eps: vec![f64::INFINITY; k],
            samples: vec![0; k],
            m: 1,
            truncated: false,
            scratch: Vec::new(),
            fix: FixpointScratch::default(),
        }
    }

    /// The prologue of every round: `Some(terminal)` without touching `m`
    /// when nothing is active (converged) or the round cap is reached
    /// (flagged truncated); otherwise advances `m` by `batch` and returns
    /// `None` — draw, deactivate, report.
    pub(crate) fn begin_round(&mut self, batch: u64) -> Option<StepOutcome> {
        if !self.any_active() {
            return Some(StepOutcome::Converged);
        }
        if self.m >= self.config.max_rounds {
            self.truncated = true;
            return Some(StepOutcome::BudgetExhausted);
        }
        self.m = self.m.saturating_add(batch);
        None
    }

    /// Number of groups.
    pub(crate) fn k(&self) -> usize {
        self.active.len()
    }

    /// Draws one sample from group `i` into its running mean; marks the
    /// group exhausted when a without-replacement source runs dry.
    pub(crate) fn draw<G: GroupSource>(&mut self, i: usize, group: &mut G, rng: &mut dyn RngCore) {
        match group.sample(rng, self.config.mode) {
            Some(x) => {
                self.estimates[i].push(x);
                self.samples[i] += 1;
            }
            None => {
                self.exhausted[i] = true;
            }
        }
    }

    /// Draws a batch of `n` samples from group `i` through its
    /// [`GroupSource::draw_batch`] hook (one call instead of `n`); marks the
    /// group exhausted when the source comes up short. Identical in effect
    /// and RNG consumption to `n` repeated [`Self::draw`] calls.
    pub(crate) fn draw_batch<G: GroupSource>(
        &mut self,
        i: usize,
        group: &mut G,
        rng: &mut dyn RngCore,
        n: u64,
    ) {
        self.scratch.clear();
        let got = group.draw_batch(n, rng, self.config.mode, &mut self.scratch);
        self.estimates[i].push_batch(&self.scratch);
        self.samples[i] += got;
        if got < n {
            self.exhausted[i] = true;
        }
    }

    /// Draws this round's batch from every group the selection admits, in
    /// group order (the IFOCUS / ROUNDROBIN / partial-results hot loops all
    /// come through here).
    ///
    /// With `include_inactive` false only active, unexhausted groups draw
    /// (IFOCUS semantics); with it true every unexhausted group draws
    /// (ROUNDROBIN semantics).
    pub(crate) fn draw_round_selected<G: GroupSource>(
        &mut self,
        include_inactive: bool,
        groups: &mut [G],
        rng: &mut dyn RngCore,
        batch: u64,
    ) {
        for i in 0..self.k() {
            if (include_inactive || self.active[i]) && !self.exhausted[i] {
                self.draw_batch(i, &mut groups[i], rng, batch);
            }
        }
    }

    /// Largest population among currently active groups (the `N` of the
    /// ε formula); falls back to the global max when nothing is active.
    pub(crate) fn n_max_active(&self) -> u64 {
        let active_max = self
            .sizes
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(&n, _)| n)
            .max();
        active_max.unwrap_or_else(|| self.sizes.iter().copied().max().unwrap_or(1))
    }

    /// The anytime ε at the current round.
    pub(crate) fn epsilon(&self) -> f64 {
        self.schedule.half_width(self.m, self.n_max_active())
    }

    /// Current confidence interval of group `i`: live ε while active, frozen
    /// ε after deactivation (Table 1 renders both).
    pub(crate) fn interval(&self, i: usize, eps_now: f64) -> Interval {
        let eps = if self.active[i] {
            eps_now
        } else if self.exhausted[i] {
            // Exhausted estimates are exact.
            0.0
        } else {
            // Frozen at deactivation time.
            self.frozen_eps[i]
        };
        Interval::centered(self.estimates[i].mean(), eps)
    }

    /// Deactivates group `i`, freezing its interval at the given ε.
    pub(crate) fn deactivate(&mut self, i: usize, eps_now: f64) {
        if self.active[i] {
            self.active[i] = false;
            self.frozen_eps[i] = eps_now;
        }
    }

    /// The deactivation fixpoint (Algorithm 1 lines 10–12): while some
    /// active group's `interval_of` is disjoint from every *other active*
    /// group's, deactivate it with its interval frozen at `eps_now`, so
    /// cascaded separations resolve within the round.
    ///
    /// Every iteration rebuilds its member list and interval set in the
    /// state's reusable [`FixpointScratch`] — zero steady-state heap
    /// allocation (verified by the `alloc_free` integration tests).
    pub(crate) fn separate(
        &mut self,
        eps_now: f64,
        interval_of: impl Fn(&Self, usize) -> Interval,
    ) {
        let mut fix = std::mem::take(&mut self.fix);
        while fix.separate(&self.active, |i| interval_of(self, i)) {
            for &i in &fix.remove {
                self.deactivate(i, eps_now);
            }
        }
        self.fix = fix;
    }

    /// [`Self::separate`] over the plain intervals `ν_i ± eps_now`.
    pub(crate) fn separate_means(&mut self, eps_now: f64) {
        self.separate(eps_now, |s, i| {
            Interval::centered(s.estimates[i].mean(), eps_now)
        });
    }

    /// Standard IFOCUS deactivation: [`Self::separate_means`] at the current
    /// ε. Under [`ReactivationPolicy::Allow`], activity is instead
    /// recomputed from scratch over all non-exhausted groups (§3.1 option
    /// (b)).
    pub(crate) fn standard_deactivation(&mut self) {
        let eps_now = self.epsilon();
        match self.config.reactivation {
            ReactivationPolicy::Never => self.separate_means(eps_now),
            ReactivationPolicy::Allow => {
                let mut fix = std::mem::take(&mut self.fix);
                // Recompute overlap among every group (frozen estimates for
                // previously inactive ones, live ε for all).
                fix.build_full(self.k(), |i| {
                    Interval::centered(self.estimates[i].mean(), eps_now)
                });
                for i in 0..self.k() {
                    let overlapping = fix.full_overlaps_others(i);
                    if self.exhausted[i] {
                        // Exhausted estimates cannot improve; keep inactive.
                        self.deactivate(i, eps_now);
                    } else if overlapping {
                        self.active[i] = true;
                    } else {
                        self.deactivate(i, eps_now);
                    }
                }
                self.fix = fix;
            }
        }
    }

    /// Deactivates everything (resolution cut-off or exhaustion).
    pub(crate) fn deactivate_all(&mut self) {
        let eps_now = self.epsilon();
        for i in 0..self.k() {
            self.deactivate(i, eps_now);
        }
    }

    /// Whether the resolution relaxation allows stopping now (`ε_m < r/4`).
    pub(crate) fn resolution_reached(&self) -> bool {
        self.config
            .resolution_epsilon()
            .is_some_and(|thresh| self.epsilon() < thresh)
    }

    /// True when every active group is exhausted — no further sampling can
    /// change any estimate, so the run must stop.
    pub(crate) fn all_active_exhausted(&self) -> bool {
        let mut any_active = false;
        for i in 0..self.k() {
            if self.active[i] {
                any_active = true;
                if !self.exhausted[i] {
                    return false;
                }
            }
        }
        any_active
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
            + self.frozen_eps.capacity() * size_of::<f64>()
            + self.samples.capacity() * size_of::<u64>()
            + self.scratch.capacity() * size_of::<f64>()
            + self.fix.approx_bytes()
    }

    /// A point-in-time view for the resumable stepping API: estimates,
    /// intervals (live ε for active groups, frozen for certified ones),
    /// active flags, and sample counts.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let eps_now = self.epsilon();
        Snapshot {
            labels: self.labels.clone(),
            estimates: self.estimates.iter().map(RunningMean::mean).collect(),
            intervals: (0..self.k()).map(|i| self.interval(i, eps_now)).collect(),
            active: self.active.clone(),
            samples_per_group: self.samples.clone(),
            rounds: self.m,
            truncated: self.truncated,
        }
    }

    /// Packages the final result.
    pub(crate) fn finish(self) -> RunResult {
        RunResult {
            labels: self.labels,
            estimates: self.estimates.iter().map(RunningMean::mean).collect(),
            samples_per_group: self.samples,
            rounds: self.m,
            truncated: self.truncated,
        }
    }
}
