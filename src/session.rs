//! Resumable query sessions: the streaming, budget-aware front door.
//!
//! [`QuerySession`] (created by [`crate::VizQuery::start`]) owns everything
//! a run needs — the storage-backed group samplers, the algorithm's state
//! machine, and the RNG — and advances **one round per [`QuerySession::step`]
//! call**, handing back a [`RoundUpdate`] after each. A dashboard can
//! therefore re-render the partial ordering after every round, stop the
//! moment the bars it cares about have certified, enforce sample or
//! wall-clock budgets, or cancel outright — and still walk away with the
//! best answer computed so far via [`QuerySession::finish`].
//!
//! # Progressive rendering, worked example
//!
//! ```
//! use rapidviz::needletail::{read_csv, CsvOptions, NeedleTail};
//! use rapidviz::{StepOutcome, VizQuery};
//! use rand::SeedableRng;
//!
//! let mut csv = String::from("airline,delay\n");
//! for i in 0..600 {
//!     // Three airlines with well-separated mean delays.
//!     let (name, delay) = match i % 3 {
//!         0 => ("AA", 40.0 + f64::from(i % 7)),
//!         1 => ("JB", 10.0 + f64::from(i % 5)),
//!         _ => ("UA", 80.0 + f64::from(i % 11)),
//!     };
//!     csv.push_str(&format!("{name},{delay}\n"));
//! }
//! let table = read_csv(&csv, &CsvOptions::default()).unwrap();
//! let engine = NeedleTail::new(table, &["airline"]).unwrap();
//!
//! let mut session = VizQuery::new(&engine)
//!     .group_by("airline")
//!     .avg("delay")
//!     .bound(100.0)
//!     .start(rand::rngs::StdRng::seed_from_u64(1))
//!     .unwrap();
//!
//! // Drive the session round by round, redrawing after each update.
//! let mut last = None;
//! for update in session.by_ref() {
//!     // Bars certified so far, in display order — safe to render now.
//!     for &g in &update.snapshot.certified_order() {
//!         let _bar = (&update.snapshot.labels[g], update.snapshot.estimates[g]);
//!     }
//!     last = Some(update.outcome);
//! }
//! assert_eq!(last, Some(StepOutcome::Converged));
//! let answer = session.finish();
//! assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
//! assert!(answer.fraction_sampled() < 1.0);
//! ```

use rand::RngCore;
use rapidviz_core::clock::{Clock, SystemClock};
use rapidviz_core::runner::AlgorithmStepper;
use rapidviz_core::{viz, GroupSource, RunResult, Snapshot, StepOutcome};
use rapidviz_needletail::NeedleTail;
use rapidviz_stats::Interval;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::NeedletailGroup;
use crate::checkpoint::{CheckpointError, QuerySpec, SessionCheckpoint};

/// A stepper paired with the groups it samples — what a session drives,
/// whatever the algorithm. `VizQuery::prepare_core` picks the pair; nothing
/// here knows which one it got.
pub(crate) trait SessionEngine: std::fmt::Debug {
    fn step(&mut self, rng: &mut dyn RngCore) -> StepOutcome;
    fn snapshot(&self) -> Snapshot;
    fn total_samples(&self) -> u64;

    /// The snapshot's size, by default: COUNT holds little else.
    fn approx_bytes(&self) -> usize {
        self.snapshot().approx_bytes()
    }

    /// The snapshot's fields, by default.
    fn finish(self: Box<Self>) -> RunResult {
        let snap = self.snapshot();
        RunResult {
            labels: snap.labels,
            estimates: snap.estimates,
            samples_per_group: snap.samples_per_group,
            rounds: snap.rounds,
            truncated: snap.truncated,
        }
    }
}

/// Every [`AlgorithmStepper`] over plain storage-backed groups: AVG under
/// any ordering algorithm, and SUM with known group sizes (Algorithm 4).
impl<S: AlgorithmStepper + std::fmt::Debug> SessionEngine for (S, Vec<NeedletailGroup>) {
    fn step(&mut self, rng: &mut dyn RngCore) -> StepOutcome {
        self.0.step(&mut self.1, rng)
    }

    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    fn total_samples(&self) -> u64 {
        self.0.total_samples()
    }

    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.0.finish()
    }
}

/// COUNT read from the plan (see [`crate::VizQuery::count`]): group i's
/// estimate is its eligible-row count (the popcount of group ∧ filter)
/// over the relation's row count, with a point interval and no sample.
/// Every group stays active until the first step, which certifies them all
/// and converges, so a COUNT session streams one terminal round like any
/// other session. It also answers every plan with no group.
#[derive(Debug)]
pub(crate) struct ExactCount(Snapshot);

impl ExactCount {
    pub(crate) fn new(groups: &[NeedletailGroup], rows: u64) -> Self {
        let share = |g: &NeedletailGroup| g.len() as f64 / rows as f64;
        let estimates: Vec<f64> = groups.iter().map(share).collect();
        Self(Snapshot {
            labels: groups.iter().map(GroupSource::label).collect(),
            intervals: estimates.iter().map(|&e| Interval::new(e, e)).collect(),
            active: vec![true; groups.len()],
            samples_per_group: vec![0; groups.len()],
            rounds: 0,
            truncated: false,
            estimates,
        })
    }
}

impl SessionEngine for ExactCount {
    fn step(&mut self, _rng: &mut dyn RngCore) -> StepOutcome {
        self.0.active.fill(false);
        StepOutcome::Converged
    }

    fn snapshot(&self) -> Snapshot {
        self.0.clone()
    }

    fn total_samples(&self) -> u64 {
        0
    }
}

/// How the engine's plan cache treated one query's planning phase: the
/// hit/miss deltas captured around
/// [`crate::VizQuery::start`] / [`crate::VizQuery::execute`] planning.
///
/// A warm repeat of a seen query plans entirely from cache
/// (`plan_hits > 0`, zero misses); a cold or cache-evicted plan shows the
/// misses instead. A serving layer watches these to see when workload
/// filter diversity outruns the LRU — silently paying cold-plan cost on
/// every request — rather than guessing from latency. Deltas are read
/// from the engine's shared [`rapidviz_needletail::MetricsSnapshot`], so
/// if several queries plan concurrently on one engine each delta may
/// include a neighbour's lookups; totals across sessions stay exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Group-plan LRU hits (ready `(label, rows)` sets reused).
    pub plan_hits: u64,
    /// Group-plan LRU misses (plan built cold).
    pub plan_misses: u64,
}

impl PlanCacheStats {
    /// The delta between two engine metrics snapshots, projected onto the
    /// planning-cache counters (`after` taken after planning, `before`
    /// just before).
    #[must_use]
    pub fn delta(
        before: &rapidviz_needletail::MetricsSnapshot,
        after: &rapidviz_needletail::MetricsSnapshot,
    ) -> Self {
        // Saturating: `Metrics::reset()` is public on the engine's shared
        // counters, so `after` may sit below `before`.
        let d = u64::saturating_sub;
        Self {
            plan_hits: d(after.plan_cache_hits, before.plan_cache_hits),
            plan_misses: d(after.plan_cache_misses, before.plan_cache_misses),
        }
    }

    /// Whether planning ran entirely warm: at least one cache hit and not
    /// a single miss.
    #[must_use]
    pub fn fully_warm(&self) -> bool {
        self.plan_misses == 0 && self.plan_hits > 0
    }
}

/// What one session round produced: the step outcome plus a full
/// [`Snapshot`] for progressive rendering, and bookkeeping deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundUpdate {
    /// Outcome of the round ([`StepOutcome::Running`] means keep stepping).
    pub outcome: StepOutcome,
    /// Round counter after this step.
    pub round: u64,
    /// Values read so far across all groups, sampled or scanned whole.
    pub total_samples: u64,
    /// `total_samples / population`, clamped to at most 1.0 — monotone
    /// over a session's updates. With-replacement sampling on small groups
    /// can draw more samples than there are rows; the clamp keeps the
    /// value an honest "fraction of the data touched" for progress bars.
    pub fraction_sampled: f64,
    /// Groups whose ordering position certified **during this step**
    /// (indices in input order). Their estimates are frozen from here on.
    pub newly_certified: Vec<usize>,
    /// Full point-in-time view: estimates, confidence intervals, active
    /// set, and the certified partial ordering.
    pub snapshot: Snapshot,
}

/// Budget + progress bookkeeping shared by the blocking `execute()` loop
/// and the streaming [`QuerySession`] — both drive exactly this state, so
/// their fixed-seed results are identical by construction.
#[derive(Debug)]
pub(crate) struct SessionCore {
    engine: Box<dyn SessionEngine>,
    population: u64,
    max_samples: Option<u64>,
    deadline: Option<Instant>,
    /// Time source the deadline is checked against — the builder's
    /// configured clock ([`crate::VizQuery::clock`]), so simulated time
    /// governs budgets exactly like the real wall clock does.
    clock: Arc<dyn Clock>,
    /// Active flags after the last delivered update (for `newly_certified`).
    prev_active: Vec<bool>,
    /// Set once a non-`Running` outcome has been returned.
    terminal: Option<StepOutcome>,
    /// Whether the terminal outcome came from a session budget (sample or
    /// deadline), as opposed to natural convergence.
    budget_tripped: bool,
    /// Algorithm rounds taken since the bootstrap — with the seed, the
    /// whole of a checkpoint's replay recipe.
    steps: u64,
    /// Planning-cache hit/miss delta captured while this query planned.
    planning: PlanCacheStats,
}

impl SessionCore {
    pub(crate) fn new(
        engine: Box<dyn SessionEngine>,
        population: u64,
        max_samples: Option<u64>,
        deadline: Option<Instant>,
        clock: Arc<dyn Clock>,
        planning: PlanCacheStats,
    ) -> Self {
        let prev_active = engine.snapshot().active;
        Self {
            engine,
            population,
            max_samples,
            deadline,
            clock,
            prev_active,
            terminal: None,
            budget_tripped: false,
            steps: 0,
            planning,
        }
    }

    pub(crate) fn planning_stats(&self) -> PlanCacheStats {
        self.planning
    }

    fn sample_budget_hit(&self) -> bool {
        self.max_samples
            .is_some_and(|cap| self.engine.total_samples() >= cap)
    }

    fn budget_hit(&self) -> bool {
        self.sample_budget_hit() || self.deadline.is_some_and(|d| self.clock.now() >= d)
    }

    /// One algorithm round, counted; a non-`Running` outcome is terminal.
    fn engine_step(&mut self, rng: &mut dyn RngCore) -> StepOutcome {
        let outcome = self.engine.step(rng);
        self.steps += 1;
        if !outcome.is_running() {
            self.terminal = Some(outcome);
        }
        outcome
    }

    /// Advances one round without building a `RoundUpdate` — the blocking
    /// `execute()` path, which skips the per-round snapshot allocation.
    pub(crate) fn raw_step(&mut self, rng: &mut dyn RngCore) -> StepOutcome {
        if let Some(t) = self.terminal {
            return t;
        }
        if self.budget_hit() {
            self.budget_tripped = true;
            self.terminal = Some(StepOutcome::BudgetExhausted);
            return StepOutcome::BudgetExhausted;
        }
        self.engine_step(rng)
    }

    /// Advances one round and packages the full per-round update.
    pub(crate) fn step_update(&mut self, rng: &mut dyn RngCore) -> RoundUpdate {
        let outcome = self.raw_step(rng);
        let snapshot = self.snapshot();
        let newly_certified: Vec<usize> = self
            .prev_active
            .iter()
            .zip(&snapshot.active)
            .enumerate()
            .filter(|(_, (&was, &is))| was && !is)
            .map(|(i, _)| i)
            .collect();
        self.prev_active.clone_from(&snapshot.active);
        let total_samples = snapshot.total_samples();
        RoundUpdate {
            outcome,
            round: snapshot.rounds,
            total_samples,
            fraction_sampled: fraction(total_samples, self.population),
            newly_certified,
            snapshot,
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let mut snap = self.engine.snapshot();
        // The stepper only knows about its own round cap; session budgets
        // truncate the run just the same, and snapshots must say so.
        snap.truncated |= self.budget_tripped;
        snap
    }

    pub(crate) fn total_samples(&self) -> u64 {
        self.engine.total_samples()
    }

    pub(crate) fn population(&self) -> u64 {
        self.population
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.engine.approx_bytes() + self.prev_active.capacity() * std::mem::size_of::<bool>()
    }

    pub(crate) fn outcome(&self) -> StepOutcome {
        self.terminal.unwrap_or(StepOutcome::Running)
    }

    // --- checkpoint/resume surface (crate-private) --------------------

    /// Replays a checkpointed session's `steps` rounds on this freshly
    /// planned core (its bootstrap just redrawn from the same `rng`), then adopts
    /// the recorded terminal flags and re-anchors the remaining
    /// time-to-deadline at the clock's `now()`.
    ///
    /// The wall-clock budget is not consulted while replaying — the
    /// original run cleared it at every one of these rounds — but the
    /// sample budget is deterministic, and a recipe that steps past it,
    /// past the run's own end, or onto a different group count, sample
    /// count or outcome than it recorded is refused. That also bounds the
    /// loop for hostile input: by the query's natural length, and by
    /// `max_samples` when set.
    pub(crate) fn replay(
        &mut self,
        checkpoint: &SessionCheckpoint,
        rng: &mut dyn RngCore,
    ) -> Result<(), CheckpointError> {
        let refuse = |what: String| Err(CheckpointError::Mismatch(what));
        let groups = self.prev_active.len() as u64;
        if groups != checkpoint.groups {
            return refuse(format!(
                "the query plans {groups} groups, the checkpoint recorded {}",
                checkpoint.groups
            ));
        }
        for step in 0..checkpoint.steps {
            if self.terminal.is_some() || self.sample_budget_hit() {
                return refuse(format!(
                    "the run ends after {step} steps, the checkpoint recorded {}",
                    checkpoint.steps
                ));
            }
            self.engine_step(rng);
        }
        let total_samples = self.engine.total_samples();
        if total_samples != checkpoint.total_samples {
            return refuse(format!(
                "replay drew {total_samples} samples, the checkpoint recorded {}",
                checkpoint.total_samples
            ));
        }
        let consistent = if checkpoint.budget_tripped {
            // A session budget pre-empts a round, so it can only have
            // tripped on a run whose every round came back `Running`.
            self.terminal.is_none() && checkpoint.terminal == Some(StepOutcome::BudgetExhausted)
        } else {
            checkpoint.terminal == self.terminal
        };
        if !consistent {
            return refuse(format!(
                "replay ends {:?}, the checkpoint recorded {:?} (budget tripped: {})",
                self.terminal, checkpoint.terminal, checkpoint.budget_tripped
            ));
        }
        self.terminal = checkpoint.terminal;
        self.budget_tripped = checkpoint.budget_tripped;
        self.prev_active = self.engine.snapshot().active;
        // Anchored only now, so the replay's own wall time is not charged.
        self.deadline = checkpoint.remaining.map(|left| self.clock.now() + left);
        Ok(())
    }

    /// The replay recipe of this core, completed with what the session
    /// around it owns. `remaining` is the time left until the deadline as
    /// measured by the session clock, so parked wall time never counts
    /// against the query's budget.
    fn checkpoint(
        &self,
        spec: QuerySpec,
        rng: [u64; 4],
        delivered_terminal: bool,
    ) -> SessionCheckpoint {
        SessionCheckpoint {
            spec,
            rng,
            steps: self.steps,
            groups: self.prev_active.len() as u64,
            total_samples: self.engine.total_samples(),
            remaining: self
                .deadline
                .map(|d| d.saturating_duration_since(self.clock.now())),
            terminal: self.terminal,
            budget_tripped: self.budget_tripped,
            delivered_terminal,
        }
    }

    pub(crate) fn finish(self) -> QueryAnswer {
        let outcome = self.outcome();
        let mut result = self.engine.finish();
        if self.budget_tripped {
            // Session budgets truncate exactly like the algorithms' own
            // round caps: best-effort estimates, flagged as such.
            result.truncated = true;
        }
        QueryAnswer {
            result,
            population: self.population,
            outcome,
        }
    }
}

fn fraction(samples: u64, population: u64) -> f64 {
    if population == 0 {
        0.0
    } else {
        // With-replacement draws can exceed the population on small
        // groups; clamp so the reported fraction stays in [0, 1].
        (samples as f64 / population as f64).min(1.0)
    }
}

/// A resumable, cancellable query run. Created by
/// [`crate::VizQuery::start`]; see the [module docs](self) for a worked
/// progressive-rendering example.
///
/// Drive it either poll-style ([`QuerySession::step`] until the outcome
/// stops being [`StepOutcome::Running`]) or as an iterator (each item is a
/// [`RoundUpdate`]; iteration ends after the first terminal update).
/// At any point:
///
/// * [`QuerySession::snapshot`] — current estimates / intervals / partial
///   ordering without advancing;
/// * [`QuerySession::finish`] — consume the session and get the best
///   current [`QueryAnswer`] (this is also how you **cancel**: stop
///   stepping and call `finish`, or just drop the session).
///
/// Budgets configured on the builder ([`crate::VizQuery::max_samples`],
/// [`crate::VizQuery::timeout`] / [`crate::VizQuery::deadline`]) are
/// checked before every round; once one trips, `step` reports
/// [`StepOutcome::BudgetExhausted`] and the session stops advancing, with
/// `fraction_sampled` frozen at its last value (clamped to at most 1 —
/// with-replacement sampling on a small population can draw more samples
/// than there are rows).
pub struct QuerySession {
    core: SessionCore,
    rng: Box<dyn RngCore>,
    /// State words `rng` held when [`crate::VizQuery::start`] received it,
    /// before planning drew from it; `None` for an RNG other than the shim
    /// [`rand::rngs::StdRng`], which a checkpoint could not reseed.
    seed: Option<[u64; 4]>,
    delivered_terminal: bool,
    /// The re-plannable query description, embedded in checkpoints.
    spec: QuerySpec,
}

impl std::fmt::Debug for QuerySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySession")
            .field("core", &self.core)
            .field("delivered_terminal", &self.delivered_terminal)
            .finish_non_exhaustive()
    }
}

impl QuerySession {
    pub(crate) fn new(
        core: SessionCore,
        rng: Box<dyn RngCore>,
        seed: Option<[u64; 4]>,
        spec: QuerySpec,
    ) -> Self {
        Self {
            core,
            rng,
            seed,
            delivered_terminal: false,
            spec,
        }
    }

    /// Captures the session as a [`SessionCheckpoint`] — its **replay
    /// recipe**: the query spec, the RNG words the session started from,
    /// the number of rounds taken, budget bookkeeping (time-to-deadline,
    /// not an absolute instant — parked wall time never counts against the
    /// query) and a sample-count checksum. No estimator, sampler or cache
    /// state is captured, so the cost and the size are the same at every
    /// round. See [`crate::checkpoint`] for the format.
    ///
    /// Stepping a resumed session produces a round stream bit-identical
    /// (`f64::to_bits`) to the uninterrupted original.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::OpaqueRng`] when the session was started with an
    /// RNG other than the shim [`rand::rngs::StdRng`].
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let seed = self.seed.ok_or(CheckpointError::OpaqueRng)?;
        Ok(self
            .core
            .checkpoint(self.spec.clone(), seed, self.delivered_terminal))
    }

    /// Rebuilds a session from a checkpoint against `engine`, measuring
    /// any remaining wall-clock budget with the real system clock. See
    /// [`QuerySession::resume_with_clock`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySession::resume_with_clock`].
    pub fn resume(
        engine: &NeedleTail,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Self, CheckpointError> {
        Self::resume_with_clock(engine, checkpoint, Arc::new(SystemClock))
    }

    /// Rebuilds a session from a checkpoint against `engine` by replaying
    /// it: re-plans the embedded query through the ordinary planning path
    /// (caches and all), reseeds the RNG from the recorded words, redraws
    /// the bootstrap, and re-runs the recorded number of rounds. The
    /// remaining time-to-deadline is re-anchored at `clock.now()` and is
    /// not consumed by the replay's rounds.
    ///
    /// The resumed session's round stream is bit-identical to what the
    /// original would have produced had it never paused. A resume costs
    /// the session's own sampling up to the pause — never more than the
    /// embedded query itself, and bounded by the spec's `max_samples` when
    /// set — instead of a state copy; the replayed draws are real
    /// retrievals and are charged to the engine's metrics as such.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Engine`] — re-planning failed (schema drift);
    /// * [`CheckpointError::Mismatch`] — the recipe does not replay on this
    ///   engine: a different group count, a run that ends before the
    ///   recorded number of rounds, or a different sample count or outcome
    ///   at the end of it.
    pub fn resume_with_clock(
        engine: &NeedleTail,
        checkpoint: &SessionCheckpoint,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, CheckpointError> {
        let query = crate::VizQuery::from_spec(engine, checkpoint.spec.clone(), clock);
        let mut rng = rand::rngs::StdRng::from_state(checkpoint.rng);
        let mut core = query.prepare_core(&mut rng)?;
        core.replay(checkpoint, &mut rng)?;
        Ok(Self {
            core,
            rng: Box::new(rng),
            seed: Some(checkpoint.rng),
            delivered_terminal: checkpoint.delivered_terminal,
            spec: checkpoint.spec.clone(),
        })
    }

    /// Advances one round and returns its update. After termination this
    /// keeps returning the terminal outcome without advancing, so a
    /// poll-style driver can simply stop on a non-`Running` outcome.
    ///
    /// The first terminal update — whether a budget deadline slipped past
    /// between rounds or the run converged — is delivered exactly once:
    /// repeated `step` calls re-report it (frozen, for pollers that missed
    /// it), but the [`Iterator`] view never re-yields it, even when `step`
    /// and iteration are mixed on the same session.
    pub fn step(&mut self) -> RoundUpdate {
        let update = self.core.step_update(&mut *self.rng);
        if !update.outcome.is_running() {
            // Mark the terminal update consumed for the Iterator view too:
            // without this, reaching the terminal via an explicit `step()`
            // and then iterating would deliver it a second time.
            self.delivered_terminal = true;
        }
        update
    }

    /// The current estimates, intervals, active set, and certified partial
    /// ordering — without advancing the run.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    /// Total samples drawn so far.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.core.total_samples()
    }

    /// Total rows eligible across groups.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.core.population()
    }

    /// Fraction of eligible rows sampled so far (monotone over the run,
    /// clamped to at most 1.0).
    #[must_use]
    pub fn fraction_sampled(&self) -> f64 {
        fraction(self.total_samples(), self.population())
    }

    /// The effective wall-clock deadline configured on the builder
    /// ([`crate::VizQuery::deadline`] combined with
    /// [`crate::VizQuery::timeout`], whichever ends first), if any — what a
    /// deadline-aware multi-query scheduler prioritizes by.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.core.deadline()
    }

    /// Approximate resident bytes of the session's algorithm state
    /// (estimators, activity flags, scratch arenas) — the figure a
    /// multi-query scheduler charges to this session's memory account.
    /// The storage layer's per-group samplers (row sets, batch scratch)
    /// are deliberately not counted: accounting covers the algorithm
    /// layer, whose footprint is what snapshots and round bookkeeping
    /// actually grow.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }

    /// How the engine's planning caches treated this query's planning
    /// phase (captured once at [`crate::VizQuery::start`]): a warm repeat
    /// of a seen query shows `plan_hits > 0` with zero misses. A
    /// multi-query scheduler copies this into its
    /// [`crate::SessionStats`] at admission, and the serving layer echoes
    /// the engine-wide totals in its stats frame.
    #[must_use]
    pub fn planning_stats(&self) -> PlanCacheStats {
        self.core.planning_stats()
    }

    /// The session's current terminal status: [`StepOutcome::Running`]
    /// while more rounds are needed, otherwise the outcome that ended it.
    #[must_use]
    pub fn outcome(&self) -> StepOutcome {
        self.core.outcome()
    }

    /// Whether the session has terminated (converged or budget-exhausted).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        !self.outcome().is_running()
    }

    /// Consumes the session and returns the best current answer: the final
    /// one after convergence; best-effort with `result.truncated` set
    /// after budget exhaustion; and after mid-run cancellation (stop
    /// stepping, call `finish`) best-effort with the answer's `outcome`
    /// left at [`StepOutcome::Running`] — check
    /// [`QueryAnswer::converged`](crate::QueryAnswer::converged) before
    /// presenting any of these as guaranteed.
    #[must_use]
    pub fn finish(self) -> QueryAnswer {
        self.core.finish()
    }
}

impl Iterator for QuerySession {
    type Item = RoundUpdate;

    /// Yields one [`RoundUpdate`] per round, ending (returns `None`) after
    /// the first terminal update has been delivered. Use
    /// [`Iterator::by_ref`] to keep the session afterwards for `finish()`.
    fn next(&mut self) -> Option<RoundUpdate> {
        if self.delivered_terminal {
            return None;
        }
        // `step` flags the terminal update as delivered, so the iterator
        // fuses right after yielding it.
        Some(self.step())
    }
}

/// A completed (or best-effort) query: the run result plus display helpers.
///
/// Constructed by [`QuerySession::finish`] (and by
/// [`VizQuery::execute`](crate::VizQuery::execute), which drives a
/// session to completion internally); re-exported from [`crate::query`].
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The underlying algorithm result.
    pub result: RunResult,
    /// Total rows eligible across groups.
    pub population: u64,
    /// How the run ended: [`StepOutcome::Converged`] for a natural finish,
    /// [`StepOutcome::BudgetExhausted`] when a round cap or session budget
    /// tripped (estimates are best-effort and `result.truncated` is set),
    /// or [`StepOutcome::Running`] when a session was finished/cancelled
    /// mid-run.
    pub outcome: StepOutcome,
}

impl QueryAnswer {
    /// Whether the run terminated naturally with its full `1 − δ` ordering
    /// guarantee (as opposed to budget exhaustion or cancellation).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.outcome == StepOutcome::Converged
    }
    /// Group labels sorted by ascending estimate.
    #[must_use]
    pub fn ranked_labels(&self) -> Vec<&str> {
        self.result.ranked().into_iter().map(|(l, _)| l).collect()
    }

    /// Fraction of eligible rows sampled.
    #[must_use]
    pub fn fraction_sampled(&self) -> f64 {
        self.result.fraction_sampled(self.population)
    }

    /// Renders the answer as a bar chart (ascending), `width` chars wide.
    #[must_use]
    pub fn to_bar_chart(&self, width: usize) -> String {
        let ranked = self.result.ranked();
        let labels: Vec<&str> = ranked.iter().map(|(l, _)| *l).collect();
        let values: Vec<f64> = ranked.iter().map(|(_, v)| *v).collect();
        viz::bar_chart(&labels, &values, width)
    }
}

#[cfg(test)]
mod tests {
    use super::PlanCacheStats;
    use rapidviz_needletail::Metrics;

    /// A scrape-and-reset between the two planning snapshots must read as
    /// "nothing counted", not underflow.
    #[test]
    fn delta_saturates_across_a_metrics_reset() {
        let metrics = Metrics::new();
        for _ in 0..3 {
            metrics.add_plan_cache_lookup(true);
        }
        let before = metrics.snapshot();
        metrics.reset();
        metrics.add_plan_cache_lookup(true);
        let after = metrics.snapshot();
        assert_eq!(
            PlanCacheStats::delta(&before, &after),
            PlanCacheStats::default()
        );
        assert_eq!(PlanCacheStats::delta(&after, &before).plan_hits, 2);
    }
}
