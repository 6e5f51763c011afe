//! Multi-query scheduling over resumable sessions: the substrate for
//! serving many concurrent dashboard queries from one sampling budget.
//!
//! [`MultiQueryScheduler`] admits any number of [`QuerySession`]s —
//! heterogeneous in aggregate (AVG / SUM / COUNT) and ordering algorithm —
//! and interleaves **one [`QuerySession::step`] per scheduling quantum**
//! under a pluggable [`SchedulePolicy`]. Each step's [`RoundUpdate`] is
//! streamed back tagged with its [`QueryId`], either poll-style
//! ([`MultiQueryScheduler::poll`]) or through a callback
//! ([`MultiQueryScheduler::run`]), so one render loop can progressively
//! draw every chart of a dashboard fan-out.
//!
//! Two resources are managed across sessions:
//!
//! * a **global sample budget**
//!   ([`MultiQueryScheduler::with_global_sample_budget`]) — the multi-query
//!   analogue of a session's own `max_samples`, checked before every
//!   quantum, so the whole workload stops within one round's worth of
//!   draws of the cap. The draws are charged to a [`SampleLedger`], which
//!   several schedulers can share
//!   ([`MultiQueryScheduler::with_sample_ledger`]) to hold one budget
//!   across threads;
//! * **per-session memory accounting** — after every quantum the session's
//!   [`QuerySession::approx_bytes`] is charged to its [`SessionStats`]
//!   (current and peak), and an optional cap
//!   ([`MultiQueryScheduler::with_session_memory_cap`]) evicts sessions
//!   that outgrow it (their best-effort answer stays available).
//!
//! **Determinism invariant.** Every session owns its RNG and draws only
//! when it is stepped, so the interleaving order cannot perturb any
//! session's results: a session's final [`QueryAnswer`] is byte-identical
//! to running it alone with the same seed, under every policy. The
//! regression tests in `tests/scheduler.rs` hold all three policies to
//! exactly that.
//!
//! # Worked example: a deadline-aware two-query dashboard
//!
//! ```
//! use rapidviz::needletail::{read_csv, CsvOptions, NeedleTail};
//! use rapidviz::scheduler::{MultiQueryScheduler, SchedulePolicy, SchedulerEvent};
//! use rapidviz::VizQuery;
//! use rand::SeedableRng;
//! use std::time::{Duration, Instant};
//!
//! let mut csv = String::from("airline,delay\n");
//! for i in 0..600 {
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
//! // An urgent interactive query with a deadline, and a patient
//! // background refinement of the same chart.
//! let urgent = VizQuery::new(&engine)
//!     .group_by("airline")
//!     .avg("delay")
//!     .bound(100.0)
//!     .resolution_pct(2.0)
//!     .deadline(Instant::now() + Duration::from_secs(30))
//!     .start(rand::rngs::StdRng::seed_from_u64(1))
//!     .unwrap();
//! let background = VizQuery::new(&engine)
//!     .group_by("airline")
//!     .avg("delay")
//!     .bound(100.0)
//!     .start(rand::rngs::StdRng::seed_from_u64(2))
//!     .unwrap();
//!
//! let mut sched = MultiQueryScheduler::new(SchedulePolicy::DeadlineAware);
//! let urgent_id = sched.admit(urgent);
//! let _background_id = sched.admit(background);
//!
//! // Earliest deadline first: the urgent session gets every quantum until
//! // it terminates — here it converges early thanks to its resolution —
//! // and only then does the background session proceed.
//! let mut first_done = None;
//! sched.run(|event| {
//!     if let SchedulerEvent::Round { id, update } = event {
//!         if !update.outcome.is_running() && first_done.is_none() {
//!             first_done = Some(*id);
//!         }
//!     }
//! });
//! assert_eq!(first_done, Some(urgent_id));
//! for (_id, answer) in sched.finish_all() {
//!     assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
//! }
//! ```

use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::query::QueryAnswer;
use crate::session::{PlanCacheStats, QuerySession, RoundUpdate};
use rapidviz_core::clock::{Clock, SystemClock};
use rapidviz_core::{Snapshot, StepOutcome};
use rapidviz_needletail::NeedleTail;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The draws charged against a global sample budget: an optional cap plus
/// an atomic count of charged samples.
///
/// A [`MultiQueryScheduler`] charges a session's bootstrap draws when it
/// admits it and each quantum's new draws after the quantum; finishing or
/// parking a session refunds nothing, and [`MultiQueryScheduler::unpark`]
/// refunds the resumed session's earlier draws just before re-admission
/// charges them again, so a park/resume cycle is charged once. Schedulers
/// on different threads that share one ledger
/// ([`MultiQueryScheduler::with_sample_ledger`]) share one budget, and a
/// ledger that outlives a scheduler keeps its draws charged for the next
/// one. Each scheduler checks the cap before each of its quanta, so N
/// schedulers sharing a ledger overshoot it by at most one round each.
#[derive(Debug, Default)]
pub struct SampleLedger {
    cap: Option<u64>,
    charged: AtomicU64,
}

impl SampleLedger {
    /// A ledger with the given cap (`None`: count draws, stop nothing).
    ///
    /// # Panics
    ///
    /// Panics if `cap == Some(0)`.
    #[must_use]
    pub fn new(cap: Option<u64>) -> Self {
        assert!(cap != Some(0), "global sample budget must be positive");
        Self {
            cap,
            charged: AtomicU64::new(0),
        }
    }

    /// Samples charged so far.
    fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    fn charge(&self, samples: u64) {
        self.charged.fetch_add(samples, Ordering::Relaxed);
    }

    /// Takes back `samples`, saturating at zero: a ledger that never saw
    /// the session (a fresh process) conservatively re-charges its
    /// history.
    fn refund(&self, samples: u64) {
        let _ = self
            .charged
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(samples))
            });
    }
}

/// Identifies one admitted session within a scheduler (assigned in
/// admission order, unique for the scheduler's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Which session the scheduler picks each quantum.
///
/// All three policies are deterministic (ties break toward the earliest
/// admission), and none can change any session's *results* — only its
/// latency relative to its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Weighted round-robin: each runnable session earns credit
    /// proportional to its count of still-active (uncertified) groups and
    /// the highest credit runs. Sessions with more unresolved bars get
    /// proportionally more quanta — the multi-query echo of IFOCUS
    /// spending its samples on the contentious groups.
    #[default]
    FairShare,
    /// Earliest-deadline-first over each session's configured wall-clock
    /// deadline ([`crate::VizQuery::deadline`] /
    /// [`crate::VizQuery::timeout`]). Sessions without a deadline run only
    /// when no deadline-bearing session is runnable.
    DeadlineAware,
    /// Prefer the session closest to certifying its next group: the one
    /// whose best-positioned active interval needs the least further
    /// shrinkage to separate from its neighbours. Drains sessions to
    /// completion roughly shortest-remaining-work-first, maximizing the
    /// rate of finished bars on the dashboard.
    GreedyConvergence,
}

/// What one [`MultiQueryScheduler::poll`] call produced.
#[derive(Debug)]
pub enum SchedulerEvent {
    /// A session advanced one round; `update` is its tagged
    /// [`RoundUpdate`] (the same struct a standalone session yields).
    Round {
        /// The session that was stepped.
        id: QueryId,
        /// Its round update, including the full snapshot.
        update: RoundUpdate,
    },
    /// A session's algorithm state outgrew the per-session memory cap and
    /// the session was evicted: its over-cap state was released on the
    /// spot (the session is finished immediately) and it will not be
    /// scheduled again, but its best-effort answer remains available via
    /// [`MultiQueryScheduler::finish`] / [`MultiQueryScheduler::finish_all`].
    MemoryEvicted {
        /// The evicted session.
        id: QueryId,
        /// Its resident-byte estimate at eviction time.
        bytes: usize,
    },
    /// The global sample budget is spent (checked before every quantum, so
    /// overshoot is bounded by one round's draws) while sessions that
    /// still want quanta remain. Returned on **every** poll in that state
    /// — including for sessions admitted after exhaustion — so a caller is
    /// always told why its work is not running; remaining answers are
    /// best-effort.
    GlobalBudgetExhausted {
        /// Lifetime samples drawn across all sessions (finished-out
        /// sessions included) at the stop.
        total_samples: u64,
    },
    /// Nothing runnable remains: every admitted session is terminal or
    /// evicted, or the scheduler is empty.
    Drained,
}

/// Why [`MultiQueryScheduler::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every session reached a terminal outcome (or was evicted).
    Drained,
    /// The global sample budget tripped first.
    GlobalBudgetExhausted,
}

/// Per-session bookkeeping the scheduler maintains across quanta.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Scheduling quanta this session has received.
    pub steps: u64,
    /// Samples the session has drawn so far (bootstrap included).
    pub total_samples: u64,
    /// Resident-byte estimate of the session's algorithm state after its
    /// last quantum ([`QuerySession::approx_bytes`]).
    pub approx_bytes: usize,
    /// High-water mark of `approx_bytes` over the session's lifetime
    /// (`approx_bytes` itself drops to 0 at eviction — the state is
    /// released, only the answer is retained).
    pub peak_bytes: usize,
    /// The session's current terminal status ([`StepOutcome::Running`]
    /// while it still wants quanta).
    pub outcome: StepOutcome,
    /// Whether the per-session memory cap evicted it.
    pub evicted: bool,
    /// How the engine's planning caches treated this query's planning
    /// phase (captured at admission from
    /// [`QuerySession::planning_stats`]): a warm repeat plans with
    /// `plan_hits > 0` and zero misses, a cold plan shows the misses. The
    /// signal a serving layer watches to tell cache-friendly workloads
    /// from filter-diverse ones that pay cold-plan cost per request.
    pub planning: PlanCacheStats,
    /// Size of the session's most recent [`SessionCheckpoint`]
    /// ([`SessionCheckpoint::approx_bytes`], updated by
    /// [`MultiQueryScheduler::checkpoint`]); 0 until the first checkpoint
    /// is taken.
    pub checkpoint_bytes: usize,
}

/// One admitted session plus its scheduling state.
///
/// Invariant: exactly one of `session` / `answer` is `Some` — the session
/// until eviction releases its state, the parked answer afterwards.
struct Slot {
    id: QueryId,
    session: Option<QuerySession>,
    /// Best-effort answer parked at eviction time (the session's
    /// algorithm state is dropped then, so an over-cap session stops
    /// costing memory the moment it is evicted).
    answer: Option<QueryAnswer>,
    /// Effective deadline captured at admission (for EDF).
    deadline: Option<Instant>,
    /// Fair-share credit (smooth weighted round-robin).
    credit: i64,
    /// Active-group count after the last quantum (the fair-share weight).
    active_count: usize,
    /// Whether the slot still wants quanta — maintained incrementally at
    /// admission, after each step, and at eviction, so the per-quantum
    /// selection loops read a flag instead of re-deriving it from the
    /// session (`runnable ⇔ session.is_some() && !session.is_finished()`).
    runnable: bool,
    /// Greedy-convergence score: how much interval overlap still blocks
    /// the session's best-positioned active group (0 = certifies next).
    /// Maintained only under [`SchedulePolicy::GreedyConvergence`].
    proximity: f64,
    stats: SessionStats,
}

impl Slot {
    fn runnable(&self) -> bool {
        debug_assert_eq!(
            self.runnable,
            self.session.as_ref().is_some_and(|s| !s.is_finished()),
            "incrementally maintained runnable flag out of sync"
        );
        self.runnable
    }

    /// Fair-share weight: remaining active groups (floor 1, so a session
    /// between certifications still progresses).
    fn weight(&self) -> i64 {
        self.active_count.max(1) as i64
    }

    /// The slot's best current answer, consuming it. `None` only if the
    /// slot invariant (exactly one of `session` / `answer` is set) has
    /// been breached — callers degrade gracefully rather than abort a
    /// whole serving process over one broken slot.
    fn into_answer(self) -> Option<QueryAnswer> {
        match self.session {
            Some(session) => Some(session.finish()),
            None => {
                debug_assert!(
                    self.answer.is_some(),
                    "slot invariant breached: evicted slots park their answer"
                );
                self.answer
            }
        }
    }
}

/// Interleaves N resumable [`QuerySession`]s, one round per quantum, under
/// a [`SchedulePolicy`]; see the [module docs](self) for the full contract
/// and a worked example.
pub struct MultiQueryScheduler {
    policy: SchedulePolicy,
    slots: Vec<Slot>,
    next_id: u64,
    /// Every draw of every session this scheduler has held, finished-out
    /// ones included (removing a session refunds nothing), and the global
    /// budget's cap.
    ledger: Arc<SampleLedger>,
    max_session_bytes: Option<usize>,
    global_exhausted: bool,
    /// Sum of [`Slot::weight`] over runnable slots, maintained
    /// incrementally (admission, per-step weight delta, eviction,
    /// removal) so the fair-share selection does not recompute it with an
    /// extra full pass every quantum.
    runnable_weight: i64,
    /// Events produced as side effects of a quantum (evictions), delivered
    /// before the next quantum runs.
    pending: VecDeque<SchedulerEvent>,
}

impl std::fmt::Debug for MultiQueryScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueryScheduler")
            .field("policy", &self.policy)
            .field("sessions", &self.slots.len())
            .field("global_sample_budget", &self.ledger.cap)
            .field("max_session_bytes", &self.max_session_bytes)
            .field("global_exhausted", &self.global_exhausted)
            .finish_non_exhaustive()
    }
}

impl MultiQueryScheduler {
    /// Creates an empty scheduler with the given policy and no global
    /// budget or memory cap.
    #[must_use]
    pub fn new(policy: SchedulePolicy) -> Self {
        Self {
            policy,
            slots: Vec::new(),
            next_id: 0,
            ledger: Arc::default(),
            max_session_bytes: None,
            global_exhausted: false,
            runnable_weight: 0,
            pending: VecDeque::new(),
        }
    }

    /// Caps the total samples drawn **across all sessions over the
    /// scheduler's lifetime** (finishing a session out does not refund its
    /// draws). Checked before every quantum, so the workload stops within
    /// one round's draws of the cap; sessions already admitted keep their
    /// best-effort answers. The budget is a private [`SampleLedger`]; to
    /// share one budget between schedulers, use
    /// [`MultiQueryScheduler::with_sample_ledger`].
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn with_global_sample_budget(self, cap: u64) -> Self {
        self.with_sample_ledger(Arc::new(SampleLedger::new(Some(cap))))
    }

    /// Charges every draw to `ledger` and stops at its cap, if it has one.
    /// Schedulers sharing a ledger share its budget: each stops once the
    /// draws of all of them reach the cap. Call it before admitting: draws
    /// charged to the previous ledger stay there.
    #[must_use]
    pub fn with_sample_ledger(mut self, ledger: Arc<SampleLedger>) -> Self {
        self.ledger = ledger;
        self
    }

    /// Caps each session's resident algorithm-state bytes
    /// ([`QuerySession::approx_bytes`], checked after every quantum).
    /// Sessions exceeding the cap are evicted: their state is released on
    /// the spot (only the small best-effort answer is parked), they are
    /// never scheduled again, and the eviction is reported as
    /// [`SchedulerEvent::MemoryEvicted`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    #[must_use]
    pub fn with_session_memory_cap(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "session memory cap must be positive");
        self.max_session_bytes = Some(bytes);
        self
    }

    /// The scheduling policy.
    #[must_use]
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Admits a session and returns its tag. The session's effective
    /// deadline (if configured on the builder) is captured here for the
    /// [`SchedulePolicy::DeadlineAware`] ordering.
    pub fn admit(&mut self, session: QuerySession) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let snapshot = session.snapshot();
        let bytes = session.approx_bytes();
        let stats = SessionStats {
            steps: 0,
            total_samples: session.total_samples(),
            approx_bytes: bytes,
            peak_bytes: bytes,
            outcome: session.outcome(),
            evicted: false,
            planning: session.planning_stats(),
            checkpoint_bytes: 0,
        };
        self.ledger.charge(stats.total_samples);
        let runnable = !session.is_finished();
        let slot = Slot {
            id,
            deadline: session.deadline(),
            credit: 0,
            active_count: snapshot.active_count(),
            runnable,
            // Only the greedy policy reads the score; skip the O(k²)
            // overlap sweep otherwise.
            proximity: if self.policy == SchedulePolicy::GreedyConvergence {
                convergence_proximity(&snapshot)
            } else {
                0.0
            },
            stats,
            session: Some(session),
            answer: None,
        };
        if runnable {
            self.runnable_weight += slot.weight();
        }
        self.slots.push(slot);
        id
    }

    /// Number of sessions currently held (terminal ones included until
    /// they are finished out).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the scheduler holds no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The held sessions' ids, in admission order.
    #[must_use]
    pub fn ids(&self) -> Vec<QueryId> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// Per-session bookkeeping (quanta, samples, memory, outcome).
    #[must_use]
    pub fn stats(&self, id: QueryId) -> Option<&SessionStats> {
        self.slots.iter().find(|s| s.id == id).map(|s| &s.stats)
    }

    /// Total samples drawn over the scheduler's lifetime: all held
    /// sessions plus sessions already finished out, plus the draws of any
    /// other scheduler sharing its [`SampleLedger`]. This is the figure the
    /// global sample budget is checked against.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.ledger.charged()
    }

    /// Whether the global sample budget has tripped.
    #[must_use]
    pub fn global_budget_exhausted(&self) -> bool {
        self.global_exhausted
    }

    /// Number of sessions that still want quanta. A serving loop uses this
    /// to decide between polling for the next event and parking until a
    /// new query arrives.
    #[must_use]
    pub fn runnable_count(&self) -> usize {
        self.slots.iter().filter(|s| s.runnable).count()
    }

    /// Runs one scheduling quantum: pick a runnable session under the
    /// policy, step it once, and return the tagged event. Pending
    /// side-effect events (evictions) are delivered first. With the global
    /// budget spent this keeps answering
    /// [`SchedulerEvent::GlobalBudgetExhausted`] while runnable sessions
    /// remain (even ones admitted after exhaustion — they will not run);
    /// with nothing runnable it returns [`SchedulerEvent::Drained`] (and
    /// keeps returning it — the scheduler stays pollable).
    pub fn poll(&mut self) -> SchedulerEvent {
        if let Some(event) = self.pending.pop_front() {
            return event;
        }
        if let Some(cap) = self.ledger.cap {
            let total = self.ledger.charged();
            if total >= cap {
                self.global_exhausted = true;
                return if self.slots.iter().any(Slot::runnable) {
                    SchedulerEvent::GlobalBudgetExhausted {
                        total_samples: total,
                    }
                } else {
                    SchedulerEvent::Drained
                };
            }
        }
        let Some(chosen) = self.select() else {
            return SchedulerEvent::Drained;
        };
        let slot = &mut self.slots[chosen];
        // The stepped slot was runnable; its weight re-enters the pool
        // below only if it still is (with its post-step active count).
        self.runnable_weight -= slot.weight();
        let Some(session) = slot.session.as_mut() else {
            // Internal-invariant breach: a selected slot must hold a live
            // session. Retire the slot instead of aborting the process,
            // and pick again — every retry retires another broken slot,
            // so this terminates.
            debug_assert!(false, "selected slot {} has no live session", slot.id);
            slot.runnable = false;
            slot.stats.outcome = StepOutcome::BudgetExhausted;
            return self.poll();
        };
        let update = session.step();
        let drawn = session.total_samples();
        self.ledger
            .charge(drawn.saturating_sub(slot.stats.total_samples));
        slot.stats.steps += 1;
        slot.stats.total_samples = drawn;
        slot.stats.outcome = update.outcome;
        let bytes = session.approx_bytes();
        let terminal = session.is_finished();
        slot.stats.approx_bytes = bytes;
        slot.stats.peak_bytes = slot.stats.peak_bytes.max(bytes);
        slot.active_count = update.snapshot.active_count();
        slot.runnable = !terminal;
        if slot.runnable {
            self.runnable_weight += slot.weight();
        }
        if self.policy == SchedulePolicy::GreedyConvergence {
            // Only the greedy policy reads the score; skip the O(k²)
            // overlap sweep under the other policies.
            slot.proximity = convergence_proximity(&update.snapshot);
        }
        if let Some(cap) = self.max_session_bytes {
            if bytes > cap && !terminal {
                // Release the over-cap state immediately: finish the
                // session now and park only its (small) answer, so an
                // evicted session stops costing memory at once.
                self.runnable_weight -= slot.weight();
                slot.runnable = false;
                if let Some(finished) = slot.session.take() {
                    slot.answer = Some(finished.finish());
                } else {
                    // Unreachable unless the slot invariant broke above;
                    // the eviction bookkeeping still completes so the
                    // scheduler stays consistent.
                    debug_assert!(false, "evicting slot {} with no live session", slot.id);
                }
                slot.stats.evicted = true;
                slot.stats.approx_bytes = 0;
                self.pending
                    .push_back(SchedulerEvent::MemoryEvicted { id: slot.id, bytes });
            }
        }
        SchedulerEvent::Round {
            id: slot.id,
            update,
        }
    }

    /// Drives the scheduler to a stop, handing every
    /// [`SchedulerEvent::Round`] / [`SchedulerEvent::MemoryEvicted`] to the
    /// callback, and reports why it stopped. After
    /// [`RunOutcome::Drained`], admit more sessions and call `run` again
    /// to continue; after [`RunOutcome::GlobalBudgetExhausted`] the budget
    /// is spent for the scheduler's lifetime and further `run` calls
    /// return immediately without scheduling anything.
    pub fn run(&mut self, mut on_event: impl FnMut(&SchedulerEvent)) -> RunOutcome {
        loop {
            let event = self.poll();
            match &event {
                SchedulerEvent::Round { .. } | SchedulerEvent::MemoryEvicted { .. } => {
                    on_event(&event);
                }
                SchedulerEvent::GlobalBudgetExhausted { .. } => {
                    return RunOutcome::GlobalBudgetExhausted;
                }
                SchedulerEvent::Drained => return RunOutcome::Drained,
            }
        }
    }

    /// Removes one session and returns its best current [`QueryAnswer`]
    /// (final if it terminated, best-effort otherwise — exactly
    /// [`QuerySession::finish`] semantics). Its draws stay charged to the
    /// global sample budget.
    ///
    /// Any not-yet-delivered [`SchedulerEvent::MemoryEvicted`] notice for
    /// the removed session is dropped: the caller just disposed of the
    /// session and holds its answer, so a later event naming an id it no
    /// longer tracks would only mislead.
    pub fn finish(&mut self, id: QueryId) -> Option<QueryAnswer> {
        let idx = self.slots.iter().position(|s| s.id == id)?;
        let slot = self.slots.remove(idx);
        if slot.runnable {
            self.runnable_weight -= slot.weight();
        }
        self.pending
            .retain(|e| !matches!(e, SchedulerEvent::MemoryEvicted { id: eid, .. } if *eid == id));
        slot.into_answer()
    }

    /// Parks a live session: checkpoints it into `registry` and removes it
    /// from the scheduler, returning the resume token. The session's draws
    /// stay charged to the global sample budget (parking is not a refund),
    /// and any pending eviction notice for it is dropped, exactly as in
    /// [`MultiQueryScheduler::finish`].
    ///
    /// This is what a serving layer calls on client disconnect instead of
    /// cancelling: the checkpoint outlives the connection (bounded by the
    /// registry's TTL and byte cap) and a reconnecting client resumes it
    /// with [`MultiQueryScheduler::unpark`].
    ///
    /// # Errors
    ///
    /// On any error the scheduler is left untouched — the session keeps
    /// running and the caller may fall back to cancelling it via
    /// [`MultiQueryScheduler::finish`]:
    ///
    /// * [`ParkError::NoSuchSession`] — `id` is unknown, already finished
    ///   out, or was memory-evicted (its algorithm state is gone; only the
    ///   best-effort answer remains).
    /// * [`ParkError::Checkpoint`] — the session cannot checkpoint (e.g.
    ///   it was started with a caller-supplied opaque RNG whose state
    ///   cannot be captured).
    /// * [`ParkError::OverCapacity`] — the registry's byte cap is full.
    pub fn park(&mut self, id: QueryId, registry: &mut ParkingRegistry) -> Result<u64, ParkError> {
        self.park_inner(id, registry, None)
    }

    /// [`MultiQueryScheduler::park`] under a token the caller reserved
    /// earlier with [`ParkingRegistry::reserve`] — the serving pattern
    /// where the token is announced to the client at admission (so it
    /// survives even a hard server crash) and the checkpoint lands under
    /// it at disconnect. Upserts: a checkpoint already parked under the
    /// token (a periodic refresh) is replaced.
    ///
    /// # Errors
    ///
    /// Exactly as [`MultiQueryScheduler::park`].
    pub fn park_reserved(
        &mut self,
        id: QueryId,
        registry: &mut ParkingRegistry,
        token: u64,
    ) -> Result<u64, ParkError> {
        self.park_inner(id, registry, Some(token))
    }

    fn park_inner(
        &mut self,
        id: QueryId,
        registry: &mut ParkingRegistry,
        token: Option<u64>,
    ) -> Result<u64, ParkError> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.id == id)
            .ok_or(ParkError::NoSuchSession)?;
        let checkpoint = match self.slots[idx].session.as_ref() {
            Some(session) => session.checkpoint().map_err(ParkError::Checkpoint)?,
            // Evicted slots already released their algorithm state; there
            // is nothing left to park.
            None => return Err(ParkError::NoSuchSession),
        };
        let token = match token {
            Some(t) => registry.park_reserved(t, checkpoint)?,
            None => registry.park(checkpoint)?,
        };
        let slot = self.slots.remove(idx);
        if slot.runnable {
            self.runnable_weight -= slot.weight();
        }
        self.pending
            .retain(|e| !matches!(e, SchedulerEvent::MemoryEvicted { id: eid, .. } if *eid == id));
        Ok(token)
    }

    /// Checkpoints a live session **without** removing it — the periodic
    /// durability refresh a crash-recovering server takes after each
    /// round (paired with [`ParkingRegistry::park_reserved`], so the
    /// registry always holds each session's latest resumable state). Also
    /// records the checkpoint size in [`SessionStats::checkpoint_bytes`].
    ///
    /// # Errors
    ///
    /// [`ParkError::NoSuchSession`] for unknown / finished / evicted ids;
    /// [`ParkError::Checkpoint`] if the session cannot checkpoint.
    pub fn checkpoint(&mut self, id: QueryId) -> Result<SessionCheckpoint, ParkError> {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or(ParkError::NoSuchSession)?;
        let session = slot.session.as_ref().ok_or(ParkError::NoSuchSession)?;
        let checkpoint = session.checkpoint().map_err(ParkError::Checkpoint)?;
        slot.stats.checkpoint_bytes = checkpoint.approx_bytes();
        Ok(checkpoint)
    }

    /// Resumes a parked session from `registry` and re-admits it under a
    /// fresh [`QueryId`]. The resumed round stream is bit-identical to the
    /// uninterrupted session's (the checkpoint/resume contract of
    /// [`QuerySession::checkpoint`]); its wall-clock budget restarts from
    /// the remaining time captured at park.
    ///
    /// Samples the session drew before parking stay charged to the
    /// [`SampleLedger`]; they are refunded here, just before re-admission
    /// charges them again, so they count once — whichever scheduler
    /// sharing the ledger parked the session. On a ledger that never saw
    /// the session (a fresh process) the refund saturates at zero and the
    /// historical draws are conservatively re-charged.
    ///
    /// # Errors
    ///
    /// * [`ParkError::NoSuchToken`] — the token is unknown, already
    ///   resumed, or TTL-expired. The client must re-issue the query.
    /// * [`ParkError::Checkpoint`] — the checkpoint does not fit `engine`
    ///   (e.g. group count drift after a data reload). The checkpoint
    ///   stays parked so the error is observable/retryable until the TTL
    ///   reaps it.
    pub fn unpark(
        &mut self,
        registry: &mut ParkingRegistry,
        token: u64,
        engine: &NeedleTail,
    ) -> Result<QueryId, ParkError> {
        let checkpoint = registry.get(token)?.clone();
        let session = QuerySession::resume_with_clock(engine, &checkpoint, registry.clock())
            .map_err(ParkError::Checkpoint)?;
        let _ = registry.take(token);
        self.ledger.refund(session.total_samples());
        Ok(self.admit(session))
    }

    /// Consumes the scheduler, finishing every session in admission order.
    #[must_use]
    pub fn finish_all(self) -> Vec<(QueryId, QueryAnswer)> {
        self.slots
            .into_iter()
            .filter_map(|slot| Some((slot.id, slot.into_answer()?)))
            .collect()
    }

    /// Switches the scheduling policy mid-stream. Takes effect from the
    /// next quantum; already-earned fair-share credit is kept (it only
    /// matters if the policy switches back). Switching can never perturb
    /// any session's *results* — only which session runs next — so the
    /// per-session determinism guarantee survives arbitrary switches.
    ///
    /// Switching **to** [`SchedulePolicy::GreedyConvergence`] recomputes
    /// every runnable session's convergence-proximity score on the spot
    /// (the other policies skip that bookkeeping per quantum, so the
    /// scores would otherwise be stale).
    pub fn set_policy(&mut self, policy: SchedulePolicy) {
        if policy == self.policy {
            return;
        }
        let was_greedy = self.policy == SchedulePolicy::GreedyConvergence;
        self.policy = policy;
        if policy == SchedulePolicy::GreedyConvergence && !was_greedy {
            for slot in &mut self.slots {
                if let (true, Some(session)) = (slot.runnable, slot.session.as_ref()) {
                    slot.proximity = convergence_proximity(&session.snapshot());
                }
            }
        }
    }

    /// Picks the next session to step, or `None` when nothing is runnable.
    fn select(&mut self) -> Option<usize> {
        match self.policy {
            SchedulePolicy::FairShare => self.select_fair_share(),
            SchedulePolicy::DeadlineAware => self.select_deadline(),
            SchedulePolicy::GreedyConvergence => self.select_greedy(),
        }
    }

    /// Smooth weighted round-robin (the classic nginx scheme): every
    /// runnable session earns `weight` credit per quantum, the highest
    /// credit runs and pays back the total weight. Over any window with
    /// stable weights each session receives quanta in exact proportion to
    /// its active-group count; ties break toward earliest admission.
    ///
    /// The total runnable weight is **not** recomputed here: it is
    /// maintained incrementally (`runnable_weight`) at admission, after
    /// every step's active-count change, and at eviction/removal, so each
    /// quantum pays one credit-bump-and-argmax pass over cached
    /// `runnable` flags instead of two passes re-deriving weights and
    /// session state.
    fn select_fair_share(&mut self) -> Option<usize> {
        let total = self.runnable_weight;
        debug_assert_eq!(
            total,
            self.slots
                .iter()
                .filter(|s| s.runnable())
                .map(Slot::weight)
                .sum::<i64>(),
            "incrementally maintained runnable weight out of sync"
        );
        if total == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for idx in 0..self.slots.len() {
            if !self.slots[idx].runnable {
                continue;
            }
            self.slots[idx].credit += self.slots[idx].weight();
            match best {
                None => best = Some(idx),
                Some(b) if self.slots[idx].credit > self.slots[b].credit => best = Some(idx),
                Some(_) => {}
            }
        }
        let chosen = best?;
        self.slots[chosen].credit -= total;
        Some(chosen)
    }

    /// Earliest deadline first; deadline-less sessions run only when no
    /// deadline-bearing session is runnable. Ties break toward earliest
    /// admission (`Vec` order).
    fn select_deadline(&mut self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.runnable())
            .min_by_key(|(_, s)| (s.deadline.is_none(), s.deadline))
            .map(|(idx, _)| idx)
    }

    /// Smallest convergence-proximity score first (then fewest active
    /// groups, then admission order).
    fn select_greedy(&mut self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.runnable())
            .min_by(|(_, a), (_, b)| {
                a.proximity
                    .total_cmp(&b.proximity)
                    .then(a.active_count.cmp(&b.active_count))
            })
            .map(|(idx, _)| idx)
    }
}

/// Why a park or unpark operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParkError {
    /// The scheduler holds no live session under this id (unknown,
    /// finished out, or memory-evicted).
    NoSuchSession,
    /// The registry holds no checkpoint under this token (never issued,
    /// already resumed, or TTL-expired).
    NoSuchToken,
    /// Parking the checkpoint would push the registry past its byte cap.
    OverCapacity {
        /// Bytes the rejected checkpoint would have added.
        needed: usize,
        /// The registry's configured cap.
        cap: usize,
    },
    /// The session could not be checkpointed, or the checkpoint could not
    /// be resumed against the serving engine.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ParkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchSession => write!(f, "no live session under that id"),
            Self::NoSuchToken => write!(f, "no parked session under that token"),
            Self::OverCapacity { needed, cap } => write!(
                f,
                "parking registry over capacity: checkpoint needs {needed} bytes, cap is {cap}"
            ),
            Self::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ParkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Observability counters for a [`ParkingRegistry`] — the parked-session
/// analogue of [`PlanCacheStats`], folded by a serving layer into its
/// metrics / `STATS` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkingStats {
    /// Sessions currently parked.
    pub parked: u64,
    /// Checkpoint bytes currently held (the structural estimate charged
    /// against the registry's byte cap).
    pub parked_bytes: u64,
    /// Lifetime sessions parked successfully.
    pub parked_total: u64,
    /// Lifetime checkpoints handed back out for resumption.
    pub resumed_total: u64,
    /// Lifetime checkpoints dropped by the TTL sweep.
    pub expired_total: u64,
    /// Lifetime park attempts rejected by the byte cap.
    pub rejected_total: u64,
}

/// One parked checkpoint plus its accounting.
#[derive(Debug)]
struct ParkedEntry {
    checkpoint: SessionCheckpoint,
    /// Byte charge ([`SessionCheckpoint::approx_bytes`] at park time).
    bytes: usize,
    /// Registry-clock instant the entry was parked at (TTL anchor).
    parked_at: Instant,
}

/// TTL-bounded, byte-capped store of parked session checkpoints, keyed by
/// resume token.
///
/// A serving layer parks a disconnecting client's session here
/// ([`MultiQueryScheduler::park`]) instead of cancelling it, hands the
/// token to the client, and resumes on reconnect
/// ([`MultiQueryScheduler::unpark`]). Two bounds keep an abandoned-client
/// workload from pinning memory forever:
///
/// * **TTL** — entries older than the configured time-to-live (measured
///   against the registry's [`Clock`], so simulated time works) are reaped
///   by an internal sweep that runs before every operation; a checkpoint
///   parked for exactly the TTL is already expired.
/// * **Byte cap** ([`ParkingRegistry::with_byte_cap`]) — each entry is
///   charged its [`SessionCheckpoint::approx_bytes`]; a park that would
///   exceed the cap is rejected ([`ParkError::OverCapacity`]) and counted,
///   extending the scheduler's session-memory-cap philosophy to parked
///   state.
///
/// Tokens are issued from a deterministic counter starting at 1 (so `0`
/// can serve as a wire-level "no token" sentinel) and are unique for the
/// registry's lifetime.
pub struct ParkingRegistry {
    ttl: Duration,
    max_bytes: Option<usize>,
    clock: Arc<dyn Clock>,
    parked: BTreeMap<u64, ParkedEntry>,
    next_token: u64,
    bytes: usize,
    parked_total: u64,
    resumed_total: u64,
    expired_total: u64,
    rejected_total: u64,
}

impl std::fmt::Debug for ParkingRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkingRegistry")
            .field("ttl", &self.ttl)
            .field("max_bytes", &self.max_bytes)
            .field("parked", &self.parked.len())
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl ParkingRegistry {
    /// Creates a registry with the given TTL, no byte cap, and the system
    /// clock.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero (every entry would expire before it could
    /// be resumed).
    #[must_use]
    pub fn new(ttl: Duration) -> Self {
        Self::with_clock(ttl, Arc::new(SystemClock))
    }

    /// Creates a registry reading time from `clock` — the hook simulation
    /// harnesses use to drive TTL expiry deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    #[must_use]
    pub fn with_clock(ttl: Duration, clock: Arc<dyn Clock>) -> Self {
        assert!(ttl > Duration::ZERO, "parking TTL must be positive");
        Self {
            ttl,
            max_bytes: None,
            clock,
            parked: BTreeMap::new(),
            next_token: 1,
            bytes: 0,
            parked_total: 0,
            resumed_total: 0,
            expired_total: 0,
            rejected_total: 0,
        }
    }

    /// Caps total checkpoint bytes held at once; parks that would exceed
    /// it are rejected with [`ParkError::OverCapacity`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    #[must_use]
    pub fn with_byte_cap(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "parking byte cap must be positive");
        self.max_bytes = Some(bytes);
        self
    }

    /// The clock TTLs are measured against (resumed sessions re-anchor
    /// their remaining wall-clock budget on it too).
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// The configured time-to-live.
    #[must_use]
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Reserves the next token without parking anything under it yet — a
    /// serving layer hands the token to the client at admission so it
    /// survives a hard crash, and parks under it later with
    /// [`ParkingRegistry::park_reserved`]. Tokens never repeat, reserved
    /// or not.
    pub fn reserve(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Parks a checkpoint under a fresh token and returns it.
    ///
    /// # Errors
    ///
    /// [`ParkError::OverCapacity`] if the byte cap would be exceeded (the
    /// rejection is counted in [`ParkingStats::rejected_total`]).
    pub fn park(&mut self, checkpoint: SessionCheckpoint) -> Result<u64, ParkError> {
        let token = self.reserve();
        self.park_reserved(token, checkpoint)
    }

    /// Parks (or refreshes) a checkpoint under a token obtained from
    /// [`ParkingRegistry::reserve`]. An entry already held under the token
    /// is replaced — this is how a server keeps each live session's latest
    /// resumable state in the registry, one upsert per round — and its TTL
    /// clock restarts. Replacement only counts toward
    /// [`ParkingStats::parked_total`] when the token was previously empty.
    ///
    /// # Errors
    ///
    /// [`ParkError::OverCapacity`] if the byte cap would be exceeded net
    /// of the entry being replaced.
    pub fn park_reserved(
        &mut self,
        token: u64,
        checkpoint: SessionCheckpoint,
    ) -> Result<u64, ParkError> {
        self.sweep();
        let needed = checkpoint.approx_bytes();
        let replaced = self.parked.get(&token).map_or(0, |e| e.bytes);
        if let Some(cap) = self.max_bytes {
            if (self.bytes - replaced).saturating_add(needed) > cap {
                self.rejected_total += 1;
                return Err(ParkError::OverCapacity { needed, cap });
            }
        }
        let parked_at = self.clock.now();
        let old = self.parked.insert(
            token,
            ParkedEntry {
                checkpoint,
                bytes: needed,
                parked_at,
            },
        );
        match old {
            Some(entry) => self.bytes -= entry.bytes,
            None => self.parked_total += 1,
        }
        self.bytes += needed;
        Ok(token)
    }

    /// Drops a parked checkpoint without counting it resumed or expired —
    /// what a server calls when a session completes normally and its
    /// durability shadow is no longer resumable. Returns whether an entry
    /// was held.
    pub fn discard(&mut self, token: u64) -> bool {
        match self.parked.remove(&token) {
            Some(entry) => {
                self.bytes -= entry.bytes;
                true
            }
            None => false,
        }
    }

    /// Borrows a parked checkpoint without consuming it (sweeps expired
    /// entries first). Use [`ParkingRegistry::take`] once the resume has
    /// actually succeeded, so a failed resume leaves the checkpoint
    /// observable until the TTL reaps it.
    ///
    /// # Errors
    ///
    /// [`ParkError::NoSuchToken`] if the token is unknown, already
    /// resumed, or expired.
    pub fn get(&mut self, token: u64) -> Result<&SessionCheckpoint, ParkError> {
        self.sweep();
        self.parked
            .get(&token)
            .map(|e| &e.checkpoint)
            .ok_or(ParkError::NoSuchToken)
    }

    /// Removes and returns a parked checkpoint, counting it as resumed.
    ///
    /// # Errors
    ///
    /// [`ParkError::NoSuchToken`] if the token is unknown, already
    /// resumed, or expired.
    pub fn take(&mut self, token: u64) -> Result<SessionCheckpoint, ParkError> {
        self.sweep();
        let entry = self.parked.remove(&token).ok_or(ParkError::NoSuchToken)?;
        self.bytes -= entry.bytes;
        self.resumed_total += 1;
        Ok(entry.checkpoint)
    }

    /// Drops every entry whose age has reached the TTL. Runs implicitly
    /// before every `park` / `get` / `take`; callers with long idle spans
    /// may also invoke it directly to release memory promptly.
    pub fn sweep(&mut self) {
        let now = self.clock.now();
        let (ttl, bytes, expired) = (self.ttl, &mut self.bytes, &mut self.expired_total);
        self.parked.retain(|_, e| {
            let live = now.saturating_duration_since(e.parked_at) < ttl;
            if !live {
                *bytes -= e.bytes;
                *expired += 1;
            }
            live
        });
    }

    /// Sessions currently parked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// Whether no sessions are parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Checkpoint bytes currently held (the figure the byte cap governs).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Current counters snapshot.
    #[must_use]
    pub fn stats(&self) -> ParkingStats {
        ParkingStats {
            parked: self.parked.len() as u64,
            parked_bytes: self.bytes as u64,
            parked_total: self.parked_total,
            resumed_total: self.resumed_total,
            expired_total: self.expired_total,
            rejected_total: self.rejected_total,
        }
    }
}

/// How far the snapshot's best-positioned active group is from certifying:
/// the smallest, over active groups, of the largest interval overlap that
/// still ties the group to another active group (0 when at most one group
/// remains active — the next certification is immediate). Smaller means
/// closer to freezing the next bar; [`SchedulePolicy::GreedyConvergence`]
/// schedules ascending by this score.
fn convergence_proximity(snapshot: &Snapshot) -> f64 {
    let k = snapshot.active.len();
    let mut active_seen = 0usize;
    let mut best = f64::INFINITY;
    for i in 0..k {
        if !snapshot.active[i] {
            continue;
        }
        active_seen += 1;
        let a = snapshot.intervals[i];
        let mut blocking = 0.0f64;
        for j in 0..k {
            if j == i || !snapshot.active[j] {
                continue;
            }
            let b = snapshot.intervals[j];
            let overlap = (a.hi.min(b.hi) - a.lo.max(b.lo)).max(0.0);
            blocking = blocking.max(overlap);
        }
        best = best.min(blocking);
    }
    if active_seen <= 1 {
        return 0.0;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz_stats::Interval;

    fn snapshot(intervals: Vec<Interval>, active: Vec<bool>) -> Snapshot {
        let k = intervals.len();
        Snapshot {
            labels: (0..k).map(|i| format!("g{i}")).collect(),
            estimates: intervals.iter().map(Interval::center).collect(),
            intervals,
            active,
            samples_per_group: vec![1; k],
            rounds: 1,
            truncated: false,
        }
    }

    #[test]
    fn proximity_zero_when_at_most_one_active() {
        let snap = snapshot(
            vec![Interval::new(0.0, 10.0), Interval::new(5.0, 15.0)],
            vec![true, false],
        );
        assert_eq!(convergence_proximity(&snap), 0.0);
    }

    #[test]
    fn proximity_is_min_over_groups_of_max_blocking_overlap() {
        // g0 overlaps g1 by 2; g2 overlaps g1 by 5: g0 is closest to
        // separating, with 2 units of overlap left.
        let snap = snapshot(
            vec![
                Interval::new(0.0, 10.0),
                Interval::new(8.0, 20.0),
                Interval::new(15.0, 30.0),
            ],
            vec![true, true, true],
        );
        assert!((convergence_proximity(&snap) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn proximity_zero_for_already_disjoint_group() {
        let snap = snapshot(
            vec![
                Interval::new(0.0, 1.0),
                Interval::new(5.0, 8.0),
                Interval::new(7.0, 9.0),
            ],
            vec![true, true, true],
        );
        assert_eq!(convergence_proximity(&snap), 0.0);
    }

    #[test]
    fn query_id_displays_compactly() {
        assert_eq!(QueryId(3).to_string(), "q3");
    }

    mod parking {
        use super::super::*;
        use crate::VizQuery;
        use rand::SeedableRng;
        use rapidviz_core::clock::SimulatedClock;
        use rapidviz_needletail::{read_csv, CsvOptions, NeedleTail};

        fn engine() -> NeedleTail {
            let mut csv = String::from("airline,delay\n");
            for i in 0..900 {
                // Skewed group sizes so COUNT-style orderings separate and
                // means stay well apart.
                let (name, delay) = match i % 10 {
                    0..=5 => ("AA", 60.0 + f64::from(i % 7)),
                    6..=8 => ("UA", 85.0 + f64::from(i % 5)),
                    _ => ("JB", 20.0 + f64::from(i % 3)),
                };
                csv.push_str(&format!("{name},{delay}\n"));
            }
            let table = read_csv(&csv, &CsvOptions::default()).unwrap();
            NeedleTail::new(table, &["airline"]).unwrap()
        }

        fn session(engine: &NeedleTail, seed: u64) -> QuerySession {
            VizQuery::new(engine)
                .group_by("airline")
                .avg("delay")
                .bound(100.0)
                .resolution_pct(6.0)
                .samples_per_round(24)
                .start(rand::rngs::StdRng::seed_from_u64(seed))
                .unwrap()
        }

        /// A minimal RNG the checkpoint layer cannot capture.
        struct OpaqueRng(u64);
        impl rand::RngCore for OpaqueRng {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                self.0
            }
        }

        #[test]
        fn park_then_unpark_matches_uninterrupted_run() {
            let engine = engine();

            // Reference: one session driven to completion uninterrupted.
            let mut reference = session(&engine, 7);
            while !reference.is_finished() {
                reference.step();
            }
            let expected = reference.finish();

            // Same seed, parked mid-run and resumed through the registry.
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 7));
            for _ in 0..3 {
                sched.poll();
            }
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let token = sched.park(id, &mut registry).unwrap();
            assert_eq!(sched.len(), 0);
            assert_eq!(registry.len(), 1);
            assert!(registry.bytes() > 0);

            let resumed = sched.unpark(&mut registry, token, &engine).unwrap();
            assert_ne!(resumed, id, "resumed sessions get a fresh id");
            assert!(registry.is_empty());
            sched.run(|_| {});
            let answer = sched.finish(resumed).unwrap();
            assert_eq!(answer.ranked_labels(), expected.ranked_labels());
            for (a, b) in answer
                .result
                .estimates
                .iter()
                .zip(&expected.result.estimates)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let stats = registry.stats();
            assert_eq!(stats.parked_total, 1);
            assert_eq!(stats.resumed_total, 1);
            assert_eq!(stats.parked, 0);
            assert_eq!(stats.parked_bytes, 0);
        }

        #[test]
        fn park_failure_leaves_the_session_running() {
            let engine = engine();
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(
                VizQuery::new(&engine)
                    .group_by("airline")
                    .avg("delay")
                    .bound(100.0)
                    .resolution_pct(6.0)
                    .samples_per_round(24)
                    .start(OpaqueRng(42))
                    .unwrap(),
            );
            sched.poll();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            match sched.park(id, &mut registry) {
                Err(ParkError::Checkpoint(CheckpointError::OpaqueRng)) => {}
                other => panic!("expected OpaqueRng checkpoint error, got {other:?}"),
            }
            // The session is untouched: still scheduled, still cancellable.
            assert_eq!(sched.len(), 1);
            assert_eq!(sched.runnable_count(), 1);
            assert!(registry.is_empty());
            assert!(sched.finish(id).is_some());
        }

        #[test]
        fn parking_unknown_or_evicted_sessions_errors() {
            let engine = engine();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 1));
            let bogus = QueryId(999);
            assert_eq!(
                sched.park(bogus, &mut registry),
                Err(ParkError::NoSuchSession)
            );
            assert!(matches!(
                sched.unpark(&mut registry, 12345, &engine),
                Err(ParkError::NoSuchToken)
            ));
            sched.finish(id);
            assert_eq!(sched.park(id, &mut registry), Err(ParkError::NoSuchSession));
        }

        #[test]
        fn ttl_expires_parked_sessions_against_the_registry_clock() {
            let engine = engine();
            let clock = Arc::new(SimulatedClock::new());
            let mut registry = ParkingRegistry::with_clock(Duration::from_secs(30), clock.clone());
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 3));
            sched.poll();
            let token = sched.park(id, &mut registry).unwrap();

            // One tick short of the TTL: still resumable.
            clock.advance(Duration::from_secs(29));
            assert!(registry.get(token).is_ok());

            // At exactly the TTL the entry is expired.
            clock.advance(Duration::from_secs(1));
            assert!(matches!(registry.get(token), Err(ParkError::NoSuchToken)));
            assert!(registry.is_empty());
            assert_eq!(registry.bytes(), 0);
            let stats = registry.stats();
            assert_eq!(stats.expired_total, 1);
            assert_eq!(stats.resumed_total, 0);
        }

        #[test]
        fn byte_cap_rejects_parks_and_counts_them() {
            let engine = engine();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60)).with_byte_cap(1);
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 5));
            sched.poll();
            match sched.park(id, &mut registry) {
                Err(ParkError::OverCapacity { needed, cap }) => {
                    assert!(needed > 1);
                    assert_eq!(cap, 1);
                }
                other => panic!("expected OverCapacity, got {other:?}"),
            }
            assert_eq!(registry.stats().rejected_total, 1);
            // Rejection leaves the session live.
            assert_eq!(sched.len(), 1);
            assert!(sched.finish(id).is_some());
        }

        #[test]
        fn tokens_are_deterministic_and_start_at_one() {
            let engine = engine();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let a = sched.admit(session(&engine, 1));
            let b = sched.admit(session(&engine, 2));
            assert_eq!(sched.park(a, &mut registry).unwrap(), 1);
            assert_eq!(sched.park(b, &mut registry).unwrap(), 2);
        }

        #[test]
        fn reserved_tokens_support_refresh_and_discard() {
            let engine = engine();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 11));
            let token = registry.reserve();
            assert_eq!(token, 1);

            // Periodic durability refresh: checkpoint without removal,
            // upsert under the reserved token. parked_total counts the
            // token once, not per refresh.
            for _ in 0..3 {
                sched.poll();
                let ck = sched.checkpoint(id).unwrap();
                assert!(sched.stats(id).unwrap().checkpoint_bytes > 0);
                registry.park_reserved(token, ck).unwrap();
            }
            assert_eq!(registry.len(), 1);
            assert_eq!(registry.stats().parked_total, 1);
            assert_eq!(
                registry.bytes(),
                registry.get(token).unwrap().approx_bytes(),
                "refresh replaces the byte charge instead of accumulating it"
            );
            // The session is still live (checkpoint does not remove).
            assert_eq!(sched.len(), 1);

            // Disconnect: park the live session under the same token.
            assert_eq!(
                sched.park_reserved(id, &mut registry, token).unwrap(),
                token
            );
            assert_eq!(sched.len(), 0);

            // Completion elsewhere: discard drops the shadow without
            // touching resumed/expired counters.
            assert!(registry.discard(token));
            assert!(!registry.discard(token));
            assert!(registry.is_empty());
            assert_eq!(registry.bytes(), 0);
            let stats = registry.stats();
            assert_eq!(stats.resumed_total, 0);
            assert_eq!(stats.expired_total, 0);
        }

        #[test]
        fn park_resume_cycle_does_not_double_charge_the_global_budget() {
            let engine = engine();
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let id = sched.admit(session(&engine, 9));
            for _ in 0..3 {
                sched.poll();
            }
            let before = sched.total_samples();
            let token = sched.park(id, &mut registry).unwrap();
            assert_eq!(
                sched.total_samples(),
                before,
                "parking retires the session's draws without refunding them"
            );
            sched.unpark(&mut registry, token, &engine).unwrap();
            assert_eq!(
                sched.total_samples(),
                before,
                "resuming un-retires exactly the parked draws"
            );
        }

        #[test]
        fn a_shared_ledger_charges_a_session_moved_between_schedulers_once() {
            let engine = engine();
            let ledger = Arc::new(SampleLedger::new(Some(1_000_000)));
            let mut registry = ParkingRegistry::new(Duration::from_secs(60));
            let mut a = MultiQueryScheduler::new(SchedulePolicy::FairShare)
                .with_sample_ledger(Arc::clone(&ledger));
            let mut b = MultiQueryScheduler::new(SchedulePolicy::FairShare)
                .with_sample_ledger(Arc::clone(&ledger));
            let moved = a.admit(session(&engine, 9));
            b.admit(session(&engine, 10));
            for _ in 0..3 {
                a.poll();
                b.poll();
            }
            let before = ledger.charged();
            assert_eq!(a.total_samples(), before, "both schedulers read one ledger");
            assert_eq!(b.total_samples(), before);
            let token = a.park(moved, &mut registry).unwrap();
            b.unpark(&mut registry, token, &engine).unwrap();
            assert_eq!(
                ledger.charged(),
                before,
                "the moved session is charged once"
            );
            b.poll();
            assert!(ledger.charged() > before, "its next round is charged on b");
        }

        #[test]
        fn a_ledger_outliving_its_scheduler_keeps_the_budget_spent() {
            let engine = engine();
            let ledger = Arc::new(SampleLedger::new(Some(50)));
            let mut first = MultiQueryScheduler::new(SchedulePolicy::FairShare)
                .with_sample_ledger(Arc::clone(&ledger));
            first.admit(session(&engine, 4));
            assert_eq!(first.run(|_| {}), RunOutcome::GlobalBudgetExhausted);
            let spent = ledger.charged();
            drop(first);
            // A successor on the same ledger (a restarted scheduler loop)
            // starts with the budget already spent.
            let mut second = MultiQueryScheduler::new(SchedulePolicy::FairShare)
                .with_sample_ledger(Arc::clone(&ledger));
            let late = second.admit(session(&engine, 5));
            assert_eq!(second.run(|_| {}), RunOutcome::GlobalBudgetExhausted);
            assert_eq!(second.stats(late).unwrap().steps, 0);
            assert!(ledger.charged() >= spent);
        }
    }
}
