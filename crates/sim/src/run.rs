//! Episode execution: scheduled run, invariant suite, standalone replay.
//!
//! [`run_episode`] executes an [`EpisodePlan`] in two phases. The
//! *scheduled* phase drives a [`rapidviz::MultiQueryScheduler`] quantum by
//! quantum, interleaving the plan's chaos events and checking the online
//! invariants (monotonicity, budgets, memory accounting, certified-prefix
//! stability) as each round streams out, while recording every update
//! bit-for-bit together with the simulated-clock time it was produced at.
//! The *replay* phase then re-runs every admitted query standalone — fresh
//! engine (cold caches), same session seed, same fault injector, the
//! recorded clock timeline — and demands byte-identical updates and final
//! answer. Any violation becomes a [`Failure`] carrying the episode's root
//! seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{EngineError, NeedleTail, Predicate, SeededFaults};
use rapidviz::{
    AlgorithmChoice, Clock, MultiQueryScheduler, QueryAnswer, QueryId, QuerySession, RoundUpdate,
    SchedulePolicy, SchedulerEvent, SimulatedClock, StepOutcome, VizQuery,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::plan::{EpisodePlan, PredSpec, QueryKind, QuerySpec, SimEvent, TimeBudget};

/// Hard ceiling on scheduler quanta per episode — far above what any
/// generated plan needs, so hitting it means a session stopped making
/// progress.
const QUANTA_CEILING: u64 = 500_000;

/// Deliberate corruptions for testing the harness itself: each mutation
/// breaks exactly one invariant, so a test can assert the failure is
/// caught, reported with its `SIM_SEED`, and minimized deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flips the low bit of the first replayed estimate, forcing a
    /// replay-divergence failure on any episode whose first admitted query
    /// received at least one quantum.
    CorruptReplayEstimate,
}

/// Knobs for [`run_episode`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeOptions {
    /// Deliberate corruption to inject, if any (harness self-tests only).
    pub mutation: Option<Mutation>,
}

/// One invariant violation, tied to the episode seed that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Root seed of the failing episode.
    pub seed: u64,
    /// Policy the episode ran under.
    pub policy: SchedulePolicy,
    /// Which invariant broke (stable slug, e.g. `replay-divergence`).
    pub invariant: String,
    /// Human-readable specifics of the violation.
    pub detail: String,
}

impl Failure {
    /// Renders the single-seed repro report: the first line is
    /// `SIM_SEED=<u64> POLICY=<policy>`, followed by the violated
    /// invariant and the minimized episode's event schedule.
    #[must_use]
    pub fn report(&self, minimized: &EpisodePlan) -> String {
        let mut s = format!("SIM_SEED={} POLICY={:?}\n", self.seed, self.policy);
        let _ = writeln!(s, "invariant violated: {}", self.invariant);
        let _ = writeln!(s, "{}", self.detail);
        let _ = writeln!(
            s,
            "minimized episode: {} queries over {} rows / {} groups; \
             global_budget={:?} memory_cap={:?} faults={:?}",
            minimized.queries.len(),
            minimized.table.rows,
            minimized.table.groups,
            minimized.global_budget,
            minimized.memory_cap,
            minimized.faults,
        );
        for ev in &minimized.events {
            let _ = writeln!(s, "  @{:<4} {:?}", ev.at_quantum, ev.event);
        }
        let _ = writeln!(
            s,
            "reproduce with: SIM_SEED={} cargo test -p rapidviz-sim sim_seed_repro",
            self.seed
        );
        s
    }
}

/// Aggregate statistics over one or more passing episodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Episodes completed.
    pub episodes: u64,
    /// Scheduler quanta polled across all episodes.
    pub quanta: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Rounds replayed standalone and bit-compared.
    pub replayed_steps: u64,
    /// Storage reads dropped by the fault injector (scheduled phase).
    pub faulted_reads: u64,
}

impl Report {
    /// Folds another report's counters into this one.
    pub fn absorb(&mut self, other: &Report) {
        self.episodes += other.episodes;
        self.quanta += other.quanta;
        self.admitted += other.admitted;
        self.replayed_steps += other.replayed_steps;
        self.faulted_reads += other.faulted_reads;
    }
}

/// Everything bit-comparable about one [`RoundUpdate`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UpdateKey {
    outcome: StepOutcome,
    round: u64,
    total_samples: u64,
    fraction_bits: u64,
    estimate_bits: Vec<u64>,
    interval_bits: Vec<(u64, u64)>,
    active: Vec<bool>,
    newly_certified: Vec<usize>,
    truncated: bool,
}

pub(crate) fn update_key(update: &RoundUpdate) -> UpdateKey {
    UpdateKey {
        outcome: update.outcome,
        round: update.round,
        total_samples: update.total_samples,
        fraction_bits: update.fraction_sampled.to_bits(),
        estimate_bits: update
            .snapshot
            .estimates
            .iter()
            .map(|e| e.to_bits())
            .collect(),
        interval_bits: update
            .snapshot
            .intervals
            .iter()
            .map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()))
            .collect(),
        active: update.snapshot.active.clone(),
        newly_certified: update.newly_certified.clone(),
        truncated: update.snapshot.truncated,
    }
}

/// Everything bit-comparable about one final [`QueryAnswer`].
#[derive(Debug, Clone, PartialEq)]
struct AnswerKey {
    outcome: StepOutcome,
    labels: Vec<String>,
    estimate_bits: Vec<u64>,
    total_samples: u64,
    population: u64,
    truncated: bool,
}

fn answer_key(answer: &QueryAnswer) -> AnswerKey {
    AnswerKey {
        outcome: answer.outcome,
        labels: answer.result.labels.clone(),
        estimate_bits: answer
            .result
            .estimates
            .iter()
            .map(|e| e.to_bits())
            .collect(),
        total_samples: answer.result.total_samples(),
        population: answer.population,
        truncated: answer.result.truncated,
    }
}

/// Per-admitted-session recording: what the scheduled run produced, to be
/// demanded back verbatim from the standalone replay.
struct Trace {
    query_idx: usize,
    admit_elapsed: Duration,
    admit_samples: u64,
    init_active: Vec<bool>,
    /// `(sim-clock elapsed at the step, bit-key of the update)`.
    steps: Vec<(Duration, UpdateKey)>,
    answer: Option<AnswerKey>,
    evicted: bool,
    terminal: Option<StepOutcome>,
    /// `(label, mean bits)` per group from [`NeedleTail::scan`] under the
    /// query's filter, for a SCAN query with one group-by column.
    scan_truth: Option<Vec<(String, u64)>>,
}

/// What the `scan-exact` invariant holds a SCAN query's certified groups
/// to: each group's [`NeedleTail::scan`] mean under the query's filter, as
/// bits. `None` for other queries and for multi-column group-bys, which
/// the engine scan does not group.
fn scan_truth(engine: &NeedleTail, spec: &QuerySpec) -> Option<Vec<(String, u64)>> {
    let &[column] = spec.group_by.columns() else {
        return None;
    };
    if spec.kind != QueryKind::Avg(AlgorithmChoice::ExactScan) {
        return None;
    }
    let filter = spec
        .predicate
        .as_ref()
        .map_or(Predicate::True, PredSpec::build);
    let groups = engine.scan(column, "v", &filter).ok()?;
    Some(
        groups
            .into_iter()
            .filter_map(|g| Some((g.group.to_string(), g.mean()?.to_bits())))
            .collect(),
    )
}

/// Runs one episode: scheduled phase with online invariants, then
/// standalone replay of every admitted query.
///
/// # Errors
///
/// Returns the first invariant [`Failure`] the episode hits; panics inside
/// the episode body are caught and reported as the `no-panic` invariant.
pub fn run_episode(plan: &EpisodePlan, opts: &EpisodeOptions) -> Result<Report, Failure> {
    match catch_unwind(AssertUnwindSafe(|| episode_body(plan, opts))) {
        Ok(result) => result,
        Err(payload) => Err(Failure {
            seed: plan.seed,
            policy: plan.policy,
            invariant: "no-panic".into(),
            detail: format!("episode body panicked: {}", panic_message(&payload)),
        }),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn episode_body(plan: &EpisodePlan, opts: &EpisodeOptions) -> Result<Report, Failure> {
    let fail = |invariant: &str, detail: String| Failure {
        seed: plan.seed,
        policy: plan.policy,
        invariant: invariant.to_owned(),
        detail,
    };

    let mut engine = plan.table.build();
    if let Some((fseed, rate)) = plan.faults {
        engine.set_fault_injector(Arc::new(SeededFaults::new(fseed, rate)));
    }
    let clock = SimulatedClock::new();
    let mut sched = MultiQueryScheduler::new(plan.policy);
    if let Some(cap) = plan.global_budget {
        sched = sched.with_global_sample_budget(cap);
    }
    if let Some(cap) = plan.memory_cap {
        sched = sched.with_session_memory_cap(cap);
    }

    let mut report = Report {
        episodes: 1,
        ..Report::default()
    };
    let mut traces: Vec<Trace> = Vec::new();
    // Sessions the scheduler still holds: `(id, index into traces)`.
    let mut live: Vec<(QueryId, usize)> = Vec::new();
    let mut ev_i = 0usize;
    let mut quantum = 0u64;
    let mut global_exhausted_seen = false;

    loop {
        while ev_i < plan.events.len() && plan.events[ev_i].at_quantum <= quantum {
            let ev = plan.events[ev_i];
            ev_i += 1;
            match ev.event {
                SimEvent::Admit(idx) => {
                    if traces.iter().any(|t| t.query_idx == idx) {
                        continue; // defensive: a query admits at most once
                    }
                    let spec = &plan.queries[idx];
                    let session = build_session(&engine, &clock, spec)
                        .map_err(|e| fail("admit-error", format!("query {idx} rejected: {e:?}")))?;
                    let init_active = session.snapshot().active;
                    let admit_samples = session.total_samples();
                    let scan_truth = scan_truth(&engine, spec);
                    let id = sched.admit(session);
                    live.push((id, traces.len()));
                    traces.push(Trace {
                        query_idx: idx,
                        admit_elapsed: clock.elapsed(),
                        admit_samples,
                        init_active,
                        steps: Vec::new(),
                        answer: None,
                        evicted: false,
                        terminal: None,
                        scan_truth,
                    });
                    report.admitted += 1;
                }
                SimEvent::Cancel(idx) => {
                    if let Some(pos) = live.iter().position(|&(_, t)| traces[t].query_idx == idx) {
                        let (id, t) = live.remove(pos);
                        let Some(answer) = sched.finish(id) else {
                            return Err(fail(
                                "lost-session",
                                format!("finish({id}) returned no answer"),
                            ));
                        };
                        traces[t].answer = Some(answer_key(&answer));
                    }
                }
                SimEvent::AdvanceClock(ms) => clock.advance(Duration::from_millis(ms)),
                SimEvent::SwitchPolicy(policy) => sched.set_policy(policy),
                SimEvent::ClearPlanCaches => engine.clear_plan_caches(),
            }
        }

        let pre_total = sched.total_samples();
        let event = sched.poll();
        quantum += 1;
        report.quanta += 1;
        if quantum > QUANTA_CEILING {
            return Err(fail(
                "runaway-episode",
                format!("episode still live after {quantum} quanta"),
            ));
        }
        match event {
            SchedulerEvent::Round { id, update } => {
                if global_exhausted_seen {
                    return Err(fail(
                        "global-budget",
                        format!("{id} stepped after global exhaustion was reported"),
                    ));
                }
                if let Some(cap) = plan.global_budget {
                    if pre_total >= cap {
                        return Err(fail(
                            "global-budget",
                            format!("{id} stepped at {pre_total} lifetime samples, cap {cap}"),
                        ));
                    }
                }
                let Some(&(_, t)) = live.iter().find(|&&(lid, _)| lid == id) else {
                    return Err(fail("lost-session", format!("round for unknown {id}")));
                };
                check_round(
                    &plan.queries[traces[t].query_idx],
                    &mut traces[t],
                    &clock,
                    &update,
                )
                .map_err(|(inv, det)| fail(inv, format!("{id}: {det}")))?;
                if let Some(stats) = sched.stats(id) {
                    if stats.peak_bytes < stats.approx_bytes {
                        return Err(fail(
                            "memory-accounting",
                            format!(
                                "{id}: peak {} below current {}",
                                stats.peak_bytes, stats.approx_bytes
                            ),
                        ));
                    }
                }
            }
            SchedulerEvent::MemoryEvicted { id, bytes } => {
                let Some(cap) = plan.memory_cap else {
                    return Err(fail(
                        "memory-accounting",
                        format!("{id} evicted with no cap configured"),
                    ));
                };
                if bytes <= cap {
                    return Err(fail(
                        "memory-accounting",
                        format!("{id} evicted at {bytes} bytes, under the {cap}-byte cap"),
                    ));
                }
                let Some(&(_, t)) = live.iter().find(|&&(lid, _)| lid == id) else {
                    return Err(fail("lost-session", format!("eviction of unknown {id}")));
                };
                if traces[t].evicted {
                    return Err(fail("memory-accounting", format!("{id} evicted twice")));
                }
                traces[t].evicted = true;
                match sched.stats(id) {
                    Some(stats) if stats.evicted && stats.approx_bytes == 0 => {}
                    other => {
                        return Err(fail(
                            "memory-accounting",
                            format!("{id}: eviction did not release state: {other:?}"),
                        ));
                    }
                }
            }
            SchedulerEvent::GlobalBudgetExhausted { total_samples } => {
                let Some(cap) = plan.global_budget else {
                    return Err(fail(
                        "global-budget",
                        "exhaustion reported with no budget configured".into(),
                    ));
                };
                if total_samples < cap {
                    return Err(fail(
                        "global-budget",
                        format!("exhaustion reported at {total_samples} samples, below cap {cap}"),
                    ));
                }
                global_exhausted_seen = true;
                if ev_i >= plan.events.len() {
                    break;
                }
            }
            SchedulerEvent::Drained => {
                if ev_i >= plan.events.len() {
                    break;
                }
            }
        }
    }

    report.faulted_reads = engine.metrics().snapshot().faulted_reads;

    for (id, answer) in sched.finish_all() {
        if let Some(pos) = live.iter().position(|&(lid, _)| lid == id) {
            let (_, t) = live.remove(pos);
            traces[t].answer = Some(answer_key(&answer));
        }
    }
    if let Some(&(id, _)) = live.first() {
        return Err(fail(
            "lost-session",
            format!("{id} admitted but missing from finish_all"),
        ));
    }

    replay_traces(plan, opts, &traces, &mut report).map_err(|(inv, det)| fail(inv, det))?;
    Ok(report)
}

/// Online per-round invariant suite; returns `(invariant, detail)` on
/// violation and appends the recorded step to the trace otherwise.
fn check_round(
    spec: &QuerySpec,
    trace: &mut Trace,
    clock: &SimulatedClock,
    update: &RoundUpdate,
) -> Result<(), (&'static str, String)> {
    let qi = trace.query_idx;
    if trace.evicted {
        return Err((
            "memory-accounting",
            format!("query {qi} received a quantum after eviction"),
        ));
    }
    if let Some(term) = trace.terminal {
        return Err((
            "session-budget",
            format!("query {qi} received a quantum after terminal {term:?}"),
        ));
    }
    let key = update_key(update);
    let prev = trace.steps.last().map(|(_, k)| k.clone());
    let prev_samples = prev
        .as_ref()
        .map_or(trace.admit_samples, |k| k.total_samples);

    let frac = f64::from_bits(key.fraction_bits);
    if !(0.0..=1.0).contains(&frac) {
        return Err((
            "fraction-monotone",
            format!("query {qi}: fraction_sampled {frac} outside [0, 1]"),
        ));
    }
    if key.total_samples < prev_samples {
        return Err((
            "samples-monotone",
            format!(
                "query {qi}: total_samples fell {prev_samples} -> {}",
                key.total_samples
            ),
        ));
    }
    if let Some(prev) = &prev {
        if key.round < prev.round {
            return Err((
                "samples-monotone",
                format!("query {qi}: round fell {} -> {}", prev.round, key.round),
            ));
        }
        if frac < f64::from_bits(prev.fraction_bits) {
            return Err((
                "fraction-monotone",
                format!(
                    "query {qi}: fraction_sampled fell {} -> {frac}",
                    f64::from_bits(prev.fraction_bits)
                ),
            ));
        }
        if prev.truncated && !key.truncated {
            return Err((
                "truncated-monotone",
                format!("query {qi}: truncated flag cleared"),
            ));
        }
    }

    let prev_active: &[bool] = prev.as_ref().map_or(&trace.init_active, |k| &k.active);
    if key.active.len() != prev_active.len() {
        return Err((
            "certified-prefix",
            format!(
                "query {qi}: active set resized {} -> {}",
                prev_active.len(),
                key.active.len()
            ),
        ));
    }
    let mut expected_new = Vec::new();
    for (i, (&was, &is)) in prev_active.iter().zip(&key.active).enumerate() {
        if !was && is {
            return Err((
                "certified-prefix",
                format!("query {qi}: certified group {i} reactivated"),
            ));
        }
        if was && !is {
            expected_new.push(i);
        }
    }
    if expected_new != key.newly_certified {
        return Err((
            "certified-prefix",
            format!(
                "query {qi}: newly_certified {:?} does not match active-flag delta {:?}",
                key.newly_certified, expected_new
            ),
        ));
    }
    // ROUNDROBIN is exempt from the bit-frozen clause: it samples every
    // group each round, active or not, so certified estimates keep
    // refining by design. Certified *positions* still never reactivate.
    if spec.kind != QueryKind::Avg(AlgorithmChoice::RoundRobin) {
        if let Some(prev) = &prev {
            for (i, &was) in prev_active.iter().enumerate() {
                if !was && key.estimate_bits[i] != prev.estimate_bits[i] {
                    return Err((
                        "certified-prefix",
                        format!("query {qi}: certified group {i}'s estimate moved"),
                    ));
                }
            }
        }
    }

    if let Some(truth) = &trace.scan_truth {
        let snap = &update.snapshot;
        for g in snap.certified_order() {
            let label = &snap.labels[g];
            let want = truth.iter().find(|(l, _)| l == label).map(|t| t.1);
            if want != Some(snap.estimates[g].to_bits()) {
                return Err((
                    "scan-exact",
                    format!(
                        "query {qi}: SCAN certified group {label} at {}, but the engine scan's \
                         mean is {:?}",
                        snap.estimates[g],
                        want.map(f64::from_bits)
                    ),
                ));
            }
        }
    }

    if let Some(cap) = spec.max_samples {
        if prev_samples >= cap {
            if key.outcome != StepOutcome::BudgetExhausted {
                return Err((
                    "session-budget",
                    format!(
                        "query {qi}: at {prev_samples} samples (cap {cap}) but outcome {:?}",
                        key.outcome
                    ),
                ));
            }
            if key.total_samples != prev_samples {
                return Err((
                    "session-budget",
                    format!("query {qi}: budget-terminal step drew samples"),
                ));
            }
        }
    }
    if let Some(eff) = effective_deadline(spec, trace.admit_elapsed) {
        if clock.elapsed() >= eff {
            if key.outcome != StepOutcome::BudgetExhausted {
                return Err((
                    "session-budget",
                    format!(
                        "query {qi}: deadline passed ({:?} >= {eff:?}) but outcome {:?}",
                        clock.elapsed(),
                        key.outcome
                    ),
                ));
            }
            if key.total_samples != prev_samples {
                return Err((
                    "session-budget",
                    format!("query {qi}: deadline-terminal step drew samples"),
                ));
            }
        }
    }

    if !key.outcome.is_running() {
        trace.terminal = Some(key.outcome);
    }
    trace.steps.push((clock.elapsed(), key));
    Ok(())
}

/// The session's effective wall-clock budget as sim-clock elapsed time
/// (timeouts anchor at admission, matching the builder realization in
/// [`build_session`]).
fn effective_deadline(spec: &QuerySpec, admit: Duration) -> Option<Duration> {
    let ms = match spec.time_budget? {
        TimeBudget::Timeout(ms) | TimeBudget::Deadline(ms) => ms,
        TimeBudget::Both { timeout, deadline } => timeout.min(deadline),
    };
    Some(admit + Duration::from_millis(ms))
}

/// Replays every admitted query standalone — fresh cold-cache engine, same
/// fault injector, same session seed, the recorded clock timeline — and
/// bit-compares each update and the final answer against the scheduled
/// recording.
fn replay_traces(
    plan: &EpisodePlan,
    opts: &EpisodeOptions,
    traces: &[Trace],
    report: &mut Report,
) -> Result<(), (&'static str, String)> {
    let mut mutation_armed = opts.mutation == Some(Mutation::CorruptReplayEstimate);
    for trace in traces {
        let qi = trace.query_idx;
        let spec = &plan.queries[qi];
        let mut replay_engine = plan.table.build();
        if let Some((fseed, rate)) = plan.faults {
            replay_engine.set_fault_injector(Arc::new(SeededFaults::new(fseed, rate)));
        }
        let replay_clock = SimulatedClock::new();
        replay_clock.set_elapsed(trace.admit_elapsed);
        let mut session = build_session(&replay_engine, &replay_clock, spec).map_err(|e| {
            (
                "replay-divergence",
                format!("query {qi}: replay rejected: {e:?}"),
            )
        })?;
        if session.total_samples() != trace.admit_samples {
            return Err((
                "replay-divergence",
                format!(
                    "query {qi}: bootstrap drew {} samples scheduled vs {} standalone",
                    trace.admit_samples,
                    session.total_samples()
                ),
            ));
        }
        for (i, (elapsed, recorded)) in trace.steps.iter().enumerate() {
            replay_clock.set_elapsed(*elapsed);
            let update = session.step();
            let mut key = update_key(&update);
            if mutation_armed {
                mutation_armed = false;
                if let Some(bits) = key.estimate_bits.first_mut() {
                    *bits ^= 1;
                }
            }
            report.replayed_steps += 1;
            if key != *recorded {
                return Err((
                    "replay-divergence",
                    format!(
                        "query {qi} step {i}: scheduled update\n  {recorded:?}\nvs standalone\n  {key:?}"
                    ),
                ));
            }
        }
        if let Some(term) = trace.terminal {
            let Some((_, frozen)) = trace.steps.last() else {
                return Err((
                    "post-terminal-frozen",
                    format!("query {qi}: terminal {term:?} with no recorded steps"),
                ));
            };
            for extra in 0..2 {
                let update = session.step();
                let key = update_key(&update);
                if key.outcome != term
                    || key.total_samples != frozen.total_samples
                    || key.estimate_bits != frozen.estimate_bits
                {
                    return Err((
                        "post-terminal-frozen",
                        format!(
                            "query {qi}: post-terminal step {extra} not frozen: {:?} at {} samples",
                            key.outcome, key.total_samples
                        ),
                    ));
                }
            }
        }
        let final_key = answer_key(&session.finish());
        match &trace.answer {
            Some(recorded) if *recorded == final_key => {}
            Some(recorded) => {
                return Err((
                    "replay-divergence",
                    format!(
                        "query {qi} final answer: scheduled\n  {recorded:?}\nvs standalone\n  {final_key:?}"
                    ),
                ));
            }
            None => {
                return Err((
                    "lost-session",
                    format!("query {qi}: no final answer was recorded"),
                ));
            }
        }
    }
    Ok(())
}

/// Realizes a [`QuerySpec`] as a [`VizQuery`] session against `engine`,
/// with wall-clock budgets anchored at `clock.now()` — identical in the
/// scheduled run and the replay because the replay clock is rewound to the
/// recorded admission elapsed first.
fn build_session(
    engine: &NeedleTail,
    clock: &SimulatedClock,
    spec: &QuerySpec,
) -> Result<QuerySession, EngineError> {
    let mut q = VizQuery::new(engine).clock(Arc::new(clock.clone()));
    for col in spec.group_by.columns() {
        q = q.group_by(*col);
    }
    q = match spec.kind {
        QueryKind::Avg(alg) => q.avg("v").algorithm(alg),
        QueryKind::Sum => q.sum("v"),
        QueryKind::Count => q.count("v"),
    };
    if let Some(pred) = &spec.predicate {
        q = q.filter(pred.build());
    }
    q = q
        .delta(spec.delta)
        .samples_per_round(spec.samples_per_round);
    if let Some(pct) = spec.resolution_pct {
        q = q.resolution_pct(pct);
    }
    if let Some(c) = spec.bound {
        q = q.bound(c);
    }
    if let Some(cap) = spec.max_samples {
        q = q.max_samples(cap);
    }
    match spec.time_budget {
        Some(TimeBudget::Timeout(ms)) => q = q.timeout(Duration::from_millis(ms)),
        Some(TimeBudget::Deadline(ms)) => {
            q = q.deadline(clock.now() + Duration::from_millis(ms));
        }
        Some(TimeBudget::Both { timeout, deadline }) => {
            q = q
                .timeout(Duration::from_millis(timeout))
                .deadline(clock.now() + Duration::from_millis(deadline));
        }
        None => {}
    }
    q.start(StdRng::seed_from_u64(spec.seed))
}
