//! Multi-query scheduler semantics: the determinism invariant (scheduling
//! must not perturb any session's results) under all three policies,
//! policy-specific ordering behavior, global sample budgets, per-session
//! deadline enforcement, memory accounting/eviction, and event tagging.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Schema, TableBuilder, Value};
use rapidviz::{
    AlgorithmChoice, MultiQueryScheduler, QueryAnswer, QueryId, RunOutcome, SchedulePolicy,
    SchedulerEvent, StepOutcome, VizQuery,
};
use std::time::{Duration, Instant};

/// A 30k-row, 3-airline table with well-separated means (queries converge).
fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..30_000 {
        let (name, mu) = [("AA", 60.0), ("JB", 20.0), ("UA", 85.0)][rng.gen_range(0..3)];
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), Value::Float(delay)]);
    }
    NeedleTail::new(b.finish(), &["name"]).unwrap()
}

/// `k` groups with nearly tied means: runs last for thousands of rounds,
/// so budgets and weighting can be observed before anything certifies.
fn near_tie_engine(k: usize, seed: u64) -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..20_000 {
        let g = rng.gen_range(0..k);
        let mu = 50.0 + 0.2 * (g as f64 - (k as f64 - 1.0) / 2.0);
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![format!("tie{g}").into(), Value::Float(delay)]);
    }
    NeedleTail::new(b.finish(), &["name"]).unwrap()
}

/// Drives one session to its terminal outcome standalone — the reference
/// side of the determinism invariant.
fn run_standalone(query: &VizQuery<'_>, seed: u64) -> QueryAnswer {
    let mut session = query.start(StdRng::seed_from_u64(seed)).unwrap();
    while session.step().outcome.is_running() {}
    session.finish()
}

/// Byte-identical comparison: bit-for-bit estimates, exact sample counts,
/// rounds, truncation, and terminal outcome.
fn assert_same_answer(scheduled: &QueryAnswer, standalone: &QueryAnswer, what: &str) {
    assert_eq!(
        scheduled.result.labels, standalone.result.labels,
        "{what}: labels"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&scheduled.result.estimates),
        bits(&standalone.result.estimates),
        "{what}: estimates must be byte-identical"
    );
    assert_eq!(
        scheduled.result.samples_per_group, standalone.result.samples_per_group,
        "{what}: samples_per_group"
    );
    assert_eq!(
        scheduled.result.rounds, standalone.result.rounds,
        "{what}: rounds"
    );
    assert_eq!(
        scheduled.result.truncated, standalone.result.truncated,
        "{what}: truncated"
    );
    assert_eq!(scheduled.outcome, standalone.outcome, "{what}: outcome");
}

const SUITE_SEEDS: [u64; 7] = [11, 12, 13, 14, 15, 16, 17];

/// A heterogeneous query suite: every aggregate, every AVG algorithm, one
/// deadline-bearing session (far-future, never trips), and one near-tie
/// session that exhausts its own sample budget.
fn build_suite<'a>(engine: &'a NeedleTail, near: &'a NeedleTail) -> Vec<VizQuery<'a>> {
    vec![
        VizQuery::new(engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0),
        VizQuery::new(engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .algorithm(AlgorithmChoice::IRefine)
            .deadline(Instant::now() + Duration::from_secs(3600)),
        VizQuery::new(engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .algorithm(AlgorithmChoice::RoundRobin),
        VizQuery::new(engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .algorithm(AlgorithmChoice::ExactScan),
        VizQuery::new(engine)
            .group_by("name")
            .sum("delay")
            .bound(100.0),
        VizQuery::new(engine)
            .group_by("name")
            .count("delay")
            .resolution_pct(2.0),
        VizQuery::new(near)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .max_samples(700),
    ]
}

/// The determinism invariant for one policy: every session's answer from a
/// scheduled run is byte-identical to running it alone with the same seed.
fn assert_policy_matches_standalone(policy: SchedulePolicy) {
    let engine = engine();
    let near = near_tie_engine(2, 6);
    let suite = build_suite(&engine, &near);
    let standalone: Vec<QueryAnswer> = suite
        .iter()
        .zip(SUITE_SEEDS)
        .map(|(q, seed)| run_standalone(q, seed))
        .collect();
    let mut sched = MultiQueryScheduler::new(policy);
    let ids: Vec<QueryId> = suite
        .iter()
        .zip(SUITE_SEEDS)
        .map(|(q, seed)| sched.admit(q.start(StdRng::seed_from_u64(seed)).unwrap()))
        .collect();
    assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
    let answers = sched.finish_all();
    assert_eq!(answers.len(), suite.len());
    for (i, ((id, scheduled), reference)) in answers.iter().zip(&standalone).enumerate() {
        assert_eq!(*id, ids[i], "answers come back in admission order");
        assert_same_answer(scheduled, reference, &format!("{policy:?} query {i}"));
    }
}

#[test]
fn fair_share_is_byte_identical_to_standalone_runs() {
    assert_policy_matches_standalone(SchedulePolicy::FairShare);
}

#[test]
fn deadline_aware_is_byte_identical_to_standalone_runs() {
    assert_policy_matches_standalone(SchedulePolicy::DeadlineAware);
}

#[test]
fn greedy_convergence_is_byte_identical_to_standalone_runs() {
    assert_policy_matches_standalone(SchedulePolicy::GreedyConvergence);
}

#[test]
fn fair_share_weights_quanta_by_active_groups() {
    // Two near-tie sessions that will not certify anything for thousands
    // of rounds: one with 4 active groups, one with 2. Smooth weighted
    // round-robin must hand out quanta in exact 4:2 proportion.
    let wide = near_tie_engine(4, 21);
    let narrow = near_tie_engine(2, 22);
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let wide_id = sched.admit(
        VizQuery::new(&wide)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(31))
            .unwrap(),
    );
    let narrow_id = sched.admit(
        VizQuery::new(&narrow)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(32))
            .unwrap(),
    );
    let mut wide_quanta = 0u64;
    let mut narrow_quanta = 0u64;
    for _ in 0..90 {
        match sched.poll() {
            SchedulerEvent::Round { id, update } => {
                assert!(update.outcome.is_running(), "near-tie resolved too fast");
                if id == wide_id {
                    wide_quanta += 1;
                } else {
                    assert_eq!(id, narrow_id);
                    narrow_quanta += 1;
                }
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(
        (wide_quanta, narrow_quanta),
        (60, 30),
        "4-active-group session must receive exactly twice the quanta"
    );
}

#[test]
fn deadline_policy_runs_earliest_deadline_exclusively_first() {
    let engine = engine();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::DeadlineAware);
    // Admitted late-deadline first, to prove ordering is by deadline, not
    // admission.
    let late = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .deadline(Instant::now() + Duration::from_secs(7200))
            .start(StdRng::seed_from_u64(41))
            .unwrap(),
    );
    let early = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .deadline(Instant::now() + Duration::from_secs(3600))
            .start(StdRng::seed_from_u64(42))
            .unwrap(),
    );
    let mut order = Vec::new();
    sched.run(|event| {
        if let SchedulerEvent::Round { id, .. } = event {
            order.push(*id);
        }
    });
    let first_late = order.iter().position(|&id| id == late).unwrap();
    // Every quantum before the late session's first is the early one's,
    // and the early session is terminal by then.
    assert!(first_late > 0, "early session must run first");
    assert!(order[..first_late].iter().all(|&id| id == early));
    assert!(!order[first_late..].contains(&early));
}

#[test]
fn deadline_less_sessions_yield_to_deadline_bearing_ones() {
    let engine = engine();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::DeadlineAware);
    let patient = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(43))
            .unwrap(),
    );
    let urgent = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .deadline(Instant::now() + Duration::from_secs(3600))
            .start(StdRng::seed_from_u64(44))
            .unwrap(),
    );
    match sched.poll() {
        SchedulerEvent::Round { id, .. } => {
            assert_eq!(id, urgent, "deadline-bearing session runs first");
        }
        other => panic!("unexpected event {other:?}"),
    }
    assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
    assert!(sched.stats(patient).unwrap().steps > 0, "patient still ran");
}

#[test]
fn past_deadline_session_is_stopped_within_one_round() {
    let engine = engine();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::DeadlineAware);
    let expired = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .deadline(Instant::now() - Duration::from_millis(1))
            .start(StdRng::seed_from_u64(51))
            .unwrap(),
    );
    let healthy = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(1.0)
            .start(StdRng::seed_from_u64(52))
            .unwrap(),
    );
    assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
    let stats = sched.stats(expired).unwrap();
    // The session's own deadline check fires before its first scheduled
    // round: only the bootstrap draws (one per group) ever happened.
    assert_eq!(stats.outcome, StepOutcome::BudgetExhausted);
    assert_eq!(stats.steps, 1, "one quantum delivers the terminal outcome");
    assert_eq!(stats.total_samples, 3, "bootstrap only — no round ran");
    assert_eq!(
        sched.stats(healthy).unwrap().outcome,
        StepOutcome::Converged
    );
}

#[test]
fn global_sample_budget_stops_all_sessions_within_one_round() {
    let near_a = near_tie_engine(2, 61);
    let near_b = near_tie_engine(2, 62);
    let mut sched =
        MultiQueryScheduler::new(SchedulePolicy::FairShare).with_global_sample_budget(600);
    for (eng, seed) in [(&near_a, 63u64), (&near_b, 64u64)] {
        sched.admit(
            VizQuery::new(eng)
                .group_by("name")
                .avg("delay")
                .bound(100.0)
                .start(StdRng::seed_from_u64(seed))
                .unwrap(),
        );
    }
    assert_eq!(sched.run(|_| {}), RunOutcome::GlobalBudgetExhausted);
    assert!(sched.global_budget_exhausted());
    let total = sched.total_samples();
    // Checked before every quantum: overshoot is at most one round's
    // draws (2 active groups × 1 sample here).
    assert!(total >= 600, "stopped early: {total}");
    assert!(total < 600 + 8, "overshot the global budget: {total}");
    // Once exhausted the scheduler stays quiescent, and keeps saying WHY:
    // runnable sessions remain, so polls report the exhausted budget
    // rather than pretending the work drained.
    assert!(matches!(
        sched.poll(),
        SchedulerEvent::GlobalBudgetExhausted { .. }
    ));
    assert_eq!(sched.total_samples(), total);
    // A session admitted after exhaustion is never scheduled — and the
    // caller is told the budget (not convergence) is the reason.
    let late = sched.admit(
        VizQuery::new(&near_a)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(65))
            .unwrap(),
    );
    assert_eq!(sched.run(|_| {}), RunOutcome::GlobalBudgetExhausted);
    assert_eq!(sched.stats(late).unwrap().steps, 0);
    // Finishing a session out must NOT refund its draws to the budget:
    // the lifetime total is unchanged (`late`'s bootstrap draws included)
    // and the scheduler stays exhausted.
    let lifetime = sched.total_samples();
    let first = sched.ids()[0];
    let _ = sched.finish(first).expect("held");
    assert_eq!(sched.total_samples(), lifetime);
    assert_eq!(sched.run(|_| {}), RunOutcome::GlobalBudgetExhausted);
    // ...and every session still yields a usable best-effort answer.
    for (_, answer) in sched.finish_all() {
        assert!(!answer.converged());
        assert_eq!(answer.result.labels.len(), 2);
        assert!(answer.result.estimates.iter().all(|e| e.is_finite()));
    }
}

#[test]
fn terminal_sessions_are_never_rescheduled() {
    let engine = engine();
    let near = near_tie_engine(2, 71);
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let quick = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(1.0)
            .start(StdRng::seed_from_u64(72))
            .unwrap(),
    );
    let slow = sched.admit(
        VizQuery::new(&near)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .max_samples(800)
            .start(StdRng::seed_from_u64(73))
            .unwrap(),
    );
    let mut events = Vec::new();
    assert_eq!(
        sched.run(|event| {
            if let SchedulerEvent::Round { id, update } = event {
                events.push((*id, update.outcome));
            }
        }),
        RunOutcome::Drained
    );
    let quick_terminal = events
        .iter()
        .position(|&(id, outcome)| id == quick && !outcome.is_running())
        .expect("quick session must terminate");
    assert!(
        events[quick_terminal + 1..]
            .iter()
            .all(|&(id, _)| id == slow),
        "terminal session received further quanta"
    );
    assert_eq!(sched.stats(quick).unwrap().outcome, StepOutcome::Converged);
    assert_eq!(
        sched.stats(slow).unwrap().outcome,
        StepOutcome::BudgetExhausted
    );
}

#[test]
fn events_are_tagged_and_rounds_monotone_per_session() {
    let engine = engine();
    let suite_seeds = [81u64, 82, 83];
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::GreedyConvergence);
    let mut ids = Vec::new();
    for (i, seed) in suite_seeds.iter().enumerate() {
        let q = VizQuery::new(&engine).group_by("name").bound(100.0);
        let q = if i == 1 {
            q.sum("delay")
        } else {
            q.avg("delay")
        };
        ids.push(sched.admit(q.start(StdRng::seed_from_u64(*seed)).unwrap()));
    }
    let mut per_session_rounds: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
    sched.run(|event| {
        if let SchedulerEvent::Round { id, update } = event {
            let idx = ids.iter().position(|i| i == id).expect("unknown tag");
            per_session_rounds[idx].push(update.round);
        }
    });
    for (idx, rounds) in per_session_rounds.iter().enumerate() {
        assert!(!rounds.is_empty(), "session {idx} got no quanta");
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "session {idx}: rounds must advance strictly within its own stream"
        );
    }
}

#[test]
fn memory_accounting_tracks_current_and_peak_bytes() {
    let narrow = near_tie_engine(2, 91);
    let wide = near_tie_engine(4, 92);
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let narrow_id = sched.admit(
        VizQuery::new(&narrow)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .max_samples(300)
            .start(StdRng::seed_from_u64(93))
            .unwrap(),
    );
    let wide_id = sched.admit(
        VizQuery::new(&wide)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .max_samples(300)
            .start(StdRng::seed_from_u64(94))
            .unwrap(),
    );
    assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
    let narrow_stats = sched.stats(narrow_id).unwrap().clone();
    let wide_stats = sched.stats(wide_id).unwrap().clone();
    for stats in [&narrow_stats, &wide_stats] {
        assert!(stats.approx_bytes > 0);
        assert!(stats.peak_bytes >= stats.approx_bytes);
        assert!(!stats.evicted);
    }
    assert!(
        wide_stats.peak_bytes > narrow_stats.peak_bytes,
        "4-group state ({}) must outweigh 2-group state ({})",
        wide_stats.peak_bytes,
        narrow_stats.peak_bytes
    );
}

#[test]
fn memory_cap_evicts_oversized_sessions_but_keeps_their_answers() {
    let near = near_tie_engine(2, 95);
    // A 1-byte cap: every session exceeds it after its first quantum.
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare).with_session_memory_cap(1);
    let id = sched.admit(
        VizQuery::new(&near)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(96))
            .unwrap(),
    );
    let mut rounds = 0;
    let mut evictions = Vec::new();
    assert_eq!(
        sched.run(|event| match event {
            SchedulerEvent::Round { .. } => rounds += 1,
            SchedulerEvent::MemoryEvicted { id, bytes } => evictions.push((*id, *bytes)),
            _ => {}
        }),
        RunOutcome::Drained
    );
    assert_eq!(rounds, 1, "evicted after its first quantum");
    assert_eq!(evictions.len(), 1);
    assert_eq!(evictions[0].0, id);
    assert!(evictions[0].1 > 1);
    let stats = sched.stats(id).unwrap();
    assert!(stats.evicted);
    assert_eq!(
        stats.outcome,
        StepOutcome::Running,
        "not terminal — evicted"
    );
    // The best-effort answer survives eviction.
    let answer = sched.finish(id).expect("session still held");
    assert_eq!(answer.result.labels.len(), 2);
    assert!(!answer.converged());
}

#[test]
fn finish_by_id_removes_the_session() {
    let engine = engine();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let a = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(97))
            .unwrap(),
    );
    let b = sched.admit(
        VizQuery::new(&engine)
            .group_by("name")
            .sum("delay")
            .bound(100.0)
            .start(StdRng::seed_from_u64(98))
            .unwrap(),
    );
    assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
    assert_eq!(sched.len(), 2);
    let answer = sched.finish(a).expect("held");
    assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
    assert_eq!(sched.len(), 1);
    assert!(sched.stats(a).is_none());
    assert!(sched.finish(a).is_none(), "already finished out");
    assert_eq!(sched.ids(), vec![b]);
}

#[test]
fn empty_scheduler_drains_immediately() {
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::DeadlineAware);
    assert!(sched.is_empty());
    assert!(matches!(sched.poll(), SchedulerEvent::Drained));
    assert_eq!(
        sched.run(|_| panic!("no events expected")),
        RunOutcome::Drained
    );
}

/// Interleaving stress: many heterogeneous sessions with wide per-round
/// batches (64 draws per group, 256 per round) under every policy — each
/// scheduled answer must match its standalone run byte-for-byte.
#[test]
fn stress_interleaving_under_worker_pool_contention() {
    let engines: Vec<NeedleTail> = (0..4).map(|i| near_tie_engine(4, 100 + i)).collect();
    fn make_query(eng: &NeedleTail) -> VizQuery<'_> {
        VizQuery::new(eng)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .samples_per_round(64)
            .max_samples(6_000)
    }
    let seeds: Vec<u64> = (0..8).map(|i| 200 + i).collect();
    let standalone: Vec<QueryAnswer> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| run_standalone(&make_query(&engines[i % engines.len()]), seed))
        .collect();
    for policy in [
        SchedulePolicy::FairShare,
        SchedulePolicy::DeadlineAware,
        SchedulePolicy::GreedyConvergence,
    ] {
        let mut sched = MultiQueryScheduler::new(policy);
        for (i, &seed) in seeds.iter().enumerate() {
            sched.admit(
                make_query(&engines[i % engines.len()])
                    .start(StdRng::seed_from_u64(seed))
                    .unwrap(),
            );
        }
        assert_eq!(sched.run(|_| {}), RunOutcome::Drained);
        for (i, (_, scheduled)) in sched.finish_all().iter().enumerate() {
            assert_same_answer(
                scheduled,
                &standalone[i],
                &format!("{policy:?} stress session {i}"),
            );
        }
    }
}
