//! Resumable-session semantics: fixed-seed equivalence with the blocking
//! path (and with verbatim pre-refactor reference loops), prefix-consistent
//! partial orderings, cancellation, and budget exhaustion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::{ifocus_count, IFocusSum1};
use rapidviz::core::{AlgoConfig, IFocus, RunResult, StepOutcome};
use rapidviz::datagen::FlightModel;
use rapidviz::needletail::{
    ColumnDef, DataType, NeedleTail, Predicate, Schema, TableBuilder, Value,
};
use rapidviz::{AlgorithmChoice, NeedletailGroup, VizQuery};
use std::time::{Duration, Instant};

/// A 30k-row, 3-airline table with the group column indexed.
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

/// A table whose two groups have nearly tied means, so runs last thousands
/// of rounds — the budget/cancellation playground.
fn near_tie_engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..50_000 {
        let (name, mu) = [("close1", 49.6), ("close2", 50.4)][rng.gen_range(0..2)];
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), Value::Float(delay)]);
    }
    NeedleTail::new(b.finish(), &["name"]).unwrap()
}

fn assert_same_run(a: &RunResult, b: &RunResult) {
    assert_eq!(a.estimates, b.estimates, "estimates must be byte-identical");
    assert_eq!(a.samples_per_group, b.samples_per_group);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.truncated, b.truncated);
}

/// The pre-refactor `VizQuery::execute` body for AVG, verbatim (public
/// APIs only): build handles, infer nothing (bound given), run IFOCUS
/// blocking. Guards the acceptance criterion that the session refactor
/// left the blocking path byte-identical.
fn reference_execute_avg(engine: &NeedleTail, rng: &mut StdRng) -> RunResult {
    let handles = engine
        .group_handles("name", "delay", &Predicate::True)
        .unwrap();
    let mut groups: Vec<NeedletailGroup> = handles.into_iter().map(NeedletailGroup::new).collect();
    let config = AlgoConfig::new(100.0, 0.05);
    IFocus::new(config).run(&mut groups, rng)
}

/// The pre-refactor SUM path, verbatim.
fn reference_execute_sum(engine: &NeedleTail, rng: &mut StdRng) -> RunResult {
    let handles = engine
        .group_handles("name", "delay", &Predicate::True)
        .unwrap();
    let mut groups: Vec<NeedletailGroup> = handles.into_iter().map(NeedletailGroup::new).collect();
    let config = AlgoConfig::new(100.0, 0.05);
    IFocusSum1::new(config).run(&mut groups, rng)
}

/// The COUNT reference: the blocking §6.3.2 helper over the engine's
/// size-estimating handles (itself regression-tested in core against a
/// verbatim pre-refactor Algorithm-5 loop).
fn reference_execute_count(engine: &NeedleTail, rng: &mut StdRng) -> RunResult {
    let mut groups = rapidviz::query_sized_groups(engine, "name", "delay").unwrap();
    let config = AlgoConfig::new(1.0, 0.05).with_resolution(0.02);
    ifocus_count(&config, &mut groups, rng)
}

#[test]
fn execute_avg_matches_pre_refactor_reference() {
    let engine = engine();
    let answer = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .execute(&mut StdRng::seed_from_u64(42))
        .unwrap();
    let reference = reference_execute_avg(&engine, &mut StdRng::seed_from_u64(42));
    assert_same_run(&answer.result, &reference);
    assert!(answer.converged());
}

#[test]
fn execute_sum_matches_pre_refactor_reference() {
    let engine = engine();
    let answer = VizQuery::new(&engine)
        .group_by("name")
        .sum("delay")
        .bound(100.0)
        .execute(&mut StdRng::seed_from_u64(43))
        .unwrap();
    let reference = reference_execute_sum(&engine, &mut StdRng::seed_from_u64(43));
    assert_same_run(&answer.result, &reference);
}

#[test]
fn execute_count_matches_reference_loop() {
    let engine = engine();
    let answer = VizQuery::new(&engine)
        .group_by("name")
        .count("delay")
        .resolution_pct(2.0)
        .execute(&mut StdRng::seed_from_u64(44))
        .unwrap();
    let reference = reference_execute_count(&engine, &mut StdRng::seed_from_u64(44));
    assert_same_run(&answer.result, &reference);
    // Roughly equal thirds of the relation.
    for est in &answer.result.estimates {
        assert!((est - 1.0 / 3.0).abs() < 0.1, "normalized count {est}");
    }
}

#[test]
fn session_step_loop_matches_execute_for_all_aggregates() {
    let engine = engine();
    type Build<'a> = Box<dyn Fn(&'a NeedleTail) -> VizQuery<'a>>;
    let builders: Vec<(&str, Build)> = vec![
        (
            "avg",
            Box::new(|e| VizQuery::new(e).group_by("name").avg("delay").bound(100.0)),
        ),
        (
            "sum",
            Box::new(|e| VizQuery::new(e).group_by("name").sum("delay").bound(100.0)),
        ),
        (
            "count",
            Box::new(|e| {
                VizQuery::new(e)
                    .group_by("name")
                    .count("delay")
                    .resolution_pct(2.0)
            }),
        ),
    ];
    for (what, build) in &builders {
        let blocking = build(&engine)
            .execute(&mut StdRng::seed_from_u64(77))
            .unwrap();
        let mut session = build(&engine).start(StdRng::seed_from_u64(77)).unwrap();
        let mut rounds = 0u64;
        loop {
            let update = session.step();
            rounds += 1;
            assert!(rounds < 10_000_000, "runaway session");
            match update.outcome {
                StepOutcome::Running => {}
                StepOutcome::Converged => break,
                StepOutcome::BudgetExhausted => panic!("{what}: no budget set"),
            }
        }
        let stepped = session.finish();
        assert_same_run(&blocking.result, &stepped.result);
        assert_eq!(blocking.population, stepped.population);
        assert_eq!(blocking.ranked_labels(), stepped.ranked_labels(), "{what}");
    }
}

#[test]
fn round_updates_are_prefix_consistent_with_final_answer() {
    let engine = engine();
    let query = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0);
    let mut session = query.start(StdRng::seed_from_u64(7)).unwrap();
    let mut updates = Vec::new();
    for update in session.by_ref() {
        updates.push(update);
    }
    assert!(
        updates.len() >= 3,
        "expected ≥3 rounds, got {}",
        updates.len()
    );
    let answer = session.finish();

    let mut prev_fraction = -1.0f64;
    let mut prev_certified: Vec<usize> = Vec::new();
    for update in &updates {
        // fraction_sampled is monotone.
        assert!(
            update.fraction_sampled >= prev_fraction,
            "fraction_sampled regressed"
        );
        prev_fraction = update.fraction_sampled;
        // The certified set only grows, and certified estimates are frozen
        // at their final values — so every update's partial ordering is a
        // sub-ordering of the final answer's.
        let certified = update.snapshot.certified_order();
        for g in &prev_certified {
            assert!(certified.contains(g), "certified group {g} disappeared");
        }
        for &g in &certified {
            assert_eq!(
                update.snapshot.estimates[g], answer.result.estimates[g],
                "certified estimate for group {g} moved after freezing"
            );
        }
        // certified_order sorts by (frozen = final) estimate, so it is
        // automatically consistent with the final ranking; spot-check it.
        for pair in certified.windows(2) {
            assert!(
                answer.result.estimates[pair[0]] <= answer.result.estimates[pair[1]],
                "partial ordering disagrees with the final answer"
            );
        }
        prev_certified = certified;
    }
    // The last update certifies everyone.
    let last = updates.last().unwrap();
    assert_eq!(last.outcome, StepOutcome::Converged);
    assert_eq!(last.snapshot.certified_order().len(), 3);
    assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
}

#[test]
fn cancellation_mid_run_leaves_usable_snapshot_and_answer() {
    let engine = near_tie_engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .start(StdRng::seed_from_u64(8))
        .unwrap();
    for _ in 0..50 {
        let update = session.step();
        assert_eq!(
            update.outcome,
            StepOutcome::Running,
            "near-tie resolves too fast"
        );
    }
    // Mid-run snapshot is fully usable.
    let snap = session.snapshot();
    assert_eq!(snap.labels.len(), 2);
    assert!(snap.estimates.iter().all(|e| e.is_finite()));
    assert_eq!(snap.active_count(), 2, "near-tied groups still active");
    assert!(session.fraction_sampled() > 0.0);
    assert!(session.fraction_sampled() < 1.0);
    assert!(!session.is_finished());
    // Cancel: finish early and keep the best-effort answer.
    let answer = session.finish();
    assert_eq!(answer.outcome, StepOutcome::Running);
    assert!(!answer.converged());
    assert_eq!(answer.result.labels.len(), 2);
    assert!(answer.fraction_sampled() < 1.0);
    // Estimates are close to the true means even without the guarantee.
    for est in &answer.result.estimates {
        assert!((est - 50.0).abs() < 15.0, "estimate {est} implausible");
    }
}

#[test]
fn sample_budget_exhaustion_is_terminal_and_monotone() {
    let engine = near_tie_engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .max_samples(500)
        .start(StdRng::seed_from_u64(9))
        .unwrap();
    let mut prev_fraction = -1.0f64;
    let outcome = loop {
        let update = session.step();
        assert!(
            update.fraction_sampled >= prev_fraction,
            "fraction must be monotone"
        );
        prev_fraction = update.fraction_sampled;
        if update.outcome != StepOutcome::Running {
            break update.outcome;
        }
    };
    assert_eq!(outcome, StepOutcome::BudgetExhausted);
    let samples_at_stop = session.total_samples();
    // Budget overshoot is at most one round past the cap.
    assert!(samples_at_stop >= 500);
    assert!(
        samples_at_stop < 500 + 16,
        "overshot the cap by a whole round"
    );
    // Terminal state is idempotent: further steps do not advance.
    let again = session.step();
    assert_eq!(again.outcome, StepOutcome::BudgetExhausted);
    assert_eq!(session.total_samples(), samples_at_stop);
    // Session-budget truncation shows up in snapshots, not just the final
    // answer — a renderer can see the estimates are best-effort.
    assert!(again.snapshot.truncated);
    assert!(session.snapshot().truncated);
    // finish() returns a well-formed, truncated answer.
    let answer = session.finish();
    assert_eq!(answer.outcome, StepOutcome::BudgetExhausted);
    assert!(answer.result.truncated);
    assert!(answer.fraction_sampled() < 1.0);
    assert!(answer.fraction_sampled() > 0.0);
    assert_eq!(answer.ranked_labels().len(), 2);
}

#[test]
fn one_round_draws_at_most_each_groups_share_of_the_budget() {
    // The budget is checked between rounds and a round draws its batch from
    // every active group, so a batch as wide as the budget would draw k
    // times the budget in one round. The batch is clamped to ⌈cap / k⌉.
    let mut rng = StdRng::seed_from_u64(24);
    let table = FlightModel::new(24).to_table(30_000, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).unwrap();
    let cap = 2_000u64;
    let base = VizQuery::new(&engine)
        .group_by("name")
        .max_samples(cap)
        .samples_per_round(cap);
    for (what, query) in [
        ("avg", base.clone().avg("elapsed")),
        ("sum", base.clone().sum("elapsed")),
        ("count", base.count("elapsed")),
    ] {
        let mut session = query.start(StdRng::seed_from_u64(25)).unwrap();
        let k = session.snapshot().labels.len() as u64;
        let first = session.step();
        let bound = k + k * cap.div_ceil(k);
        assert!(
            first.total_samples <= bound,
            "{what}: the first round drew {} samples, more than {bound}",
            first.total_samples
        );
    }
}

#[test]
fn past_deadline_exhausts_before_the_first_round() {
    let engine = near_tie_engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .deadline(Instant::now() - Duration::from_millis(1))
        .start(StdRng::seed_from_u64(10))
        .unwrap();
    let bootstrap_samples = session.total_samples();
    assert_eq!(bootstrap_samples, 2, "only the bootstrap draw happened");
    let update = session.step();
    assert_eq!(update.outcome, StepOutcome::BudgetExhausted);
    assert_eq!(session.total_samples(), bootstrap_samples, "no round ran");
    let answer = session.finish();
    assert!(answer.result.truncated);
    assert!(answer.fraction_sampled() < 1.0);
}

#[test]
fn algorithm_choices_order_correctly_through_the_front_door() {
    let engine = engine();
    for (choice, exhaustive) in [
        (AlgorithmChoice::IRefine, false),
        (AlgorithmChoice::RoundRobin, false),
        (AlgorithmChoice::ExactScan, true),
    ] {
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .algorithm(choice)
            .execute(&mut StdRng::seed_from_u64(11))
            .unwrap();
        assert_eq!(
            answer.ranked_labels(),
            vec!["JB", "AA", "UA"],
            "{choice:?} mis-ordered"
        );
        if exhaustive {
            assert!((answer.fraction_sampled() - 1.0).abs() < 1e-12);
        } else {
            assert!(
                answer.fraction_sampled() < 1.0,
                "{choice:?} sampled everything"
            );
        }
    }
}

#[test]
fn scan_sessions_stream_one_exact_group_per_round() {
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .algorithm(AlgorithmChoice::ExactScan)
        .start(StdRng::seed_from_u64(12))
        .unwrap();
    let updates: Vec<_> = session.by_ref().collect();
    assert_eq!(updates.len(), 3, "one step per group");
    assert_eq!(updates[0].newly_certified.len(), 1);
    assert_eq!(updates.last().unwrap().outcome, StepOutcome::Converged);
    let answer = session.finish();
    assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
}

#[test]
fn unsupported_combinations_error_cleanly() {
    let engine = engine();
    let mut rng = StdRng::seed_from_u64(13);
    // Algorithm overrides are AVG-only.
    assert!(VizQuery::new(&engine)
        .group_by("name")
        .sum("delay")
        .algorithm(AlgorithmChoice::IRefine)
        .execute(&mut rng)
        .is_err());
    assert!(VizQuery::new(&engine)
        .group_by("name")
        .count("delay")
        .algorithm(AlgorithmChoice::RoundRobin)
        .execute(&mut rng)
        .is_err());
    // COUNT is single-attribute.
    assert!(VizQuery::new(&engine)
        .group_by("name")
        .group_by("name")
        .count("delay")
        .execute(&mut rng)
        .is_err());
    // COUNT lives on the fixed [0, 1] scale: a value bound is rejected
    // loudly instead of silently ignored.
    assert!(VizQuery::new(&engine)
        .group_by("name")
        .count("delay")
        .bound(1440.0)
        .execute(&mut rng)
        .is_err());
}

#[test]
fn post_terminal_steps_repeat_outcome_without_advancing() {
    // After natural convergence, step() keeps answering: the terminal
    // outcome repeats, the snapshot is frozen, and newly_certified is
    // empty on every repeated call.
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .start(StdRng::seed_from_u64(21))
        .unwrap();
    let terminal = loop {
        let update = session.step();
        if !update.outcome.is_running() {
            break update;
        }
    };
    assert_eq!(terminal.outcome, StepOutcome::Converged);
    let frozen = session.snapshot();
    for _ in 0..3 {
        let again = session.step();
        assert_eq!(again.outcome, StepOutcome::Converged, "outcome repeats");
        assert!(
            again.newly_certified.is_empty(),
            "nothing re-certifies after termination"
        );
        assert_eq!(again.round, terminal.round);
        assert_eq!(again.total_samples, terminal.total_samples);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&again.snapshot.estimates),
            bits(&frozen.estimates),
            "snapshot estimates must not move"
        );
        assert_eq!(again.snapshot.samples_per_group, frozen.samples_per_group);
        assert_eq!(again.snapshot.active, frozen.active);
        assert_eq!(again.snapshot.rounds, frozen.rounds);
    }
}

#[test]
fn post_terminal_steps_after_budget_exhaustion_are_frozen_too() {
    let engine = near_tie_engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .max_samples(400)
        .start(StdRng::seed_from_u64(22))
        .unwrap();
    let terminal = loop {
        let update = session.step();
        if !update.outcome.is_running() {
            break update;
        }
    };
    assert_eq!(terminal.outcome, StepOutcome::BudgetExhausted);
    // The terminal update itself may certify groups (the transition just
    // happened); every repeat after it must not.
    for _ in 0..3 {
        let again = session.step();
        assert_eq!(again.outcome, StepOutcome::BudgetExhausted);
        assert!(again.newly_certified.is_empty());
        assert_eq!(again.total_samples, terminal.total_samples);
        assert_eq!(again.round, terminal.round);
        assert!(again.snapshot.truncated);
    }
}

#[test]
fn tiny_population_fraction_is_clamped_to_one() {
    // COUNT draws with replacement: on a 30-row table a 200-sample budget
    // draws far more samples than there are rows, which used to push
    // fraction_sampled past 1.0. It must clamp (and stay monotone).
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    for i in 0..30 {
        let name = if i % 2 == 0 { "even" } else { "odd" };
        b.push_row(vec![name.into(), Value::Float(f64::from(i))]);
    }
    let engine = NeedleTail::new(b.finish(), &["name"]).unwrap();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .count("delay")
        .max_samples(200)
        .start(StdRng::seed_from_u64(23))
        .unwrap();
    let mut prev = -1.0f64;
    let outcome = loop {
        let update = session.step();
        assert!(
            update.fraction_sampled <= 1.0,
            "fraction {} exceeds 1.0",
            update.fraction_sampled
        );
        assert!(update.fraction_sampled >= prev, "fraction regressed");
        prev = update.fraction_sampled;
        if !update.outcome.is_running() {
            break update.outcome;
        }
    };
    assert_eq!(outcome, StepOutcome::BudgetExhausted);
    // More samples than rows were drawn, and every reading is clamped.
    assert!(session.total_samples() > session.population());
    assert_eq!(session.fraction_sampled(), 1.0);
    let answer = session.finish();
    assert_eq!(answer.fraction_sampled(), 1.0, "answer-side clamp too");
}

#[test]
fn session_iterator_terminates_after_terminal_update() {
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .resolution_pct(1.0)
        .start(StdRng::seed_from_u64(14))
        .unwrap();
    let updates: Vec<_> = session.by_ref().collect();
    assert!(!updates.is_empty());
    assert!(updates[..updates.len() - 1]
        .iter()
        .all(|u| u.outcome == StepOutcome::Running));
    assert_eq!(updates.last().unwrap().outcome, StepOutcome::Converged);
    // The iterator is fused after the terminal update...
    assert!(session.next().is_none());
    // ...but poll-style stepping still answers idempotently.
    assert_eq!(session.step().outcome, StepOutcome::Converged);
    assert!(session.is_finished());
}
