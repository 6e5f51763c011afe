//! Resumable-session semantics: fixed-seed equivalence with the blocking
//! path (and with verbatim pre-refactor reference loops), prefix-consistent
//! partial orderings, cancellation, and budget exhaustion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::IFocusSum1;
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

/// COUNT is read from the plan: every estimate is, to the bit, the group's
/// row count as a full scan reports it over the table's row count, for
/// unfiltered, filtered and two-attribute queries. The session draws
/// nothing and streams one terminal round that certifies every group.
#[test]
fn execute_count_matches_reference_loop() {
    let engine = two_attribute_engine();
    let rows = engine.table().row_count() as f64;
    let scan = |predicate: &Predicate, suffix: &str| -> Vec<(String, u64)> {
        engine
            .scan("name", "delay", predicate)
            .unwrap()
            .into_iter()
            .map(|g| (format!("{}{suffix}", g.group), g.count))
            .collect()
    };
    let bos = Predicate::eq("origin", "BOS");
    let base = VizQuery::new(&engine).group_by("name");
    let cases = [
        (base.clone(), scan(&Predicate::True, "")),
        (base.clone().filter(bos.clone()), scan(&bos, "")),
        (base.group_by("origin"), {
            let mut cells = scan(&bos, "|BOS");
            cells.extend(scan(&Predicate::eq("origin", "SFO"), "|SFO"));
            cells
        }),
    ];
    for (query, reference) in cases {
        let query = query.count("delay");
        let answer = query.execute(&mut StdRng::seed_from_u64(44)).unwrap();
        assert!(answer.converged());
        assert_eq!(answer.result.total_samples(), 0);
        assert_eq!(answer.result.labels.len(), reference.len());
        for (label, count) in &reference {
            let i = answer
                .result
                .labels
                .iter()
                .position(|l| l == label)
                .unwrap();
            assert_eq!(
                answer.result.estimates[i].to_bits(),
                (*count as f64 / rows).to_bits(),
                "{label}"
            );
        }

        let mut session = query.start(StdRng::seed_from_u64(44)).unwrap();
        let updates: Vec<_> = session.by_ref().collect();
        assert_eq!(updates.len(), 1, "one terminal round");
        let update = &updates[0];
        assert_eq!(update.outcome, StepOutcome::Converged);
        assert_eq!(update.total_samples, 0);
        let every: Vec<usize> = (0..reference.len()).collect();
        assert_eq!(update.newly_certified, every);
        assert_same_run(&session.finish().result, &answer.result);
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
fn scan_sessions_charge_scanned_rows_not_samples() {
    let engine = engine();
    let rows = engine.table().row_count();
    let query = || {
        VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .algorithm(AlgorithmChoice::ExactScan)
    };
    let before = engine.metrics().snapshot();
    let answer = query().execute(&mut StdRng::seed_from_u64(12)).unwrap();
    let after = engine.metrics().snapshot();
    assert_eq!(after.rows_scanned - before.rows_scanned, rows);
    assert_eq!(after.random_samples, before.random_samples);
    assert_eq!(after.index_probes, before.index_probes);
    // Rows read still count as samples per group, so a full scan has
    // sampled everything...
    assert_eq!(answer.result.total_samples(), rows);
    assert_eq!(answer.fraction_sampled(), 1.0);
    // ...and a sample budget stops it between groups.
    let mut session = query()
        .max_samples(1)
        .start(StdRng::seed_from_u64(12))
        .unwrap();
    let outcomes: Vec<StepOutcome> = session.by_ref().map(|u| u.outcome).collect();
    assert_eq!(
        outcomes,
        [StepOutcome::Running, StepOutcome::BudgetExhausted]
    );
    let answer = session.finish();
    let spg = &answer.result.samples_per_group;
    assert!(spg[0] > 0 && spg[1..] == [0, 0], "{spg:?}");
    assert!(answer.result.truncated);
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
    // On a 30-row table a 200-sample budget outlasts the data: the session
    // draws every row, and fraction_sampled must reach exactly 1.0 without
    // ever passing it (and stay monotone on the way).
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
        .avg("delay")
        .samples_per_round(4)
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
    assert_eq!(outcome, StepOutcome::Converged);
    // Every row was drawn, and every reading is clamped.
    assert_eq!(session.total_samples(), session.population());
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

/// 20k rows over two attributes: three airlines with separated delay
/// rates, two origins.
fn two_attribute_engine() -> NeedleTail {
    NeedleTail::new(two_attribute_table(), &["name"]).unwrap()
}

fn two_attribute_table() -> rapidviz::needletail::Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..20_000 {
        let (name, mu) = [("AA", 60.0), ("JB", 20.0), ("UA", 85.0)][rng.gen_range(0..3)];
        let origin = ["BOS", "SFO"][rng.gen_range(0..2)];
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), origin.into(), Value::Float(delay)]);
    }
    b.finish()
}

/// `fnv1a64` over every round a session streams: the outcome, the round
/// and sample counters, every estimate and interval endpoint as bits, the
/// active set, the per-group samples and the newly certified groups.
fn session_digest(mut session: rapidviz::QuerySession) -> u64 {
    let mut bytes = Vec::new();
    for update in session.by_ref() {
        bytes.push(update.outcome.code());
        bytes.extend_from_slice(&update.round.to_le_bytes());
        bytes.extend_from_slice(&update.total_samples.to_le_bytes());
        let snap = &update.snapshot;
        for (e, iv) in snap.estimates.iter().zip(&snap.intervals) {
            for x in [e, &iv.lo, &iv.hi] {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        bytes.extend(snap.active.iter().map(|&a| u8::from(a)));
        for m in &snap.samples_per_group {
            bytes.extend_from_slice(&m.to_le_bytes());
        }
        for &g in &update.newly_certified {
            bytes.extend_from_slice(&(g as u64).to_le_bytes());
        }
    }
    rapidviz::needletail::codec::fnv1a64(&bytes)
}

/// Every round of AVG and SUM sessions, unfiltered, filtered and grouped
/// by two attributes, at one and at 256 samples per round, is pinned: a
/// change to planning, sampling or the session layer that moves one bit
/// of an AVG or SUM stream fails here.
#[test]
fn avg_and_sum_session_rounds_are_pinned() {
    let engine = two_attribute_engine();
    let mut got = Vec::new();
    for (a, sum) in [false, true].into_iter().enumerate() {
        for shape in 0..3u64 {
            for spr in [1, 256] {
                let mut q = VizQuery::new(&engine).group_by("name");
                q = match shape {
                    0 => q,
                    1 => q.filter(Predicate::eq("origin", "BOS")),
                    _ => q.group_by("origin"),
                };
                q = if sum { q.sum("delay") } else { q.avg("delay") };
                let seed = 3_000 + 100 * a as u64 + 10 * shape + spr % 7;
                let session = q
                    .resolution_pct(5.0)
                    .samples_per_round(spr)
                    .max_samples(40_000)
                    .start(StdRng::seed_from_u64(seed))
                    .unwrap();
                got.push(session_digest(session));
            }
        }
    }
    // AVG, then SUM; unfiltered, filtered, two attributes; spr 1, 256.
    // The unfiltered groups of the clustered `name` are row ranges of at
    // most ~6,700 rows, read whole in the first step at 5 %, so the batch
    // size moves no bit; filtered (windows) and two-attribute groups are
    // sampled, as they were before any group was read whole.
    let golden: [u64; 12] = [
        0xa58c_9c33_6a6b_9ad7,
        0xa58c_9c33_6a6b_9ad7,
        0x58a3_985a_54ff_1a9b,
        0xd844_70f0_c794_8430,
        0x29ef_5e9b_4ea8_e4a2,
        0xc3d1_cc4d_1c9b_3564,
        0x12e2_2ece_119d_de84,
        0x12e2_2ece_119d_de84,
        0xae95_861f_1d23_8bb8,
        0xcd9b_23dd_0b1a_1fb1,
        0x9768_d2a5_1b70_36ac,
        0x9559_86e2_2c23_b232,
    ];
    assert_eq!(got, golden, "got {got:#x?}");
}

/// The same AVG and SUM sessions without a resolution: no group is read
/// whole, so every round is sampled, and these pins hold across any change
/// that decides which groups a relaxed session reads whole.
#[test]
fn unrelaxed_avg_and_sum_session_rounds_are_pinned() {
    let engine = two_attribute_engine();
    let mut got = Vec::new();
    for (a, sum) in [false, true].into_iter().enumerate() {
        for shape in 0..3u64 {
            for spr in [1, 256] {
                let mut q = VizQuery::new(&engine).group_by("name");
                q = match shape {
                    0 => q,
                    1 => q.filter(Predicate::eq("origin", "BOS")),
                    _ => q.group_by("origin"),
                };
                q = if sum { q.sum("delay") } else { q.avg("delay") };
                let seed = 3_500 + 100 * a as u64 + 10 * shape + spr % 7;
                let session = q
                    .samples_per_round(spr)
                    .max_samples(40_000)
                    .start(StdRng::seed_from_u64(seed))
                    .unwrap();
                got.push(session_digest(session));
            }
        }
    }
    // AVG, then SUM; unfiltered, filtered, two attributes; spr 1, 256.
    let golden: [u64; 12] = [
        0x63be_e0d5_181e_3bf8,
        0xa206_62de_55f7_7b0a,
        0xa4ed_ac2b_c487_ab9c,
        0x5b2a_bd65_50ec_71d5,
        0x6ffd_1616_81a4_05ad,
        0x3566_51c3_6dc5_c18f,
        0x92e0_fd79_6805_3023,
        0xf706_bc41_7b75_6ea1,
        0x196d_3f96_29a6_3108,
        0x8604_bdf8_3eed_12ea,
        0x15ad_1a39_d087_cccd,
        0xab6f_9ec6_b479_dfff,
    ];
    assert_eq!(got, golden, "got {got:#x?}");
}

/// Every round of SCAN sessions over the two-attribute table is pinned:
/// grouped by the clustered `name` unfiltered and under `origin = BOS`, by
/// `(name, origin)`, and by the unclustered `origin`, each fault-free and
/// with 5 % of row reads dropped.
#[test]
fn scan_session_rounds_are_pinned() {
    let mut engine = NeedleTail::new(two_attribute_table(), &["name", "origin"]).unwrap();
    let mut got = Vec::new();
    for faulted in [false, true] {
        if faulted {
            engine.set_fault_injector(std::sync::Arc::new(
                rapidviz::needletail::SeededFaults::new(7, 0.05),
            ));
        }
        for shape in 0..4u64 {
            let q = VizQuery::new(&engine);
            let q = match shape {
                0 => q.group_by("name"),
                1 => q.group_by("name").filter(Predicate::eq("origin", "BOS")),
                2 => q.group_by("name").group_by("origin"),
                _ => q.group_by("origin"),
            };
            let session = q
                .avg("delay")
                .algorithm(AlgorithmChoice::ExactScan)
                .start(StdRng::seed_from_u64(3_400 + shape))
                .unwrap();
            got.push(session_digest(session));
        }
    }
    // Fault-free, then faulted; `name`, `name` under `origin = BOS`,
    // `(name, origin)`, `origin`.
    let golden: [u64; 8] = [
        0x18a6_c165_98cc_0723,
        0xec97_bc4a_64e1_965a,
        0xeb5d_b609_1f58_17b0,
        0xc5a9_a393_bdd1_9131,
        0xb5a0_9d46_dbcf_9e80,
        0x508a_122a_c692_b1c7,
        0x3f4d_0f0e_31b0_3bc1,
        0x43f4_b307_0ea6_aaf3,
    ];
    assert_eq!(got, golden, "got {got:#x?}");
}
