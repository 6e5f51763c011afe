//! Checkpoint/resume equivalence: a session checkpointed at **every** round
//! boundary, serialized, decoded, and resumed must replay the remaining
//! round stream bit-identically (`f64::to_bits`) to the uninterrupted
//! original — across every algorithm choice and aggregate.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rapidviz::needletail::{
    ColumnDef, DataType, NeedleTail, Predicate, Schema, SeededFaults, TableBuilder, Value,
};
use rapidviz::{
    AlgorithmChoice, CheckpointError, QuerySession, RoundUpdate, SessionCheckpoint, SimulatedClock,
    Snapshot, StepOutcome, VizQuery,
};
use std::sync::Arc;
use std::time::Duration;

fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    use rand::Rng;
    for _ in 0..1_500 {
        // Skewed group sizes (6:3:1) so COUNT's size ordering separates
        // quickly; means stay well apart so AVG/SUM converge fast too.
        let (name, mu) = match rng.gen_range(0..10) {
            0..=5 => ("AA", 60.0),
            6..=8 => ("UA", 85.0),
            _ => ("JB", 20.0),
        };
        let origin = ["BOS", "SFO"][rng.gen_range(0..2)];
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), origin.into(), Value::Float(delay)]);
    }
    NeedleTail::new(b.finish(), &["name"]).unwrap()
}

/// All query shapes under test: every AVG algorithm, SUM, and COUNT.
fn queries(engine: &NeedleTail) -> Vec<(&'static str, VizQuery<'_>)> {
    let avg = |alg: AlgorithmChoice| {
        VizQuery::new(engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(6.0)
            .samples_per_round(24)
            .algorithm(alg)
    };
    vec![
        ("avg/ifocus", avg(AlgorithmChoice::IFocus)),
        ("avg/irefine", avg(AlgorithmChoice::IRefine)),
        ("avg/roundrobin", avg(AlgorithmChoice::RoundRobin)),
        ("avg/scan", avg(AlgorithmChoice::ExactScan)),
        (
            "sum",
            VizQuery::new(engine)
                .group_by("name")
                .sum("delay")
                .bound(100.0)
                .resolution_pct(4.0)
                .samples_per_round(16),
        ),
        (
            "count",
            VizQuery::new(engine)
                .group_by("name")
                .count("delay")
                .resolution_pct(5.0)
                .samples_per_round(16),
        ),
        (
            "avg/filtered-multi",
            VizQuery::new(engine)
                .group_by("name")
                .group_by("origin")
                .avg("delay")
                .bound(100.0)
                .resolution_pct(8.0)
                .samples_per_round(16)
                .filter(Predicate::eq("origin", "BOS")),
        ),
        (
            "avg/budgeted",
            VizQuery::new(engine)
                .group_by("name")
                .avg("delay")
                .bound(100.0)
                .samples_per_round(16)
                .max_samples(400),
        ),
    ]
}

fn assert_snapshots_identical(label: &str, round: usize, a: &Snapshot, b: &Snapshot) {
    assert_eq!(a.labels, b.labels, "{label} round {round}: labels");
    assert_eq!(
        a.estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
        b.estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
        "{label} round {round}: estimates"
    );
    assert_eq!(a.active, b.active, "{label} round {round}: active");
    assert_eq!(
        a.samples_per_group, b.samples_per_group,
        "{label} round {round}: samples"
    );
    assert_eq!(a.rounds, b.rounds, "{label} round {round}: rounds");
    assert_eq!(a.truncated, b.truncated, "{label} round {round}: truncated");
}

fn assert_updates_identical(label: &str, round: usize, a: &RoundUpdate, b: &RoundUpdate) {
    assert_eq!(a.outcome, b.outcome, "{label} round {round}: outcome");
    assert_eq!(a.round, b.round, "{label} round {round}: round counter");
    assert_eq!(
        a.total_samples, b.total_samples,
        "{label} round {round}: total samples"
    );
    assert_eq!(
        a.newly_certified, b.newly_certified,
        "{label} round {round}: newly certified"
    );
    assert_snapshots_identical(label, round, &a.snapshot, &b.snapshot);
}

/// Steps a session to its terminal update, returning every update.
fn drive(session: &mut QuerySession) -> Vec<RoundUpdate> {
    let mut updates = Vec::new();
    loop {
        let u = session.step();
        let done = !u.outcome.is_running();
        updates.push(u);
        if done {
            break;
        }
        assert!(updates.len() < 100_000, "runaway session");
    }
    updates
}

#[test]
fn resume_is_bit_identical_at_every_round_boundary() {
    let engine = engine();
    for (label, query) in queries(&engine) {
        // Reference: the uninterrupted run.
        let mut reference = query
            .start(rand::rngs::StdRng::seed_from_u64(42))
            .unwrap_or_else(|e| panic!("{label}: start failed: {e}"));
        let ref_updates = drive(&mut reference);
        let ref_answer = reference.finish();
        let n = ref_updates.len();

        // Checkpoint at every boundary: after 0, 1, …, n steps.
        for boundary in 0..=n {
            let mut session = query.start(rand::rngs::StdRng::seed_from_u64(42)).unwrap();
            for (i, expected) in ref_updates.iter().take(boundary).enumerate() {
                let u = session.step();
                assert_updates_identical(label, i, &u, expected);
            }
            let ck = session
                .checkpoint()
                .unwrap_or_else(|e| panic!("{label} boundary {boundary}: checkpoint failed: {e}"));
            // Serialize through the binary format to prove the bytes carry
            // the full state, not just the in-memory struct.
            let decoded = SessionCheckpoint::from_bytes(&ck.to_bytes())
                .unwrap_or_else(|e| panic!("{label} boundary {boundary}: decode failed: {e}"));
            assert_eq!(decoded, ck, "{label} boundary {boundary}: byte round-trip");
            drop(session);

            let mut resumed = QuerySession::resume(&engine, &decoded)
                .unwrap_or_else(|e| panic!("{label} boundary {boundary}: resume failed: {e}"));
            for (i, expected) in ref_updates.iter().enumerate().skip(boundary) {
                let u = resumed.step();
                assert_updates_identical(label, i, &u, expected);
            }
            let answer = resumed.finish();
            assert_eq!(
                answer
                    .result
                    .estimates
                    .iter()
                    .map(|e| e.to_bits())
                    .collect::<Vec<_>>(),
                ref_answer
                    .result
                    .estimates
                    .iter()
                    .map(|e| e.to_bits())
                    .collect::<Vec<_>>(),
                "{label} boundary {boundary}: final estimates"
            );
            assert_eq!(answer.result.labels, ref_answer.result.labels);
            assert_eq!(
                answer.result.samples_per_group,
                ref_answer.result.samples_per_group
            );
            assert_eq!(answer.result.truncated, ref_answer.result.truncated);
            assert_eq!(answer.outcome, ref_answer.outcome);
            assert_eq!(answer.population, ref_answer.population);
        }
    }
}

#[test]
fn resumed_iterator_view_respects_delivered_terminal() {
    let engine = engine();
    let query = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .resolution_pct(4.0)
        .samples_per_round(16);
    let mut session = query.start(rand::rngs::StdRng::seed_from_u64(9)).unwrap();
    let updates = drive(&mut session);
    assert!(!updates.is_empty());
    // Terminal already delivered: the resumed iterator must yield nothing.
    let ck = session.checkpoint().unwrap();
    assert!(ck.delivered_terminal);
    let mut resumed = QuerySession::resume(&engine, &ck).unwrap();
    assert!(resumed.next().is_none(), "terminal was already delivered");
    assert!(resumed.is_finished());
}

#[test]
fn remaining_deadline_reanchors_on_resume() {
    let engine = engine();
    let clock = Arc::new(SimulatedClock::new());
    let query = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .samples_per_round(4)
        .timeout(Duration::from_millis(100))
        .clock(Arc::clone(&clock) as Arc<_>);
    let mut session = query.start(rand::rngs::StdRng::seed_from_u64(3)).unwrap();
    let u = session.step();
    assert_eq!(u.outcome, StepOutcome::Running);
    // 60 ms burn: 40 ms of budget left at checkpoint time.
    clock.advance(Duration::from_millis(60));
    let ck = session.checkpoint().unwrap();
    let remaining = ck.remaining.expect("deadline session stores remaining");
    assert_eq!(remaining, Duration::from_millis(40));

    // Resume against a fresh clock: the 40 ms re-anchor at its `now()`,
    // so 39 ms later the session still runs and 41 ms later it trips.
    let clock2 = Arc::new(SimulatedClock::new());
    let mut resumed =
        QuerySession::resume_with_clock(&engine, &ck, Arc::clone(&clock2) as Arc<_>).unwrap();
    clock2.advance(Duration::from_millis(39));
    assert_eq!(resumed.step().outcome, StepOutcome::Running);
    clock2.advance(Duration::from_millis(2));
    assert_eq!(resumed.step().outcome, StepOutcome::BudgetExhausted);
}

/// An RNG the checkpoint layer cannot introspect.
struct OpaqueRng(u64);

impl RngCore for OpaqueRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        // Weyl sequence: good enough to drive sampling in a test.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0
    }
}

#[test]
fn opaque_rng_sessions_run_but_refuse_to_checkpoint() {
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .resolution_pct(4.0)
        .samples_per_round(16)
        .start(OpaqueRng(7))
        .unwrap();
    let u = session.step();
    assert!(u.total_samples > 0, "opaque-RNG session still samples");
    assert_eq!(
        session.checkpoint().unwrap_err(),
        CheckpointError::OpaqueRng
    );
}

#[test]
fn resume_rejects_group_count_drift() {
    // Checkpoint against the 3-airline engine, resume against an engine
    // whose group-by column has a different cardinality: structured error.
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .samples_per_round(8)
        .start(rand::rngs::StdRng::seed_from_u64(1))
        .unwrap();
    session.step();
    let ck = session.checkpoint().unwrap();

    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    for (n, d) in [("AA", 30.0), ("JB", 10.0)] {
        b.push_row(vec![n.into(), "BOS".into(), Value::Float(d)]);
    }
    let drifted = NeedleTail::new(b.finish(), &["name"]).unwrap();
    let err = QuerySession::resume(&drifted, &ck).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "expected a shape error, got {err:?}"
    );
}

/// A mid-run checkpoint of a budgeted AVG session.
fn mid_run_checkpoint(engine: &NeedleTail) -> SessionCheckpoint {
    let mut session = VizQuery::new(engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .resolution_pct(6.0)
        .samples_per_round(24)
        .max_samples(100_000)
        .start(rand::rngs::StdRng::seed_from_u64(42))
        .unwrap();
    for _ in 0..3 {
        assert!(session.step().outcome.is_running());
    }
    session.checkpoint().unwrap()
}

fn assert_refused(engine: &NeedleTail, ck: &SessionCheckpoint, what: &str) {
    match QuerySession::resume(engine, ck) {
        Err(CheckpointError::Mismatch(msg)) => {
            assert!(msg.contains(what), "expected {what:?} in {msg:?}");
        }
        other => panic!("expected a Mismatch about {what:?}, got {other:?}"),
    }
}

#[test]
fn recipes_that_do_not_replay_are_refused() {
    let engine = engine();
    let good = mid_run_checkpoint(&engine);
    assert!(QuerySession::resume(&engine, &good).is_ok());

    // More steps than the run has: the replay stops at the run's natural
    // end (or its sample budget) instead of spinning on a finished stepper.
    for steps in [good.steps + 10_000, u64::MAX] {
        let past_the_end = SessionCheckpoint {
            steps,
            ..good.clone()
        };
        assert_refused(&engine, &past_the_end, "the run ends after");
    }
    let unbudgeted = SessionCheckpoint {
        steps: u64::MAX,
        spec: rapidviz::QuerySpec {
            max_samples: None,
            ..good.spec.clone()
        },
        ..good.clone()
    };
    assert_refused(&engine, &unbudgeted, "the run ends after");

    let wrong_samples = SessionCheckpoint {
        total_samples: good.total_samples + 1,
        ..good.clone()
    };
    assert_refused(&engine, &wrong_samples, "samples");

    let wrong_groups = SessionCheckpoint {
        groups: good.groups + 1,
        ..good.clone()
    };
    assert_refused(&engine, &wrong_groups, "groups");

    // A recorded outcome the replay does not reach is not taken on trust.
    let wrong_outcome = SessionCheckpoint {
        terminal: Some(StepOutcome::Converged),
        ..good.clone()
    };
    assert_refused(&engine, &wrong_outcome, "replay ends");
}

/// A v2 checkpoint of a sampled COUNT session over [`engine`] (three steps
/// of `count("delay")` at 5 % resolution and 16 samples per round, seed
/// 42), as the size-estimating COUNT path wrote it: 147 samples drawn.
const SAMPLED_COUNT_RECIPE: &str = "5256434b0200000001000000040000006e616d650500000064656c6179\
    0200009a9999999999a93f019a9999999999a93f0001100000000000000000956eeb2f2632d7bd03f166b2\
    33e3ef28529f0f135767524794e34a0effe11c5803000000000000000300000000000000930000000000000000\
    000000";

#[test]
fn stale_sampled_count_recipes_are_refused() {
    let hex = SAMPLED_COUNT_RECIPE;
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let stale = SessionCheckpoint::from_bytes(&bytes).expect("a well-formed v2 recipe");
    assert_eq!((stale.steps, stale.total_samples), (3, 147));
    // COUNT is now read from the plan and draws nothing, so the recipe
    // cannot replay: it fails closed instead of resuming a different run.
    assert_refused(&engine(), &stale, "the run ends after 1 steps");
}

#[test]
fn checkpoint_size_does_not_grow_with_samples_drawn() {
    // Without-replacement AVG: the recipe does not grow with the draws
    // (nor does the sampler, whose state is its key and draw count).
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("delay")
        .bound(100.0)
        .samples_per_round(4)
        .max_samples(1_200)
        .start(rand::rngs::StdRng::seed_from_u64(11))
        .unwrap();
    session.step();
    let first = session.checkpoint().unwrap();
    let updates = drive(&mut session);
    assert!(updates.len() > 20, "the session ran on for many rounds");
    let last = session.checkpoint().unwrap();
    assert!(last.total_samples > 10 * first.total_samples);
    assert_eq!(first.approx_bytes(), last.approx_bytes());
    assert_eq!(first.to_bytes().len(), last.to_bytes().len());
}

#[test]
fn replay_crosses_cold_caches_and_withheld_reads() {
    // 5% of row reads fail (purely a function of the row), and the
    // planning caches are dropped between checkpoint and resume: the
    // replay re-plans cold, hits the same withheld reads, and continues
    // the same stream.
    let mut engine = engine();
    engine.set_fault_injector(Arc::new(SeededFaults::new(9, 0.05)));
    for (label, query) in queries(&engine) {
        let mut reference = query.start(rand::rngs::StdRng::seed_from_u64(7)).unwrap();
        let ref_updates = drive(&mut reference);
        let boundary = ref_updates.len() / 2;

        let mut session = query.start(rand::rngs::StdRng::seed_from_u64(7)).unwrap();
        for _ in 0..boundary {
            session.step();
        }
        let ck = session.checkpoint().unwrap();
        drop(session);
        engine.clear_plan_caches();

        let mut resumed = QuerySession::resume(&engine, &ck)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        for (i, expected) in ref_updates.iter().enumerate().skip(boundary) {
            assert_updates_identical(label, i, &resumed.step(), expected);
        }
    }
    assert!(
        engine.metrics().snapshot().faulted_reads > 0,
        "the injector withheld reads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tables, random seeds, random pause points: the resumed
    /// suffix stream matches the uninterrupted one bit-for-bit.
    #[test]
    fn random_sessions_resume_bit_identically(
        rows in proptest::collection::vec((0usize..4, 0.0f64..100.0), 40..300),
        seed in 0u64..1_000,
        pause_fraction in 0.0f64..1.0,
    ) {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("y", DataType::Float),
        ]));
        for &(g, y) in &rows {
            b.push_row(vec![Value::Str(format!("group{g}")), Value::Float(y)]);
        }
        let engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
        let query = VizQuery::new(&engine)
            .group_by("g")
            .avg("y")
            .bound(110.0)
            .resolution_pct(10.0)
            .samples_per_round(4)
            .max_samples(2_000);

        let mut reference = query.start(rand::rngs::StdRng::seed_from_u64(seed)).unwrap();
        let ref_updates = drive(&mut reference);
        let boundary = ((ref_updates.len() as f64) * pause_fraction) as usize;

        let mut session = query.start(rand::rngs::StdRng::seed_from_u64(seed)).unwrap();
        for _ in 0..boundary {
            session.step();
        }
        let ck = SessionCheckpoint::from_bytes(&session.checkpoint().unwrap().to_bytes()).unwrap();
        let mut resumed = QuerySession::resume(&engine, &ck).unwrap();
        for (i, expected) in ref_updates.iter().enumerate().skip(boundary) {
            let u = resumed.step();
            prop_assert_eq!(u.outcome, expected.outcome, "round {}", i);
            prop_assert_eq!(
                u.snapshot.estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                expected.snapshot.estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                "round {}",
                i
            );
            prop_assert_eq!(&u.snapshot.samples_per_group, &expected.snapshot.samples_per_group);
        }
    }
}
