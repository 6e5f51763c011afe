//! End-to-end regression tests for the zero-copy plan cache (PR 5): a
//! query planned from a warm cache (a cached group plan) must produce **byte-identical** fixed-seed answers to the same
//! query planned cold — same RNG stream, same draw order, same estimates
//! down to the last bit (compared via `f64::to_bits`). If the cache ever
//! changed group order, eligible counts, or the select() mapping, these
//! tests fail loudly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Predicate, Schema, TableBuilder};
use rapidviz::{MultiQueryScheduler, QueryAnswer, SchedulePolicy, VizQuery};

fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(500);
    for _ in 0..30_000 {
        let (name, mu) = [("AA", 60.0), ("JB", 20.0), ("UA", 85.0)][rng.gen_range(0..3)];
        let origin = ["BOS", "SFO", "LAX"][rng.gen_range(0..3)];
        let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), origin.into(), delay.into()]);
    }
    NeedleTail::new(b.finish(), &["name", "origin"]).unwrap()
}

fn estimate_bits(answer: &QueryAnswer) -> Vec<(String, u64)> {
    answer
        .result
        .labels
        .iter()
        .cloned()
        .zip(answer.result.estimates.iter().map(|e| e.to_bits()))
        .collect()
}

#[test]
fn warm_plan_execute_is_bit_identical_to_cold() {
    let shared = engine();
    let query = |e: &NeedleTail| {
        VizQuery::new(e)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(1.0)
            .filter(Predicate::eq("origin", "BOS").and(Predicate::le("delay", 100.0)))
            .execute(&mut StdRng::seed_from_u64(42))
            .unwrap()
    };
    let cold = query(&shared); // first call: caches empty
    let warm = query(&shared); // second call: plan cache hit
    let recold = query(&engine()); // fresh engine: cold again
    assert_eq!(cold.ranked_labels(), vec!["JB", "AA", "UA"]);
    assert_eq!(estimate_bits(&cold), estimate_bits(&warm));
    assert_eq!(estimate_bits(&cold), estimate_bits(&recold));
    assert_eq!(cold.result.total_samples(), warm.result.total_samples());
}

#[test]
fn warm_plan_multi_attribute_session_is_bit_identical_to_cold() {
    let shared = engine();
    let run = |e: &NeedleTail| {
        let mut session = VizQuery::new(e)
            .group_by("name")
            .group_by("origin")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(2.0)
            .filter(Predicate::eq("origin", "BOS").or(Predicate::eq("origin", "SFO")))
            .start(StdRng::seed_from_u64(7))
            .unwrap();
        while session.step().outcome.is_running() {}
        session.finish()
    };
    let cold = run(&shared);
    let warm = run(&shared);
    assert_eq!(
        cold.result.labels.len(),
        6,
        "LAX cells are emptied by the filter"
    );
    assert_eq!(estimate_bits(&cold), estimate_bits(&warm));
}

#[test]
fn scheduler_fanout_over_shared_predicate_matches_standalone() {
    // The motivating workload: a four-tile dashboard sharing one WHERE
    // clause. The second/third/fourth admissions plan entirely from cache;
    // every tile's answer must still be byte-identical to the same session
    // run standalone against a fresh (cold) engine.
    let filter = Predicate::eq("origin", "SFO");
    let make = |e: &NeedleTail, seed: u64| {
        VizQuery::new(e)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(1.0)
            .filter(filter.clone())
            .start(StdRng::seed_from_u64(seed))
            .unwrap()
    };

    let warm_engine = engine();
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let ids: Vec<_> = (0..4)
        .map(|i| sched.admit(make(&warm_engine, 100 + i)))
        .collect();
    sched.run(|_| {});
    let mut scheduled: Vec<(rapidviz::QueryId, QueryAnswer)> = sched.finish_all();

    let cold_engine = engine();
    for (i, id) in ids.iter().enumerate() {
        let mut standalone = make(&cold_engine, 100 + i as u64);
        while standalone.step().outcome.is_running() {}
        let reference = standalone.finish();
        let (sched_id, scheduled_answer) = scheduled.remove(0);
        assert_eq!(sched_id, *id);
        assert_eq!(
            estimate_bits(&reference),
            estimate_bits(&scheduled_answer),
            "tile {i} must be unperturbed by cache sharing and scheduling"
        );
    }
}

#[test]
fn clearing_caches_mid_stream_does_not_perturb_results() {
    let shared = engine();
    let query = |e: &NeedleTail, seed: u64| {
        VizQuery::new(e)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(1.0)
            .filter(Predicate::eq("origin", "LAX"))
            .execute(&mut StdRng::seed_from_u64(seed))
            .unwrap()
    };
    let warm = query(&shared, 9); // populate
    let warm2 = query(&shared, 9); // cache hit
    shared.clear_plan_caches();
    let recold = query(&shared, 9); // rebuilt from scratch
    assert_eq!(estimate_bits(&warm), estimate_bits(&warm2));
    assert_eq!(estimate_bits(&warm), estimate_bits(&recold));
}

#[test]
fn planning_stats_distinguish_cold_from_warm_sessions() {
    let shared = engine();
    for count in [false, true] {
        let start = |e: &NeedleTail, seed: u64| {
            let q = VizQuery::new(e)
                .group_by("name")
                .filter(Predicate::eq("origin", "BOS"))
                .max_samples(2_000);
            let q = if count {
                q.count("delay")
            } else {
                q.avg("delay").bound(100.0)
            };
            q.start(StdRng::seed_from_u64(seed)).unwrap()
        };
        shared.clear_plan_caches();

        // Cold: the group plan is built from scratch — a miss, no full warmth.
        let cold = start(&shared, 1).planning_stats();
        assert!(cold.plan_misses >= 1, "cold plan should miss: {cold:?}");
        assert!(!cold.fully_warm());

        // Warm repeat: every planning structure comes out of the caches.
        let warm = start(&shared, 2).planning_stats();
        assert!(warm.plan_hits >= 1, "warm repeat should hit: {warm:?}");
        assert_eq!(warm.plan_misses, 0, "{warm:?}");
        assert!(warm.fully_warm(), "{warm:?}");

        // The same stats surface through the scheduler's per-session view.
        let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
        let id = sched.admit(start(&shared, 3));
        let stats = sched.stats(id).unwrap();
        assert!(stats.planning.fully_warm(), "{:?}", stats.planning);

        // Clearing the caches makes the next session plan cold again.
        shared.clear_plan_caches();
        let recold = start(&shared, 4).planning_stats();
        assert!(recold.plan_misses >= 1, "{recold:?}");
        assert!(!recold.fully_warm());
    }
}
