//! End-to-end pipelines: datagen → NEEDLETAIL engine → sampling algorithms,
//! validated against the SCAN ground truth.

use rand::SeedableRng;
use rapidviz::core::{
    is_correctly_ordered, is_correctly_ordered_with_resolution, AlgoConfig, GroupSource, IFocus,
    IRefine, RoundRobin,
};
use rapidviz::datagen::{DatasetSpec, FlightModel, WorkloadFamily};
use rapidviz::needletail::{NeedleTail, Predicate};
use rapidviz::query_groups;

fn engine_from_spec(spec: &DatasetSpec, seed: u64) -> NeedleTail {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let table = spec.to_table(&mut rng);
    NeedleTail::new(table, &["g"]).expect("engine builds")
}

#[test]
fn ifocus_on_engine_matches_scan_ordering() {
    let spec = DatasetSpec::generate(WorkloadFamily::Bernoulli, 6, 120_000, 17);
    let engine = engine_from_spec(&spec, 18);
    let mut groups = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();

    // Ground truth via the engine's scan path.
    let scan = engine.scan("g", "y", &Predicate::True).unwrap();
    for (g, s) in groups.iter().zip(&scan) {
        assert_eq!(g.label(), s.group.to_string());
        assert!((g.true_mean().unwrap() - s.mean().unwrap()).abs() < 1e-9);
    }

    let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let result = algo.run(&mut groups, &mut rng);
    assert!(is_correctly_ordered(&result.estimates, &truths));
    assert!(
        result.total_samples() < spec.total_records(),
        "must not read everything"
    );
}

#[test]
fn all_three_algorithms_agree_with_ground_truth_on_engine() {
    let spec = DatasetSpec::generate(WorkloadFamily::TruncNorm, 5, 100_000, 23);
    let engine = engine_from_spec(&spec, 24);
    let truths: Vec<f64> = query_groups(&engine, "g", "y", &Predicate::True)
        .unwrap()
        .iter()
        .map(|g| g.true_mean().unwrap())
        .collect();

    let config = AlgoConfig::new(100.0, 0.05).with_resolution(0.5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);

    let mut g1 = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    let r1 = IFocus::new(config.clone()).run(&mut g1, &mut rng);
    assert!(is_correctly_ordered_with_resolution(
        &r1.estimates,
        &truths,
        0.5
    ));

    let mut g2 = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    let r2 = IRefine::new(config.clone()).run(&mut g2, &mut rng);
    assert!(is_correctly_ordered_with_resolution(
        &r2.estimates,
        &truths,
        0.5
    ));

    let mut g3 = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    let r3 = RoundRobin::new(config).run(&mut g3, &mut rng);
    assert!(is_correctly_ordered_with_resolution(
        &r3.estimates,
        &truths,
        0.5
    ));
}

#[test]
fn selection_predicate_pipeline() {
    // §6.3.3: the WHERE clause changes the eligible rows and therefore the
    // true means; the guarantee must hold for the filtered query.
    let model = FlightModel::new(31);
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);
    let table = model.to_table(150_000, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).unwrap();
    let pred = Predicate::ge("dep_delay", 20.0);

    let mut groups = query_groups(&engine, "name", "arr_delay", &pred).unwrap();
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
    // Filtered group sizes must match a row-level count (scan returns
    // groups in first-appearance order, the index in sorted order — compare
    // by label).
    let scan = engine.scan("name", "arr_delay", &pred).unwrap();
    for g in &groups {
        let scan_count = scan
            .iter()
            .find(|a| a.group.to_string() == g.label())
            .map(|a| a.count)
            .unwrap_or(0);
        assert_eq!(g.len(), scan_count, "size mismatch for {}", g.label());
    }

    let algo = IFocus::new(AlgoConfig::new(1440.0, 0.05).with_resolution(14.4));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(33);
    let result = algo.run(&mut groups, &mut run_rng);
    assert!(is_correctly_ordered_with_resolution(
        &result.estimates,
        &truths,
        14.4
    ));
}

#[test]
fn multi_group_by_cross_product() {
    // §6.3.4: GROUP BY name, bucket expressed as one group per cross-product
    // cell, built from indexes on both attributes.
    use rapidviz::needletail::{ColumnDef, DataType, Schema, TableBuilder, Value};
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("bucket", DataType::Int),
        ColumnDef::new("y", DataType::Float),
    ]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    use rand::Rng;
    for _ in 0..60_000 {
        let name = ["A", "B"][rng.gen_range(0..2)];
        let bucket = rng.gen_range(0..3i64);
        // Mean depends on the cell: clearly separated cells.
        let mu = match (name, bucket) {
            ("A", 0) => 10.0,
            ("A", 1) => 30.0,
            ("A", 2) => 50.0,
            ("B", 0) => 65.0,
            ("B", 1) => 80.0,
            _ => 92.0,
        };
        let v = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![name.into(), Value::Int(bucket), Value::Float(v)]);
    }
    let engine = NeedleTail::new(b.finish(), &["name", "bucket"]).unwrap();

    // One handle per (name, bucket) cell via predicates on the other column.
    let mut groups = Vec::new();
    for bucket in 0..3i64 {
        let pred = Predicate::eq("bucket", Value::Int(bucket));
        let cells = query_groups(&engine, "name", "y", &pred).unwrap();
        groups.extend(cells);
    }
    assert_eq!(groups.len(), 6, "2 names x 3 buckets");
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();

    let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(42);
    let result = algo.run(&mut groups, &mut run_rng);
    assert!(is_correctly_ordered(&result.estimates, &truths));
}

#[test]
fn skewed_dataset_pipeline() {
    let spec = DatasetSpec::generate_skewed(WorkloadFamily::Bernoulli, 5, 200_000, 0.8, 51);
    let engine = engine_from_spec(&spec, 52);
    let mut groups = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    // First group really is dominant.
    assert!(groups[0].len() > 150_000);
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
    let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let result = algo.run(&mut groups, &mut rng);
    assert!(is_correctly_ordered(&result.estimates, &truths));
}

#[test]
fn metrics_account_for_algorithm_samples() {
    let spec = DatasetSpec::generate(WorkloadFamily::Bernoulli, 4, 80_000, 61);
    let engine = engine_from_spec(&spec, 62);
    engine.metrics().reset();
    let mut groups = query_groups(&engine, "g", "y", &Predicate::True).unwrap();
    let algo = IFocus::new(AlgoConfig::new(100.0, 0.05));
    let mut rng = rand::rngs::StdRng::seed_from_u64(63);
    let result = algo.run(&mut groups, &mut rng);
    let snap = engine.metrics().snapshot();
    assert_eq!(
        snap.random_samples,
        result.total_samples(),
        "engine-side sample accounting must equal the algorithm's"
    );
}

#[test]
fn a_dropped_read_never_certifies_a_group_as_exact() {
    // Two groups of 20,000 rows with near-equal means, 5 % of reads
    // dropped. A group the fault injector stops early is not exact: it
    // keeps at least the width the schedule grants for the samples it
    // delivered, and the run ends truncated instead of converged.
    use rapidviz::needletail::{ColumnDef, DataType, Schema, SeededFaults, TableBuilder};
    use rapidviz::stats::EpsilonSchedule;
    use rapidviz::{StepOutcome, VizQuery};
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..40_000u32 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![g.into(), f64::from(i % 100).into()]);
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).expect("engine builds");
    engine.set_fault_injector(std::sync::Arc::new(SeededFaults::new(7, 0.05)));
    let schedule = EpsilonSchedule::new(100.0, 0.05, 2);
    for spr in [1, 64] {
        let mut session = VizQuery::new(&engine)
            .group_by("g")
            .avg("v")
            .bound(100.0)
            .samples_per_round(spr)
            .start(rand::rngs::StdRng::seed_from_u64(5))
            .unwrap();
        let outcome = loop {
            let update = session.step();
            if !update.outcome.is_running() {
                break update.outcome;
            }
        };
        let snap = session.snapshot();
        assert_eq!(outcome, StepOutcome::BudgetExhausted, "spr {spr}");
        assert!(snap.truncated, "spr {spr}");
        for (iv, &n) in snap.intervals.iter().zip(&snap.samples_per_group) {
            assert!(n < 20_000, "spr {spr}: no group ran dry");
            let granted = schedule.half_width(n, 20_000);
            assert!(
                iv.width() / 2.0 >= granted,
                "spr {spr}: half-width {} after {n} samples, schedule grants {granted}",
                iv.width() / 2.0
            );
        }
    }
}

#[test]
fn a_scan_never_certifies_a_group_with_a_dropped_read() {
    // The same two groups of 20,000 rows (means 49 and 50), 5 % of reads
    // dropped, read by SCAN. Both groups lose rows, so neither may be
    // certified at any round; each interval must still hold its group's
    // true mean (the unread rows lie in [0, c]), and the run ends
    // truncated instead of converged.
    use rapidviz::needletail::{ColumnDef, DataType, Schema, SeededFaults, TableBuilder};
    use rapidviz::{AlgorithmChoice, StepOutcome, VizQuery};
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..40_000u32 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![g.into(), f64::from(i % 100).into()]);
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).expect("engine builds");
    engine.set_fault_injector(std::sync::Arc::new(SeededFaults::new(7, 0.05)));
    let mut session = VizQuery::new(&engine)
        .group_by("g")
        .avg("v")
        .bound(100.0)
        .algorithm(AlgorithmChoice::ExactScan)
        .start(rand::rngs::StdRng::seed_from_u64(5))
        .unwrap();
    let mut last = None;
    for update in session.by_ref() {
        assert_eq!(update.snapshot.certified_order(), Vec::<usize>::new());
        assert!(update.newly_certified.is_empty());
        last = Some(update.outcome);
    }
    assert_eq!(last, Some(StepOutcome::BudgetExhausted));
    let snap = session.snapshot();
    assert!(snap.truncated);
    assert_eq!(snap.labels, ["a", "b"]);
    for ((iv, &n), truth) in snap
        .intervals
        .iter()
        .zip(&snap.samples_per_group)
        .zip([49.0, 50.0])
    {
        assert!(n > 0 && n < 20_000, "{n} rows delivered");
        assert!(iv.lo <= truth && truth <= iv.hi, "{iv:?} misses {truth}");
    }
}

#[test]
fn a_group_stopped_by_a_dropped_read_does_not_hold_up_the_others() {
    // With replacement a group never runs dry. Only the rows of the group
    // clustered first can fail, so that group stops early with a wide
    // interval around a mean 1 away from the other's; the other group must
    // not wait for it to narrow. Both algorithms end truncated long before
    // the round cap.
    use rapidviz::core::extensions::IFocusGraph;
    use rapidviz::core::{AlgorithmStepper, StepOutcome};
    use rapidviz::needletail::{
        ColumnDef, DataType, FaultInjector, FaultSite, Schema, TableBuilder,
    };
    use rapidviz::stats::SamplingMode;

    #[derive(Debug)]
    struct FirstGroupFaults;
    impl FaultInjector for FirstGroupFaults {
        fn fails(&self, _site: FaultSite, row: u64) -> bool {
            row < 20_000 && row.is_multiple_of(64)
        }
    }

    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..40_000u32 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![g.into(), f64::from(i % 100).into()]);
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).expect("engine builds");
    engine.set_fault_injector(std::sync::Arc::new(FirstGroupFaults));
    let cap = 1_000_000;
    let config = AlgoConfig::new(100.0, 0.05)
        .with_mode(SamplingMode::WithReplacement)
        .with_samples_per_round(16)
        .with_max_rounds(cap);
    for round_robin in [false, true] {
        let mut groups = query_groups(&engine, "g", "v", &Predicate::True).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut stepper = if round_robin {
            RoundRobin::new(config.clone()).start(&mut groups, &mut rng)
        } else {
            IFocus::new(config.clone()).start(&mut groups, &mut rng)
        };
        let outcome = loop {
            let outcome = stepper.step(&mut groups, &mut rng);
            if !outcome.is_running() {
                break outcome;
            }
        };
        let snap = stepper.snapshot();
        assert_eq!(
            outcome,
            StepOutcome::BudgetExhausted,
            "round robin {round_robin}"
        );
        assert!(snap.truncated);
        assert!(snap.rounds < cap / 100, "ran {} rounds", snap.rounds);
        assert!(engine.metrics().snapshot().faulted_reads > 0);
    }
    // The graph variant abandons the edge to the stopped group.
    let mut groups = query_groups(&engine, "g", "v", &Predicate::True).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let result = IFocusGraph::path(config, 2).run(&mut groups, &mut rng);
    assert!(result.truncated);
    assert!(result.rounds < cap / 100, "ran {} rounds", result.rounds);
}
