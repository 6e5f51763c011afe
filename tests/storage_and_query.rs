//! Integration tests for the adoption-path features: CSV ingestion, binary
//! persistence, the fluent query API, the simulated block device, and the
//! composite group-by — wired together end to end.

use rand::SeedableRng;
use rapidviz::core::{is_correctly_ordered_with_resolution, AlgoConfig, IFocus};
use rapidviz::datagen::FlightModel;
use rapidviz::needletail::{read_csv, read_table, write_table, CsvOptions, NeedleTail, Predicate};
use rapidviz::{query_groups, VizQuery};
use rapidviz_bench::{DiskModel, SimulatedDisk};

/// CSV → table → binary → table → engine → guaranteed ordering.
#[test]
fn csv_to_binary_to_query_pipeline() {
    let mut csv = String::from("team,score\n");
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    for _ in 0..30_000 {
        let (team, mu) = [("red", 25.0), ("green", 50.0), ("blue", 75.0)][rng.gen_range(0..3)];
        let score = if rng.gen_bool(mu / 100.0) { 100 } else { 0 };
        csv.push_str(&format!("{team},{score}\n"));
    }
    let table = read_csv(&csv, &CsvOptions::default()).unwrap();

    // Round-trip through the binary format.
    let mut buf = Vec::new();
    write_table(&table, &mut buf).unwrap();
    let table = read_table(buf.as_slice()).unwrap();
    assert_eq!(table.row_count(), 30_000);

    let engine = NeedleTail::new(table, &["team"]).unwrap();
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(72);
    let answer = VizQuery::new(&engine)
        .group_by("team")
        .avg("score")
        .bound(100.0)
        .resolution_pct(2.0)
        .execute(&mut run_rng)
        .unwrap();
    assert_eq!(answer.ranked_labels(), vec!["red", "green", "blue"]);
    assert!(answer.to_bar_chart(30).lines().count() == 3);
}

/// The composite group-by produces the same cells as manual predicates,
/// and IFOCUS orders them correctly.
#[test]
fn composite_group_by_matches_manual_cells() {
    use rapidviz::needletail::{ColumnDef, DataType, Schema, TableBuilder, Value};
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("x", DataType::Str),
        ColumnDef::new("z", DataType::Int),
        ColumnDef::new("y", DataType::Float),
    ]));
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(73);
    for _ in 0..40_000 {
        let x = ["p", "q"][rng.gen_range(0..2)];
        let z = rng.gen_range(0..2i64);
        let mu = match (x, z) {
            ("p", 0) => 15.0,
            ("p", 1) => 40.0,
            ("q", 0) => 65.0,
            _ => 88.0,
        };
        let y = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
        b.push_row(vec![x.into(), Value::Int(z), Value::Float(y)]);
    }
    let engine = NeedleTail::new(b.finish(), &["x", "z"]).unwrap();

    // Joint-index cells.
    let joint = engine
        .group_handles_multi(&["x", "z"], "y", &Predicate::True)
        .unwrap();
    // Manual cross product via predicates on z.
    let mut manual = Vec::new();
    for z in 0..2i64 {
        manual.extend(
            engine
                .group_handles("x", "y", &Predicate::eq("z", Value::Int(z)))
                .unwrap(),
        );
    }
    assert_eq!(joint.len(), manual.len());
    let mut joint_sizes: Vec<u64> = joint.iter().map(|h| h.len()).collect();
    let mut manual_sizes: Vec<u64> = manual.iter().map(|h| h.len()).collect();
    joint_sizes.sort_unstable();
    manual_sizes.sort_unstable();
    assert_eq!(joint_sizes, manual_sizes);

    // Order the joint cells with IFOCUS against scan ground truth.
    let mut groups: Vec<rapidviz::NeedletailGroup> = joint
        .into_iter()
        .map(rapidviz::NeedletailGroup::with_true_mean)
        .collect();
    let truths: Vec<f64> = groups
        .iter()
        .map(|g| rapidviz::core::GroupSource::true_mean(g).unwrap())
        .collect();
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(74);
    let result = IFocus::new(AlgoConfig::new(100.0, 0.05).with_resolution(1.0))
        .run(&mut groups, &mut run_rng);
    assert!(is_correctly_ordered_with_resolution(
        &result.estimates,
        &truths,
        1.0
    ));
}

/// The simulated block device prices the scan-vs-sample economics the way
/// Figure 4 needs: scanning costs every page, sampling costs one page per
/// draw, and the cost model turns both into comparable seconds.
#[test]
fn simulated_disk_scan_vs_sample_economics() {
    let values: Vec<f64> = (0..2_000_000).map(|i| f64::from(i % 97)).collect();
    let disk = SimulatedDisk::with_paper_pages(&values);
    let model = DiskModel::paper_default();

    // Full scan touches ceil(16MB / 1MB) pages.
    let mut checksum = 0.0;
    disk.scan(|v| checksum += v);
    assert!(checksum > 0.0);
    let (seq, _) = disk.transfers();
    assert_eq!(seq, 16);
    let scan_secs = disk.cost(&model).io_seconds;
    disk.reset_transfers();

    // 1000 random fetches: three orders of magnitude fewer bytes... but
    // each pays the random-read cost.
    for i in 0..1000u64 {
        let _ = disk.fetch((i * 1999) % 2_000_000);
    }
    let sample_secs = disk.cost(&model).io_seconds;
    assert!(
        sample_secs < scan_secs,
        "1000 samples ({sample_secs}s) should beat a 16-page scan ({scan_secs}s)"
    );
}

/// Batched rounds through the engine still respect the guarantee.
#[test]
fn batched_engine_run() {
    let model = FlightModel::new(75);
    let mut rng = rand::rngs::StdRng::seed_from_u64(76);
    let table = model.to_table(120_000, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).unwrap();
    let mut groups = query_groups(&engine, "name", "elapsed", &Predicate::True).unwrap();
    let truths: Vec<f64> = groups
        .iter()
        .map(|g| rapidviz::core::GroupSource::true_mean(g).unwrap())
        .collect();
    let config = AlgoConfig::new(720.0, 0.05)
        .with_resolution(7.2)
        .with_samples_per_round(32);
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(77);
    let result = IFocus::new(config).run(&mut groups, &mut run_rng);
    assert!(is_correctly_ordered_with_resolution(
        &result.estimates,
        &truths,
        7.2
    ));
}

/// In-predicate through the whole stack.
#[test]
fn in_predicate_pipeline() {
    let model = FlightModel::new(78);
    let mut rng = rand::rngs::StdRng::seed_from_u64(79);
    let table = model.to_table(60_000, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).unwrap();
    let pred = Predicate::is_in("name", ["AA", "DL", "UA"]);
    let groups = query_groups(&engine, "name", "arr_delay", &pred).unwrap();
    let labels: Vec<String> = groups
        .iter()
        .map(rapidviz::core::GroupSource::label)
        .collect();
    assert_eq!(labels, vec!["AA", "DL", "UA"]);
}
