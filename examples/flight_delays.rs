//! The paper's motivating query, end to end on the NEEDLETAIL engine:
//!
//! ```sql
//! SELECT NAME, AVG(DELAY) FROM FLT GROUP BY NAME
//! ```
//!
//! plus a §6.3.3 variant with a selection predicate (`WHERE dep_delay >= 30`).
//! Compares the sampled answer, its cost, and the SCAN ground truth.
//!
//! ```text
//! cargo run --release --example flight_delays
//! ```

use rand::SeedableRng;
use rapidviz::core::{is_correctly_ordered, AlgoConfig, GroupSource, IFocus};
use rapidviz::datagen::FlightModel;
use rapidviz::needletail::{NeedleTail, Predicate};
use rapidviz::query_groups;
use rapidviz_bench::DiskModel;

fn main() {
    // Materialize a 500k-row flight table and index the airline column.
    let model = FlightModel::new(7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let table = model.to_table(500_000, &mut rng);
    let rows = table.row_count();
    let bytes = table.total_bytes();
    let engine = NeedleTail::new(table, &["name"]).expect("engine builds");

    // --- Query 1: average arrival delay by airline. -----------------------
    let mut groups =
        query_groups(&engine, "name", "arr_delay", &Predicate::True).expect("query plans");
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
    let config = AlgoConfig::new(1440.0, 0.05).with_resolution(14.4); // 1% of range
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(9);
    let result = IFocus::new(config).run(&mut groups, &mut run_rng);

    println!("SELECT name, AVG(arr_delay) FROM flights GROUP BY name");
    println!("airline  est.delay  true.delay  samples");
    for i in result.order_by_estimate() {
        println!(
            "{:>7} {:>10.2} {:>11.2} {:>8}",
            result.labels[i], result.estimates[i], truths[i], result.samples_per_group[i]
        );
    }
    let ordered = is_correctly_ordered(&result.estimates, &truths);
    println!(
        "ordering correct: {ordered}; sampled {}/{} rows ({:.2}%)",
        result.total_samples(),
        rows,
        100.0 * result.fraction_sampled(rows)
    );

    // Cost model: what this saves over a full scan at this scale.
    let disk = DiskModel::paper_default();
    let sample_cost = disk.sampling_cost(result.total_samples());
    let scan_cost = disk.scan_cost(bytes, rows);
    println!(
        "modelled time: ifocusr {:.3}s vs scan {:.3}s ({:.0}x)",
        sample_cost.total_seconds(),
        scan_cost.total_seconds(),
        scan_cost.total_seconds() / sample_cost.total_seconds()
    );

    // --- Query 2: same, restricted to badly delayed departures (§6.3.3). --
    println!();
    println!("SELECT name, AVG(arr_delay) ... WHERE dep_delay >= 30 GROUP BY name");
    let pred = Predicate::ge("dep_delay", 30.0);
    let mut groups = query_groups(&engine, "name", "arr_delay", &pred).expect("query plans");
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
    let config = AlgoConfig::new(1440.0, 0.05).with_resolution(14.4);
    let result = IFocus::new(config).run(&mut groups, &mut run_rng);
    let exact = engine.scan("name", "arr_delay", &pred).expect("scan runs");
    println!("airline  est.delay  scan.delay");
    for i in result.order_by_estimate() {
        let scan_mean = exact
            .iter()
            .find(|a| a.group.to_string() == result.labels[i])
            .and_then(|a| a.mean())
            .unwrap_or(f64::NAN);
        println!(
            "{:>7} {:>10.2} {:>11.2}",
            result.labels[i], result.estimates[i], scan_mean
        );
    }
    println!(
        "ordering correct: {}",
        is_correctly_ordered(&result.estimates, &truths)
    );
}
