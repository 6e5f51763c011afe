//! The `VizQuery` front door, blocking and streaming: a classic blocking
//! call (kept for contrast), a resumable session that renders progressively,
//! a budget-capped session that trades precision for latency, and the
//! `COUNT` aggregate over the size-estimating samplers.
//!
//! ```text
//! cargo run --release --example query_api
//! ```

use rand::SeedableRng;
use rapidviz::datagen::FlightModel;
use rapidviz::needletail::{NeedleTail, Predicate};
use rapidviz::{StepOutcome, VizQuery};
use std::time::Duration;

fn main() {
    // A 300k-row flight table with the airline column indexed.
    let model = FlightModel::new(13);
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let table = model.to_table(300_000, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).expect("engine builds");
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(15);

    // 1. Blocking (kept for contrast): average arrival delay by airline,
    //    filtered to the major carriers (§6.3.3).
    let answer = VizQuery::new(&engine)
        .group_by("name")
        .avg("arr_delay")
        .bound(1440.0)
        .resolution_pct(1.0)
        .filter(Predicate::is_in("name", ["AA", "DL", "UA", "WN"]))
        .execute(&mut run_rng)
        .expect("query runs");
    println!(
        "blocking AVG(arr_delay) for the big four — sampled {:.2}% of eligible rows:",
        100.0 * answer.fraction_sampled()
    );
    print!("{}", answer.to_bar_chart(40));

    // 2. The same family of query as a *resumable session*: one round per
    //    step(), partial ordering after every round. A dashboard would
    //    redraw on each update; here we log every 4000th round.
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("dep_delay")
        .bound(1440.0)
        .resolution_pct(1.0)
        .start(rand::rngs::StdRng::seed_from_u64(16))
        .expect("query plans");
    println!("\nstreaming AVG(dep_delay) BY name:");
    let mut rounds = 0u64;
    for update in session.by_ref() {
        rounds += 1;
        if rounds.is_multiple_of(4000) || !update.outcome.is_running() {
            println!(
                "  round {:>5}: {:>2} certified / {} groups, {:.2}% sampled",
                update.round,
                update.snapshot.certified_order().len(),
                update.snapshot.labels.len(),
                100.0 * update.fraction_sampled
            );
        }
    }
    let answer = session.finish();
    assert!(answer.converged());
    print!("{}", answer.to_bar_chart(40));

    // 3. Budget-aware: cap the run at 20k samples (or 150 ms, whichever
    //    trips first) and keep the best-effort ordering — the
    //    precision-for-latency trade a latency-bound dashboard makes.
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("arr_delay")
        .bound(1440.0)
        .max_samples(20_000)
        .timeout(Duration::from_millis(150))
        .start(rand::rngs::StdRng::seed_from_u64(17))
        .expect("query plans");
    let outcome = loop {
        let update = session.step();
        if !update.outcome.is_running() {
            break update.outcome;
        }
    };
    println!(
        "\nbudgeted AVG(arr_delay): stopped as {outcome:?} after {} samples ({:.2}% of data)",
        session.total_samples(),
        100.0 * session.fraction_sampled()
    );
    let answer = session.finish();
    if outcome == StepOutcome::BudgetExhausted {
        println!("best-effort ordering (no full guarantee):");
    }
    print!("{}", answer.to_bar_chart(40));

    // 4. COUNT, read from the plan: the bitmap index knows every
    //    airline's size, so the normalized fractions are exact and no
    //    sample is drawn (§6.3.2's estimator is in `sum_aggregates`).
    let answer = VizQuery::new(&engine)
        .group_by("name")
        .count("arr_delay")
        .execute(&mut run_rng)
        .expect("query runs");
    println!("\nCOUNT BY name (exact normalized fractions):");
    for (label, est) in answer.result.ranked().into_iter().rev().take(4) {
        println!("  {label:<4} {est:.3}");
    }
}
