//! The whole calibration grid at statistical power (see the crate docs'
//! *Calibration* section): every cell's mis-ordering rate, bounded by a
//! one-sided 95 % Clopper–Pearson bound that must sit at or below δ.
//!
//! Ignored by default: at 10,000 runs a cell it is a nightly job.
//!
//! ```text
//! cargo test --release -p rapidviz-sim --test calibration_grid -- --ignored --nocapture
//! ```
//!
//! `SIM_BASE_SEED` sets the base seed. A failing cell prints
//! `SIM_SEED=<u64> CELL=<name>` for each of its first mis-ordered runs;
//! `calibrate::run_once` on that cell and seed replays the run.

use rapidviz_sim::calibrate::{grid, run_grid, CellReport, GRID_RUNS};

#[test]
#[ignore = "the full grid is a nightly job; run with --ignored"]
fn every_cell_bounds_its_misordering_rate_by_delta() {
    let base = std::env::var("SIM_BASE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xCA11_B8A7_E5EE_D000);
    let reports = run_grid(&grid(), GRID_RUNS, base);
    println!("{}", CellReport::header());
    let mut failing = Vec::new();
    for report in &reports {
        println!("{}", report.row());
        if !report.passes() {
            failing.push(report.cell.name());
            for seed in &report.failing_seeds {
                println!("SIM_SEED={seed} CELL={}", report.cell.name());
            }
        }
    }
    assert!(failing.is_empty(), "cells above δ: {failing:?}");
}
