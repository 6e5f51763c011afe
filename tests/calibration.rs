//! The fixed-seed slice of the calibration grid (`rapidviz_sim::calibrate`)
//! that runs in the tier-1 suite: all 60 cells at 59 runs, the fewest whose
//! one-sided 95 % Clopper–Pearson bound can sit at or below δ = 0.05 (it
//! does when no run is mis-ordered). The 40 cells without replacement
//! draw through the engine sampler's keyed permutation. The same grid at
//! 10,000 runs a cell is `crates/sim/tests/calibration_grid.rs`.

use rapidviz_sim::calibrate::{grid, run_grid, CellReport, DELTA, SLICE_RUNS};

#[test]
fn every_cell_bounds_its_misordering_rate_by_delta_at_a_fixed_seed() {
    let reports = run_grid(&grid(), SLICE_RUNS, 0x5EED_CA11);
    assert_eq!(reports.len(), 60);
    let failing: Vec<String> = reports
        .iter()
        .filter(|r| !r.passes())
        .map(|r| format!("{}\n{:?}", r.row(), r.failing_seeds))
        .collect();
    assert!(
        failing.is_empty(),
        "bound above δ = {DELTA}:\n{}\n{}",
        CellReport::header(),
        failing.join("\n")
    );
}
