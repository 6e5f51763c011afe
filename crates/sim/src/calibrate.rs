//! Calibration: the paper's ordering guarantee measured at statistical
//! power.
//!
//! The claim under test is Problem 1's (and, with a resolution, Problem
//! 2's): the displayed ordering is right with probability at least `1 − δ`.
//! A fixed-seed test that sees zero failures in eight runs cannot tell a
//! failure rate of 0.05 from 0.25. A calibration cell runs one
//! configuration many times over one fixed table, each run on its own
//! seeded RNG, and bounds the mis-ordering rate with a one-sided 95 %
//! Clopper–Pearson upper bound that must sit at or below `δ`.
//!
//! # The grid
//!
//! [`grid`] is IFOCUS and ROUNDROBIN × {with, without replacement} ×
//! {exact, resolution-relaxed} × five value families ([`Family`]), plus
//! without-replacement cells whose row order is adversarial ([`RowOrder`]).
//! Every table is a NEEDLETAIL engine clustered by its group column, so
//! every group is one contiguous row range ([`rapidviz::needletail::RowSet::Range`]).
//! Without-replacement runs go through [`VizQuery`], so each draw is the
//! engine sampler's keyed permutation `π_K`; with-replacement runs (which
//! `VizQuery` does not offer) step the algorithm directly over the same
//! engine's group handles.
//!
//! # What a cell reports
//!
//! [`CellReport`]: the runs, the mis-ordered runs and their Clopper–Pearson
//! upper bound, per-interval coverage (the share of final intervals that
//! contain their group's exact mean, up to rounding), and the mean samples drawn next to
//! the instance's `Σ_i c²/η_i²` (`η_i` the gap from group `i`'s mean to the
//! nearest other, at least `r/4` under a resolution `r`). A mis-ordered
//! run's seed is kept: [`run_once`] on that seed replays it.

use crate::batch_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::core::{
    is_correctly_ordered, is_correctly_ordered_with_resolution, AlgoConfig, AlgorithmStepper,
    GroupSource, IFocus, RoundRobin, SamplingMode, Snapshot,
};
use rapidviz::datagen::{Mixture, TruncatedNormal, TwoPoint, ValueDist};
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Predicate, Schema, TableBuilder};
use rapidviz::{query_groups, AlgorithmChoice, NeedletailGroup, VizQuery};

/// The value bound `c` of every calibration table.
pub const C: f64 = 100.0;
/// The failure probability every cell runs at and is judged against.
pub const DELTA: f64 = 0.05;
/// The resolution of the relaxed cells, in percent of `c` (`r = 5`).
pub const RESOLUTION_PCT: f64 = 5.0;
/// Samples per round: the anytime bound holds at every `m`, so batching
/// the rounds changes cost, not the guarantee.
pub const SAMPLES_PER_ROUND: u64 = 16;
/// Runs the tier-1 slice gives a cell: with no mis-ordered run, the
/// smallest count whose Clopper–Pearson bound is at most `δ`.
pub const SLICE_RUNS: u64 = 59;
/// Runs the full grid gives a cell.
pub const GRID_RUNS: u64 = 10_000;

/// The ordering algorithm a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// IFOCUS (Algorithm 1).
    IFocus,
    /// The ROUNDROBIN baseline.
    RoundRobin,
}

/// Value families of the main grid: four groups of 5,000 rows with means
/// 20, 40, 55 and 75 unless stated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Truncated normals, σ = 10.
    TruncNorm,
    /// Three truncated normals at `μ − 15`, `μ`, `μ + 15`, σ = 3.
    Mixture,
    /// Two-point `{0, 100}`.
    Bernoulli,
    /// Two-point with means 40, 44, 48 and 52: the adjacent gaps are
    /// inside the resolution, the others are not.
    NearTie,
    /// The mixture with 85 % of the 20,000 rows in the first group.
    HeavySkew,
}

/// Row orders of the without-replacement adversarial cells: values laid
/// out inside each group's row range, mirrored in every other group, so a
/// draw order that favours some row ids biases neighbouring groups in
/// opposite directions and swaps them. Means 30, 45, 55 and 70, 5,120 rows
/// a group (a whole number of periods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// The mixture's values sorted by row id: ascending in even groups,
    /// descending in odd ones.
    Sorted,
    /// `μ − 20` then `μ + 20` in runs of half the period (odd groups: `+`
    /// first).
    Periodic(usize),
    /// `μ − 25` on the first half of the row range and `μ + 25` on the
    /// second (odd groups: the other way round).
    RangeHalves,
    /// Six groups whose sizes follow Zipf(1) over 12,000 rows (4,897 down
    /// to 816), means 20 to 80, mixture values.
    ZipfGroups,
}

/// What a cell's table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// A main-grid value family, values in generation order.
    Family(Family),
    /// An adversarial row order.
    Order(RowOrder),
}

/// One configuration of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The ordering algorithm.
    pub algorithm: Algorithm,
    /// Sampling with replacement (otherwise the keyed permutation).
    pub with_replacement: bool,
    /// Problem 2 at [`RESOLUTION_PCT`] (otherwise exact ordering).
    pub resolution: bool,
    /// The table.
    pub data: Data,
}

impl Cell {
    /// A stable name, e.g. `ifocus/wor/exact/sorted`.
    #[must_use]
    pub fn name(&self) -> String {
        let algorithm = match self.algorithm {
            Algorithm::IFocus => "ifocus",
            Algorithm::RoundRobin => "roundrobin",
        };
        let mode = if self.with_replacement { "wr" } else { "wor" };
        let bound = if self.resolution { "relaxed" } else { "exact" };
        let data = match self.data {
            Data::Family(Family::TruncNorm) => "truncnorm".to_owned(),
            Data::Family(Family::Mixture) => "mixture".to_owned(),
            Data::Family(Family::Bernoulli) => "bernoulli".to_owned(),
            Data::Family(Family::NearTie) => "near-tie".to_owned(),
            Data::Family(Family::HeavySkew) => "heavy-skew".to_owned(),
            Data::Order(RowOrder::Sorted) => "sorted".to_owned(),
            Data::Order(RowOrder::Periodic(p)) => format!("periodic-{p}"),
            Data::Order(RowOrder::RangeHalves) => "range-halves".to_owned(),
            Data::Order(RowOrder::ZipfGroups) => "zipf-groups".to_owned(),
        };
        format!("{algorithm}/{mode}/{bound}/{data}")
    }

    /// The resolution `r`, if the cell is relaxed.
    #[must_use]
    pub fn r(&self) -> Option<f64> {
        self.resolution.then_some(C * RESOLUTION_PCT / 100.0)
    }
}

/// The whole grid: 40 main cells (algorithm × mode × bound × family),
/// then 20 without-replacement adversarial-order cells (algorithm × bound
/// × order).
#[must_use]
pub fn grid() -> Vec<Cell> {
    let families = [
        Family::TruncNorm,
        Family::Mixture,
        Family::Bernoulli,
        Family::NearTie,
        Family::HeavySkew,
    ];
    let orders = [
        RowOrder::Sorted,
        RowOrder::Periodic(2),
        RowOrder::Periodic(64),
        RowOrder::RangeHalves,
        RowOrder::ZipfGroups,
    ];
    let mut cells = Vec::new();
    for algorithm in [Algorithm::IFocus, Algorithm::RoundRobin] {
        for with_replacement in [true, false] {
            for resolution in [false, true] {
                for family in families {
                    cells.push(Cell {
                        algorithm,
                        with_replacement,
                        resolution,
                        data: Data::Family(family),
                    });
                }
            }
        }
    }
    for algorithm in [Algorithm::IFocus, Algorithm::RoundRobin] {
        for resolution in [false, true] {
            for order in orders {
                cells.push(Cell {
                    algorithm,
                    with_replacement: false,
                    resolution,
                    data: Data::Order(order),
                });
            }
        }
    }
    cells
}

/// A cell's table: the engine, its groups with their exact means, in the
/// engine's group order.
#[derive(Debug)]
pub struct Fixture {
    engine: NeedleTail,
    groups: Vec<NeedletailGroup>,
    truths: Vec<f64>,
}

impl Fixture {
    /// Builds the table `data` describes (the same for every cell sharing
    /// it; the values come from a fixed seed).
    ///
    /// # Panics
    ///
    /// Panics only if the engine rejects its own two-column schema.
    #[must_use]
    pub fn build(data: Data) -> Self {
        let mut rng = StdRng::seed_from_u64(0xCA11_B8A7);
        let ladder = [20.0, 40.0, 55.0, 75.0];
        let orders = [30.0, 45.0, 55.0, 70.0];
        let columns: Vec<Vec<f64>> = match data {
            Data::Family(family) => {
                let means: Vec<f64> = match family {
                    Family::NearTie => vec![40.0, 44.0, 48.0, 52.0],
                    _ => ladder.to_vec(),
                };
                means
                    .iter()
                    .enumerate()
                    .map(|(i, &mu)| {
                        let size = match (family, i) {
                            (Family::HeavySkew, 0) => 17_000,
                            (Family::HeavySkew, _) => 1_000,
                            _ => 5_000,
                        };
                        let dist: Box<dyn ValueDist> = match family {
                            Family::TruncNorm => Box::new(TruncatedNormal::paper(mu, 10.0)),
                            Family::Mixture | Family::HeavySkew => mixture(mu),
                            Family::Bernoulli | Family::NearTie => Box::new(TwoPoint::paper(mu)),
                        };
                        (0..size).map(|_| dist.sample(&mut rng)).collect()
                    })
                    .collect()
            }
            Data::Order(RowOrder::ZipfGroups) => (0..6u32)
                .map(|i| {
                    let size = (12_000.0 / (f64::from(i) + 1.0) / 2.45) as usize;
                    let dist = mixture(20.0 + 12.0 * f64::from(i));
                    (0..size).map(|_| dist.sample(&mut rng)).collect()
                })
                .collect(),
            Data::Order(order) => orders
                .iter()
                .enumerate()
                .map(|(i, &mu)| {
                    let n = 5_120usize;
                    let mut values: Vec<f64> = match order {
                        RowOrder::Sorted => {
                            let dist = mixture(mu);
                            let mut values: Vec<f64> =
                                (0..n).map(|_| dist.sample(&mut rng)).collect();
                            values.sort_by(f64::total_cmp);
                            values
                        }
                        RowOrder::Periodic(p) => (0..n)
                            .map(|j| if j % p < p / 2 { mu - 20.0 } else { mu + 20.0 })
                            .collect(),
                        _ => (0..n)
                            .map(|j| if j < n / 2 { mu - 25.0 } else { mu + 25.0 })
                            .collect(),
                    };
                    if i % 2 == 1 {
                        values.reverse();
                    }
                    values
                })
                .collect(),
        };
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("y", DataType::Float),
        ]));
        for (i, values) in columns.iter().enumerate() {
            for &v in values {
                b.push_row(vec![format!("g{i}").into(), v.into()]);
            }
        }
        let engine = NeedleTail::new(b.finish(), &["g"]).expect("a two-column schema indexes g");
        let groups =
            query_groups(&engine, "g", "y", &Predicate::True).expect("the table has g and y");
        let truths = groups.iter().filter_map(GroupSource::true_mean).collect();
        Self {
            engine,
            groups,
            truths,
        }
    }

    /// The exact group means, in the engine's group order.
    #[must_use]
    pub fn truths(&self) -> &[f64] {
        &self.truths
    }

    /// `Σ_i c²/η_i²`, `η_i` the gap to the nearest other mean (at least
    /// `r/4` under a resolution `r`).
    #[must_use]
    pub fn predicted_samples(&self, r: Option<f64>) -> f64 {
        let mut sorted = self.truths.clone();
        sorted.sort_by(f64::total_cmp);
        self.truths
            .iter()
            .map(|&mu| {
                let gap = sorted
                    .iter()
                    .filter(|&&other| other != mu)
                    .map(|&other| (other - mu).abs())
                    .fold(f64::INFINITY, f64::min);
                let eta = r.map_or(gap, |r| gap.max(r / 4.0));
                C * C / (eta * eta)
            })
            .sum()
    }
}

/// A mixture of three truncated normals around `mu`.
fn mixture(mu: f64) -> Box<dyn ValueDist> {
    Box::new(Mixture::new(
        [mu - 15.0, mu, mu + 15.0]
            .into_iter()
            .map(|m| Box::new(TruncatedNormal::paper(m, 3.0)) as Box<dyn ValueDist>)
            .collect(),
    ))
}

/// One run's terminal snapshot.
///
/// # Panics
///
/// Panics if the query cannot be planned (the fixture always can).
#[must_use]
pub fn run_once(cell: &Cell, fixture: &Fixture, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    if cell.with_replacement {
        let mut config = AlgoConfig::new(C, DELTA)
            .with_mode(SamplingMode::WithReplacement)
            .with_samples_per_round(SAMPLES_PER_ROUND);
        if let Some(r) = cell.r() {
            config = config.with_resolution(r);
        }
        let mut groups = fixture.groups.clone();
        let mut stepper = match cell.algorithm {
            Algorithm::IFocus => IFocus::new(config).start(&mut groups, &mut rng),
            Algorithm::RoundRobin => RoundRobin::new(config).start(&mut groups, &mut rng),
        };
        while stepper.step(&mut groups, &mut rng).is_running() {}
        return stepper.snapshot();
    }
    let algorithm = match cell.algorithm {
        Algorithm::IFocus => AlgorithmChoice::IFocus,
        Algorithm::RoundRobin => AlgorithmChoice::RoundRobin,
    };
    let mut query = VizQuery::new(&fixture.engine)
        .group_by("g")
        .avg("y")
        .algorithm(algorithm)
        .bound(C)
        .delta(DELTA)
        .samples_per_round(SAMPLES_PER_ROUND);
    if cell.resolution {
        query = query.resolution_pct(RESOLUTION_PCT);
    }
    let mut session = query.start(rng).expect("the fixture plans");
    while session.step().outcome.is_running() {}
    session.snapshot()
}

/// Whether a terminal snapshot orders the groups as the cell requires (a
/// truncated run counts as mis-ordered: it carries no guarantee).
#[must_use]
pub fn ordered(cell: &Cell, fixture: &Fixture, snapshot: &Snapshot) -> bool {
    let truths = fixture.truths();
    !snapshot.truncated
        && match cell.r() {
            None => is_correctly_ordered(&snapshot.estimates, truths),
            Some(r) => is_correctly_ordered_with_resolution(&snapshot.estimates, truths, r),
        }
}

/// One cell's tally.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell.
    pub cell: Cell,
    /// Runs made.
    pub runs: u64,
    /// Runs whose ordering was wrong (or truncated).
    pub misordered: u64,
    /// Final intervals that contained their group's exact mean.
    pub covered: u64,
    /// Final intervals in all.
    pub intervals: u64,
    /// Samples drawn over all runs.
    pub samples: u64,
    /// The instance's `Σ_i c²/η_i²`.
    pub predicted: f64,
    /// Seeds of the first few mis-ordered runs, for [`run_once`].
    pub failing_seeds: Vec<u64>,
}

impl CellReport {
    /// The one-sided 95 % Clopper–Pearson upper bound on the mis-ordering
    /// rate.
    #[must_use]
    pub fn upper(&self) -> f64 {
        clopper_pearson_upper(self.misordered, self.runs, 0.05)
    }

    /// Whether the bound sits at or below `δ`.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.upper() <= DELTA
    }

    /// One table row: name, runs, mis-ordered, bound, coverage, mean
    /// samples, prediction, and their ratio.
    #[must_use]
    pub fn row(&self) -> String {
        let mean = self.samples as f64 / self.runs.max(1) as f64;
        format!(
            "{:<36} {:>6} {:>5} {:>8.5} {:>8.5} {:>10.0} {:>10.0} {:>6.3}",
            self.cell.name(),
            self.runs,
            self.misordered,
            self.upper(),
            self.covered as f64 / self.intervals.max(1) as f64,
            mean,
            self.predicted,
            mean / self.predicted,
        )
    }

    /// The header [`Self::row`] lines up under.
    #[must_use]
    pub fn header() -> &'static str {
        "cell                                   runs   bad  cp-upper coverage    samples  Σc²/η²  ratio"
    }
}

/// Runs `runs` seeded runs of `cell` over its fixture. Run `i` uses seed
/// `batch_seed(base_seed, i)`.
#[must_use]
pub fn run_cell(cell: &Cell, fixture: &Fixture, runs: u64, base_seed: u64) -> CellReport {
    let mut report = CellReport {
        cell: *cell,
        runs,
        misordered: 0,
        covered: 0,
        intervals: 0,
        samples: 0,
        predicted: fixture.predicted_samples(cell.r()),
        failing_seeds: Vec::new(),
    };
    for i in 0..runs {
        let seed = batch_seed(base_seed, i);
        let snapshot = run_once(cell, fixture, seed);
        if !ordered(cell, fixture, &snapshot) {
            report.misordered += 1;
            if report.failing_seeds.len() < 5 {
                report.failing_seeds.push(seed);
            }
        }
        let truths = fixture.truths();
        report.intervals += truths.len() as u64;
        // Up to rounding: a group drawn dry has a zero-width interval at
        // its running mean, which may differ from the exact mean in the
        // last bits.
        let slack = |mu: f64| 1e-9 * mu.abs().max(1.0);
        report.covered += snapshot
            .intervals
            .iter()
            .zip(truths)
            .filter(|(iv, &mu)| (iv.center() - mu).abs() <= 0.5 * iv.width() + slack(mu))
            .count() as u64;
        report.samples += snapshot.samples_per_group.iter().sum::<u64>();
    }
    report
}

/// Runs every cell of `cells` `runs` times, one cell after another,
/// building each data fixture once. Reports come back in `cells` order.
#[must_use]
pub fn run_grid(cells: &[Cell], runs: u64, base_seed: u64) -> Vec<CellReport> {
    let mut fixtures: Vec<(Data, Fixture)> = Vec::new();
    let mut reports = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let at = match fixtures.iter().position(|(d, _)| *d == cell.data) {
            Some(at) => at,
            None => {
                fixtures.push((cell.data, Fixture::build(cell.data)));
                fixtures.len() - 1
            }
        };
        reports.push(run_cell(cell, &fixtures[at].1, runs, base_seed ^ i as u64));
    }
    reports
}

/// The one-sided upper Clopper–Pearson bound at confidence `1 − alpha` on
/// a binomial rate, from `failures` in `runs`: the `p` at which seeing at
/// most `failures` has probability `alpha` (1 when every run failed or no
/// run was made).
#[must_use]
pub fn clopper_pearson_upper(failures: u64, runs: u64, alpha: f64) -> f64 {
    if failures >= runs {
        return 1.0;
    }
    // P(X ≤ failures) falls as p grows: bisect for the crossing.
    let (mut lo, mut hi) = (failures as f64 / runs as f64, 1.0);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if binomial_cdf(failures, runs, mid) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// `P(X ≤ x)` for `X ~ Binomial(n, p)`, summed in log space.
fn binomial_cdf(x: u64, n: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if x >= n { 1.0 } else { 0.0 };
    }
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    let mut ln_term = n as f64 * ln_q;
    let mut terms = vec![ln_term];
    for i in 0..x {
        ln_term += ((n - i) as f64 / (i + 1) as f64).ln() + ln_p - ln_q;
        terms.push(ln_term);
    }
    let top = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (top + terms.iter().map(|t| (t - top).exp()).sum::<f64>().ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clopper_pearson_matches_closed_forms() {
        // No failure: 1 − α^(1/n). All but one: a known table value.
        for n in [1u64, 10, 59, 10_000] {
            let want = 1.0 - 0.05f64.powf(1.0 / n as f64);
            assert!(
                (clopper_pearson_upper(0, n, 0.05) - want).abs() < 1e-9,
                "n {n}"
            );
        }
        assert!(clopper_pearson_upper(0, 59, 0.05) <= DELTA);
        assert!(clopper_pearson_upper(0, 58, 0.05) > DELTA);
        // 5 failures in 100: the exact one-sided 95 % bound is 0.10224.
        assert!((clopper_pearson_upper(5, 100, 0.05) - 0.10224).abs() < 1e-4);
        assert_eq!(clopper_pearson_upper(3, 3, 0.05), 1.0);
    }

    #[test]
    fn the_grid_has_every_cell_once() {
        let cells = grid();
        assert_eq!(cells.len(), 60);
        let mut names: Vec<String> = cells.iter().map(Cell::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 60);
        let adversarial = cells.iter().filter(|c| matches!(c.data, Data::Order(_)));
        assert!(adversarial.clone().all(|c| !c.with_replacement));
        assert_eq!(adversarial.count(), 20);
    }

    #[test]
    fn fixtures_hold_the_stated_means() {
        let sorted = Fixture::build(Data::Order(RowOrder::Periodic(64)));
        assert_eq!(sorted.truths(), &[30.0, 45.0, 55.0, 70.0]);
        let halves = Fixture::build(Data::Order(RowOrder::RangeHalves));
        assert_eq!(halves.truths(), &[30.0, 45.0, 55.0, 70.0]);
        let zipf = Fixture::build(Data::Order(RowOrder::ZipfGroups));
        let sizes: Vec<u64> = zipf.groups.iter().map(GroupSource::len).collect();
        assert_eq!(sizes, [4_897, 2_448, 1_632, 1_224, 979, 816]);
        let skew = Fixture::build(Data::Family(Family::HeavySkew));
        let sizes: Vec<u64> = skew.groups.iter().map(GroupSource::len).collect();
        assert_eq!(sizes, [17_000, 1_000, 1_000, 1_000]);
        // The prediction: gaps 15, 10, 10, 15 at c = 100.
        let want = 2.0 * (1e4 / 225.0) + 2.0 * (1e4 / 100.0);
        assert!((halves.predicted_samples(None) - want).abs() < 1e-9);
    }
}
