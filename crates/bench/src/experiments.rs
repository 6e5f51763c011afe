//! One function per table/figure of the paper's evaluation (§5).
//!
//! Every function prints the same rows/series the paper's artifact shows.
//! Absolute wall-clock numbers go through the calibrated
//! [`DiskModel`] cost model (we do not have the authors' hardware), so
//! the *shape* — who wins, by what factor, where curves flatten — is the
//! reproduction target.
//!
//! Table 1 and Figures 5c/6a show a run's state round by round. They drive
//! IFOCUS through `start`/`step` and read each kept round off
//! [`AlgorithmStepper::snapshot`]: the algorithms keep no record of their
//! own.
//!
//! Scale notes: the paper repeats every data point over 100 generated
//! datasets and sweeps sizes to 10^10 records. Virtual groups make the
//! sizes free, but the *sample draws* are real work, so the default
//! repetition count is lower (`--reps` raises it) and non-resolution
//! algorithm runs carry a generous round cap (reported when hit).

use crate::algorithms::AlgorithmKind;
use crate::io::DiskModel;
use crate::report::{count, header, mean, pct, secs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz_core::group::VecGroup;
use rapidviz_core::{
    count_incorrect_pairs, is_correctly_ordered, is_correctly_ordered_with_resolution, AlgoConfig,
    AlgorithmStepper, GroupSource, IFocus, RunResult, Snapshot, StepOutcome,
};
use rapidviz_datagen::difficulty::five_number_summary;
use rapidviz_datagen::{difficulty, DatasetSpec, FlightAttribute, FlightModel, WorkloadFamily};
use std::fmt::Write as _;

/// Round cap for non-resolution algorithms on adversarial seeds (the paper
/// hits the same wall through dataset exhaustion instead).
const ROUND_CAP: u64 = 2_000_000;

/// Harness options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Repetitions (generated datasets) per data point.
    pub reps: u32,
    /// Base RNG seed; each repetition derives its own.
    pub seed: u64,
    /// Quick mode: smaller sizes/repetitions for smoke runs.
    pub quick: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            reps: 5,
            seed: 42,
            quick: false,
        }
    }
}

impl ExpOptions {
    fn scaled_reps(&self, full: u32) -> u32 {
        if self.quick {
            (full / 4).max(2)
        } else {
            full.max(self.reps)
        }
    }
}

/// Per-algorithm aggregate over repetitions.
struct AlgoStats {
    kind: AlgorithmKind,
    fraction_sampled: f64,
    total_samples: f64,
    accuracy: f64,
    truncated: u32,
}

/// Runs the six-algorithm lineup over `reps` freshly generated datasets.
fn run_six(
    family: WorkloadFamily,
    k: usize,
    total_records: u64,
    delta: f64,
    r: f64,
    reps: u32,
    seed: u64,
) -> Vec<AlgoStats> {
    let base = AlgoConfig::new(100.0, delta)
        .with_max_rounds(ROUND_CAP)
        .with_max_samples_per_group(ROUND_CAP);
    AlgorithmKind::PAPER_SIX
        .iter()
        .map(|&kind| {
            let mut fractions = Vec::new();
            let mut totals = Vec::new();
            let mut correct = 0u32;
            let mut truncated = 0u32;
            for rep in 0..reps {
                let spec =
                    DatasetSpec::generate(family, k, total_records, seed + u64::from(rep) * 1000);
                let truths = spec.true_means();
                let mut groups = spec.virtual_groups();
                let mut rng = StdRng::seed_from_u64(seed ^ ((u64::from(rep) + 1) * 7919));
                let result = kind.run(&base, r, &mut groups, &mut rng);
                fractions.push(result.fraction_sampled(spec.total_records()));
                totals.push(result.total_samples() as f64);
                truncated += u32::from(result.truncated);
                let ok = if kind.uses_resolution() {
                    is_correctly_ordered_with_resolution(&result.estimates, &truths, r)
                } else {
                    is_correctly_ordered(&result.estimates, &truths)
                };
                correct += u32::from(ok);
            }
            AlgoStats {
                kind,
                fraction_sampled: mean(&fractions),
                total_samples: mean(&totals),
                accuracy: f64::from(correct) / f64::from(reps),
                truncated,
            }
        })
        .collect()
}

/// IFOCUS driven through `start`/`step` and observed: the snapshot after
/// round 1 (the bootstrap), after every round divisible by `every`, and
/// after the round that converges, beside the finished result. A round cap
/// ends the run without running a round, so it adds no row.
fn ifocus_rounds<G: GroupSource>(
    config: AlgoConfig,
    groups: &mut [G],
    rng: &mut StdRng,
    every: u64,
) -> (Vec<Snapshot>, RunResult) {
    let batch = config.samples_per_round;
    let mut stepper = IFocus::new(config).start(groups, rng);
    let mut rows = vec![stepper.snapshot()];
    let mut round = 1u64;
    let mut running = rows[0].active_count() > 0;
    while running {
        let outcome = stepper.step(groups, rng);
        running = outcome.is_running();
        round = round.saturating_add(batch);
        if outcome == StepOutcome::Converged || (running && round.is_multiple_of(every)) {
            rows.push(stepper.snapshot());
        }
    }
    (rows, stepper.finish())
}

/// Table 1's fast-forward view (Example 3.1): the first and last rows and
/// every row where some group's active flag flips, one line each, every
/// group as `[lo, hi] A|I`.
fn render_transitions(rows: &[Snapshot]) -> String {
    let mut out = String::new();
    for (idx, row) in rows.iter().enumerate() {
        if idx > 0 && idx + 1 < rows.len() && rows[idx - 1].active == row.active {
            continue;
        }
        let _ = write!(out, "{:>6} ", row.rounds);
        for (iv, &a) in row.intervals.iter().zip(&row.active) {
            let flag = if a { 'A' } else { 'I' };
            let _ = write!(out, " [{:.1}, {:.1}] {flag}", iv.lo, iv.hi);
        }
        out.push('\n');
    }
    out
}

/// The round of the first row showing each group inactive.
fn deactivation_rounds(rows: &[Snapshot]) -> Vec<Option<u64>> {
    let k = rows.first().map_or(0, |row| row.active.len());
    (0..k)
        .map(|i| rows.iter().find(|row| !row.active[i]).map(|row| row.rounds))
        .collect()
}

/// Example 3.1's cost accounting over consecutive rows: the bootstrap draws
/// every group once, and each later round the groups active before it.
fn implied_sample_cost(rows: &[Snapshot]) -> u64 {
    let Some((_, before_each_round)) = rows.split_last() else {
        return 0;
    };
    let later: usize = before_each_round.iter().map(Snapshot::active_count).sum();
    (rows[0].active.len() + later) as u64
}

/// Table 1 — an IFOCUS execution trace on four groups.
pub fn table1(opts: &ExpOptions) {
    header("table1", "IFOCUS execution trace (4 groups)");
    // Groups shaped like the paper's example: true means ~75, 35, 25, 55.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    use rand::Rng;
    let means = [75.0, 35.0, 25.0, 55.0];
    let mut groups: Vec<VecGroup> = means
        .iter()
        .enumerate()
        .map(|(i, &mu)| {
            let values: Vec<f64> = (0..20_000)
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecGroup::new(format!("Group {}", i + 1), values)
        })
        .collect();
    let mut run_rng = StdRng::seed_from_u64(opts.seed + 1);
    let config = AlgoConfig::new(100.0, 0.05);
    let (rows, result) = ifocus_rounds(config, &mut groups, &mut run_rng, 1);
    println!("round | per-group [lo, hi] A(ctive)/I(nactive)");
    print!("{}", render_transitions(&rows));
    let deact: Vec<String> = deactivation_rounds(&rows)
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "g{}@{}",
                i + 1,
                r.map_or_else(|| "-".into(), |v| v.to_string())
            )
        })
        .collect();
    println!("deactivation rounds: {}", deact.join(" "));
    println!(
        "total cost C = {} samples (trace-implied {})",
        result.total_samples(),
        implied_sample_cost(&rows)
    );
}

/// Figure 3a — % of dataset sampled vs dataset size (mixture, k = 10).
pub fn fig3a(opts: &ExpOptions) {
    header(
        "fig3a",
        "% sampled vs dataset size (mixture, k=10, δ=0.05, r=1)",
    );
    let sizes: &[u64] = if opts.quick {
        &[10_000_000, 100_000_000]
    } else {
        &[10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000]
    };
    let reps = opts.scaled_reps(opts.reps);
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "size", "ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr"
    );
    for &size in sizes {
        let stats = run_six(
            WorkloadFamily::Mixture,
            10,
            size,
            0.05,
            1.0,
            reps,
            opts.seed,
        );
        print!("{:<14}", count(size));
        for s in &stats {
            print!(" {:>12}", pct(s.fraction_sampled));
        }
        let trunc: u32 = stats.iter().map(|s| s.truncated).sum();
        if trunc > 0 {
            print!("   [{trunc} capped runs]");
        }
        println!();
    }
    println!("(expect: every column shrinks with size; ifocusr < ifocus < irefine < roundrobin;");
    println!(" -R variants' absolute sample counts flat beyond 10^8)");
}

/// Figure 3b — samples vs (modelled) runtime scatter.
pub fn fig3b(opts: &ExpOptions) {
    header("fig3b", "samples vs total time scatter (cost model)");
    let model = DiskModel::paper_default();
    let sizes: &[u64] = if opts.quick {
        &[10_000_000, 100_000_000]
    } else {
        &[10_000_000, 100_000_000, 1_000_000_000]
    };
    let reps = opts.scaled_reps(3);
    println!(
        "{:<14} {:<12} {:>14} {:>12}",
        "size", "algorithm", "samples", "total time"
    );
    for &size in sizes {
        let stats = run_six(
            WorkloadFamily::Mixture,
            10,
            size,
            0.05,
            1.0,
            reps,
            opts.seed,
        );
        for s in &stats {
            let cost = model.sampling_cost(s.total_samples as u64);
            println!(
                "{:<14} {:<12} {:>14} {:>12}",
                count(size),
                s.kind.name(),
                count(s.total_samples as u64),
                secs(cost.total_seconds())
            );
        }
    }
    println!("(expect: runtime directly proportional to samples, independent of size)");
}

/// Figure 3c — % sampled vs δ.
pub fn fig3c(opts: &ExpOptions) {
    header("fig3c", "% sampled vs δ (mixture, k=10, 10M records)");
    let size = if opts.quick { 1_000_000 } else { 10_000_000 };
    let reps = opts.scaled_reps(opts.reps);
    let deltas = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95];
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "δ", "ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr"
    );
    for &delta in &deltas {
        let stats = run_six(
            WorkloadFamily::Mixture,
            10,
            size,
            delta,
            1.0,
            reps,
            opts.seed,
        );
        print!("{delta:<8}");
        for s in &stats {
            print!(" {:>12}", pct(s.fraction_sampled));
        }
        let min_acc = stats.iter().map(|s| s.accuracy).fold(1.0f64, f64::min);
        println!("   acc(min)={:.0}%", min_acc * 100.0);
    }
    println!("(expect: mild decrease with δ — the log(1/δ) term is not dominant —");
    println!(" and 100% ordering accuracy at every δ)");
}

/// Figure 4 — total / I/O / CPU time vs dataset size, including SCAN.
pub fn fig4(opts: &ExpOptions) {
    header(
        "fig4",
        "total/IO/CPU time vs dataset size (cost model, incl. SCAN)",
    );
    let model = DiskModel::paper_default();
    let sizes: &[u64] = if opts.quick {
        &[10_000_000, 100_000_000]
    } else {
        &[10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000]
    };
    let reps = opts.scaled_reps(3);
    let bytes_per_record = 8u64;
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>10}",
        "size", "algorithm", "total", "io", "cpu"
    );
    for &size in sizes {
        let stats = run_six(
            WorkloadFamily::Mixture,
            10,
            size,
            0.05,
            1.0,
            reps,
            opts.seed,
        );
        for s in &stats {
            let cost = model.sampling_cost(s.total_samples as u64);
            println!(
                "{:<14} {:<12} {:>10} {:>10} {:>10}",
                count(size),
                s.kind.name(),
                secs(cost.total_seconds()),
                secs(cost.io_seconds),
                secs(cost.cpu_seconds)
            );
        }
        let scan = model.scan_cost(size * bytes_per_record, size);
        println!(
            "{:<14} {:<12} {:>10} {:>10} {:>10}",
            count(size),
            "scan",
            secs(scan.total_seconds()),
            secs(scan.io_seconds),
            secs(scan.cpu_seconds)
        );
    }
    println!("(expect: scan linear in size; sampling algorithms sublinear, -R flat;");
    println!(" ifocus beats roundrobin beats scan at every size)");
}

/// Figure 5a — accuracy vs heuristic factor (powers of two).
pub fn fig5a(opts: &ExpOptions) {
    header(
        "fig5a",
        "accuracy vs heuristic factor 2^0..2^6 (mixture, ifocusr)",
    );
    let size = if opts.quick { 200_000 } else { 10_000_000 };
    let reps = opts.scaled_reps(40);
    let factors = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    println!("{:<10} {:>10} {:>14}", "factor", "accuracy", "avg samples");
    for &h in &factors {
        let mut correct = 0u32;
        let mut totals = Vec::new();
        for rep in 0..reps {
            let spec = DatasetSpec::generate(
                WorkloadFamily::Mixture,
                10,
                size,
                opts.seed + u64::from(rep) * 1000,
            );
            let truths = spec.true_means();
            let mut groups = spec.virtual_groups();
            let config = AlgoConfig::new(100.0, 0.05)
                .with_resolution(1.0)
                .with_heuristic_factor(h)
                .with_max_rounds(ROUND_CAP);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 104_729));
            let result = IFocus::new(config).run(&mut groups, &mut rng);
            totals.push(result.total_samples() as f64);
            correct += u32::from(is_correctly_ordered_with_resolution(
                &result.estimates,
                &truths,
                1.0,
            ));
        }
        println!(
            "{:<10} {:>9.1}% {:>14}",
            h,
            100.0 * f64::from(correct) / f64::from(reps),
            count(mean(&totals) as u64)
        );
    }
    println!("(expect: 100% at factor 1, immediate degradation beyond)");
}

/// Figure 5b — accuracy vs heuristic factor near 1, hard instance.
pub fn fig5b(opts: &ExpOptions) {
    // The paper's γ = 0.1 instance is so hard (c²/η² = 10^6) that correct
    // ordering essentially requires exhausting each group; IFOCUS at factor
    // 1 gets there via the Serfling collapse, while any shrinkage factor
    // terminates with a sliver of the data unread — and a 0.1-wide gap
    // flips easily. We keep γ = 0.1 and size the groups so exhaustion is
    // reachable (the paper's 10M-row run behaves identically in this
    // regime).
    let gamma = 0.1;
    header(
        "fig5b",
        "accuracy vs heuristic factor 1.0..1.2 (hard Bernoulli, γ=0.1)",
    );
    // Full mode matches the paper's scale exactly (10M rows, 1M/group);
    // the collapse point moves right as groups shrink (the unsampled-tail
    // deviation scales with n), which is why quick mode shows the cliff at
    // larger factors.
    let size = if opts.quick { 100_000 } else { 10_000_000 };
    let reps = opts.scaled_reps(20);
    let factors = [1.0, 1.01, 1.05, 1.1, 1.2, 1.5, 2.0, 4.0];
    println!("{:<10} {:>10} {:>14}", "factor", "accuracy", "avg samples");
    for &h in &factors {
        let mut correct = 0u32;
        let mut totals = Vec::new();
        for rep in 0..reps {
            let spec = DatasetSpec::generate(
                WorkloadFamily::Hard { gamma },
                10,
                size,
                opts.seed + u64::from(rep) * 1000,
            );
            // Materialized groups: correctness is judged against the
            // *realized* population means, and exhaustion genuinely yields
            // them — the regime this figure probes. (Virtual groups draw
            // i.i.d. forever, so they would fake the exhaustion collapse.)
            let mut data_rng = StdRng::seed_from_u64(opts.seed + 777 + u64::from(rep));
            let mut groups = spec.materialize(&mut data_rng);
            let truths: Vec<f64> = groups
                .iter()
                .map(|g| rapidviz_core::GroupSource::true_mean(g).expect("materialized"))
                .collect();
            let config = AlgoConfig::new(100.0, 0.05).with_heuristic_factor(h);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 15_485_863));
            let result = IFocus::new(config).run(&mut groups, &mut rng);
            totals.push(result.total_samples() as f64);
            correct += u32::from(is_correctly_ordered(&result.estimates, &truths));
        }
        println!(
            "{:<10} {:>9.1}% {:>14}",
            h,
            100.0 * f64::from(correct) / f64::from(reps),
            count(mean(&totals) as u64)
        );
    }
    println!("(expect: 100% at factor 1; accuracy collapses within a few percent of shrinkage)");
}

/// Figures 5c & 6a — convergence: active groups and incorrect pairs vs
/// cumulative samples.
pub fn fig5c_6a(opts: &ExpOptions) {
    header(
        "fig5c+6a",
        "active groups / incorrect pairs vs samples (mixture, ifocus)",
    );
    let size = if opts.quick { 1_000_000 } else { 10_000_000 };
    let reps = opts.scaled_reps(20);
    // Per run: (samples, active groups, incorrect pairs) at every kept row,
    // and the run's total samples.
    type RunHistory = (Vec<(u64, usize, u64)>, u64);
    let mut runs: Vec<RunHistory> = Vec::new();
    for rep in 0..reps {
        let spec = DatasetSpec::generate(
            WorkloadFamily::Mixture,
            10,
            size,
            opts.seed + u64::from(rep) * 1000,
        );
        let truths = spec.true_means();
        let mut groups = spec.virtual_groups();
        let config = AlgoConfig::new(100.0, 0.05).with_max_rounds(ROUND_CAP);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 32_452_843));
        let (rows, result) = ifocus_rounds(config, &mut groups, &mut rng, 64);
        let series = rows
            .iter()
            .map(|row| {
                let bad_pairs = count_incorrect_pairs(&row.estimates, &truths);
                (row.total_samples(), row.active_count(), bad_pairs)
            })
            .collect();
        runs.push((series, result.total_samples()));
    }
    // Average the series on a common grid of sample checkpoints.
    let max_samples = runs.iter().map(|r| r.1).max().unwrap_or(1);
    let grid: Vec<u64> = (1..=16).map(|i| max_samples * i / 16).collect();
    let threshold = (size as f64 * 0.3) as u64; // the paper's "3M of 10M" cut
    let heavy: Vec<&RunHistory> = runs.iter().filter(|r| r.1 >= threshold).collect();
    println!(
        "{:>14} {:>12} {:>14} {:>16}",
        "samples", "avg active", "avg bad pairs", "avg active (30%+)"
    );
    for &g in &grid {
        // The last row at or below `g` samples (the first row if none is).
        let at = |run: &RunHistory| -> (f64, f64) {
            let series = &run.0;
            let row = series.iter().take_while(|p| p.0 <= g).last();
            row.or_else(|| series.first())
                .map_or((0.0, 0.0), |&(_, a, bad)| (a as f64, bad as f64))
        };
        let active: Vec<f64> = runs.iter().map(|r| at(r).0).collect();
        let pairs: Vec<f64> = runs.iter().map(|r| at(r).1).collect();
        let heavy_active: Vec<f64> = heavy.iter().map(|r| at(r).0).collect();
        println!(
            "{:>14} {:>12.2} {:>14.2} {:>16}",
            count(g),
            mean(&active),
            mean(&pairs),
            if heavy_active.is_empty() {
                "-".to_owned()
            } else {
                format!("{:.2}", mean(&heavy_active))
            }
        );
    }
    println!(
        "(runs taking >=30% of the data: {}/{}; expect: active count collapses to ~2 quickly,",
        heavy.len(),
        runs.len()
    );
    println!(" incorrect pairs near 0 long before termination)");
}

/// Figure 6b — % sampled vs number of groups.
pub fn fig6b(opts: &ExpOptions) {
    header("fig6b", "% sampled vs number of groups (mixture, 1M/group)");
    let per_group: u64 = if opts.quick { 100_000 } else { 1_000_000 };
    let reps = opts.scaled_reps(3);
    let ks = [5usize, 10, 20, 50];
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr"
    );
    for &k in &ks {
        let stats = run_six(
            WorkloadFamily::Mixture,
            k,
            per_group * k as u64,
            0.05,
            1.0,
            reps,
            opts.seed,
        );
        print!("{k:<6}");
        for s in &stats {
            print!(" {:>12}", pct(s.fraction_sampled));
        }
        let trunc: u32 = stats.iter().map(|s| s.truncated).sum();
        if trunc > 0 {
            print!("   [{trunc} capped runs]");
        }
        println!();
    }
    println!("(expect: more groups -> higher % (random means collide more),");
    println!(" ifocus family stays well below roundrobin at every k)");
}

/// Figure 6c — difficulty c²/η² vs number of groups (box & whiskers).
pub fn fig6c(opts: &ExpOptions) {
    header("fig6c", "difficulty c²/η² vs number of groups");
    let datasets: u64 = if opts.quick { 30 } else { 100 };
    let ks = [5usize, 10, 20, 50];
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "min", "q1", "median", "q3", "max"
    );
    for &k in &ks {
        let diffs: Vec<f64> = (0u64..datasets)
            .map(|i| {
                let spec = DatasetSpec::generate(
                    WorkloadFamily::Mixture,
                    k,
                    1000 * k as u64,
                    opts.seed + i * 31,
                );
                difficulty(&spec.true_means(), 100.0)
            })
            .collect();
        let s = five_number_summary(&diffs);
        println!(
            "{:<6} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            k, s[0], s[1], s[2], s[3], s[4]
        );
    }
    println!("(expect: ~4 orders of magnitude growth in median from k=5 to k=50)");
}

/// Figure 7a — % sampled vs proportion of the dataset in the first group.
pub fn fig7a(opts: &ExpOptions) {
    header(
        "fig7a",
        "% sampled vs first-group proportion (mixture, k=10)",
    );
    let total: u64 = if opts.quick { 200_000 } else { 1_000_000 };
    let reps = opts.scaled_reps(3);
    let proportions = [0.1, 0.3, 0.5, 0.7, 0.9];
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "prop", "ifocus", "ifocusr", "irefine", "irefiner", "roundrobin", "roundrobinr"
    );
    let base = AlgoConfig::new(100.0, 0.05).with_max_rounds(ROUND_CAP);
    for &p in &proportions {
        print!("{p:<8}");
        for kind in AlgorithmKind::PAPER_SIX {
            let mut fractions = Vec::new();
            for rep in 0..reps {
                let spec = DatasetSpec::generate_skewed(
                    WorkloadFamily::Mixture,
                    10,
                    total,
                    p,
                    opts.seed + u64::from(rep) * 1000,
                );
                let mut groups = spec.virtual_groups();
                let mut rng =
                    StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 49_979_687));
                let result = kind.run(&base, 1.0, &mut groups, &mut rng);
                fractions.push(result.fraction_sampled(spec.total_records()));
            }
            print!(" {:>12}", pct(mean(&fractions)));
        }
        println!();
    }
    println!("(expect: ifocus family keeps its advantage at every skew;");
    println!(" % sampled drifts down as skew rises)");
}

/// Figure 7b — % sampled vs δ for several truncnorm standard deviations.
pub fn fig7b(opts: &ExpOptions) {
    header("fig7b", "% sampled vs δ per std (truncnorm, ifocusr)");
    let size: u64 = if opts.quick { 1_000_000 } else { 10_000_000 };
    let reps = opts.scaled_reps(5);
    let stds = [2.0, 5.0, 8.0, 10.0];
    let deltas = [0.05, 0.2, 0.4, 0.6, 0.8];
    print!("{:<8}", "δ");
    for &s in &stds {
        print!(" {:>12}", format!("std={s}"));
    }
    println!();
    for &delta in &deltas {
        print!("{delta:<8}");
        for &std in &stds {
            let mut fractions = Vec::new();
            for rep in 0..reps {
                let spec = DatasetSpec::generate_truncnorm_fixed_std(
                    10,
                    size,
                    std,
                    opts.seed + u64::from(rep) * 1000,
                );
                let mut groups = spec.virtual_groups();
                let config = AlgoConfig::new(100.0, delta)
                    .with_resolution(1.0)
                    .with_max_rounds(ROUND_CAP);
                let mut rng =
                    StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 67_867_967));
                let result = IFocus::new(config).run(&mut groups, &mut rng);
                fractions.push(result.fraction_sampled(spec.total_records()));
            }
            print!(" {:>12}", pct(mean(&fractions)));
        }
        println!();
    }
    println!("(expect: slightly more sampling at higher std; mild decrease with δ)");
}

/// Figure 7c — difficulty vs truncnorm standard deviation.
pub fn fig7c(opts: &ExpOptions) {
    header("fig7c", "difficulty c²/η² vs std (truncnorm)");
    let datasets: u64 = if opts.quick { 30 } else { 100 };
    let stds = [2.0, 5.0, 8.0, 10.0];
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "std", "min", "q1", "median", "q3", "max"
    );
    for &std in &stds {
        let diffs: Vec<f64> = (0u64..datasets)
            .map(|i| {
                let spec =
                    DatasetSpec::generate_truncnorm_fixed_std(10, 10_000, std, opts.seed + i * 31);
                difficulty(&spec.true_means(), 100.0)
            })
            .collect();
        let s = five_number_summary(&diffs);
        println!(
            "{:<6} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            std, s[0], s[1], s[2], s[3], s[4]
        );
    }
    println!("(expect: difficulty grows with std — truncation pulls means together)");
}

/// Table 3 — flight-data runtimes (modelled) for three attributes.
pub fn table3(opts: &ExpOptions) {
    header(
        "table3",
        "flight data: modelled runtimes, 3 attributes x 3 algorithms",
    );
    let model = DiskModel::paper_default();
    let sizes: &[u64] = if opts.quick {
        &[100_000_000]
    } else {
        &[100_000_000, 1_000_000_000, 10_000_000_000]
    };
    let flights = FlightModel::new(opts.seed);
    println!(
        "{:<16} {:<12} {}",
        "attribute",
        "algorithm",
        sizes
            .iter()
            .map(|s| format!("{:>10}", count(*s)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for attr in FlightAttribute::ALL {
        let c = attr.c();
        let r = c / 100.0; // the paper's 1% minimum resolution
        for kind in [
            AlgorithmKind::RoundRobin,
            AlgorithmKind::IFocus,
            AlgorithmKind::IFocusR,
        ] {
            let mut cells = Vec::new();
            for &size in sizes {
                // The flight near-ties need ~10^7 samples to resolve; give
                // the runs room (quick mode keeps a tighter cap).
                let cap = if opts.quick { 4_000_000 } else { 40_000_000 };
                let base = AlgoConfig::new(c, 0.05)
                    .with_max_rounds(cap)
                    .with_max_samples_per_group(cap);
                let mut groups = flights.virtual_groups(attr, size);
                let mut rng = StdRng::seed_from_u64(opts.seed + size % 7919);
                let result = kind.run(&base, r, &mut groups, &mut rng);
                let cost = model.sampling_cost(result.total_samples());
                cells.push(format!("{:>10}", secs(cost.total_seconds())));
            }
            println!(
                "{:<16} {:<12} {}",
                attr.name(),
                if kind == AlgorithmKind::IFocusR {
                    "ifocusr(1%)".to_owned()
                } else {
                    kind.name().to_owned()
                },
                cells.join(" ")
            );
        }
    }
    println!("(expect per attribute: ifocusr < ifocus < roundrobin; mild growth with size");
    println!(" driven by the engineered near-tie airline pairs)");
}

/// Extensions ablation (beyond the paper's figures): the §6 variants'
/// sample costs on one common workload, as fractions of full IFOCUS.
pub fn extensions(opts: &ExpOptions) {
    use rapidviz_core::extensions::{IFocusBernstein, IFocusMistakes, IFocusTopT, IFocusTrends};
    header(
        "extensions",
        "§6 variants vs full IFOCUS (truncnorm, k=12, shared dataset)",
    );
    let per_group: u64 = if opts.quick { 50_000 } else { 200_000 };
    let reps = opts.scaled_reps(5);
    let mut rows: Vec<(&str, Vec<f64>)> = vec![
        ("ifocus (full)", Vec::new()),
        ("trends (adjacent)", Vec::new()),
        ("top-3", Vec::new()),
        ("mistakes 5%", Vec::new()),
        ("bernstein", Vec::new()),
    ];
    for rep in 0..reps {
        let spec = DatasetSpec::generate_truncnorm_fixed_std(
            12,
            per_group * 12,
            6.0,
            opts.seed + u64::from(rep) * 97,
        );
        let config = AlgoConfig::new(100.0, 0.05).with_max_rounds(ROUND_CAP);
        let mut data_rng = StdRng::seed_from_u64(opts.seed + 31 + u64::from(rep));
        let base_groups = spec.materialize(&mut data_rng);
        let run_seed = opts.seed ^ ((u64::from(rep) + 1) * 179_424_673);

        let mut g = base_groups.clone();
        let mut rng = StdRng::seed_from_u64(run_seed);
        rows[0].1.push(
            IFocus::new(config.clone())
                .run(&mut g, &mut rng)
                .total_samples() as f64,
        );

        let mut g = base_groups.clone();
        let mut rng = StdRng::seed_from_u64(run_seed);
        rows[1].1.push(
            IFocusTrends::new(config.clone())
                .run(&mut g, &mut rng)
                .total_samples() as f64,
        );

        let mut g = base_groups.clone();
        let mut rng = StdRng::seed_from_u64(run_seed);
        rows[2].1.push(
            IFocusTopT::new(config.clone(), 3)
                .run(&mut g, &mut rng)
                .total_samples() as f64,
        );

        let mut g = base_groups.clone();
        let mut rng = StdRng::seed_from_u64(run_seed);
        rows[3].1.push(
            IFocusMistakes::new(config.clone(), 0.05)
                .run(&mut g, &mut rng)
                .total_samples() as f64,
        );

        let mut g = base_groups;
        let mut rng = StdRng::seed_from_u64(run_seed);
        rows[4].1.push(
            IFocusBernstein::new(config)
                .run(&mut g, &mut rng)
                .total_samples() as f64,
        );
    }
    let full_cost = mean(&rows[0].1);
    println!("{:<20} {:>14} {:>14}", "variant", "avg samples", "vs full");
    for (name, costs) in &rows {
        let avg = mean(costs);
        println!(
            "{:<20} {:>14} {:>13.1}%",
            name,
            count(avg as u64),
            100.0 * avg / full_cost
        );
    }
    println!("(expect: every weaker-guarantee variant below full IFOCUS;");
    println!(" bernstein far below on this low-variance workload)");
}

/// Lower-bound scaling check (Theorems 3.6 + 3.8): on the
/// Canetti–Even–Goldreich instance every `η_i = τ`, so IFOCUS's cost must
/// scale as `Θ(k/τ²)` — halving τ quadruples the samples.
pub fn lowerbound(opts: &ExpOptions) {
    header(
        "lowerbound",
        "IFOCUS cost on the Theorem 3.8 instance vs τ (expect ~4x per halving)",
    );
    let k = 10usize;
    let taus: &[f64] = if opts.quick {
        &[0.004, 0.002]
    } else {
        &[0.004, 0.002, 0.001]
    };
    let reps = opts.scaled_reps(3);
    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "τ", "c²/η²", "avg samples", "x previous"
    );
    let mut prev: Option<f64> = None;
    for &tau in taus {
        let mut totals = Vec::new();
        for rep in 0..reps {
            let spec = rapidviz_datagen::lower_bound_instance(
                k,
                tau,
                1 << 40, // virtual size: never exhausts, pure τ-scaling
                opts.seed + u64::from(rep) * 11,
            );
            let mut groups = spec.virtual_groups();
            let config = AlgoConfig::new(100.0, 0.05);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((u64::from(rep) + 1) * 28_657));
            let result = IFocus::new(config).run(&mut groups, &mut rng);
            totals.push(result.total_samples() as f64);
        }
        let avg = mean(&totals);
        let eta = tau * 100.0;
        let ratio = prev.map_or_else(|| "-".to_owned(), |p| format!("{:.2}", avg / p));
        println!(
            "{tau:<10} {:>12.3e} {:>14} {:>12}",
            (100.0 / eta).powi(2),
            count(avg as u64),
            ratio
        );
        prev = Some(avg);
    }
    println!("(expect: sample counts scale like 1/τ² — the optimality regime of §3.5)");
}

/// Runs every experiment.
pub fn all(opts: &ExpOptions) {
    table1(opts);
    fig3a(opts);
    fig3b(opts);
    fig3c(opts);
    fig4(opts);
    fig5a(opts);
    fig5b(opts);
    fig5c_6a(opts);
    fig6b(opts);
    fig6c(opts);
    fig7a(opts);
    fig7b(opts);
    fig7c(opts);
    table3(opts);
    extensions(opts);
    lowerbound(opts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz_stats::Interval;

    fn row(rounds: u64, intervals: &[(f64, f64)], active: &[bool]) -> Snapshot {
        Snapshot {
            labels: (0..active.len()).map(|i| format!("g{i}")).collect(),
            estimates: vec![0.0; active.len()],
            intervals: intervals
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect(),
            active: active.to_vec(),
            samples_per_group: vec![0; active.len()],
            rounds,
            truncated: false,
        }
    }

    /// Miniature of Table 1: 3 groups; group 0 deactivates at round 2, the
    /// rest at round 3.
    fn example_rows() -> Vec<Snapshot> {
        vec![
            row(1, &[(60.0, 90.0), (20.0, 50.0), (40.0, 70.0)], &[true; 3]),
            row(
                2,
                &[(66.0, 84.0), (28.0, 48.0), (45.0, 65.0)],
                &[false, true, true],
            ),
            row(3, &[(66.0, 84.0), (30.0, 44.0), (46.0, 64.0)], &[false; 3]),
        ]
    }

    #[test]
    fn deactivation_rounds() {
        let rows = example_rows();
        assert_eq!(
            super::deactivation_rounds(&rows),
            vec![Some(2), Some(3), Some(3)]
        );
    }

    #[test]
    fn implied_cost_matches_example_accounting() {
        // Round 1: 3 groups; round 2 samples 3 actives; round 3 samples 2.
        assert_eq!(implied_sample_cost(&example_rows()), 3 + 3 + 2);
    }

    #[test]
    fn render_full_and_transitions() {
        let rendered = render_transitions(&example_rows());
        assert_eq!(rendered.lines().count(), 3, "all rows are transitions here");
        assert!(rendered.contains("[60.0, 90.0] A"));
        assert!(rendered.contains("[66.0, 84.0] I"));
    }

    #[test]
    fn render_collapses_stable_runs() {
        let rows: Vec<Snapshot> = (1..=10)
            .map(|round| row(round, &[(0.0, 1.0)], &[round < 9]))
            .collect();
        // Rows: round 1 (first), round 9 (flip), round 10 (last).
        let rendered = render_transitions(&rows);
        let rounds: Vec<&str> = rendered
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(rounds, ["1", "9", "10"]);
    }

    #[test]
    fn empty_trace() {
        assert_eq!(implied_sample_cost(&[]), 0);
        assert!(super::deactivation_rounds(&[]).is_empty());
        assert_eq!(render_transitions(&[]), "");
    }
}
