//! A fluent query API over the engine — the "five lines to an ordered bar
//! chart" path for downstream users.
//!
//! ```
//! use rapidviz::needletail::{read_csv, CsvOptions, NeedleTail};
//! use rapidviz::VizQuery;
//! use rand::SeedableRng;
//!
//! let csv = "airline,delay\nAA,30\nAA,40\nJB,10\nJB,20\nUA,80\nUA,90\n";
//! let table = read_csv(csv, &CsvOptions::default()).unwrap();
//! let engine = NeedleTail::new(table, &["airline"]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let answer = VizQuery::new(&engine)
//!     .group_by("airline")
//!     .avg("delay")
//!     .delta(0.05)
//!     .execute(&mut rng)
//!     .unwrap();
//!
//! assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
//! ```

use crate::adapter::NeedletailGroup;
use crate::checkpoint::QuerySpec;
use crate::session::{ExactCount, PlanCacheStats, QuerySession, SessionCore, SessionEngine};
use rand::RngCore;
use rapidviz_core::clock::{Clock, SystemClock};
use rapidviz_core::extensions::IFocusSum1;
use rapidviz_core::{AlgoConfig, GroupSource, IFocus, IRefine, RoundRobin};
use rapidviz_needletail::{EngineError, GroupHandle, NeedleTail, Predicate};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::checkpoint::{Aggregate, AlgorithmChoice};

/// Builder for an ordering-guaranteed visualization query.
///
/// Two ways to run it:
///
/// * [`VizQuery::execute`] — blocking; returns the final [`QueryAnswer`].
/// * [`VizQuery::start`] — resumable; returns a [`QuerySession`] that
///   yields a [`crate::RoundUpdate`] per round, honors sample/time budgets,
///   and can be cancelled with the best current answer.
///
/// Both drive the same state machines, so fixed-seed results are identical.
#[derive(Debug, Clone)]
pub struct VizQuery<'a> {
    engine: &'a NeedleTail,
    /// Everything a checkpoint must carry to re-plan the query; an empty
    /// `measure` means none was set yet.
    spec: QuerySpec,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    clock: Arc<dyn Clock>,
}

impl<'a> VizQuery<'a> {
    /// Starts a query against an engine.
    #[must_use]
    pub fn new(engine: &'a NeedleTail) -> Self {
        let spec = QuerySpec {
            group_by: Vec::new(),
            measure: String::new(),
            aggregate: Aggregate::Avg,
            algorithm: AlgorithmChoice::IFocus,
            predicate: Predicate::True,
            delta: 0.05,
            resolution_fraction: None,
            bound: None,
            samples_per_round: None,
            max_samples: None,
        };
        Self::from_spec(engine, spec, Arc::new(SystemClock))
    }

    /// Adds a group-by attribute (call twice for a two-attribute group-by,
    /// §6.3.4).
    #[must_use]
    pub fn group_by(mut self, column: impl Into<String>) -> Self {
        self.spec.group_by.push(column.into());
        self
    }

    /// Sets the measure to `AVG(column)`.
    #[must_use]
    pub fn avg(mut self, column: impl Into<String>) -> Self {
        self.spec.measure = column.into();
        self.spec.aggregate = Aggregate::Avg;
        self
    }

    /// Sets the measure to `SUM(column)` (group sizes come from the index).
    #[must_use]
    pub fn sum(mut self, column: impl Into<String>) -> Self {
        self.spec.measure = column.into();
        self.spec.aggregate = Aggregate::Sum;
        self
    }

    /// Sets the aggregate to `COUNT`, read from the plan: the bitmap index
    /// already holds every group's size under the filter, so estimates are
    /// the exact normalized counts `s_i ∈ [0, 1]` (group rows over the
    /// relation's rows) and no sample is drawn. `column` names any numeric
    /// column; it is validated like a measure but never read. The session
    /// takes one round, which certifies every group at once. Groups with
    /// equal counts certify as a tie: their point intervals coincide, and
    /// the order a display puts them in claims nothing.
    #[must_use]
    pub fn count(mut self, column: impl Into<String>) -> Self {
        self.spec.measure = column.into();
        self.spec.aggregate = Aggregate::Count;
        self
    }

    /// Overrides the ordering algorithm for `AVG` queries (default:
    /// IFOCUS). `SUM` and `COUNT` queries reject non-default overrides at
    /// execution time.
    #[must_use]
    pub fn algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Sets how many samples each round draws per active group (default 1,
    /// the paper's round structure). Larger batches amortize per-round
    /// bookkeeping; the anytime ε still tightens with every sample, so the
    /// guarantee is unchanged, at the cost of up to one batch of overshoot
    /// per group. With [`VizQuery::max_samples`] set, a batch is clamped to
    /// `⌈cap / k⌉` over the plan's `k` groups, so one round cannot draw
    /// far past the budget.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn samples_per_round(mut self, n: u64) -> Self {
        assert!(n > 0, "samples per round must be positive");
        self.spec.samples_per_round = Some(n);
        self
    }

    /// Caps the total number of samples the run may draw. Checked before
    /// every round; when the cap is reached the session (or `execute`)
    /// reports [`StepOutcome::BudgetExhausted`](crate::StepOutcome::BudgetExhausted)
    /// and returns best-effort
    /// estimates flagged as truncated.
    ///
    /// A round that starts under the cap runs to its end, so a run can
    /// overshoot by one round. For IFOCUS, ROUNDROBIN and SUM that is at
    /// most one batch per group, and the batch is clamped to `⌈cap / k⌉`
    /// (see [`VizQuery::samples_per_round`]). An IREFINE round is a whole
    /// phase, and each phase's target is a little over 4× the previous one
    /// (`ε_i` and `δ_i` both halve), so IREFINE can end several times past
    /// the cap: on three 100,000-row two-point groups (means 40, 45 and 60,
    /// `c` = 100), a cap of 1,000 draws 2,904 samples and a cap of 3,000
    /// draws 9,420, where IFOCUS draws 1,002 and 3,000.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn max_samples(mut self, cap: u64) -> Self {
        assert!(cap > 0, "sample budget must be positive");
        self.spec.max_samples = Some(cap);
        self
    }

    /// Caps the run's wall-clock time, measured from [`VizQuery::start`]
    /// (or [`VizQuery::execute`]). Checked before every round.
    #[must_use]
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Sets an absolute wall-clock deadline. Checked before every round;
    /// combines with [`VizQuery::timeout`] (whichever ends first wins).
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the time source the wall-clock budgets
    /// ([`VizQuery::timeout`] / [`VizQuery::deadline`]) are measured
    /// against (default: the real system clock). Tests and the simulation
    /// harness pass a [`rapidviz_core::clock::SimulatedClock`] here so
    /// deadline skew becomes a deterministic, replayable event.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Restricts rows with a predicate (§6.3.3).
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.spec.predicate = predicate;
        self
    }

    /// Sets the failure probability `δ` (default 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `δ ∉ (0, 1)`.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
        self.spec.delta = delta;
        self
    }

    /// Enables the resolution relaxation at `percent`% of the value range
    /// (Problem 2; the paper's experiments use 1%).
    ///
    /// # Panics
    ///
    /// Panics if `percent <= 0`.
    #[must_use]
    pub fn resolution_pct(mut self, percent: f64) -> Self {
        assert!(percent > 0.0, "resolution must be positive");
        self.spec.resolution_fraction = Some(percent / 100.0);
        self
    }

    /// Overrides the value bound `c`. Without this, the engine infers it
    /// from the measure column's observed maximum (padded 10%) — fine for
    /// exploration; supply a domain bound for the strict guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    #[must_use]
    pub fn bound(mut self, c: f64) -> Self {
        assert!(c > 0.0, "bound must be positive");
        self.spec.bound = Some(c);
        self
    }

    /// Plans and runs the query to completion — a thin loop over the same
    /// resumable state machine [`VizQuery::start`] hands out, so
    /// fixed-seed results are identical between the two entry points (and
    /// byte-identical to the historical blocking implementation). Budgets,
    /// if configured, are honored here too.
    ///
    /// # Errors
    ///
    /// Returns engine errors for missing/unindexed/non-numeric columns, a
    /// synthesized error when the builder is incomplete, and
    /// [`EngineError::Unsupported`] for invalid option combinations (e.g.
    /// an algorithm override on `SUM`/`COUNT`).
    pub fn execute(&self, rng: &mut dyn RngCore) -> Result<QueryAnswer, EngineError> {
        let mut core = self.prepare_core(rng)?;
        while core.raw_step(rng).is_running() {}
        Ok(core.finish())
    }

    /// Plans the query and begins a resumable session: the bootstrap
    /// samples are drawn, and every subsequent [`QuerySession::step`]
    /// advances one round. The session owns its groups and the given RNG,
    /// so it can live across UI frames; see [`crate::session`] for a
    /// worked progressive-rendering example.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VizQuery::execute`].
    pub fn start(&self, mut rng: impl RngCore + 'static) -> Result<QuerySession, EngineError> {
        // A checkpoint replays the session from here, so the RNG words are
        // read before planning draws the bootstrap samples. Only the shim
        // `StdRng` can be reseeded from them; a session on any other RNG
        // runs just as well but refuses to checkpoint.
        let seed = (&rng as &dyn std::any::Any)
            .downcast_ref::<rand::rngs::StdRng>()
            .map(rand::rngs::StdRng::state);
        let core = self.prepare_core(&mut rng)?;
        Ok(QuerySession::new(
            core,
            Box::new(rng),
            seed,
            self.spec.clone(),
        ))
    }

    /// A builder over `spec` with no wall-clock budget: the resume path
    /// re-anchors the checkpoint's **remaining** time-to-deadline itself,
    /// once its replay is done.
    pub(crate) fn from_spec(
        engine: &'a NeedleTail,
        spec: QuerySpec,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            engine,
            spec,
            timeout: None,
            deadline: None,
            clock,
        }
    }

    /// Validates the builder, constructs the storage-backed group
    /// samplers, and ignites the algorithm state machine (bootstrap draws
    /// included) — shared by [`VizQuery::execute`], [`VizQuery::start`],
    /// and the checkpoint-resume path.
    pub(crate) fn prepare_core(&self, rng: &mut dyn RngCore) -> Result<SessionCore, EngineError> {
        let spec = &self.spec;
        let measure = spec.measure.as_str();
        if measure.is_empty() {
            return Err(EngineError::InvalidQuery(
                "no measure set: call .avg(column), .sum(column), or .count(column)".into(),
            ));
        }
        if spec.group_by.is_empty() {
            return Err(EngineError::InvalidQuery(
                "no group-by set: call .group_by(column) at least once".into(),
            ));
        }
        // Timeouts anchor at "now" as told by the configured clock, so a
        // simulated clock governs the whole budget pipeline.
        let deadline = match (self.deadline, self.timeout) {
            (Some(d), Some(t)) => Some(d.min(self.clock.now() + t)),
            (Some(d), None) => Some(d),
            (None, Some(t)) => Some(self.clock.now() + t),
            (None, None) => None,
        };
        if spec.aggregate == Aggregate::Count && spec.bound.is_some() {
            // Rejected rather than ignored, for the same loudness as the
            // algorithm-override check below.
            return Err(EngineError::Unsupported(
                "COUNT answers normalized fractions on the fixed [0, 1] scale; \
                 .bound() does not apply"
                    .into(),
            ));
        }
        // Bracket planning with engine metrics snapshots so the session
        // records how the planning caches treated this query (the
        // observability a serving layer keys on).
        let metrics_before = self.engine.metrics().snapshot();
        let handles = if spec.group_by.len() == 1 {
            self.engine
                .group_handles(&spec.group_by[0], measure, &spec.predicate)?
        } else {
            let cols: Vec<&str> = spec.group_by.iter().map(String::as_str).collect();
            self.engine
                .group_handles_multi(&cols, measure, &spec.predicate)?
        };
        let ranges: Vec<bool> = handles.iter().map(GroupHandle::is_row_range).collect();
        let mut groups: Vec<NeedletailGroup> =
            handles.into_iter().map(NeedletailGroup::new).collect();
        let sizes: Vec<u64> = groups.iter().map(GroupSource::len).collect();
        let population = sizes.iter().sum();
        let k = groups.len();
        // Only the sampling algorithms need `c`, so COUNT never infers it.
        let config = || -> Result<AlgoConfig, EngineError> {
            let c = match spec.bound {
                Some(c) => c,
                None => self.infer_bound(measure)?,
            };
            let mut config = AlgoConfig::new(c, spec.delta);
            if let Some(frac) = spec.resolution_fraction {
                config = config.with_resolution(c * frac);
            }
            if let Some(batch) = round_size(spec, k) {
                config = config.with_samples_per_round(batch);
            }
            Ok(config)
        };
        // IFOCUS and Algorithm 4 read the groups `exact_groups` picks whole.
        let cap = spec.max_samples.unwrap_or(u64::MAX);
        let plan = || config().map(|c| (exact_groups(&c, &sizes, &ranges, cap), c));
        let engine: Box<dyn SessionEngine> = match (spec.aggregate, spec.algorithm) {
            (Aggregate::Count, AlgorithmChoice::IFocus) => {
                Box::new(ExactCount::new(&groups, self.engine.table().row_count()))
            }
            // A plan with no group has nothing to sample: it gets COUNT's
            // empty answer, converged at its first step.
            (Aggregate::Avg, _) | (Aggregate::Sum, AlgorithmChoice::IFocus) if k == 0 => {
                Box::new(ExactCount::new(&[], 0))
            }
            (Aggregate::Avg, AlgorithmChoice::IFocus) => {
                let (exact, config) = plan()?;
                let stepper = IFocus::new(config).start_planned(&mut groups, &exact, rng);
                Box::new((stepper, groups))
            }
            (Aggregate::Avg, AlgorithmChoice::IRefine) => {
                Box::new((IRefine::new(config()?).start(&mut groups, rng), groups))
            }
            (Aggregate::Avg, AlgorithmChoice::RoundRobin) => {
                Box::new((RoundRobin::new(config()?).start(&mut groups, rng), groups))
            }
            (Aggregate::Avg, AlgorithmChoice::ExactScan) => {
                Box::new((IFocus::new(config()?).scan(&mut groups, rng), groups))
            }
            (Aggregate::Sum, AlgorithmChoice::IFocus) => {
                let (exact, config) = plan()?;
                let stepper = IFocusSum1::new(config).start_planned(&mut groups, &exact, rng);
                Box::new((stepper, groups))
            }
            (Aggregate::Sum, other) => {
                return Err(EngineError::Unsupported(format!(
                    "SUM uses its dedicated Algorithm 4; cannot override with {other:?}"
                )));
            }
            (Aggregate::Count, other) => {
                return Err(EngineError::Unsupported(format!(
                    "COUNT is read from the index; cannot override with {other:?}"
                )));
            }
        };
        let planning = PlanCacheStats::delta(&metrics_before, &self.engine.metrics().snapshot());
        Ok(SessionCore::new(
            engine,
            population,
            spec.max_samples,
            deadline,
            Arc::clone(&self.clock),
            planning,
        ))
    }

    /// Infers `c` from the measure column's observed maximum (padded 10%),
    /// served from [`NeedleTail`]'s per-column maxima cache (computed on
    /// the column's first use, then O(1)) — planning never re-scans the
    /// table per query.
    ///
    /// The inferred bound deliberately ignores any [`VizQuery::filter`]
    /// predicate: the unfiltered column maximum upper-bounds the maximum of
    /// every filtered subset, so the bound stays conservative and the
    /// ordering guarantee safe (at worst a few extra samples on heavily
    /// filtered queries).
    fn infer_bound(&self, measure: &str) -> Result<f64, EngineError> {
        let schema = self.engine.table().schema();
        schema
            .column_index(measure)
            .ok_or_else(|| EngineError::NoSuchColumn(measure.to_owned()))?;
        // `column_max` is None for string columns (rejected upstream when
        // the group handles were built) and for empty tables, where the
        // 0-row "maximum" degenerates to the 1.0 floor exactly as the old
        // full scan did.
        let max = self.engine.column_max(measure).unwrap_or(0.0).max(0.0);
        Ok((max * 1.1).max(1.0))
    }
}

/// ρ: what one sampled value costs, in rows of one exact pass over a row
/// range (the only shape it was measured on). Probe (release, 2-vCPU
/// x86-64; flight tables of 1M and 4M rows grouped by the clustered
/// `name`, unfiltered, 14 groups; AVG and SUM of three measures at 2 %,
/// spr 256, three seeds each): 28–38 ns a sample against 1.2–1.9 ns a row,
/// ratios 15–26. ρ is the smallest, so a group read whole never costs more.
const RHO: u64 = 15;

/// Marks the groups one exact pass finishes more cheaply than sampling
/// can: with a resolution `r` a group draws at most `m_floor` samples (the
/// schedule's width at the largest size is below `r/4` from there on), so
/// row-range group `i` is read whole iff `n_i ≤ ρ·min(n_i, m_floor)`.
/// Under a sample cap, only while the rows read plus `min(n_j, m_floor)`
/// for each group left sampled fit under it, in plan order: a pass never
/// spends budget a sampled run could have converged on.
fn exact_groups(config: &AlgoConfig, sizes: &[u64], ranges: &[bool], cap: u64) -> Vec<bool> {
    let (Some(target), Some(&n_max)) = (config.resolution_epsilon(), sizes.iter().max()) else {
        return Vec::new();
    };
    let schedule = config.schedule(sizes.len());
    let m_floor = schedule.rounds_to_reach(target, n_max, n_max.max(1));
    let floor = |n: u64| n.min(m_floor.unwrap_or(n_max));
    let mut spent: u64 = sizes.iter().map(|&n| floor(n)).sum();
    let mut exact = |(&n, &range): (&u64, &bool)| {
        let read = range && n <= RHO.saturating_mul(floor(n)) && spent + n - floor(n) <= cap;
        spent += if read { n - floor(n) } else { 0 };
        read
    };
    sizes.iter().zip(ranges).map(&mut exact).collect()
}

/// The spec's `samples_per_round` over `k` planned groups, clamped to
/// `⌈max_samples / k⌉` when a budget is set: the budget is checked only
/// between rounds, and a round draws its batch from every active group.
fn round_size(spec: &QuerySpec, k: usize) -> Option<u64> {
    let batch = spec.samples_per_round?;
    let share = spec
        .max_samples
        .map_or(u64::MAX, |cap| cap.div_ceil(k.max(1) as u64));
    Some(batch.min(share))
}

// `QueryAnswer` lives next to the session that constructs it; re-exported
// here because `VizQuery::run` is its public producer.
pub use crate::session::QueryAnswer;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rapidviz_needletail::{ColumnDef, DataType, Schema, TableBuilder, Value};

    fn engine() -> NeedleTail {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("origin", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..30_000 {
            let (name, mu) = [("AA", 60.0), ("JB", 20.0), ("UA", 85.0)][rng.gen_range(0..3)];
            let origin = ["BOS", "SFO"][rng.gen_range(0..2)];
            let delay = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
            b.push_row(vec![name.into(), origin.into(), Value::Float(delay)]);
        }
        NeedleTail::new(b.finish(), &["name"]).unwrap()
    }

    #[test]
    fn avg_query_end_to_end() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .execute(&mut rng)
            .unwrap();
        assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
        assert!(answer.fraction_sampled() < 1.0);
        let chart = answer.to_bar_chart(20);
        assert_eq!(chart.lines().count(), 3);
    }

    #[test]
    fn groups_are_read_whole_below_rho_times_the_floor_and_under_the_cap() {
        let config = AlgoConfig::new(100.0, 0.05).with_resolution(5.0);
        let exact = |sizes: &[u64], cap| exact_groups(&config, sizes, &[true; 3], cap);
        let none = u64::MAX;
        // k = 3 at 5 %: m_floor is 20,704 samples at a largest size of
        // 60,000 (310,560 = ρ·m_floor rows), 12,198 at 20,000 and ~30,300
        // at 600,000 (~455,000 rows, so that group is sampled).
        assert_eq!(exact(&[60_000, 50_000, 900], none), [true; 3]);
        assert_eq!(exact(&[600_000, 50_000, 900], none), [false, true, true]);
        // Only row ranges, the shape ρ was measured on.
        let shapes = exact_groups(&config, &[60_000, 50_000, 900], &[true, false, true], none);
        assert_eq!(shapes, [true, false, true]);
        // Sampled, three groups of 20,000 rows need at most 3 × 12,198 =
        // 36,594 samples; reading one whole adds 7,802 (44,396), a second
        // another 7,802 (52,198), past a cap of 45,000.
        assert_eq!(exact(&[20_000; 3], 45_000), [true, false, false]);
        assert_eq!(exact(&[20_000; 3], 44_395), [false; 3]);
        let unrelaxed = AlgoConfig::new(100.0, 0.05);
        assert!(exact_groups(&unrelaxed, &[10; 3], &[true; 3], none).is_empty());
        // The paper's sizes stay sampled: ten groups of 10^8, 10^9 and
        // 10^10 rows at 1 % (`resolution_sample_count_is_size_invariant`).
        let paper = AlgoConfig::new(100.0, 0.05).with_resolution(1.0);
        for n in [100_000_000, 1_000_000_000, 10_000_000_000] {
            assert_eq!(
                exact_groups(&paper, &[n; 10], &[true; 10], none),
                [false; 10]
            );
        }
        // One row above ρ·m_floor is sampled, ρ·m_floor rows are read
        // whole. m_floor grows with n (it is n until the width can reach
        // the target), so step n to ρ·m_floor(n) + 1 until it holds still.
        let target = config.resolution_epsilon().unwrap();
        let m_floor = |n| {
            config
                .schedule(3)
                .rounds_to_reach(target, n, n)
                .unwrap_or(n)
        };
        let mut n = 1;
        while n != RHO * m_floor(n) + 1 {
            n = RHO * m_floor(n) + 1;
        }
        assert_eq!(exact(&[n; 3], none), [false; 3], "{n} rows");
        assert_eq!(exact(&[n - 1; 3], none), [true; 3], "{} rows", n - 1);
    }

    #[test]
    fn filtered_query() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .bound(100.0)
            .filter(Predicate::eq("origin", "BOS"))
            .execute(&mut rng)
            .unwrap();
        assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
    }

    #[test]
    fn multi_group_by_query() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .group_by("origin")
            .avg("delay")
            .bound(100.0)
            .resolution_pct(2.0)
            .execute(&mut rng)
            .unwrap();
        assert_eq!(answer.result.labels.len(), 6, "3 airlines x 2 origins");
        assert!(answer.result.labels.iter().any(|l| l == "AA|BOS"));
    }

    #[test]
    fn sum_query_orders_by_total() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .sum("delay")
            .bound(100.0)
            .execute(&mut rng)
            .unwrap();
        // Roughly equal sizes: SUM order mirrors AVG order here.
        assert_eq!(answer.ranked_labels().last(), Some(&"UA"));
    }

    #[test]
    fn count_rejects_a_filter_instead_of_ignoring_it() {
        // The filter is honoured, not ignored: each estimate is the group's
        // filtered row count over the whole relation's row count.
        let engine = engine();
        let bos = Predicate::eq("origin", "BOS");
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .count("delay")
            .filter(bos.clone())
            .execute(&mut rng)
            .unwrap();
        let rows = engine.table().row_count() as f64;
        let scanned = engine.scan("name", "delay", &bos).unwrap();
        assert_eq!(answer.result.labels.len(), scanned.len());
        for g in scanned {
            let i = answer
                .result
                .labels
                .iter()
                .position(|l| *l == g.group.to_string())
                .unwrap();
            assert_eq!(answer.result.estimates[i], g.count as f64 / rows);
        }
        let total: f64 = answer.result.estimates.iter().sum();
        assert!(total > 0.4 && total < 0.6, "about half the rows are BOS");
    }

    #[test]
    fn a_plan_with_no_group_answers_empty_at_its_first_step() {
        // Every pair the planner accepts unfiltered starts under a filter
        // that matches no row and converges at its first step with no
        // group; a refused override stays refused.
        let engine = engine();
        let none = Predicate::eq("origin", "nope");
        for aggregate in [Aggregate::Avg, Aggregate::Sum, Aggregate::Count] {
            for algorithm in [
                AlgorithmChoice::IFocus,
                AlgorithmChoice::IRefine,
                AlgorithmChoice::RoundRobin,
                AlgorithmChoice::ExactScan,
            ] {
                let query = |filter: Predicate| {
                    let q = VizQuery::new(&engine).group_by("name").resolution_pct(5.0);
                    let q = match aggregate {
                        Aggregate::Avg => q.avg("delay"),
                        Aggregate::Sum => q.sum("delay"),
                        Aggregate::Count => q.count("delay"),
                    };
                    q.algorithm(algorithm)
                        .filter(filter)
                        .start(rand::rngs::StdRng::seed_from_u64(13))
                };
                let pair = format!("{aggregate:?} {algorithm:?}");
                if query(Predicate::True).is_err() {
                    assert!(query(none.clone()).is_err(), "{pair}: now accepted");
                    continue;
                }
                let mut session = query(none.clone()).unwrap();
                assert_eq!(session.by_ref().count(), 1, "{pair}");
                let answer = session.finish();
                assert!(answer.converged(), "{pair}");
                assert!(answer.result.labels.is_empty(), "{pair}");
                assert_eq!(answer.population, 0, "{pair}");
            }
        }
    }

    #[test]
    fn inferred_bound_still_correct() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let answer = VizQuery::new(&engine)
            .group_by("name")
            .avg("delay")
            .execute(&mut rng)
            .unwrap();
        assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
    }

    #[test]
    fn builder_errors() {
        let engine = engine();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Incomplete builders are invalid queries, not phantom columns.
        let no_group = VizQuery::new(&engine)
            .avg("delay")
            .execute(&mut rng)
            .unwrap_err();
        assert!(
            matches!(&no_group, EngineError::InvalidQuery(msg) if msg.contains("group-by")),
            "expected InvalidQuery about the group-by, got {no_group:?}"
        );
        let no_measure = VizQuery::new(&engine)
            .group_by("name")
            .execute(&mut rng)
            .unwrap_err();
        assert!(
            matches!(&no_measure, EngineError::InvalidQuery(msg) if msg.contains("measure")),
            "expected InvalidQuery about the measure, got {no_measure:?}"
        );
        // A genuinely missing/unindexed column still reports a column
        // error naming the real column, never a sentinel.
        let bad_column = VizQuery::new(&engine)
            .group_by("nope")
            .avg("delay")
            .execute(&mut rng)
            .unwrap_err();
        assert!(
            matches!(&bad_column, EngineError::NotIndexed(c) if c == "nope"),
            "expected NotIndexed(\"nope\"), got {bad_column:?}"
        );
        let bad_measure = VizQuery::new(&engine)
            .group_by("name")
            .avg("nope")
            .execute(&mut rng)
            .unwrap_err();
        assert_eq!(bad_measure, EngineError::NoSuchColumn("nope".into()));
    }
}
