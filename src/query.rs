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

use crate::adapter::{NeedletailGroup, SizedNeedletailGroup};
use crate::checkpoint::QuerySpec;
use crate::session::{PlanCacheStats, QuerySession, SessionCore, SessionEngine};
use rand::RngCore;
use rapidviz_core::clock::{Clock, SystemClock};
use rapidviz_core::extensions::{count_config, CountSource, IFocusSum1, IFocusSum2};
use rapidviz_core::{AlgoConfig, ExactScan, GroupSource, IFocus, IRefine, RoundRobin};
use rapidviz_needletail::{EngineError, NeedleTail, Predicate};
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

    /// Sets the aggregate to `COUNT` with **unknown** group sizes: the
    /// engine's size-estimating samplers feed the §6.3.2 reduction of
    /// Algorithm 5, and estimates are normalized counts `s_i ∈ [0, 1]`.
    /// `column` names any indexed numeric column — the sampling machinery
    /// draws through it, but only the size-estimate stream is consumed.
    ///
    /// Tip: near-tied group sizes never separate under exact ordering
    /// (the `z` stream is i.i.d. and never exhausts); set a resolution
    /// ([`VizQuery::resolution_pct`], interpreted on the `[0, 1]` count
    /// scale) or a session budget to bound such runs.
    #[must_use]
    pub fn count(mut self, column: impl Into<String>) -> Self {
        self.spec.measure = column.into();
        self.spec.aggregate = Aggregate::Count;
        self
    }

    /// Overrides the ordering algorithm for `AVG` queries (default:
    /// IFOCUS). `SUM`/`COUNT` queries reject non-default overrides at
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
        // Bracket planning with engine metrics snapshots so the session
        // records how the planning caches treated this query (the
        // observability a serving layer keys on).
        let metrics_before = self.engine.metrics().snapshot();
        let (engine, population): (Box<dyn SessionEngine>, u64) = match spec.aggregate {
            Aggregate::Avg | Aggregate::Sum => {
                let handles = if spec.group_by.len() == 1 {
                    self.engine
                        .group_handles(&spec.group_by[0], measure, &spec.predicate)?
                } else {
                    let cols: Vec<&str> = spec.group_by.iter().map(String::as_str).collect();
                    self.engine
                        .group_handles_multi(&cols, measure, &spec.predicate)?
                };
                let mut groups: Vec<NeedletailGroup> =
                    handles.into_iter().map(NeedletailGroup::new).collect();
                let c = match spec.bound {
                    Some(c) => c,
                    None => self.infer_bound(measure)?,
                };
                let mut config = AlgoConfig::new(c, spec.delta);
                if let Some(frac) = spec.resolution_fraction {
                    config = config.with_resolution(c * frac);
                }
                if let Some(batch) = round_size(spec, groups.len()) {
                    config = config.with_samples_per_round(batch);
                }
                let population = groups.iter().map(GroupSource::len).sum();
                let engine: Box<dyn SessionEngine> = match (spec.aggregate, spec.algorithm) {
                    (Aggregate::Avg, AlgorithmChoice::IFocus) => {
                        Box::new((IFocus::new(config).start(&mut groups, rng), groups))
                    }
                    (Aggregate::Avg, AlgorithmChoice::IRefine) => {
                        Box::new((IRefine::new(config).start(&mut groups, rng), groups))
                    }
                    (Aggregate::Avg, AlgorithmChoice::RoundRobin) => {
                        Box::new((RoundRobin::new(config).start(&mut groups, rng), groups))
                    }
                    (Aggregate::Avg, AlgorithmChoice::ExactScan) => {
                        Box::new((ExactScan::new(config).start(&mut groups, rng), groups))
                    }
                    (Aggregate::Sum, AlgorithmChoice::IFocus) => {
                        Box::new((IFocusSum1::new(config).start(&mut groups, rng), groups))
                    }
                    (Aggregate::Sum, other) => {
                        return Err(EngineError::Unsupported(format!(
                            "SUM uses its dedicated Algorithm 4; cannot override with {other:?}"
                        )));
                    }
                    (Aggregate::Count, _) => unreachable!("handled in the outer match"),
                };
                (engine, population)
            }
            Aggregate::Count => {
                if spec.bound.is_some() {
                    // Rejected rather than ignored, for the same loudness
                    // as the algorithm-override check below.
                    return Err(EngineError::Unsupported(
                        "COUNT estimates normalized fractions on the fixed [0, 1] scale; \
                         .bound() does not apply"
                            .into(),
                    ));
                }
                if spec.algorithm != AlgorithmChoice::IFocus {
                    return Err(EngineError::Unsupported(format!(
                        "COUNT uses its dedicated Algorithm 5 reduction; cannot override with {:?}",
                        spec.algorithm
                    )));
                }
                if spec.group_by.len() != 1 {
                    return Err(EngineError::Unsupported(
                        "COUNT supports a single group-by attribute".into(),
                    ));
                }
                if spec.predicate != Predicate::True {
                    // The size-estimating handles sample the whole
                    // relation; answering anyway would be a confident
                    // statement about the unfiltered table.
                    return Err(EngineError::Unsupported(
                        "COUNT samples the whole relation through its size-estimating handles; \
                         .filter() does not apply"
                            .into(),
                    ));
                }
                let handles = self
                    .engine
                    .sized_group_handles(&spec.group_by[0], measure)?;
                let mut groups: Vec<CountSource<SizedNeedletailGroup>> = handles
                    .into_iter()
                    .map(|h| CountSource::new(SizedNeedletailGroup::new(h)))
                    .collect();
                let population = groups.iter().map(|g| g.inner().handle().eligible()).sum();
                // The z stream lives in [0, 1], so c = 1 and the resolution
                // fraction applies directly on the normalized-count scale.
                let mut config = AlgoConfig::new(1.0, spec.delta);
                if let Some(frac) = spec.resolution_fraction {
                    config = config.with_resolution(frac);
                }
                if let Some(batch) = round_size(spec, groups.len()) {
                    config = config.with_samples_per_round(batch);
                }
                let stepper = IFocusSum2::new(count_config(&config)).start(&mut groups, rng);
                (Box::new((stepper, groups)), population)
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
            .resolution_pct(1.0)
            .execute(&mut rng)
            .unwrap();
        assert_eq!(answer.ranked_labels(), vec!["JB", "AA", "UA"]);
        assert!(answer.fraction_sampled() < 1.0);
        let chart = answer.to_bar_chart(20);
        assert_eq!(chart.lines().count(), 3);
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
        let engine = engine();
        let query = VizQuery::new(&engine).group_by("name").count("delay");
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        assert!(query.clone().resolution_pct(5.0).execute(&mut rng).is_ok());
        let err = query
            .filter(Predicate::eq("origin", "BOS"))
            .execute(&mut rng)
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Unsupported(msg) if msg.contains(".filter()")),
            "expected Unsupported about the filter, got {err:?}"
        );
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
