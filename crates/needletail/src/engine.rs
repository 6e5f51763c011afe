//! The NEEDLETAIL engine façade.
//!
//! [`NeedleTail`] owns a loaded [`Table`], builds bitmap indexes over the
//! requested attributes, and hands out per-group [`GroupHandle`]s: samplers
//! that return uniformly random measure values from one group (optionally
//! intersected with an ad-hoc predicate), with every retrieval counted in
//! the shared [`Metrics`]. This is the sampling engine the query-processing
//! algorithms of `rapidviz-core` plug into — §2.2's "use the index to get an
//! additional sample of Y at random from any group S_i".

use crate::bitmap::Bitmap;
use crate::cache::LruCache;
use crate::fault::{FaultInjector, FaultSite};
use crate::index::BitmapIndex;
use crate::metrics::Metrics;
use crate::predicate::Predicate;
use crate::sampler::{BitmapSampler, RowSet, SizeEstimatingSampler};
use crate::scan::{scan_group_aggregates, GroupAggregate};
use crate::schema::DataType;
use crate::table::{Measure, Table};
use crate::value::Value;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Errors surfaced by engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The named column does not exist.
    NoSuchColumn(String),
    /// The named column is not indexed and the operation needs an index.
    NotIndexed(String),
    /// The measure column, or a range predicate's column, is not numeric.
    NotNumeric(String),
    /// The requested combination of query options is not supported (e.g.
    /// an algorithm override on an aggregate with a dedicated algorithm).
    Unsupported(String),
    /// The query specification itself is malformed — a required clause is
    /// missing (no measure, no group-by). Distinct from
    /// [`EngineError::NoSuchColumn`]: no column was named at all, so no
    /// sentinel "column name" is fabricated for the message.
    InvalidQuery(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchColumn(c) => write!(f, "no column named {c:?}"),
            EngineError::NotIndexed(c) => write!(f, "column {c:?} is not indexed"),
            EngineError::NotNumeric(c) => write!(f, "column {c:?} is not numeric"),
            EngineError::Unsupported(what) => write!(f, "unsupported query: {what}"),
            EngineError::InvalidQuery(what) => write!(f, "invalid query: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Entries kept in the plan LRU (one per distinct `(group-by, predicate)`
/// pair). Plans mostly *share* bitmaps with the indexes, so entries are
/// cheap; selective-intersection views are the only storage a plan owns
/// outright.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Selectivity cutover for filtered group plans: when the smaller operand
/// of `group ∧ predicate` has at most `table_rows / 64` ones, the plan
/// stores the intersection as a sorted-position **view**
/// ([`RowSet::Positions`], built by galloping the smaller operand and
/// membership-testing the larger) instead of materializing a table-length
/// bitmap. At 64 bits of universe per eligible row the view's `u64`
/// positions can never occupy more memory than the dense bitmap it
/// replaces, its construction touches `O(min(|group|, |predicate|))` rows
/// rather than `O(table)` words, and `select(k)` becomes a direct index —
/// below the cutover the view wins on every axis, above it the fused
/// word-AND materialization does. Multi-column cells apply the same rule
/// to their exact size.
const VIEW_CUTOVER_DENSITY: u64 = 64;

/// Cache key for one planned group-by: the group columns plus the
/// predicate's canonical form ([`Predicate::canonical_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Single-attribute index path vs multi-column cell path. The two
    /// label and order groups differently (cells join display strings with
    /// `|` and sort by them) even over one column, so they must not share
    /// entries.
    multi: bool,
    group_cols: Vec<String>,
    predicate: String,
}

/// A ready-to-serve plan: per-group labels and eligible-row sets, in index
/// order, with predicate-emptied groups already dropped. Cheap to clone
/// out of the cache — every [`RowSet`] is shared storage.
#[derive(Debug)]
struct CachedPlan {
    groups: Vec<(Value, RowSet)>,
}

/// Locks a cache mutex, recovering from poisoning: the caches hold only
/// rebuildable derived data, so a peer that panicked mid-insert cannot
/// leave them logically corrupt — at worst an entry is missing and gets
/// rebuilt.
fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The sampling engine: a table plus its bitmap indexes.
///
/// ```
/// use rapidviz_needletail::{NeedleTail, Predicate, read_csv, CsvOptions};
/// use rand::SeedableRng;
///
/// let csv = "name,delay\nAA,30\nJB,10\nAA,50\nJB,20\n";
/// let table = read_csv(csv, &CsvOptions::default()).unwrap();
/// let engine = NeedleTail::new(table, &["name"]).unwrap();
///
/// // Exact aggregates via the SCAN path...
/// let aggs = engine.scan("name", "delay", &Predicate::True).unwrap();
/// assert_eq!(aggs[0].mean(), Some(40.0)); // AA
///
/// // ...or random per-group samples via the bitmap indexes.
/// let handles = engine.group_handles("name", "delay", &Predicate::True).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = handles[0].sample_with_replacement(&mut rng).unwrap();
/// assert!(x == 30.0 || x == 50.0);
/// ```
///
/// # Planning caches
///
/// The engine's table is immutable for its lifetime, so every planning
/// artifact is cacheable forever with **no invalidation story beyond the
/// engine's own drop** — the same contract as the per-column maxima behind
/// [`NeedleTail::column_max`]. One interior cache (behind a lock; the
/// engine stays shareable by `&`) makes repeat-query planning near-O(1):
/// **group plans** (64 entries), keyed by `(group columns, canonical
/// predicate)` — the labels and per-group eligible-row sets
/// ([`NeedleTail::group_handles`] / [`NeedleTail::group_handles_multi`]).
/// [`Predicate::canonical_key`] flattens and sorts `AND`/`OR` chains, so
/// every spelling of a dashboard's shared filter hits one entry. A warm hit
/// hands back shared [`RowSet`]s: no predicate evaluation, no per-group
/// intersection, no table-sized copies — fresh sampler state over shared
/// rows.
///
/// Nothing under the plan cache is cached again. The plan key already holds
/// the canonical predicate, so a predicate-bitmap cache would only be
/// consulted on a plan miss for a key population the plan cache already
/// covers; a plan miss under a new group-by pays one predicate evaluation,
/// which is small beside the per-group work it pays anyway. Multi-column
/// cells are planned in one pass over the qualifying rows, with no joint
/// index to keep.
///
/// Groups of the clustered column (the first indexed one, see
/// [`NeedleTail::new`]) are row ranges `[s_g, e_g)`, so they plan without
/// any intersection. Unfiltered, each is that [`RowSet::Range`]; under a
/// filter, each is a [`RowSet::Window`] over the ranks
/// `rank(s_g)..rank(e_g)` of the one shared predicate bitmap. A cold plan
/// costs at most two `rank` calls per group and copies nothing.
///
/// Group-bys on other columns intersect each group with the predicate and
/// choose between a fused word-AND materialization and a sorted-position
/// intersection view by selectivity: below one eligible row per 64 rows of
/// table (`VIEW_CUTOVER_DENSITY`) the view is smaller *and* faster to build
/// and select from; above it the fused word-AND wins. Multi-column cells
/// apply the same cutover to each cell's exact size. Every shape exposes
/// the same row set, and cached plans share the very sets the cold plan
/// built, so **fixed-seed results are byte-identical cold or warm** —
/// regression-tested in `tests/plan_cache.rs`.
///
/// The cache is LRU-bounded; [`NeedleTail::clear_plan_caches`] drops it
/// (memory pressure, tests) at no correctness cost.
#[derive(Debug)]
pub struct NeedleTail {
    table: Arc<Table>,
    indexes: HashMap<String, BitmapIndex>,
    /// The column the rows are clustered by (the first indexed one): each
    /// of its groups is one row range (see [`NeedleTail::new`]).
    clustered: Option<String>,
    metrics: Arc<Metrics>,
    /// Per-column observed maxima (schema order; `None` for string columns
    /// and empty tables), each computed lazily on its first
    /// [`NeedleTail::column_max`] request and cached for the engine's
    /// lifetime — bound inference during query planning amortizes to O(1)
    /// instead of a full table scan per query, and columns never queried
    /// (or queries that always supply an explicit bound) cost nothing.
    column_maxima: Vec<std::sync::OnceLock<Option<f64>>>,
    /// Ready group plans by `(group-by, canonical predicate)` (see the
    /// [planning-caches](#planning-caches) docs).
    plans: Mutex<LruCache<PlanKey, Arc<CachedPlan>>>,
    /// Fault injector consulted on every sampled-row read (see
    /// [`crate::fault`]). Captured by handles at build time, so installing
    /// or clearing an injector affects only handles built afterwards.
    faults: Option<Arc<dyn FaultInjector>>,
}

impl NeedleTail {
    /// Loads a table, clusters its rows by the first indexed column, and
    /// builds bitmap indexes over `indexed_columns`.
    ///
    /// # Row ids are engine-internal
    ///
    /// Every column is stably reordered by `indexed_columns[0]` (string
    /// values ranged in dictionary order, numeric ones ascending), so each
    /// group `g` of that column becomes one row range `[s_g, e_g)` whose
    /// `r`-th row is the `r`-th row of `g` in the loaded order, with the
    /// same values. Row ids in [`NeedleTail::table`], the indexes, the
    /// samplers and a [`FaultInjector`]'s `(site, row)` decisions all
    /// refer to this clustered order, not to the order the table was
    /// built in. With no indexed column the rows stay as loaded.
    ///
    /// Group-bys on the clustered column draw exactly what they drew
    /// before clustering, filtered or not: rank `r` of a group (or of a
    /// filtered group, or of a multi-column cell led by that column) still
    /// resolves to the same original row. A group-by on any other column
    /// sees its rows in a different order, so its fixed-seed draws differ,
    /// but not their distribution: the map from a group's rank to its row
    /// is a fixed bijection, chosen when the engine is built, before any
    /// draw and independently of the RNG. A uniform rank through a fixed
    /// bijection is a uniform row, so with or without replacement the
    /// sampled values have the same distribution over the same multiset
    /// of group values, and every confidence bound holds unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSuchColumn`] if an index target is missing.
    pub fn new(mut table: Table, indexed_columns: &[&str]) -> Result<Self, EngineError> {
        for col in indexed_columns {
            if table.schema().column_index(col).is_none() {
                return Err(EngineError::NoSuchColumn((*col).to_owned()));
            }
        }
        if let Some(first) = indexed_columns
            .first()
            .and_then(|col| table.schema().column_index(col))
        {
            table.cluster_by(first);
        }
        let indexes = indexed_columns
            .iter()
            .map(|c| ((*c).to_owned(), BitmapIndex::build(&table, c)))
            .collect();
        let column_maxima = (0..table.schema().columns().len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        Ok(Self {
            table: Arc::new(table),
            indexes,
            clustered: indexed_columns.first().map(|c| (*c).to_owned()),
            metrics: Arc::new(Metrics::new()),
            column_maxima,
            plans: Mutex::new(LruCache::new(PLAN_CACHE_CAPACITY)),
            faults: None,
        })
    }

    /// Installs a fault injector consulted on every sampled-row read from
    /// handles built **after** this call (handles capture the injector at
    /// build time). Rows the injector fails are dropped from the delivered
    /// draws — single draws return `None`, batches come up short — and
    /// charged to
    /// [`faulted_reads`](crate::metrics::MetricsSnapshot::faulted_reads);
    /// the algorithm layer sees an early-exhausted group and degrades to
    /// best-effort estimates. See [`crate::fault`] for the determinism
    /// contract.
    pub fn set_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.faults = Some(injector);
    }

    /// The observed maximum of a numeric column (`None` for string
    /// columns, unknown columns, and empty tables). The first request for
    /// a column pays one sequential scan; the result is cached in the
    /// engine for every later call, so bound inference during query
    /// planning amortizes to O(1) instead of a full table scan per query.
    #[must_use]
    pub fn column_max(&self, column: &str) -> Option<f64> {
        let idx = self.table.schema().column_index(column)?;
        *self.column_maxima[idx].get_or_init(|| {
            let rows = self.table.row_count();
            if self.table.schema().columns()[idx].data_type == DataType::Str || rows == 0 {
                return None;
            }
            Some(
                (0..rows)
                    .map(|row| self.table.float_value(row, idx))
                    .fold(f64::NEG_INFINITY, f64::max),
            )
        })
    }

    /// The underlying table, its rows clustered by the first indexed
    /// column: row ids are engine-internal (see [`NeedleTail::new`]).
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The shared metrics sink.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The index over `column`, if built.
    #[must_use]
    pub fn index(&self, column: &str) -> Option<&BitmapIndex> {
        self.indexes.get(column)
    }

    /// All indexes, for predicate evaluation.
    #[must_use]
    pub fn indexes(&self) -> &HashMap<String, BitmapIndex> {
        &self.indexes
    }

    /// Evaluates `predicate` to a shared eligibility bitmap. A bare
    /// equality atom on an indexed column is served zero-copy (the index's
    /// own bitmap); anything else, `True` included (a fresh all-ones
    /// bitmap), is evaluated afresh — planning caches whole plans instead
    /// (see the [planning-caches](#planning-caches) docs) and plans `True`
    /// without a bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the predicate references a missing column, or applies a
    /// range to an unindexed string column.
    #[must_use]
    pub fn predicate_bitmap(&self, predicate: &Predicate) -> Arc<Bitmap> {
        if let Predicate::Eq(col, value) = predicate {
            if let Some(shared) = self
                .indexes
                .get(col)
                .and_then(|index| index.shared_bitmap_for(value))
            {
                return Arc::clone(shared);
            }
        }
        Arc::new(predicate.evaluate(&self.table, &self.indexes))
    }

    /// Drops the plan cache. Purely a memory-pressure/benchmarking valve:
    /// the cache is repopulated on demand and carries no correctness
    /// state, since the underlying table is immutable.
    pub fn clear_plan_caches(&self) {
        lock(&self.plans).clear();
    }

    /// Resolves every column `predicate` names against the schema, so
    /// evaluation cannot panic: a missing column is
    /// [`EngineError::NoSuchColumn`], a range over a string column
    /// [`EngineError::NotNumeric`].
    fn check_predicate(&self, predicate: &Predicate) -> Result<(), EngineError> {
        match predicate {
            Predicate::Range { column, .. } => self.numeric_column(column).map(drop),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                self.check_predicate(a)?;
                self.check_predicate(b)
            }
            Predicate::Not(p) => self.check_predicate(p),
            atom => match atom
                .referenced_columns()
                .into_iter()
                .find(|col| self.table.schema().column_index(col).is_none())
            {
                Some(missing) => Err(EngineError::NoSuchColumn(missing.to_owned())),
                None => Ok(()),
            },
        }
    }

    /// The checked predicate's eligibility bitmap for a cold plan to
    /// intersect each group with; `None` for `True` (groups are shared
    /// unfiltered).
    fn plan_filter(&self, predicate: &Predicate) -> Result<Option<Arc<Bitmap>>, EngineError> {
        if matches!(predicate, Predicate::True) {
            return Ok(None);
        }
        self.check_predicate(predicate)?;
        Ok(Some(self.predicate_bitmap(predicate)))
    }

    /// The plan for `key`, served from the plan cache or built via
    /// `build` and cached.
    fn plan_for(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<Vec<(Value, RowSet)>, EngineError>,
    ) -> Result<Arc<CachedPlan>, EngineError> {
        if let Some(hit) = lock(&self.plans).get(&key) {
            self.metrics.add_plan_cache_lookup(true);
            return Ok(Arc::clone(hit));
        }
        self.metrics.add_plan_cache_lookup(false);
        let plan = Arc::new(CachedPlan { groups: build()? });
        lock(&self.plans).insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// `base ∧ predicate` as a [`RowSet`], `None` when the intersection is
    /// empty (the group contributes no aggregate — SQL `GROUP BY` over
    /// filtered rows). No predicate shares `base` zero-copy; filtered
    /// groups pick view vs materialization by [`VIEW_CUTOVER_DENSITY`].
    fn intersect_rows(&self, base: &Arc<Bitmap>, pred: Option<&Arc<Bitmap>>) -> Option<RowSet> {
        let Some(pred) = pred else {
            if base.count_ones() == 0 {
                return None;
            }
            return Some(RowSet::Bitmap(Arc::clone(base)));
        };
        let table_rows = self.table.row_count();
        let smaller = base.count_ones().min(pred.count_ones());
        if smaller.saturating_mul(VIEW_CUTOVER_DENSITY) <= table_rows {
            let mut positions = Vec::new();
            base.intersect_positions(pred, &mut positions);
            if positions.is_empty() {
                return None;
            }
            Some(RowSet::Positions {
                positions: Arc::new(positions),
                universe: table_rows,
            })
        } else {
            let bitmap = base.and(pred);
            if bitmap.count_ones() == 0 {
                return None;
            }
            Some(RowSet::Bitmap(Arc::new(bitmap)))
        }
    }

    /// The clustered column's groups: group `g` is the row range `[s, e)`,
    /// a [`RowSet::Range`] unfiltered. Under a filter its rows are the
    /// filter's ones of rank `rank(s)..rank(e)`, a [`RowSet::Window`]: two
    /// `rank` calls per group, nothing copied. Groups the filter empties are
    /// dropped.
    fn clustered_groups(
        &self,
        index: &BitmapIndex,
        filter: Option<&Arc<Bitmap>>,
    ) -> Vec<(Value, RowSet)> {
        let mut groups = Vec::with_capacity(index.distinct_count());
        for value in index.values() {
            let Some((start, len)) = index
                .bitmap_for(&value)
                .and_then(|rows| Some((rows.select(0)?, rows.count_ones())))
            else {
                continue;
            };
            let rows = match filter {
                None => RowSet::Range {
                    start,
                    count: len,
                    universe: self.table.row_count(),
                },
                Some(bits) => {
                    let first = bits.rank(start);
                    let count = bits.rank(start + len) - first;
                    if count == 0 {
                        continue;
                    }
                    let bits = Arc::clone(bits);
                    RowSet::Window { bits, first, count }
                }
            };
            groups.push((value, rows));
        }
        groups
    }

    /// Validates that `agg_col` exists and is numeric, returning its
    /// schema position.
    fn numeric_column(&self, agg_col: &str) -> Result<usize, EngineError> {
        let agg_idx = self
            .table
            .schema()
            .column_index(agg_col)
            .ok_or_else(|| EngineError::NoSuchColumn(agg_col.to_owned()))?;
        if self.table.schema().columns()[agg_idx].data_type == DataType::Str {
            return Err(EngineError::NotNumeric(agg_col.to_owned()));
        }
        Ok(agg_idx)
    }

    /// Materializes fresh handles over a (possibly cached) plan: shared
    /// row sets, fresh per-handle sampler state.
    fn handles_from_plan(&self, plan: &CachedPlan, agg_idx: usize) -> Vec<GroupHandle> {
        plan.groups
            .iter()
            .map(|(label, rows)| GroupHandle {
                label: label.clone(),
                agg_idx,
                table: Arc::clone(&self.table),
                sampler: BitmapSampler::from_rows(rows.clone()),
                metrics: Arc::clone(&self.metrics),
                faults: self.faults.clone(),
                rows_buf: Vec::new(),
            })
            .collect()
    }

    /// Builds one [`GroupHandle`] per distinct value of `group_col`
    /// (in index order), sampling `agg_col`, restricted to rows satisfying
    /// `predicate`.
    ///
    /// Groups emptied by the predicate are dropped — they contribute no
    /// aggregate, mirroring SQL `GROUP BY` semantics over filtered rows.
    ///
    /// Plans are served from the engine's caches (see the
    /// [planning-caches](NeedleTail#planning-caches) docs): repeat queries
    /// skip predicate evaluation and per-group intersection entirely, and
    /// unfiltered queries copy nothing (the clustered column's groups are
    /// row ranges, other columns' groups share their own index bitmaps).
    /// Handles
    /// from a cached plan draw **byte-identical** fixed-seed sample
    /// streams to cold-planned ones.
    ///
    /// # Errors
    ///
    /// Returns an error if `group_col` is unindexed or missing, if
    /// `agg_col` is missing or non-numeric, or if `predicate` names a
    /// missing column or ranges over a string one.
    pub fn group_handles(
        &self,
        group_col: &str,
        agg_col: &str,
        predicate: &Predicate,
    ) -> Result<Vec<GroupHandle>, EngineError> {
        let agg_idx = self.numeric_column(agg_col)?;
        let key = PlanKey {
            multi: false,
            group_cols: vec![group_col.to_owned()],
            predicate: predicate.canonical_key(),
        };
        let plan = self.plan_for(key, || {
            let index = self
                .indexes
                .get(group_col)
                .ok_or_else(|| EngineError::NotIndexed(group_col.to_owned()))?;
            let pred_bitmap = self.plan_filter(predicate)?;
            if self.clustered.as_deref() == Some(group_col) {
                return Ok(self.clustered_groups(index, pred_bitmap.as_ref()));
            }
            let mut groups = Vec::with_capacity(index.distinct_count());
            for value in index.values() {
                #[expect(clippy::expect_used, reason = "values() lists only present keys")]
                let base = index
                    .shared_bitmap_for(&value)
                    .expect("index lists only present values");
                if let Some(rows) = self.intersect_rows(base, pred_bitmap.as_ref()) {
                    groups.push((value, rows));
                }
            }
            Ok(groups)
        })?;
        Ok(self.handles_from_plan(&plan, agg_idx))
    }

    /// Builds one [`GroupHandle`] per cell of a multi-attribute group-by
    /// (§6.3.4): each distinct tuple of `group_cols` values among the rows
    /// satisfying `predicate`. Cell labels join the values' display strings
    /// with `|`, and cells come in ascending order of that string tuple (so
    /// `10` sorts before `9`). Any number of columns works; the wire
    /// protocol caps it at two.
    ///
    /// A cold plan is one pass over the qualifying rows, keyed by each
    /// row's tuple of per-column codes (a string's dictionary code, a
    /// number's bits), and needs no index on `group_cols`. Plans go
    /// through the same plan cache as the single-attribute path, with the
    /// same byte-identical warm-plan guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidQuery`] if `group_cols` is empty, and
    /// an error if any column is missing, if `agg_col` is non-numeric, or
    /// if `predicate` names a missing column or ranges over a string one.
    pub fn group_handles_multi(
        &self,
        group_cols: &[&str],
        agg_col: &str,
        predicate: &Predicate,
    ) -> Result<Vec<GroupHandle>, EngineError> {
        if group_cols.is_empty() {
            return Err(EngineError::InvalidQuery(
                "a multi-attribute group-by needs at least one column".to_owned(),
            ));
        }
        let cols = group_cols
            .iter()
            .map(|col| {
                let idx = self.table.schema().column_index(col);
                idx.ok_or_else(|| EngineError::NoSuchColumn((*col).to_owned()))
            })
            .collect::<Result<Vec<usize>, _>>()?;
        let agg_idx = self.numeric_column(agg_col)?;
        let key = PlanKey {
            multi: true,
            group_cols: group_cols.iter().map(|c| (*c).to_owned()).collect(),
            predicate: predicate.canonical_key(),
        };
        let plan = self.plan_for(key, || {
            let filter = self.plan_filter(predicate)?;
            Ok(self.cells(&cols, filter.as_deref()))
        })?;
        Ok(self.handles_from_plan(&plan, agg_idx))
    }

    /// The cells of a group-by over the columns `cols`, planned in one pass
    /// over the rows `filter` admits (every row without one). A row's cell
    /// is its tuple of [`Table::group_code`]s, and rows are visited in
    /// ascending order, so each cell's row list comes out sorted. Cells are
    /// ordered and labelled by their values' display strings, and each is
    /// stored by [`VIEW_CUTOVER_DENSITY`] applied to its exact size: sorted
    /// positions below the cutover, a bitmap above it.
    fn cells(&self, cols: &[usize], filter: Option<&Bitmap>) -> Vec<(Value, RowSet)> {
        let table = &*self.table;
        let universe = table.row_count();
        let mut cell_of: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut cells: Vec<Vec<u64>> = Vec::new();
        let mut key = Vec::with_capacity(cols.len());
        let mut visit = |row: u64| {
            key.clear();
            key.extend(cols.iter().map(|&col| table.group_code(row, col)));
            let cell = match cell_of.get(key.as_slice()) {
                Some(&cell) => cell,
                None => {
                    cell_of.insert(key.clone(), cells.len());
                    cells.push(Vec::new());
                    cells.len() - 1
                }
            };
            cells[cell].push(row);
        };
        match filter {
            Some(bits) => bits.iter_ones().for_each(&mut visit),
            None => (0..universe).for_each(&mut visit),
        }
        let mut labelled: Vec<(Vec<String>, Vec<u64>)> = cells
            .into_iter()
            .map(|rows| {
                let display = |&col: &usize| table.value(rows[0], col).to_string();
                (cols.iter().map(display).collect(), rows)
            })
            .collect();
        labelled.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        labelled
            .into_iter()
            .map(|(strings, mut rows)| {
                let set = if (rows.len() as u64).saturating_mul(VIEW_CUTOVER_DENSITY) <= universe {
                    rows.shrink_to_fit();
                    RowSet::Positions {
                        positions: Arc::new(rows),
                        universe,
                    }
                } else {
                    RowSet::from_bitmap(Bitmap::from_sorted_positions(&rows, universe))
                };
                (Value::Str(strings.join("|")), set)
            })
            .collect()
    }

    /// Builds one [`SizedGroupHandle`] per distinct value of `group_col`
    /// (in index order), sampling `agg_col` paired with unbiased
    /// normalized-size estimates — the engine-side source for the
    /// unknown-group-size `SUM`/`COUNT` algorithms (Algorithm 5). Size
    /// probes are answered by the in-memory bitmaps, so only the member
    /// draw costs a retrieval.
    ///
    /// # Errors
    ///
    /// Returns an error if `group_col` is unindexed or missing, or if
    /// `agg_col` is missing or non-numeric.
    pub fn sized_group_handles(
        &self,
        group_col: &str,
        agg_col: &str,
    ) -> Result<Vec<SizedGroupHandle>, EngineError> {
        let index = self
            .indexes
            .get(group_col)
            .ok_or_else(|| EngineError::NotIndexed(group_col.to_owned()))?;
        let agg_idx = self.numeric_column(agg_col)?;
        let mut handles = Vec::with_capacity(index.distinct_count());
        for value in index.values() {
            #[expect(clippy::expect_used, reason = "values() lists only present keys")]
            let bitmap = Arc::clone(
                index
                    .shared_bitmap_for(&value)
                    .expect("index lists only present values"),
            );
            handles.push(SizedGroupHandle {
                label: value,
                agg_idx,
                table: Arc::clone(&self.table),
                sampler: SizeEstimatingSampler::shared(bitmap, self.table.row_count()),
                metrics: Arc::clone(&self.metrics),
                faults: self.faults.clone(),
                pairs_buf: Vec::new(),
            });
        }
        Ok(handles)
    }

    /// Builds a [`SizeEstimatingSampler`] for one group (Algorithm 5
    /// support: unknown-group-size `SUM`).
    ///
    /// # Errors
    ///
    /// Returns an error if `group_col` is unindexed.
    pub fn size_estimating_sampler(
        &self,
        group_col: &str,
        group_value: &Value,
    ) -> Result<SizeEstimatingSampler, EngineError> {
        let index = self
            .indexes
            .get(group_col)
            .ok_or_else(|| EngineError::NotIndexed(group_col.to_owned()))?;
        Ok(match index.shared_bitmap_for(group_value) {
            Some(bitmap) => {
                SizeEstimatingSampler::shared(Arc::clone(bitmap), self.table.row_count())
            }
            None => SizeEstimatingSampler::new(
                Bitmap::zeros(self.table.row_count()),
                self.table.row_count(),
            ),
        })
    }

    /// Full sequential scan computing exact per-group aggregates, charging
    /// one scanned row per record: the row-level oracle for SCAN sessions.
    ///
    /// # Errors
    ///
    /// Returns an error if either column is missing, or if `predicate`
    /// names a missing column or ranges over a string one.
    pub fn scan(
        &self,
        group_col: &str,
        agg_col: &str,
        predicate: &Predicate,
    ) -> Result<Vec<GroupAggregate>, EngineError> {
        for col in [group_col, agg_col] {
            if self.table.schema().column_index(col).is_none() {
                return Err(EngineError::NoSuchColumn(col.to_owned()));
            }
        }
        self.check_predicate(predicate)?;
        self.metrics.add_rows_scanned(self.table.row_count());
        Ok(scan_group_aggregates(
            &self.table,
            group_col,
            agg_col,
            predicate,
        ))
    }
}

/// A per-group random sampler handed out by the engine.
#[derive(Debug, Clone)]
pub struct GroupHandle {
    label: Value,
    agg_idx: usize,
    table: Arc<Table>,
    sampler: BitmapSampler,
    metrics: Arc<Metrics>,
    /// Fault injector captured from the engine at build time (see
    /// [`crate::fault`]); `None` means reads never fail.
    faults: Option<Arc<dyn FaultInjector>>,
    /// Reusable row-id buffer for the batch paths: together with the
    /// sampler's internal scratch arena this keeps batched draws free of
    /// per-batch heap allocation at steady state.
    rows_buf: Vec<u64>,
}

impl GroupHandle {
    /// The group-by value this handle samples from.
    #[must_use]
    pub fn label(&self) -> &Value {
        &self.label
    }

    /// Number of rows in the group (from the bitmap — no I/O).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.sampler.eligible()
    }

    /// Whether the group is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charges one retrieval and reads the sampled `row`'s measure value;
    /// `None`, charging the dropped read, when an installed fault injector
    /// fails it. The draw itself already happened — RNG consumption is
    /// identical with and without faults, which is what keeps faulted runs
    /// replayable.
    fn read_row(&self, row: u64) -> Option<f64> {
        self.metrics.add_random_samples(1);
        self.metrics.add_index_probes(1);
        let faults = self.faults.as_ref();
        if faults.is_some_and(|f| f.fails(FaultSite::RowRead, row)) {
            self.metrics.add_faulted_reads(1);
            return None;
        }
        Some(self.table.float_value(row, self.agg_idx))
    }

    /// Draws a uniformly random measure value with replacement. `None` for
    /// an empty group, or when an installed fault injector fails the
    /// sampled row's read.
    pub fn sample_with_replacement<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        self.read_row(self.sampler.sample_with_replacement(rng)?)
    }

    /// Draws the next measure value of the group's keyed pseudo-random
    /// permutation (sampling without replacement, see
    /// [`crate::sampler`]); `None` once exhausted, or when an
    /// installed fault injector fails the sampled row's read.
    pub fn sample_without_replacement<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let row = self.sampler.sample_without_replacement(rng)?;
        self.read_row(row)
    }

    /// Draws `n` measure values with replacement in one batch, appending
    /// them to `out` in draw order; returns the number appended. The
    /// metrics sink is charged **one retrieval per sample** (a batch of
    /// `n` counts as `n` random samples, not 1), so cost accounting is
    /// identical to `n` single draws.
    pub fn sample_batch_with_replacement<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) -> usize {
        let mut rows = std::mem::take(&mut self.rows_buf);
        rows.clear();
        self.sampler
            .sample_batch_with_replacement(n, rng, &mut rows);
        let delivered = self.record_batch(&rows, out);
        self.rows_buf = rows;
        delivered
    }

    /// Draws up to `n` further values of the without-replacement
    /// permutation in one batch, appending them to `out` in draw order;
    /// returns the number appended (`< n` once the group is exhausted).
    /// Metrics are charged one retrieval per sample actually drawn.
    pub fn sample_batch_without_replacement<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) -> usize {
        let mut rows = std::mem::take(&mut self.rows_buf);
        rows.clear();
        self.sampler
            .sample_batch_without_replacement(n, rng, &mut rows);
        let delivered = self.record_batch(&rows, out);
        self.rows_buf = rows;
        delivered
    }

    /// Charges metrics for and materializes a batch of sampled rows,
    /// returning how many values were actually delivered — fewer than
    /// `rows.len()` when a fault injector drops reads. The column-type
    /// match sits outside the per-row loop ([`Table::measure`]): keyed
    /// 256-draw batches over 4M rows cost 35–59 ns a draw through
    /// `float_value`, 32–45 ns through the slice (release, 2-vCPU x86-64).
    fn record_batch(&self, rows: &[u64], out: &mut Vec<f64>) -> usize {
        if rows.is_empty() {
            return 0;
        }
        self.metrics.add_random_samples(rows.len() as u64);
        self.metrics.add_index_probes(rows.len() as u64);
        match self.table.measure(self.agg_idx) {
            Measure::Int(v) => self.fetch(|row| v[row as usize] as f64, rows, out),
            Measure::Float(v) => self.fetch(|row| v[row as usize], rows, out),
        }
    }

    /// [`Self::record_batch`]'s per-row loop, for one column type.
    fn fetch(&self, value: impl Fn(u64) -> f64, rows: &[u64], out: &mut Vec<f64>) -> usize {
        let Some(injector) = &self.faults else {
            out.extend(rows.iter().map(|&row| value(row)));
            return rows.len();
        };
        let before = out.len();
        for &row in rows {
            if injector.fails(FaultSite::RowRead, row) {
                self.metrics.add_faulted_reads(1);
            } else {
                out.push(value(row));
            }
        }
        out.len() - before
    }

    /// Restarts the without-replacement permutation: the next draw keys a
    /// fresh one.
    pub fn reset_permutation(&mut self) {
        self.sampler.reset();
    }

    /// Whether further draws without replacement read no RNG word.
    #[must_use]
    pub fn is_keyed(&self) -> bool {
        self.sampler.is_keyed()
    }

    /// A fresh, unlabelled handle over the same rows, built without
    /// allocating: it holds a handle's place while that one is lent out.
    #[must_use]
    pub fn stand_in(&self) -> Self {
        Self {
            label: Value::Int(0),
            agg_idx: self.agg_idx,
            table: Arc::clone(&self.table),
            sampler: BitmapSampler::from_rows(self.sampler.rows().clone()),
            metrics: Arc::clone(&self.metrics),
            faults: None,
            rows_buf: Vec::new(),
        }
    }

    /// Reads the whole group in one ascending pass over its rows
    /// ([`RowSet::for_each_row`]), leaving the sampler untouched. Every row
    /// is charged as scanned; a row the fault injector fails
    /// ([`FaultSite::RowRead`]) is counted as dropped, not summed. The sum
    /// runs in row order from `0.0` like [`NeedleTail::scan`]'s, so a
    /// fault-free `sum / delivered` is that scan's mean bit for bit. It
    /// reads the typed column ([`Table::measure`]), matched once, not per
    /// row: a 4M-row pass took 12–17 ms through `float_value`, 3–7 ms over
    /// the slice, the same adds in the same order (release, 2-vCPU x86-64).
    #[must_use]
    pub fn exact(&self) -> ExactAggregate {
        let agg = self.pass(self.faults.as_deref());
        self.metrics.add_rows_scanned(agg.delivered + agg.dropped);
        self.metrics.add_faulted_reads(agg.dropped);
        agg
    }

    /// Exact group mean: [`Self::exact`]'s pass with no fault injector and
    /// no metrics charged (an evaluation aid); `None` for an empty group.
    #[must_use]
    pub fn exact_mean(&self) -> Option<f64> {
        let agg = self.pass(None);
        (agg.delivered > 0).then(|| agg.sum / agg.delivered as f64)
    }

    fn pass(&self, faults: Option<&dyn FaultInjector>) -> ExactAggregate {
        match self.table.measure(self.agg_idx) {
            Measure::Int(v) => self.pass_over(|row| v[row as usize] as f64, faults),
            Measure::Float(v) => self.pass_over(|row| v[row as usize], faults),
        }
    }

    /// [`Self::pass`] for one column type; a fault-free `Range` is one
    /// fold over its rows.
    fn pass_over(
        &self,
        value: impl Fn(u64) -> f64,
        faults: Option<&dyn FaultInjector>,
    ) -> ExactAggregate {
        let (rows, mut agg) = (self.sampler.rows(), ExactAggregate::default());
        if let (RowSet::Range { start, count, .. }, None) = (rows, faults) {
            agg.delivered = *count;
            agg.sum = (*start..start + count).fold(0.0, |sum, row| sum + value(row));
            return agg;
        }
        rows.for_each_row(|row| {
            if faults.is_some_and(|f| f.fails(FaultSite::RowRead, row)) {
                agg.dropped += 1;
            } else {
                agg.delivered += 1;
                agg.sum += value(row);
            }
        });
        agg
    }
}

/// One group's exact pass ([`GroupHandle::exact`]): the rows read, their
/// measure sum, and the rows a fault injector dropped. `delivered +
/// dropped` is the group's size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExactAggregate {
    /// Rows read and summed.
    pub delivered: u64,
    /// Sum of the delivered rows' measure values, in row order.
    pub sum: f64,
    /// Rows whose read the fault injector failed.
    pub dropped: u64,
}

/// A per-group sampler pairing each measure-value draw with an unbiased
/// normalized group-size estimate `z` — the engine-side handle for the
/// unknown-group-size `SUM`/`COUNT` algorithms (Algorithm 5). Handed out by
/// [`NeedleTail::sized_group_handles`].
#[derive(Debug, Clone)]
pub struct SizedGroupHandle {
    label: Value,
    agg_idx: usize,
    table: Arc<Table>,
    sampler: SizeEstimatingSampler,
    metrics: Arc<Metrics>,
    /// Fault injector captured from the engine at build time (see
    /// [`crate::fault`]); `None` means reads never fail.
    faults: Option<Arc<dyn FaultInjector>>,
    /// Reusable `(row, z)` buffer for the batch path.
    pairs_buf: Vec<(u64, f64)>,
}

impl SizedGroupHandle {
    /// The group-by value this handle samples from.
    #[must_use]
    pub fn label(&self) -> &Value {
        &self.label
    }

    /// True group size from the bitmap (verification only — the estimating
    /// path never consults it).
    #[must_use]
    pub fn eligible(&self) -> u64 {
        self.sampler.eligible()
    }

    /// Draws `(x, z)`: a uniform random measure value and an independent
    /// `{0, 1}` estimate of the group's fraction of the relation. One
    /// retrieval is charged per draw; the size probe is answered by the
    /// in-memory bitmap for free.
    pub fn sample_with_size<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(f64, f64)> {
        let (row, z) = self.sampler.sample_with_size_estimate(rng)?;
        self.metrics.add_random_samples(1);
        self.metrics.add_index_probes(1);
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.fails(FaultSite::SizedRowRead, row))
        {
            self.metrics.add_faulted_reads(1);
            return None;
        }
        Some((self.table.float_value(row, self.agg_idx), z))
    }

    /// Draws `n` `(x, z)` pairs in one batch, appending them to `out` in
    /// draw order; returns the number appended (`0` for an empty group).
    /// The member ranks resolve through one sorted `select_many` sweep and
    /// the RNG is consumed identically to `n` single draws; metrics are
    /// charged one retrieval per sample, exactly as the single-draw path.
    pub fn sample_batch_with_size<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<(f64, f64)>,
    ) -> usize {
        let mut pairs = std::mem::take(&mut self.pairs_buf);
        pairs.clear();
        let got = self
            .sampler
            .sample_batch_with_size_estimate(n, rng, &mut pairs);
        self.metrics.add_random_samples(got as u64);
        self.metrics.add_index_probes(got as u64);
        let delivered = match self.table.measure(self.agg_idx) {
            Measure::Int(v) => self.fetch(|row| v[row as usize] as f64, &pairs, out),
            Measure::Float(v) => self.fetch(|row| v[row as usize], &pairs, out),
        };
        self.pairs_buf = pairs;
        delivered
    }

    /// [`Self::sample_batch_with_size`]'s per-row loop, for one column
    /// type (matched outside it, as in [`GroupHandle::record_batch`]).
    fn fetch(
        &self,
        value: impl Fn(u64) -> f64,
        pairs: &[(u64, f64)],
        out: &mut Vec<(f64, f64)>,
    ) -> usize {
        let before = out.len();
        for &(row, z) in pairs {
            let faults = self.faults.as_ref();
            if faults.is_some_and(|f| f.fails(FaultSite::SizedRowRead, row)) {
                self.metrics.add_faulted_reads(1);
            } else {
                out.push((value(row), z));
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SeededFaults;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::TableBuilder;
    use rand::SeedableRng;

    fn flights() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        // AA: mean 20 over 4 rows; JB: mean 50 over 2 rows; UA: mean 85.
        for (n, d) in [
            ("AA", 10.0),
            ("AA", 20.0),
            ("JB", 40.0),
            ("AA", 30.0),
            ("UA", 85.0),
            ("JB", 60.0),
            ("AA", 20.0),
        ] {
            b.push_row(vec![n.into(), d.into()]);
        }
        b.finish()
    }

    #[test]
    fn default_cache_capacities_are_pinned() {
        // The committed sizes are part of the serving contract: changing
        // them must be a deliberate decision, not a side effect.
        assert_eq!(PLAN_CACHE_CAPACITY, 64);
    }

    #[test]
    fn rows_are_clustered_by_the_first_indexed_column_only() {
        let order = |engine: &NeedleTail| -> Vec<(String, f64)> {
            let t = engine.table();
            (0..t.row_count())
                .map(|r| (t.value(r, 0).to_string(), t.float_value(r, 1)))
                .collect()
        };
        // No index, no reorder.
        let loaded = order(&NeedleTail::new(flights(), &[]).unwrap());
        assert_eq!(
            loaded[..3],
            [
                ("AA".into(), 10.0),
                ("AA".into(), 20.0),
                ("JB".into(), 40.0)
            ]
        );
        // Clustered by name: each airline's delays in loaded order, airlines
        // in first-appearance order.
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let mut expect = Vec::new();
        for name in ["AA", "JB", "UA"] {
            expect.extend(loaded.iter().filter(|(n, _)| n == name).cloned());
        }
        assert_eq!(order(&engine), expect);
        // Every index bitmap of the clustered column is one run.
        let index = engine.index("name").unwrap();
        for value in index.values() {
            let rows = index.bitmap_for(&value).unwrap();
            let start = rows.select(0).unwrap();
            assert_eq!(rows.rank(start + rows.count_ones()), rows.count_ones());
            assert_eq!(
                rows.select(rows.count_ones() - 1),
                Some(start + rows.count_ones() - 1)
            );
        }
    }

    #[test]
    fn builder_rejects_missing_index_column() {
        let err = NeedleTail::new(flights(), &["nope"]).unwrap_err();
        assert_eq!(err, EngineError::NoSuchColumn("nope".to_owned()));
    }

    #[test]
    fn predicates_over_missing_or_mistyped_columns_are_errors() {
        // `name` stays unindexed so every atom takes the scan path, where
        // an unchecked predicate would panic.
        let engine = NeedleTail::new(skewed(), &["year"]).unwrap();
        let missing = EngineError::NoSuchColumn("nope".into());
        for (predicate, expect) in [
            (Predicate::eq("nope", "AA"), missing.clone()),
            (Predicate::is_in("nope", ["AA", "JB"]), missing.clone()),
            (
                Predicate::eq("name", "AA").and(Predicate::eq("nope", 1.0).not()),
                missing,
            ),
            (
                Predicate::ge("name", 1.0),
                EngineError::NotNumeric("name".into()),
            ),
        ] {
            let single = engine.group_handles("year", "delay", &predicate).err();
            assert_eq!(single, Some(expect.clone()), "{predicate:?}");
            let multi = engine
                .group_handles_multi(&["year"], "delay", &predicate)
                .err();
            assert_eq!(multi, Some(expect.clone()), "{predicate:?}");
            let scan = engine.scan("year", "delay", &predicate).err();
            assert_eq!(scan, Some(expect), "{predicate:?}");
        }
    }

    #[test]
    fn group_handles_cover_distinct_values() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        assert_eq!(handles.len(), 3);
        let labels: Vec<String> = handles.iter().map(|h| h.label().to_string()).collect();
        assert_eq!(labels, vec!["AA", "JB", "UA"]);
        assert_eq!(handles[0].len(), 4);
        assert_eq!(handles[1].len(), 2);
        assert_eq!(handles[2].len(), 1);
    }

    #[test]
    fn exact_means_match_scan() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let scan = engine.scan("name", "delay", &Predicate::True).unwrap();
        for (h, s) in handles.iter().zip(&scan) {
            assert_eq!(h.label(), &s.group);
            assert!((h.exact_mean().unwrap() - s.mean().unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn without_replacement_mean_converges_exactly() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let mut handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let aa = &mut handles[0];
        let mut sum = 0.0;
        let mut count = 0u32;
        while let Some(v) = aa.sample_without_replacement(&mut rng) {
            sum += v;
            count += 1;
        }
        assert_eq!(count, 4, "exhausts the group exactly");
        assert!((sum / 4.0 - 20.0).abs() < 1e-12);
    }

    #[test]
    fn predicate_restricts_groups() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let handles = engine
            .group_handles("name", "delay", &Predicate::ge("delay", 30.0))
            .unwrap();
        // AA keeps 1 row (30), JB keeps both, UA keeps its row.
        assert_eq!(handles.len(), 3);
        assert_eq!(handles[0].len(), 1);
        assert!((handles[0].exact_mean().unwrap() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn predicate_can_drop_groups() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let handles = engine
            .group_handles("name", "delay", &Predicate::ge("delay", 50.0))
            .unwrap();
        let labels: Vec<String> = handles.iter().map(|h| h.label().to_string()).collect();
        assert_eq!(labels, vec!["JB", "UA"], "AA has no qualifying rows");
    }

    #[test]
    fn metrics_count_samples_and_scans() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let _ = handles[0].sample_with_replacement(&mut rng);
        }
        let _ = engine.scan("name", "delay", &Predicate::True).unwrap();
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.random_samples, 10);
        assert_eq!(snap.rows_scanned, 7);
    }

    #[test]
    fn metrics_count_batched_samples_per_sample_not_per_batch() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let mut handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut out = Vec::new();
        // One batch of 10 with replacement must count as 10 retrievals.
        let got = handles[0].sample_batch_with_replacement(10, &mut rng, &mut out);
        assert_eq!(got, 10);
        assert_eq!(engine.metrics().snapshot().random_samples, 10);
        // A truncated without-replacement batch counts only what was drawn:
        // group AA has 4 rows, so requesting 10 yields 4.
        engine.metrics().reset();
        out.clear();
        let got = handles[0].sample_batch_without_replacement(10, &mut rng, &mut out);
        assert_eq!(got, 4);
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.random_samples, 4);
        assert_eq!(snap.index_probes, 4);
    }

    #[test]
    fn batched_handle_draws_match_single_draw_stream() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let mut h1 = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut h2 = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(77);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(77);
        let singles: Vec<f64> = (0..4)
            .map(|_| h1[0].sample_without_replacement(&mut rng1).unwrap())
            .collect();
        let mut batched = Vec::new();
        h2[0].sample_batch_without_replacement(4, &mut rng2, &mut batched);
        assert_eq!(batched, singles);
    }

    #[test]
    fn errors() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        assert_eq!(
            engine
                .group_handles("delay", "delay", &Predicate::True)
                .err(),
            Some(EngineError::NotIndexed("delay".into()))
        );
        assert_eq!(
            engine.group_handles("name", "nope", &Predicate::True).err(),
            Some(EngineError::NoSuchColumn("nope".into()))
        );
        assert_eq!(
            engine.group_handles("name", "name", &Predicate::True).err(),
            Some(EngineError::NotNumeric("name".into()))
        );
        assert!(NeedleTail::new(flights(), &["nope"]).is_err());
    }

    #[test]
    fn column_maxima_computed_once_and_cached() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        // Numeric column: the lazily computed max matches the scanned max,
        // and repeated requests serve the cached value.
        assert_eq!(engine.column_max("delay"), Some(85.0));
        assert_eq!(engine.column_max("delay"), Some(85.0));
        // String and unknown columns report no maximum.
        assert_eq!(engine.column_max("name"), None);
        assert_eq!(engine.column_max("nope"), None);
        // Empty tables have no observed maximum either.
        let empty = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]))
        .finish();
        let engine = NeedleTail::new(empty, &["name"]).unwrap();
        assert_eq!(engine.column_max("delay"), None);
    }

    /// A larger skewed table for the cache/cutover tests: 4096 rows, four
    /// airlines with very different sizes, a numeric year column to filter
    /// on. "UA" is rare enough that `UA ∧ anything` takes the
    /// intersection-view path; "AA" is dense enough to materialize.
    fn skewed() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("year", DataType::Int),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for i in 0..4096u32 {
            let name = match i % 64 {
                0 => "UA",
                1..=7 => "JB",
                _ => "AA",
            };
            let year = 2000 + i64::from(i % 4);
            let delay = f64::from(i % 97);
            b.push_row(vec![name.into(), Value::Int(year), delay.into()]);
        }
        b.finish()
    }

    /// Oracle: per-group filtered means via the row-level predicate path
    /// (scan order is first-encounter, so key by label).
    fn scan_means(
        engine: &NeedleTail,
        predicate: &Predicate,
    ) -> std::collections::BTreeMap<String, f64> {
        engine
            .scan("name", "delay", predicate)
            .unwrap()
            .iter()
            .filter_map(|g| g.mean().map(|m| (g.group.to_string(), m)))
            .collect()
    }

    #[test]
    fn filtered_handles_match_scan_across_cutover() {
        // Both sides of the selectivity cutover (view for rare UA, fused
        // materialization for dense AA) must agree exactly with the SCAN
        // oracle on membership and means.
        let engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        for predicate in [
            Predicate::eq("year", Value::Int(2001)),
            Predicate::ge("delay", 90.0),
            Predicate::eq("year", Value::Int(2000)).and(Predicate::le("delay", 10.0)),
        ] {
            let handles = engine.group_handles("name", "delay", &predicate).unwrap();
            let expect = scan_means(&engine, &predicate);
            assert_eq!(handles.len(), expect.len(), "under {predicate:?}");
            for h in &handles {
                let mean = expect[&h.label().to_string()];
                assert!(
                    (h.exact_mean().unwrap() - mean).abs() < 1e-9,
                    "group {} under {predicate:?}",
                    h.label()
                );
            }
        }
    }

    #[test]
    fn cached_plans_replay_cold_draws_exactly() {
        // The first call plans cold; the second hits the plan cache. Both
        // handle sets must produce byte-identical fixed-seed draw streams.
        let engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        let predicate = Predicate::eq("year", Value::Int(2002)).and(Predicate::ge("delay", 3.0));
        let mut cold = engine.group_handles("name", "delay", &predicate).unwrap();
        let mut warm = engine.group_handles("name", "delay", &predicate).unwrap();
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter_mut().zip(warm.iter_mut()) {
            assert_eq!(c.label(), w.label());
            assert_eq!(c.len(), w.len());
            let mut rng_c = rand::rngs::StdRng::seed_from_u64(99);
            let mut rng_w = rand::rngs::StdRng::seed_from_u64(99);
            let mut out_c = Vec::new();
            let mut out_w = Vec::new();
            c.sample_batch_with_replacement(64, &mut rng_c, &mut out_c);
            w.sample_batch_with_replacement(64, &mut rng_w, &mut out_w);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out_c), bits(&out_w), "draws must be bit-identical");
        }
        // And a cache clear changes nothing observable either.
        engine.clear_plan_caches();
        let recold = engine.group_handles("name", "delay", &predicate).unwrap();
        assert_eq!(recold.len(), cold.len());
        for (c, r) in cold.iter().zip(&recold) {
            assert_eq!(c.label(), r.label());
            assert_eq!(c.len(), r.len());
        }
    }

    #[test]
    fn exact_passes_equal_the_scan_over_every_row_set_shape() {
        #[derive(Debug)]
        struct EveryFifthRow;
        impl FaultInjector for EveryFifthRow {
            fn fails(&self, _site: FaultSite, row: u64) -> bool {
                row.is_multiple_of(5)
            }
        }
        let mut engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        let shape = |rows: &RowSet| match rows {
            RowSet::Range { .. } => "range",
            RowSet::Window { .. } => "window",
            RowSet::Bitmap(_) => "bitmap",
            RowSet::Positions { .. } => "positions",
        };
        let cases = [
            ("name", Predicate::True, "range"),
            ("name", Predicate::eq("year", Value::Int(2001)), "window"),
            ("year", Predicate::True, "bitmap"),
            ("year", Predicate::eq("name", "UA"), "positions"),
        ];
        for faulted in [false, true] {
            if faulted {
                engine.set_fault_injector(Arc::new(EveryFifthRow));
            }
            for (column, predicate, want) in &cases {
                let scan = engine.scan(column, "delay", predicate).unwrap();
                for mut h in engine.group_handles(column, "delay", predicate).unwrap() {
                    // A partly drawn permutation does not shorten the pass.
                    let _ = h.sample_without_replacement(&mut rand::rngs::StdRng::seed_from_u64(1));
                    assert_eq!(
                        shape(h.sampler.rows()),
                        *want,
                        "{column} under {predicate:?}"
                    );
                    let truth = scan.iter().find(|g| &g.group == h.label()).unwrap();
                    let mut kept = (0, 0.0);
                    h.sampler.rows().for_each_row(|row| {
                        if !(faulted && row.is_multiple_of(5)) {
                            kept = (kept.0 + 1, kept.1 + engine.table.float_value(row, 2));
                        }
                    });
                    let before = engine.metrics().snapshot();
                    let agg = h.exact();
                    let after = engine.metrics().snapshot();
                    assert_eq!(
                        (agg.delivered, agg.sum.to_bits()),
                        (kept.0, kept.1.to_bits())
                    );
                    assert_eq!(agg.delivered + agg.dropped, h.len());
                    assert_eq!(after.rows_scanned - before.rows_scanned, h.len());
                    assert_eq!(after.faulted_reads - before.faulted_reads, agg.dropped);
                    assert_eq!(after.random_samples, before.random_samples);
                    if !faulted {
                        assert_eq!(agg.sum.to_bits(), truth.sum.to_bits());
                    }
                    // The mean ignores the injector and charges nothing.
                    assert_eq!(h.exact_mean(), truth.mean());
                    assert_eq!(engine.metrics().snapshot(), after);
                }
            }
        }
    }

    /// [`skewed`] plus an `Int` measure `n` near 2^53, where `as f64`
    /// rounds: odd values there are not representable.
    fn skewed_with_int_measure() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("year", DataType::Int),
            ColumnDef::new("delay", DataType::Float),
            ColumnDef::new("n", DataType::Int),
        ]));
        let src = skewed();
        for row in 0..src.row_count() {
            let n = (1i64 << 53) + i64::from(u32::try_from(row * 7919 % 1001).unwrap()) - 500;
            let mut values: Vec<Value> = (0..3).map(|c| src.value(row, c)).collect();
            values.push(Value::Int(n));
            b.push_row(values);
        }
        b.finish()
    }

    /// The typed column view against the per-row `float_value` path: over
    /// an `Int` and a `Float` measure and every `RowSet` shape, batched
    /// draws with and without replacement equal the single-draw stream bit
    /// for bit, fault-free and under `SeededFaults::new(7, 0.05)`, with the
    /// same retrievals and dropped reads charged; so do the size-estimating
    /// handles' batches; and a fault-free exact pass equals the scan.
    #[test]
    fn typed_measure_reads_equal_the_per_row_stream() {
        let shape = |rows: &RowSet| match rows {
            RowSet::Range { .. } => "range",
            RowSet::Window { .. } => "window",
            RowSet::Bitmap(_) => "bitmap",
            RowSet::Positions { .. } => "positions",
        };
        let cases = [
            ("name", Predicate::True, "range"),
            ("name", Predicate::eq("year", Value::Int(2001)), "window"),
            ("year", Predicate::True, "bitmap"),
            ("year", Predicate::eq("name", "UA"), "positions"),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for faulted in [false, true] {
            let mut engine = NeedleTail::new(skewed_with_int_measure(), &["name", "year"]).unwrap();
            if faulted {
                engine.set_fault_injector(Arc::new(SeededFaults::new(7, 0.05)));
            }
            let charged = |engine: &NeedleTail| {
                let m = engine.metrics().snapshot();
                (m.random_samples, m.index_probes, m.faulted_reads)
            };
            let delta = |a: (u64, u64, u64), b: (u64, u64, u64)| (b.0 - a.0, b.1 - a.1, b.2 - a.2);
            for measure in ["n", "delay"] {
                for (column, predicate, want) in &cases {
                    let scan = engine.scan(column, measure, predicate).unwrap();
                    for h in engine.group_handles(column, measure, predicate).unwrap() {
                        assert_eq!(shape(h.sampler.rows()), *want);
                        for wor in [false, true] {
                            let n = usize::try_from(h.len()).unwrap().min(300);
                            let (mut single, mut batched) = (h.clone(), h.clone());
                            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                            let start = charged(&engine);
                            let singles: Vec<f64> = (0..n)
                                .filter_map(|_| match wor {
                                    true => single.sample_without_replacement(&mut rng),
                                    false => single.sample_with_replacement(&mut rng),
                                })
                                .collect();
                            let mid = charged(&engine);
                            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                            let mut got = Vec::new();
                            for take in [n.min(97), n - n.min(97)] {
                                let delivered = match wor {
                                    true => batched
                                        .sample_batch_without_replacement(take, &mut rng, &mut got),
                                    false => batched
                                        .sample_batch_with_replacement(take, &mut rng, &mut got),
                                };
                                assert!(delivered <= take);
                            }
                            let what =
                                format!("{measure} by {column} under {predicate:?}, wor {wor}");
                            assert_eq!(bits(&got), bits(&singles), "{what}");
                            assert_eq!(delta(mid, charged(&engine)), delta(start, mid), "{what}");
                        }
                        if !faulted {
                            let truth = scan.iter().find(|g| &g.group == h.label()).unwrap();
                            let agg = h.exact();
                            assert_eq!(
                                (agg.delivered, agg.sum.to_bits()),
                                (truth.count, truth.sum.to_bits())
                            );
                        }
                    }
                }
                for column in ["name", "year"] {
                    for h in engine.sized_group_handles(column, measure).unwrap() {
                        let (single, mut batched) = (h.clone(), h.clone());
                        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
                        let start = charged(&engine);
                        let singles: Vec<(u64, u64)> = (0..200)
                            .filter_map(|_| single.sample_with_size(&mut rng))
                            .map(|(x, z)| (x.to_bits(), z.to_bits()))
                            .collect();
                        let mid = charged(&engine);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
                        let mut got = Vec::new();
                        batched.sample_batch_with_size(200, &mut rng, &mut got);
                        let got: Vec<(u64, u64)> = got
                            .iter()
                            .map(|(x, z)| (x.to_bits(), z.to_bits()))
                            .collect();
                        assert_eq!(got, singles, "sized {measure} by {column}");
                        assert_eq!(delta(mid, charged(&engine)), delta(start, mid));
                    }
                }
            }
            // The faulted run drops reads on both paths.
            assert_eq!(engine.metrics().snapshot().faulted_reads > 0, faulted);
        }
    }

    #[test]
    fn predicate_bitmap_cache_shares_equivalent_spellings() {
        let engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        let a = Predicate::eq("year", Value::Int(2001)).and(Predicate::ge("delay", 10.0));
        let b = Predicate::ge("delay", 10.0).and(Predicate::eq("year", Value::Int(2001)));
        let bm_a = engine.predicate_bitmap(&a);
        let bm_b = engine.predicate_bitmap(&b);
        assert_eq!(
            bm_a.iter_ones().collect::<Vec<_>>(),
            bm_b.iter_ones().collect::<Vec<_>>(),
            "equivalent spellings must select the same rows"
        );
        // A bare indexed equality is served from the index itself.
        let eq = Predicate::eq("name", "AA");
        let bm_eq = engine.predicate_bitmap(&eq);
        let shared = engine
            .index("name")
            .unwrap()
            .shared_bitmap_for(&"AA".into())
            .unwrap();
        assert!(Arc::ptr_eq(&bm_eq, shared), "Eq must be zero-copy");
        assert_eq!(
            bm_a.iter_ones().collect::<Vec<_>>(),
            a.evaluate(engine.table(), engine.indexes())
                .iter_ones()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unfiltered_handles_share_bitmaps_zero_copy() {
        let engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        // The clustered column's groups are row ranges that tile the table.
        let handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let mut ranges = Vec::new();
        for h in &handles {
            match h.sampler.rows() {
                &RowSet::Range {
                    start,
                    count,
                    universe,
                } => {
                    assert_eq!(universe, engine.table().row_count());
                    assert_eq!(count, h.len());
                    let rows = engine.index("name").unwrap().bitmap_for(h.label()).unwrap();
                    assert_eq!(rows.select(0), Some(start), "group {}", h.label());
                    ranges.push((start, count));
                }
                other => panic!("expected a range, got {other:?}"),
            }
        }
        ranges.sort_unstable();
        let end = ranges.iter().fold(0, |next, &(start, count)| {
            assert_eq!(start, next, "ranges tile the table");
            start + count
        });
        assert_eq!(end, engine.table().row_count());
        // Other columns' handles alias their index bitmaps.
        let index = engine.index("year").unwrap();
        for h in &engine
            .group_handles("year", "delay", &Predicate::True)
            .unwrap()
        {
            let shared = index.shared_bitmap_for(h.label()).unwrap();
            match h.sampler.rows() {
                RowSet::Bitmap(bm) => assert!(
                    Arc::ptr_eq(bm, shared),
                    "True-predicate handles must alias the index bitmap"
                ),
                other => panic!("expected shared bitmap, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_group_by_handles() {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("origin", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for (n, o, d) in [
            ("AA", "BOS", 10.0),
            ("AA", "SFO", 20.0),
            ("JB", "BOS", 30.0),
            ("AA", "BOS", 50.0),
        ] {
            b.push_row(vec![n.into(), o.into(), d.into()]);
        }
        let engine = NeedleTail::new(b.finish(), &["name"]).unwrap();
        let handles = engine
            .group_handles_multi(&["name", "origin"], "delay", &Predicate::True)
            .unwrap();
        let labels: Vec<String> = handles.iter().map(|h| h.label().to_string()).collect();
        assert_eq!(labels, vec!["AA|BOS", "AA|SFO", "JB|BOS"]);
        assert_eq!(handles[0].len(), 2);
        assert!((handles[0].exact_mean().unwrap() - 30.0).abs() < 1e-12);
        // Predicate narrows cells and can drop them.
        let filtered = engine
            .group_handles_multi(&["name", "origin"], "delay", &Predicate::ge("delay", 25.0))
            .unwrap();
        let labels: Vec<String> = filtered.iter().map(|h| h.label().to_string()).collect();
        assert_eq!(labels, vec!["AA|BOS", "JB|BOS"]);
    }

    #[test]
    fn multi_group_by_rejects_an_empty_column_list() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        assert!(matches!(
            engine.group_handles_multi(&[], "delay", &Predicate::True),
            Err(EngineError::InvalidQuery(_))
        ));
    }

    #[test]
    fn multi_group_by_cells_are_intersections_of_their_values() {
        // Three columns of mixed type, one row in 200 in a rare cell: each
        // cell holds exactly the rows of its value tuple, as the AND of the
        // single-column index bitmaps, stored as positions below the
        // cutover and as a bitmap above it.
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("bucket", DataType::Int),
            ColumnDef::new("flag", DataType::Float),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for i in 0..4_000u32 {
            let rare = i % 200 == 0;
            let name = if rare {
                "ZZ"
            } else {
                ["AA", "JB"][(i % 2) as usize]
            };
            b.push_row(vec![
                name.into(),
                Value::Int(i64::from(i % 3) - 1),
                f64::from(u8::from(rare)).into(),
                f64::from(i % 97).into(),
            ]);
        }
        let columns = ["name", "bucket", "flag"];
        let engine = NeedleTail::new(b.finish(), &columns).unwrap();
        let cells = engine
            .group_handles_multi(&columns, "delay", &Predicate::True)
            .unwrap();
        assert_eq!(cells.len(), 9, "AA and JB with flag 0, ZZ with flag 1");
        for cell in &cells {
            let label = cell.label().to_string();
            let parts: Vec<&str> = label.split('|').collect();
            let values = [
                Value::from(parts[0]),
                Value::Int(parts[1].parse().unwrap()),
                Value::Float(parts[2].parse().unwrap()),
            ];
            let mut expect = engine
                .index("name")
                .unwrap()
                .bitmap_for(&values[0])
                .unwrap()
                .clone();
            for (col, value) in columns.iter().zip(&values).skip(1) {
                expect = expect.and(engine.index(col).unwrap().bitmap_for(value).unwrap());
            }
            let rows = cell.sampler.rows();
            let mut got = Vec::new();
            rows.for_each_row(|row| got.push(row));
            assert_eq!(got, expect.iter_ones().collect::<Vec<_>>(), "cell {label}");
            let sparse = rows.count_ones() * VIEW_CUTOVER_DENSITY <= 4_000;
            assert_eq!(sparse, parts[0] == "ZZ", "cell {label}");
            assert_eq!(
                matches!(rows, RowSet::Positions { .. }),
                sparse,
                "cell {label}"
            );
        }
    }

    #[test]
    fn multi_group_by_nontrivial_predicates_and_cached_reuse() {
        // Joint cells under a conjunction of an equality and a range,
        // checked cell by cell against the row-level predicate oracle —
        // including cells the filter empties entirely.
        let engine = NeedleTail::new(skewed(), &["name", "year"]).unwrap();
        let predicate = Predicate::eq("year", Value::Int(2000)).and(Predicate::ge("delay", 60.0));
        let cold = engine
            .group_handles_multi(&["name", "year"], "delay", &predicate)
            .unwrap();
        // Oracle: every (name, year) pair with its qualifying rows.
        let table = engine.table();
        let mut expect: std::collections::BTreeMap<String, Vec<u64>> =
            std::collections::BTreeMap::new();
        for row in 0..table.row_count() {
            if predicate.matches_row(table, row) {
                let label = format!("{}|{}", table.value(row, 0), table.value(row, 1));
                expect.entry(label).or_default().push(row);
            }
        }
        // Cells with no qualifying rows (every 2001-2003 cell, and any
        // name whose 2000 rows all have delay < 60) are dropped.
        assert_eq!(cold.len(), expect.len());
        assert!(
            cold.len() < 12,
            "the filter must empty the off-year cells (got {})",
            cold.len()
        );
        for h in &cold {
            let rows = &expect[&h.label().to_string()];
            assert_eq!(h.len(), rows.len() as u64, "cell {}", h.label());
            let mean: f64 =
                rows.iter().map(|&r| table.float_value(r, 2)).sum::<f64>() / rows.len() as f64;
            assert!((h.exact_mean().unwrap() - mean).abs() < 1e-9);
        }
        // Cached reuse: the second identical call (a plan cache hit)
        // replays cold fixed-seed draws bit for bit.
        let mut warm = engine
            .group_handles_multi(&["name", "year"], "delay", &predicate)
            .unwrap();
        let mut cold = cold;
        for (c, w) in cold.iter_mut().zip(warm.iter_mut()) {
            assert_eq!(c.label(), w.label());
            let mut rng_c = rand::rngs::StdRng::seed_from_u64(7);
            let mut rng_w = rand::rngs::StdRng::seed_from_u64(7);
            let mut out_c = Vec::new();
            let mut out_w = Vec::new();
            c.sample_batch_without_replacement(16, &mut rng_c, &mut out_c);
            w.sample_batch_without_replacement(16, &mut rng_w, &mut out_w);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out_c), bits(&out_w));
        }
        // A predicate that empties *every* cell yields no handles.
        let none = engine
            .group_handles_multi(&["name", "year"], "delay", &Predicate::ge("delay", 1e9))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn sized_group_handles_batch_matches_single_stream() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let h1 = engine.sized_group_handles("name", "delay").unwrap();
        let mut h2 = engine.sized_group_handles("name", "delay").unwrap();
        assert_eq!(h1.len(), 3);
        assert_eq!(h1[0].label().to_string(), "AA");
        assert_eq!(h1[0].eligible(), 4);
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(21);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(21);
        let singles: Vec<(f64, f64)> = (0..50)
            .map(|_| h1[0].sample_with_size(&mut rng1).unwrap())
            .collect();
        let mut batched = Vec::new();
        let got = h2[0].sample_batch_with_size(50, &mut rng2, &mut batched);
        assert_eq!(got, 50);
        assert_eq!(batched, singles, "sized batch must replay single stream");
        // Every drawn value belongs to group AA.
        assert!(batched
            .iter()
            .all(|&(x, _)| [10.0, 20.0, 30.0].contains(&x)));
        // Metrics: one retrieval per sample, single and batched alike.
        assert_eq!(engine.metrics().snapshot().random_samples, 100);
    }

    #[test]
    fn sized_group_handles_errors() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        assert_eq!(
            engine.sized_group_handles("delay", "delay").err(),
            Some(EngineError::NotIndexed("delay".into()))
        );
        assert_eq!(
            engine.sized_group_handles("name", "nope").err(),
            Some(EngineError::NoSuchColumn("nope".into()))
        );
        assert_eq!(
            engine.sized_group_handles("name", "name").err(),
            Some(EngineError::NotNumeric("name".into()))
        );
    }

    #[test]
    fn size_estimating_sampler_sees_true_fraction() {
        let engine = NeedleTail::new(flights(), &["name"]).unwrap();
        let s = engine
            .size_estimating_sampler("name", &"AA".into())
            .unwrap();
        assert_eq!(s.eligible(), 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut z_sum = 0.0;
        let draws = 20_000;
        for _ in 0..draws {
            let (_, z) = s.sample_with_size_estimate(&mut rng).unwrap();
            z_sum += z;
        }
        let frac = z_sum / f64::from(draws);
        assert!((frac - 4.0 / 7.0).abs() < 0.02, "fraction {frac}");
    }
}
