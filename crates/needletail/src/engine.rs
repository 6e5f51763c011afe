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
use crate::composite::CompositeIndex;
use crate::fault::{FaultInjector, FaultSite};
use crate::index::BitmapIndex;
use crate::metrics::Metrics;
use crate::predicate::Predicate;
use crate::sampler::{BitmapSampler, RowSet, SizeEstimatingSampler};
use crate::scan::{scan_group_aggregates, GroupAggregate};
use crate::schema::DataType;
use crate::table::Table;
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

/// Distinct multi-attribute group-by column sets whose composite indexes
/// are retained.
const COMPOSITE_CACHE_CAPACITY: usize = 8;

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
/// word-AND materialization does.
const VIEW_CUTOVER_DENSITY: u64 = 64;

/// Cache key for one planned group-by: the group columns plus the
/// predicate's canonical form ([`Predicate::canonical_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Single-attribute index path vs composite-cell path. The two label
    /// groups differently (composite cells join values with `|`) even over
    /// one column, so they must not share entries.
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
/// [`NeedleTail::column_max`]. Two interior caches (each behind its own
/// lock; the engine stays shareable by `&`) make repeat-query planning
/// near-O(1):
///
/// * **Group plans** (64 entries), keyed by `(group columns, canonical
///   predicate)` — the labels and per-group eligible-row sets
///   ([`NeedleTail::group_handles`] / [`NeedleTail::group_handles_multi`]).
///   [`Predicate::canonical_key`] flattens and sorts `AND`/`OR` chains, so
///   every spelling of a dashboard's shared filter hits one entry. A warm
///   hit hands back shared [`RowSet`]s: no predicate evaluation, no
///   per-group intersection, no table-sized copies — fresh sampler state
///   over shared rows.
/// * **Composite indexes** (8 entries), keyed by the group-by column list
///   (the §6.3.4 joint indexes, formerly rebuilt on every multi-attribute
///   query).
///
/// There is no predicate-bitmap cache: the plan key already holds the
/// canonical predicate, so such a cache would only be consulted on a plan
/// miss for a key population the plan cache already covers. A plan miss
/// under a new group-by pays one predicate evaluation, which is small
/// beside the per-group intersections it pays anyway.
///
/// Groups of the clustered column (the first indexed one, see
/// [`NeedleTail::new`]) are row ranges `[s_g, e_g)`, so they plan without
/// any intersection. Unfiltered, each is that [`RowSet::Range`]; under a
/// filter, each is a [`RowSet::Window`] over the ranks
/// `rank(s_g)..rank(e_g)` of the one shared predicate bitmap. A cold plan
/// costs at most two `rank` calls per group and copies nothing.
///
/// Group-bys on other columns, and composite cells, intersect each group
/// with the predicate and choose between a fused word-AND materialization
/// and a sorted-position intersection view by selectivity: below one
/// eligible row per 64 rows of table (`VIEW_CUTOVER_DENSITY`) the view is
/// smaller *and* faster to build and select from; above it the fused
/// word-AND wins. Every shape exposes the same row set, and
/// cached plans share the very sets the cold plan built, so **fixed-seed
/// results are byte-identical cold or warm** — regression-tested in
/// `tests/plan_cache.rs`.
///
/// All caches are LRU-bounded; [`NeedleTail::clear_plan_caches`] drops
/// them (memory pressure, tests) at no correctness cost.
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
    /// Composite (multi-attribute) indexes by column list.
    composites: Mutex<LruCache<Vec<String>, Arc<CompositeIndex>>>,
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
    /// filtered group, or of a composite cell led by that column) still
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
            composites: Mutex::new(LruCache::new(COMPOSITE_CACHE_CAPACITY)),
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

    /// Drops both planning caches (group plans, composite indexes).
    /// Purely a memory-pressure/benchmarking valve: the caches are
    /// repopulated on demand and carry no correctness state, since the
    /// underlying table is immutable.
    pub fn clear_plan_caches(&self) {
        lock(&self.plans).clear();
        lock(&self.composites).clear();
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
    /// (§6.3.4), via a joint [`crate::composite::CompositeIndex`] over
    /// `group_cols`. Cell labels join the attribute values with `|`.
    ///
    /// The joint index is built once per column list and retained; cell
    /// plans go through the same plan cache and selectivity cutover as the
    /// single-attribute path, with the same byte-identical warm-plan
    /// guarantee.
    ///
    /// # Errors
    ///
    /// Returns an error if any column is missing, if `agg_col` is
    /// non-numeric, or if `predicate` ranges over a string column.
    pub fn group_handles_multi(
        &self,
        group_cols: &[&str],
        agg_col: &str,
        predicate: &Predicate,
    ) -> Result<Vec<GroupHandle>, EngineError> {
        for col in group_cols {
            if self.table.schema().column_index(col).is_none() {
                return Err(EngineError::NoSuchColumn((*col).to_owned()));
            }
        }
        let agg_idx = self.numeric_column(agg_col)?;
        let owned_cols: Vec<String> = group_cols.iter().map(|c| (*c).to_owned()).collect();
        let key = PlanKey {
            multi: true,
            group_cols: owned_cols.clone(),
            predicate: predicate.canonical_key(),
        };
        let plan = self.plan_for(key, || {
            let pred_bitmap = self.plan_filter(predicate)?;
            let joint = self.composite_index(&owned_cols, group_cols);
            let mut groups = Vec::with_capacity(joint.cell_count());
            for cell in joint.cells() {
                #[expect(clippy::expect_used, reason = "cells() lists only present keys")]
                let base = joint
                    .shared_bitmap_for(&cell)
                    .expect("cell listed by index");
                if let Some(rows) = self.intersect_rows(base, pred_bitmap.as_ref()) {
                    let label = cell
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("|");
                    groups.push((Value::Str(label), rows));
                }
            }
            Ok(groups)
        })?;
        Ok(self.handles_from_plan(&plan, agg_idx))
    }

    /// The composite index over `cols`, built on first use and served from
    /// the engine's composite cache afterwards.
    fn composite_index(&self, cols: &[String], raw_cols: &[&str]) -> Arc<CompositeIndex> {
        if let Some(hit) = lock(&self.composites).get(&cols.to_vec()) {
            self.metrics.add_composite_cache_lookup(true);
            return Arc::clone(hit);
        }
        self.metrics.add_composite_cache_lookup(false);
        // Built outside the lock: concurrent first builds duplicate work
        // harmlessly rather than blocking every planner.
        let built = Arc::new(CompositeIndex::build(&self.table, raw_cols));
        lock(&self.composites).insert(cols.to_vec(), Arc::clone(&built));
        built
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
    /// one scanned row per record to the metrics (the SCAN baseline).
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

    /// Whether an installed fault injector fails `row`, charging the
    /// dropped read. The draw itself already happened — RNG consumption is
    /// identical with and without faults, which is what keeps faulted runs
    /// replayable.
    fn read_faults(&self, row: u64) -> bool {
        let faulted = self
            .faults
            .as_ref()
            .is_some_and(|f| f.fails(FaultSite::RowRead, row));
        if faulted {
            self.metrics.add_faulted_reads(1);
        }
        faulted
    }

    /// Draws a uniformly random measure value with replacement. `None` for
    /// an empty group, or when an installed fault injector fails the
    /// sampled row's read.
    pub fn sample_with_replacement<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        let row = self.sampler.sample_with_replacement(rng)?;
        self.metrics.add_random_samples(1);
        self.metrics.add_index_probes(1);
        if self.read_faults(row) {
            return None;
        }
        Some(self.table.float_value(row, self.agg_idx))
    }

    /// Draws the next measure value of the group's keyed pseudo-random
    /// permutation (sampling without replacement, see
    /// [`crate::sampler`]); `None` once exhausted, or when an
    /// installed fault injector fails the sampled row's read.
    pub fn sample_without_replacement<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let row = self.sampler.sample_without_replacement(rng)?;
        self.metrics.add_random_samples(1);
        self.metrics.add_index_probes(1);
        if self.read_faults(row) {
            return None;
        }
        Some(self.table.float_value(row, self.agg_idx))
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
    /// `rows.len()` when a fault injector drops reads.
    fn record_batch(&self, rows: &[u64], out: &mut Vec<f64>) -> usize {
        if rows.is_empty() {
            return 0;
        }
        self.metrics.add_random_samples(rows.len() as u64);
        self.metrics.add_index_probes(rows.len() as u64);
        match &self.faults {
            None => {
                out.extend(
                    rows.iter()
                        .map(|&r| self.table.float_value(r, self.agg_idx)),
                );
                rows.len()
            }
            Some(injector) => {
                let mut delivered = 0usize;
                for &row in rows {
                    if injector.fails(FaultSite::RowRead, row) {
                        self.metrics.add_faulted_reads(1);
                    } else {
                        out.push(self.table.float_value(row, self.agg_idx));
                        delivered += 1;
                    }
                }
                delivered
            }
        }
    }

    /// Restarts the without-replacement permutation: the next draw keys a
    /// fresh one.
    pub fn reset_permutation(&mut self) {
        self.sampler.reset();
    }

    /// Exact group mean (reads every member; test/verification aid).
    #[must_use]
    pub fn exact_mean(&self) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let sum: f64 = self
            .sampler
            .rows()
            .iter_ones()
            .map(|row| self.table.float_value(row, self.agg_idx))
            .sum();
        Some(sum / n as f64)
    }
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
        let mut delivered = 0usize;
        if got > 0 {
            self.metrics.add_random_samples(got as u64);
            self.metrics.add_index_probes(got as u64);
            for &(row, z) in &pairs {
                if self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.fails(FaultSite::SizedRowRead, row))
                {
                    self.metrics.add_faulted_reads(1);
                } else {
                    out.push((self.table.float_value(row, self.agg_idx), z));
                    delivered += 1;
                }
            }
        }
        self.pairs_buf = pairs;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!((PLAN_CACHE_CAPACITY, COMPOSITE_CACHE_CAPACITY), (64, 8));
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
        // Cached reuse: the second identical call (plan cache hit, joint
        // index reused) replays cold fixed-seed draws bit for bit.
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
