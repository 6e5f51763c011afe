//! # rapidviz-needletail
//!
//! A Rust reimplementation of the substrate the paper's experiments run on:
//! **NEEDLETAIL** (§4), "a database system designed to produce a random
//! sample of records matching a set of ad-hoc conditions".
//!
//! The engine stores relations row-oriented in memory and builds
//! **hierarchical bitmap indexes** over the indexed attributes: for every
//! distinct value of an indexed attribute there is a bitmap with a `1` at
//! position `i` iff tuple `i` matches. A two-level rank/select acceleration
//! structure ([`Bitmap`], the one bitmap representation: dense words plus a
//! rank directory) lets the engine fetch the `j`-th matching tuple — and
//! therefore a *uniformly random* matching tuple — in `O(log n)` time, which
//! is the constant-per-sample retrieval guarantee the paper's cost model
//! assumes (§2.3 footnote 1). Filters combine by word-parallel AND/OR/NOT.
//! The engine clusters its rows by the first indexed column, so an
//! unfiltered group of that column is a plain row range and needs no bitmap
//! at all ([`RowSet::Range`]).
//!
//! Components:
//!
//! * [`value`] / [`schema`] / [`table`] — typed values, schemas, and the
//!   in-memory row store (dictionary-encoded strings).
//! * [`bitmap`] — the rank/select bitmap with boolean algebra.
//! * [`index`] — the per-attribute value → bitmap index.
//! * [`predicate`] — ad-hoc selection predicates (`WHERE`-clauses, §6.3.3)
//!   evaluated to bitmaps through the indexes (or by scanning when an
//!   attribute is unindexed).
//! * [`sampler`] — random tuple sampling over an eligibility bitmap, with or
//!   without replacement (a keyed pseudo-random permutation whose state is
//!   a key and a draw count), and the skip-based group-size estimator used by
//!   the unknown-size `SUM` algorithm (§6.3.1, Algorithm 5). Single draws
//!   and batched draws (one sorted `select_many` sweep per batch, resolved
//!   through a reusable per-sampler scratch arena — allocation-free at
//!   steady state, radix-sorted above [`RADIX_MIN_BATCH`]).
//! * [`engine`] — the [`engine::NeedleTail`] façade tying it together,
//!   including its one planning cache (a plan cache keyed by group-by and
//!   canonical predicate form handing back ready, shared group row sets —
//!   repeat-query planning is near-O(1) and allocation-light).
//! * [`cache`] — the small bounded LRU map behind that cache.
//! * [`codec`] — the one bounded little-endian byte codec under the table
//!   file ([`storage`]), the session checkpoint and the wire frame.
//! * [`scan`] — the row-level exact-aggregate oracle: one sequential pass
//!   into a hash map, as a traditional DBMS would run `SCAN`.
//! * [`io`] — the deterministic I/O + CPU cost model used to regenerate the
//!   paper's wall-clock figures (a substitution for the authors' hardware,
//!   documented in the module).
//! * [`metrics`] — sample/block counters every operation feeds.
//! * [`fault`] — injectable storage-read fault points (deterministic,
//!   row-keyed), so chaos tests can verify that sessions degrade to
//!   best-effort answers instead of panicking when reads fail.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bitmap;
pub mod cache;
pub mod codec;
pub mod csv;
pub mod disk;
pub mod engine;
pub mod fault;
pub mod index;
pub mod io;
pub mod metrics;
pub mod predicate;
pub mod sampler;
pub mod scan;
pub mod schema;
pub mod storage;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use csv::{read_csv, CsvError, CsvOptions};
pub use disk::SimulatedDisk;
pub use engine::{EngineError, ExactAggregate, GroupHandle, NeedleTail, SizedGroupHandle};
pub use fault::{FaultInjector, FaultSite, SeededFaults};
pub use index::BitmapIndex;
pub use io::{CostBreakdown, DiskModel};
pub use metrics::{Metrics, MetricsSnapshot};
pub use predicate::Predicate;
pub use sampler::{BatchScratch, BitmapSampler, RowSet, SizeEstimatingSampler, RADIX_MIN_BATCH};
pub use scan::{scan_group_aggregates, GroupAggregate};
pub use schema::{ColumnDef, DataType, Schema};
pub use storage::{read_table, write_table, StorageError};
pub use table::{Table, TableBuilder};
pub use value::Value;
