//! # rapidviz-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§5), each printing the same rows/series the paper reports.
//! See `src/bin/experiments.rs` for the CLI.
//!
//! It also holds the paper's instruments, which no product path calls: the
//! §5 cost model ([`DiskModel`], in [`io`]) and simulated Direct-I/O disk
//! ([`SimulatedDisk`], in [`disk`]) that stand in for the authors'
//! hardware, and the §6.3.5 two-aggregate ([`multi`]) and §6.3.6 no-index
//! ([`noindex`]) loops over core's one deactivation fixpoint
//! ([`rapidviz_core::FixpointScratch`]).

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub mod algorithms;
pub mod disk;
pub mod experiments;
pub mod io;
pub mod multi;
pub mod noindex;
pub mod report;

pub use algorithms::AlgorithmKind;
pub use disk::SimulatedDisk;
pub use experiments::ExpOptions;
pub use io::{CostBreakdown, DiskModel};
pub use multi::{IFocusMultiAggregate, MultiAggregateResult, PairGroupSource, VecPairGroup};
pub use noindex::{NoIndexSampler, StreamSource, VecStream};
