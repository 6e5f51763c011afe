//! # rapidviz-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§5), each printing the same rows/series the paper reports.
//! See `src/bin/experiments.rs` for the CLI.

pub mod algorithms;
pub mod experiments;
pub mod report;

pub use algorithms::AlgorithmKind;
pub use experiments::ExpOptions;
