//! # rapidviz-datagen
//!
//! The paper's synthetic workloads (§5.2), a generative stand-in for the
//! flight-records dataset (§5.3), and lazily evaluated *virtual groups*
//! that let the experiment harness sweep `10^7–10^10`-record datasets
//! without materializing them.
//!
//! Workload families (exact parameterizations of §5.2):
//!
//! * **truncnorm** — per group: mean `~U[0,100]`, variance from
//!   `{4, 25, 64, 100}`, normal truncated to `[0, 100]`.
//! * **mixture** — per group: 1–5 truncated-normal components, means
//!   `~U[0,100]`, variances `~U[1,10]`.
//! * **bernoulli** — per group: mean `~U[0,100]`, values in `{0, 100}`.
//! * **hard(γ)** — group `i` has mean `40 + γ·i`, values in `{0, 100}`, so
//!   the instance difficulty `c²/η² = (100/γ)²` is controlled exactly.
//!
//! All distributions expose their **analytic** mean, so virtual groups know
//! `µ_i` without materialization and the difficulty statistics
//! (`c²/η²`, Figures 6c/7c) are exact.

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod difficulty;
pub mod dist;
pub mod flights;
pub mod lowerbound;
pub mod math;
pub mod spec;
pub mod virtual_group;

pub use difficulty::{difficulty, min_eta, per_group_eta};
pub use dist::{Mixture, TruncatedNormal, TwoPoint, Uniform, ValueDist};
pub use flights::{FlightAttribute, FlightModel};
pub use lowerbound::lower_bound_instance;
pub use spec::{DatasetSpec, GroupSpec, WorkloadFamily};
pub use virtual_group::VirtualGroup;

// Materialized groups re-exported from core so downstream users have one
// import point for group types.
pub use rapidviz_core::group::VecGroup;
