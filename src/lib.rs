//! # rapidviz — rapid sampling for visualizations with ordering guarantees
//!
//! A Rust implementation of the IFOCUS family of visualization-aware sampling
//! algorithms and the NEEDLETAIL sampling engine from
//! *"Rapid Sampling for Visualizations with Ordering Guarantees"*
//! (Kim, Blais, Parameswaran, Indyk, Madden, Rubinfeld — VLDB 2015).
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`stats`] — concentration inequalities and the anytime ε-schedule.
//! * [`needletail`] — the bitmap-indexed sampling storage engine.
//! * [`datagen`] — the paper's synthetic workloads and the flight model.
//! * [`core`] — IFOCUS / IREFINE / ROUNDROBIN / SCAN and all §6 extensions.
//!
//! ## Quickstart
//!
//! ```
//! use rapidviz::core::{AlgoConfig, IFocus};
//! use rapidviz::datagen::VecGroup;
//! use rand::SeedableRng;
//!
//! // Three groups of bounded values with well-separated means.
//! let mut groups: Vec<VecGroup> = [30.0, 55.0, 80.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &mu)| {
//!         VecGroup::new(
//!             format!("g{i}"),
//!             (0..20_000).map(|j| mu + f64::from(j % 7) - 3.0).collect(),
//!         )
//!     })
//!     .collect();
//!
//! let config = AlgoConfig::new(100.0, 0.05); // values in [0, 100], δ = 0.05
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let result = IFocus::new(config).run(&mut groups, &mut rng);
//!
//! // Estimates are ordered like the true means, w.p. ≥ 1 − δ.
//! assert!(result.estimates[0] < result.estimates[1]);
//! assert!(result.estimates[1] < result.estimates[2]);
//! // ...while sampling only a fraction of the data.
//! assert!(result.total_samples() < 3 * 20_000);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod adapter;
pub mod checkpoint;
pub mod query;
pub mod scheduler;
pub mod session;

pub use adapter::{query_groups, query_sized_groups, NeedletailGroup, SizedNeedletailGroup};
pub use checkpoint::{CheckpointError, QuerySpec, SessionCheckpoint};
pub use query::{Aggregate, AlgorithmChoice, QueryAnswer, VizQuery};
pub use rapidviz_core as core;
pub use rapidviz_core::{Clock, SimulatedClock, Snapshot, StepOutcome, SystemClock};
pub use rapidviz_datagen as datagen;
pub use rapidviz_needletail as needletail;
pub use rapidviz_stats as stats;
pub use scheduler::{
    MultiQueryScheduler, ParkError, ParkingRegistry, ParkingStats, QueryId, RunOutcome,
    SampleLedger, SchedulePolicy, SchedulerEvent, SessionStats,
};
pub use session::{PlanCacheStats, QuerySession, RoundUpdate};
