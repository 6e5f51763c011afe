//! # rapidviz-core
//!
//! The paper's primary contribution: query-processing algorithms that return
//! per-group aggregate estimates whose **ordering** matches the true
//! ordering with probability `1 − δ`, while sampling as little as possible.
//!
//! ## Algorithms
//!
//! * [`ifocus::IFocus`] — Algorithm 1. One extra sample per *active* group
//!   per round; a group deactivates when its anytime confidence interval no
//!   longer overlaps any other active group's. Provably correct
//!   (Theorem 3.5) and sample-optimal up to an additive `log log(1/η)` term
//!   (Theorems 3.6 & 3.8). The resolution relaxation (`IFOCUS-R`,
//!   Problem 2) is the same struct with [`config::AlgoConfig::resolution`]
//!   set: sampling stops once `ε_m < r/4`.
//! * [`irefine::IRefine`] — Algorithm 3. Halves every active group's
//!   confidence interval per phase using fresh Chernoff–Hoeffding estimates
//!   (Algorithm 2); simpler but suboptimal by a `log(1/η)` factor
//!   (Theorem 3.10).
//! * [`roundrobin::RoundRobin`] — the baseline: conventional round-robin
//!   stratified sampling instrumented with the same confidence machinery so
//!   it stops with the same guarantee.
//!
//! All three run over any collection of [`group::GroupSource`]s through the
//! same inherent `new` / `start` / `run` shape, their steppers behind the
//! [`runner::AlgorithmStepper`] trait: step, snapshot, sample count, memory
//! accounting and finish are everything a driver needs, so the session
//! facade holds one boxed stepper and never asks which algorithm it is.
//! IFOCUS's round is written once, in [`focus`]: [`IFocusStepper`] and
//! [`RoundRobinStepper`] are one type, [`focus::FocusStepper`], under a
//! crate-private *rule* (every pair must order; the same with every group
//! drawing). IREFINE has a round of its own. SCAN is the same round with
//! every group read whole by one pass, one per step ([`IFocus::scan`]).
//!
//! ## Extensions (§6)
//!
//! The [`extensions`] module implements every variant the paper describes:
//! trend-line / choropleth adjacency ordering, top-t, allowed mistakes,
//! value accuracy, partial results, `SUM` (known and unknown group sizes),
//! `COUNT`, multiple aggregates, and the no-index setting — all but the
//! last two as further rules over that one round ([`extensions`] names
//! each), as is a variance-adaptive variant of the interval width.
//! Selection predicates and multiple group-bys are handled in the storage
//! layer (`rapidviz-needletail`) since they only change eligible rows.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![expect(clippy::needless_range_loop, reason = "mirrors the paper's pseudocode")]

pub mod clock;
pub mod config;
pub mod extensions;
pub mod focus;
pub mod group;
pub mod ifocus;
pub mod irefine;
pub mod ordering;
pub mod result;
pub mod roundrobin;
pub mod runner;
mod state;
pub mod viz;

pub use clock::{Clock, SimulatedClock, SystemClock};
pub use config::AlgoConfig;
pub use group::GroupSource;
pub use ifocus::{IFocus, IFocusStepper};
pub use irefine::{IRefine, IRefineStepper};
pub use ordering::{
    count_incorrect_pairs, fraction_correct_pairs, is_correctly_ordered,
    is_correctly_ordered_with_resolution, is_top_t_correct, is_trend_correct,
};
pub use result::RunResult;
pub use roundrobin::{RoundRobin, RoundRobinStepper};
pub use runner::{AlgorithmStepper, Snapshot, StepOutcome};

// Re-export the sampling-mode enum so downstream users configure algorithms
// without importing rapidviz-stats directly.
pub use rapidviz_stats::SamplingMode;
