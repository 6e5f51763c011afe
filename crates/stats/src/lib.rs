//! # rapidviz-stats
//!
//! Statistical machinery underlying the rapidviz sampling algorithms:
//!
//! * [`interval`] — closed-interval arithmetic ([`interval::Interval`]) and
//!   overlap queries over collections of confidence intervals, the geometric
//!   primitive that drives every active-set decision in IFOCUS and friends.
//! * [`hoeffding`] — the classical Chernoff–Hoeffding bound for sampling
//!   *with* replacement: deviation probabilities, half-widths, and inverse
//!   sample-size calculations (used by IREFINE's `EstimateMean`).
//! * [`serfling`] — the Hoeffding–Serfling inequality (Serfling 1974) for
//!   sampling *without* replacement, with the maximal-sequence form used in
//!   the paper's Lemma 2.
//! * [`schedule`] — the anytime (iterated-logarithm) ε-schedule of
//!   Algorithm 1 line 6: a confidence-interval half-width that is
//!   simultaneously valid over *all* rounds `m`, at the paper's `κ = 1`,
//!   with/without-replacement modes, and the heuristic shrink factor studied
//!   in Figures 5a/5b.
//! * [`estimators`] — numerically careful running estimators: running mean
//!   (the `ν_i` update of Algorithm 1 line 9) and extrema.
//! * [`bernstein`] — the empirical-Bernstein half-width and its anytime
//!   schedule, the variance-adaptive alternative to [`schedule`].
//!
//! All bounds here treat values in a bounded range `[0, c]`; the algorithms
//! pass `c` explicitly (the paper's boundedness assumption, §2.1).
//!
//! The crate is dependency-free and forbids `unsafe`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bernstein;
pub mod estimators;
pub mod hoeffding;
pub mod interval;
pub mod schedule;
pub mod serfling;

pub use bernstein::{empirical_bernstein_half_width, BernsteinSchedule};
pub use estimators::{Extrema, RunningMean};
pub use hoeffding::{hoeffding_deviation_probability, hoeffding_half_width, hoeffding_sample_size};
pub use interval::{Interval, IntervalSetScratch};
pub use schedule::{EpsilonSchedule, SamplingMode};
pub use serfling::{serfling_half_width, serfling_sampling_fraction_factor};
