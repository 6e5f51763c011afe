//! Injectable fault points for the storage read path.
//!
//! Real deployments lose reads: a page goes bad, a shard times out, a
//! speculative prefetch is cancelled. The engine's sampling guarantees are
//! supposed to *degrade* under such faults — a group whose reads fail
//! shrinks to best-effort estimates, it never panics or wedges the
//! algorithm layer. [`FaultInjector`] makes that property testable: an
//! injector installed via
//! [`NeedleTail::set_fault_injector`](crate::NeedleTail::set_fault_injector)
//! is consulted on every sampled-row read, and rows it fails are dropped
//! from the delivered batch (charged to the
//! [`faulted_reads`](crate::metrics::MetricsSnapshot::faulted_reads)
//! counter) exactly as if the storage below had errored.
//!
//! # Determinism contract
//!
//! Fault decisions must be a pure function of `(site, row)` — **not** of
//! call order. The simulation harness replays each scheduled session
//! standalone and asserts byte-identical results; a stateful injector
//! (e.g. "fail every 100th read") would fire at different call indices
//! under different interleavings and break that replay. [`SeededFaults`]
//! hashes the row id against a seed, so the same rows fail no matter who
//! else is sampling, and RNG consumption is untouched (the draw happens
//! first; only the materialized value is withheld).
//!
//! The `row` an injector sees is the engine's internal row id: the engine
//! clusters the table by its first indexed column when it is built (see
//! [`NeedleTail::new`](crate::NeedleTail::new)), so `(site, row)` names a
//! row of the clustered order, not a position in the table as loaded.

use crate::sampler::mix;
use std::fmt;

/// Which storage read a fault decision is being made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Materializing a sampled row's measure value for a plain group
    /// handle ([`crate::GroupHandle`]).
    RowRead,
    /// Materializing a sampled row's measure value for a size-estimating
    /// handle ([`crate::SizedGroupHandle`]); the in-memory size probe
    /// itself never faults.
    SizedRowRead,
}

/// A pluggable fault decision for storage reads. See the
/// [module docs](self) for the determinism contract implementations must
/// uphold.
pub trait FaultInjector: fmt::Debug + Send + Sync {
    /// Whether reading `row` at `site` fails. Must be pure in
    /// `(site, row)`: the same arguments must always return the same
    /// answer, regardless of call order or thread.
    fn fails(&self, site: FaultSite, row: u64) -> bool;
}

/// Deterministic seeded injector: each `(site, row)` pair fails with
/// (approximate) probability `rate`, decided by hashing the row id against
/// the seed — stateless, so decisions are independent of sampling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededFaults {
    seed: u64,
    /// `rate` mapped onto the full `u64` range: `hash < threshold` fails.
    threshold: u64,
}

impl SeededFaults {
    /// An injector failing each distinct `(site, row)` read with
    /// probability `rate` (clamped to `[0, 1]`), keyed by `seed`.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            // Exact at the extremes, within one part in 2^53 elsewhere —
            // plenty for a chaos-testing failure rate.
            (rate * u64::MAX as f64) as u64
        };
        Self { seed, threshold }
    }
}

impl FaultInjector for SeededFaults {
    fn fails(&self, site: FaultSite, row: u64) -> bool {
        let site_salt = match site {
            FaultSite::RowRead => 0x9e37_79b9_7f4a_7c15_u64,
            FaultSite::SizedRowRead => 0xd1b5_4a32_d192_ed03_u64,
        };
        mix(self.seed ^ site_salt ^ row.wrapping_mul(0xff51_afd7_ed55_8ccd)) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_site_and_row() {
        let inj = SeededFaults::new(42, 0.3);
        for row in 0..200 {
            for site in [FaultSite::RowRead, FaultSite::SizedRowRead] {
                assert_eq!(inj.fails(site, row), inj.fails(site, row));
            }
        }
    }

    #[test]
    fn rate_is_roughly_honored() {
        let inj = SeededFaults::new(7, 0.25);
        let n = 100_000u64;
        let failed = (0..n).filter(|&r| inj.fails(FaultSite::RowRead, r)).count();
        let observed = failed as f64 / n as f64;
        assert!(
            (observed - 0.25).abs() < 0.02,
            "observed fault rate {observed}"
        );
    }

    #[test]
    fn extremes_are_exact() {
        let never = SeededFaults::new(1, 0.0);
        let always = SeededFaults::new(1, 1.0);
        for row in 0..1000 {
            assert!(!never.fails(FaultSite::RowRead, row));
            assert!(always.fails(FaultSite::RowRead, row));
        }
    }

    #[test]
    fn sites_fail_independently() {
        let inj = SeededFaults::new(3, 0.5);
        let differs = (0..1000)
            .any(|r| inj.fails(FaultSite::RowRead, r) != inj.fails(FaultSite::SizedRowRead, r));
        assert!(differs, "site salt should decorrelate the two fault sites");
    }

    #[test]
    fn rate_clamps() {
        let inj = SeededFaults::new(9, 7.5);
        assert!(inj.fails(FaultSite::RowRead, 123));
        let inj = SeededFaults::new(9, -1.0);
        assert!(!inj.fails(FaultSite::RowRead, 123));
    }
}
