//! The common stepping interface: resumable, round-granular execution.
//!
//! Every algorithm in this crate is round-based: it repeatedly draws a few
//! samples, tightens confidence intervals, and freezes groups whose position
//! in the ordering has become certain. Each resumable algorithm's inherent
//! `start` returns an [`AlgorithmStepper`] — an explicit state machine
//! advanced one round at a time by [`AlgorithmStepper::step`] — and its
//! blocking `run` is nothing but a thin loop over it.
//! Between steps, [`AlgorithmStepper::snapshot`] exposes the current
//! estimates, confidence intervals, active set, and the progressively
//! hardening partial ordering, so callers can render partial results,
//! enforce sample/time budgets, or cancel and keep the best answer so far.

use crate::group::GroupSource;
use crate::result::RunResult;
use rand::RngCore;
use rapidviz_stats::Interval;

/// What a single [`AlgorithmStepper::step`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The round ran and more rounds are needed; call `step` again.
    Running,
    /// The algorithm terminated naturally: every group's position is
    /// certified (or exhausted/resolution-cut). Further `step` calls are
    /// no-ops returning `Converged` again.
    Converged,
    /// A budget (the configured round cap, or a session-level sample/time
    /// budget) ran out before convergence. The state is still usable: the
    /// snapshot and [`AlgorithmStepper::finish`] report best-effort
    /// estimates, flagged as truncated.
    BudgetExhausted,
}

impl StepOutcome {
    /// Whether stepping should continue (`Running`).
    #[must_use]
    pub fn is_running(self) -> bool {
        matches!(self, StepOutcome::Running)
    }

    /// The outcome's one-byte code in every serialized form (wire frames,
    /// session checkpoints): `0` running, `1` converged, `2` budget
    /// exhausted.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            StepOutcome::Running => 0,
            StepOutcome::Converged => 1,
            StepOutcome::BudgetExhausted => 2,
        }
    }

    /// The inverse of [`StepOutcome::code`]; `None` for an unknown byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(StepOutcome::Running),
            1 => Some(StepOutcome::Converged),
            2 => Some(StepOutcome::BudgetExhausted),
            _ => None,
        }
    }
}

/// A point-in-time view of a stepper: everything a progressive renderer
/// needs to draw the partial bar chart after a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Group labels, in input order.
    pub labels: Vec<String>,
    /// Current estimates `ν_i` (means, or sums for the SUM variants).
    pub estimates: Vec<f64>,
    /// Current confidence intervals: live half-width for active groups,
    /// frozen at deactivation for certified ones, zero-width for ones drawn
    /// dry (exact); a group stopped by a dropped read is frozen at the
    /// width for the samples it delivered.
    pub intervals: Vec<Interval>,
    /// Which groups are still active (still being sampled).
    pub active: Vec<bool>,
    /// Values read from each group so far, sampled or scanned whole.
    pub samples_per_group: Vec<u64>,
    /// Round counter `m` after the last completed round.
    pub rounds: u64,
    /// Whether a budget cap has already truncated the run.
    pub truncated: bool,
}

impl Snapshot {
    /// Total samples drawn so far.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.samples_per_group.iter().sum()
    }

    /// Number of still-active groups.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The **partial ordering** certified so far: indices of deactivated
    /// groups sorted by ascending estimate. With probability `≥ 1 − δ`
    /// these groups are correctly ordered among themselves (their intervals
    /// were mutually disjoint when they froze), so a dashboard can render
    /// them immediately; active groups are still in flux.
    #[must_use]
    pub fn certified_order(&self) -> Vec<usize> {
        let mut idx = self.order_by_estimate();
        idx.retain(|&i| !self.active[i]);
        idx
    }

    /// Approximate resident size of this snapshot in bytes (struct plus
    /// owned heap buffers, counting capacities rather than lengths). A
    /// multi-query scheduler charges each session's memory account with
    /// this after every round; it is an estimate for accounting, not an
    /// allocator-exact figure.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.labels.capacity() * size_of::<String>()
            + self.labels.iter().map(String::capacity).sum::<usize>()
            + self.estimates.capacity() * size_of::<f64>()
            + self.intervals.capacity() * size_of::<Interval>()
            + self.active.capacity() * size_of::<bool>()
            + self.samples_per_group.capacity() * size_of::<u64>()
    }

    /// All group indices sorted by ascending current estimate, ties by
    /// index (a stable sort) — the best full ordering available right now
    /// (no guarantee for active groups).
    #[must_use]
    pub fn order_by_estimate(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.estimates.len()).collect();
        idx.sort_by(|&a, &b| self.estimates[a].total_cmp(&self.estimates[b]));
        idx
    }
}

/// A resumable algorithm run: an explicit state machine advanced one round
/// per [`AlgorithmStepper::step`] call.
///
/// Steppers do not own the groups or the RNG — the caller passes the *same*
/// groups and RNG to every `step` call (passing different ones is not
/// memory-unsafe but produces meaningless estimates). This keeps the state
/// machine free of borrows, so a session can own stepper, groups, and RNG
/// side by side.
///
/// Fixed-seed runs driven through `start`/`step`/`finish` are byte-identical
/// to the historical blocking loops — that equivalence is regression-tested
/// against verbatim pre-refactor reference implementations.
pub trait AlgorithmStepper {
    /// Advances one round: draw from the selected groups, update estimates,
    /// re-run the deactivation test, and report whether to continue.
    ///
    /// Idempotent after termination: once `Converged` (or once a budget
    /// tripped and the caller stops), further calls return the terminal
    /// outcome without drawing.
    fn step<G: GroupSource>(&mut self, groups: &mut [G], rng: &mut dyn RngCore) -> StepOutcome;

    /// The current estimates, intervals, active set, and partial ordering.
    fn snapshot(&self) -> Snapshot;

    /// Total samples drawn so far, without building a snapshot — what a
    /// session's budget check reads before every round.
    fn total_samples(&self) -> u64;

    /// Approximate resident bytes of the stepper's algorithm state
    /// (estimators, activity flags, scratch arenas) — the per-session
    /// memory-accounting hook. The provided implementation derives the
    /// figure from a fresh [`AlgorithmStepper::snapshot`]; steppers backed
    /// by live round-loop state override it with a precise,
    /// allocation-free accounting.
    fn approx_bytes(&self) -> usize {
        self.snapshot().approx_bytes()
    }

    /// Consumes the stepper and packages the final (or best-effort, if
    /// stopped early) result.
    fn finish(self) -> RunResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_is_running() {
        assert!(StepOutcome::Running.is_running());
        assert!(!StepOutcome::Converged.is_running());
        assert!(!StepOutcome::BudgetExhausted.is_running());
    }

    #[test]
    fn outcome_codes_round_trip_and_are_pinned() {
        use StepOutcome::{BudgetExhausted, Converged, Running};
        for (outcome, code) in [(Running, 0), (Converged, 1), (BudgetExhausted, 2)] {
            assert_eq!(outcome.code(), code);
            assert_eq!(StepOutcome::from_code(code), Some(outcome));
        }
        assert_eq!(StepOutcome::from_code(3), None);
    }

    #[test]
    fn snapshot_orderings() {
        let snap = Snapshot {
            labels: vec!["a".into(), "b".into(), "c".into()],
            estimates: vec![30.0, 10.0, 20.0],
            intervals: vec![
                Interval::centered(30.0, 1.0),
                Interval::centered(10.0, 1.0),
                Interval::centered(20.0, 5.0),
            ],
            active: vec![false, false, true],
            samples_per_group: vec![5, 7, 9],
            rounds: 9,
            truncated: false,
        };
        assert_eq!(snap.total_samples(), 21);
        assert_eq!(snap.active_count(), 1);
        // Only the certified (inactive) groups appear, sorted by estimate.
        assert_eq!(snap.certified_order(), vec![1, 0]);
        assert_eq!(snap.order_by_estimate(), vec![1, 2, 0]);
    }
}
