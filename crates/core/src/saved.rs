//! Serializable algorithm-stepper state — the core half of durable query
//! sessions.
//!
//! Every resumable stepper can dump its mutable round-loop state into a
//! [`SavedStepper`] and later be rebuilt from it: the session layer
//! re-plans the query (recreating the *derived* state — labels, sizes,
//! configuration, ε schedule — from storage), starts a fresh stepper, and
//! overwrites the mutable fields from the saved bag. Together with the
//! sampler permutation state and the RNG words (captured separately by the
//! session layer), `restore` makes the resumed round stream bit-identical
//! to the uninterrupted run.
//!
//! What is saved is deliberately minimal: per-group estimator parts
//! (`(count, mean)` pairs), activity/exhaustion flags, frozen interval
//! half-widths, per-group sample counters, the round counter, and the
//! truncation flag. Everything re-derivable from the query spec (labels,
//! group sizes, the ε schedule, scratch arenas) is *not* saved — it is
//! rebuilt on resume, which keeps checkpoints compact and immune to cache
//! state.
//!
//! Restoring validates shape (kind tag and per-group vector lengths)
//! and returns a structured [`RestoreError`] on mismatch — never panics —
//! so corrupt or mismatched checkpoints surface as answerable errors.

use crate::result::PartialEmission;

/// The mutable round-loop state shared by the `FocusState`-backed steppers
/// (IFOCUS, ROUNDROBIN, SUM with known sizes, and the partial-results
/// variant).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedFocusCore {
    /// Per-group running-mean parts `(count, mean)`.
    pub estimates: Vec<(u64, f64)>,
    /// Active flags.
    pub active: Vec<bool>,
    /// Exhaustion flags (without-replacement sources that ran dry).
    pub exhausted: Vec<bool>,
    /// ε frozen at each group's deactivation (`+∞` while active).
    pub frozen_eps: Vec<f64>,
    /// Per-group sample counters.
    pub samples: Vec<u64>,
    /// Round counter `m`.
    pub m: u64,
    /// Whether a budget already truncated the run.
    pub truncated: bool,
}

/// The mutable state of the IREFINE phase loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedIRefine {
    /// Per-group point estimates.
    pub estimates: Vec<f64>,
    /// Per-group target half-widths `ε_i`.
    pub eps: Vec<f64>,
    /// Per-group failure budgets `δ_i`.
    pub deltas: Vec<f64>,
    /// Active flags.
    pub active: Vec<bool>,
    /// Per-group sample counters.
    pub samples: Vec<u64>,
    /// Cumulative `(count, sum)` of each group's i.i.d. sample.
    pub cumulative: Vec<(u64, f64)>,
    /// Phase counter.
    pub phase: u64,
    /// Whether a budget already truncated the run.
    pub truncated: bool,
}

/// The mutable state of the exhaustive SCAN stepper.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedScan {
    /// Exact means for groups already read (`0.0` placeholders beyond
    /// `next_group`).
    pub estimates: Vec<f64>,
    /// Rows read per group.
    pub samples: Vec<u64>,
    /// Next group to read.
    pub next_group: u64,
}

/// The mutable state of the unknown-size SUM/COUNT stepper (Algorithm 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSum2 {
    /// Per-group running-mean parts `(count, mean)` over the `x·z` stream.
    pub estimates: Vec<(u64, f64)>,
    /// Active flags.
    pub active: Vec<bool>,
    /// ε frozen at each group's deactivation (`+∞` while active).
    pub frozen_eps: Vec<f64>,
    /// Per-group sample counters.
    pub samples: Vec<u64>,
    /// Round counter `m`.
    pub m: u64,
    /// Whether a budget already truncated the run.
    pub truncated: bool,
}

/// The mutable state of the partial-results stepper: the shared focus core
/// plus the emission bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedPartial {
    /// The shared focus-loop state.
    pub core: SavedFocusCore,
    /// Which groups have already been emitted downstream.
    pub emitted: Vec<bool>,
    /// Emissions queued but not yet drained at checkpoint time.
    pub pending: Vec<PartialEmission>,
}

/// A kind-tagged bag of one stepper's mutable state, as captured by
/// [`crate::AlgorithmStepper::save`] (or the inherent `save` on the
/// extension steppers) and accepted back by `restore`.
#[derive(Debug, Clone, PartialEq)]
pub enum SavedStepper {
    /// [`crate::IFocusStepper`].
    Focus(SavedFocusCore),
    /// [`crate::RoundRobinStepper`].
    RoundRobin(SavedFocusCore),
    /// [`crate::extensions::IFocusSum1Stepper`].
    Sum1(SavedFocusCore),
    /// [`crate::IRefineStepper`].
    IRefine(SavedIRefine),
    /// [`crate::ScanStepper`].
    Scan(SavedScan),
    /// [`crate::extensions::IFocusSum2Stepper`].
    Sum2(SavedSum2),
    /// [`crate::extensions::IFocusPartialStepper`].
    Partial(SavedPartial),
}

impl SavedStepper {
    /// Short kind tag used in mismatch errors and the checkpoint wire
    /// format.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SavedStepper::Focus(_) => "focus",
            SavedStepper::RoundRobin(_) => "roundrobin",
            SavedStepper::Sum1(_) => "sum1",
            SavedStepper::IRefine(_) => "irefine",
            SavedStepper::Scan(_) => "scan",
            SavedStepper::Sum2(_) => "sum2",
            SavedStepper::Partial(_) => "partial",
        }
    }
}

/// Why a `restore` call rejected a [`SavedStepper`]. Restoration never
/// panics; a session resuming from corrupt or mismatched bytes reports
/// this as a structured error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The stepper does not support save/restore (it keeps the
    /// [`crate::AlgorithmStepper`] trait's provided `restore`).
    Unsupported,
    /// The saved kind tag does not match the stepper being restored.
    WrongKind {
        /// The kind the stepper expected.
        expected: &'static str,
        /// The kind found in the saved state.
        got: &'static str,
    },
    /// A per-group vector's length does not match the stepper's group
    /// count (checkpoint taken against a different query or table).
    LengthMismatch {
        /// The stepper's group count.
        expected: usize,
        /// The saved vector's length.
        got: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Unsupported => {
                write!(f, "this stepper does not support checkpoint/restore")
            }
            RestoreError::WrongKind { expected, got } => {
                write!(
                    f,
                    "saved stepper kind mismatch: expected {expected}, got {got}"
                )
            }
            RestoreError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "saved per-group state has {got} entries but the query has {expected} groups"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Validates that a saved per-group vector matches the stepper's group
/// count.
pub(crate) fn check_len<T>(expected: usize, v: &[T]) -> Result<(), RestoreError> {
    if v.len() == expected {
        Ok(())
    } else {
        Err(RestoreError::LengthMismatch {
            expected,
            got: v.len(),
        })
    }
}
