//! Durable session checkpoints: the on-disk / in-registry serialization of
//! a paused [`QuerySession`](crate::QuerySession).
//!
//! A [`SessionCheckpoint`] captures **everything a resumed session needs to
//! replay the remaining round stream bit-identically** — and deliberately
//! nothing else:
//!
//! * the **query spec** ([`QuerySpec`]): group-by columns, measure,
//!   aggregate, algorithm, predicate, `δ`, resolution, bound override, and
//!   budgets — enough to re-plan the query against the engine from scratch;
//! * the algorithm stepper's mutable state
//!   ([`SavedStepper`]): estimators, activity
//!   flags, ε bookkeeping, round counters;
//! * per-group **sampler permutation state** (the virtual Fisher–Yates
//!   `(drawn, swaps)` records) for without-replacement sessions;
//! * the session RNG's xoshiro256** state words;
//! * budget bookkeeping: the **remaining** time-to-deadline (re-anchored at
//!   the resuming clock's `now()`, so wall time spent parked does not count
//!   against the query), the previously delivered active set, and the
//!   terminal outcome if one was already reached.
//!
//! **Excluded by design:** the engine's planning caches (predicate bitmaps,
//! group plans, composite indexes). Resume re-plans through the normal
//! path, so a checkpoint taken on one server restores correctly on a
//! restarted server with cold caches — only planning latency differs, never
//! results. Derived algorithm state (labels, group sizes, ε schedules,
//! scratch arenas) is likewise rebuilt by re-planning rather than stored.
//!
//! # Binary format
//!
//! A schema over [`rapidviz_needletail::codec`], which defines the
//! primitives (`T?` below is its flag-prefixed option) and the hardening
//! rules every decode obeys; failures are [`CheckpointError::Decode`].
//!
//! ```text
//! magic    "RVCK"                                  4 bytes
//! version  u32 (currently 1)
//! spec     group_by, measure, aggregate u8, algorithm u8,
//!          predicate (tagged recursive), delta, resolution?, bound?,
//!          samples_per_round?, max_samples?
//! stepper  kind tag u8 + per-kind payload (see `SavedStepper`)
//! samplers vec of (drawn u64, vec of (slot u64, value u64))
//! rng      4 × u64 xoshiro256** state words
//! budgets  remaining-deadline nanos?, prev_active flags,
//!          terminal u8 (0 none / 1 converged / 2 budget),
//!          budget_tripped u8, delivered_terminal u8
//! ```
//!
//! On top of the codec's rules this schema caps the whole payload
//! ([`MAX_CHECKPOINT_BYTES`]) and the predicate nesting depth, and
//! range-checks the numeric spec fields (`δ ∈ (0, 1)`, positive bounds,
//! non-zero batch sizes) so a corrupt checkpoint is rejected here rather
//! than tripping an assertion deep in planning.
//!
//! # Versioning
//!
//! The version integer gates the whole payload: decoders reject any version
//! they do not know ([`CheckpointError::Decode`]), and any layout change —
//! even additive — bumps it. Checkpoints are short-lived (they live in the
//! serving layer's parking registry under a TTL), so no cross-version
//! migration is attempted.

use rapidviz_core::extensions::PartialEmission;
use rapidviz_core::saved::{
    RestoreError, SavedFocusCore, SavedIRefine, SavedPartial, SavedScan, SavedStepper, SavedSum2,
};
use rapidviz_core::StepOutcome;
use rapidviz_needletail::codec::{CodecError, Dec, Enc};
use rapidviz_needletail::{EngineError, Predicate, Value};
use std::time::Duration;

/// First four bytes of every serialized checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RVCK";

/// Current (and only) serialization version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Upper bound accepted by [`SessionCheckpoint::from_bytes`]. Generously
/// above any real session (the dominant term is one `(u64, u64)` pair per
/// without-replacement draw still held in the permutation map), while
/// keeping a corrupt length from asking the server to buffer gigabytes.
pub const MAX_CHECKPOINT_BYTES: usize = 64 * 1024 * 1024;

/// Deepest predicate tree a checkpoint will decode — matches any sane
/// query and keeps a crafted payload from recursing the decoder off the
/// stack.
const MAX_PREDICATE_DEPTH: u32 = 64;

/// Which aggregate a query computes. Defined here beside [`QuerySpec`]
/// (the serialized form carries it, as the discriminant byte) and
/// re-exported through [`crate::query`], where the builder consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregate {
    /// `AVG(measure)` — Problem 1 / Algorithm 1.
    #[default]
    Avg = 0,
    /// `SUM(measure)` with known group sizes — Algorithm 4.
    Sum = 1,
    /// `COUNT` with unknown group sizes — the §6.3.2 reduction of
    /// Algorithm 5 to the size-estimate stream. Estimates are **normalized
    /// counts** `s_i ∈ [0, 1]` (each group's fraction of the relation);
    /// multiply by the relation size for absolute counts.
    Count = 2,
}

/// Which ordering algorithm drives an `AVG` query. `SUM`/`COUNT` queries
/// have dedicated algorithms (4 and 5) and reject an override. The
/// discriminant is the checkpoint byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmChoice {
    /// IFOCUS (Algorithm 1) — the paper's primary contribution and the
    /// default.
    #[default]
    IFocus = 0,
    /// IREFINE (Algorithm 3), the interval-halving alternative.
    IRefine = 1,
    /// The ROUNDROBIN baseline (conventional stratified sampling with the
    /// same stopping guarantee).
    RoundRobin = 2,
    /// The exhaustive SCAN baseline: exact answer, maximal cost; sessions
    /// stream one exact group per round.
    ExactScan = 3,
}

/// The re-plannable description of a query — the builder fields of
/// [`crate::VizQuery`] minus the engine reference and clock, which the
/// resuming process supplies.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Group-by columns, in builder order.
    pub group_by: Vec<String>,
    /// The measure column.
    pub measure: String,
    /// Which aggregate the query computes.
    pub aggregate: Aggregate,
    /// Which ordering algorithm drives it.
    pub algorithm: AlgorithmChoice,
    /// Row-selection predicate.
    pub predicate: Predicate,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Resolution as a fraction of the value range, if relaxed.
    pub resolution_fraction: Option<f64>,
    /// Explicit value bound `c`, if the builder overrode inference.
    pub bound: Option<f64>,
    /// Per-round batch size override, if any.
    pub samples_per_round: Option<u64>,
    /// Total-sample budget, if any.
    pub max_samples: Option<u64>,
}

/// A paused session, ready to serialize. See the [module docs](self) for
/// what is captured and what is deliberately rebuilt on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The query, re-planned verbatim on resume.
    pub spec: QuerySpec,
    /// The algorithm stepper's mutable state.
    pub stepper: SavedStepper,
    /// Per-group `(drawn, permutation swaps)` records, in group order —
    /// empty for with-replacement sessions (`COUNT`), whose samplers are
    /// stateless.
    pub samplers: Vec<(u64, Vec<(u64, u64)>)>,
    /// xoshiro256** state words of the session RNG.
    pub rng: [u64; 4],
    /// Time left until the session's deadline when the checkpoint was
    /// taken; `None` when no wall-clock budget was configured. Resume
    /// re-anchors this at the new clock's `now()`.
    pub remaining: Option<Duration>,
    /// Active flags after the last delivered update (drives
    /// `newly_certified` on the first resumed round).
    pub prev_active: Vec<bool>,
    /// Terminal outcome, if the session already finished.
    pub terminal: Option<StepOutcome>,
    /// Whether that terminal outcome came from a session budget.
    pub budget_tripped: bool,
    /// Whether the terminal update was already delivered to the iterator
    /// view.
    pub delivered_terminal: bool,
}

/// Why a checkpoint could not be taken, decoded, or resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The session's RNG is not the checkpointable [`rand::rngs::StdRng`]
    /// (sessions started with a custom RNG run fine but cannot park).
    OpaqueRng,
    /// The session cannot checkpoint for a structural reason (e.g. it was
    /// not created through [`crate::VizQuery::start`]).
    Unsupported(&'static str),
    /// The byte payload is truncated, corrupt, oversized, or of an unknown
    /// version.
    Decode(String),
    /// Re-planning the embedded query failed on resume (schema drift: a
    /// column the original query used no longer exists, say).
    Engine(EngineError),
    /// The stepper state does not fit the re-planned query (group count
    /// drift between checkpoint and resume).
    Restore(RestoreError),
    /// The checkpoint disagrees with the re-planned session's shape in a
    /// way the stepper restore alone cannot see (sampler record counts,
    /// active-flag length).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::OpaqueRng => {
                write!(f, "session RNG is not the checkpointable StdRng")
            }
            CheckpointError::Unsupported(what) => write!(f, "cannot checkpoint: {what}"),
            CheckpointError::Decode(msg) => write!(f, "checkpoint decode error: {msg}"),
            CheckpointError::Engine(e) => write!(f, "resume re-planning failed: {e}"),
            CheckpointError::Restore(e) => write!(f, "resume state restore failed: {e}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint/session mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Engine(e) => Some(e),
            CheckpointError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CheckpointError {
    fn from(e: EngineError) -> Self {
        CheckpointError::Engine(e)
    }
}

impl From<RestoreError> for CheckpointError {
    fn from(e: RestoreError) -> Self {
        CheckpointError::Restore(e)
    }
}

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Decode(msg.into())
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        bad(e.to_string())
    }
}

// The schema, component by component, over `needletail::codec`.

fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int(i) => {
            e.u8(0);
            e.i64(*i);
        }
        Value::Float(x) => {
            e.u8(1);
            e.f64_bits(*x);
        }
        Value::Str(s) => {
            e.u8(2);
            e.str(s);
        }
    }
}

fn decode_value(d: &mut Dec<'_>) -> Result<Value, CheckpointError> {
    match d.u8()? {
        0 => Ok(Value::Int(d.i64()?)),
        1 => Ok(Value::Float(d.f64_bits()?)),
        2 => Ok(Value::Str(d.str()?)),
        other => Err(bad(format!("bad value tag {other}"))),
    }
}

fn encode_predicate(e: &mut Enc, p: &Predicate) {
    match p {
        Predicate::True => e.u8(0),
        Predicate::Eq(col, v) => {
            e.u8(1);
            e.str(col);
            encode_value(e, v);
        }
        Predicate::In(col, vals) => {
            e.u8(2);
            e.str(col);
            e.count(vals.len());
            for v in vals {
                encode_value(e, v);
            }
        }
        Predicate::Range { column, lo, hi } => {
            e.u8(3);
            e.str(column);
            e.opt(lo);
            e.opt(hi);
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            e.u8(if matches!(p, Predicate::And(..)) {
                4
            } else {
                5
            });
            encode_predicate(e, a);
            encode_predicate(e, b);
        }
        Predicate::Not(inner) => {
            e.u8(6);
            encode_predicate(e, inner);
        }
    }
}

fn decode_predicate(d: &mut Dec<'_>, depth: u32) -> Result<Predicate, CheckpointError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(bad("predicate nests too deeply"));
    }
    match d.u8()? {
        0 => Ok(Predicate::True),
        1 => Ok(Predicate::Eq(d.str()?, decode_value(d)?)),
        2 => {
            let col = d.str()?;
            let n = d.count(2)?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(decode_value(d)?);
            }
            Ok(Predicate::In(col, vals))
        }
        3 => Ok(Predicate::Range {
            column: d.str()?,
            lo: d.opt::<f64>()?,
            hi: d.opt::<f64>()?,
        }),
        tag @ (4 | 5) => {
            let a = Box::new(decode_predicate(d, depth + 1)?);
            let b = Box::new(decode_predicate(d, depth + 1)?);
            Ok(if tag == 4 {
                Predicate::And(a, b)
            } else {
                Predicate::Or(a, b)
            })
        }
        6 => Ok(Predicate::Not(Box::new(decode_predicate(d, depth + 1)?))),
        other => Err(bad(format!("bad predicate tag {other}"))),
    }
}

fn aggregate_from_u8(v: u8) -> Result<Aggregate, CheckpointError> {
    match v {
        0 => Ok(Aggregate::Avg),
        1 => Ok(Aggregate::Sum),
        2 => Ok(Aggregate::Count),
        other => Err(bad(format!("bad aggregate byte {other}"))),
    }
}

fn algorithm_from_u8(v: u8) -> Result<AlgorithmChoice, CheckpointError> {
    match v {
        0 => Ok(AlgorithmChoice::IFocus),
        1 => Ok(AlgorithmChoice::IRefine),
        2 => Ok(AlgorithmChoice::RoundRobin),
        3 => Ok(AlgorithmChoice::ExactScan),
        other => Err(bad(format!("bad algorithm byte {other}"))),
    }
}

fn encode_spec(e: &mut Enc, spec: &QuerySpec) {
    e.vec(&spec.group_by);
    e.str(&spec.measure);
    e.u8(spec.aggregate as u8);
    e.u8(spec.algorithm as u8);
    encode_predicate(e, &spec.predicate);
    e.f64_bits(spec.delta);
    e.opt(&spec.resolution_fraction);
    e.opt(&spec.bound);
    e.opt(&spec.samples_per_round);
    e.opt(&spec.max_samples);
}

fn decode_spec(d: &mut Dec<'_>) -> Result<QuerySpec, CheckpointError> {
    let spec = QuerySpec {
        group_by: d.vec()?,
        measure: d.str()?,
        aggregate: aggregate_from_u8(d.u8()?)?,
        algorithm: algorithm_from_u8(d.u8()?)?,
        predicate: decode_predicate(d, 0)?,
        delta: d.f64_bits()?,
        resolution_fraction: d.opt()?,
        bound: d.opt()?,
        samples_per_round: d.opt()?,
        max_samples: d.opt()?,
    };
    // Range-check the numeric knobs here so a corrupt checkpoint is
    // rejected with a structured error instead of tripping a planning
    // assertion on resume.
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !(positive(spec.delta) && spec.delta < 1.0) {
        return Err(bad(format!("delta {} outside (0, 1)", spec.delta)));
    }
    if let Some(r) = spec.resolution_fraction.filter(|&r| !positive(r)) {
        return Err(bad(format!("resolution fraction {r} not positive")));
    }
    if let Some(c) = spec.bound.filter(|&c| !positive(c)) {
        return Err(bad(format!("bound {c} not positive")));
    }
    if spec.samples_per_round == Some(0) {
        return Err(bad("samples_per_round is zero"));
    }
    if spec.max_samples == Some(0) {
        return Err(bad("max_samples is zero"));
    }
    Ok(spec)
}

// Every stepper payload opens with one group count `k`, shared by the
// per-group columns that follow it.

fn encode_focus_core(e: &mut Enc, tag: u8, c: &SavedFocusCore) {
    e.u8(tag);
    e.count(c.estimates.len());
    e.column(&c.estimates);
    e.column(&c.active);
    e.column(&c.exhausted);
    e.column(&c.frozen_eps);
    e.column(&c.samples);
    e.u64(c.m);
    e.flag(c.truncated);
}

fn decode_focus_core(d: &mut Dec<'_>) -> Result<SavedFocusCore, CheckpointError> {
    let k = d.count(16)?;
    Ok(SavedFocusCore {
        estimates: d.column(k)?,
        active: d.column(k)?,
        exhausted: d.column(k)?,
        frozen_eps: d.column(k)?,
        samples: d.column(k)?,
        m: d.u64()?,
        truncated: d.flag()?,
    })
}

const STEPPER_FOCUS: u8 = 0;
const STEPPER_ROUNDROBIN: u8 = 1;
const STEPPER_SUM1: u8 = 2;
const STEPPER_IREFINE: u8 = 3;
const STEPPER_SCAN: u8 = 4;
const STEPPER_SUM2: u8 = 5;
const STEPPER_PARTIAL: u8 = 6;

fn encode_stepper(e: &mut Enc, s: &SavedStepper) {
    match s {
        SavedStepper::Focus(c) => encode_focus_core(e, STEPPER_FOCUS, c),
        SavedStepper::RoundRobin(c) => encode_focus_core(e, STEPPER_ROUNDROBIN, c),
        SavedStepper::Sum1(c) => encode_focus_core(e, STEPPER_SUM1, c),
        SavedStepper::IRefine(s) => {
            e.u8(STEPPER_IREFINE);
            e.count(s.estimates.len());
            e.column(&s.estimates);
            e.column(&s.eps);
            e.column(&s.deltas);
            e.column(&s.active);
            e.column(&s.samples);
            e.column(&s.cumulative);
            e.u64(s.phase);
            e.flag(s.truncated);
        }
        SavedStepper::Scan(s) => {
            e.u8(STEPPER_SCAN);
            e.count(s.estimates.len());
            e.column(&s.estimates);
            e.column(&s.samples);
            e.u64(s.next_group);
        }
        SavedStepper::Sum2(s) => {
            e.u8(STEPPER_SUM2);
            e.count(s.estimates.len());
            e.column(&s.estimates);
            e.column(&s.active);
            e.column(&s.frozen_eps);
            e.column(&s.samples);
            e.u64(s.m);
            e.flag(s.truncated);
        }
        SavedStepper::Partial(p) => {
            encode_focus_core(e, STEPPER_PARTIAL, &p.core);
            e.vec(&p.emitted);
            e.count(p.pending.len());
            for em in &p.pending {
                e.u64(em.group as u64);
                e.str(&em.label);
                e.f64_bits(em.estimate);
                e.u64(em.round);
                e.u64(em.total_samples_so_far);
            }
        }
    }
}

fn decode_stepper(d: &mut Dec<'_>) -> Result<SavedStepper, CheckpointError> {
    match d.u8()? {
        STEPPER_FOCUS => Ok(SavedStepper::Focus(decode_focus_core(d)?)),
        STEPPER_ROUNDROBIN => Ok(SavedStepper::RoundRobin(decode_focus_core(d)?)),
        STEPPER_SUM1 => Ok(SavedStepper::Sum1(decode_focus_core(d)?)),
        STEPPER_IREFINE => {
            let k = d.count(8)?;
            Ok(SavedStepper::IRefine(SavedIRefine {
                estimates: d.column(k)?,
                eps: d.column(k)?,
                deltas: d.column(k)?,
                active: d.column(k)?,
                samples: d.column(k)?,
                cumulative: d.column(k)?,
                phase: d.u64()?,
                truncated: d.flag()?,
            }))
        }
        STEPPER_SCAN => {
            let k = d.count(8)?;
            Ok(SavedStepper::Scan(SavedScan {
                estimates: d.column(k)?,
                samples: d.column(k)?,
                next_group: d.u64()?,
            }))
        }
        STEPPER_SUM2 => {
            let k = d.count(16)?;
            Ok(SavedStepper::Sum2(SavedSum2 {
                estimates: d.column(k)?,
                active: d.column(k)?,
                frozen_eps: d.column(k)?,
                samples: d.column(k)?,
                m: d.u64()?,
                truncated: d.flag()?,
            }))
        }
        STEPPER_PARTIAL => {
            let core = decode_focus_core(d)?;
            let emitted = d.vec()?;
            let np = d.count(8)?;
            let mut pending = Vec::with_capacity(np);
            for _ in 0..np {
                let group = d.u64()?;
                pending.push(PartialEmission {
                    group: usize::try_from(group)
                        .map_err(|_| bad(format!("pending group index {group} overflows")))?,
                    label: d.str()?,
                    estimate: d.f64_bits()?,
                    round: d.u64()?,
                    total_samples_so_far: d.u64()?,
                });
            }
            Ok(SavedStepper::Partial(SavedPartial {
                core,
                emitted,
                pending,
            }))
        }
        other => Err(bad(format!("bad stepper tag {other}"))),
    }
}

impl SessionCheckpoint {
    /// Serializes the checkpoint to its versioned binary form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.bytes(&CHECKPOINT_MAGIC);
        e.u32(CHECKPOINT_VERSION);
        encode_spec(&mut e, &self.spec);
        encode_stepper(&mut e, &self.stepper);
        e.count(self.samplers.len());
        for (drawn, entries) in &self.samplers {
            e.u64(*drawn);
            e.vec(entries);
        }
        e.column(&self.rng);
        // u64 nanoseconds cover ~584 years of remaining budget; clamp
        // rather than panic on absurd durations.
        let nanos = |dur: Duration| u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        e.opt(&self.remaining.map(nanos));
        e.vec(&self.prev_active);
        // 0 = no terminal yet; `Running` is never terminal and shares it.
        e.u8(self.terminal.map_or(0, StepOutcome::code));
        e.flag(self.budget_tripped);
        e.flag(self.delivered_terminal);
        e.into_bytes()
    }

    /// Parses a checkpoint from bytes produced by
    /// [`SessionCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] on truncated, corrupt, oversized,
    /// trailing-garbage, or unknown-version payloads — never a panic.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() > MAX_CHECKPOINT_BYTES {
            return Err(bad(format!(
                "checkpoint of {} bytes exceeds the {MAX_CHECKPOINT_BYTES}-byte cap",
                buf.len()
            )));
        }
        let mut d = Dec::new(buf);
        if d.bytes(4)? != CHECKPOINT_MAGIC {
            return Err(bad("bad magic (not a rapidviz checkpoint)"));
        }
        let version = d.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let spec = decode_spec(&mut d)?;
        let stepper = decode_stepper(&mut d)?;
        let ns = d.count(12)?;
        let mut samplers = Vec::with_capacity(ns);
        for _ in 0..ns {
            let drawn = d.u64()?;
            samplers.push((drawn, d.vec()?));
        }
        let rng = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let remaining = d.opt::<u64>()?.map(Duration::from_nanos);
        let checkpoint = Self {
            spec,
            stepper,
            samplers,
            rng,
            remaining,
            prev_active: d.vec()?,
            terminal: match d.u8()? {
                0 => None,
                code => Some(
                    StepOutcome::from_code(code)
                        .ok_or_else(|| bad(format!("bad terminal byte {code}")))?,
                ),
            },
            budget_tripped: d.flag()?,
            delivered_terminal: d.flag()?,
        };
        d.finish()?;
        Ok(checkpoint)
    }

    /// Approximate resident bytes of this checkpoint — what a parking
    /// registry charges against its memory cap. Computed structurally
    /// (no serialization pass); tracks the serialized size closely since
    /// the format has no compression.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let sampler_bytes: usize = self
            .samplers
            .iter()
            .map(|(_, entries)| 8 + 4 + entries.len() * 16)
            .sum();
        let spec_bytes: usize = self
            .spec
            .group_by
            .iter()
            .map(|s| 4 + s.len())
            .sum::<usize>()
            + self.spec.measure.len()
            + 64;
        let stepper_bytes = match &self.stepper {
            SavedStepper::Focus(c) | SavedStepper::RoundRobin(c) | SavedStepper::Sum1(c) => {
                c.estimates.len() * 42
            }
            SavedStepper::IRefine(s) => s.estimates.len() * 58,
            SavedStepper::Scan(s) => s.estimates.len() * 16,
            SavedStepper::Sum2(s) => s.estimates.len() * 42,
            SavedStepper::Partial(p) => {
                p.core.estimates.len() * 43
                    + p.pending
                        .iter()
                        .map(|em| 36 + em.label.len())
                        .sum::<usize>()
            }
        };
        64 + spec_bytes + stepper_bytes + sampler_bytes + self.prev_active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz_needletail::codec::fnv1a64;

    fn rich_spec() -> QuerySpec {
        QuerySpec {
            group_by: vec!["airline".into(), "origin".into()],
            measure: "delay".into(),
            aggregate: Aggregate::Avg,
            algorithm: AlgorithmChoice::IRefine,
            predicate: Predicate::And(
                Box::new(Predicate::Or(
                    Box::new(Predicate::eq("origin", "BOS")),
                    Box::new(Predicate::is_in("airline", ["AA", "JB"])),
                )),
                Box::new(Predicate::Not(Box::new(Predicate::Range {
                    column: "delay".into(),
                    lo: Some(0.5),
                    hi: None,
                }))),
            ),
            delta: 0.05,
            resolution_fraction: Some(0.01),
            bound: Some(100.0),
            samples_per_round: Some(4),
            max_samples: Some(10_000),
        }
    }

    fn focus_core() -> SavedFocusCore {
        SavedFocusCore {
            estimates: vec![(10, 1.5), (20, 2.5), (0, 0.0)],
            active: vec![true, false, true],
            exhausted: vec![false, false, true],
            frozen_eps: vec![0.1, 0.2, f64::INFINITY],
            samples: vec![10, 20, 0],
            m: 21,
            truncated: false,
        }
    }

    fn every_stepper() -> Vec<SavedStepper> {
        vec![
            SavedStepper::Focus(focus_core()),
            SavedStepper::RoundRobin(focus_core()),
            SavedStepper::Sum1(focus_core()),
            SavedStepper::IRefine(SavedIRefine {
                estimates: vec![1.0, 2.0],
                eps: vec![0.5, 0.25],
                deltas: vec![0.01, 0.02],
                active: vec![true, false],
                samples: vec![8, 16],
                cumulative: vec![(8, 9.5), (16, 31.0)],
                phase: 3,
                truncated: true,
            }),
            SavedStepper::Scan(SavedScan {
                estimates: vec![4.0, 0.0],
                samples: vec![100, 0],
                next_group: 1,
            }),
            SavedStepper::Sum2(SavedSum2 {
                estimates: vec![(5, 0.3), (7, 0.6)],
                active: vec![false, true],
                frozen_eps: vec![0.05, f64::INFINITY],
                samples: vec![5, 7],
                m: 8,
                truncated: false,
            }),
            SavedStepper::Partial(SavedPartial {
                core: focus_core(),
                emitted: vec![true, false, false],
                pending: vec![PartialEmission {
                    group: 1,
                    label: "JB".into(),
                    estimate: 2.5,
                    round: 20,
                    total_samples_so_far: 30,
                }],
            }),
        ]
    }

    fn checkpoint_with(stepper: SavedStepper) -> SessionCheckpoint {
        SessionCheckpoint {
            spec: rich_spec(),
            stepper,
            samplers: vec![(3, vec![(0, 7), (2, 5)]), (0, vec![]), (1, vec![(4, 4)])],
            rng: [1, 2, 3, u64::MAX],
            remaining: Some(Duration::from_millis(1500)),
            prev_active: vec![true, true, false],
            terminal: None,
            budget_tripped: false,
            delivered_terminal: false,
        }
    }

    #[test]
    fn round_trips_every_stepper_kind() {
        for stepper in every_stepper() {
            let ck = checkpoint_with(stepper);
            let bytes = ck.to_bytes();
            let back = SessionCheckpoint::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("decode failed for {}: {e}", ck.stepper.kind()));
            assert_eq!(back, ck, "round-trip mismatch for {}", ck.stepper.kind());
        }
    }

    /// The all-`None`, already-terminal checkpoint: every optional field
    /// absent, every vector empty.
    fn edge_checkpoint() -> SessionCheckpoint {
        let mut ck = checkpoint_with(SavedStepper::Scan(SavedScan {
            estimates: vec![],
            samples: vec![],
            next_group: 0,
        }));
        ck.spec.group_by = vec!["g".into()];
        ck.spec.aggregate = Aggregate::Count;
        ck.spec.algorithm = AlgorithmChoice::IFocus;
        ck.spec.predicate = Predicate::True;
        ck.spec.resolution_fraction = None;
        ck.spec.bound = None;
        ck.spec.samples_per_round = None;
        ck.spec.max_samples = None;
        ck.samplers = vec![];
        ck.remaining = None;
        ck.prev_active = vec![];
        ck.terminal = Some(StepOutcome::BudgetExhausted);
        ck.budget_tripped = true;
        ck.delivered_terminal = true;
        ck
    }

    /// `(len, fnv1a64)` of every fixture's serialized form, pinned from the
    /// bytes the version-1 encoder emitted before the codecs were unified:
    /// any layout drift fails here before it strands a parked session.
    #[test]
    fn golden_bytes_are_pinned() {
        let mut fixtures: Vec<_> = every_stepper().into_iter().map(checkpoint_with).collect();
        fixtures.push(edge_checkpoint());
        let got: Vec<(usize, u64)> = fixtures
            .iter()
            .map(|ck| ck.to_bytes())
            .map(|bytes| (bytes.len(), fnv1a64(&bytes)))
            .collect();
        // Focus, RoundRobin, Sum1, IRefine, Scan, Sum2, Partial, edge.
        let golden: [(usize, u64); 8] = [
            (415, 0xc8dd_d301_d654_dab1),
            (415, 0x1310_fde8_1c23_19d6),
            (415, 0x3d95_c371_525a_e3f3),
            (411, 0x3bd5_2521_0127_aeb9),
            (344, 0x4c79_7c61_e6fe_763d),
            (379, 0xfd33_370c_13b6_c466),
            (464, 0xfa19_c348_819c_5763),
            (98, 0x8a1e_d888_1271_e498),
        ];
        assert_eq!(got, golden, "serialized checkpoint bytes drifted");
    }

    #[test]
    fn round_trips_edge_fields() {
        let ck = edge_checkpoint();
        let back = SessionCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back, ck);
        let converged = SessionCheckpoint {
            terminal: Some(StepOutcome::Converged),
            ..ck
        };
        let back = SessionCheckpoint::from_bytes(&converged.to_bytes()).unwrap();
        assert_eq!(back, converged);
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = checkpoint_with(SavedStepper::Focus(focus_core())).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SessionCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_handled() {
        // Flipping any one byte must never panic; it may still decode (a
        // flipped estimate bit is valid data) but usually errors.
        let bytes = checkpoint_with(SavedStepper::Partial(SavedPartial {
            core: focus_core(),
            emitted: vec![false, true, false],
            pending: vec![],
        }))
        .to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = SessionCheckpoint::from_bytes(&corrupt);
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_trailing_bytes() {
        let good = checkpoint_with(SavedStepper::Focus(focus_core())).to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = SessionCheckpoint::from_bytes(&bad_magic).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("magic")));

        let mut bad_version = good.clone();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&bad_version).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("version 99")));

        let mut trailing = good.clone();
        trailing.push(0);
        let err = SessionCheckpoint::from_bytes(&trailing).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("trailing")));

        assert!(SessionCheckpoint::from_bytes(&good).is_ok());
    }

    #[test]
    fn rejects_oversized_payloads_without_reading_them() {
        let huge = vec![0u8; MAX_CHECKPOINT_BYTES + 1];
        let err = SessionCheckpoint::from_bytes(&huge).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("cap")));
    }

    #[test]
    fn rejects_out_of_range_spec_numbers() {
        // Corrupt delta to NaN by locating its unique bit pattern.
        let ck = checkpoint_with(SavedStepper::Focus(focus_core()));
        let bytes = ck.to_bytes();
        let needle = 0.05f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("delta bits present");
        let mut corrupt = bytes.clone();
        corrupt[pos..pos + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Decode(m) if m.contains("delta")),
            "expected a delta range error, got {err:?}"
        );

        // Corrupt the bound (100.0) to a negative value.
        let needle = 100.0f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("bound bits present");
        let mut corrupt = bytes.clone();
        corrupt[pos..pos + 8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Decode(m) if m.contains("not positive")),
            "expected a bound range error, got {err:?}"
        );
    }

    #[test]
    fn corrupt_counts_cannot_drive_huge_allocations() {
        // Overwrite the group-by count (first u32 after the 8-byte header)
        // with u32::MAX; the decoder must reject it against the remaining
        // payload instead of allocating.
        let mut bytes = checkpoint_with(SavedStepper::Focus(focus_core())).to_bytes();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Decode(m) if m.contains("exceeds remaining")),
            "expected a count-cap error, got {err:?}"
        );
    }

    #[test]
    fn approx_bytes_tracks_serialized_size() {
        for stepper in every_stepper() {
            let ck = checkpoint_with(stepper);
            let serialized = ck.to_bytes().len();
            let approx = ck.approx_bytes();
            assert!(
                approx >= serialized / 2 && approx <= serialized * 4 + 256,
                "approx {approx} far from serialized {serialized} for {}",
                ck.stepper.kind()
            );
        }
    }

    #[test]
    fn error_display_and_source_are_wired() {
        let decode = CheckpointError::Decode("boom".into());
        assert!(decode.to_string().contains("boom"));
        assert!(std::error::Error::source(&decode).is_none());
        let restore = CheckpointError::from(RestoreError::Unsupported);
        assert!(std::error::Error::source(&restore).is_some());
        assert!(CheckpointError::OpaqueRng.to_string().contains("StdRng"));
    }
}
