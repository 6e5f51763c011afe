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
//! Little-endian throughout; `f64`s travel as IEEE-754 bit patterns so the
//! round-trip is exact. Strings and vectors are `u32`-length-prefixed.
//! `Option<T>` is a `u8` presence flag (`0`/`1`) followed by the payload.
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
//! Decoding is hardened the same way the wire protocol is: truncated,
//! corrupt, oversized, or wrong-version bytes produce a structured
//! [`CheckpointError`], never a panic, and element counts are sanity-capped
//! against the remaining payload so corrupt lengths cannot drive huge
//! allocations. Numeric spec fields are range-checked at decode time
//! (`δ ∈ (0, 1)`, positive bounds, non-zero batch sizes) so a corrupt
//! checkpoint is rejected here rather than tripping an assertion deep in
//! planning.
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
/// (the serialized form carries it) and re-exported through
/// [`crate::query`], where the builder consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregate {
    /// `AVG(measure)` — Problem 1 / Algorithm 1.
    #[default]
    Avg,
    /// `SUM(measure)` with known group sizes — Algorithm 4.
    Sum,
    /// `COUNT` with unknown group sizes — the §6.3.2 reduction of
    /// Algorithm 5 to the size-estimate stream. Estimates are **normalized
    /// counts** `s_i ∈ [0, 1]` (each group's fraction of the relation);
    /// multiply by the relation size for absolute counts.
    Count,
}

/// Which ordering algorithm drives an `AVG` query. `SUM`/`COUNT` queries
/// have dedicated algorithms (4 and 5) and reject an override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmChoice {
    /// IFOCUS (Algorithm 1) — the paper's primary contribution and the
    /// default.
    #[default]
    IFocus,
    /// IREFINE (Algorithm 3), the interval-halving alternative.
    IRefine,
    /// The ROUNDROBIN baseline (conventional stratified sampling with the
    /// same stopping guarantee).
    RoundRobin,
    /// The exhaustive SCAN baseline: exact answer, maximal cost; sessions
    /// stream one exact group per round.
    ExactScan,
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

// ---------------------------------------------------------------------
// Byte-level encode/decode (the wire protocol's Enc/Dec idiom).
// ---------------------------------------------------------------------

#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        // Checkpoints are taken on the serving path and must never abort;
        // clamp absurd lengths (producing a decode error on resume)
        // instead of panicking, exactly like the wire encoder.
        debug_assert!(s.len() <= u32::MAX as usize, "checkpoint string too large");
        let len = u32::try_from(s.len()).unwrap_or(u32::MAX);
        self.u32(len);
        self.0.extend_from_slice(&s.as_bytes()[..len as usize]);
    }
    fn len_u32(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "checkpoint count too large");
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.flag(true);
                self.f64_bits(x);
            }
            None => self.flag(false),
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.flag(true);
                self.u64(x);
            }
            None => self.flag(false),
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn err(msg: impl Into<String>) -> CheckpointError {
        CheckpointError::Decode(msg.into())
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::err("truncated checkpoint"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let Ok(bytes) = <[u8; 4]>::try_from(self.take(4)?) else {
            return Err(Self::err("truncated checkpoint"));
        };
        Ok(u32::from_le_bytes(bytes))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let Ok(bytes) = <[u8; 8]>::try_from(self.take(8)?) else {
            return Err(Self::err("truncated checkpoint"));
        };
        Ok(u64::from_le_bytes(bytes))
    }
    fn f64_bits(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A strict boolean: anything but 0/1 means corruption.
    fn flag(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Self::err(format!("bad boolean byte {other}"))),
        }
    }
    /// An element count, sanity-capped against the remaining payload so a
    /// corrupt count cannot drive a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(Self::err(format!(
                "count {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Self::err("invalid UTF-8 in string"))
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        Ok(if self.flag()? {
            Some(self.f64_bits()?)
        } else {
            None
        })
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::err(format!(
                "{} trailing bytes after checkpoint",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Component encoders/decoders.
// ---------------------------------------------------------------------

fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int(i) => {
            e.u8(0);
            e.u64(*i as u64);
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
        0 => Ok(Value::Int(d.u64()? as i64)),
        1 => Ok(Value::Float(d.f64_bits()?)),
        2 => Ok(Value::Str(d.str()?)),
        other => Err(Dec::err(format!("bad value tag {other}"))),
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
            e.len_u32(vals.len());
            for v in vals {
                encode_value(e, v);
            }
        }
        Predicate::Range { column, lo, hi } => {
            e.u8(3);
            e.str(column);
            e.opt_f64(*lo);
            e.opt_f64(*hi);
        }
        Predicate::And(a, b) => {
            e.u8(4);
            encode_predicate(e, a);
            encode_predicate(e, b);
        }
        Predicate::Or(a, b) => {
            e.u8(5);
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
        return Err(Dec::err("predicate nests too deeply"));
    }
    match d.u8()? {
        0 => Ok(Predicate::True),
        1 => {
            let col = d.str()?;
            Ok(Predicate::Eq(col, decode_value(d)?))
        }
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
            lo: d.opt_f64()?,
            hi: d.opt_f64()?,
        }),
        4 => {
            let a = decode_predicate(d, depth + 1)?;
            let b = decode_predicate(d, depth + 1)?;
            Ok(Predicate::And(Box::new(a), Box::new(b)))
        }
        5 => {
            let a = decode_predicate(d, depth + 1)?;
            let b = decode_predicate(d, depth + 1)?;
            Ok(Predicate::Or(Box::new(a), Box::new(b)))
        }
        6 => Ok(Predicate::Not(Box::new(decode_predicate(d, depth + 1)?))),
        other => Err(Dec::err(format!("bad predicate tag {other}"))),
    }
}

fn aggregate_to_u8(a: Aggregate) -> u8 {
    match a {
        Aggregate::Avg => 0,
        Aggregate::Sum => 1,
        Aggregate::Count => 2,
    }
}

fn aggregate_from_u8(v: u8) -> Result<Aggregate, CheckpointError> {
    match v {
        0 => Ok(Aggregate::Avg),
        1 => Ok(Aggregate::Sum),
        2 => Ok(Aggregate::Count),
        other => Err(Dec::err(format!("bad aggregate byte {other}"))),
    }
}

fn algorithm_to_u8(a: AlgorithmChoice) -> u8 {
    match a {
        AlgorithmChoice::IFocus => 0,
        AlgorithmChoice::IRefine => 1,
        AlgorithmChoice::RoundRobin => 2,
        AlgorithmChoice::ExactScan => 3,
    }
}

fn algorithm_from_u8(v: u8) -> Result<AlgorithmChoice, CheckpointError> {
    match v {
        0 => Ok(AlgorithmChoice::IFocus),
        1 => Ok(AlgorithmChoice::IRefine),
        2 => Ok(AlgorithmChoice::RoundRobin),
        3 => Ok(AlgorithmChoice::ExactScan),
        other => Err(Dec::err(format!("bad algorithm byte {other}"))),
    }
}

fn encode_spec(e: &mut Enc, spec: &QuerySpec) {
    e.len_u32(spec.group_by.len());
    for col in &spec.group_by {
        e.str(col);
    }
    e.str(&spec.measure);
    e.u8(aggregate_to_u8(spec.aggregate));
    e.u8(algorithm_to_u8(spec.algorithm));
    encode_predicate(e, &spec.predicate);
    e.f64_bits(spec.delta);
    e.opt_f64(spec.resolution_fraction);
    e.opt_f64(spec.bound);
    e.opt_u64(spec.samples_per_round);
    e.opt_u64(spec.max_samples);
}

fn decode_spec(d: &mut Dec<'_>) -> Result<QuerySpec, CheckpointError> {
    let n = d.count(4)?;
    let mut group_by = Vec::with_capacity(n);
    for _ in 0..n {
        group_by.push(d.str()?);
    }
    let measure = d.str()?;
    let aggregate = aggregate_from_u8(d.u8()?)?;
    let algorithm = algorithm_from_u8(d.u8()?)?;
    let predicate = decode_predicate(d, 0)?;
    let delta = d.f64_bits()?;
    // Range-check the numeric knobs here so a corrupt checkpoint is
    // rejected with a structured error instead of tripping a planning
    // assertion on resume.
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(Dec::err(format!("delta {delta} outside (0, 1)")));
    }
    let resolution_fraction = d.opt_f64()?;
    if let Some(r) = resolution_fraction {
        if !(r.is_finite() && r > 0.0) {
            return Err(Dec::err(format!("resolution fraction {r} not positive")));
        }
    }
    let bound = d.opt_f64()?;
    if let Some(c) = bound {
        if !(c.is_finite() && c > 0.0) {
            return Err(Dec::err(format!("bound {c} not positive")));
        }
    }
    let samples_per_round = d.opt_u64()?;
    if samples_per_round == Some(0) {
        return Err(Dec::err("samples_per_round is zero"));
    }
    let max_samples = d.opt_u64()?;
    if max_samples == Some(0) {
        return Err(Dec::err("max_samples is zero"));
    }
    Ok(QuerySpec {
        group_by,
        measure,
        aggregate,
        algorithm,
        predicate,
        delta,
        resolution_fraction,
        bound,
        samples_per_round,
        max_samples,
    })
}

fn encode_focus_core(e: &mut Enc, c: &SavedFocusCore) {
    e.len_u32(c.estimates.len());
    for &(count, mean) in &c.estimates {
        e.u64(count);
        e.f64_bits(mean);
    }
    for &a in &c.active {
        e.flag(a);
    }
    for &x in &c.exhausted {
        e.flag(x);
    }
    for &eps in &c.frozen_eps {
        e.f64_bits(eps);
    }
    for &s in &c.samples {
        e.u64(s);
    }
    e.u64(c.m);
    e.flag(c.truncated);
}

fn decode_focus_core(d: &mut Dec<'_>) -> Result<SavedFocusCore, CheckpointError> {
    let k = d.count(16)?;
    let mut estimates = Vec::with_capacity(k);
    for _ in 0..k {
        let count = d.u64()?;
        estimates.push((count, d.f64_bits()?));
    }
    let mut active = Vec::with_capacity(k);
    for _ in 0..k {
        active.push(d.flag()?);
    }
    let mut exhausted = Vec::with_capacity(k);
    for _ in 0..k {
        exhausted.push(d.flag()?);
    }
    let mut frozen_eps = Vec::with_capacity(k);
    for _ in 0..k {
        frozen_eps.push(d.f64_bits()?);
    }
    let mut samples = Vec::with_capacity(k);
    for _ in 0..k {
        samples.push(d.u64()?);
    }
    Ok(SavedFocusCore {
        estimates,
        active,
        exhausted,
        frozen_eps,
        samples,
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
        SavedStepper::Focus(c) => {
            e.u8(STEPPER_FOCUS);
            encode_focus_core(e, c);
        }
        SavedStepper::RoundRobin(c) => {
            e.u8(STEPPER_ROUNDROBIN);
            encode_focus_core(e, c);
        }
        SavedStepper::Sum1(c) => {
            e.u8(STEPPER_SUM1);
            encode_focus_core(e, c);
        }
        SavedStepper::IRefine(s) => {
            e.u8(STEPPER_IREFINE);
            e.len_u32(s.estimates.len());
            for &x in &s.estimates {
                e.f64_bits(x);
            }
            for &x in &s.eps {
                e.f64_bits(x);
            }
            for &x in &s.deltas {
                e.f64_bits(x);
            }
            for &a in &s.active {
                e.flag(a);
            }
            for &n in &s.samples {
                e.u64(n);
            }
            for &(count, sum) in &s.cumulative {
                e.u64(count);
                e.f64_bits(sum);
            }
            e.u64(s.phase);
            e.flag(s.truncated);
        }
        SavedStepper::Scan(s) => {
            e.u8(STEPPER_SCAN);
            e.len_u32(s.estimates.len());
            for &x in &s.estimates {
                e.f64_bits(x);
            }
            for &n in &s.samples {
                e.u64(n);
            }
            e.u64(s.next_group);
        }
        SavedStepper::Sum2(s) => {
            e.u8(STEPPER_SUM2);
            e.len_u32(s.estimates.len());
            for &(count, mean) in &s.estimates {
                e.u64(count);
                e.f64_bits(mean);
            }
            for &a in &s.active {
                e.flag(a);
            }
            for &x in &s.frozen_eps {
                e.f64_bits(x);
            }
            for &n in &s.samples {
                e.u64(n);
            }
            e.u64(s.m);
            e.flag(s.truncated);
        }
        SavedStepper::Partial(p) => {
            e.u8(STEPPER_PARTIAL);
            encode_focus_core(e, &p.core);
            e.len_u32(p.emitted.len());
            for &x in &p.emitted {
                e.flag(x);
            }
            e.len_u32(p.pending.len());
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
            let mut estimates = Vec::with_capacity(k);
            for _ in 0..k {
                estimates.push(d.f64_bits()?);
            }
            let mut eps = Vec::with_capacity(k);
            for _ in 0..k {
                eps.push(d.f64_bits()?);
            }
            let mut deltas = Vec::with_capacity(k);
            for _ in 0..k {
                deltas.push(d.f64_bits()?);
            }
            let mut active = Vec::with_capacity(k);
            for _ in 0..k {
                active.push(d.flag()?);
            }
            let mut samples = Vec::with_capacity(k);
            for _ in 0..k {
                samples.push(d.u64()?);
            }
            let mut cumulative = Vec::with_capacity(k);
            for _ in 0..k {
                let count = d.u64()?;
                cumulative.push((count, d.f64_bits()?));
            }
            Ok(SavedStepper::IRefine(SavedIRefine {
                estimates,
                eps,
                deltas,
                active,
                samples,
                cumulative,
                phase: d.u64()?,
                truncated: d.flag()?,
            }))
        }
        STEPPER_SCAN => {
            let k = d.count(8)?;
            let mut estimates = Vec::with_capacity(k);
            for _ in 0..k {
                estimates.push(d.f64_bits()?);
            }
            let mut samples = Vec::with_capacity(k);
            for _ in 0..k {
                samples.push(d.u64()?);
            }
            Ok(SavedStepper::Scan(SavedScan {
                estimates,
                samples,
                next_group: d.u64()?,
            }))
        }
        STEPPER_SUM2 => {
            let k = d.count(16)?;
            let mut estimates = Vec::with_capacity(k);
            for _ in 0..k {
                let count = d.u64()?;
                estimates.push((count, d.f64_bits()?));
            }
            let mut active = Vec::with_capacity(k);
            for _ in 0..k {
                active.push(d.flag()?);
            }
            let mut frozen_eps = Vec::with_capacity(k);
            for _ in 0..k {
                frozen_eps.push(d.f64_bits()?);
            }
            let mut samples = Vec::with_capacity(k);
            for _ in 0..k {
                samples.push(d.u64()?);
            }
            Ok(SavedStepper::Sum2(SavedSum2 {
                estimates,
                active,
                frozen_eps,
                samples,
                m: d.u64()?,
                truncated: d.flag()?,
            }))
        }
        STEPPER_PARTIAL => {
            let core = decode_focus_core(d)?;
            let ke = d.count(1)?;
            let mut emitted = Vec::with_capacity(ke);
            for _ in 0..ke {
                emitted.push(d.flag()?);
            }
            let np = d.count(8)?;
            let mut pending = Vec::with_capacity(np);
            for _ in 0..np {
                let group = d.u64()?;
                pending.push(PartialEmission {
                    group: usize::try_from(group)
                        .map_err(|_| Dec::err(format!("pending group index {group} overflows")))?,
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
        other => Err(Dec::err(format!("bad stepper tag {other}"))),
    }
}

fn outcome_to_u8(o: Option<StepOutcome>) -> u8 {
    match o {
        Some(StepOutcome::Converged) => 1,
        Some(StepOutcome::BudgetExhausted) => 2,
        // `Running` is never a terminal outcome; encode it (defensively)
        // as "no terminal yet".
        None | Some(StepOutcome::Running) => 0,
    }
}

fn outcome_from_u8(v: u8) -> Result<Option<StepOutcome>, CheckpointError> {
    match v {
        0 => Ok(None),
        1 => Ok(Some(StepOutcome::Converged)),
        2 => Ok(Some(StepOutcome::BudgetExhausted)),
        other => Err(Dec::err(format!("bad terminal byte {other}"))),
    }
}

impl SessionCheckpoint {
    /// Serializes the checkpoint to its versioned binary form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.0.extend_from_slice(&CHECKPOINT_MAGIC);
        e.u32(CHECKPOINT_VERSION);
        encode_spec(&mut e, &self.spec);
        encode_stepper(&mut e, &self.stepper);
        e.len_u32(self.samplers.len());
        for (drawn, entries) in &self.samplers {
            e.u64(*drawn);
            e.len_u32(entries.len());
            for &(slot, value) in entries {
                e.u64(slot);
                e.u64(value);
            }
        }
        for &w in &self.rng {
            e.u64(w);
        }
        match self.remaining {
            Some(dur) => {
                e.flag(true);
                // u64 nanoseconds cover ~584 years of remaining budget;
                // clamp rather than panic on absurd durations.
                e.u64(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
            }
            None => e.flag(false),
        }
        e.len_u32(self.prev_active.len());
        for &a in &self.prev_active {
            e.flag(a);
        }
        e.u8(outcome_to_u8(self.terminal));
        e.flag(self.budget_tripped);
        e.flag(self.delivered_terminal);
        e.0
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
            return Err(Dec::err(format!(
                "checkpoint of {} bytes exceeds the {MAX_CHECKPOINT_BYTES}-byte cap",
                buf.len()
            )));
        }
        let mut d = Dec::new(buf);
        let magic = d.take(4)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(Dec::err("bad magic (not a rapidviz checkpoint)"));
        }
        let version = d.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(Dec::err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let spec = decode_spec(&mut d)?;
        let stepper = decode_stepper(&mut d)?;
        let ns = d.count(12)?;
        let mut samplers = Vec::with_capacity(ns);
        for _ in 0..ns {
            let drawn = d.u64()?;
            let ne = d.count(16)?;
            let mut entries = Vec::with_capacity(ne);
            for _ in 0..ne {
                let slot = d.u64()?;
                entries.push((slot, d.u64()?));
            }
            samplers.push((drawn, entries));
        }
        let rng = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let remaining = if d.flag()? {
            Some(Duration::from_nanos(d.u64()?))
        } else {
            None
        };
        let na = d.count(1)?;
        let mut prev_active = Vec::with_capacity(na);
        for _ in 0..na {
            prev_active.push(d.flag()?);
        }
        let terminal = outcome_from_u8(d.u8()?)?;
        let budget_tripped = d.flag()?;
        let delivered_terminal = d.flag()?;
        d.finish()?;
        Ok(Self {
            spec,
            stepper,
            samplers,
            rng,
            remaining,
            prev_active,
            terminal,
            budget_tripped,
            delivered_terminal,
        })
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

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
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
