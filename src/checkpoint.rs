//! Durable session checkpoints: the on-disk / in-registry serialization of
//! a paused [`QuerySession`](crate::QuerySession).
//!
//! A [`SessionCheckpoint`] is a **replay recipe**, not a state dump. A
//! fixed seed reproduces a session's sample stream `to_bits`-exactly, so
//! everything a resumed session needs to continue the round stream
//! bit-identically is:
//!
//! * the **query spec** ([`QuerySpec`]): group-by columns, measure,
//!   aggregate, algorithm, predicate, `δ`, resolution, bound override, and
//!   budgets — enough to re-plan the query against the engine from scratch;
//! * the session RNG's xoshiro256** state words **as they were before
//!   planning drew the bootstrap samples**;
//! * the number of algorithm **steps** taken since;
//! * budget bookkeeping: the **remaining** time-to-deadline (re-anchored at
//!   the resuming clock's `now()`, so wall time spent parked does not count
//!   against the query) and the terminal outcome if one was already reached;
//! * a **replay checksum** — the group count and the total samples drawn —
//!   that the replayed session must land on, or the resume is refused.
//!
//! [`QuerySession::resume_with_clock`](crate::QuerySession::resume_with_clock)
//! re-plans the spec, reseeds the RNG, replays the bootstrap and `steps`
//! rounds, and checks the checksum. A checkpoint is therefore the same few
//! hundred bytes after round 1 and after round 10 000, and capturing one
//! costs a spec clone; the trade is that a resume costs the session's own
//! sampling up to the pause (never more than the embedded query itself,
//! and bounded by the spec's `max_samples` when set) instead of a state
//! copy. Replayed draws are real retrievals and are charged to the engine's
//! metrics as such.
//!
//! **Excluded by design:** every piece of algorithm and sampler state
//! (estimators, activity flags, ε bookkeeping, permutation keys —
//! all reproduced by the replay) and the engine's planning caches
//! (group plans, composite indexes). Resume re-plans
//! through the normal path, so a checkpoint taken on one server restores
//! correctly on a restarted server with cold caches — only latency
//! differs, never results. The checksum detects a *differently shaped or
//! sized* replay; it is not a table-identity stamp, and a resume against
//! different data that happens to draw the same number of samples is not
//! detected.
//!
//! # Binary format
//!
//! A schema over [`rapidviz_needletail::codec`], which defines the
//! primitives (`T?` below is its flag-prefixed option) and the hardening
//! rules every decode obeys; failures are [`CheckpointError::Decode`].
//!
//! ```text
//! magic    "RVCK"                                  4 bytes
//! version  u32 (currently 2)
//! spec     group_by, measure, aggregate u8, algorithm u8,
//!          predicate (tagged recursive), delta, resolution?, bound?,
//!          samples_per_round?, max_samples?
//! rng      4 × u64 xoshiro256** state words (pre-planning)
//! replay   steps u64, groups u64, total_samples u64
//! budgets  remaining-deadline nanos?,
//!          terminal u8 (0 none / 1 converged / 2 budget),
//!          budget_tripped u8, delivered_terminal u8
//! ```
//!
//! On top of the codec's rules this schema caps the whole payload
//! ([`MAX_CHECKPOINT_BYTES`]) and the predicate nesting depth, and
//! range-checks the numeric spec fields (`δ ∈ (0, 1)`, positive bounds,
//! non-zero batch sizes) so a corrupt checkpoint is rejected here rather
//! than tripping an assertion deep in planning. Hostile bytes that decode
//! can only name a recipe; it either replays consistently or is refused
//! with [`CheckpointError::Mismatch`].
//!
//! # Versioning
//!
//! The version integer gates the whole payload: decoders reject any version
//! they do not know ([`CheckpointError::Decode`]) — including version 1,
//! the state dump this recipe replaced — and any layout change, even
//! additive, bumps it. Checkpoints are short-lived (they live in the
//! serving layer's parking registry under a TTL), so no cross-version
//! migration is attempted.
//!
//! A change to what a recipe replays does not bump the version; the replay
//! checksum fails it closed instead. `COUNT` once sampled §6.3.2's size
//! estimates and is now read from the plan without drawing, so a v2 recipe
//! of a `COUNT` session written while it sampled (a non-zero sample count)
//! no longer replays: [`QuerySession::resume`](crate::QuerySession::resume)
//! refuses it with [`CheckpointError::Mismatch`], and the server answers a
//! `RESUME` of such a token with an error frame.

use rapidviz_core::StepOutcome;
use rapidviz_needletail::codec::{CodecError, Dec, Enc};
use rapidviz_needletail::{EngineError, Predicate, Value};
use std::time::Duration;

/// First four bytes of every serialized checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RVCK";

/// Current (and only accepted) serialization version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Upper bound accepted by [`SessionCheckpoint::from_bytes`]. Generously
/// above any real recipe (the only unbounded term is the predicate's
/// `IN` lists), while keeping a corrupt length from asking the server to
/// buffer gigabytes.
pub const MAX_CHECKPOINT_BYTES: usize = 1024 * 1024;

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
    /// `COUNT`, read from the plan: the index knows each group's size, so
    /// estimates are the exact **normalized counts** `s_i ∈ [0, 1]` (each
    /// group's rows under the filter over the relation's rows; multiply by
    /// the relation size for absolute counts), no sample is drawn, and the
    /// first round certifies every group. Equal counts certify as a tie,
    /// not an order.
    Count = 2,
}

/// Which ordering algorithm drives an `AVG` query. `SUM` has a dedicated
/// algorithm (4), `COUNT` is read from the index, and both reject an
/// override. The discriminant is the checkpoint byte.
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

/// A paused session, ready to serialize: the recipe that replays it. See
/// the [module docs](self) for what is captured and what the replay
/// reproduces instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The query, re-planned verbatim on resume.
    pub spec: QuerySpec,
    /// xoshiro256** state words of the session RNG as handed to
    /// [`crate::VizQuery::start`], before planning drew from it.
    pub rng: [u64; 4],
    /// Algorithm rounds taken since the bootstrap (rounds a session budget
    /// pre-empted are not counted: they never reached the algorithm).
    pub steps: u64,
    /// Replay checksum: the planned query's group count.
    pub groups: u64,
    /// Replay checksum: total samples drawn after `steps` rounds.
    pub total_samples: u64,
    /// Time left until the session's deadline when the checkpoint was
    /// taken; `None` when no wall-clock budget was configured. Resume
    /// re-anchors this at the new clock's `now()`.
    pub remaining: Option<Duration>,
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
    /// The byte payload is truncated, corrupt, oversized, or of an unknown
    /// version.
    Decode(String),
    /// Re-planning the embedded query failed on resume (schema drift: a
    /// column the original query used no longer exists, say).
    Engine(EngineError),
    /// The recipe does not replay on this engine: the re-planned query
    /// has a different group count, the run ends before `steps` rounds,
    /// or the replay lands on a different sample count or outcome than
    /// recorded (data drift between checkpoint and resume, or a corrupt
    /// recipe).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::OpaqueRng => {
                write!(f, "session RNG is not the checkpointable StdRng")
            }
            CheckpointError::Decode(msg) => write!(f, "checkpoint decode error: {msg}"),
            CheckpointError::Engine(e) => write!(f, "resume re-planning failed: {e}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint does not replay: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CheckpointError {
    fn from(e: EngineError) -> Self {
        CheckpointError::Engine(e)
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

impl SessionCheckpoint {
    /// Serializes the checkpoint to its versioned binary form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.bytes(&CHECKPOINT_MAGIC);
        e.u32(CHECKPOINT_VERSION);
        encode_spec(&mut e, &self.spec);
        e.column(&self.rng);
        e.u64(self.steps);
        e.u64(self.groups);
        e.u64(self.total_samples);
        // u64 nanoseconds cover ~584 years of remaining budget; clamp
        // rather than panic on absurd durations.
        let nanos = |dur: Duration| u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        e.opt(&self.remaining.map(nanos));
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
        let checkpoint = Self {
            spec: decode_spec(&mut d)?,
            rng: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
            steps: d.u64()?,
            groups: d.u64()?,
            total_samples: d.u64()?,
            remaining: d.opt::<u64>()?.map(Duration::from_nanos),
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

    /// Bytes this checkpoint is charged against a parking registry's
    /// memory cap: its serialized length. A recipe is a few hundred bytes
    /// whatever the session has drawn, so this is one small encode.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.to_bytes().len()
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

    /// One recipe per session-reachable engine kind — the four `AVG`
    /// algorithms, `SUM` (Algorithm 4) and the exact `COUNT`.
    fn every_kind() -> Vec<SessionCheckpoint> {
        use AlgorithmChoice::{ExactScan, IFocus, IRefine, RoundRobin};
        [
            (Aggregate::Avg, IFocus),
            (Aggregate::Avg, IRefine),
            (Aggregate::Avg, RoundRobin),
            (Aggregate::Avg, ExactScan),
            (Aggregate::Sum, IFocus),
            (Aggregate::Count, IFocus),
        ]
        .into_iter()
        .map(|(aggregate, algorithm)| SessionCheckpoint {
            spec: QuerySpec {
                aggregate,
                algorithm,
                ..rich_spec()
            },
            rng: [1, 2, 3, u64::MAX],
            steps: 21,
            groups: 3,
            total_samples: 30,
            remaining: Some(Duration::from_millis(1500)),
            terminal: None,
            budget_tripped: false,
            delivered_terminal: false,
        })
        .collect()
    }

    fn sample_checkpoint() -> SessionCheckpoint {
        every_kind().swap_remove(0)
    }

    #[test]
    fn round_trips_every_stepper_kind() {
        for ck in every_kind() {
            let back = SessionCheckpoint::from_bytes(&ck.to_bytes())
                .unwrap_or_else(|e| panic!("decode failed for {:?}: {e}", ck.spec.aggregate));
            assert_eq!(back, ck);
        }
    }

    /// The all-`None`, already-terminal checkpoint: every optional field
    /// absent, nothing stepped.
    fn edge_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            spec: QuerySpec {
                group_by: vec!["g".into()],
                measure: "delay".into(),
                aggregate: Aggregate::Count,
                algorithm: AlgorithmChoice::IFocus,
                predicate: Predicate::True,
                delta: 0.05,
                resolution_fraction: None,
                bound: None,
                samples_per_round: None,
                max_samples: None,
            },
            rng: [1, 2, 3, u64::MAX],
            steps: 0,
            groups: 0,
            total_samples: 0,
            remaining: None,
            terminal: Some(StepOutcome::BudgetExhausted),
            budget_tripped: true,
            delivered_terminal: true,
        }
    }

    /// `(len, fnv1a64)` of every fixture's serialized form, pinned from the
    /// bytes the version-2 encoder emits: any layout drift fails here
    /// before it strands a parked session.
    #[test]
    fn golden_bytes_are_pinned() {
        let mut fixtures = every_kind();
        fixtures.push(edge_checkpoint());
        let got: Vec<(usize, u64)> = fixtures
            .iter()
            .map(|ck| ck.to_bytes())
            .map(|bytes| (bytes.len(), fnv1a64(&bytes)))
            .collect();
        // AVG × {IFocus, IRefine, RoundRobin, ExactScan}, SUM, COUNT, edge.
        let golden: [(usize, u64); 7] = [
            (228, 0x8a91_eaee_1bb8_ddc5),
            (228, 0x06ef_c8a3_8633_b56e),
            (228, 0x4d8c_41d8_d5f7_10c3),
            (228, 0x9a54_7ca4_765f_0044),
            (228, 0x8d39_bfa4_cd97_4d00),
            (228, 0xd210_56bd_df47_9247),
            (101, 0x5bfd_9d83_1f49_1931),
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
        let bytes = sample_checkpoint().to_bytes();
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
        // flipped seed bit is valid data) but usually errors.
        let bytes = sample_checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = SessionCheckpoint::from_bytes(&corrupt);
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_trailing_bytes() {
        let good = sample_checkpoint().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = SessionCheckpoint::from_bytes(&bad_magic).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("magic")));

        let mut bad_version = good.clone();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&bad_version).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("version 99")));

        // Version 1 (the retired state dump) is refused by the same gate,
        // before a byte of its payload is looked at.
        let mut v1 = good.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&v1).unwrap_err();
        assert!(matches!(&err, CheckpointError::Decode(m) if m.contains("version 1 ")));

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
        let ck = sample_checkpoint();
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
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = SessionCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Decode(m) if m.contains("exceeds remaining")),
            "expected a count-cap error, got {err:?}"
        );
    }

    #[test]
    fn approx_bytes_tracks_serialized_size() {
        for ck in every_kind() {
            assert_eq!(ck.approx_bytes(), ck.to_bytes().len());
        }
    }

    #[test]
    fn error_display_and_source_are_wired() {
        let decode = CheckpointError::Decode("boom".into());
        assert!(decode.to_string().contains("boom"));
        assert!(std::error::Error::source(&decode).is_none());
        let engine = CheckpointError::from(EngineError::NoSuchColumn("c".into()));
        assert!(std::error::Error::source(&engine).is_some());
        let mismatch = CheckpointError::Mismatch("3 groups, recipe says 4".into());
        assert!(mismatch.to_string().contains("does not replay"));
        assert!(CheckpointError::OpaqueRng.to_string().contains("StdRng"));
    }
}
