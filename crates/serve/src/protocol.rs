//! The wire protocol: request-line grammar and length-prefixed frames.
//!
//! The byte-for-byte layout is specified in the [crate docs](crate); this
//! module implements it. Requests are a single ASCII line parsed into a
//! [`QueryRequest`]; every server→client message is a [`Frame`] whose
//! payload is a schema over [`rapidviz::needletail::codec`] — the codec
//! owns the primitives (bit-exact `f64`s: the wire answer must compare
//! byte-identical to an in-process run) and the decode hardening rules.
//! A round frame carries the session's own [`RoundUpdate`] and its
//! [`Snapshot`]; there is no separate wire copy of either.

use rapidviz::needletail::codec::{CodecError, Dec, Enc};
use rapidviz::needletail::Predicate;
use rapidviz::stats::Interval;
use rapidviz::{Aggregate, AlgorithmChoice, QueryAnswer, RoundUpdate, Snapshot, StepOutcome};
use std::io::{IoSlice, Read, Write};

/// Upper bound on one request line, bytes (LF included). Longer lines are
/// rejected with [`ErrorCode::Malformed`] before being buffered whole, so
/// a hostile client cannot balloon server memory with one endless line.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Upper bound on one frame payload, bytes. Far above any real frame
/// (payloads scale with group count, not table size); a length prefix
/// past it means a corrupt or hostile stream and decoding bails out
/// before allocating.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Structured error categories carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request line failed to parse (unknown command or key, bad
    /// number, missing required key, oversized line).
    Malformed = 1,
    /// The request parsed but the engine rejected the query (missing
    /// column, unsupported algorithm/aggregate combination, …).
    InvalidQuery = 2,
    /// The server is at its concurrent-client capacity.
    OverCapacity = 3,
    /// The server is shutting down and no longer admits queries.
    ShuttingDown = 4,
    /// A `RESUME` named a token the server does not hold (never issued,
    /// already resumed, or expired past the parking TTL) — the client
    /// must re-issue the query from scratch.
    NoSuchToken = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::InvalidQuery),
            3 => Some(ErrorCode::OverCapacity),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::NoSuchToken),
            _ => None,
        }
    }
}

/// A selection predicate in wire form. Values travel as strings and match
/// string-typed columns (the dashboard filter case); spell numeric
/// selections in-process instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSpec {
    /// `column = value`.
    Eq(String, String),
    /// `column IN (values)`, spelled as an OR chain in listed order (the
    /// engine canonicalizes, so operand order never splits the plan
    /// cache). An empty list matches no row.
    In(String, Vec<String>),
}

impl FilterSpec {
    /// Builds the engine predicate this spec denotes.
    #[must_use]
    pub fn to_predicate(&self) -> Predicate {
        match self {
            FilterSpec::Eq(col, val) => Predicate::eq(col.clone(), val.clone()),
            FilterSpec::In(col, vals) => {
                let mut atoms = vals.iter().map(|v| Predicate::eq(col.clone(), v.clone()));
                let first = atoms
                    .next()
                    .unwrap_or_else(|| Predicate::is_in(col.clone(), Vec::<String>::new()));
                atoms.fold(first, Predicate::or)
            }
        }
    }

    fn format(&self) -> String {
        match self {
            FilterSpec::Eq(col, val) => format!("eq:{col}:{val}"),
            FilterSpec::In(col, vals) => format!("in:{col}:{}", vals.join("|")),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.splitn(3, ':');
        let (kind, col, rest) = match (parts.next(), parts.next(), parts.next()) {
            (Some(k), Some(c), Some(r)) if !c.is_empty() && !r.is_empty() => (k, c, r),
            _ => {
                return Err(format!(
                    "filter must be eq:<col>:<val> or in:<col>:<v|v>: {s:?}"
                ))
            }
        };
        match kind {
            "eq" => Ok(FilterSpec::Eq(col.to_owned(), rest.to_owned())),
            "in" => {
                let vals: Vec<String> = rest.split('|').map(str::to_owned).collect();
                if vals.iter().any(String::is_empty) {
                    return Err(format!("empty value in filter IN list: {s:?}"));
                }
                Ok(FilterSpec::In(col.to_owned(), vals))
            }
            other => Err(format!("unknown filter kind {other:?} (want eq or in)")),
        }
    }
}

/// One parsed `QUERY` request line — everything the server needs to build
/// a [`rapidviz::VizQuery`] and admit its session.
///
/// [`QueryRequest::to_line`] and [`QueryRequest::parse_line`] round-trip,
/// so the client library formats requests through the same code the tests
/// verify against the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Group-by columns (1 or 2).
    pub group_by: Vec<String>,
    /// Aggregate function.
    pub aggregate: Aggregate,
    /// Measure column.
    pub measure: String,
    /// Ordering algorithm (AVG only; dedicated algorithms otherwise).
    pub algorithm: AlgorithmChoice,
    /// Optional selection predicate.
    pub filter: Option<FilterSpec>,
    /// Failure probability δ, if overridden.
    pub delta: Option<f64>,
    /// Resolution relaxation in percent, if any.
    pub resolution_pct: Option<f64>,
    /// Explicit value bound `c`, if any.
    pub bound: Option<f64>,
    /// Samples per round per active group, if overridden.
    pub samples_per_round: Option<u64>,
    /// Requested session sample cap (the server clamps it to its
    /// per-client budget).
    pub max_samples: Option<u64>,
    /// Session RNG seed — part of the wire contract: the same request with
    /// the same seed yields byte-identical estimates, in-process or over
    /// the wire.
    pub seed: u64,
}

impl QueryRequest {
    /// A minimal request: `AVG(measure) GROUP BY group`, default
    /// everything, seeded.
    #[must_use]
    pub fn avg(group: impl Into<String>, measure: impl Into<String>, seed: u64) -> Self {
        Self {
            group_by: vec![group.into()],
            aggregate: Aggregate::Avg,
            measure: measure.into(),
            algorithm: AlgorithmChoice::IFocus,
            filter: None,
            delta: None,
            resolution_pct: None,
            bound: None,
            samples_per_round: None,
            max_samples: None,
            seed,
        }
    }

    /// Formats the request as one `QUERY` line (LF not included).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = format!("QUERY group={}", self.group_by.join(","));
        let agg = match self.aggregate {
            Aggregate::Avg => "avg",
            Aggregate::Sum => "sum",
            Aggregate::Count => "count",
        };
        line.push_str(&format!(" agg={agg} measure={}", self.measure));
        if self.algorithm != AlgorithmChoice::IFocus {
            let algo = match self.algorithm {
                AlgorithmChoice::IFocus => unreachable!("default elided above"),
                AlgorithmChoice::IRefine => "irefine",
                AlgorithmChoice::RoundRobin => "roundrobin",
                AlgorithmChoice::ExactScan => "scan",
            };
            line.push_str(&format!(" algo={algo}"));
        }
        if let Some(f) = &self.filter {
            line.push_str(&format!(" filter={}", f.format()));
        }
        if let Some(d) = self.delta {
            line.push_str(&format!(" delta={d}"));
        }
        if let Some(r) = self.resolution_pct {
            line.push_str(&format!(" resolution_pct={r}"));
        }
        if let Some(b) = self.bound {
            line.push_str(&format!(" bound={b}"));
        }
        if let Some(s) = self.samples_per_round {
            line.push_str(&format!(" spr={s}"));
        }
        if let Some(m) = self.max_samples {
            line.push_str(&format!(" max_samples={m}"));
        }
        line.push_str(&format!(" seed={}", self.seed));
        line
    }

    /// Parses one `QUERY` request line (LF/CRLF already stripped).
    ///
    /// # Errors
    ///
    /// Returns a human-readable grammar diagnostic; the server wraps it in
    /// an [`ErrorCode::Malformed`] frame.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let rest = line
            .strip_prefix("QUERY")
            .ok_or_else(|| "request must start with QUERY".to_owned())?;
        if !rest.is_empty() && !rest.starts_with(' ') {
            return Err("QUERY must be followed by a space".to_owned());
        }
        let mut group_by: Option<Vec<String>> = None;
        let mut aggregate: Option<Aggregate> = None;
        let mut measure: Option<String> = None;
        let mut algorithm = AlgorithmChoice::IFocus;
        let mut filter = None;
        let mut delta = None;
        let mut resolution_pct = None;
        let mut bound = None;
        let mut samples_per_round = None;
        let mut max_samples = None;
        let mut seed: Option<u64> = None;
        for pair in rest.split(' ').filter(|p| !p.is_empty()) {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("expected key=value, got {pair:?}"));
            };
            if value.is_empty() {
                return Err(format!("empty value for key {key:?}"));
            }
            match key {
                "group" => {
                    let cols: Vec<String> = value.split(',').map(str::to_owned).collect();
                    if cols.iter().any(String::is_empty) || cols.is_empty() || cols.len() > 2 {
                        return Err(format!(
                            "group wants 1 or 2 non-empty comma-separated columns: {value:?}"
                        ));
                    }
                    group_by = Some(cols);
                }
                "agg" => {
                    aggregate = Some(match value {
                        "avg" => Aggregate::Avg,
                        "sum" => Aggregate::Sum,
                        "count" => Aggregate::Count,
                        other => return Err(format!("unknown agg {other:?}")),
                    });
                }
                "measure" => measure = Some(value.to_owned()),
                "algo" => {
                    algorithm = match value {
                        "ifocus" => AlgorithmChoice::IFocus,
                        "irefine" => AlgorithmChoice::IRefine,
                        "roundrobin" => AlgorithmChoice::RoundRobin,
                        "scan" => AlgorithmChoice::ExactScan,
                        other => return Err(format!("unknown algo {other:?}")),
                    };
                }
                "filter" => filter = Some(FilterSpec::parse(value)?),
                "delta" => delta = Some(parse_f64(key, value, |d| d > 0.0 && d < 1.0)?),
                "resolution_pct" => resolution_pct = Some(parse_f64(key, value, |r| r > 0.0)?),
                "bound" => bound = Some(parse_f64(key, value, |b| b > 0.0)?),
                "spr" => samples_per_round = Some(parse_u64_positive(key, value)?),
                "max_samples" => max_samples = Some(parse_u64_positive(key, value)?),
                "seed" => seed = Some(parse_u64(key, value)?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Self {
            group_by: group_by.ok_or_else(|| "missing required key group".to_owned())?,
            aggregate: aggregate.ok_or_else(|| "missing required key agg".to_owned())?,
            measure: measure.ok_or_else(|| "missing required key measure".to_owned())?,
            algorithm,
            filter,
            delta,
            resolution_pct,
            bound,
            samples_per_round,
            max_samples,
            seed: seed.ok_or_else(|| "missing required key seed".to_owned())?,
        })
    }
}

/// Parses one `RESUME` request line: `RESUME token=<u64>` (LF/CRLF
/// already stripped, token non-zero). The counterpart of
/// [`Frame::Parked`] — the token the server granted at admission names
/// the parked checkpoint to pick back up.
///
/// # Errors
///
/// Returns a human-readable grammar diagnostic; the server wraps it in an
/// [`ErrorCode::Malformed`] frame.
pub fn parse_resume_line(line: &str) -> Result<u64, String> {
    let rest = line
        .strip_prefix("RESUME")
        .ok_or_else(|| "request must start with RESUME".to_owned())?;
    if !rest.is_empty() && !rest.starts_with(' ') {
        return Err("RESUME must be followed by a space".to_owned());
    }
    let mut token: Option<u64> = None;
    for pair in rest.split(' ').filter(|p| !p.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("expected key=value, got {pair:?}"));
        };
        match key {
            "token" => {
                let t = parse_u64(key, value)?;
                if t == 0 {
                    return Err("token must be non-zero".to_owned());
                }
                token = Some(t);
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    token.ok_or_else(|| "missing required key token".to_owned())
}

fn parse_f64(key: &str, value: &str, valid: impl Fn(f64) -> bool) -> Result<f64, String> {
    let v = value
        .parse::<f64>()
        .map_err(|_| format!("{key} wants a number, got {value:?}"))?;
    if !v.is_finite() || !valid(v) {
        return Err(format!("{key} out of range: {value:?}"));
    }
    Ok(v)
}

fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{key} wants a u64, got {value:?}"))
}

fn parse_u64_positive(key: &str, value: &str) -> Result<u64, String> {
    let v = parse_u64(key, value)?;
    if v == 0 {
        return Err(format!("{key} must be positive"));
    }
    Ok(v)
}

/// The wire form of a terminal [`QueryAnswer`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// How the run ended.
    pub outcome: StepOutcome,
    /// Rows eligible across groups.
    pub population: u64,
    /// Whether estimates are best-effort (budget/eviction truncated).
    pub truncated: bool,
    /// Group labels, input order.
    pub labels: Vec<String>,
    /// Final estimates (bit-exact).
    pub estimates: Vec<f64>,
    /// Per-group sample counts.
    pub samples_per_group: Vec<u64>,
    /// Rounds executed.
    pub rounds: u64,
}

impl WireAnswer {
    /// Labels sorted by ascending estimate (display order).
    #[must_use]
    pub fn ranked_labels(&self) -> Vec<&str> {
        let mut idx: Vec<usize> = (0..self.estimates.len()).collect();
        idx.sort_by(|&a, &b| self.estimates[a].total_cmp(&self.estimates[b]));
        idx.into_iter().map(|i| self.labels[i].as_str()).collect()
    }
}

/// Server-wide counters echoed by the `STATS` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Sessions admitted into the scheduler over the server's lifetime.
    pub sessions_admitted: u64,
    /// Sessions that ran to a terminal answer frame.
    pub sessions_completed: u64,
    /// Sessions cancelled by client disconnect.
    pub sessions_cancelled: u64,
    /// Queries rejected before admission (malformed, invalid, capacity).
    pub sessions_rejected: u64,
    /// Frames written to clients (all types).
    pub frames_sent: u64,
    /// Intermediate round frames dropped for slow clients (terminal
    /// frames are never dropped).
    pub frames_dropped_slow: u64,
    /// Currently connected clients.
    pub active_clients: u64,
    /// Always `(0, 0)`: the engine has no predicate-bitmap cache. The
    /// slot is kept so the STATS frame layout does not change.
    pub predicate_cache: (u64, u64),
    /// Engine group-plan cache hits / misses (lifetime totals).
    pub plan_cache: (u64, u64),
    /// Always `(0, 0)`: the engine keeps no composite index (multi-column
    /// group-bys plan in one pass). The slot is kept so the STATS frame
    /// layout does not change.
    pub composite_cache: (u64, u64),
    /// Sessions parked on client disconnect (lifetime total).
    pub sessions_parked: u64,
    /// Parked sessions successfully resumed via `RESUME` (lifetime total).
    pub sessions_resumed: u64,
    /// Parked checkpoints dropped by the TTL sweep (lifetime total).
    pub sessions_expired: u64,
    /// Resumable checkpoints the parking registry holds right now.
    pub parked_now: u64,
    /// Checkpoint bytes the parking registry holds right now.
    pub parked_bytes: u64,
    /// Scheduler-loop restarts summed over the server's shards: a panic
    /// restarts one shard's loop, a `CRASH` drill restarts every shard's.
    pub scheduler_restarts: u64,
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A session advanced one round: its [`RoundUpdate`] and the
    /// [`Snapshot`] inside it travel as they are.
    Round(RoundUpdate),
    /// The terminal answer; the server closes the connection after it.
    Answer(WireAnswer),
    /// A structured error; the server closes the connection after it.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable diagnostic.
        message: String,
    },
    /// The session outgrew the server's per-session memory cap and was
    /// evicted; a best-effort [`Frame::Answer`] follows.
    Evicted {
        /// Resident-byte estimate at eviction.
        bytes: u64,
    },
    /// Reply to `STATS`.
    Stats(WireStats),
    /// The session's resume token. Sent right after admission (and after
    /// a successful `RESUME`) so the client holds the token **before**
    /// any failure: if the connection dies — or the whole server does —
    /// the session's checkpoint stays parked under this token for the
    /// parking TTL, and `RESUME token=<u64>` on a fresh connection picks
    /// the stream back up bit-identically. Not terminal: round frames
    /// follow. A session that cannot checkpoint gets no `Parked` frame.
    Parked {
        /// The resume token (never 0 — 0 is the "no token" sentinel).
        token: u64,
    },
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

const TAG_ROUND: u8 = 0x01;
const TAG_ANSWER: u8 = 0x02;
const TAG_ERROR: u8 = 0x03;
const TAG_EVICTED: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_PARKED: u8 = 0x06;

/// Whether an encoded payload's tag ends its reply stream: `Answer`,
/// `Error` and `Stats` do; `Evicted` is followed by a best-effort `Answer`
/// and `Parked` precedes the round stream.
pub(crate) fn ends_stream(tag: u8) -> bool {
    matches!(tag, TAG_ANSWER | TAG_ERROR | TAG_STATS)
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        DecodeError(e.to_string())
    }
}

fn decode_outcome(d: &mut Dec<'_>) -> Result<StepOutcome, DecodeError> {
    let code = d.u8()?;
    StepOutcome::from_code(code).ok_or_else(|| DecodeError(format!("bad outcome byte {code}")))
}

fn encode_snapshot(e: &mut Enc, s: &Snapshot) {
    e.count(s.labels.len());
    e.column(&s.labels);
    e.column(&s.estimates);
    for iv in &s.intervals {
        e.f64_bits(iv.lo);
        e.f64_bits(iv.hi);
    }
    e.column(&s.active);
    e.column(&s.samples_per_group);
    e.u64(s.rounds);
    e.flag(s.truncated);
}

fn decode_snapshot(d: &mut Dec<'_>) -> Result<Snapshot, DecodeError> {
    let k = d.count(4)?;
    Ok(Snapshot {
        labels: d.column(k)?,
        estimates: d.column(k)?,
        intervals: d
            .column(k)?
            .into_iter()
            .map(interval)
            .collect::<Result<_, _>>()?,
        active: d.column(k)?,
        samples_per_group: d.column(k)?,
        rounds: d.u64()?,
        truncated: d.flag()?,
    })
}

/// `Interval`'s invariant, checked: `lo <= hi` is false for NaN too.
fn interval((lo, hi): (f64, f64)) -> Result<Interval, DecodeError> {
    if lo <= hi {
        Ok(Interval { lo, hi })
    } else {
        Err(DecodeError(format!("bad interval [{lo}, {hi}]")))
    }
}

impl Frame {
    /// A [`Frame::Round`] holding a copy of a session's [`RoundUpdate`]
    /// (a caller that owns the update moves it in with `Frame::Round`).
    #[must_use]
    pub fn from_update(update: &RoundUpdate) -> Self {
        Frame::Round(update.clone())
    }

    /// A [`Frame::Answer`] built from a finished [`QueryAnswer`].
    #[must_use]
    pub fn from_answer(answer: &QueryAnswer) -> Self {
        Frame::Answer(WireAnswer {
            outcome: answer.outcome,
            population: answer.population,
            truncated: answer.result.truncated,
            labels: answer.result.labels.clone(),
            estimates: answer.result.estimates.clone(),
            samples_per_group: answer.result.samples_per_group.clone(),
            rounds: answer.result.rounds,
        })
    }

    /// Encodes the frame payload (the length prefix is written by
    /// [`write_frame`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Frame::Round(r) => {
                e.u8(TAG_ROUND);
                e.u8(r.outcome.code());
                e.u64(r.round);
                e.u64(r.total_samples);
                e.f64_bits(r.fraction_sampled);
                e.count(r.newly_certified.len());
                // Group counts are bounded far below u32::MAX; clamp so a
                // pathological session degrades to a bad index, not an abort.
                for &i in &r.newly_certified {
                    e.u32(u32::try_from(i).unwrap_or(u32::MAX));
                }
                encode_snapshot(&mut e, &r.snapshot);
            }
            Frame::Answer(a) => {
                e.u8(TAG_ANSWER);
                e.u8(a.outcome.code());
                e.u64(a.population);
                e.flag(a.truncated);
                e.count(a.labels.len());
                e.column(&a.labels);
                e.column(&a.estimates);
                e.column(&a.samples_per_group);
                e.u64(a.rounds);
            }
            Frame::Error { code, message } => {
                e.u8(TAG_ERROR);
                e.u8(*code as u8);
                e.str(message);
            }
            Frame::Evicted { bytes } => {
                e.u8(TAG_EVICTED);
                e.u64(*bytes);
            }
            Frame::Stats(s) => {
                e.u8(TAG_STATS);
                e.column(&[
                    s.sessions_admitted,
                    s.sessions_completed,
                    s.sessions_cancelled,
                    s.sessions_rejected,
                    s.frames_sent,
                    s.frames_dropped_slow,
                    s.active_clients,
                    s.predicate_cache.0,
                    s.predicate_cache.1,
                    s.plan_cache.0,
                    s.plan_cache.1,
                    s.composite_cache.0,
                    s.composite_cache.1,
                    s.sessions_parked,
                    s.sessions_resumed,
                    s.sessions_expired,
                    s.parked_now,
                    s.parked_bytes,
                    s.scheduler_restarts,
                ]);
            }
            Frame::Parked { token } => {
                e.u8(TAG_PARKED);
                e.u64(*token);
            }
        }
        e.into_bytes()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on an unknown tag, truncated payload,
    /// implausible count, non-`0`/`1` boolean, invalid UTF-8, an interval
    /// that is NaN or has `lo > hi`, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let frame = match d.u8()? {
            TAG_ROUND => Frame::Round(RoundUpdate {
                outcome: decode_outcome(&mut d)?,
                round: d.u64()?,
                total_samples: d.u64()?,
                fraction_sampled: d.f64_bits()?,
                newly_certified: d.vec::<u32>()?.into_iter().map(|i| i as usize).collect(),
                snapshot: decode_snapshot(&mut d)?,
            }),
            TAG_ANSWER => {
                let outcome = decode_outcome(&mut d)?;
                let population = d.u64()?;
                let truncated = d.flag()?;
                let k = d.count(4)?;
                Frame::Answer(WireAnswer {
                    outcome,
                    population,
                    truncated,
                    labels: d.column(k)?,
                    estimates: d.column(k)?,
                    samples_per_group: d.column(k)?,
                    rounds: d.u64()?,
                })
            }
            TAG_ERROR => Frame::Error {
                code: ErrorCode::from_u8(d.u8()?)
                    .ok_or_else(|| DecodeError("bad error code".into()))?,
                message: d.str()?,
            },
            TAG_EVICTED => Frame::Evicted { bytes: d.u64()? },
            TAG_STATS => {
                let mut next = || d.u64();
                Frame::Stats(WireStats {
                    sessions_admitted: next()?,
                    sessions_completed: next()?,
                    sessions_cancelled: next()?,
                    sessions_rejected: next()?,
                    frames_sent: next()?,
                    frames_dropped_slow: next()?,
                    active_clients: next()?,
                    predicate_cache: (next()?, next()?),
                    plan_cache: (next()?, next()?),
                    composite_cache: (next()?, next()?),
                    sessions_parked: next()?,
                    sessions_resumed: next()?,
                    sessions_expired: next()?,
                    parked_now: next()?,
                    parked_bytes: next()?,
                    scheduler_restarts: next()?,
                })
            }
            TAG_PARKED => Frame::Parked { token: d.u64()? },
            other => return Err(DecodeError(format!("unknown frame tag 0x{other:02x}"))),
        };
        d.finish()?;
        Ok(frame)
    }
}

/// Writes one length-prefixed frame: `u32` little-endian payload length,
/// then the payload.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let payload = frame.encode();
    write_frame_bytes(w, &payload)
}

/// Writes an already-encoded payload with its length prefix, both in one
/// vectored write where the writer takes them together (a socket does: one
/// syscall, and one segment under `TCP_NODELAY`).
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let Ok(len) = u32::try_from(payload.len()) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame payload exceeds the u32 length prefix",
        ));
    };
    write_all_slices(
        w,
        &mut [IoSlice::new(&len.to_le_bytes()), IoSlice::new(payload)],
    )
}

/// `write_all` over several buffers: one vectored write, repeated on what
/// a short write left.
pub(crate) fn write_all_slices(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the server closed after a terminal frame).
///
/// # Errors
///
/// Returns `InvalidData` for a length prefix past [`MAX_FRAME_BYTES`] or
/// a payload that fails to decode; other I/O errors pass through
/// (including `UnexpectedEof` mid-frame).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Frame::decode(&payload)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Why [`read_line`] gave up on a line.
#[derive(Debug)]
pub enum LineError {
    /// The line outgrew [`MAX_REQUEST_LINE`] with no LF in sight.
    TooLong,
    /// The underlying stream failed (not a timeout — timeouts are
    /// retried internally).
    Io(std::io::Error),
}

/// Accumulates request lines from a non-blocking-ish stream, preserving
/// any bytes read past the newline for the next call (a peer may
/// legitimately send bytes one at a time, or many lines at once).
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
        }
    }
}

/// Reads one LF-terminated line (LF stripped, lossy UTF-8). Returns
/// `Ok(None)` on EOF or when `stop` flips while waiting; the read timeout
/// configured on the stream sets the `stop`-poll cadence.
///
/// # Errors
///
/// [`LineError::TooLong`] once the pending line passes
/// [`MAX_REQUEST_LINE`]; [`LineError::Io`] for real stream failures.
pub fn read_line<R: Read>(
    reader: &mut LineReader<R>,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<Option<String>, LineError> {
    loop {
        if let Some(pos) = reader.buf.iter().position(|&b| b == b'\n') {
            let rest = reader.buf.split_off(pos + 1);
            let mut line = std::mem::replace(&mut reader.buf, rest);
            line.pop(); // the LF
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
        if reader.buf.len() > MAX_REQUEST_LINE {
            return Err(LineError::TooLong);
        }
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(None);
        }
        let mut chunk = [0u8; 1024];
        match reader.inner.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => reader.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout: poll the stop flag and retry.
            }
            Err(e) => return Err(LineError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz::needletail::codec::fnv1a64;

    fn sample_round() -> Frame {
        Frame::Round(RoundUpdate {
            outcome: StepOutcome::Running,
            round: 3,
            total_samples: 120,
            fraction_sampled: 0.25,
            newly_certified: vec![1],
            snapshot: Snapshot {
                labels: vec!["a".into(), "b".into()],
                estimates: vec![1.5, -2.25],
                intervals: vec![Interval::new(1.0, 2.0), Interval::new(-3.0, -1.5)],
                active: vec![true, false],
                samples_per_group: vec![70, 50],
                rounds: 3,
                truncated: false,
            },
        })
    }

    #[test]
    fn request_line_round_trips() {
        let mut req = QueryRequest::avg("airline", "delay", 42);
        req.aggregate = Aggregate::Sum;
        req.algorithm = AlgorithmChoice::IFocus;
        req.filter = Some(FilterSpec::In(
            "origin".into(),
            vec!["BOS".into(), "SFO".into()],
        ));
        req.delta = Some(0.01);
        req.resolution_pct = Some(1.0);
        req.bound = Some(100.0);
        req.samples_per_round = Some(16);
        req.max_samples = Some(5000);
        let line = req.to_line();
        assert_eq!(QueryRequest::parse_line(&line), Ok(req));
    }

    #[test]
    fn request_line_rejects_garbage() {
        for bad in [
            "HELLO",
            "QUERYx group=g agg=avg measure=v seed=1",
            "QUERY group=g agg=avg measure=v", // missing seed
            "QUERY group=g agg=avg seed=1",    // missing measure
            "QUERY group=g measure=v seed=1",  // missing agg
            "QUERY agg=avg measure=v seed=1",  // missing group
            "QUERY group=a,b,c agg=avg measure=v seed=1", // 3 group cols
            "QUERY group=g agg=median measure=v seed=1", // unknown agg
            "QUERY group=g agg=avg measure=v seed=banana", // bad number
            "QUERY group=g agg=avg measure=v seed=1 delta=1.5", // delta range
            "QUERY group=g agg=avg measure=v seed=1 spr=0", // zero spr
            "QUERY group=g agg=avg measure=v seed=1 nope=1", // unknown key
            "QUERY group=g agg=avg measure=v seed=1 filter=zz", // bad filter
            "QUERY group=g agg=avg measure=v seed=1 filter=in:f:", // empty IN
        ] {
            assert!(
                QueryRequest::parse_line(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    fn fixture_frames() -> [Frame; 7] {
        [
            sample_round(),
            Frame::Answer(WireAnswer {
                outcome: StepOutcome::Converged,
                population: 1000,
                truncated: false,
                labels: vec!["x".into()],
                estimates: vec![7.0],
                samples_per_group: vec![33],
                rounds: 12,
            }),
            Frame::Error {
                code: ErrorCode::InvalidQuery,
                message: "no such column".into(),
            },
            Frame::Evicted { bytes: 4096 },
            Frame::Stats(WireStats {
                sessions_admitted: 5,
                sessions_completed: 4,
                sessions_cancelled: 1,
                sessions_rejected: 2,
                frames_sent: 99,
                frames_dropped_slow: 3,
                active_clients: 2,
                predicate_cache: (10, 2),
                plan_cache: (8, 4),
                composite_cache: (0, 1),
                sessions_parked: 6,
                sessions_resumed: 5,
                sessions_expired: 1,
                parked_now: 2,
                parked_bytes: 1234,
                scheduler_restarts: 1,
            }),
            Frame::Parked { token: 42 },
            Frame::Error {
                code: ErrorCode::NoSuchToken,
                message: "token 9 is unknown or expired".into(),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in fixture_frames() {
            let payload = frame.encode();
            assert_eq!(Frame::decode(&payload), Ok(frame));
        }
    }

    /// `(len, fnv1a64)` of every fixture frame's payload, pinned from the
    /// bytes the encoder emitted before the codecs were unified: deployed
    /// clients decode exactly these.
    #[test]
    fn golden_bytes_are_pinned() {
        let got: Vec<(usize, u64)> = fixture_frames()
            .iter()
            .map(Frame::encode)
            .map(|payload| (payload.len(), fnv1a64(&payload)))
            .collect();
        // Round, Answer, Error, Evicted, Stats, Parked, Error(NoSuchToken).
        let golden: [(usize, u64); 7] = [
            (123, 0x939e_b782_fbb9_a134),
            (44, 0x9f87_14aa_935e_7344),
            (20, 0x8468_9e51_2b73_3cea),
            (9, 0xed82_e568_ef61_7f23),
            (153, 0x1fad_47d1_e66b_baea),
            (9, 0x25f6_4c27_5bd5_3cb3),
            (35, 0xbb20_cde8_4fab_8e70),
        ];
        assert_eq!(got, golden, "encoded frame bytes drifted");
    }

    #[test]
    fn decode_rejects_corruption() {
        let payload = sample_round().encode();
        // Unknown tag.
        let mut bad = payload.clone();
        bad[0] = 0x7f;
        assert!(Frame::decode(&bad).is_err());
        // Truncation at every prefix length must error, never panic.
        for cut in 0..payload.len() {
            assert!(Frame::decode(&payload[..cut]).is_err());
        }
        // Trailing garbage.
        let mut long = payload.clone();
        long.push(0);
        assert!(Frame::decode(&long).is_err());
        // Implausible count: claim 2^31 labels.
        let mut huge = sample_round().encode();
        // newly_certified count sits after tag(1)+outcome(1)+round(8)+
        // samples(8)+fraction(8) = offset 26.
        huge[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::decode(&huge).is_err());
        // The two intervals sit at 64..96 as (lo, hi) bit pairs. A NaN
        // endpoint or lo > hi would break `Interval`'s invariant.
        assert_eq!(payload[64..72], 1.0f64.to_bits().to_le_bytes());
        for (at, v) in [(64, f64::NAN), (88, f64::NAN), (64, 2.5), (88, -3.5)] {
            let mut bad = payload.clone();
            bad[at..at + 8].copy_from_slice(&f64::to_bits(v).to_le_bytes());
            let err = Frame::decode(&bad).unwrap_err();
            assert!(err.0.contains("bad interval"), "{v} at {at}: {err}");
        }
    }

    #[test]
    fn booleans_decode_strictly() {
        // In the 123-byte sample round the two `active` flags sit at
        // 96..98 and `truncated` is the last byte; only 0/1 are booleans.
        let payload = sample_round().encode();
        assert_eq!((payload[96], payload[97], payload[122]), (1, 0, 0));
        for at in [96, 97, 122] {
            let mut bad = payload.clone();
            bad[at] = 2;
            let err = Frame::decode(&bad).unwrap_err();
            assert!(err.0.contains("bad boolean byte 2"), "byte {at}: {err}");
        }
        // The Answer frame's `truncated` follows tag, outcome, population.
        let mut answer = fixture_frames()[1].encode();
        answer[10] = 0xff;
        assert!(Frame::decode(&answer).is_err());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_errors() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let err = read_frame(&mut [5u8, 0].as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn resume_line_parses_and_rejects_garbage() {
        assert_eq!(parse_resume_line("RESUME token=7"), Ok(7));
        assert_eq!(parse_resume_line("RESUME  token=18446744073709551615"), {
            Ok(u64::MAX)
        });
        for bad in [
            "RESUME",                            // missing token
            "RESUMEtoken=1",                     // no space
            "RESUME token=0",                    // zero sentinel
            "RESUME token=banana",               // bad number
            "RESUME token=1 extra=2",            // unknown key
            "RESUME token",                      // no value
            "QUERY token=1",                     // wrong verb
            "RESUME token=-3",                   // negative
            "RESUME token=99999999999999999999", // overflow
        ] {
            assert!(
                parse_resume_line(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn parked_frame_truncation_and_corruption_are_handled() {
        let payload = (Frame::Parked {
            token: 0x0102_0304_0506_0708,
        })
        .encode();
        assert_eq!(payload.len(), 9);
        for cut in 0..payload.len() {
            assert!(Frame::decode(&payload[..cut]).is_err());
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(Frame::decode(&long).is_err());
    }

    #[test]
    fn an_empty_in_filter_matches_no_row() {
        use rapidviz::needletail::{ColumnDef, DataType, Schema, TableBuilder};
        let mut b = TableBuilder::new(Schema::new(vec![ColumnDef::new("origin", DataType::Str)]));
        for origin in ["", "A", "B"] {
            b.push_row(vec![origin.into()]);
        }
        let table = b.finish();
        let pred = FilterSpec::In("origin".into(), Vec::new()).to_predicate();
        for row in 0..3 {
            assert!(!pred.matches_row(&table, row), "row {row} matched");
        }
    }

    #[test]
    fn filter_spec_builds_or_chain_in_listed_order() {
        let spec = FilterSpec::In("f".into(), vec!["a".into(), "b".into()]);
        let pred = spec.to_predicate();
        let swapped = FilterSpec::In("f".into(), vec!["b".into(), "a".into()]).to_predicate();
        // Distinct spellings, same canonical plan key.
        assert_ne!(format!("{pred:?}"), format!("{swapped:?}"));
        assert_eq!(pred.canonical_key(), swapped.canonical_key());
    }
}
