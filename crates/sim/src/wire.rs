//! Wire-client episodes: the simulation grammar extended over the TCP
//! serving layer.
//!
//! A wire episode derives — from one root seed — a table, a fleet of
//! clients, and each client's scripted behavior (complete a query,
//! disconnect mid-stream after a few frames, half-close, speak garbage,
//! filter on a missing column, disconnect-then-`RESUME`, or crash the
//! scheduler and recover), then
//! runs the fleet against an **in-process [`rapidviz_serve::Server`]**
//! on an ephemeral loopback port and checks:
//!
//! 1. **wire-replay-divergence** — every completed query's answer is
//!    byte-identical ([`f64::to_bits`]) to the same seeded query executed
//!    in-process against a fresh engine built from the same
//!    [`TableSpec`]. Resumed and crash-recovered answers are held to the
//!    same bar: interrupting a durable session must not move a bit.
//! 2. **terminal-delivery** — every well-formed, fully-drained query gets
//!    a terminal frame (answer or structured error), never a hang or
//!    reset.
//! 3. **slot-reclamation** — after the fleet drains, sessions admitted =
//!    completed + cancelled + parked + crashed (disconnects park their
//!    durable slots; crash drills count their casualties).
//! 4. **malformed-rejection** — garbage lines get `Malformed` error
//!    frames, and a well-formed query filtering on a column the table
//!    lacks gets `InvalidQuery`; nothing panics server-side.
//! 5. **crash-recovery** — a `CRASH` drill closes the victim stream
//!    without fabricating a terminal frame, restarts the scheduler, and
//!    a seeded-backoff reconnect plus `RESUME token=…` recovers the
//!    session bit-identically from its registry checkpoint. Conversely,
//!    an episode without a drill ends with zero scheduler restarts, so a
//!    panic the supervisor quietly absorbs still fails the episode.
//! 6. **wire-round-replay** — the round frames a `Complete` client
//!    receives are, in order and [`f64::to_bits`]-exactly, a subsequence
//!    of the updates the same seeded query streams in process: the
//!    server may drop a frame for a slow client, never alter one.
//!
//! Crash-drill episodes run a single client: the drill kills every live
//! session in the incarnation, so a fleet-mate's `Complete` script would
//! fail through no fault of its own.
//!
//! Failures print the standard `SIM_SEED=<u64> POLICY=Wire` repro line:
//! the seed fully determines the episode.

use crate::plan::{GroupBy, TableSpec};
use crate::run::update_key;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::needletail::NeedleTail;
use rapidviz::{AlgorithmChoice, RoundUpdate, VizQuery};
use rapidviz_core::clock::{Clock, SystemClock};
use rapidviz_serve::{
    ErrorCode, FilterSpec, Frame, QueryRequest, RetryPolicy, Server, ServerConfig, WireClient,
};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Aggregate + algorithm for one wire query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// `AVG(v)` under an ordering algorithm.
    Avg(AlgorithmChoice),
    /// `SUM(v)`.
    Sum,
    /// `COUNT`, read from the plan.
    Count,
}

/// One scripted wire query.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuerySpec {
    /// Session RNG seed (carried in the request line).
    pub seed: u64,
    /// Aggregate + algorithm.
    pub kind: WireKind,
    /// Filter over the `f` attribute, if any.
    pub filter: Option<FilterSpec>,
    /// Explicit value bound `c` for the concentration inequalities, if
    /// overridden. Durable scripts inflate it so certification cannot end
    /// the session before its scripted interruption lands.
    pub bound: Option<f64>,
    /// The group-by columns.
    pub group_by: GroupBy,
    /// Samples per round.
    pub samples_per_round: u64,
    /// Session sample cap (always set — bounds episode length).
    pub max_samples: u64,
}

impl WireQuerySpec {
    /// The request line this spec sends.
    #[must_use]
    pub fn to_request(&self) -> QueryRequest {
        let mut req = QueryRequest::avg("g", "v", self.seed);
        req.group_by = self
            .group_by
            .columns()
            .iter()
            .map(|c| (*c).to_owned())
            .collect();
        match self.kind {
            WireKind::Avg(algo) => {
                req.aggregate = rapidviz::Aggregate::Avg;
                req.algorithm = algo;
            }
            WireKind::Sum => req.aggregate = rapidviz::Aggregate::Sum,
            WireKind::Count => req.aggregate = rapidviz::Aggregate::Count,
        }
        req.filter = self.filter.clone();
        req.bound = self.bound;
        req.samples_per_round = Some(self.samples_per_round);
        req.max_samples = Some(self.max_samples);
        req
    }

    /// Executes the same query in-process against `engine` and returns
    /// the answer for byte-comparison.
    fn execute_in_process(&self, engine: &NeedleTail) -> rapidviz::QueryAnswer {
        self.in_process(engine)
            .execute(&mut StdRng::seed_from_u64(self.seed))
            .expect("replay of an admitted wire query plans")
    }

    /// Streams the same query in-process against `engine`: every update
    /// up to and including the terminal one.
    fn stream_in_process(&self, engine: &NeedleTail) -> Vec<RoundUpdate> {
        let mut session = self
            .in_process(engine)
            .start(StdRng::seed_from_u64(self.seed))
            .expect("replay of an admitted wire query plans");
        let mut updates = Vec::new();
        loop {
            let update = session.step();
            let running = update.outcome.is_running();
            updates.push(update);
            if !running {
                return updates;
            }
        }
    }

    /// The in-process query this spec's request line denotes.
    fn in_process<'e>(&self, engine: &'e NeedleTail) -> VizQuery<'e> {
        let mut q = VizQuery::new(engine);
        for col in self.group_by.columns() {
            q = q.group_by(*col);
        }
        q = match self.kind {
            WireKind::Avg(algo) => q.avg("v").algorithm(algo),
            WireKind::Sum => q.sum("v"),
            WireKind::Count => q.count("v"),
        };
        if let Some(f) = &self.filter {
            q = q.filter(f.to_predicate());
        }
        if let Some(c) = self.bound {
            q = q.bound(c);
        }
        q.samples_per_round(self.samples_per_round)
            .max_samples(self.max_samples)
    }
}

/// What one scripted client does with its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireBehavior {
    /// Drain the stream to the terminal frame and byte-compare the
    /// answer.
    Complete,
    /// Read this many frames, then drop the connection mid-stream.
    DisconnectAfter(u64),
    /// Send a malformed line; expect a `Malformed` error frame.
    Malformed,
    /// Send a well-formed query whose filter names a column the table
    /// lacks; expect an `InvalidQuery` error frame.
    MissingColumn,
    /// Send the query, shut down the write half, and still drain to the
    /// terminal frame.
    HalfClose,
    /// Read the resume token plus this many frames, drop the connection,
    /// reconnect with seeded backoff, `RESUME` the parked session, and
    /// drain it to the answer — which must byte-match the uninterrupted
    /// replay.
    DisconnectReconnect(u64),
    /// Read the resume token plus this many frames, then fire a `CRASH`
    /// drill from a second connection. The victim stream must die without
    /// a fabricated terminal frame; a seeded-backoff reconnect then
    /// `RESUME`s the session from its surviving registry checkpoint and
    /// the recovered answer must byte-match the uninterrupted replay.
    /// Only generated in single-client episodes.
    CrashRestart(u64),
}

/// One scripted client: a query plus what it does with it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireClientScript {
    /// The query.
    pub query: WireQuerySpec,
    /// The behavior.
    pub behavior: WireBehavior,
}

/// A fully-derived wire episode.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEpisodePlan {
    /// Root seed (the repro handle).
    pub seed: u64,
    /// Table recipe (reuses the core episode grammar's table).
    pub table: TableSpec,
    /// The client fleet, run concurrently.
    pub clients: Vec<WireClientScript>,
}

/// A wire-invariant violation, with its repro line.
#[derive(Debug, Clone)]
pub struct WireFailure {
    /// Root seed.
    pub seed: u64,
    /// What broke.
    pub message: String,
}

impl WireFailure {
    /// The panic report; first line is the grep-able repro handle.
    #[must_use]
    pub fn report(&self) -> String {
        format!("SIM_SEED={} POLICY=Wire\n{}", self.seed, self.message)
    }
}

/// Aggregate statistics over a wire batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireReport {
    /// Episodes run.
    pub episodes: u64,
    /// Queries that completed and byte-matched their in-process replay.
    pub verified_answers: u64,
    /// Mid-stream disconnects exercised (including reconnects that lost
    /// the race against server-side completion).
    pub disconnects: u64,
    /// Malformed lines and missing-column queries rejected.
    pub malformed_rejections: u64,
    /// Sessions resumed via `RESUME` after a disconnect whose answers
    /// byte-matched the uninterrupted replay.
    pub resumed_answers: u64,
    /// Crash drills recovered bit-identically via reconnect + `RESUME`.
    pub crash_recoveries: u64,
    /// Round frames of `Complete` clients matched, in order, against the
    /// in-process stream.
    pub replayed_rounds: u64,
}

/// Expands one root seed into a wire episode plan. Pure.
#[must_use]
pub fn wire_episode_plan(seed: u64) -> WireEpisodePlan {
    // Domain-separate the wire grammar's stream from the core episode
    // grammar's, so the same root seed explores different corners.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_5245_5749_5245);
    let table = TableSpec {
        seed: rng.next_u64(),
        rows: rng.gen_range(80..=240usize),
        groups: rng.gen_range(2..=5usize),
        filter_values: 3,
    };
    // One episode in ten is a solo crash drill: the `CRASH` verb kills
    // every live session in the incarnation, so it gets no fleet-mates to
    // strand.
    let clients = if rng.gen_range(0..10u32) == 0 {
        let mut query = scripted_query(&mut rng);
        make_durable(&mut query, &mut rng);
        vec![WireClientScript {
            query,
            behavior: WireBehavior::CrashRestart(rng.gen_range(1..4)),
        }]
    } else {
        let n_clients = rng.gen_range(2..=5usize);
        (0..n_clients)
            .map(|_| {
                let mut query = scripted_query(&mut rng);
                let behavior = match rng.gen_range(0..10u32) {
                    0 => WireBehavior::DisconnectAfter(rng.gen_range(0..4)),
                    // Every other malformed script, keyed off an already
                    // drawn value so the seed → episode mapping holds.
                    1 if query.seed % 2 == 1 => WireBehavior::MissingColumn,
                    1 => WireBehavior::Malformed,
                    2 => WireBehavior::HalfClose,
                    3 => {
                        make_durable(&mut query, &mut rng);
                        WireBehavior::DisconnectReconnect(rng.gen_range(1..4))
                    }
                    _ => WireBehavior::Complete,
                };
                WireClientScript { query, behavior }
            })
            .collect()
    };
    // Durable scripts need a real mid-stream window. On these default
    // tiny tables every group is fully drawn within milliseconds and the
    // Hoeffding-Serfling correction collapses the intervals to zero, so
    // an interruption would always lose the race against completion.
    // Tens of thousands of rows (with the inflated bound set by
    // `make_durable`) keep the durable session streaming for thousands
    // of rounds instead.
    let durable = clients.iter().any(|c| {
        matches!(
            c.behavior,
            WireBehavior::DisconnectReconnect(_) | WireBehavior::CrashRestart(_)
        )
    });
    let table = if durable {
        TableSpec {
            rows: rng.gen_range(10_000..=25_000usize),
            ..table
        }
    } else {
        table
    };
    WireEpisodePlan {
        seed,
        table,
        clients,
    }
}

/// Draws one scripted query: kind, filter, grouping, and round/sample
/// budgets sized for a quick complete-or-abandon run.
fn scripted_query(rng: &mut StdRng) -> WireQuerySpec {
    let kind = match rng.gen_range(0..6u32) {
        0 => WireKind::Avg(AlgorithmChoice::IFocus),
        1 => WireKind::Avg(AlgorithmChoice::IRefine),
        2 => WireKind::Avg(AlgorithmChoice::RoundRobin),
        3 => WireKind::Avg(AlgorithmChoice::ExactScan),
        4 => WireKind::Sum,
        _ => WireKind::Count,
    };
    let filter = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(FilterSpec::Eq(
            "f".into(),
            format!("f{}", rng.gen_range(0..3)),
        )),
        _ => {
            let a = rng.gen_range(0..3u32);
            let b = (a + 1 + rng.gen_range(0..2u32)) % 3;
            Some(FilterSpec::In(
                "f".into(),
                vec![format!("f{a}"), format!("f{b}")],
            ))
        }
    };
    WireQuerySpec {
        seed: rng.next_u64(),
        kind,
        filter,
        bound: None,
        group_by: GroupBy::draw(rng, 0.25, 0.15),
        samples_per_round: rng.gen_range(4..=32),
        max_samples: rng.gen_range(200..=2_000),
    }
}

/// Reshapes a query so a scripted interruption reliably lands mid-stream.
/// Three levers: a sampling kind that cannot finish in one pass (exact
/// scans cover these tiny tables immediately, and COUNT is read from the
/// plan in one round without drawing), an inflated value bound so
/// certification cannot end the session early, and a budget of many small
/// rounds.
fn make_durable(query: &mut WireQuerySpec, rng: &mut StdRng) {
    query.kind = match rng.gen_range(0..4u32) {
        0 => WireKind::Avg(AlgorithmChoice::IFocus),
        1 => WireKind::Avg(AlgorithmChoice::IRefine),
        2 => WireKind::Avg(AlgorithmChoice::RoundRobin),
        _ => WireKind::Sum,
    };
    // Values live in [0, 100]; a bound of 5000 keeps every confidence
    // interval ~50x too wide to separate the bars, so the session runs
    // to its sample budget instead of certifying within milliseconds.
    query.bound = Some(5_000.0);
    query.samples_per_round = rng.gen_range(4..=8);
    query.max_samples = rng.gen_range(20_000..=60_000);
}

/// Runs one wire episode.
///
/// # Errors
///
/// Returns the first [`WireFailure`] the episode hits.
pub fn run_wire_episode(plan: &WireEpisodePlan) -> Result<WireReport, WireFailure> {
    let fail = |message: String| WireFailure {
        seed: plan.seed,
        message,
    };
    let engine = plan.table.build();
    let drilled = plan
        .clients
        .iter()
        .any(|c| matches!(c.behavior, WireBehavior::CrashRestart(_)));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_clients: plan.clients.len() + 2,
        per_client_max_samples: 1_000_000,
        // The drill verb is armed only when the plan scripts a drill.
        enable_crash: drilled,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(engine, config).map_err(|e| fail(format!("server bind failed: {e}")))?;
    let addr = handle.local_addr();
    let mut report = WireReport {
        episodes: 1,
        ..WireReport::default()
    };

    let results: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        plan.clients
            .iter()
            .map(|script| scope.spawn(move || run_client_script(addr, script)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });

    // Replay completed answers against a fresh engine (cold caches — the
    // wire answer must not depend on server-side cache state).
    let replay_engine = plan.table.build();
    for (script, result) in plan.clients.iter().zip(results) {
        let outcome = result.map_err(&fail)?;
        let answer = match outcome {
            ClientOutcome::Completed(a, rounds) => {
                let local = script.query.stream_in_process(&replay_engine);
                report.replayed_rounds += replays_as_subsequence(&rounds, &local)
                    .map_err(|message| fail(format!("{message} for {script:?}")))?;
                a
            }
            ClientOutcome::Answered(a) => a,
            ClientOutcome::Resumed(a) => {
                report.resumed_answers += 1;
                a
            }
            ClientOutcome::CrashRecovered(a) => {
                report.crash_recoveries += 1;
                a
            }
            ClientOutcome::Disconnected => {
                report.disconnects += 1;
                continue;
            }
            ClientOutcome::MalformedRejected => {
                report.malformed_rejections += 1;
                continue;
            }
        };
        // Resumed and crash-recovered answers go through the same bar as
        // uninterrupted ones: the interruption must not move a bit.
        let reference = script.query.execute_in_process(&replay_engine);
        let wire_bits: Vec<u64> = answer.estimates.iter().map(|e| e.to_bits()).collect();
        let ref_bits: Vec<u64> = reference
            .result
            .estimates
            .iter()
            .map(|e| e.to_bits())
            .collect();
        if answer.labels != reference.result.labels
            || wire_bits != ref_bits
            || answer.outcome != reference.outcome
            || answer.samples_per_group != reference.result.samples_per_group
        {
            return Err(fail(format!(
                "wire-replay divergence for {script:?}:\n wire {answer:?}\n local {:?}",
                reference.result
            )));
        }
        report.verified_answers += 1;
    }

    // Slot reclamation: every admitted session ends terminal. This
    // watchdog bounds real OS-thread teardown, not simulated time, so it
    // reads the system clock — through the Clock abstraction so the
    // dependence stays visible.
    let stats = handle.stats();
    let clock = SystemClock;
    let deadline = clock.now() + Duration::from_secs(10);
    loop {
        let admitted = stats.sessions_admitted.load(Ordering::Relaxed);
        let terminal = stats.sessions_completed.load(Ordering::Relaxed)
            + stats.sessions_cancelled.load(Ordering::Relaxed)
            + stats.sessions_parked.load(Ordering::Relaxed)
            + stats.sessions_crashed.load(Ordering::Relaxed);
        if admitted == terminal {
            break;
        }
        if clock.now() >= deadline {
            return Err(fail(format!(
                "leaked session slots: {admitted} admitted but only {terminal} terminal"
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // A recovered crash drill must have actually gone through a scheduler
    // restart — otherwise the drill silently degraded into a plain run.
    // Without a drill, any restart is a panic the supervisor absorbed.
    let restarts = stats.scheduler_restarts.load(Ordering::Relaxed);
    if report.crash_recoveries > 0 && restarts == 0 {
        return Err(fail(
            "crash drill recovered without a scheduler restart".to_owned(),
        ));
    }
    if !drilled && restarts > 0 {
        return Err(fail(format!(
            "{restarts} scheduler restart(s) without a crash drill"
        )));
    }
    handle.shutdown();
    Ok(report)
}

/// Checks that `wire` is, in order and [`f64::to_bits`]-exactly, a
/// subsequence of `local`; returns how many frames it matched.
fn replays_as_subsequence(wire: &[RoundUpdate], local: &[RoundUpdate]) -> Result<u64, String> {
    let mut local = local.iter().map(update_key);
    for (i, frame) in wire.iter().enumerate() {
        let key = update_key(frame);
        if !local.any(|k| k == key) {
            return Err(format!(
                "wire-round-replay: frame {i} (round {}) matches no in-process update \
                 after the previous frame's: {key:?}",
                frame.round
            ));
        }
    }
    Ok(wire.len() as u64)
}

enum ClientOutcome {
    /// A `Complete` script's answer and every round frame it received.
    Completed(rapidviz_serve::WireAnswer, Vec<RoundUpdate>),
    Answered(rapidviz_serve::WireAnswer),
    /// Answered after a disconnect + `RESUME` round-trip.
    Resumed(rapidviz_serve::WireAnswer),
    /// Answered after a `CRASH` drill + reconnect + `RESUME`.
    CrashRecovered(rapidviz_serve::WireAnswer),
    Disconnected,
    MalformedRejected,
}

/// Where `start_and_abandon` left the stream.
enum StartOutcome {
    /// Token in hand; the stream was abandoned mid-flight.
    Token(u64),
    /// The query finished before the script could interrupt it — both
    /// sides of that race must be clean.
    Answered(rapidviz_serve::WireAnswer),
}

/// Sends the query, waits for the resume-token announcement, reads
/// `frames` more frames, and returns with the stream still open but
/// abandoned (or with the answer, if the query won the race).
fn start_and_abandon(
    client: &mut WireClient,
    query: &WireQuerySpec,
    frames: u64,
) -> Result<StartOutcome, String> {
    client
        .send_request(&query.to_request())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut token: Option<u64> = None;
    let mut seen = 0u64;
    loop {
        if let Some(t) = token {
            if seen >= frames {
                return Ok(StartOutcome::Token(t));
            }
        }
        match client
            .next_frame()
            .map_err(|e| format!("read failed: {e}"))?
        {
            Some(Frame::Parked { token: t }) => token = Some(t),
            Some(Frame::Answer(a)) => return Ok(StartOutcome::Answered(a)),
            Some(Frame::Error { code, message }) => {
                return Err(format!("unexpected error {code:?}: {message}"))
            }
            Some(_) => {
                if token.is_some() {
                    seen += 1;
                }
            }
            None => return Err("stream closed before the resume token arrived".to_owned()),
        }
    }
}

/// The deterministic per-script reconnect schedule: seeded off the query
/// seed (domain-separated per chaos arm) so a repro replays the same
/// backoff jitter.
fn retry_policy(query_seed: u64, salt: u64) -> RetryPolicy {
    RetryPolicy {
        seed: query_seed ^ salt,
        ..RetryPolicy::default()
    }
}

fn run_client_script(
    addr: std::net::SocketAddr,
    script: &WireClientScript,
) -> Result<ClientOutcome, String> {
    let mut client = WireClient::connect(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect failed: {e}"))?;
    match script.behavior {
        WireBehavior::Complete => {
            let run = client
                .run_query(&script.query.to_request())
                .map_err(|e| format!("query stream failed: {e}"))?;
            match run.answer {
                Some(a) => Ok(ClientOutcome::Completed(a, run.rounds)),
                None => Err(format!("no terminal answer; error={:?}", run.error)),
            }
        }
        WireBehavior::HalfClose => {
            client
                .send_request(&script.query.to_request())
                .map_err(|e| format!("send failed: {e}"))?;
            client
                .stream()
                .shutdown(std::net::Shutdown::Write)
                .map_err(|e| format!("half-close failed: {e}"))?;
            loop {
                match client
                    .next_frame()
                    .map_err(|e| format!("read failed: {e}"))?
                {
                    Some(Frame::Answer(a)) => return Ok(ClientOutcome::Answered(a)),
                    Some(Frame::Error { code, message }) => {
                        return Err(format!("unexpected error {code:?}: {message}"))
                    }
                    Some(_) => {}
                    None => return Err("stream closed without terminal frame".to_owned()),
                }
            }
        }
        WireBehavior::DisconnectAfter(frames) => {
            client
                .send_request(&script.query.to_request())
                .map_err(|e| format!("send failed: {e}"))?;
            for _ in 0..frames {
                // Terminal may legitimately arrive before we bail; both
                // sides of the race must be clean. Stop at a terminal
                // frame — the server sends nothing further for this
                // query, so waiting for more would just hit the read
                // timeout.
                match client.next_frame() {
                    Ok(Some(Frame::Round(_) | Frame::Evicted { .. })) => {}
                    Ok(Some(_)) | Ok(None) | Err(_) => break,
                }
            }
            Ok(ClientOutcome::Disconnected)
        }
        WireBehavior::Malformed => {
            client
                .send_line("QUERY this is not the grammar")
                .map_err(|e| format!("send failed: {e}"))?;
            match client
                .next_frame()
                .map_err(|e| format!("read failed: {e}"))?
            {
                Some(Frame::Error {
                    code: ErrorCode::Malformed,
                    ..
                }) => Ok(ClientOutcome::MalformedRejected),
                other => Err(format!("expected Malformed error, got {other:?}")),
            }
        }
        WireBehavior::MissingColumn => {
            let mut req = QueryRequest::avg("g", "v", script.query.seed);
            req.filter = Some(FilterSpec::Eq("nope".into(), "f0".into()));
            let run = client
                .run_query(&req)
                .map_err(|e| format!("query stream failed: {e}"))?;
            match run.error {
                Some((ErrorCode::InvalidQuery, _)) => Ok(ClientOutcome::MalformedRejected),
                other => Err(format!(
                    "expected InvalidQuery for a missing filter column, got {other:?}"
                )),
            }
        }
        WireBehavior::DisconnectReconnect(frames) => {
            let token = match start_and_abandon(&mut client, &script.query, frames)? {
                StartOutcome::Token(t) => t,
                StartOutcome::Answered(a) => return Ok(ClientOutcome::Answered(a)),
            };
            drop(client);
            let policy = retry_policy(script.query.seed, 0x5245_434f_4e4e_4543);
            let (mut conn, _retries) =
                WireClient::connect_with_retry(addr, Duration::from_secs(30), &policy)
                    .map_err(|e| format!("reconnect failed: {e}"))?;
            let run = conn
                .resume(token)
                .map_err(|e| format!("resume stream failed: {e}"))?;
            if let Some(a) = run.answer {
                return Ok(ClientOutcome::Resumed(a));
            }
            match run.error {
                // The server kept running the session after we vanished
                // and may finish (and discard the token) before the
                // RESUME lands — losing that race is a clean disconnect,
                // not a failure.
                Some((ErrorCode::NoSuchToken, _)) => Ok(ClientOutcome::Disconnected),
                other => Err(format!("resume got no answer; error={other:?}")),
            }
        }
        WireBehavior::CrashRestart(frames) => {
            // Pre-open the drill connection so its accept/spawn latency
            // is paid before the victim session starts — the CRASH then
            // lands within the session's lifetime far more often.
            let mut killer = WireClient::connect(addr, Duration::from_secs(30))
                .map_err(|e| format!("drill connect failed: {e}"))?;
            let token = match start_and_abandon(&mut client, &script.query, frames)? {
                StartOutcome::Token(t) => t,
                StartOutcome::Answered(a) => return Ok(ClientOutcome::Answered(a)),
            };
            killer
                .send_line("CRASH")
                .map_err(|e| format!("drill send failed: {e}"))?;
            drop(killer);
            // The victim stream must die cleanly: closed, never a
            // fabricated terminal error. An answer may still race in if
            // the session completed before the drill landed.
            loop {
                match client.next_frame() {
                    Ok(Some(Frame::Answer(a))) => return Ok(ClientOutcome::Answered(a)),
                    Ok(Some(Frame::Error { code, message })) => {
                        return Err(format!(
                            "crash fabricated a terminal error {code:?}: {message}"
                        ))
                    }
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
            drop(client);
            let policy = retry_policy(script.query.seed, 0x4352_4153_4852_4543);
            let (mut conn, _retries) =
                WireClient::connect_with_retry(addr, Duration::from_secs(30), &policy)
                    .map_err(|e| format!("post-crash reconnect failed: {e}"))?;
            let run = conn
                .resume(token)
                .map_err(|e| format!("post-crash resume failed: {e}"))?;
            match run.answer {
                // No race excuse here: the victim saw no answer, so the
                // checkpoint must have survived the crash in the registry
                // and the resume must recover it.
                Some(a) => Ok(ClientOutcome::CrashRecovered(a)),
                None => Err(format!(
                    "post-crash resume got no answer; error={:?}",
                    run.error
                )),
            }
        }
    }
}

/// Runs `count` wire episodes derived from `base_seed`, panicking with a
/// `SIM_SEED=<u64> POLICY=Wire` repro on the first failure.
pub fn run_wire_batch(base_seed: u64, count: u64) -> WireReport {
    let mut aggregate = WireReport::default();
    for i in 0..count {
        let seed = crate::batch_seed(base_seed, i);
        match run_wire_episode(&wire_episode_plan(seed)) {
            Ok(r) => {
                aggregate.episodes += r.episodes;
                aggregate.verified_answers += r.verified_answers;
                aggregate.disconnects += r.disconnects;
                aggregate.malformed_rejections += r.malformed_rejections;
                aggregate.resumed_answers += r.resumed_answers;
                aggregate.crash_recoveries += r.crash_recoveries;
                aggregate.replayed_rounds += r.replayed_rounds;
            }
            Err(failure) => panic!("{}", failure.report()),
        }
    }
    aggregate
}
