//! Durable-session end-to-end: disconnect parks, `RESUME` re-attaches,
//! a scheduler crash loses nothing the registry holds, and a drained
//! server's sessions survive into a successor sharing the registry. The
//! invariant throughout is the repo's north star: every resumed round is
//! **byte-identical** (`f64::to_bits` equal) to the same round of the
//! uninterrupted in-process run with the same seed.
//!
//! Each interruption lands on a session that cannot end first (see
//! [`endless_request`]), so no outcome here depends on how the server's
//! threads are scheduled against the test's.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Schema, TableBuilder, Value};
use rapidviz::{
    ParkingRegistry, RoundUpdate, SessionCheckpoint, SimulatedClock, StepOutcome, VizQuery,
};
use rapidviz_serve::{
    ErrorCode, Frame, QueryRequest, RetryPolicy, Server, ServerConfig, ServerHandle, WireClient,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Two groups of 2^19 rows each, holding the same multiset of values in
/// `0..100`, so their means tie exactly. An AVG session over them
/// separates the two only if one interval misses its true mean, which
/// happens with probability at most δ over the whole run; otherwise it
/// ends only once both groups are drawn out (see [`endless_request`]).
fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..1u32 << 20 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        b.push_row(vec![g.into(), Value::Float(f64::from((i / 2) % 100))]);
    }
    NeedleTail::new(b.finish(), &["g"]).expect("tied engine builds")
}

/// A server that lets [`endless_request`] run uncapped, with a frame queue
/// deep enough that the first resumed rounds are never dropped.
fn durable_config() -> ServerConfig {
    ServerConfig {
        frame_queue: 4_096,
        per_client_max_samples: u64::MAX,
        ..ServerConfig::default()
    }
}

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::start(engine(), config).expect("server binds")
}

fn connect(handle: &ServerHandle) -> WireClient {
    WireClient::connect(handle.local_addr(), Duration::from_secs(30)).expect("client connects")
}

/// AVG over the tie at δ = 1e-9, one sample per group and round, with no
/// sample cap under [`durable_config`]. Except with probability at most
/// 1e-9 it runs until both groups are drawn out, at round 524,288: about
/// 1.7 s of uninterrupted stepping for a release build on a 2-core x86-64
/// host, far longer than any disconnect, crash or drain here takes to land.
/// One sample per round makes each row cost a whole round, which is what
/// stretches the run.
fn endless_request(seed: u64) -> QueryRequest {
    let mut req = QueryRequest::avg("g", "v", seed);
    req.delta = Some(1e-9);
    req.samples_per_round = Some(1);
    req
}

fn bits(estimates: &[f64]) -> Vec<u64> {
    estimates.iter().map(|e| e.to_bits()).collect()
}

/// Asserts every wire round (in stream order) is bit-identical to the same
/// round of the uninterrupted in-process run of [`endless_request`]`(seed)`.
fn assert_matches_uninterrupted(rounds: &[RoundUpdate], seed: u64) {
    let engine = engine();
    let mut session = VizQuery::new(&engine)
        .group_by("g")
        .avg("v")
        .delta(1e-9)
        .samples_per_round(1)
        .max_samples(u64::MAX)
        .start(StdRng::seed_from_u64(seed))
        .expect("session starts");
    for wire in rounds {
        let local = loop {
            let update = session.step();
            assert_eq!(update.outcome, StepOutcome::Running, "the tie separated");
            if update.round >= wire.round {
                break update;
            }
        };
        assert_eq!(local.round, wire.round, "round missing from the reference");
        assert_eq!(wire.total_samples, local.total_samples);
        assert_eq!(
            wire.snapshot.samples_per_group,
            local.snapshot.samples_per_group
        );
        assert_eq!(
            bits(&wire.snapshot.estimates),
            bits(&local.snapshot.estimates),
            "round {} diverged from the uninterrupted run",
            wire.round
        );
    }
}

/// Sends `RESUME` for `token` and reads the next `n` round frames of the
/// resumed stream, checking that the token is announced again.
fn resume_rounds(client: &mut WireClient, token: u64, n: usize) -> Vec<RoundUpdate> {
    client
        .send_line(&format!("RESUME token={token}"))
        .expect("resume sent");
    let mut announced = false;
    let mut rounds = Vec::new();
    while rounds.len() < n {
        match client.next_frame().expect("frame decodes") {
            Some(Frame::Parked { token: t }) => {
                assert_eq!(t, token, "the token survives the resume");
                announced = true;
            }
            Some(Frame::Round(round)) => rounds.push(round),
            other => panic!("the resumed session must keep streaming, got {other:?}"),
        }
    }
    assert!(announced, "the resumed stream re-announces its token");
    rounds
}

/// Sends `req`, reads frames until the resume token and at least
/// `rounds` round frames have arrived, then drops the connection —
/// the canonical mid-stream vanish. Returns the token and the last round
/// seen.
fn start_and_vanish(handle: &ServerHandle, req: &QueryRequest, rounds: usize) -> (u64, u64) {
    let mut client = connect(handle);
    client.send_request(req).expect("request sent");
    let mut token = None;
    let mut seen = Vec::new();
    while token.is_none() || seen.len() < rounds {
        match client.next_frame().expect("frame decodes") {
            Some(Frame::Parked { token: t }) => token = Some(t),
            Some(Frame::Round(r)) => seen.push(r.round),
            Some(other) => panic!("unexpected frame before vanish: {other:?}"),
            None => panic!("server closed before token + {rounds} rounds"),
        }
    }
    let last = seen.last().copied().unwrap_or(0);
    (token.expect("token announced before first rounds"), last)
}

/// Polls until the server has parked `n` sessions (disconnect handling is
/// asynchronous to the socket close).
fn wait_parked(handle: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().sessions_parked.load(Ordering::Relaxed) < n {
        assert!(Instant::now() < deadline, "session never parked");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A short AVG query that ends on its sample budget.
fn short_request(seed: u64) -> QueryRequest {
    let mut req = QueryRequest::avg("g", "v", seed);
    req.max_samples = Some(500);
    req
}

#[test]
fn token_announced_and_discarded_on_completion() {
    let handle = start_server(ServerConfig::default());
    let run = connect(&handle)
        .run_query(&short_request(3))
        .expect("query runs");
    assert!(run.answer.is_some());
    assert!(
        run.token.is_some_and(|t| t != 0),
        "durable session announces a non-zero token"
    );
    // A completed session's checkpoint is discarded, not left to the TTL.
    let stats = connect(&handle).stats().expect("stats round-trip");
    assert_eq!(stats.parked_now, 0);
    assert_eq!(stats.parked_bytes, 0);
    handle.shutdown();
}

#[test]
fn resume_after_disconnect_is_bit_identical_to_uninterrupted_run() {
    let handle = start_server(durable_config());
    let req = endless_request(71);
    let (token, last_seen) = start_and_vanish(&handle, &req, 3);
    wait_parked(&handle, 1);

    let rounds = resume_rounds(&mut connect(&handle), token, 3);
    assert!(
        rounds[0].round > last_seen,
        "the resumed stream continues past the rounds seen before the vanish"
    );
    assert_matches_uninterrupted(&rounds, req.seed);
    assert_eq!(handle.stats().sessions_resumed.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn resumed_rounds_replay_the_uninterrupted_round_stream() {
    let handle = start_server(durable_config());
    let req = endless_request(72);
    let (token, _) = start_and_vanish(&handle, &req, 3);
    wait_parked(&handle, 1);
    // A long stretch of the resumed stream: slow-client drops only thin
    // it, they never alter a delivered round.
    let rounds = resume_rounds(&mut connect(&handle), token, 200);
    assert!(
        rounds.windows(2).all(|w| w[0].round < w[1].round),
        "rounds arrive in order"
    );
    assert_matches_uninterrupted(&rounds, req.seed);
    handle.shutdown();
}

#[test]
fn crash_drops_live_sessions_but_resume_recovers_them_bit_identically() {
    let handle = start_server(ServerConfig {
        enable_crash: true,
        ..durable_config()
    });
    let req = endless_request(73);

    // Start streaming, then kill the scheduler loop from a second
    // connection mid-stream.
    let mut victim = connect(&handle);
    victim.send_request(&req).expect("request sent");
    let mut token = None;
    let mut seen = 0usize;
    while token.is_none() || seen < 2 {
        match victim.next_frame().expect("frame decodes") {
            Some(Frame::Parked { token: t }) => token = Some(t),
            Some(Frame::Round(_)) => seen += 1,
            Some(other) => panic!("unexpected frame: {other:?}"),
            None => panic!("closed before token + rounds"),
        }
    }
    let token = token.expect("token announced");
    connect(&handle).send_line("CRASH").expect("crash sent");

    // The victim's stream dies without a terminal frame — that is what a
    // crash looks like from the outside.
    let mut terminal = false;
    while let Ok(Some(frame)) = victim.next_frame() {
        if matches!(frame, Frame::Answer(_) | Frame::Error { .. }) {
            terminal = true;
        }
    }
    assert!(!terminal, "crash must not fabricate a terminal frame");
    drop(victim);

    // Reconnect with bounded seeded backoff and resume: the registry kept
    // the last refreshed checkpoint, so the stream continues exactly as
    // the uninterrupted run.
    let policy = RetryPolicy {
        seed: 73,
        ..RetryPolicy::default()
    };
    let (mut client, _retries) =
        WireClient::connect_with_retry(handle.local_addr(), Duration::from_secs(30), &policy)
            .expect("reconnects");
    let rounds = resume_rounds(&mut client, token, 3);
    drop(client);
    assert_matches_uninterrupted(&rounds, req.seed);
    let stats = handle.stats();
    assert!(
        stats.scheduler_restarts.load(Ordering::Relaxed) >= 1,
        "supervisor must have restarted the scheduler loop"
    );
    assert_eq!(stats.sessions_resumed.load(Ordering::Relaxed), 1);
    // And the restarted loop serves fresh work too.
    let run = connect(&handle)
        .run_query(&short_request(74))
        .expect("fresh query");
    assert!(run.answer.is_some());
    handle.shutdown();
}

#[test]
fn crash_verb_is_rejected_when_not_enabled() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    client.send_line("CRASH").expect("line sent");
    match client.next_frame().expect("server answers") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(handle.stats().scheduler_restarts.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn unknown_or_zero_tokens_get_structured_errors() {
    let handle = start_server(ServerConfig::default());
    let run = connect(&handle).resume(987_654).expect("error round-trips");
    assert!(run.answer.is_none());
    let (code, message) = run.error.expect("structured error frame");
    assert_eq!(code, ErrorCode::NoSuchToken);
    assert!(message.contains("987654"));
    // Token 0 is the "no token" sentinel and never valid on the wire.
    let mut client = connect(&handle);
    client.send_line("RESUME token=0").expect("line sent");
    match client.next_frame().expect("server answers") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }
    handle.shutdown();
}

/// A v2 checkpoint of a sampled COUNT session over [`engine`] (three steps
/// of `count("v")` at δ = 1e-9 and 8 samples per round, seed 78), as the
/// size-estimating COUNT path wrote it: 50 samples drawn.
const SAMPLED_COUNT_RECIPE: &str = "5256434b02000000010000000100000067010000007602000095d626e8\
    0b2e113e0000010800000000000000009c64e2df31ba095727ea2b825e54c19cfb377fa68d9307198590f9e1\
    8766619d03000000000000000200000000000000320000000000000000000000";

#[test]
fn resuming_a_stale_sampled_count_token_gets_an_error_frame() {
    let hex = SAMPLED_COUNT_RECIPE;
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect();
    let stale = SessionCheckpoint::from_bytes(&bytes).expect("a well-formed v2 recipe");
    let registry = Arc::new(Mutex::new(ParkingRegistry::new(Duration::from_secs(120))));
    let token = {
        let mut registry = registry.lock().expect("unpoisoned");
        let token = registry.reserve();
        registry
            .park_reserved(token, stale)
            .expect("the registry takes it")
    };
    let handle = Server::start_shared(engine(), durable_config(), registry).expect("server binds");

    // COUNT now draws nothing, so the recipe cannot replay: the resume
    // fails closed with a structured error, and no scheduler dies.
    let run = connect(&handle).resume(token).expect("error round-trips");
    assert!(run.answer.is_none());
    let (code, message) = run.error.expect("structured error frame");
    assert_eq!(code, ErrorCode::InvalidQuery);
    assert!(message.contains("does not replay"), "{message}");
    assert_eq!(handle.stats().scheduler_restarts.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_into_the_registry_and_a_successor_resumes() {
    let handle = start_server(durable_config());
    let registry = handle.parking();
    let req = endless_request(75);

    // Stream mid-query while the server shuts down: the drain must park
    // the live session, not cancel it.
    let mut client = connect(&handle);
    client.send_request(&req).expect("request sent");
    let token = match client.next_frame().expect("frame decodes") {
        Some(Frame::Parked { token }) => token,
        other => panic!("expected the token before any round, got {other:?}"),
    };
    let stats = Arc::clone(handle.stats());
    handle.shutdown();
    assert_eq!(
        stats.sessions_parked.load(Ordering::Relaxed),
        1,
        "graceful drain parks the in-flight session"
    );
    drop(client);

    // A successor sharing the registry picks the session back up and
    // continues the uninterrupted run's round stream.
    let successor =
        Server::start_shared(engine(), durable_config(), registry).expect("successor binds");
    let rounds = resume_rounds(&mut connect(&successor), token, 3);
    successor.shutdown();
    assert_matches_uninterrupted(&rounds, req.seed);
}

#[test]
fn parked_sessions_expire_after_the_ttl() {
    let clock = Arc::new(SimulatedClock::new());
    let registry = Arc::new(Mutex::new(ParkingRegistry::with_clock(
        Duration::from_secs(30),
        Arc::clone(&clock) as Arc<dyn rapidviz::Clock>,
    )));
    let handle = Server::start_shared(engine(), durable_config(), Arc::clone(&registry))
        .expect("server binds");
    let (token, _) = start_and_vanish(&handle, &endless_request(76), 2);
    wait_parked(&handle, 1);

    clock.advance(Duration::from_secs(31));
    let run = connect(&handle).resume(token).expect("error round-trips");
    let (code, _) = run.error.expect("expired token is an error");
    assert_eq!(code, ErrorCode::NoSuchToken);
    // The STATS frame surfaces the expiry and the now-empty registry.
    let stats = connect(&handle).stats().expect("stats round-trip");
    assert_eq!(stats.sessions_expired, 1);
    assert_eq!(stats.parked_now, 0);
    assert_eq!(stats.parked_bytes, 0);
    handle.shutdown();
}

#[test]
fn stats_frame_carries_parking_counters_over_the_wire() {
    let handle = start_server(durable_config());
    let (token, _) = start_and_vanish(&handle, &endless_request(77), 1);
    wait_parked(&handle, 1);
    let stats = connect(&handle).stats().expect("stats round-trip");
    assert_eq!(stats.sessions_parked, 1);
    assert_eq!(stats.parked_now, 1);
    assert!(stats.parked_bytes > 0, "parked bytes are accounted");
    assert_eq!(stats.sessions_resumed, 0);
    assert_eq!(stats.scheduler_restarts, 0);
    // Resume it: the counter ticks, and the live session's durability
    // shadow keeps its one registry entry under the same token.
    let mut client = connect(&handle);
    resume_rounds(&mut client, token, 1);
    let stats = connect(&handle).stats().expect("stats round-trip");
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.parked_now, 1);
    drop(client);
    handle.shutdown();
}
