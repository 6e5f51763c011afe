//! Loopback end-to-end: the wire protocol must be a transparent window
//! onto the in-process engine — same seed, byte-identical estimates
//! (`f64::to_bits` equal), whether the comparison is against a blocking
//! `execute()` or a streamed session's round updates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::NeedleTail;
use rapidviz::needletail::SeededFaults;
use rapidviz::{Aggregate, AlgorithmChoice, RoundUpdate, StepOutcome, VizQuery};
use rapidviz_datagen::FlightModel;
use rapidviz_serve::{
    ErrorCode, Frame, QueryRequest, Server, ServerConfig, ServerHandle, WireClient,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const TABLE_SEED: u64 = 11;
const ROWS: u64 = 4_000;

fn flight_engine() -> NeedleTail {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);
    let table = FlightModel::new(TABLE_SEED).to_table(ROWS, &mut rng);
    NeedleTail::new(table, &["name"]).expect("flight engine builds")
}

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::start(flight_engine(), config).expect("server binds")
}

fn connect(handle: &ServerHandle) -> WireClient {
    WireClient::connect(handle.local_addr(), Duration::from_secs(30)).expect("client connects")
}

/// A small bounded query: truncates rather than converges, which is fine
/// — byte-equality is about determinism, not the stopping rule.
fn bounded_request(seed: u64, aggregate: Aggregate, measure: &str) -> QueryRequest {
    let mut req = QueryRequest::avg("name", measure, seed);
    req.aggregate = aggregate;
    req.max_samples = Some(3_000);
    req.samples_per_round = Some(64);
    req
}

fn in_process_answer(req: &QueryRequest) -> rapidviz::QueryAnswer {
    let engine = flight_engine();
    let mut q = VizQuery::new(&engine);
    for col in &req.group_by {
        q = q.group_by(col.clone());
    }
    q = match req.aggregate {
        Aggregate::Avg => q.avg(req.measure.clone()),
        Aggregate::Sum => q.sum(req.measure.clone()),
        Aggregate::Count => q.count(req.measure.clone()),
    };
    if let Some(f) = &req.filter {
        q = q.filter(f.to_predicate());
    }
    if let Some(s) = req.samples_per_round {
        q = q.samples_per_round(s);
    }
    if let Some(m) = req.max_samples {
        q = q.max_samples(m);
    }
    let mut rng = StdRng::seed_from_u64(req.seed);
    q.execute(&mut rng).expect("in-process query runs")
}

#[test]
fn wire_answer_byte_identical_to_in_process() {
    let handle = start_server(ServerConfig::default());
    for (seed, agg, measure) in [
        (7, Aggregate::Avg, "arr_delay"),
        (8, Aggregate::Sum, "elapsed"),
        (9, Aggregate::Count, "dep_delay"),
    ] {
        let req = bounded_request(seed, agg, measure);
        let reference = in_process_answer(&req);
        let run = connect(&handle).run_query(&req).expect("wire query runs");
        let answer = run.answer.unwrap_or_else(|| {
            panic!(
                "terminal answer for {agg:?} over {measure}; error={:?}",
                run.error
            )
        });
        assert_eq!(answer.labels, reference.result.labels);
        assert_eq!(answer.outcome, reference.outcome);
        assert_eq!(answer.rounds, reference.result.rounds);
        assert_eq!(answer.population, reference.population);
        assert_eq!(answer.samples_per_group, reference.result.samples_per_group);
        let wire_bits: Vec<u64> = answer.estimates.iter().map(|e| e.to_bits()).collect();
        let ref_bits: Vec<u64> = reference
            .result
            .estimates
            .iter()
            .map(|e| e.to_bits())
            .collect();
        assert_eq!(
            wire_bits, ref_bits,
            "{agg:?} over {measure} diverged on the wire"
        );
    }
    handle.shutdown();
}

/// A round update with every float as its bit pattern, so `==` is
/// `to_bits` equality field by field.
#[derive(Debug, PartialEq)]
struct UpdateBits {
    outcome: StepOutcome,
    /// `round`, `total_samples`, `snapshot.rounds`.
    counters: [u64; 3],
    fraction: u64,
    newly_certified: Vec<usize>,
    labels: Vec<String>,
    estimates: Vec<u64>,
    intervals: Vec<(u64, u64)>,
    active: Vec<bool>,
    samples_per_group: Vec<u64>,
    truncated: bool,
}

fn update_bits(u: &RoundUpdate) -> UpdateBits {
    let s = &u.snapshot;
    UpdateBits {
        outcome: u.outcome,
        counters: [u.round, u.total_samples, s.rounds],
        fraction: u.fraction_sampled.to_bits(),
        newly_certified: u.newly_certified.clone(),
        labels: s.labels.clone(),
        estimates: s.estimates.iter().map(|e| e.to_bits()).collect(),
        intervals: s
            .intervals
            .iter()
            .map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()))
            .collect(),
        active: s.active.clone(),
        samples_per_group: s.samples_per_group.clone(),
        truncated: s.truncated,
    }
}

/// Every update of in-process sessions — AVG under each algorithm, SUM
/// and COUNT, with and without dropped reads — comes back from `encode`
/// then `decode` bit for bit.
#[test]
fn every_session_update_survives_encode_and_decode() {
    for faults in [None, Some(SeededFaults::new(7, 0.05))] {
        let mut engine = flight_engine();
        if let Some(f) = faults {
            engine.set_fault_injector(Arc::new(f));
        }
        let algorithms = [
            AlgorithmChoice::IFocus,
            AlgorithmChoice::IRefine,
            AlgorithmChoice::RoundRobin,
            AlgorithmChoice::ExactScan,
        ];
        let queries = algorithms
            .map(|a| VizQuery::new(&engine).avg("arr_delay").algorithm(a))
            .into_iter()
            .chain([
                VizQuery::new(&engine).sum("arr_delay"),
                VizQuery::new(&engine).count("arr_delay"),
            ]);
        for (i, query) in queries.enumerate() {
            let mut session = query
                .group_by("name")
                .samples_per_round(64)
                .max_samples(3_000)
                .start(StdRng::seed_from_u64(40 + i as u64))
                .expect("session starts");
            loop {
                let update = session.step();
                let payload = Frame::from_update(&update).encode();
                match Frame::decode(&payload) {
                    Ok(Frame::Round(back)) => {
                        assert_eq!(update_bits(&back), update_bits(&update), "query {i}");
                    }
                    other => panic!("query {i} round {}: {other:?}", update.round),
                }
                if !update.outcome.is_running() {
                    break;
                }
            }
        }
    }
}

#[test]
fn wire_round_stream_matches_in_process_session() {
    // Queue large enough that nothing is ever dropped, so the full round
    // stream must replay the standalone session exactly.
    let handle = start_server(ServerConfig {
        frame_queue: 4_096,
        ..ServerConfig::default()
    });
    let req = bounded_request(21, Aggregate::Avg, "arr_delay");

    let engine = flight_engine();
    let mut session = VizQuery::new(&engine)
        .group_by("name")
        .avg("arr_delay")
        .samples_per_round(req.samples_per_round.unwrap())
        .max_samples(req.max_samples.unwrap())
        .start(StdRng::seed_from_u64(req.seed))
        .expect("session starts");
    let mut reference = Vec::new();
    loop {
        let update = session.step();
        let done = update.outcome != StepOutcome::Running;
        reference.push(update);
        if done {
            break;
        }
    }

    let run = connect(&handle).run_query(&req).expect("wire query runs");
    assert_eq!(
        handle.stats().frames_dropped_slow.load(Ordering::Relaxed),
        0,
        "queue was sized to never drop"
    );
    assert_eq!(run.rounds.len(), reference.len());
    for (wire, local) in run.rounds.iter().zip(&reference) {
        assert_eq!(update_bits(wire), update_bits(local));
    }
    // The terminal answer agrees with the session's own final snapshot.
    let answer = run.answer.expect("terminal answer");
    let last = reference.last().unwrap();
    assert_eq!(answer.rounds, last.snapshot.rounds);
    handle.shutdown();
}

#[test]
fn filtered_query_round_trips() {
    let handle = start_server(ServerConfig::default());
    let mut req = bounded_request(33, Aggregate::Avg, "elapsed");
    req.filter = Some(rapidviz_serve::FilterSpec::In(
        "name".into(),
        vec!["UA".into(), "AA".into()],
    ));
    let reference = in_process_answer(&req);
    let run = connect(&handle).run_query(&req).expect("wire query runs");
    let answer = run.answer.expect("terminal answer");
    assert_eq!(answer.labels, reference.result.labels);
    let wire_bits: Vec<u64> = answer.estimates.iter().map(|e| e.to_bits()).collect();
    let ref_bits: Vec<u64> = reference
        .result
        .estimates
        .iter()
        .map(|e| e.to_bits())
        .collect();
    assert_eq!(wire_bits, ref_bits);
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_all_reach_terminal_frames() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let answers: Vec<bool> = std::thread::scope(|scope| {
        (0..8u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        WireClient::connect(addr, Duration::from_secs(30)).expect("connects");
                    let measure = ["elapsed", "arr_delay", "dep_delay"][(c % 3) as usize];
                    let agg = [Aggregate::Avg, Aggregate::Sum, Aggregate::Count][(c % 3) as usize];
                    let req = bounded_request(100 + c, agg, measure);
                    client.run_query(&req).expect("query runs").terminated()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert!(
        answers.iter().all(|&t| t),
        "every client got a terminal frame"
    );
    let stats = handle.stats();
    assert_eq!(stats.sessions_admitted.load(Ordering::Relaxed), 8);
    assert_eq!(stats.sessions_completed.load(Ordering::Relaxed), 8);
    assert_eq!(stats.sessions_cancelled.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn stats_frame_reports_sessions_and_cache_counters() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    // Two identical filtered queries: the second must plan warm.
    let mut req = bounded_request(55, Aggregate::Avg, "arr_delay");
    req.filter = Some(rapidviz_serve::FilterSpec::Eq("name".into(), "UA".into()));
    req.max_samples = Some(500);
    for _ in 0..2 {
        let run = connect(&handle).run_query(&req).expect("query runs");
        assert!(run.answer.is_some());
    }
    let stats = client.stats().expect("stats round-trip");
    assert_eq!(stats.sessions_admitted, 2);
    assert_eq!(stats.sessions_completed, 2);
    assert!(stats.frames_sent > 0);
    // The repeat query hit the plan cache; the engine-level counters
    // surface through the stats frame.
    assert!(
        stats.plan_cache.0 >= 1,
        "warm repeat should register plan cache hits, got {:?}",
        stats.plan_cache
    );
    handle.shutdown();
}

#[test]
fn eviction_notice_arrives_as_frame_before_best_effort_answer() {
    // A tiny per-session memory cap forces eviction almost immediately.
    let handle = start_server(ServerConfig {
        session_memory_cap: Some(1),
        ..ServerConfig::default()
    });
    let req = bounded_request(77, Aggregate::Avg, "elapsed");
    let run = connect(&handle).run_query(&req).expect("query runs");
    assert!(run.evicted.is_some(), "eviction notice frame expected");
    let answer = run.answer.expect("best-effort answer after eviction");
    assert!(answer.truncated || answer.outcome != StepOutcome::Converged);
    handle.shutdown();
}

#[test]
fn global_budget_exhaustion_yields_best_effort_answers() {
    let handle = start_server(ServerConfig {
        global_sample_budget: Some(1_000),
        ..ServerConfig::default()
    });
    // Two queries wanting far more than the shared budget.
    let addr = handle.local_addr();
    let results: Vec<_> = std::thread::scope(|scope| {
        (0..2u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        WireClient::connect(addr, Duration::from_secs(30)).expect("connects");
                    client
                        .run_query(&bounded_request(200 + c, Aggregate::Avg, "arr_delay"))
                        .expect("query runs")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for run in &results {
        let answer = run.answer.as_ref().expect("best-effort terminal answer");
        assert_ne!(answer.outcome, StepOutcome::Converged);
    }
    handle.shutdown();
}

#[test]
fn invalid_query_rejected_with_structured_error() {
    let handle = start_server(ServerConfig::default());
    let req = bounded_request(1, Aggregate::Avg, "no_such_column");
    let run = connect(&handle).run_query(&req).expect("error round-trips");
    assert!(run.answer.is_none());
    let (code, message) = run.error.expect("structured error frame");
    assert_eq!(code, ErrorCode::InvalidQuery);
    assert!(!message.is_empty());
    assert_eq!(handle.stats().sessions_rejected.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn connection_serves_sequential_queries_and_stats() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    for seed in [301, 302] {
        let mut req = bounded_request(seed, Aggregate::Avg, "elapsed");
        req.max_samples = Some(500);
        let run = client.run_query(&req).expect("query runs");
        assert!(run.answer.is_some());
    }
    let stats = client.stats().expect("stats after queries");
    assert_eq!(stats.sessions_completed, 2);
    // And the connection still works after a STATS.
    let run = client
        .run_query(&bounded_request(303, Aggregate::Count, "elapsed"))
        .expect("query after stats");
    assert!(run.answer.is_some());
    handle.shutdown();
}

#[test]
fn frame_decode_helper_matches_known_frame() {
    // Spot-check the documented layout: an Evicted frame is tag 0x04 plus
    // a u64 LE — 9 payload bytes exactly.
    let payload = (Frame::Evicted { bytes: 0x0102_0304 }).encode();
    assert_eq!(payload.len(), 9);
    assert_eq!(payload[0], 0x04);
    assert_eq!(&payload[1..5], &[0x04, 0x03, 0x02, 0x01]);
}
