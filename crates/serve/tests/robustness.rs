//! Protocol robustness: malformed requests, oversized lines, partial
//! writes split at every byte boundary, disconnects racing the terminal
//! update, and capacity rejection. The server must answer with a
//! structured error frame or a clean close — never a panic, never a
//! leaked session slot.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Schema, TableBuilder, Value};
use rapidviz::{StepOutcome, VizQuery};
use rapidviz_datagen::FlightModel;
use rapidviz_serve::{
    ErrorCode, FilterSpec, Frame, QueryRequest, Server, ServerConfig, ServerHandle, WireClient,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const TABLE_SEED: u64 = 5;
const ROWS: u64 = 20_000;

fn engine() -> NeedleTail {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);
    let table = FlightModel::new(TABLE_SEED).to_table(ROWS, &mut rng);
    NeedleTail::new(table, &["name"]).expect("flight engine builds")
}

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::start(engine(), config).expect("server binds")
}

/// Two groups of 2^19 rows each, holding the same multiset of values in
/// `0..100`, so their means tie exactly.
fn tied_engine() -> NeedleTail {
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

/// AVG over [`tied_engine`]'s tie at δ = 1e-9, one sample per group and
/// round, uncapped on a server with an unbounded per-client ceiling.
/// Except with probability at most 1e-9 it runs until both groups are
/// drawn out, at round 524,288 (about 1.7 s of uninterrupted stepping for
/// a release build on a 2-core x86-64 host), so it is still running
/// whenever its client vanishes.
fn endless_request(seed: u64) -> QueryRequest {
    let mut req = QueryRequest::avg("g", "v", seed);
    req.delta = Some(1e-9);
    req.samples_per_round = Some(1);
    req
}

fn connect(handle: &ServerHandle) -> WireClient {
    WireClient::connect(handle.local_addr(), Duration::from_secs(30)).expect("client connects")
}

/// Admitted sessions must all leave the scheduler (completed, cancelled,
/// or parked for later resume) shortly after their clients go away — a
/// leaked slot shows up as this never converging.
fn assert_no_leaked_slots(handle: &ServerHandle) {
    let stats = handle.stats();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let admitted = stats.sessions_admitted.load(Ordering::Relaxed);
        let terminal = stats.sessions_completed.load(Ordering::Relaxed)
            + stats.sessions_cancelled.load(Ordering::Relaxed)
            + stats.sessions_parked.load(Ordering::Relaxed);
        if admitted == terminal {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked session slots: {admitted} admitted, {terminal} terminal"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Unrefused, a zero sample ceiling would kill the scheduler thread on the
/// first query, a zero TTL or byte cap would panic inside `start`, and a
/// zero global budget would panic inside it too.
#[test]
fn non_positive_config_fields_are_refused_at_start() {
    for bad in [
        ServerConfig {
            per_client_max_samples: 0,
            ..ServerConfig::default()
        },
        ServerConfig {
            park_ttl: Duration::ZERO,
            ..ServerConfig::default()
        },
        ServerConfig {
            park_byte_cap: Some(0),
            ..ServerConfig::default()
        },
        ServerConfig {
            global_sample_budget: Some(0),
            ..ServerConfig::default()
        },
    ] {
        let err = Server::start(engine(), bad)
            .err()
            .expect("a non-positive field is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

#[test]
fn malformed_request_lines_get_structured_errors() {
    let handle = start_server(ServerConfig::default());
    for bad in [
        "FROB",
        "QUERY",
        "QUERY group=name agg=avg measure=elapsed", // missing seed
        "QUERY group=name agg=median measure=elapsed seed=1",
        "QUERY group=name agg=avg measure=elapsed seed=1 delta=nope",
        "\u{1f600} not even ascii",
    ] {
        let mut client = connect(&handle);
        client.send_line(bad).expect("line sent");
        match client.next_frame().expect("server answers, never resets") {
            Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed, "{bad:?}"),
            other => panic!("{bad:?}: expected error frame, got {other:?}"),
        }
        // The server closes after an error frame.
        assert!(client.next_frame().expect("clean close").is_none());
    }
    // Binary garbage that never contains a newline within the cap.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
    stream
        .write_all(&vec![0xA5u8; 8 * 1024])
        .expect("garbage sent");
    stream.flush().expect("flush");
    let got = rapidviz_serve::read_frame(&mut stream).expect("server answers");
    match got {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected oversized-line error, got {other:?}"),
    }
    assert_eq!(handle.stats().sessions_admitted.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn count_with_a_filter_is_answered_over_the_filtered_rows() {
    let handle = start_server(ServerConfig::default());
    let filter = FilterSpec::In("name".into(), vec!["AA".into(), "UA".into()]);
    let mut req = QueryRequest::avg("name", "elapsed", 1);
    req.aggregate = rapidviz::Aggregate::Count;
    req.filter = Some(filter.clone());
    let run = connect(&handle).run_query(&req).expect("query runs");
    let answer = run.answer.expect("COUNT answers");
    assert_eq!(answer.outcome, StepOutcome::Converged);
    assert_eq!(answer.samples_per_group, [0, 0], "COUNT draws nothing");

    // Bit-identical to the in-process answer, which is each filtered
    // group's row count over the relation's row count.
    let engine = engine();
    let filter = filter.to_predicate();
    let local = VizQuery::new(&engine)
        .group_by("name")
        .count("elapsed")
        .filter(filter.clone())
        .execute(&mut StdRng::seed_from_u64(1))
        .expect("in-process COUNT");
    assert_eq!(answer.labels, local.result.labels);
    let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&answer.estimates), bits(&local.result.estimates));
    let scanned = engine.scan("name", "elapsed", &filter).expect("scan");
    for g in scanned.into_iter().filter(|g| g.count > 0) {
        let i = answer.labels.iter().position(|l| *l == g.group.to_string());
        let estimate = answer.estimates[i.expect("scanned group answered")];
        assert_eq!(estimate, g.count as f64 / ROWS as f64);
    }
    handle.shutdown();
}

#[test]
fn filter_on_a_missing_column_is_rejected_without_a_scheduler_restart() {
    let handle = start_server(ServerConfig::default());
    // A long session streaming on its own connection while the bad
    // queries arrive: a scheduler panic would drop it.
    let mut streaming = connect(&handle);
    streaming
        .send_line("QUERY group=name agg=avg measure=elapsed seed=3 spr=1 max_samples=20000")
        .expect("line sent");
    loop {
        match streaming.next_frame().expect("server answers") {
            Some(Frame::Round(_)) => break,
            Some(Frame::Parked { .. }) => {}
            other => panic!("expected the stream to start, got {other:?}"),
        }
    }
    for bad in [
        "QUERY group=name agg=avg measure=elapsed seed=1 filter=eq:nope:AA",
        "QUERY group=name agg=avg measure=elapsed seed=1 filter=in:nope:AA|JB",
    ] {
        let mut client = connect(&handle);
        client.send_line(bad).expect("line sent");
        match client.next_frame().expect("server answers, never resets") {
            Some(Frame::Error { code, message }) => {
                assert_eq!(code, ErrorCode::InvalidQuery, "{bad:?}");
                assert!(message.contains("nope"), "{message}");
            }
            other => panic!("{bad:?}: expected an InvalidQuery error frame, got {other:?}"),
        }
    }
    loop {
        match streaming.next_frame().expect("stream survives") {
            Some(Frame::Answer(_)) => break,
            Some(Frame::Error { code, message }) => panic!("error {code:?}: {message}"),
            Some(_) => {}
            None => panic!("streaming session dropped without an answer"),
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.scheduler_restarts.load(Ordering::Relaxed), 0);
    assert_eq!(stats.sessions_rejected.load(Ordering::Relaxed), 2);
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

/// A filter that matches no row plans no group: every aggregate answers
/// it empty and converged, and no scheduler shard restarts.
#[test]
fn a_filter_that_matches_no_row_is_answered_empty() {
    let handle = start_server(ServerConfig::default());
    for agg in ["avg", "sum", "count"] {
        let mut client = connect(&handle);
        client
            .send_line(&format!(
                "QUERY group=name agg={agg} measure=elapsed seed=1 filter=eq:name:nope"
            ))
            .expect("line sent");
        loop {
            match client.next_frame().expect("server answers, never resets") {
                Some(Frame::Answer(answer)) => {
                    assert_eq!(answer.outcome, StepOutcome::Converged, "{agg}");
                    assert!(answer.labels.is_empty(), "{agg}: {:?}", answer.labels);
                    break;
                }
                Some(Frame::Error { code, message }) => panic!("{agg}: {code:?}: {message}"),
                Some(_) => {}
                None => panic!("{agg}: closed without an answer"),
            }
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.scheduler_restarts.load(Ordering::Relaxed), 0);
    assert_eq!(stats.sessions_crashed.load(Ordering::Relaxed), 0);
    assert_eq!(stats.sessions_admitted.load(Ordering::Relaxed), 3);
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

#[test]
fn hostile_round_size_is_clamped_to_the_sample_budget() {
    let handle = start_server(ServerConfig::default());
    for agg in ["avg", "sum"] {
        let mut client = connect(&handle);
        client
            .send_line(&format!(
                "QUERY group=name agg={agg} measure=elapsed seed=1 max_samples=100 \
                 spr=18446744073709551615"
            ))
            .expect("line sent");
        let answer = loop {
            match client.next_frame().expect("server answers, never resets") {
                Some(Frame::Answer(answer)) => break answer,
                Some(Frame::Error { code, message }) => panic!("error {code:?}: {message}"),
                Some(_) => {}
                None => panic!("connection closed without an answer"),
            }
        };
        // The budget is checked between rounds: the bootstrap sample per
        // group (14 groups, under the budget) plus one round, whose batch
        // is clamped to the group's share ⌈100 / 14⌉ of the budget.
        let groups = answer.samples_per_group.len() as u64;
        let share = 100u64.div_ceil(groups);
        let drawn: u64 = answer.samples_per_group.iter().sum();
        assert!(
            drawn <= groups * (1 + share),
            "{agg}: {drawn} samples over {groups} groups"
        );
        assert_eq!(answer.rounds, 1 + share, "{agg}");
    }
    assert_eq!(handle.stats().scheduler_restarts.load(Ordering::Relaxed), 0);
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

#[test]
fn request_split_at_every_byte_boundary_still_parses() {
    let handle = start_server(ServerConfig::default());
    let mut req = QueryRequest::avg("name", "elapsed", 9);
    req.max_samples = Some(200);
    req.samples_per_round = Some(100);
    let line = format!("{}\n", req.to_line());
    let bytes = line.as_bytes();
    for split in 1..bytes.len() {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&bytes[..split]).expect("first half");
        stream.flush().expect("flush");
        // Give the reader a chance to observe the partial line.
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&bytes[split..]).expect("second half");
        stream.flush().expect("flush");
        let mut saw_answer = false;
        while let Some(frame) = rapidviz_serve::read_frame(&mut stream).expect("frames decode") {
            match frame {
                Frame::Answer(_) => {
                    saw_answer = true;
                    break;
                }
                Frame::Error { code, message } => {
                    panic!("split at {split}: unexpected error {code:?}: {message}")
                }
                _ => {}
            }
        }
        assert!(saw_answer, "split at {split}: no terminal answer");
    }
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

#[test]
fn stats_command_survives_byte_at_a_time_writes() {
    let handle = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for b in b"STATS\n" {
        stream.write_all(&[*b]).expect("byte sent");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    match rapidviz_serve::read_frame(&mut stream).expect("stats decodes") {
        Some(Frame::Stats(_)) => {}
        other => panic!("expected stats frame, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn disconnect_mid_stream_parks_without_panic_or_leak() {
    let config = ServerConfig {
        per_client_max_samples: u64::MAX,
        ..ServerConfig::default()
    };
    let handle = Server::start(tied_engine(), config).expect("server binds");
    for seed in 0..4u64 {
        let mut client = connect(&handle);
        // A session that cannot end first, so the disconnect lands
        // mid-stream however the server's threads are scheduled.
        client
            .send_request(&endless_request(seed))
            .expect("request sent");
        // Read a couple of frames to be sure the session is live, then
        // vanish.
        for _ in 0..2 {
            let _ = client.next_frame();
        }
        drop(client);
    }
    assert_no_leaked_slots(&handle);
    // Long-running durable sessions park on disconnect (resumable for
    // the TTL) instead of being cancelled outright.
    assert_eq!(
        handle.stats().sessions_parked.load(Ordering::Relaxed),
        4,
        "disconnected durable sessions should park"
    );
    // The server still serves new work afterwards.
    let mut client = connect(&handle);
    let mut req = QueryRequest::avg("g", "v", 99);
    req.max_samples = Some(200);
    let run = client.run_query(&req).expect("query after disconnects");
    assert!(run.answer.is_some());
    handle.shutdown();
}

#[test]
fn disconnect_racing_terminal_update_is_clean() {
    let handle = start_server(ServerConfig::default());
    // Tiny queries finish almost immediately — dropping the connection
    // right after sending races the terminal frame delivery.
    for seed in 0..16u64 {
        let mut client = connect(&handle);
        let mut req = QueryRequest::avg("name", "elapsed", seed);
        req.max_samples = Some(100);
        req.samples_per_round = Some(100);
        client.send_request(&req).expect("request sent");
        drop(client);
    }
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

#[test]
fn over_capacity_connect_gets_structured_rejection() {
    let handle = start_server(ServerConfig {
        max_clients: 1,
        ..ServerConfig::default()
    });
    let _holder = connect(&handle);
    // Give the accept loop a moment to register the first client.
    std::thread::sleep(Duration::from_millis(50));
    let mut second = connect(&handle);
    match second.next_frame().expect("rejection frame decodes") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::OverCapacity),
        other => panic!("expected over-capacity error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn half_close_after_request_still_streams_answer() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    let mut req = QueryRequest::avg("name", "dep_delay", 13);
    req.max_samples = Some(300);
    client.send_request(&req).expect("request sent");
    // Close only our write half; the read half stays open for frames.
    client
        .stream()
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut saw_answer = false;
    while let Some(frame) = client.next_frame().expect("frames decode") {
        if matches!(frame, Frame::Answer(_)) {
            saw_answer = true;
            break;
        }
    }
    assert!(saw_answer, "half-closed client still gets its answer");
    assert_no_leaked_slots(&handle);
    handle.shutdown();
}

#[test]
fn pipelined_queries_on_one_connection_run_in_order() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    // Write two request lines back-to-back before reading anything; the
    // server must buffer the second line and run it after the first.
    let mut first = QueryRequest::avg("name", "elapsed", 41);
    first.max_samples = Some(200);
    let mut second = QueryRequest::avg("name", "arr_delay", 43);
    second.max_samples = Some(200);
    let both = format!("{}\n{}\n", first.to_line(), second.to_line());
    client
        .stream()
        .write_all(both.as_bytes())
        .expect("pipelined lines sent");
    let mut answers = 0;
    while answers < 2 {
        match client.next_frame().expect("frames decode") {
            Some(Frame::Answer(_)) => answers += 1,
            Some(Frame::Error { code, message }) => panic!("error {code:?}: {message}"),
            Some(_) => {}
            None => break,
        }
    }
    assert_eq!(answers, 2, "both pipelined queries answered");
    handle.shutdown();
}
