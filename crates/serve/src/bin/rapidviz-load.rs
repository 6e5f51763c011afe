//! The `rapidviz-load` binary: a closed-loop load generator for
//! `rapidviz-serve`.
//!
//! ```text
//! rapidviz-load [--addr HOST:PORT | --self-host] [--clients 8]
//!               [--queries-per-client 4] [--seed 42] [--rows 20000]
//! ```
//!
//! Spawns N client threads; each runs its queries back-to-back (closed
//! loop) with a deterministic per-client mix of AVG / SUM / COUNT over
//! the flight measures, records time-to-first-certified-bar and frame
//! counts, and requires an answer for every query. Prints p50/p99 TTFCB,
//! frames/s, and sessions/s over the answered queries; exits non-zero if
//! any query was refused with an error frame or missed its terminal frame.
//!
//! `--self-host` starts an in-process server on an ephemeral loopback
//! port first — the CI smoke path, no background-process orchestration
//! needed. A self-hosted run also exits non-zero if the server's
//! scheduler restarted: a panic the supervisor absorbed drops sessions,
//! so it fails the run even when every query was answered.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::NeedleTail;
use rapidviz::Aggregate;
use rapidviz_datagen::FlightModel;
use rapidviz_serve::{QueryRequest, RetryPolicy, Server, ServerConfig, ServerHandle, WireClient};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const MEASURES: [&str; 3] = ["elapsed", "arr_delay", "dep_delay"];

struct Args {
    addr: Option<String>,
    self_host: bool,
    clients: usize,
    queries_per_client: usize,
    seed: u64,
    rows: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        self_host: false,
        clients: 8,
        queries_per_client: 4,
        seed: 42,
        rows: 20_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--self-host" => args.self_host = true,
            "--clients" => args.clients = parse("--clients", &value("--clients")?)?,
            "--queries-per-client" => {
                args.queries_per_client =
                    parse("--queries-per-client", &value("--queries-per-client")?)?;
            }
            "--seed" => args.seed = parse("--seed", &value("--seed")?)?,
            "--rows" => args.rows = parse("--rows", &value("--rows")?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_none() && !args.self_host {
        return Err("pass --addr HOST:PORT or --self-host".to_owned());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{name} could not parse {value:?}"))
}

/// SplitMix64 — a tiny deterministic stream for picking each query's mix,
/// independent of the engine's RNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One query's deterministic spec for client `c`, query `q`.
fn request_for(seed: u64, client: usize, query: usize) -> QueryRequest {
    let mut s = seed ^ ((client as u64) << 32) ^ query as u64;
    let roll = splitmix(&mut s);
    let measure = MEASURES[(roll % 3) as usize];
    let mut req = QueryRequest::avg("name", measure, splitmix(&mut s));
    req.aggregate = match (roll >> 8) % 3 {
        0 => Aggregate::Avg,
        1 => Aggregate::Sum,
        _ => Aggregate::Count,
    };
    // Keep sessions short enough for a smoke run but long enough to
    // stream several rounds.
    req.max_samples = Some(40_000);
    req.samples_per_round = Some(64);
    req
}

#[derive(Default)]
struct ClientReport {
    ttfcb: Vec<Duration>,
    frames: u64,
    completed: u64,
    errored: u64,
    missing_terminal: u64,
    retries: u64,
}

fn run_client(
    addr: &str,
    seed: u64,
    client: usize,
    queries: usize,
) -> Result<ClientReport, std::io::Error> {
    let mut report = ClientReport::default();
    for q in 0..queries {
        // Bounded, seeded-backoff connect: under a flapping or restarting
        // server each client retries on its own deterministic jitter
        // schedule instead of stampeding, and the summary reports how
        // often that happened.
        let policy = RetryPolicy {
            seed: seed ^ ((client as u64) << 32) ^ q as u64,
            ..RetryPolicy::default()
        };
        let (mut conn, retries) =
            WireClient::connect_with_retry(addr, Duration::from_secs(30), &policy)?;
        report.retries += u64::from(retries);
        let req = request_for(seed, client, q);
        let start = Instant::now();
        conn.send_request(&req)?;
        let mut first_certified: Option<Duration> = None;
        // `Some(answered)` once a terminal frame arrives.
        let mut terminal: Option<bool> = None;
        while let Some(frame) = conn.next_frame()? {
            report.frames += 1;
            match frame {
                rapidviz_serve::Frame::Round(r) => {
                    if first_certified.is_none() && !r.newly_certified.is_empty() {
                        first_certified = Some(start.elapsed());
                    }
                }
                rapidviz_serve::Frame::Answer(_) => {
                    terminal = Some(true);
                    break;
                }
                rapidviz_serve::Frame::Error { code, message } => {
                    eprintln!("client {client} query {q}: server error {code:?}: {message}");
                    terminal = Some(false);
                    break;
                }
                rapidviz_serve::Frame::Parked { .. }
                | rapidviz_serve::Frame::Evicted { .. }
                | rapidviz_serve::Frame::Stats(_) => {}
            }
        }
        match terminal {
            Some(true) => {
                report.completed += 1;
                // A query whose first certification arrives only with the
                // terminal frame still counts — use total latency then.
                report
                    .ttfcb
                    .push(first_certified.unwrap_or_else(|| start.elapsed()));
            }
            Some(false) => report.errored += 1,
            None => report.missing_terminal += 1,
        }
    }
    Ok(report)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn self_host(rows: u64, seed: u64, clients: usize) -> ServerHandle {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = FlightModel::new(seed).to_table(rows, &mut rng);
    let engine = NeedleTail::new(table, &["name"]).expect("flight engine builds");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_clients: clients.max(8) * 2,
        ..ServerConfig::default()
    };
    Server::start(engine, config).expect("self-hosted server binds")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rapidviz-load: {e}");
            std::process::exit(2);
        }
    };
    let hosted = if args.self_host {
        Some(self_host(args.rows, args.seed, args.clients))
    } else {
        None
    };
    let addr = hosted.as_ref().map_or_else(
        || args.addr.clone().unwrap(),
        |h| h.local_addr().to_string(),
    );

    let wall = Instant::now();
    let reports: Vec<_> = std::thread::scope(|scope| {
        (0..args.clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || run_client(&addr, args.seed, c, args.queries_per_client))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread joins"))
            .collect()
    });
    let elapsed = wall.elapsed();

    let mut ttfcb = Vec::new();
    let mut frames = 0u64;
    let mut completed = 0u64;
    let mut errored = 0u64;
    let mut missing = 0u64;
    let mut io_errors = 0u64;
    let mut retries = 0u64;
    for r in reports {
        match r {
            Ok(rep) => {
                ttfcb.extend(rep.ttfcb);
                frames += rep.frames;
                completed += rep.completed;
                errored += rep.errored;
                missing += rep.missing_terminal;
                retries += rep.retries;
            }
            Err(e) => {
                eprintln!("rapidviz-load: client failed: {e}");
                io_errors += 1;
            }
        }
    }
    ttfcb.sort();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "rapidviz-load: {completed} sessions, {errored} errored, {frames} frames in {:.2}s \
         ({:.1} sessions/s, {:.1} frames/s), {retries} connect retries",
        elapsed.as_secs_f64(),
        completed as f64 / secs,
        frames as f64 / secs,
    );
    println!(
        "time-to-first-certified-bar: p50 {:.2}ms  p99 {:.2}ms  n={}",
        percentile(&ttfcb, 0.50).as_secs_f64() * 1e3,
        percentile(&ttfcb, 0.99).as_secs_f64() * 1e3,
        ttfcb.len(),
    );
    let mut restarts = 0u64;
    if let Some(h) = hosted {
        let stats = h.stats();
        let dropped = stats.frames_dropped_slow.load(Ordering::Relaxed);
        restarts = stats.scheduler_restarts.load(Ordering::Relaxed);
        println!("server dropped {dropped} slow-client round frames");
        h.shutdown();
    }
    if errored > 0 || missing > 0 || io_errors > 0 || restarts > 0 {
        eprintln!("rapidviz-load: FAIL — {errored} queries refused with error frames, {missing} missing terminal frames, {io_errors} client I/O failures, {restarts} scheduler restarts");
        std::process::exit(1);
    }
}
