//! Serving-layer benchmark: the same fixed-seed workload run through the
//! TCP wire protocol vs straight in-process `execute()` calls — the gap
//! is the serving stack's overhead (framing, channel hops, scheduler
//! multiplexing, loopback syscalls).
//!
//! Run with `cargo bench --bench serving`. Beyond the console lines, the
//! run writes `BENCH_serving.json` into the workspace root (override with
//! `BENCH_SERVING_OUT`): sessions/s and frames/s measurements, the
//! wire-over-inprocess ratio, and time-to-first-certified-bar p50/p99
//! under 8 concurrent closed-loop clients.
//!
//! Two reduced modes on the shared harness ([`rapidviz_bench::perfgate`]):
//!
//! * `--quick` / `--test` — single-iteration smoke pass, no JSON write.
//! * `--gate` — the CI perf-regression gate, compared against the
//!   committed `BENCH_serving.json` (override with
//!   `BENCH_SERVING_BASELINE`) **by ratio**: the wire-over-inprocess
//!   sessions/s ratio — both sides measured on the same host in the same
//!   run, so machine speed cancels — must not fall more than
//!   [`GATE_TOLERANCE`]× below the baseline's. A serving-stack
//!   regression (per-frame allocation storm, scheduler-thread stall,
//!   accidental sync round-trip per round) drags the ratio on any
//!   hardware. Fresh numbers go to `BENCH_serving.fresh.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::NeedleTail;
use rapidviz::{Aggregate, VizQuery};
use rapidviz_bench::perfgate::{gate_against_baseline, measure, GateConfig, Measurement, Mode};
use rapidviz_datagen::FlightModel;
use rapidviz_serve::{QueryRequest, Server, ServerConfig, ServerHandle, WireClient};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How far the gate-mode wire-over-inprocess **sessions/s ratio** may
/// fall below the committed baseline's before the gate fails. The wire
/// path adds real, noisy costs (loopback syscalls, thread scheduling),
/// so the headroom is wider than the pure-CPU gates'.
const GATE_TOLERANCE: f64 = 2.0;

const RATIO_PAIRS: &[(&str, &str)] = &[("serving/inprocess_sessions", "serving/wire_sessions")];

const TABLE_SEED: u64 = 31;
const ROWS: u64 = 20_000;
const CLIENTS: u64 = 8;
const QUERIES_PER_CLIENT: u64 = 2;
const SESSIONS: u64 = CLIENTS * QUERIES_PER_CLIENT;
const MAX_SAMPLES: u64 = 4_096;
const SAMPLES_PER_ROUND: u64 = 16;
const MEASURES: [&str; 3] = ["elapsed", "arr_delay", "dep_delay"];

fn bench_engine() -> NeedleTail {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);
    let table = FlightModel::new(TABLE_SEED).to_table(ROWS, &mut rng);
    NeedleTail::new(table, &["name"]).expect("flight engine builds")
}

/// The fixed workload: query `q` of client `c`, identical on both paths.
fn request_for(c: u64, q: u64) -> QueryRequest {
    let i = c * QUERIES_PER_CLIENT + q;
    let mut req = QueryRequest::avg("name", MEASURES[(i % 3) as usize], 1_000 + i);
    req.aggregate = [Aggregate::Avg, Aggregate::Sum, Aggregate::Count][(i % 3) as usize];
    req.max_samples = Some(MAX_SAMPLES);
    req.samples_per_round = Some(SAMPLES_PER_ROUND);
    req
}

/// Runs the whole workload in-process, sequentially (the no-wire
/// baseline).
fn run_inprocess(engine: &NeedleTail) {
    for c in 0..CLIENTS {
        for q in 0..QUERIES_PER_CLIENT {
            let req = request_for(c, q);
            let mut query = VizQuery::new(engine).group_by("name");
            query = match req.aggregate {
                Aggregate::Avg => query.avg(req.measure.clone()),
                Aggregate::Sum => query.sum(req.measure.clone()),
                Aggregate::Count => query.count(req.measure.clone()),
            };
            let answer = query
                .samples_per_round(SAMPLES_PER_ROUND)
                .max_samples(MAX_SAMPLES)
                .execute(&mut StdRng::seed_from_u64(req.seed))
                .expect("bench query runs");
            black_box(answer);
        }
    }
}

/// Per-fleet-run statistics.
#[derive(Default)]
struct FleetRun {
    frames: u64,
    ttfcb: Vec<Duration>,
}

/// Runs the workload as 8 concurrent closed-loop wire clients.
fn run_wire_fleet(handle: &ServerHandle) -> FleetRun {
    let addr = handle.local_addr();
    let per_client: Vec<(u64, Vec<Duration>)> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut frames = 0u64;
                    let mut ttfcb = Vec::new();
                    for q in 0..QUERIES_PER_CLIENT {
                        let mut client = WireClient::connect(addr, Duration::from_secs(30))
                            .expect("bench client connects");
                        let req = request_for(c, q);
                        let start = Instant::now();
                        client.send_request(&req).expect("request sent");
                        let mut first: Option<Duration> = None;
                        loop {
                            match client.next_frame().expect("frame decodes") {
                                Some(rapidviz_serve::Frame::Round(r)) => {
                                    frames += 1;
                                    if first.is_none() && !r.newly_certified.is_empty() {
                                        first = Some(start.elapsed());
                                    }
                                }
                                Some(rapidviz_serve::Frame::Answer(_)) => {
                                    frames += 1;
                                    break;
                                }
                                // The resume token every durable session
                                // is granted ahead of its first round.
                                Some(rapidviz_serve::Frame::Parked { .. }) => {}
                                Some(other) => panic!("unexpected frame {other:?}"),
                                None => panic!("stream closed without terminal answer"),
                            }
                        }
                        ttfcb.push(first.unwrap_or_else(|| start.elapsed()));
                    }
                    (frames, ttfcb)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("bench client joins"))
            .collect()
    });
    let mut run = FleetRun::default();
    for (frames, ttfcb) in per_client {
        run.frames += frames;
        run.ttfcb.extend(ttfcb);
    }
    run
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn main() {
    let mode = Mode::from_args();
    let engine = bench_engine();
    let handle = Server::start(
        bench_engine(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_clients: CLIENTS as usize * 2,
            ..ServerConfig::default()
        },
    )
    .expect("bench server binds");

    // One counting pass fixes the per-iteration frame volume and collects
    // the concurrent-client latency distribution.
    let counting = run_wire_fleet(&handle);
    let frames_per_iter = counting.frames;
    let mut ttfcb = counting.ttfcb;
    ttfcb.sort();
    let p50 = percentile_ms(&ttfcb, 0.50);
    let p99 = percentile_ms(&ttfcb, 0.99);

    let mut results = Vec::new();
    results.push(measure(
        "serving/inprocess_sessions",
        SESSIONS,
        mode,
        "sessions/s",
        || run_inprocess(&engine),
    ));
    results.push(measure(
        "serving/wire_sessions",
        SESSIONS,
        mode,
        "sessions/s",
        || {
            black_box(run_wire_fleet(&handle).frames);
        },
    ));
    results.push(measure(
        "serving/wire_frames",
        frames_per_iter,
        mode,
        "frames/s",
        || {
            black_box(run_wire_fleet(&handle).frames);
        },
    ));
    println!(
        "time-to-first-certified-bar under {CLIENTS} concurrent clients: \
         p50 {p50:.2}ms  p99 {p99:.2}ms"
    );

    report(&results, mode, p50, p99);
    if mode == Mode::Gate {
        let baseline_path = std::env::var("BENCH_SERVING_BASELINE")
            .unwrap_or_else(|_| format!("{}/../../BENCH_serving.json", env!("CARGO_MANIFEST_DIR")));
        let config = GateConfig {
            baseline_path,
            pairs: RATIO_PAIRS,
            tolerance: GATE_TOLERANCE,
        };
        let regressions = gate_against_baseline(&results, &config);
        handle.shutdown();
        if regressions > 0 {
            eprintln!("serving perf gate: {regressions} regression(s)");
            std::process::exit(1);
        }
        println!("serving perf gate: ok");
    } else {
        handle.shutdown();
    }
}

fn report(results: &[Measurement], mode: Mode, p50: f64, p99: f64) {
    if mode == Mode::Quick {
        println!("quick mode: skipping BENCH_serving.json write");
        return;
    }
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"wire serving layer: concurrent TCP clients vs in-process execution\",\n",
            "  \"unit\": \"sessions per second (frames/s for the frame case)\",\n",
            "  \"note\": \"{clients} closed-loop loopback clients x {qpc} fixed-seed queries \
             (AVG/SUM/COUNT over the flight model, budget-capped); wire-over-inprocess \
             sessions/s ratio isolates the serving stack's overhead. Measured on a \
             {cpus}-cpu host.\",\n",
            "  \"results\": {{\n",
        ),
        clients = CLIENTS,
        qpc = QUERIES_PER_CLIENT,
        cpus = cpus
    );
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\": {:.1}{comma}", m.name, m.per_sec);
    }
    json.push_str("  },\n  \"ratios\": {\n");
    for (i, &(baseline, wire)) in RATIO_PAIRS.iter().enumerate() {
        let get = |n: &str| results.iter().find(|m| m.name == n).map(|m| m.per_sec);
        let ratio = match (get(baseline), get(wire)) {
            (Some(b), Some(n)) if b > 0.0 => n / b,
            _ => 0.0,
        };
        let comma = if i + 1 == RATIO_PAIRS.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{wire}\": {ratio:.3}{comma}");
    }
    json.push_str("  },\n  \"latency_ms\": {\n");
    let _ = writeln!(json, "    \"ttfcb_p50\": {p50:.2},");
    let _ = writeln!(json, "    \"ttfcb_p99\": {p99:.2}");
    json.push_str("  }\n}\n");
    let default_out = match mode {
        Mode::Gate => format!(
            "{}/../../BENCH_serving.fresh.json",
            env!("CARGO_MANIFEST_DIR")
        ),
        _ => format!("{}/../../BENCH_serving.json", env!("CARGO_MANIFEST_DIR")),
    };
    let out_path = std::env::var("BENCH_SERVING_OUT").unwrap_or(default_out);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
