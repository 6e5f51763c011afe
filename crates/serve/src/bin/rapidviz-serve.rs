//! The `rapidviz-serve` binary: serves a seeded flight-model table over
//! the wire protocol.
//!
//! ```text
//! rapidviz-serve [--addr 127.0.0.1:7171] [--rows 50000] [--seed 1]
//!                [--policy fairshare|deadline|greedy] [--max-clients 64]
//!                [--global-budget N] [--memory-cap BYTES]
//!                [--per-client-max-samples N] [--sessions-limit N]
//!                [--park-ttl-secs 120] [--park-byte-cap BYTES]
//!                [--enable-crash]
//! ```
//!
//! `--park-ttl-secs` bounds how long a disconnected client's session
//! stays resumable via `RESUME token=…`; `--park-byte-cap` caps the
//! registry's total checkpoint bytes (sessions over the cap run without
//! durability). `--enable-crash` arms the `CRASH` recovery-drill verb —
//! chaos testing only, never in real deployments. The engine's planning
//! caches have fixed sizes (see `NeedleTail`'s "Planning caches" docs).
//!
//! With `--sessions-limit N` the server exits 0 once N sessions have
//! reached a terminal state (completed or cancelled) — the CI smoke uses
//! this for a clean, timeout-free shutdown.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::NeedleTail;
use rapidviz::SchedulePolicy;
use rapidviz_datagen::FlightModel;
use rapidviz_serve::{Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::time::Duration;

struct Args {
    addr: String,
    rows: u64,
    seed: u64,
    policy: SchedulePolicy,
    max_clients: usize,
    global_budget: Option<u64>,
    memory_cap: Option<usize>,
    per_client_max_samples: u64,
    sessions_limit: Option<u64>,
    park_ttl_secs: u64,
    park_byte_cap: Option<usize>,
    enable_crash: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_owned(),
        rows: 50_000,
        seed: 1,
        policy: SchedulePolicy::FairShare,
        max_clients: 64,
        global_budget: None,
        memory_cap: None,
        per_client_max_samples: 200_000,
        sessions_limit: None,
        park_ttl_secs: 120,
        park_byte_cap: None,
        enable_crash: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--rows" => args.rows = parse("--rows", &value("--rows")?)?,
            "--seed" => args.seed = parse("--seed", &value("--seed")?)?,
            "--policy" => {
                args.policy = match value("--policy")?.as_str() {
                    "fairshare" => SchedulePolicy::FairShare,
                    "deadline" => SchedulePolicy::DeadlineAware,
                    "greedy" => SchedulePolicy::GreedyConvergence,
                    other => return Err(format!("unknown policy {other:?}")),
                };
            }
            "--max-clients" => args.max_clients = parse("--max-clients", &value("--max-clients")?)?,
            "--global-budget" => {
                args.global_budget = Some(parse("--global-budget", &value("--global-budget")?)?);
            }
            "--memory-cap" => {
                args.memory_cap = Some(parse("--memory-cap", &value("--memory-cap")?)?);
            }
            "--per-client-max-samples" => {
                args.per_client_max_samples = parse(
                    "--per-client-max-samples",
                    &value("--per-client-max-samples")?,
                )?;
                if args.per_client_max_samples == 0 {
                    return Err("--per-client-max-samples must be positive".to_owned());
                }
            }
            "--sessions-limit" => {
                args.sessions_limit = Some(parse("--sessions-limit", &value("--sessions-limit")?)?);
            }
            "--park-ttl-secs" => {
                args.park_ttl_secs = parse("--park-ttl-secs", &value("--park-ttl-secs")?)?;
                if args.park_ttl_secs == 0 {
                    return Err("--park-ttl-secs must be positive".to_owned());
                }
            }
            "--park-byte-cap" => {
                let cap: usize = parse("--park-byte-cap", &value("--park-byte-cap")?)?;
                if cap == 0 {
                    return Err("--park-byte-cap must be positive".to_owned());
                }
                args.park_byte_cap = Some(cap);
            }
            "--enable-crash" => args.enable_crash = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{name} could not parse {value:?}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rapidviz-serve: {e}");
            std::process::exit(2);
        }
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let table = FlightModel::new(args.seed).to_table(args.rows, &mut rng);
    let engine = match NeedleTail::new(table, &["name"]) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rapidviz-serve: engine build failed: {e:?}");
            std::process::exit(1);
        }
    };
    let config = ServerConfig {
        addr: args.addr,
        policy: args.policy,
        max_clients: args.max_clients,
        global_sample_budget: args.global_budget,
        session_memory_cap: args.memory_cap,
        per_client_max_samples: args.per_client_max_samples,
        park_ttl: Duration::from_secs(args.park_ttl_secs),
        park_byte_cap: args.park_byte_cap,
        enable_crash: args.enable_crash,
        ..ServerConfig::default()
    };
    let handle = match Server::start(engine, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rapidviz-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "rapidviz-serve listening on {} ({} flight rows, seed {})",
        handle.local_addr(),
        args.rows,
        args.seed
    );
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if let Some(limit) = args.sessions_limit {
            let stats = handle.stats();
            let terminal = stats.sessions_completed.load(Ordering::Relaxed)
                + stats.sessions_cancelled.load(Ordering::Relaxed);
            if terminal >= limit {
                println!("rapidviz-serve: sessions limit {limit} reached, shutting down");
                handle.shutdown();
                return;
            }
        }
    }
}
