//! The stack benchmark: five dashboard workloads over the whole RapidViz
//! stack, measured from outside. See `benchmark/README.md`.
//!
//! ```text
//! stack --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run
//! stack [--seed N] [--seconds S]         every workload, untraced then traced
//! stack --aa N [--workload <name>]       A/A self-check over 2×N seeds
//! stack --print-manifest                 the BENCHMARK.json this code implies
//! ```
//!
//! Every mode prints `workload metric value unit n=…` lines; a single run
//! ends with the one-line JSON result, and any correctness failure exits
//! non-zero.

// The counting allocator is the one place this package needs `unsafe`.
#![allow(unsafe_code)]

mod alloc;
mod drive;
mod ladder;
mod report;
mod table;
mod trace;
mod workload;

use drive::{Lane, Outcome, Pass, Record};
use rapidviz::core::is_correctly_ordered_with_resolution;
use rapidviz::needletail::NeedleTail;
use rapidviz_serve::{Server, ServerConfig, ServerHandle, WireClient, WireStats};
use report::{median, percentile, quartiles, Env, RunResult, END_TO_END, PER_LAYER};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use table::GroundTruth;
use trace::Tracer;
use workload::{Agg, Filter, Plan, Spec, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The guarantee's failure probability: the share of converged sessions
/// whose order contradicts ground truth may not exceed it.
const DELTA: f64 = 0.05;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: report::REFERENCE_SEED,
        seconds: report::RUN_SECONDS,
        trace: false,
        aa: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            // `cargo bench` appends this to every bench binary's arguments.
            "--bench" => {}
            "--print-manifest" => args.manifest = true,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--aa" => args.aa = Some(value("--aa")?.parse().map_err(|e| format!("--aa: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "stack bench: refusing to measure a build with debug assertions; use `cargo bench`"
        );
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stack bench: {e}");
            std::process::exit(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return;
    }
    let ok = if let Some(n) = args.aa {
        run_aa(&args, n)
    } else if let Some(w) = args.workload {
        let result = run_one(w, args.seed, args.seconds, args.trace);
        result.print_lines(&Env::detect());
        println!("{}", result.json_line());
        result.correct
    } else {
        run_all(&args)
    };
    if !ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- set-up

struct Stack {
    /// The in-process engine (for wire workloads: the oracle's copy).
    engine: NeedleTail,
    truth: GroundTruth,
    server: Option<ServerHandle>,
    setup_s: Vec<f64>,
    truth_verified: bool,
}

/// Table generation + `NeedleTail::new` (+ `Server::start`), repeated so
/// the reported set-up time is a median; the last repetition is kept.
fn set_up(workload: Workload, seed: u64, reps: usize) -> Stack {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        // Release the previous repetition first: peak memory stays that of
        // one stack, and the old server's port and threads are gone.
        if let Some((_, _, Some(server))) = kept.take() {
            ServerHandle::shutdown(server);
        }
        let t0 = Instant::now();
        let (table, truth) = table::generate(workload::table_seed(seed), workload.rows());
        let mut spent = t0.elapsed();
        let oracle_copy = workload.is_wire().then(|| table.clone());
        let t1 = Instant::now();
        let engine = table::engine(table);
        let (engine, server) = match oracle_copy {
            Some(copy) => {
                let config = ServerConfig {
                    // Sessions run to Converged; the default 200 k cap
                    // would truncate every one of them.
                    per_client_max_samples: 1 << 40,
                    ..ServerConfig::default()
                };
                let server = Server::start(engine, config).expect("server binds 127.0.0.1:0");
                spent += t1.elapsed();
                (table::engine(copy), Some(server))
            }
            None => {
                spent += t1.elapsed();
                (engine, None)
            }
        };
        setup_s.push(spent.as_secs_f64());
        kept = Some((engine, truth, server));
    }
    let (engine, truth, server) = kept.expect("at least one set-up repetition");
    let truth_verified = table::verify_ground_truth(engine.table(), &truth, (seed % 3) as usize);
    Stack {
        engine,
        truth,
        server,
        setup_s,
        truth_verified,
    }
}

// ------------------------------------------------------------ the oracle

/// Running verdict over every session a run executed.
struct Tally {
    attempted: u64,
    failed: u64,
    converged: u64,
    misordered: u64,
    /// First execution of each plan position: later ones must match it.
    reference: Vec<Option<Record>>,
    notes: Vec<String>,
}

impl Tally {
    fn new(plan: &Plan) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            converged: 0,
            misordered: 0,
            reference: vec![None; plan.lanes.iter().map(Vec::len).sum()],
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("FAILED {what}"));
        }
    }

    /// Judges one outcome; returns the record if the session counts as
    /// completed.
    fn judge<'r>(
        &mut self,
        stack: &Stack,
        spec: &Spec,
        position: usize,
        outcome: &'r Outcome,
    ) -> Option<&'r Record> {
        self.attempted += 1;
        let record = match outcome {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("session {position}: {e}"));
                return None;
            }
        };
        match &self.reference[position] {
            Some(first) if !first.same_answer(record) => {
                self.fail(format!(
                    "session {position}: answer bits or sample count differ from the same seed's first run ({} vs {} samples)",
                    record.samples, first.samples
                ));
                return None;
            }
            Some(_) => {}
            None => self.reference[position] = Some(record.clone()),
        }
        if record.converged && spec.filter == Filter::None {
            self.converged += 1;
            if !ordered_like_truth(stack, spec, record) {
                self.misordered += 1;
            }
        }
        Some(record)
    }

    fn misordered_share(&self) -> f64 {
        if self.converged == 0 {
            0.0
        } else {
            self.misordered as f64 / self.converged as f64
        }
    }
}

/// Does the certified order agree with ground truth, pairs closer than
/// the session's resolution exempt?
fn ordered_like_truth(stack: &Stack, spec: &Spec, record: &Record) -> bool {
    let estimates: Vec<f64> = record.bits.iter().map(|&b| f64::from_bits(b)).collect();
    let truths: Option<Vec<f64>> = record
        .labels
        .iter()
        .map(|l| stack.truth.truth(spec.agg, spec.measure, l))
        .collect();
    let Some(truths) = truths else { return false };
    let fraction = spec.resolution_pct.unwrap_or(0.0) / 100.0;
    let resolution = match spec.agg {
        Agg::Count => fraction,
        // The bound the engine infers: observed maximum padded 10 %.
        _ => (stack.engine.column_max(spec.measure).unwrap_or(0.0) * 1.1).max(1.0) * fraction,
    };
    is_correctly_ordered_with_resolution(&estimates, &truths, resolution)
}

// ------------------------------------------------------------ one run

/// Everything a run's passes produced, ready to be summarised.
#[derive(Default)]
struct Measured {
    sessions_per_s: Vec<f64>,
    samples_per_s: Vec<f64>,
    ttfcb_ms: Vec<f64>,
    ttco_ms: Vec<f64>,
    resume_gap_ms: Vec<f64>,
    admit_rtt_us: Vec<f64>,
    samples: u64,
    completed: u64,
}

impl Measured {
    fn absorb(&mut self, stack: &Stack, plan: &Plan, pass: &Pass, tally: &mut Tally) {
        let specs = plan.lanes.iter().flatten();
        let (mut done, mut samples) = (0u64, 0u64);
        for (position, (spec, outcome)) in specs.zip(&pass.outcomes).enumerate() {
            let Some(r) = tally.judge(stack, spec, position, outcome) else {
                continue;
            };
            done += 1;
            samples += r.samples;
            self.ttfcb_ms.push(r.ttfcb.as_secs_f64() * 1e3);
            self.ttco_ms.push(r.ttco.as_secs_f64() * 1e3);
            if let Some(g) = r.resume_gap {
                self.resume_gap_ms.push(g.as_secs_f64() * 1e3);
            }
            if let Some(a) = r.admit_rtt {
                self.admit_rtt_us.push(a.as_secs_f64() * 1e6);
            }
        }
        let wall = pass.wall.as_secs_f64();
        self.sessions_per_s.push(done as f64 / wall);
        self.samples_per_s.push(samples as f64 / wall);
        self.samples += samples;
        self.completed += done;
    }
}

/// The driver of one workload: owns the wire lanes (if any) and knows how
/// to run one pass, traced or not.
struct Driver<'a> {
    workload: Workload,
    stack: &'a Stack,
    plan: &'a Plan,
    lanes: Vec<Lane<'a>>,
    epoch: Instant,
}

impl<'a> Driver<'a> {
    fn new(workload: Workload, stack: &'a Stack, plan: &'a Plan, drop_gate: &'a Mutex<()>) -> Self {
        let lanes = match &stack.server {
            Some(server) => plan
                .lanes
                .iter()
                .map(|_| Lane::new(server.local_addr(), server.stats(), drop_gate))
                .collect(),
            None => Vec::new(),
        };
        Self {
            workload,
            stack,
            plan,
            lanes,
            epoch: Instant::now(),
        }
    }

    fn pass(&mut self, traced: bool) -> (Pass, Vec<Tracer>) {
        let mut tracers: Vec<Tracer> = if traced {
            (0..self.plan.lanes.len())
                .map(|l| Tracer::new(self.epoch, l as u32))
                .collect()
        } else {
            Vec::new()
        };
        let pass = match self.workload {
            Workload::ColdInproc => {
                drive::pass_inproc(&self.stack.engine, &self.plan.lanes[0], tracers.first_mut())
            }
            Workload::PlanFanout => {
                // Every pass starts from cold planning caches: inserts and
                // evictions are part of what this workload measures.
                self.stack.engine.clear_plan_caches();
                drive::pass_fanout(&self.stack.engine, self.plan, tracers.first_mut())
            }
            _ => drive::pass_wire(
                self.plan,
                &mut self.lanes,
                traced.then_some(tracers.as_mut_slice()),
            ),
        };
        (pass, tracers)
    }

    /// Untimed sessions through the real path, so lazily built state (the
    /// column maxima, the all-rows bitmap, the server's first accept) is
    /// in place before the first measured pass.
    fn warm_up(&mut self, tally: &mut Tally) {
        let specs = &self.plan.lanes[0][..self.plan.warmup];
        for (position, spec) in specs.iter().enumerate() {
            let outcome = match self.lanes.first_mut() {
                Some(lane) => lane.run(spec, position as u32, None),
                None => drive::run_inproc(&self.stack.engine, spec, position as u32, None),
            };
            tally.judge(self.stack, spec, position, &outcome);
        }
    }

    fn wire_stats(&self) -> Option<WireStats> {
        let server = self.stack.server.as_ref()?;
        WireClient::connect(server.local_addr(), Duration::from_secs(10))
            .and_then(|mut c| c.stats())
            .ok()
    }
}

/// The wire workloads' oracle: every session once in-process,
/// sequentially, before any of them goes over the wire. Returns the
/// in-process sessions/s of exactly the sessions the wire passes run.
fn reference_pass(stack: &Stack, plan: &Plan, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let mut done = 0u64;
    for (position, spec) in plan.lanes.iter().flatten().enumerate() {
        let outcome = drive::run_inproc(&stack.engine, spec, position as u32, None);
        if tally.judge(stack, spec, position, &outcome).is_some() {
            done += 1;
        }
    }
    done as f64 / t0.elapsed().as_secs_f64()
}

fn run_one(workload: Workload, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let plan = workload::plan(workload, seed);
    let mut notes = Vec::new();
    let deterministic = plan == workload::plan(workload, seed);
    if !deterministic {
        notes.push("FAILED the session list is not a pure function of the seed".to_owned());
    }
    // Traced runs report no set-up time, so they set up once.
    let reps = match (traced, workload) {
        (true, _) => 1,
        (false, Workload::ColdInproc) => 2,
        (false, _) => 3,
    };
    let stack = set_up(workload, seed, reps);
    if !stack.truth_verified {
        notes.push("FAILED generator aggregates disagree with scan_group_aggregates".to_owned());
    }
    let drop_gate = Mutex::new(());
    let mut tally = Tally::new(&plan);
    let inproc_sessions_per_s = if workload.is_wire() {
        reference_pass(&stack, &plan, &mut tally)
    } else {
        0.0
    };
    let mut driver = Driver::new(workload, &stack, &plan, &drop_gate);
    driver.warm_up(&mut tally);

    let mut metrics = std::collections::BTreeMap::new();
    if traced {
        traced_run(
            &mut driver,
            &mut tally,
            seconds,
            inproc_sessions_per_s,
            &mut metrics,
            &mut notes,
        );
    } else {
        let mut measured = Measured::default();
        let t0 = Instant::now();
        loop {
            let (pass, _) = driver.pass(false);
            measured.absorb(&stack, &plan, &pass, &mut tally);
            if t0.elapsed().as_secs() >= seconds {
                break;
            }
        }
        let n = measured.completed;
        let passes = measured.sessions_per_s.len() as u64;
        for m in &END_TO_END {
            let (value, count) = match m.name {
                "setup_s" => (median(&stack.setup_s), stack.setup_s.len() as u64),
                "sessions_per_s" => (median(&measured.sessions_per_s), passes),
                "samples_per_s" => (median(&measured.samples_per_s), passes),
                "ttco_ms_p50" => (percentile(&measured.ttco_ms, 0.5), n),
                "peak_rss_mb" => (peak_rss_mb(), 1),
                other => unreachable!("unreported end-to-end metric {other}"),
            };
            metrics.insert(m.name, (value, m.unit, count));
        }
        notes.push(format!(
            "passes={passes} sessions={n} samples_per_session={:.1} ttfcb_ms_p50={:.3} misordered_share={:.4} ({} converged)",
            measured.samples as f64 / n.max(1) as f64,
            percentile(&measured.ttfcb_ms, 0.5),
            tally.misordered_share(),
            tally.converged
        ));
        notes.push(format!(
            "sessions_per_s by pass: {}",
            measured
                .sessions_per_s
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    drop(driver);
    if let Some(server) = stack.server {
        server.shutdown();
    }
    let misordered_ok = tally.misordered_share() <= DELTA;
    if !misordered_ok {
        notes.push(format!(
            "FAILED core.misordered_share {:.4} exceeds delta {DELTA}",
            tally.misordered_share()
        ));
    }
    notes.append(&mut tally.notes);
    RunResult {
        workload,
        seed,
        correct: tally.failed == 0 && misordered_ok && deterministic && stack.truth_verified,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------- the traced run

/// How many of the plan's first sessions the ladder replays.
fn ladder_len(workload: Workload, plan: &Plan) -> usize {
    match workload {
        // One AVG, COUNT, AVG, SUM: every aggregate at least once.
        Workload::ColdInproc => 4,
        // A C A of lane 0.
        Workload::WireConverge => 3,
        Workload::WireStream => 60,
        Workload::WireChurn => 2,
        Workload::PlanFanout => 100 * plan.tiles_per_dashboard,
    }
}

fn traced_run(
    driver: &mut Driver<'_>,
    tally: &mut Tally,
    seconds: u64,
    inproc_sessions_per_s: f64,
    metrics: &mut std::collections::BTreeMap<&'static str, (f64, &'static str, u64)>,
    notes: &mut Vec<String>,
) {
    let (workload, stack, plan) = (driver.workload, driver.stack, driver.plan);
    let half = Duration::from_secs(seconds).div_f64(2.0);

    // Untraced first: end-to-end figures never come from a traced pass.
    let cache_before = stack.engine.metrics().snapshot();
    let stats_before = driver.wire_stats();
    let mut plain = Measured::default();
    let mut first_pass: Option<Pass> = None;
    let t0 = Instant::now();
    while first_pass.is_none() || t0.elapsed() < half {
        let (pass, _) = driver.pass(false);
        plain.absorb(stack, plan, &pass, tally);
        first_pass.get_or_insert(pass);
    }
    let stats_after = driver.wire_stats();
    let cache_after = stack.engine.metrics().snapshot();

    let mut traced = Measured::default();
    let mut tracers: Vec<Tracer> = Vec::new();
    let t0 = Instant::now();
    while tracers.is_empty() || t0.elapsed() < half {
        let (pass, mut ts) = driver.pass(true);
        traced.absorb(stack, plan, &pass, tally);
        // Keep the first traced pass's spans; later passes only steady
        // the overhead figure.
        if tracers.is_empty() {
            tracers.append(&mut ts);
        }
    }
    let spans: usize = tracers.iter().map(Tracer::len).sum();
    let path = std::path::Path::new("out").join(format!("trace-{}.json", workload.name()));
    match trace::write(&path, workload.name(), &tracers) {
        Ok(()) => notes.push(format!("trace written to benchmark/{}", path.display())),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
    drop(tracers);

    let specs = &plan.lanes[0][..ladder_len(workload, plan).min(plan.lanes[0].len())];
    let adjacent_ms: f64 = if workload == Workload::ColdInproc {
        drive::pass_inproc(&stack.engine, specs, None)
            .wall
            .as_secs_f64()
            * 1e3
    } else {
        0.0
    };
    let (layer, totals) = ladder::Ladder {
        engine: &stack.engine,
        specs,
        concurrent: match workload {
            Workload::PlanFanout => plan.tiles_per_dashboard,
            w if w.is_wire() => plan.lanes.len(),
            _ => 1,
        },
        cold_caches: workload == Workload::PlanFanout,
    }
    .run();

    let mut put = |name: &'static str, value: f64, n: u64| {
        let unit = PER_LAYER
            .iter()
            .find(|(m, _, _)| *m == name)
            .map_or_else(|| unreachable!("{name} is not in the catalogue"), |m| m.1);
        metrics.insert(name, (value, unit, n));
    };
    for (name, _, _) in &PER_LAYER {
        put(name, 0.0, 0);
    }
    for (name, (value, n)) in &layer {
        put(name, *value, *n);
    }

    let n = plain.completed;
    let per_session = |ns: f64| ns / 1e6 / totals.sessions.max(1) as f64;
    put(
        "e2e.samples_per_session",
        plain.samples as f64 / n.max(1) as f64,
        n,
    );
    put("e2e.ttfcb_ms_p50", percentile(&plain.ttfcb_ms, 0.5), n);
    // A p90 needs ten sessions beyond it.
    if n >= 100 {
        put("e2e.ttfcb_ms_p90", percentile(&plain.ttfcb_ms, 0.9), n);
        put("e2e.ttco_ms_p90", percentile(&plain.ttco_ms, 0.9), n);
    }
    put(
        "e2e.resume_gap_ms_p50",
        percentile(&plain.resume_gap_ms, 0.5),
        plain.resume_gap_ms.len() as u64,
    );
    put(
        "e2e.failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted,
    );
    put("e2e.inproc_sessions_per_s", inproc_sessions_per_s, n);
    put(
        "core.misordered_share",
        tally.misordered_share(),
        tally.converged,
    );

    put(
        "rung.bitmap.self_ms_per_session",
        per_session(totals.bitmap),
        totals.sessions,
    );
    put(
        "rung.sampler.self_ms_per_session",
        per_session(totals.sampler - totals.bitmap),
        totals.sessions,
    );
    put(
        "rung.fetch.self_ms_per_session",
        per_session(totals.fetch - totals.sampler),
        totals.sessions,
    );
    put(
        "rung.core.self_ms_per_session",
        per_session(totals.core),
        totals.sessions,
    );
    put(
        "rung.session.self_ms_per_session",
        per_session(totals.session - totals.core - totals.fetch),
        totals.sessions,
    );
    put(
        "rung.scheduler.self_ms_per_session",
        per_session(totals.scheduler - totals.session),
        totals.sessions,
    );
    put(
        "rung.checkpoint.self_ms_per_session",
        per_session(totals.checkpoint),
        totals.sessions,
    );
    put(
        "rung.protocol.self_ms_per_session",
        per_session(totals.protocol + totals.decode),
        totals.sessions,
    );
    put(
        "rung.sessions_replayed",
        totals.sessions as f64,
        totals.sessions,
    );

    // Planning-cache hit shares: the in-process engine's own counters, or
    // the server's as its STATS frame reports them.
    let share = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    match (&stats_before, &stats_after) {
        (Some(b), Some(a)) => {
            let (ph, pm) = (
                a.plan_cache.0 - b.plan_cache.0,
                a.plan_cache.1 - b.plan_cache.1,
            );
            let (qh, qm) = (
                a.predicate_cache.0 - b.predicate_cache.0,
                a.predicate_cache.1 - b.predicate_cache.1,
            );
            put("engine.plan_cache.hit_share", share(ph, pm), ph + pm);
            put("engine.predicate_cache.hit_share", share(qh, qm), qh + qm);
            let admitted = a.sessions_admitted - b.sessions_admitted;
            let completed = a.sessions_completed - b.sessions_completed;
            let cancelled = a.sessions_cancelled - b.sessions_cancelled;
            let parked = a.sessions_parked - b.sessions_parked;
            let sent = a.frames_sent - b.frames_sent;
            let dropped = a.frames_dropped_slow - b.frames_dropped_slow;
            let frame_bytes = layer.get("protocol.bytes_per_frame").map_or(0.0, |m| m.0);
            put(
                "server.frames_sent_per_session",
                sent as f64 / n.max(1) as f64,
                n,
            );
            put(
                "server.frames_dropped_share",
                dropped as f64 / (sent + dropped).max(1) as f64,
                sent + dropped,
            );
            put(
                "server.wire_bytes_per_session",
                frame_bytes * sent as f64 / n.max(1) as f64,
                n,
            );
            put(
                "server.rejected",
                (a.sessions_rejected - b.sessions_rejected) as f64,
                admitted,
            );
            put("server.parked", parked as f64, admitted);
            put(
                "server.resumed",
                (a.sessions_resumed - b.sessions_resumed) as f64,
                admitted,
            );
            put(
                "server.scheduler_restarts",
                (a.scheduler_restarts - b.scheduler_restarts) as f64,
                admitted,
            );
            // admitted == completed + cancelled + parked (+ crashed, which
            // only the CRASH drill produces and this benchmark never sends).
            let gap = admitted as f64 - (completed + cancelled + parked) as f64;
            put("server.accounting_gap", gap, admitted);
            if gap != 0.0 {
                tally.fail(format!(
                    "server accounting: admitted {admitted} != completed {completed} + cancelled {cancelled} + parked {parked}"
                ));
            }
        }
        _ => {
            let (b, a) = (cache_before, cache_after);
            let (ph, pm) = (
                a.plan_cache_hits - b.plan_cache_hits,
                a.plan_cache_misses - b.plan_cache_misses,
            );
            let (qh, qm) = (
                a.predicate_cache_hits - b.predicate_cache_hits,
                a.predicate_cache_misses - b.predicate_cache_misses,
            );
            put("engine.plan_cache.hit_share", share(ph, pm), ph + pm);
            put("engine.predicate_cache.hit_share", share(qh, qm), qh + qm);
        }
    }

    let wire_sessions_per_s = median(&plain.sessions_per_s);
    if workload.is_wire() {
        put(
            "server.admit_rtt_us",
            percentile(&plain.admit_rtt_us, 0.5),
            plain.admit_rtt_us.len() as u64,
        );
        put(
            "server.wire_over_inproc",
            wire_sessions_per_s / inproc_sessions_per_s,
            n,
        );
        let replayed =
            per_session(totals.scheduler + totals.checkpoint + totals.protocol + totals.decode);
        let mean_ttco = plain.ttco_ms.iter().sum::<f64>() / n.max(1) as f64;
        put("server.residual_ms_per_session", mean_ttco - replayed, n);
        let connects: Vec<f64> = driver
            .lanes
            .iter()
            .flat_map(|l| l.connects.iter().map(|d| d.as_secs_f64() * 1e6))
            .collect();
        put(
            "client.connect_us",
            median(&connects),
            connects.len() as u64,
        );
        put(
            "client.retries",
            driver.lanes.iter().map(|l| l.retries).sum::<u64>() as f64,
            connects.len() as u64,
        );
    }

    let traced_sessions_per_s = median(&traced.sessions_per_s);
    put(
        "trace.overhead_pct",
        (wire_sessions_per_s - traced_sessions_per_s) / wire_sessions_per_s * 100.0,
        traced.completed,
    );
    put("trace.spans", spans as f64, spans as u64);
    put(
        "trace.available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        1,
    );

    // |in-process time of the replayed sessions − Σ rung self times| over
    // that time. The rungs nest, so their self times sum to the top
    // in-process rung: the session rung, or the scheduler rung where the
    // workload itself runs under the scheduler.
    let first = first_pass.expect("at least one untraced pass ran");
    let measured_ms: f64 = match workload {
        Workload::PlanFanout => first.outcomes[..specs.len()]
            .chunks(plan.tiles_per_dashboard)
            .map(|tiles| {
                tiles
                    .iter()
                    .filter_map(|o| o.as_ref().ok())
                    .map(|r| r.ttco.as_secs_f64() * 1e3)
                    .fold(0.0, f64::max)
            })
            .sum(),
        // In-process time of the same sessions: run once more right
        // here (on the cache-missing table, minutes-apart timings drift
        // by more than the share being measured), or the oracle's run of
        // them for a wire workload.
        Workload::ColdInproc => adjacent_ms,
        _ => tally.reference[..specs.len()]
            .iter()
            .flatten()
            .map(|r| r.ttco.as_secs_f64() * 1e3)
            .sum(),
    };
    let top_ms = match workload {
        Workload::PlanFanout => totals.scheduler / 1e6,
        _ => totals.session / 1e6,
    };
    put(
        "trace.unattributed_share",
        (measured_ms - top_ms).abs() / measured_ms,
        totals.sessions,
    );
    notes.push(format!(
        "untraced: sessions_per_s={wire_sessions_per_s:.2} ttco_ms_p50={:.3} sessions={n}; traced: sessions_per_s={traced_sessions_per_s:.2}",
        percentile(&plain.ttco_ms, 0.5)
    ));
}

// ------------------------------------------- every workload, and the A/A

/// Runs `--workload w` in a child process (a clean `VmHWM` per workload),
/// echoes its metric lines, and returns its JSON result line.
fn child(workload: Workload, seed: u64, seconds: u64, traced: bool, echo: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().filter(|l| l.starts_with('{'))?.to_owned();
    if echo {
        for line in lines {
            println!("{line}");
        }
    }
    Some(last)
}

/// `"name": {"value": X` pairs of a result line, and its `correct` flag.
fn parse_result(line: &str) -> (bool, Vec<(String, f64)>) {
    let correct = line.contains("\"correct\": true");
    let mut metrics = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_owned();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            metrics.push((name, v));
        }
        rest = &tail[end..];
    }
    (correct, metrics)
}

fn run_all(args: &Args) -> bool {
    println!(
        "# seed {} (reference seed {}, hold-out seed {}: a claim must hold on both)",
        args.seed,
        report::REFERENCE_SEED,
        report::HOLDOUT_SEED
    );
    let mut ok = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            match child(w, args.seed, args.seconds, traced, true) {
                Some(line) => {
                    let (correct, _) = parse_result(&line);
                    if !correct {
                        println!("# {} FAILED: {line}", w.name());
                    }
                    ok &= correct;
                }
                None => {
                    println!("# {} FAILED: the run printed no result", w.name());
                    ok = false;
                }
            }
        }
    }
    println!("# all workloads {}", if ok { "correct" } else { "FAILED" });
    ok
}

/// The driver's acceptance check, run on ourselves: two sets of `n` runs,
/// every run on its own seed; per end-to-end metric the inter-quartile
/// spread of each set as a share of its median, and how much worse the
/// second median is than the first, against the metric's bound.
fn run_aa(args: &Args, n: usize) -> bool {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    println!("# A/A: 2 sets x {n} runs, seeds {}..", args.seed);
    println!("# workload metric median_a q1_a q3_a spread_a max_spread_a median_b spread_b worse_b bound verdict");
    for w in workloads {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for set in 0..2 {
            let mut runs = Vec::new();
            for i in 0..n {
                let seed = args.seed + (set * n + i) as u64;
                match child(w, seed, args.seconds, false, false) {
                    Some(line) => {
                        let (correct, metrics) = parse_result(&line);
                        ok &= correct;
                        runs.push(metrics);
                    }
                    None => ok = false,
                }
            }
            sets.push(runs);
        }
        for m in &END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.is_empty() || b.is_empty() {
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let spread = |v: &[f64], med: f64| {
                let (q1, q3) = quartiles(v);
                (q1, q3, (q3 - q1) / med)
            };
            let (q1, q3, sa) = spread(&a, ma);
            let (_, _, sb) = spread(&b, mb);
            let max_a = a.iter().copied().fold(f64::MIN, f64::max);
            let min_a = a.iter().copied().fold(f64::MAX, f64::min);
            let worse = if m.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // setup_s is held to the median shift only, as by the driver.
            let spreads_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let verdict = if !spreads_ok || worse > m.bound {
                ok = false;
                "EXCEEDS"
            } else if m.name != "setup_s" && sa.max(sb) > m.bound / 3.0 {
                "loose"
            } else {
                "ok"
            };
            println!(
                "{} {} {ma:.4} {q1:.4} {q3:.4} {sa:.4} {:.4} {mb:.4} {sb:.4} {worse:.4} {} {verdict}",
                w.name(),
                m.name,
                (max_a - min_a) / ma,
                m.bound
            );
        }
    }
    println!("# A/A {}", if ok { "within bounds" } else { "FAILED" });
    ok
}
