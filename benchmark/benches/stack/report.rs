//! The metric catalogue (the source `BENCHMARK.json` is generated from),
//! order statistics, and the two output formats: one human-readable line
//! per metric, and the driver's one-line JSON result.

use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a dashboard user sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttco_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// `(name, unit, better)` of every per-layer metric, layer by layer. A
/// metric a workload cannot exercise (a wire counter in-process) reads 0
/// there.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    // End-to-end figures that cannot hold a regression bound on every
    // workload: exact per seed but moving between seeds, defined on a
    // subset of workloads, or (time to the first certified bar) a median
    // that falls between the modes of a 12-session mix.
    ("e2e.samples_per_session", "count", "lower"),
    ("e2e.ttfcb_ms_p50", "ms", "lower"),
    ("e2e.ttfcb_ms_p90", "ms", "lower"),
    ("e2e.ttco_ms_p90", "ms", "lower"),
    ("e2e.resume_gap_ms_p50", "ms", "lower"),
    ("e2e.failed_share", "share", "lower"),
    ("e2e.inproc_sessions_per_s", "1/s", "higher"),
    // needletail::bitmap
    ("bitmap.select_many.ns_per_draw", "ns", "lower"),
    ("bitmap.heap_mb", "MB", "lower"),
    // needletail::sampler
    ("sampler.wor.ns_per_draw", "ns", "lower"),
    ("sampler.wr.ns_per_draw", "ns", "lower"),
    ("sampler.swapmap.entries_per_draw", "count", "lower"),
    // needletail::engine
    ("engine.fetch.ns_per_draw", "ns", "lower"),
    ("engine.plan.cold_us", "us", "lower"),
    ("engine.plan.warm_us", "us", "lower"),
    ("engine.plan_cache.hit_share", "share", "higher"),
    ("engine.predicate_cache.hit_share", "share", "higher"),
    ("engine.retrievals_per_sample", "count", "lower"),
    ("engine.faulted_reads", "count", "lower"),
    // stats
    ("stats.interval.ns_per_round", "ns", "lower"),
    // core
    ("core.step.ns_per_round", "ns", "lower"),
    ("core.step.self_ns_per_draw", "ns", "lower"),
    ("core.rounds_per_session", "count", "lower"),
    ("core.samples_per_round", "count", "higher"),
    ("core.sum1.samples_per_step", "count", "higher"),
    ("core.misordered_share", "share", "lower"),
    // session
    ("session.start_us", "us", "lower"),
    ("session.step.ns_per_round", "ns", "lower"),
    ("session.step.self_ns_per_round", "ns", "lower"),
    ("session.allocs_per_round", "count", "lower"),
    ("session.alloc_bytes_per_round", "B", "lower"),
    // checkpoint
    ("checkpoint.capture_us_per_round", "us", "lower"),
    ("checkpoint.bytes_per_round", "B", "lower"),
    ("checkpoint.bytes_final", "B", "lower"),
    ("checkpoint.to_bytes_us", "us", "lower"),
    ("checkpoint.from_bytes_us", "us", "lower"),
    ("checkpoint.encoded_bytes", "B", "lower"),
    ("checkpoint.resume_us", "us", "lower"),
    // scheduler
    ("scheduler.admit_us", "us", "lower"),
    ("scheduler.poll.self_ns_per_quantum", "ns", "lower"),
    ("scheduler.quanta_per_session", "count", "lower"),
    ("scheduler.checkpoint_us_per_round", "us", "lower"),
    ("scheduler.park_us", "us", "lower"),
    ("scheduler.unpark_us", "us", "lower"),
    // serve::protocol
    ("protocol.from_update.ns_per_frame", "ns", "lower"),
    ("protocol.encode.ns_per_frame", "ns", "lower"),
    ("protocol.decode.ns_per_frame", "ns", "lower"),
    ("protocol.bytes_per_frame", "B", "lower"),
    ("protocol.allocs_per_frame", "count", "lower"),
    ("protocol.parse_line_ns", "ns", "lower"),
    // serve::server, as a black box plus its STATS frame
    ("server.admit_rtt_us", "us", "lower"),
    ("server.frames_sent_per_session", "count", "lower"),
    ("server.frames_dropped_share", "share", "lower"),
    ("server.wire_bytes_per_session", "B", "lower"),
    ("server.wire_over_inproc", "ratio", "higher"),
    ("server.residual_ms_per_session", "ms", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.parked", "count", "lower"),
    ("server.resumed", "count", "lower"),
    ("server.scheduler_restarts", "count", "lower"),
    ("server.accounting_gap", "count", "lower"),
    // serve::client
    ("client.connect_us", "us", "lower"),
    ("client.next_frame.ns_per_frame", "ns", "lower"),
    ("client.retries", "count", "lower"),
    // The decomposition: each rung's self time per replayed session.
    ("rung.bitmap.self_ms_per_session", "ms", "lower"),
    ("rung.sampler.self_ms_per_session", "ms", "lower"),
    ("rung.fetch.self_ms_per_session", "ms", "lower"),
    ("rung.core.self_ms_per_session", "ms", "lower"),
    ("rung.session.self_ms_per_session", "ms", "lower"),
    ("rung.scheduler.self_ms_per_session", "ms", "lower"),
    ("rung.checkpoint.self_ms_per_session", "ms", "lower"),
    ("rung.protocol.self_ms_per_session", "ms", "lower"),
    ("rung.sessions_replayed", "count", "higher"),
    // The traced pass itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.available_parallelism", "count", "higher"),
];

/// Reference seed for committed numbers; claims must also hold on
/// [`HOLDOUT_SEED`], which nobody tunes against.
pub const REFERENCE_SEED: u64 = 31;
pub const HOLDOUT_SEED: u64 = 97;
pub const RUN_SECONDS: u64 = 10;

/// Value at percentile `p` of a sample, by the nearest-rank method: the
/// smallest value with at least `p` of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * p).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Where a run happened: carried by every result line.
pub struct Env {
    pub cpus: usize,
    pub rustc: String,
    pub commit: String,
}

impl Env {
    pub fn detect() -> Self {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        Self {
            cpus: std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
            rustc: run("rustc", &["-V"])
                .and_then(|s| s.split_whitespace().nth(1).map(str::to_owned))
                .unwrap_or_else(|| "unknown".into()),
            commit: run("git", &["rev-parse", "--short", "HEAD"])
                .map_or_else(|| "unknown".into(), |s| s.trim().to_owned()),
        }
    }

    fn suffix(&self) -> String {
        format!(
            "cpus={} rustc={} features=default commit={}",
            self.cpus, self.rustc, self.commit
        )
    }
}

/// One run's result: what the last stdout line is built from.
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit, sample count)
    pub metrics: BTreeMap<&'static str, (f64, &'static str, u64)>,
    pub notes: Vec<String>,
}

impl RunResult {
    /// `workload metric value unit n=… cpus=… rustc=… features=… commit=…`
    pub fn print_lines(&self, env: &Env) {
        for note in &self.notes {
            println!("# {} {note}", self.workload.name());
        }
        for (name, (value, unit, n)) in &self.metrics {
            println!(
                "{} {name} {} {unit} n={n} seed={} {}",
                self.workload.name(),
                fmt_value(*value),
                self.seed,
                env.suffix()
            );
        }
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit, _))) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{comma}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_value(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// Every digit as measured; non-finite values cannot be JSON numbers.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The committed `BENCHMARK.json`, generated so the catalogue above stays
/// the single source of names, units, directions and bounds.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"cargo\", \"bench\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bench\", \"stack\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 == Workload::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}
