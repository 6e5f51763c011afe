//! Load generation: runs the sessions of a plan through the three front
//! doors (a bare `QuerySession`, the in-process scheduler, the TCP
//! server) in closed loop, and records what a dashboard would see.

use crate::table::origin_name;
use crate::trace::Tracer;
use crate::workload::{Agg, Filter, Plan, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{NeedleTail, Predicate};
use rapidviz::{
    Aggregate, MultiQueryScheduler, QueryAnswer, QueryId, SchedulePolicy, SchedulerEvent, VizQuery,
};
use rapidviz_serve::{Frame, QueryRequest, RetryPolicy, ServerStats, WireClient};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A session that has not produced its terminal answer after this long is
/// a counted failure, not a stuck run.
pub const SESSION_CAP: Duration = Duration::from_secs(120);

/// What one completed session looked like from outside.
#[derive(Clone, Debug)]
pub struct Record {
    pub samples: u64,
    pub rounds: u64,
    /// Request sent (or `start()` called) → first update with a newly
    /// certified bar; the terminal update if none came earlier.
    pub ttfcb: Duration,
    /// Request sent → terminal answer.
    pub ttco: Duration,
    pub converged: bool,
    pub labels: Vec<String>,
    /// `f64::to_bits` of the final estimates, input order.
    pub bits: Vec<u64>,
    /// Wire only: `QUERY` written → first frame read.
    pub admit_rtt: Option<Duration>,
    /// `wire_churn` only: socket dropped → first resumed frame decoded.
    pub resume_gap: Option<Duration>,
}

pub type Outcome = Result<Record, String>;

impl Record {
    fn from_answer(answer: &QueryAnswer, ttfcb: Option<Duration>, ttco: Duration) -> Self {
        Self {
            samples: answer.result.total_samples(),
            rounds: answer.result.rounds,
            ttfcb: ttfcb.unwrap_or(ttco),
            ttco,
            converged: answer.converged(),
            labels: answer.result.labels.clone(),
            bits: answer
                .result
                .estimates
                .iter()
                .map(|e| e.to_bits())
                .collect(),
            admit_rtt: None,
            resume_gap: None,
        }
    }

    /// The deterministic part: what must agree between any two executions
    /// of one spec, in-process or over the wire.
    pub fn same_answer(&self, other: &Record) -> bool {
        self.bits == other.bits
            && self.samples == other.samples
            && self.rounds == other.rounds
            && self.labels == other.labels
    }
}

pub fn predicate(filter: &Filter) -> Predicate {
    match filter {
        Filter::None => Predicate::True,
        Filter::Year(y) => Predicate::eq("year", *y),
        Filter::OriginYear(o, y) => {
            Predicate::eq("origin", origin_name(*o)).and(Predicate::eq("year", *y))
        }
        Filter::OriginIn(origins) => {
            Predicate::is_in("origin", origins.iter().map(|&o| origin_name(o)))
        }
    }
}

pub fn query<'a>(engine: &'a NeedleTail, spec: &Spec) -> VizQuery<'a> {
    let q = VizQuery::new(engine).group_by("name");
    let mut q = match spec.agg {
        Agg::Avg => q.avg(spec.measure),
        Agg::Sum => q.sum(spec.measure),
        Agg::Count => q.count(spec.measure),
    };
    if spec.filter != Filter::None {
        q = q.filter(predicate(&spec.filter));
    }
    if let Some(r) = spec.resolution_pct {
        q = q.resolution_pct(r);
    }
    if let Some(cap) = spec.max_samples {
        q = q.max_samples(cap);
    }
    q.samples_per_round(spec.samples_per_round)
}

/// The `QUERY` line equivalent of [`query`]. Wire workloads carry no
/// filter (the line grammar spells string filters only).
pub fn request(spec: &Spec) -> QueryRequest {
    assert_eq!(spec.filter, Filter::None, "wire workloads are unfiltered");
    let mut req = QueryRequest::avg("name", spec.measure, spec.seed);
    req.aggregate = match spec.agg {
        Agg::Avg => Aggregate::Avg,
        Agg::Sum => Aggregate::Sum,
        Agg::Count => Aggregate::Count,
    };
    req.resolution_pct = spec.resolution_pct;
    req.samples_per_round = Some(spec.samples_per_round);
    req.max_samples = spec.max_samples;
    req
}

/// One session through `VizQuery::start` → `QuerySession::step`.
pub fn run_inproc(
    engine: &NeedleTail,
    spec: &Spec,
    session: u32,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let q = query(engine, spec);
    let t0 = Instant::now();
    let mut sess = q
        .start(StdRng::seed_from_u64(spec.seed))
        .map_err(|e| format!("start: {e}"))?;
    let parent = tracer.as_deref_mut().map(|t| {
        let p = t.open("session", t0, session);
        t.record("session.start", t0, Instant::now(), p, session);
        p
    });
    let mut ttfcb = None;
    let mut rounds_seen = 0u64;
    loop {
        let s0 = tracer.is_some().then(Instant::now);
        let update = sess.step();
        if let (Some(t), Some(s0), Some(p)) = (tracer.as_deref_mut(), s0, parent) {
            t.record("session.step", s0, Instant::now(), p, session);
        }
        if ttfcb.is_none() && !update.newly_certified.is_empty() {
            ttfcb = Some(t0.elapsed());
        }
        if !update.outcome.is_running() {
            break;
        }
        // 300 k-step SUM sessions make a per-step clock read visible; a
        // hang check every 4 096 rounds is plenty for a 120 s cap.
        rounds_seen += 1;
        if rounds_seen.is_multiple_of(4_096) && t0.elapsed() > SESSION_CAP {
            return Err("in-process session exceeded the 120 s cap".into());
        }
    }
    let ttco = t0.elapsed();
    if let (Some(t), Some(p)) = (tracer, parent) {
        t.close(p, Instant::now());
    }
    Ok(Record::from_answer(&sess.finish(), ttfcb, ttco))
}

/// One closed-loop in-process lane: every spec in order.
pub fn pass_inproc(engine: &NeedleTail, specs: &[Spec], tracer: Option<&mut Tracer>) -> Pass {
    let mut tracer = tracer;
    let t0 = Instant::now();
    let outcomes = specs
        .iter()
        .enumerate()
        .map(|(i, s)| run_inproc(engine, s, i as u32, tracer.as_deref_mut()))
        .collect();
    Pass {
        wall: t0.elapsed(),
        outcomes,
    }
}

/// The outcomes of one pass, lane-major in plan order.
pub struct Pass {
    pub wall: Duration,
    pub outcomes: Vec<Outcome>,
}

/// `plan_fanout`: one FairShare scheduler on one thread; each dashboard's
/// tiles are planned, admitted together and polled to their terminal
/// updates before the next dashboard is requested.
pub fn pass_fanout(engine: &NeedleTail, plan: &Plan, mut tracer: Option<&mut Tracer>) -> Pass {
    let specs = &plan.lanes[0];
    let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(specs.len());
    let t_pass = Instant::now();
    for (d, tiles) in specs.chunks(plan.tiles_per_dashboard).enumerate() {
        let base = (d * plan.tiles_per_dashboard) as u32;
        let t0 = Instant::now();
        let parent = tracer.as_deref_mut().map(|t| t.open("dashboard", t0, base));
        // (id, first certified, terminal) per tile of this dashboard.
        let mut live: Vec<(Option<QueryId>, Option<Duration>, Option<Duration>)> = Vec::new();
        let mut errors: Vec<Option<String>> = Vec::new();
        for (i, spec) in tiles.iter().enumerate() {
            let s0 = Instant::now();
            match query(engine, spec).start(StdRng::seed_from_u64(spec.seed)) {
                Ok(session) => {
                    let s1 = Instant::now();
                    let id = sched.admit(session);
                    if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
                        t.record("session.start", s0, s1, p, base + i as u32);
                        t.record("scheduler.admit", s1, Instant::now(), p, base + i as u32);
                    }
                    live.push((Some(id), None, None));
                    errors.push(None);
                }
                Err(e) => {
                    live.push((None, None, None));
                    errors.push(Some(format!("start: {e}")));
                }
            }
        }
        loop {
            let s0 = tracer.is_some().then(Instant::now);
            let event = sched.poll();
            let SchedulerEvent::Round { id, update } = event else {
                break;
            };
            let now = Instant::now();
            let Some(slot) = live.iter().position(|l| l.0 == Some(id)) else {
                continue;
            };
            if let (Some(t), Some(s0), Some(p)) = (tracer.as_deref_mut(), s0, parent) {
                t.record("scheduler.poll", s0, now, p, base + slot as u32);
            }
            if live[slot].1.is_none() && !update.newly_certified.is_empty() {
                live[slot].1 = Some(now - t0);
            }
            if !update.outcome.is_running() {
                live[slot].2 = Some(now - t0);
            }
            if now - t0 > SESSION_CAP {
                break;
            }
        }
        for (slot, (id, ttfcb, ttco)) in live.into_iter().enumerate() {
            let outcome = match (id, ttco, errors[slot].take()) {
                (_, _, Some(e)) => Err(e),
                (Some(id), Some(ttco), None) => sched
                    .finish(id)
                    .map(|a| Record::from_answer(&a, ttfcb, ttco))
                    .ok_or_else(|| "scheduler lost the session".to_owned()),
                (Some(id), None, None) => {
                    let _ = sched.finish(id);
                    Err("tile exceeded the 120 s cap".into())
                }
                (None, _, None) => Err("tile never admitted".into()),
            };
            outcomes.push(outcome);
        }
        if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
            t.close(p, Instant::now());
        }
    }
    Pass {
        wall: t_pass.elapsed(),
        outcomes,
    }
}

/// One wire client: a connection kept across sessions, re-made after a
/// failure or a deliberate drop.
pub struct Lane<'a> {
    addr: SocketAddr,
    stats: &'a ServerStats,
    /// Held from a deliberate socket drop until the server has parked the
    /// orphan, so the one park a lane waits for is its own.
    drop_gate: &'a Mutex<()>,
    client: Option<WireClient>,
    pub connects: Vec<Duration>,
    pub retries: u64,
}

impl<'a> Lane<'a> {
    pub fn new(addr: SocketAddr, stats: &'a ServerStats, drop_gate: &'a Mutex<()>) -> Self {
        Self {
            addr,
            stats,
            drop_gate,
            client: None,
            connects: Vec::new(),
            retries: 0,
        }
    }

    fn connect(&mut self, seed: u64) -> Result<&mut WireClient, String> {
        if self.client.is_none() {
            let policy = RetryPolicy {
                seed,
                ..RetryPolicy::default()
            };
            let t0 = Instant::now();
            let (client, retries) = WireClient::connect_with_retry(self.addr, SESSION_CAP, &policy)
                .map_err(|e| format!("connect: {e}"))?;
            self.connects.push(t0.elapsed());
            self.retries += u64::from(retries);
            self.client = Some(client);
        }
        self.client
            .as_mut()
            .ok_or_else(|| "no connection".to_owned())
    }

    /// One session over the wire; on any error the connection is dropped
    /// so the next session starts clean.
    pub fn run(&mut self, spec: &Spec, session: u32, tracer: Option<&mut Tracer>) -> Outcome {
        let outcome = self.run_inner(spec, session, tracer);
        if outcome.is_err() {
            self.client = None;
        }
        outcome
    }

    fn run_inner(&mut self, spec: &Spec, session: u32, mut tracer: Option<&mut Tracer>) -> Outcome {
        let req = request(spec);
        let c0 = Instant::now();
        let fresh = self.client.is_none();
        self.connect(spec.seed)?;
        let t0 = Instant::now();
        let parent = tracer.as_deref_mut().map(|t| {
            let p = t.open("wire.session", c0, session);
            if fresh {
                t.record("wire.connect", c0, t0, p, session);
            }
            p
        });
        self.connect(spec.seed)?
            .send_request(&req)
            .map_err(|e| format!("send: {e}"))?;
        if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
            t.record("wire.send_request", t0, Instant::now(), p, session);
        }
        let mut token = None;
        let mut admit_rtt = None;
        let mut ttfcb = None;
        let mut drop_after = spec.drop_after_round;
        // Set at the drop, taken when the first resumed frame arrives.
        let mut dropped_at: Option<Instant> = None;
        let mut resume_gap = None;
        let answer = loop {
            let f0 = Instant::now();
            let frame = self
                .connect(spec.seed)?
                .next_frame()
                .map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
                t.record("wire.next_frame", f0, now, p, session);
            }
            admit_rtt.get_or_insert(now - t0);
            if let Some(at) = dropped_at.take() {
                resume_gap = Some(now - at);
            }
            match frame {
                Some(Frame::Parked { token: t }) => token = Some(t),
                Some(Frame::Round(r)) => {
                    if ttfcb.is_none() && !r.newly_certified.is_empty() {
                        ttfcb = Some(now - t0);
                    }
                    if drop_after.is_some_and(|d| r.round >= d) && r.outcome.is_running() {
                        drop_after = None;
                        let token = token.ok_or("no resume token before the drop")?;
                        let at = Instant::now();
                        self.drop_and_resume(token, spec.seed)?;
                        if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
                            t.record("wire.drop_resume", at, Instant::now(), p, session);
                        }
                        dropped_at = Some(at);
                    }
                }
                Some(Frame::Evicted { .. }) => {}
                Some(Frame::Answer(a)) => break a,
                Some(Frame::Error { code, message }) => {
                    return Err(format!("server error {code:?}: {message}"))
                }
                Some(Frame::Stats(_)) => return Err("stats frame inside a query stream".into()),
                None => return Err("stream closed without a terminal frame".into()),
            }
            if now - t0 > SESSION_CAP {
                return Err("wire session exceeded the 120 s cap".into());
            }
        };
        let ttco = t0.elapsed();
        if let (Some(t), Some(p)) = (tracer, parent) {
            t.close(p, Instant::now());
        }
        Ok(Record {
            samples: answer.samples_per_group.iter().sum(),
            rounds: answer.rounds,
            ttfcb: ttfcb.unwrap_or(ttco),
            ttco,
            converged: answer.outcome == rapidviz::StepOutcome::Converged,
            labels: answer.labels,
            bits: answer.estimates.iter().map(|e| e.to_bits()).collect(),
            admit_rtt,
            resume_gap,
        })
    }

    /// Drops the socket mid-stream, waits until the server has parked the
    /// orphan (its disconnect handling is asynchronous to the close),
    /// reconnects with seeded backoff and sends `RESUME`.
    fn drop_and_resume(&mut self, token: u64, seed: u64) -> Result<(), String> {
        {
            let _gate = self.drop_gate.lock().expect("no lane panics at the gate");
            let before = self.stats.sessions_parked.load(Ordering::SeqCst);
            self.client = None;
            let t0 = Instant::now();
            while self.stats.sessions_parked.load(Ordering::SeqCst) == before {
                if t0.elapsed() > Duration::from_secs(10) {
                    return Err("server never parked the dropped session".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        self.connect(seed)?
            .send_line(&format!("RESUME token={token}"))
            .map_err(|e| format!("resume: {e}"))
    }
}

/// One wire pass: every lane is a client thread running its list in
/// closed loop against the one server.
pub fn pass_wire<'a>(plan: &Plan, lanes: &mut [Lane<'a>], tracers: Option<&mut [Tracer]>) -> Pass {
    let t0 = Instant::now();
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => lanes.iter().map(|_| None).collect(),
    };
    let per_lane: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(&plan.lanes)
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(l, ((lane, specs), tracer))| {
                let base = (l * specs.len()) as u32;
                scope.spawn(move || {
                    let mut tracer = tracer.as_deref_mut();
                    specs
                        .iter()
                        .enumerate()
                        .map(|(i, s)| lane.run(s, base + i as u32, tracer.as_deref_mut()))
                        .collect::<Vec<Outcome>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Pass {
        wall: t0.elapsed(),
        outcomes: per_lane.into_iter().flatten().collect(),
    }
}
