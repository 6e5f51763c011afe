//! The per-layer ladder: the workload's first sessions are replayed, same
//! seeds and batch sizes, one layer at a time — `Bitmap::select_many` →
//! sampler batches → `GroupHandle` batches → the core stepper over
//! pre-drawn values → `QuerySession::step` → `MultiQueryScheduler::poll`
//! → + checkpoint/park → + frame build/encode/write/decode into a
//! `Vec<u8>` — timing every call into a public function from outside.
//! A rung's self time is its total minus the rung below.

use crate::alloc::thread_totals;
use crate::drive::{predicate, query, request};
use crate::workload::{Agg, Filter, Spec, SplitMix};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::core::extensions::{
    count_config, CountSource, IFocusSum1, IFocusSum2, SizedGroupSource,
};
use rapidviz::core::{AlgoConfig, AlgorithmStepper, GroupSource, IFocus, SamplingMode};
use rapidviz::needletail::{Bitmap, BitmapSampler, NeedleTail, SizeEstimatingSampler, Value};
use rapidviz::stats::{EpsilonSchedule, Interval, IntervalSetScratch};
use rapidviz::{
    MultiQueryScheduler, ParkingRegistry, QueryId, QuerySession, SchedulePolicy, SchedulerEvent,
    SessionCheckpoint,
};
use rapidviz_serve::protocol::{read_frame, write_frame_bytes};
use rapidviz_serve::{Frame, QueryRequest};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Values pre-drawn per group for the core rung: small enough to stay in
/// L1/L2, so the stepper is timed with storage bypassed.
const REPLAY_VALUES: usize = 4_096;
/// Encoded frames kept per session for the client-decode rung.
const KEPT_FRAMES: usize = 64;

/// Metric name → (value, sample count).
pub type Metrics = BTreeMap<&'static str, (f64, u64)>;

/// A total (nanoseconds, or bytes) over `n` units of work.
#[derive(Default)]
struct Sum {
    ns: f64,
    n: u64,
}

impl Sum {
    fn add(&mut self, d: Duration, n: u64) {
        self.add_value(d.as_nanos() as f64, n);
    }

    fn add_value(&mut self, value: f64, n: u64) {
        self.ns += value;
        self.n += n;
    }

    fn per(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns / self.n as f64
        }
    }
}

/// What the session rung learned about one replayed session.
struct Shape {
    labels: Vec<String>,
    draws: Vec<u64>,
    rounds: u64,
    /// Draws per round and active group, recovered from the counts (the
    /// SUM stepper does not honour `samples_per_round`).
    batch: u64,
    step_ns: f64,
}

/// A [`GroupSource`] that replays pre-drawn values round-robin.
struct ReplayGroup {
    label: String,
    len: u64,
    values: Vec<f64>,
    cursor: usize,
    drawn: u64,
}

impl ReplayGroup {
    fn next(&mut self) -> f64 {
        let v = self.values[self.cursor];
        self.cursor = (self.cursor + 1) % self.values.len();
        v
    }
}

impl GroupSource for ReplayGroup {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn sample(&mut self, _rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64> {
        if mode == SamplingMode::WithoutReplacement && self.drawn >= self.len {
            return None;
        }
        self.drawn += 1;
        Some(self.next())
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.drawn = 0;
    }
}

/// The sized counterpart: replays `{0, 1}` size probes.
struct ReplaySized {
    label: String,
    z: Vec<f64>,
    cursor: usize,
}

impl SizedGroupSource for ReplaySized {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn sample_with_size(&mut self, _rng: &mut dyn RngCore) -> Option<(f64, f64)> {
        let z = self.z[self.cursor];
        self.cursor = (self.cursor + 1) % self.z.len();
        Some((1.0, z))
    }
}

pub struct Ladder<'a> {
    pub engine: &'a NeedleTail,
    pub specs: &'a [Spec],
    /// Sessions admitted together on the scheduler rungs.
    pub concurrent: usize,
    /// Whether the workload's plan caches start cold (`plan_fanout`).
    pub cold_caches: bool,
}

/// Per-session totals of the rungs, for the decomposition.
#[derive(Default)]
pub struct Totals {
    pub sessions: u64,
    pub bitmap: f64,
    pub sampler: f64,
    pub fetch: f64,
    pub core: f64,
    pub session: f64,
    pub scheduler: f64,
    pub checkpoint: f64,
    pub protocol: f64,
    pub decode: f64,
}

impl Ladder<'_> {
    pub fn run(&self) -> (Metrics, Totals) {
        let mut m = Metrics::new();
        let mut totals = Totals {
            sessions: self.specs.len() as u64,
            ..Totals::default()
        };
        if self.cold_caches {
            self.engine.clear_plan_caches();
        }
        let shapes = self.session_rung(&mut m, &mut totals);
        self.storage_rungs(&shapes, &mut m, &mut totals);
        self.core_rung(&shapes, &mut m, &mut totals);
        if self.cold_caches {
            self.engine.clear_plan_caches();
        }
        self.serving_rungs(&shapes, &mut m, &mut totals);
        self.checkpoint_rung(&shapes, &mut m);
        self.plan_rung(&mut m);
        stats_rung(&mut m);
        let rounds: u64 = shapes.iter().map(|s| s.rounds).sum();
        let step_ns: f64 = shapes.iter().map(|s| s.step_ns).sum();
        // QuerySession::step minus what the stepper and the storage
        // handles account for: budget checks, RoundUpdate and Snapshot.
        let residual = step_ns - totals.core - totals.fetch;
        m.insert(
            "session.step.self_ns_per_round",
            (residual / rounds.max(1) as f64, rounds),
        );
        (m, totals)
    }

    /// `VizQuery::start` + `QuerySession::step` to the terminal update.
    fn session_rung(&self, m: &mut Metrics, totals: &mut Totals) -> Vec<Shape> {
        let mut start = Sum::default();
        let mut steps = Sum::default();
        let (mut allocs, mut bytes) = (0u64, 0u64);
        let (mut samples, mut sum_samples, mut sum_rounds) = (0u64, 0u64, 0u64);
        let before = self.engine.metrics().snapshot();
        let mut shapes = Vec::with_capacity(self.specs.len());
        for spec in self.specs {
            let q = query(self.engine, spec);
            let t0 = Instant::now();
            let mut sess = q
                .start(StdRng::seed_from_u64(spec.seed))
                .expect("ladder session plans");
            let t1 = Instant::now();
            let a0 = thread_totals();
            let mut rounds = 0u64;
            while sess.step().outcome.is_running() {
                rounds += 1;
            }
            rounds += 1;
            let t2 = Instant::now();
            let a1 = thread_totals();
            start.add(t1 - t0, 1);
            steps.add(t2 - t1, rounds);
            allocs += a1.0 - a0.0;
            bytes += a1.1 - a0.1;
            let answer = sess.finish();
            let draws = answer.result.samples_per_group.clone();
            let total: u64 = draws.iter().sum();
            samples += total;
            if spec.agg == Agg::Sum {
                sum_samples += total;
                sum_rounds += rounds;
            }
            let batch = draws.iter().max().map_or(1, |&d| d.div_ceil(rounds).max(1));
            shapes.push(Shape {
                labels: answer.result.labels.clone(),
                draws,
                rounds,
                batch,
                step_ns: (t2 - t1).as_nanos() as f64,
            });
        }
        let after = self.engine.metrics().snapshot();
        let rounds = steps.n;
        totals.session = start.ns + steps.ns;
        m.insert("session.start_us", (start.per() / 1e3, start.n));
        m.insert("session.step.ns_per_round", (steps.per(), rounds));
        m.insert(
            "session.allocs_per_round",
            (allocs as f64 / rounds as f64, rounds),
        );
        m.insert(
            "session.alloc_bytes_per_round",
            (bytes as f64 / rounds as f64, rounds),
        );
        m.insert(
            "core.rounds_per_session",
            (rounds as f64 / start.n as f64, start.n),
        );
        m.insert(
            "core.samples_per_round",
            (samples as f64 / rounds as f64, rounds),
        );
        m.insert(
            "core.sum1.samples_per_step",
            (
                if sum_rounds == 0 {
                    0.0
                } else {
                    sum_samples as f64 / sum_rounds as f64
                },
                sum_rounds,
            ),
        );
        m.insert(
            "engine.retrievals_per_sample",
            (
                (after.random_samples - before.random_samples) as f64 / samples.max(1) as f64,
                samples,
            ),
        );
        m.insert(
            "engine.faulted_reads",
            ((after.faulted_reads - before.faulted_reads) as f64, samples),
        );
        shapes
    }

    /// The row set each group of `spec` samples from, by answer label.
    fn group_bitmaps(&self, spec: &Spec, labels: &[String]) -> Vec<Arc<Bitmap>> {
        let index = self.engine.index("name").expect("name is indexed");
        let filter = (spec.filter != Filter::None)
            .then(|| self.engine.predicate_bitmap(&predicate(&spec.filter)));
        labels
            .iter()
            .map(|l| {
                let base = index
                    .shared_bitmap_for(&Value::Str(l.clone()))
                    .expect("answer labels come from the index");
                match &filter {
                    Some(f) => Arc::new(base.and(f)),
                    None => Arc::clone(base),
                }
            })
            .collect()
    }

    /// Rungs 1–3: the same draws in the same round order through
    /// `Bitmap::select_many`, the samplers, and the engine's handles.
    fn storage_rungs(&self, shapes: &[Shape], m: &mut Metrics, totals: &mut Totals) {
        let mut select = Sum::default();
        let mut wor = Sum::default();
        let mut wr = Sum::default();
        let mut fetch_wor = Sum::default();
        let mut fetch_wr = Sum::default();
        let (mut swap_entries, mut swap_draws) = (0u64, 0u64);
        let rows = self.engine.table().row_count();
        for (spec, shape) in self.specs.iter().zip(shapes) {
            let bitmaps = self.group_bitmaps(spec, &shape.labels);
            let sized = spec.agg == Agg::Count;

            // select_many on pre-sorted ranks (a lone rank goes through
            // `select`, as the single-draw sampler path does).
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let mut ranks: Vec<Vec<u64>> = vec![Vec::new(); bitmaps.len()];
            let mut out: Vec<u64> = Vec::new();
            let ones: Vec<u64> = bitmaps.iter().map(|b| b.count_ones()).collect();
            replay(shape, |work, draws| {
                for &(g, n) in work {
                    ranks[g].clear();
                    ranks[g].extend((0..n).map(|_| rng.gen_range(0..ones[g])));
                    ranks[g].sort_unstable();
                }
                let t = Instant::now();
                for &(g, n) in work {
                    if n == 1 {
                        black_box(bitmaps[g].select(ranks[g][0]));
                    } else {
                        out.clear();
                        bitmaps[g].select_many(&ranks[g], &mut out);
                        black_box(&out);
                    }
                }
                select.add(t.elapsed(), draws);
            });

            // The sampler each aggregate uses.
            let mut rng = StdRng::seed_from_u64(spec.seed);
            if sized {
                let mut samplers: Vec<SizeEstimatingSampler> = bitmaps
                    .iter()
                    .map(|b| SizeEstimatingSampler::shared(Arc::clone(b), rows))
                    .collect();
                let mut out = Vec::new();
                replay(shape, |work, draws| {
                    let t = Instant::now();
                    for &(g, n) in work {
                        if n == 1 {
                            black_box(samplers[g].sample_with_size_estimate(&mut rng));
                        } else {
                            out.clear();
                            samplers[g]
                                .sample_batch_with_size_estimate(n as usize, &mut rng, &mut out);
                            black_box(&out);
                        }
                    }
                    wr.add(t.elapsed(), draws);
                });
            } else {
                let mut samplers: Vec<BitmapSampler> = bitmaps
                    .iter()
                    .map(|b| BitmapSampler::shared(Arc::clone(b)))
                    .collect();
                let mut out = Vec::new();
                replay(shape, |work, draws| {
                    let t = Instant::now();
                    for &(g, n) in work {
                        if n == 1 {
                            black_box(samplers[g].sample_without_replacement(&mut rng));
                        } else {
                            out.clear();
                            samplers[g]
                                .sample_batch_without_replacement(n as usize, &mut rng, &mut out);
                            black_box(&out);
                        }
                    }
                    wor.add(t.elapsed(), draws);
                });
                for s in &samplers {
                    let (drawn, entries) = s.permutation_state();
                    swap_entries += entries.len() as u64;
                    swap_draws += drawn;
                }
            }

            // The engine's handles: sampler + value fetch + metrics.
            let mut rng = StdRng::seed_from_u64(spec.seed);
            if sized {
                let mut handles = self
                    .engine
                    .sized_group_handles("name", spec.measure)
                    .expect("sized handles plan");
                let mut out = Vec::new();
                replay(shape, |work, draws| {
                    let t = Instant::now();
                    for &(g, n) in work {
                        if n == 1 {
                            black_box(handles[g].sample_with_size(&mut rng));
                        } else {
                            out.clear();
                            handles[g].sample_batch_with_size(n as usize, &mut rng, &mut out);
                            black_box(&out);
                        }
                    }
                    fetch_wr.add(t.elapsed(), draws);
                });
            } else {
                let mut handles = self
                    .engine
                    .group_handles("name", spec.measure, &predicate(&spec.filter))
                    .expect("handles plan");
                let mut out = Vec::new();
                replay(shape, |work, draws| {
                    let t = Instant::now();
                    for &(g, n) in work {
                        if n == 1 {
                            black_box(handles[g].sample_without_replacement(&mut rng));
                        } else {
                            out.clear();
                            handles[g]
                                .sample_batch_without_replacement(n as usize, &mut rng, &mut out);
                            black_box(&out);
                        }
                    }
                    fetch_wor.add(t.elapsed(), draws);
                });
            }
        }
        totals.bitmap = select.ns;
        totals.sampler = wor.ns + wr.ns;
        totals.fetch = fetch_wor.ns + fetch_wr.ns;
        let fetch_draws = fetch_wor.n + fetch_wr.n;
        m.insert("bitmap.select_many.ns_per_draw", (select.per(), select.n));
        m.insert("sampler.wor.ns_per_draw", (wor.per(), wor.n));
        m.insert("sampler.wr.ns_per_draw", (wr.per(), wr.n));
        m.insert(
            "sampler.swapmap.entries_per_draw",
            (swap_entries as f64 / swap_draws.max(1) as f64, swap_draws),
        );
        m.insert(
            "engine.fetch.ns_per_draw",
            (
                (totals.fetch - totals.sampler) / fetch_draws.max(1) as f64,
                fetch_draws,
            ),
        );
        let heap: usize = crate::table::INDEXED
            .iter()
            .filter_map(|c| self.engine.index(c))
            .map(|i| i.heap_bytes())
            .sum();
        m.insert("bitmap.heap_mb", (heap as f64 / 1e6, 1));
    }

    /// Rung 4: the stepper and its deactivation fixpoint over replayed
    /// values — same group sizes, bound, resolution and batch size.
    fn core_rung(&self, shapes: &[Shape], m: &mut Metrics, totals: &mut Totals) {
        let mut time = Sum::default();
        let (mut rounds, mut wanted_rounds) = (0u64, 0u64);
        let rows = self.engine.table().row_count();
        for (spec, shape) in self.specs.iter().zip(shapes) {
            let bitmaps = self.group_bitmaps(spec, &shape.labels);
            let c = match spec.agg {
                Agg::Count => 1.0,
                _ => (self.engine.column_max(spec.measure).unwrap_or(0.0) * 1.1).max(1.0),
            };
            let mut config =
                AlgoConfig::new(c, 0.05).with_samples_per_round(spec.samples_per_round);
            if let Some(pct) = spec.resolution_pct {
                config = config.with_resolution(c * pct / 100.0);
            }
            let cap = spec.max_samples.unwrap_or(u64::MAX);
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let (spent, done, draws) = if spec.agg == Agg::Count {
                let mut probes = SplitMix::new(spec.seed);
                let mut groups: Vec<CountSource<ReplaySized>> = shape
                    .labels
                    .iter()
                    .zip(&bitmaps)
                    .map(|(l, b)| {
                        let p = b.count_ones() as f64 / rows as f64;
                        CountSource::new(ReplaySized {
                            label: l.clone(),
                            z: (0..REPLAY_VALUES)
                                .map(|_| f64::from(u8::from(probes.unit() < p)))
                                .collect(),
                            cursor: 0,
                        })
                    })
                    .collect();
                let t = Instant::now();
                let mut stepper =
                    IFocusSum2::new(count_config(&config)).start(&mut groups, &mut rng);
                let mut done = 1u64;
                while stepper.total_samples() < cap
                    && stepper.step(&mut groups, &mut rng).is_running()
                {
                    done += 1;
                }
                (t.elapsed(), done, stepper.total_samples())
            } else {
                let mut handles = self
                    .engine
                    .group_handles("name", spec.measure, &predicate(&spec.filter))
                    .expect("handles plan");
                let mut fill = StdRng::seed_from_u64(spec.seed ^ 0x5EED);
                let mut groups: Vec<ReplayGroup> = handles
                    .iter_mut()
                    .zip(&shape.labels)
                    .map(|(h, l)| {
                        let mut values = Vec::new();
                        h.sample_batch_without_replacement(REPLAY_VALUES, &mut fill, &mut values);
                        ReplayGroup {
                            label: l.clone(),
                            len: h.len(),
                            values,
                            cursor: 0,
                            drawn: 0,
                        }
                    })
                    .collect();
                let t = Instant::now();
                if spec.agg == Agg::Sum {
                    let mut stepper = IFocusSum1::new(config).start(&mut groups, &mut rng);
                    let mut done = 1u64;
                    while stepper.total_samples() < cap
                        && stepper.step_any(&mut groups, &mut rng).is_running()
                    {
                        done += 1;
                    }
                    (t.elapsed(), done, stepper.total_samples())
                } else {
                    let mut stepper = IFocus::new(config).start(&mut groups, &mut rng);
                    let mut done = 1u64;
                    while stepper.total_samples() < cap
                        && stepper.step(&mut groups, &mut rng).is_running()
                    {
                        done += 1;
                    }
                    (t.elapsed(), done, stepper.total_samples())
                }
            };
            time.add(spent, draws);
            rounds += done;
            wanted_rounds += shape.rounds;
        }
        // The replayed values are not the session's, so a SUM replay may
        // stop a few rounds off; scale its total to the session's rounds.
        totals.core = time.ns * wanted_rounds as f64 / rounds.max(1) as f64;
        m.insert(
            "core.step.ns_per_round",
            (time.ns / rounds.max(1) as f64, rounds),
        );
        m.insert("core.step.self_ns_per_draw", (time.per(), time.n));
    }

    /// Rungs 5–7 in one replay: `poll()` per quantum, then — as the
    /// server does after every round — the checkpoint refresh and the
    /// frame build, encode, write and (client side) decode, each timed
    /// around its own calls.
    fn serving_rungs(&self, shapes: &[Shape], m: &mut Metrics, totals: &mut Totals) {
        let mut admit = Sum::default();
        let mut start = Sum::default();
        let mut poll = Sum::default();
        let mut ckpt = Sum::default();
        let mut from_update = Sum::default();
        let mut encode = Sum::default();
        let mut write = Sum::default();
        let mut decode = Sum::default();
        let mut client = Sum::default();
        let mut frame_bytes = 0u64;
        let mut frame_allocs = 0u64;
        let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
        let mut registry = ParkingRegistry::new(Duration::from_secs(120));
        let mut sink: Vec<u8> = Vec::new();
        let mut kept: Vec<u8> = Vec::new();
        let paired: Vec<(&Spec, &Shape)> = self.specs.iter().zip(shapes).collect();
        for group in paired.chunks(self.concurrent.max(1)) {
            // (id, resume token, checkpoint every n-th round, rounds seen)
            let mut tokens: Vec<(QueryId, u64, u64, u64)> = Vec::new();
            for (spec, shape) in group {
                let t0 = Instant::now();
                let session = query(self.engine, spec)
                    .start(StdRng::seed_from_u64(spec.seed))
                    .expect("ladder session plans");
                let t1 = Instant::now();
                let id = sched.admit(session);
                admit.add(t1.elapsed(), 1);
                start.add(t1 - t0, 1);
                // The server's grant_token: reserve + initial checkpoint.
                let t = Instant::now();
                let ck = sched.checkpoint(id).expect("session checkpoints");
                let token = registry.reserve();
                registry
                    .park_reserved(token, ck)
                    .expect("uncapped registry accepts");
                ckpt.add(t.elapsed(), 0);
                tokens.push((id, token, checkpoint_stride(shape.rounds), 0));
            }
            kept.clear();
            let mut kept_frames = 0u64;
            loop {
                let t = Instant::now();
                let event = sched.poll();
                let SchedulerEvent::Round { id, update } = event else {
                    break;
                };
                poll.add(t.elapsed(), 1);
                let terminal = !update.outcome.is_running();

                let a0 = thread_totals().0;
                let t = Instant::now();
                let frame = Frame::from_update(&update);
                from_update.add(t.elapsed(), 1);
                let t = Instant::now();
                let payload = frame.encode();
                encode.add(t.elapsed(), 1);
                frame_allocs += thread_totals().0 - a0;
                frame_bytes += payload.len() as u64 + 4;
                sink.clear();
                let t = Instant::now();
                write_frame_bytes(&mut sink, &payload).expect("Vec sink never fails");
                write.add(t.elapsed(), 1);
                let t = Instant::now();
                black_box(Frame::decode(&payload).expect("own frame decodes"));
                decode.add(t.elapsed(), 1);
                if (kept_frames as usize) < KEPT_FRAMES {
                    kept.extend_from_slice(&sink);
                    kept_frames += 1;
                }

                if terminal {
                    tokens.retain(|entry| {
                        if entry.0 == id {
                            registry.discard(entry.1);
                        }
                        entry.0 != id
                    });
                    black_box(sched.finish(id));
                } else if let Some(entry) = tokens.iter_mut().find(|e| e.0 == id) {
                    entry.3 += 1;
                    if entry.3.is_multiple_of(entry.2) {
                        let t = Instant::now();
                        let ck = sched.checkpoint(id).expect("session checkpoints");
                        registry
                            .park_reserved(entry.1, ck)
                            .expect("uncapped registry accepts");
                        // One capture stands for the whole stride.
                        ckpt.add(t.elapsed() * entry.2 as u32, entry.2);
                    }
                }
            }
            // The client's read path over the same bytes, without a socket.
            let mut cursor: &[u8] = &kept;
            let t = Instant::now();
            while let Ok(Some(f)) = read_frame(&mut cursor) {
                black_box(f);
            }
            client.add(t.elapsed(), kept_frames);
        }
        let step_ns: f64 = shapes.iter().map(|s| s.step_ns).sum();
        totals.scheduler = start.ns + admit.ns + poll.ns;
        totals.checkpoint = ckpt.ns;
        totals.protocol = from_update.ns + encode.ns + write.ns;
        totals.decode = decode.ns;
        m.insert("scheduler.admit_us", (admit.per() / 1e3, admit.n));
        m.insert(
            "scheduler.poll.self_ns_per_quantum",
            ((poll.ns - step_ns) / poll.n.max(1) as f64, poll.n),
        );
        m.insert(
            "scheduler.quanta_per_session",
            (poll.n as f64 / admit.n.max(1) as f64, admit.n),
        );
        m.insert(
            "scheduler.checkpoint_us_per_round",
            (ckpt.per() / 1e3, ckpt.n),
        );
        m.insert(
            "protocol.from_update.ns_per_frame",
            (from_update.per(), from_update.n),
        );
        m.insert("protocol.encode.ns_per_frame", (encode.per(), encode.n));
        m.insert("protocol.decode.ns_per_frame", (decode.per(), decode.n));
        m.insert(
            "protocol.bytes_per_frame",
            (frame_bytes as f64 / encode.n.max(1) as f64, encode.n),
        );
        m.insert(
            "protocol.allocs_per_frame",
            (frame_allocs as f64 / encode.n.max(1) as f64, encode.n),
        );
        m.insert("client.next_frame.ns_per_frame", (client.per(), client.n));

        let mut parse = Sum::default();
        for spec in self.specs.iter().filter(|s| s.filter == Filter::None) {
            let line = request(spec).to_line();
            let t = Instant::now();
            black_box(QueryRequest::parse_line(&line).expect("own line parses"));
            parse.add(t.elapsed(), 1);
        }
        m.insert("protocol.parse_line_ns", (parse.per(), parse.n));
    }

    /// `QuerySession::checkpoint` after every round, as the server takes
    /// it, plus the byte codec, resume, and scheduler park/unpark at the
    /// session's midpoint.
    fn checkpoint_rung(&self, shapes: &[Shape], m: &mut Metrics) {
        let mut capture = Sum::default();
        let mut bytes = 0u64;
        let mut last_bytes = Sum::default();
        let mut to_bytes = Sum::default();
        let mut from_bytes = Sum::default();
        let mut encoded = Sum::default();
        let mut resume = Sum::default();
        let mut park = Sum::default();
        let mut unpark = Sum::default();
        for (spec, shape) in self.specs.iter().zip(shapes) {
            let mut sess = query(self.engine, spec)
                .start(StdRng::seed_from_u64(spec.seed))
                .expect("ladder session plans");
            let stride = checkpoint_stride(shape.rounds);
            // The held checkpoint is the capture nearest the midpoint.
            let mid = (shape.rounds / 2).next_multiple_of(stride).max(stride);
            let mut round = 0u64;
            let mut held: Option<SessionCheckpoint> = None;
            let mut last = 0usize;
            while sess.step().outcome.is_running() {
                round += 1;
                if !round.is_multiple_of(stride) {
                    continue;
                }
                let t = Instant::now();
                let ck = sess.checkpoint().expect("session checkpoints");
                capture.add(t.elapsed(), 1);
                last = ck.approx_bytes();
                bytes += last as u64;
                if round == mid {
                    held = Some(ck);
                }
            }
            last_bytes.add_value(last as f64, 1);
            let Some(ck) = held else { continue };
            let t = Instant::now();
            let buf = ck.to_bytes();
            to_bytes.add(t.elapsed(), 1);
            encoded.add_value(buf.len() as f64, 1);
            let t = Instant::now();
            let back = SessionCheckpoint::from_bytes(&buf).expect("own checkpoint decodes");
            from_bytes.add(t.elapsed(), 1);
            let t = Instant::now();
            black_box(QuerySession::resume(self.engine, &back).expect("own checkpoint resumes"));
            resume.add(t.elapsed(), 1);

            // Scheduler-level park and unpark at the same point.
            let mut sched = MultiQueryScheduler::new(SchedulePolicy::FairShare);
            let mut registry = ParkingRegistry::new(Duration::from_secs(120));
            let id = sched
                .admit(QuerySession::resume(self.engine, &back).expect("own checkpoint resumes"));
            let token = registry.reserve();
            let t = Instant::now();
            sched
                .park_reserved(id, &mut registry, token)
                .expect("live session parks");
            park.add(t.elapsed(), 1);
            let t = Instant::now();
            let id = sched
                .unpark(&mut registry, token, self.engine)
                .expect("parked session unparks");
            unpark.add(t.elapsed(), 1);
            black_box(sched.finish(id));
        }
        m.insert(
            "checkpoint.capture_us_per_round",
            (capture.per() / 1e3, capture.n),
        );
        m.insert(
            "checkpoint.bytes_per_round",
            (bytes as f64 / capture.n.max(1) as f64, capture.n),
        );
        m.insert("checkpoint.bytes_final", (last_bytes.per(), last_bytes.n));
        m.insert("checkpoint.to_bytes_us", (to_bytes.per() / 1e3, to_bytes.n));
        m.insert(
            "checkpoint.from_bytes_us",
            (from_bytes.per() / 1e3, from_bytes.n),
        );
        m.insert("checkpoint.encoded_bytes", (encoded.per(), encoded.n));
        m.insert("checkpoint.resume_us", (resume.per() / 1e3, resume.n));
        m.insert("scheduler.park_us", (park.per() / 1e3, park.n));
        m.insert("scheduler.unpark_us", (unpark.per() / 1e3, unpark.n));
    }

    /// `group_handles` right after `clear_plan_caches()` and on repeat,
    /// over the distinct predicates of the replayed sessions.
    fn plan_rung(&self, m: &mut Metrics) {
        let mut cold = Sum::default();
        let mut warm = Sum::default();
        let mut seen: Vec<&Filter> = Vec::new();
        for spec in self.specs {
            if spec.agg == Agg::Count || seen.contains(&&spec.filter) || seen.len() == 32 {
                continue;
            }
            seen.push(&spec.filter);
            let p = predicate(&spec.filter);
            self.engine.clear_plan_caches();
            let t = Instant::now();
            black_box(self.engine.group_handles("name", spec.measure, &p)).expect("plans");
            cold.add(t.elapsed(), 1);
            let t = Instant::now();
            black_box(self.engine.group_handles("name", spec.measure, &p)).expect("plans");
            warm.add(t.elapsed(), 1);
        }
        m.insert("engine.plan.cold_us", (cold.per() / 1e3, cold.n));
        m.insert("engine.plan.warm_us", (warm.per() / 1e3, warm.n));
    }
}

/// The server checkpoints after every round; an AVG checkpoint costs
/// O(samples so far) and a 4 M-row SUM session takes 200 k rounds, so the
/// ladder captures a longer session at 64 evenly spaced rounds and lets
/// each capture stand for its stride. Sessions of up to 512 rounds (every
/// wire workload's) are captured every round, exactly as served.
fn checkpoint_stride(rounds: u64) -> u64 {
    if rounds <= 512 {
        1
    } else {
        rounds.div_ceil(64)
    }
}

/// Replays a session's draws in its round order: every round, each group
/// still short of its final count draws one batch. `round` gets the
/// round's `(group, draws)` list and its total, so it can time the round as a whole —
/// a timer pair per single-draw call would cost as much as the draw.
fn replay(shape: &Shape, mut round: impl FnMut(&[(usize, u64)], u64)) {
    let longest = shape.draws.iter().copied().max().unwrap_or(0);
    let mut work = Vec::with_capacity(shape.draws.len());
    let mut done = 0u64;
    while done < longest {
        work.clear();
        work.extend(
            shape
                .draws
                .iter()
                .enumerate()
                .filter(|(_, &want)| done < want)
                .map(|(g, &want)| (g, shape.batch.min(want - done))),
        );
        round(&work, work.iter().map(|w| w.1).sum());
        done += shape.batch;
    }
}

/// The `stats` calls one round of a 14-group stepper makes: one ε from
/// the anytime schedule, one interval-set rebuild, 14 overlap probes.
fn stats_rung(m: &mut Metrics) {
    const K: usize = 14;
    const ROUNDS: u64 = 50_000;
    let schedule = EpsilonSchedule::new(1_440.0, 0.05, K);
    let mut scratch = IntervalSetScratch::new();
    let mut hits = 0u64;
    let t = Instant::now();
    for round in 1..=ROUNDS {
        let eps = schedule.half_width(black_box(round), 1_000_000);
        scratch.begin();
        for g in 0..K {
            scratch.push(Interval::centered(20.0 + 7.0 * g as f64, eps));
        }
        scratch.build();
        for g in 0..K {
            hits += u64::from(scratch.member_overlaps_others(g));
        }
    }
    let spent = t.elapsed();
    black_box(hits);
    m.insert(
        "stats.interval.ns_per_round",
        (spent.as_nanos() as f64 / ROUNDS as f64, ROUNDS),
    );
}
