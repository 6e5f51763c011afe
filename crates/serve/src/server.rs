//! The threaded TCP server: one scheduler thread per core, each
//! multiplexing the sessions placed on it, an accept loop, and one
//! lightweight thread per connection.
//!
//! # Threading model
//!
//! The server runs one **shard** per core
//! ([`std::thread::available_parallelism`]). A shard is a scheduler
//! thread with its own [`MultiQueryScheduler`], command channel and map
//! of live sessions. [`QuerySession`]s are not `Send`-guaranteed, so a
//! session never leaves the thread of the shard that built it. The shards
//! share only what is immutable, atomic or locked: the engine (behind an
//! `Arc`), the [`ServerStats`] counters, the parking registry and the
//! global sample budget's [`SampleLedger`]. Every session owns its RNG,
//! so the shard a session runs on cannot change an answer bit.
//!
//! Each command that opens a reply stream — `QUERY`, `RESUME` or `STATS` —
//! goes to the shard with the fewest reply streams in flight (ties go to
//! the lowest index), and a disconnect mid-stream is reported to the
//! shard holding that session. Placing streams rather than pinning
//! connections keeps the shards balanced when a connection closes just
//! as another opens: a closed connection counts until its thread notices
//! the close, a finished stream does not. Client threads receive *encoded
//! frame payloads* back over bounded per-query channels — a scheduler
//! never blocks on a socket. Two commands go to every
//! shard: a graceful shutdown, which each shard answers by draining its
//! sessions into the shared registry, and the `CRASH` drill. `RESUME`
//! works on any shard, because the registry is shared, and so does
//! `STATS`, because the counters are atomics. Fairness
//! ([`SchedulePolicy::FairShare`] or any other policy) holds among the
//! sessions of one shard; across shards, sessions run in parallel.
//!
//! Each scheduler thread runs under a **supervisor** (`supervisor_loop`):
//! a panic kills one incarnation of that shard's loop, and the supervisor
//! immediately starts the next one on the same command channel instead of
//! wedging the shard's connections against a dead receiver. The
//! config-gated `CRASH` drill verb kills every shard's incarnation, and
//! each supervisor restarts its own.
//!
//! A 1-cpu host runs one shard: a single scheduler thread serving every
//! connection.
//!
//! # Durability
//!
//! Every admitted session that can checkpoint is granted a **resume
//! token** ([`Frame::Parked`]), announced to the client before the first
//! round so the client holds it ahead of any failure. The scheduler
//! refreshes the session's [checkpoint](rapidviz::SessionCheckpoint) into
//! a shared TTL-bounded [`ParkingRegistry`] after every round, so the
//! registry always holds each session's latest resumable state:
//!
//! * a client **disconnect** parks the session (it is no longer
//!   scheduled, but its checkpoint stays resumable under the token);
//! * a graceful **shutdown** drains the same way, so a successor server
//!   sharing the registry ([`Server::start_shared`]) picks the sessions
//!   back up;
//! * a scheduler **crash** loses the live sessions but not their
//!   last-round checkpoints — reconnecting clients `RESUME token=…` and
//!   the stream continues bit-identically from the checkpoint.
//!
//! A durable session completes only when its answer frame is written:
//! the writer retires the token just before the write, so a client that
//! holds the answer can no longer resume it. An answer that never reaches
//! the socket (the connection is gone) leaves the session parked under its
//! token with its last-round checkpoint, and `RESUME` replays the final
//! round to the same answer bits. An answer the kernel accepted but the
//! client never read is lost with the connection.
//!
//! Sessions that cannot checkpoint (or that the registry's byte cap
//! rejects) run exactly as before, just without a token — disconnect
//! cancels them.
//!
//! # Backpressure
//!
//! Round frames are sent with `try_send`: a client that stops draining
//! loses intermediate rounds (each snapshot supersedes the last, so this
//! is lossless for the final answer) and
//! [`ServerStats::frames_dropped_slow`] counts the drops. Terminal frames
//! — [`Frame::Answer`], [`Frame::Error`], [`Frame::Evicted`] — are never
//! dropped; a blocking send there is bounded because client threads write
//! under a socket timeout and drop their receiver on failure, which
//! unblocks the scheduler immediately.

use crate::protocol::{
    ends_stream, parse_resume_line, read_line, ErrorCode, Frame, LineError, LineReader,
    QueryRequest, WireStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::NeedleTail;
use rapidviz::{
    MultiQueryScheduler, ParkError, ParkingRegistry, QueryId, QuerySession, SampleLedger,
    SchedulePolicy, SchedulerEvent, SessionCheckpoint, StepOutcome, VizQuery,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket write timeout on every connection: bounds how long a
/// terminal-frame send can wedge on a stalled client before that client is
/// declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port — read it back
    /// from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Scheduling policy for each shard's [`MultiQueryScheduler`].
    pub policy: SchedulePolicy,
    /// Concurrent-connection cap; further connects get an
    /// [`ErrorCode::OverCapacity`] frame and a close.
    pub max_clients: usize,
    /// Optional global sample budget across every session of every shard
    /// ([`SampleLedger`]), kept across scheduler restarts. Each shard
    /// checks it before each quantum, so the server overshoots it by at
    /// most one round per shard. A budget must be positive.
    pub global_sample_budget: Option<u64>,
    /// Optional per-session memory cap in bytes
    /// ([`MultiQueryScheduler::with_session_memory_cap`]).
    pub session_memory_cap: Option<usize>,
    /// Hard per-query sample ceiling; a request's own `max_samples` is
    /// clamped to this, and requests without one get exactly this. Must
    /// be positive.
    pub per_client_max_samples: u64,
    /// Capacity of each query's frame queue. Larger queues make drops
    /// rarer; tests wanting a complete round stream set this high and
    /// assert [`ServerStats::frames_dropped_slow`] stayed zero.
    pub frame_queue: usize,
    /// How long a parked session stays resumable after its client
    /// disconnects (or the server drains). Must be positive.
    pub park_ttl: Duration,
    /// Optional cap on total parked-checkpoint bytes
    /// ([`ParkingRegistry::with_byte_cap`]); sessions whose checkpoints
    /// the full registry rejects run without durability. A cap must be
    /// positive.
    pub park_byte_cap: Option<usize>,
    /// Gates the `CRASH` debug verb, which kills every shard's current
    /// scheduler loop incarnation (sessions drop un-drained; parked
    /// checkpoints survive) so recovery drills can exercise the
    /// supervisors. Leave off outside tests and chaos harnesses.
    pub enable_crash: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            policy: SchedulePolicy::FairShare,
            max_clients: 64,
            global_sample_budget: None,
            session_memory_cap: None,
            per_client_max_samples: 200_000,
            frame_queue: 64,
            park_ttl: Duration::from_secs(120),
            park_byte_cap: None,
            enable_crash: false,
        }
    }
}

/// Lifetime counters, shared across every server thread and readable from
/// the owning process (loopback tests assert on these without a STATS
/// round-trip).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions admitted into the scheduler (resumed sessions count
    /// again — a resume is a fresh admission).
    pub sessions_admitted: AtomicU64,
    /// Sessions that produced a terminal answer frame (a durable
    /// session's counts once the frame is being written).
    pub sessions_completed: AtomicU64,
    /// Sessions cancelled outright by client disconnect (only sessions
    /// without a resume token; durable ones park instead).
    pub sessions_cancelled: AtomicU64,
    /// Requests rejected before admission (malformed, invalid, capacity,
    /// shutdown, unknown resume token).
    pub sessions_rejected: AtomicU64,
    /// Frames actually written to sockets.
    pub frames_sent: AtomicU64,
    /// Intermediate round frames dropped because a client's queue was
    /// full.
    pub frames_dropped_slow: AtomicU64,
    /// Currently connected clients.
    pub active_clients: AtomicU64,
    /// Sessions parked into the registry on disconnect or drain, or
    /// because their answer never reached the socket.
    pub sessions_parked: AtomicU64,
    /// Parked sessions successfully resumed via `RESUME`.
    pub sessions_resumed: AtomicU64,
    /// Admissions that ran without durability because the parking
    /// registry rejected their checkpoint (byte cap).
    pub park_rejected: AtomicU64,
    /// Times a supervisor restarted a dead scheduler loop, summed over
    /// the shards. A panic restarts one shard's loop; a `CRASH` drill
    /// restarts every shard's, so one drill adds the shard count.
    pub scheduler_restarts: AtomicU64,
    /// Sessions dropped un-drained by a `CRASH` drill (their latest
    /// checkpoints survive in the registry, so they stay resumable).
    /// Together with completed + cancelled + parked this keeps slot
    /// accounting balanced: every admission ends in exactly one bucket.
    /// A real panic's casualties are not counted — the unwound stack
    /// takes the tally with it.
    pub sessions_crashed: AtomicU64,
}

impl ServerStats {
    fn wire(
        &self,
        engine_metrics: &rapidviz::needletail::MetricsSnapshot,
        parking: rapidviz::ParkingStats,
    ) -> WireStats {
        WireStats {
            sessions_admitted: self.sessions_admitted.load(Ordering::Relaxed),
            sessions_completed: self.sessions_completed.load(Ordering::Relaxed),
            sessions_cancelled: self.sessions_cancelled.load(Ordering::Relaxed),
            sessions_rejected: self.sessions_rejected.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_dropped_slow: self.frames_dropped_slow.load(Ordering::Relaxed),
            active_clients: self.active_clients.load(Ordering::Relaxed),
            predicate_cache: (0, 0),
            plan_cache: (
                engine_metrics.plan_cache_hits,
                engine_metrics.plan_cache_misses,
            ),
            composite_cache: (0, 0),
            sessions_parked: self.sessions_parked.load(Ordering::Relaxed),
            sessions_resumed: self.sessions_resumed.load(Ordering::Relaxed),
            sessions_expired: parking.expired_total,
            parked_now: parking.parked,
            parked_bytes: parking.parked_bytes,
            scheduler_restarts: self.scheduler_restarts.load(Ordering::Relaxed),
        }
    }
}

/// A command from a client thread to its shard's scheduler thread.
enum Command {
    /// Admit a parsed query for `client`, streaming frames to `tx`.
    Admit {
        client: u64,
        request: Box<QueryRequest>,
        tx: SyncSender<Outbound>,
    },
    /// Resume the parked session under `token` for `client`.
    Resume {
        client: u64,
        token: u64,
        tx: SyncSender<Outbound>,
    },
    /// The client disconnected; park its in-flight sessions (cancel the
    /// ones that cannot park).
    Cancel { client: u64 },
    /// Encode a stats frame and send it to `tx`.
    Stats { tx: SyncSender<Outbound> },
    /// Kill this scheduler-loop incarnation abruptly (config-gated
    /// recovery drill); the supervisor starts the next one.
    Crash,
    /// Drain gracefully (parking live sessions) and exit the thread.
    Shutdown,
}

/// Why one incarnation of the scheduler loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopExit {
    /// Graceful: live sessions were parked; the supervisor exits too.
    Shutdown,
    /// Simulated crash (`CRASH` drill): live sessions were dropped
    /// un-drained; the supervisor starts a fresh incarnation.
    Crashed,
}

/// A frame on its way from a shard to its connection's writer.
struct Outbound {
    /// The encoded frame.
    payload: Vec<u8>,
    /// Set on a durable session's answer.
    answer: Option<AnswerHandoff>,
}

impl From<Vec<u8>> for Outbound {
    fn from(payload: Vec<u8>) -> Self {
        Self {
            payload,
            answer: None,
        }
    }
}

/// How a durable session's answer settles the session (module docs,
/// *Durability*). Until the writer calls [`AnswerHandoff::retire`], the
/// registry holds the token's last-round checkpoint; retiring takes it out
/// and counts the session completed. Dropped unwritten — the queue was
/// gone, the write failed, or the connection closed with the frame queued
/// — the hand-off puts the checkpoint back and counts the session parked
/// instead (cancelled, if the registry no longer takes it).
struct AnswerHandoff {
    token: u64,
    /// The checkpoint taken out by [`AnswerHandoff::retire`].
    retired: Option<SessionCheckpoint>,
    /// Whether `retire` counted the session completed.
    counted: bool,
    /// Whether the frame reached the socket.
    written: bool,
    stats: Arc<ServerStats>,
    registry: Arc<Mutex<ParkingRegistry>>,
}

impl AnswerHandoff {
    /// Retires the token and counts the session completed: called just
    /// before the answer's write, so neither can lag the client's read.
    fn retire(&mut self) {
        self.retired = lock_registry(&self.registry).withdraw(self.token);
        self.stats
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        self.counted = true;
    }
}

impl Drop for AnswerHandoff {
    fn drop(&mut self) {
        if self.written {
            return;
        }
        let kept = {
            let mut reg = lock_registry(&self.registry);
            match self.retired.take() {
                Some(checkpoint) => reg.park_reserved(self.token, checkpoint).is_ok(),
                None => reg.get(self.token).is_ok(),
            }
        };
        let stats = &self.stats;
        // The new bucket first, so the buckets never sum below the
        // admissions while the completion is undone.
        if kept {
            stats.sessions_parked.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.sessions_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        if self.counted {
            stats.sessions_completed.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Where an admitted session's frames go.
struct ClientLink {
    client: u64,
    tx: SyncSender<Outbound>,
    /// The session's resume token (0 = not durable: the session could not
    /// checkpoint or the registry rejected it).
    token: u64,
}

/// What every shard shares. Sessions stay on their shard's thread; this
/// is the only state that crosses shards, and all of it is immutable,
/// atomic or behind a lock.
struct Shared {
    engine: NeedleTail,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    registry: Arc<Mutex<ParkingRegistry>>,
    /// The global sample budget: every shard's scheduler charges it, and
    /// it outlives every incarnation, so a crash does not reset it.
    ledger: Arc<SampleLedger>,
}

/// The shards' command channels, and how many reply streams each one
/// serves.
struct Shards {
    /// A broadcast holds the write lock across all of its sends, so a
    /// command sent after any shard acted on a broadcast queues behind it
    /// on every shard: a `RESUME` that follows a `CRASH` drill never
    /// reaches a shard that has yet to crash.
    senders: RwLock<Vec<Sender<Command>>>,
    /// Reply streams (a session's frames, or a `STATS` reply) in flight on
    /// each shard.
    streams: Mutex<Vec<u64>>,
}

impl Shards {
    fn new(senders: Vec<Sender<Command>>) -> Self {
        Self {
            streams: Mutex::new(vec![0; senders.len()]),
            senders: RwLock::new(senders),
        }
    }

    /// Sends `cmd` to `shard`; `false` once that shard has exited.
    fn send(&self, shard: usize, cmd: Command) -> bool {
        let senders = self.senders.read().unwrap_or_else(PoisonError::into_inner);
        senders.get(shard).is_some_and(|tx| tx.send(cmd).is_ok())
    }

    /// Sends one `make()` to every shard.
    fn broadcast(&self, make: impl Fn() -> Command) {
        let senders = self.senders.write().unwrap_or_else(PoisonError::into_inner);
        for tx in senders.iter() {
            let _ = tx.send(make());
        }
    }

    /// Picks the shard with the fewest streams in flight for a new one,
    /// ties going to the lowest index, and counts the stream there.
    fn place(&self) -> usize {
        let mut streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        let shard = (0..streams.len()).min_by_key(|&i| streams[i]).unwrap_or(0);
        streams[shard] += 1;
        shard
    }

    /// A stream placed on `shard` ended.
    fn leave(&self, shard: usize) {
        let mut streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        streams[shard] -= 1;
    }
}

/// A running server. Dropping the handle does **not** stop the server —
/// call [`ServerHandle::shutdown`].
pub struct Server;

/// Control handle returned by [`Server::start`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    registry: Arc<Mutex<ParkingRegistry>>,
    shutdown: Arc<AtomicBool>,
    shards: Arc<Shards>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler_threads: Vec<JoinHandle<()>>,
    client_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral `:0` bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// The parking registry holding parked/resumable session checkpoints.
    /// Shared: keep a clone across [`ServerHandle::shutdown`] and pass it
    /// to [`Server::start_shared`] so a successor server resumes the
    /// drained sessions.
    #[must_use]
    pub fn parking(&self) -> Arc<Mutex<ParkingRegistry>> {
        Arc::clone(&self.registry)
    }

    /// Stops accepting, drains in-flight sessions into the parking
    /// registry (cancelling the non-durable ones), and joins every server
    /// thread. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        self.shards.broadcast(|| Command::Shutdown);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let clients = std::mem::take(
            &mut *self
                .client_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for t in clients {
            let _ = t.join();
        }
        for t in self.scheduler_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort: never leave detached threads spinning past the
        // handle (tests that forget shutdown() still terminate cleanly).
        if self.accept_thread.is_some() || !self.scheduler_threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

impl Server {
    /// Binds and starts serving `engine` under `config`, with a private
    /// parking registry built from the config's TTL and byte cap.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] if `park_ttl` is
    /// zero or `park_byte_cap` is `Some(0)`, and as [`Server::start_shared`]
    /// does otherwise.
    pub fn start(engine: NeedleTail, config: ServerConfig) -> std::io::Result<ServerHandle> {
        if config.park_ttl.is_zero() || config.park_byte_cap == Some(0) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "park_ttl and park_byte_cap must be positive",
            ));
        }
        let mut registry = ParkingRegistry::new(config.park_ttl);
        if let Some(cap) = config.park_byte_cap {
            registry = registry.with_byte_cap(cap);
        }
        Self::start_shared(engine, config, Arc::new(Mutex::new(registry)))
    }

    /// [`Server::start`] against a caller-supplied parking registry — the
    /// restart pattern: shut one server down (its drain parks every live
    /// session), then start a successor with the same registry and an
    /// identically-built engine, and reconnecting clients `RESUME` their
    /// sessions as if nothing happened. The config's own TTL/byte-cap
    /// fields are ignored on this path; the registry carries them.
    ///
    /// The server runs one scheduler shard per core
    /// ([`std::thread::available_parallelism`]; see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] if
    /// `per_client_max_samples` or `global_sample_budget` is zero, on the
    /// initial bind, or if a server thread cannot spawn.
    pub fn start_shared(
        engine: NeedleTail,
        config: ServerConfig,
        registry: Arc<Mutex<ParkingRegistry>>,
    ) -> std::io::Result<ServerHandle> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::start_sharded(engine, config, registry, cores)
    }

    /// [`Server::start_shared`] with an explicit shard count (at least 1).
    fn start_sharded(
        engine: NeedleTail,
        config: ServerConfig,
        registry: Arc<Mutex<ParkingRegistry>>,
        shard_count: usize,
    ) -> std::io::Result<ServerHandle> {
        if config.per_client_max_samples == 0 || config.global_sample_budget == Some(0) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "per_client_max_samples and global_sample_budget must be positive",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let client_threads = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(Shared {
            engine,
            ledger: Arc::new(SampleLedger::new(config.global_sample_budget)),
            config,
            stats: Arc::clone(&stats),
            registry: Arc::clone(&registry),
        });

        let mut senders = Vec::new();
        let mut scheduler_threads = Vec::new();
        for shard in 0..shard_count.max(1) {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
            let shared = Arc::clone(&shared);
            let spawn = std::thread::Builder::new()
                .name(format!("rapidviz-sched-{shard}"))
                .spawn(move || supervisor_loop(&shared, &cmd_rx));
            match spawn {
                Ok(t) => {
                    senders.push(cmd_tx);
                    scheduler_threads.push(t);
                }
                Err(e) => {
                    drain_schedulers(&Shards::new(senders), scheduler_threads);
                    return Err(e);
                }
            }
        }
        let shards = Arc::new(Shards::new(senders));

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let accept_shards = Arc::clone(&shards);
            let shutdown = Arc::clone(&shutdown);
            let client_threads = Arc::clone(&client_threads);
            let spawn = std::thread::Builder::new()
                .name("rapidviz-accept".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &shared,
                        &accept_shards,
                        &shutdown,
                        &client_threads,
                    );
                });
            match spawn {
                Ok(t) => t,
                Err(e) => {
                    drain_schedulers(&shards, scheduler_threads);
                    return Err(e);
                }
            }
        };

        Ok(ServerHandle {
            local_addr,
            stats,
            registry,
            shutdown,
            shards,
            accept_thread: Some(accept_thread),
            scheduler_threads,
            client_threads,
        })
    }
}

/// Tells every scheduler thread to drain (parking its live sessions) and
/// joins them. The cleanup for a partially-started server: every spawned
/// thread is stopped through its ordinary exit path before the start
/// error propagates, rather than unwinding past a live thread.
fn drain_schedulers(shards: &Shards, threads: Vec<JoinHandle<()>>) {
    shards.broadcast(|| Command::Shutdown);
    for t in threads {
        let _ = t.join();
    }
}

/// Locks the parking registry, riding through poisoning: the registry
/// holds plain data (no invariants spanning the lock), so a panicked
/// incarnation's half-finished write is at worst a stale checkpoint.
fn lock_registry(registry: &Mutex<ParkingRegistry>) -> std::sync::MutexGuard<'_, ParkingRegistry> {
    registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds a session from a wire request, clamping its sample budget to
/// the server's per-client ceiling and its round size to that budget.
fn build_session(
    engine: &NeedleTail,
    req: &QueryRequest,
    per_client_max_samples: u64,
) -> Result<QuerySession, String> {
    let mut q = VizQuery::new(engine);
    for col in &req.group_by {
        q = q.group_by(col.clone());
    }
    q = match req.aggregate {
        rapidviz::Aggregate::Avg => q.avg(req.measure.clone()),
        rapidviz::Aggregate::Sum => q.sum(req.measure.clone()),
        rapidviz::Aggregate::Count => q.count(req.measure.clone()),
    };
    q = q.algorithm(req.algorithm);
    if let Some(f) = &req.filter {
        q = q.filter(f.to_predicate());
    }
    if let Some(d) = req.delta {
        q = q.delta(d);
    }
    if let Some(r) = req.resolution_pct {
        q = q.resolution_pct(r);
    }
    if let Some(b) = req.bound {
        q = q.bound(b);
    }
    let cap = req
        .max_samples
        .map_or(per_client_max_samples, |m| m.min(per_client_max_samples));
    q = q.max_samples(cap);
    if let Some(s) = req.samples_per_round {
        // `VizQuery` clamps the round to the budget once the plan's group
        // count is known.
        q = q.samples_per_round(s);
    }
    q.start(StdRng::seed_from_u64(req.seed))
        .map_err(|e| e.to_string())
}

/// Runs one shard's [`scheduler_loop`] incarnations until one exits
/// gracefully. A panic inside the loop (or a `CRASH` drill) kills that
/// incarnation's sessions and frame channels — clients see a disconnect
/// and reconnect with `RESUME` — but the command channel and everything in
/// [`Shared`] live here, outside the unwind, so the next incarnation picks
/// them up immediately instead of leaving the shard's connections talking
/// to a dead receiver.
fn supervisor_loop(shared: &Shared, cmd_rx: &Receiver<Command>) {
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scheduler_loop(shared, cmd_rx)
        }));
        match outcome {
            Ok(LoopExit::Shutdown) => break,
            Ok(LoopExit::Crashed) | Err(_) => {
                // The incarnation's sessions died with it; their latest
                // per-round checkpoints survive in the shared registry,
                // so reconnecting clients resume from there.
                shared
                    .stats
                    .scheduler_restarts
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One scheduler-loop incarnation of a shard: owns its scheduler and every
/// session pinned to it; commands in, frame payloads out. Returns how it
/// exited (see [`LoopExit`]); on [`LoopExit::Shutdown`] live sessions have
/// been drained into the parking registry.
fn scheduler_loop(shared: &Shared, cmd_rx: &Receiver<Command>) -> LoopExit {
    let Shared {
        engine,
        config,
        stats,
        registry,
        ledger,
    } = shared;
    let mut sched = MultiQueryScheduler::new(config.policy).with_sample_ledger(Arc::clone(ledger));
    if let Some(cap) = config.session_memory_cap {
        sched = sched.with_session_memory_cap(cap);
    }
    // BTreeMap, not HashMap: broadcast paths iterate this map, and
    // delivery order must replay identically run to run.
    let mut links: BTreeMap<QueryId, ClientLink> = BTreeMap::new();
    let exit = 'run: loop {
        // Drain every pending command first so admissions and cancels are
        // never starved by a busy scheduler.
        #[expect(clippy::disallowed_methods, reason = "shutdown comes on this channel")]
        let drained = if sched.runnable_count() == 0 && links.is_empty() {
            // Nothing to do: block until the next command (or all senders
            // gone, which only happens at teardown).
            match cmd_rx.recv() {
                Ok(cmd) => {
                    if let Some(exit) =
                        handle_command(cmd, engine, config, &mut sched, &mut links, stats, registry)
                    {
                        break 'run exit;
                    }
                    true
                }
                Err(_) => break 'run LoopExit::Shutdown,
            }
        } else {
            false
        };
        while let Ok(cmd) = cmd_rx.try_recv() {
            if let Some(exit) =
                handle_command(cmd, engine, config, &mut sched, &mut links, stats, registry)
            {
                break 'run exit;
            }
        }
        if drained && sched.runnable_count() == 0 {
            continue;
        }
        handle_event(sched.poll(), &mut sched, &mut links, stats, registry);
    };
    match exit {
        LoopExit::Shutdown => {
            // Graceful drain: park every still-linked session so a
            // successor server sharing the registry can resume it;
            // receivers see the channel close and clients get a clean TCP
            // close.
            let targets: Vec<(QueryId, u64)> = links.iter().map(|(id, l)| (*id, l.token)).collect();
            links.clear();
            for (id, token) in targets {
                park_or_cancel(&mut sched, id, token, stats, registry);
            }
        }
        LoopExit::Crashed => {
            // Drop everything un-drained — that is the point of the
            // drill; parked checkpoints in the shared registry survive.
            // Count the casualties so slot accounting stays balanced.
            stats
                .sessions_crashed
                .fetch_add(links.len() as u64, Ordering::Relaxed);
        }
    }
    exit
}

/// Applies one scheduler event: streams a round (refreshing the session's
/// durability checkpoint) and delivers every answer the event ends.
fn handle_event(
    event: SchedulerEvent,
    sched: &mut MultiQueryScheduler,
    links: &mut BTreeMap<QueryId, ClientLink>,
    stats: &Arc<ServerStats>,
    registry: &Arc<Mutex<ParkingRegistry>>,
) {
    match event {
        SchedulerEvent::Round { id, update } => {
            let terminal = update.outcome != StepOutcome::Running;
            if let Some(link) = links.get(&id) {
                send_round(&link.tx, Frame::Round(update).encode(), stats);
                if !terminal && link.token != 0 {
                    // Durability refresh: keep the registry holding
                    // this session's latest resumable state, so even
                    // a hard crash loses no completed rounds.
                    if let Ok(ck) = sched.checkpoint(id) {
                        let mut reg = lock_registry(registry);
                        let _ = reg.park_reserved(link.token, ck);
                    }
                }
            }
            if terminal {
                deliver_answer(sched, links, id, stats, registry);
            }
        }
        SchedulerEvent::MemoryEvicted { id, bytes } => {
            if let Some(link) = links.get(&id) {
                // Eviction notices are part of the contract — never
                // dropped (see module docs for why this send is
                // bounded).
                let payload = (Frame::Evicted {
                    bytes: bytes as u64,
                })
                .encode();
                let _ = link.tx.send(payload.into());
            }
            deliver_answer(sched, links, id, stats, registry);
        }
        SchedulerEvent::GlobalBudgetExhausted { .. } => {
            // Finish out everything still registered with best-effort
            // answers; late admits land here on the next poll.
            let ids: Vec<QueryId> = links.keys().copied().collect();
            for id in ids {
                deliver_answer(sched, links, id, stats, registry);
            }
        }
        SchedulerEvent::Drained => {
            // Raced between runnable_count and poll; loop back to
            // blocking recv.
        }
    }
}

/// Parks a linked session under its token, falling back to cancelling it
/// when it has no token or parking fails. Counts whichever happened.
fn park_or_cancel(
    sched: &mut MultiQueryScheduler,
    id: QueryId,
    token: u64,
    stats: &ServerStats,
    registry: &Arc<Mutex<ParkingRegistry>>,
) {
    if token != 0 {
        let parked = {
            let mut reg = lock_registry(registry);
            match sched.park_reserved(id, &mut reg, token) {
                Ok(_) => true,
                Err(_) => {
                    // The session cannot park (or the slot is already
                    // gone); drop its stale durability shadow too.
                    reg.discard(token);
                    false
                }
            }
        };
        if parked {
            stats.sessions_parked.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    if sched.finish(id).is_some() {
        stats.sessions_cancelled.fetch_add(1, Ordering::Relaxed);
    }
}

/// Reserves a resume token for a fresh admission and seeds the registry
/// with the session's initial checkpoint. Returns 0 (the "no token"
/// sentinel) when the session cannot checkpoint or the registry rejected
/// it — the session still runs, it just is not durable.
fn grant_token(
    sched: &mut MultiQueryScheduler,
    id: QueryId,
    stats: &ServerStats,
    registry: &Arc<Mutex<ParkingRegistry>>,
) -> u64 {
    let Ok(ck) = sched.checkpoint(id) else {
        return 0;
    };
    let mut reg = lock_registry(registry);
    let token = reg.reserve();
    match reg.park_reserved(token, ck) {
        Ok(_) => token,
        Err(_) => {
            stats.park_rejected.fetch_add(1, Ordering::Relaxed);
            0
        }
    }
}

/// Applies one command. Returns `Some(exit)` when the loop must stop.
fn handle_command(
    cmd: Command,
    engine: &NeedleTail,
    config: &ServerConfig,
    sched: &mut MultiQueryScheduler,
    links: &mut BTreeMap<QueryId, ClientLink>,
    stats: &ServerStats,
    registry: &Arc<Mutex<ParkingRegistry>>,
) -> Option<LoopExit> {
    match cmd {
        Command::Admit {
            client,
            request,
            tx,
        } => match build_session(engine, &request, config.per_client_max_samples) {
            Ok(session) => {
                let id = sched.admit(session);
                let token = grant_token(sched, id, stats, registry);
                if token != 0 {
                    // Announce the token before any round frame: the
                    // client must hold it before a failure can take the
                    // stream down.
                    let _ = tx.send((Frame::Parked { token }).encode().into());
                }
                links.insert(id, ClientLink { client, tx, token });
                stats.sessions_admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(message) => {
                stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                let payload = (Frame::Error {
                    code: ErrorCode::InvalidQuery,
                    message,
                })
                .encode();
                let _ = tx.send(payload.into());
            }
        },
        Command::Resume { client, token, tx } => {
            let resumed = {
                // Held across the replay: `registry` before the engine's
                // `cache` locks is the declared order, and a failed resume
                // leaves the checkpoint parked (observable and retryable
                // until the TTL reaps it) with no counter touched.
                let mut reg = lock_registry(registry);
                let resumed = sched.unpark(&mut reg, token, engine);
                if let Ok(id) = resumed {
                    // The token survives the resume: re-seed the registry
                    // under the same name so the session stays durable
                    // across any number of further failures.
                    if let Ok(fresh) = sched.checkpoint(id) {
                        let _ = reg.park_reserved(token, fresh);
                    }
                }
                resumed
            };
            match resumed {
                Ok(id) => {
                    let _ = tx.send((Frame::Parked { token }).encode().into());
                    links.insert(id, ClientLink { client, tx, token });
                    stats.sessions_admitted.fetch_add(1, Ordering::Relaxed);
                    stats.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                    let (code, message) = match e {
                        // Schema drift between park and resume.
                        ParkError::Checkpoint(e) => {
                            (ErrorCode::InvalidQuery, format!("resume failed: {e}"))
                        }
                        _ => (
                            ErrorCode::NoSuchToken,
                            format!("token {token} is unknown, already resumed, or expired"),
                        ),
                    };
                    let _ = tx.send((Frame::Error { code, message }).encode().into());
                }
            }
        }
        Command::Cancel { client } => {
            let targets: Vec<(QueryId, u64)> = links
                .iter()
                .filter(|(_, l)| l.client == client)
                .map(|(id, l)| (*id, l.token))
                .collect();
            for (id, token) in targets {
                links.remove(&id);
                // Disconnect no longer cancels: durable sessions park and
                // stay resumable for the TTL.
                park_or_cancel(sched, id, token, stats, registry);
            }
        }
        Command::Stats { tx } => {
            let parking = {
                let mut reg = lock_registry(registry);
                // Sweep first so expired entries are counted as expired,
                // not reported as still parked.
                reg.sweep();
                reg.stats()
            };
            let payload = Frame::Stats(stats.wire(&engine.metrics().snapshot(), parking)).encode();
            let _ = tx.send(payload.into());
        }
        Command::Crash => {
            if config.enable_crash {
                // Simulated hard crash: exit abruptly, dropping every
                // live session and frame channel without draining.
                return Some(LoopExit::Crashed);
            }
            // Disabled: the client layer already rejects the verb; a
            // stray command is ignored.
        }
        Command::Shutdown => return Some(LoopExit::Shutdown),
    }
    None
}

/// Finishes `id` and streams its terminal answer frame. A durable
/// session's answer carries its [`AnswerHandoff`]: the session counts as
/// completed only once the writer takes the frame, and a failed send
/// drops the hand-off, which parks it.
fn deliver_answer(
    sched: &mut MultiQueryScheduler,
    links: &mut BTreeMap<QueryId, ClientLink>,
    id: QueryId,
    stats: &Arc<ServerStats>,
    registry: &Arc<Mutex<ParkingRegistry>>,
) {
    let Some(link) = links.remove(&id) else {
        // Client already cancelled; drop the answer.
        let _ = sched.finish(id);
        return;
    };
    let Some(answer) = sched.finish(id) else {
        lock_registry(registry).discard(link.token);
        return;
    };
    let answer = Outbound {
        payload: Frame::from_answer(&answer).encode(),
        answer: (link.token != 0).then(|| AnswerHandoff {
            token: link.token,
            retired: None,
            counted: false,
            written: false,
            stats: Arc::clone(stats),
            registry: Arc::clone(registry),
        }),
    };
    if answer.answer.is_none() {
        // Nothing to resume: count before handing the frame off, so a
        // client that reads its answer already sees itself counted.
        stats.sessions_completed.fetch_add(1, Ordering::Relaxed);
    }
    let _ = link.tx.send(answer);
}

/// Sends an intermediate round frame without ever blocking the scheduler:
/// a full queue drops the frame (the next snapshot supersedes it).
fn send_round(tx: &SyncSender<Outbound>, payload: Vec<u8>, stats: &ServerStats) {
    match tx.try_send(payload.into()) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            stats.frames_dropped_slow.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Disconnected(_)) => {
            // Client is gone; its Cancel command is in flight.
        }
    }
}

/// The accept loop: capacity gate, then one thread per connection.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    shards: &Arc<Shards>,
    shutdown: &Arc<AtomicBool>,
    client_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let (config, stats) = (&shared.config, &shared.stats);
    let mut next_client: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if stats.active_clients.load(Ordering::Relaxed) >= config.max_clients as u64 {
            stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            reject_over_capacity(stream, config, stats);
            continue;
        }
        stats.active_clients.fetch_add(1, Ordering::Relaxed);
        next_client += 1;
        let client = next_client;
        let (client_shared, client_shards) = (Arc::clone(shared), Arc::clone(shards));
        let shutdown = Arc::clone(shutdown);
        let spawned = std::thread::Builder::new()
            .name(format!("rapidviz-client-{client}"))
            .spawn(move || {
                client_loop(stream, client, &client_shared, &client_shards, &shutdown);
                client_shared
                    .stats
                    .active_clients
                    .fetch_sub(1, Ordering::Relaxed);
            });
        let Ok(handle) = spawned else {
            // Out of threads: shed this connection (dropping the stream
            // closes it) and keep serving the clients we already have.
            stats.active_clients.fetch_sub(1, Ordering::Relaxed);
            stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let mut threads = client_threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Opportunistically reap finished threads so the list stays small
        // on long-lived servers.
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }
}

fn reject_over_capacity(mut stream: TcpStream, config: &ServerConfig, stats: &ServerStats) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let frame = Frame::Error {
        code: ErrorCode::OverCapacity,
        message: format!("server is at its {}-client capacity", config.max_clients),
    };
    if crate::protocol::write_frame(&mut stream, &frame).is_ok() {
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// One connection's lifecycle: read a command line, dispatch, stream the
/// reply frames, repeat until EOF / error / shutdown. Each command that
/// opens a reply stream goes to the shard [`Shards::place`] picks, and a
/// disconnect mid-stream is reported to that same shard, which holds the
/// session. Never panics on malformed input — the worst a hostile peer
/// gets is an error frame and a close.
fn client_loop(
    stream: TcpStream,
    client: u64,
    shared: &Shared,
    shards: &Shards,
    shutdown: &AtomicBool,
) {
    let (config, stats) = (&shared.config, &*shared.stats);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = LineReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let line = match read_line(&mut reader, shutdown) {
            Ok(Some(line)) => line,
            Ok(None) => break, // clean EOF or shutdown
            Err(LineError::TooLong) => {
                stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                send_error(
                    &mut writer,
                    stats,
                    ErrorCode::Malformed,
                    "request line exceeds the size cap",
                );
                break;
            }
            Err(LineError::Io(_)) => break, // peer vanished mid-line
        };
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if line == "STATS" {
            let (tx, rx) = mpsc::sync_channel::<Outbound>(1);
            let shard = shards.place();
            let answered = shards.send(shard, Command::Stats { tx })
                && pump_frames(&mut writer, &rx, stats, shutdown);
            shards.leave(shard);
            if !answered {
                break;
            }
            continue;
        }
        if line == "CRASH" {
            if config.enable_crash {
                // Recovery drill: kill every shard's current
                // scheduler-loop incarnation and close this connection.
                shards.broadcast(|| Command::Crash);
                break;
            }
            stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            send_error(&mut writer, stats, ErrorCode::Malformed, "unknown command");
            break;
        }
        // Everything else opens a round stream: a parked session resumed
        // by token, or a fresh query.
        let (tx, rx) = mpsc::sync_channel::<Outbound>(config.frame_queue.max(1));
        let command = if line.starts_with("RESUME") {
            parse_resume_line(line).map(|token| Command::Resume { client, token, tx })
        } else {
            QueryRequest::parse_line(line).map(|request| Command::Admit {
                client,
                request: Box::new(request),
                tx,
            })
        };
        let command = match command {
            Ok(command) if !shutdown.load(Ordering::SeqCst) => command,
            refused => {
                let (code, message) = match refused {
                    Err(message) => (ErrorCode::Malformed, message),
                    Ok(_) => (
                        ErrorCode::ShuttingDown,
                        "server is shutting down".to_owned(),
                    ),
                };
                stats.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                send_error(&mut writer, stats, code, &message);
                break;
            }
        };
        let shard = shards.place();
        let sent = shards.send(shard, command);
        let answered = sent && pump_frames(&mut writer, &rx, stats, shutdown);
        if sent && !answered {
            // Disconnect (or shutdown) raced the stream; make sure the
            // slot is parked or reclaimed.
            shards.send(shard, Command::Cancel { client });
        }
        shards.leave(shard);
        if !answered {
            break;
        }
    }
}

fn send_error(writer: &mut TcpStream, stats: &ServerStats, code: ErrorCode, message: &str) {
    let frame = Frame::Error {
        code,
        message: message.to_owned(),
    };
    if crate::protocol::write_frame(writer, &frame).is_ok() {
        let _ = writer.flush();
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// Streams payloads from the scheduler to the socket until a terminal
/// frame (`Answer` / `Error` / `Stats`) goes out. Returns `false` if the
/// socket died or the server is shutting down — the caller then cancels
/// and closes.
fn pump_frames(
    writer: &mut impl Write,
    rx: &Receiver<Outbound>,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) -> bool {
    loop {
        let Outbound {
            payload,
            mut answer,
        } = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(p) => p,
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return false;
                }
                continue;
            }
            // Scheduler dropped the sender (teardown or crash) — nothing
            // more is coming.
            Err(RecvTimeoutError::Disconnected) => return false,
        };
        if let Some(answer) = &mut answer {
            answer.retire();
        }
        if crate::protocol::write_frame_bytes(writer, &payload).is_err() {
            return false;
        }
        if let Some(answer) = &mut answer {
            answer.written = true;
        }
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        if payload.first().is_some_and(|&tag| ends_stream(tag)) {
            let _ = writer.flush();
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz_datagen::FlightModel;

    fn engine() -> NeedleTail {
        let mut rng = StdRng::seed_from_u64(7);
        let table = FlightModel::new(7).to_table(2_000, &mut rng);
        NeedleTail::new(table, &["name"]).expect("flight engine builds")
    }

    /// What [`Server::start_sharded`] hands its shards, over [`engine`].
    fn shared(config: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            engine: engine(),
            ledger: Arc::new(SampleLedger::new(config.global_sample_budget)),
            registry: Arc::new(Mutex::new(ParkingRegistry::new(config.park_ttl))),
            stats: Arc::default(),
            config,
        })
    }

    /// Starts one shard's supervisor on `cmd_rx`.
    fn spawn_supervisor(shared: &Arc<Shared>, cmd_rx: Receiver<Command>) -> JoinHandle<()> {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("rapidviz-sched".into())
            .spawn(move || supervisor_loop(&shared, &cmd_rx))
            .expect("scheduler thread spawns")
    }

    /// Pins the half-started-server cleanup: when the accept thread fails
    /// to spawn after the scheduler thread is already running (the exact
    /// shape of the `start_sharded` error path), `drain_schedulers` must
    /// drain-and-join — and draining must park any session the scheduler
    /// already holds, not strand or cancel it.
    #[test]
    fn drain_scheduler_parks_active_sessions_on_partial_start() {
        let shared = shared(ServerConfig::default());
        let (stats, registry) = (&shared.stats, &shared.registry);
        let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
        // Order-determined, not timing-dependent: the admission and the
        // shutdown are both queued before the supervisor exists, so the
        // loop drains them back to back, ahead of its first `poll()`, and
        // the session is live and unfinished when the drain lands however
        // fast a round is.
        let (tx, rx) = mpsc::sync_channel::<Outbound>(4_096);
        cmd_tx
            .send(Command::Admit {
                client: 1,
                request: Box::new(QueryRequest::avg("name", "arr_delay", 1)),
                tx,
            })
            .expect("admit queued");
        cmd_tx.send(Command::Shutdown).expect("shutdown queued");
        let thread = spawn_supervisor(&shared, cmd_rx);
        drain_schedulers(&Shards::new(vec![cmd_tx]), vec![thread]);

        // The token announcement proves the session was live and durable.
        let first = rx.try_recv().expect("token frame was sent").payload;
        assert_eq!(first.first().copied(), Some(0x06), "Parked frame first");
        assert_eq!(
            stats.sessions_parked.load(Ordering::Relaxed),
            1,
            "drain parked the active session"
        );
        assert_eq!(stats.sessions_cancelled.load(Ordering::Relaxed), 0);
        let reg = lock_registry(registry);
        assert_eq!(reg.len(), 1, "registry holds the parked checkpoint");
        assert!(reg.bytes() > 0);
    }

    /// `RESUME` inside the scheduler incarnation that parked the session
    /// must hand the parked draws back (`MultiQueryScheduler::unpark`), or
    /// the global sample budget is charged for them twice; and a resume
    /// that fails must leave the registry's counters alone.
    #[test]
    fn resume_unparks_without_double_charging_the_global_budget() {
        let engine = engine();
        let config = ServerConfig::default();
        let registry = Arc::new(Mutex::new(ParkingRegistry::new(config.park_ttl)));
        let stats = ServerStats::default();
        let mut sched = MultiQueryScheduler::new(config.policy);
        let mut links = BTreeMap::new();
        let mut run = |sched: &mut MultiQueryScheduler, cmd| {
            let exit = handle_command(cmd, &engine, &config, sched, &mut links, &stats, &registry);
            assert!(exit.is_none());
        };
        let (tx, _admitted) = mpsc::sync_channel::<Outbound>(4_096);
        let admit = Command::Admit {
            client: 1,
            request: Box::new(QueryRequest::avg("name", "arr_delay", 1)),
            tx,
        };
        run(&mut sched, admit);
        for _ in 0..5 {
            sched.poll();
        }
        let drawn = sched.total_samples();
        assert!(drawn > 0);
        run(&mut sched, Command::Cancel { client: 1 });
        assert_eq!(sched.len(), 0, "the disconnect parked the session");

        // No such token: rejected, and not counted as a resume.
        let (tx, refused) = mpsc::sync_channel::<Outbound>(4);
        let resume = Command::Resume {
            client: 2,
            token: 99,
            tx,
        };
        run(&mut sched, resume);
        let frame = refused.try_recv().expect("error frame was sent").payload;
        assert!(matches!(
            Frame::decode(&frame),
            Ok(Frame::Error {
                code: ErrorCode::NoSuchToken,
                ..
            })
        ));
        assert_eq!(lock_registry(&registry).stats().resumed_total, 0);

        let (tx, resumed) = mpsc::sync_channel::<Outbound>(4_096);
        let resume = Command::Resume {
            client: 2,
            token: 1,
            tx,
        };
        run(&mut sched, resume);
        let frame = resumed.try_recv().expect("token frame was sent").payload;
        assert_eq!(Frame::decode(&frame), Ok(Frame::Parked { token: 1 }));
        assert_eq!(sched.len(), 1);
        assert_eq!(
            sched.total_samples(),
            drawn,
            "the one session's draws are charged once"
        );
        assert_eq!(stats.sessions_parked.load(Ordering::Relaxed), 1);
        assert_eq!(stats.sessions_resumed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.sessions_rejected.load(Ordering::Relaxed), 1);
        let parking = lock_registry(&registry).stats();
        assert_eq!(parking.resumed_total, 1);
        assert_eq!(parking.parked, 1, "the resumed session is durable again");
    }

    /// A writer that takes every frame but an answer: it keeps the refused
    /// answer's bytes and fails the write, as a socket whose peer is gone.
    #[derive(Default)]
    struct RefusesAnswers {
        frame: Vec<u8>,
        refused: Vec<u8>,
    }

    impl Write for RefusesAnswers {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.frame.extend_from_slice(buf);
            let len = self
                .frame
                .get(..4)
                .map(|p| 4 + u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize);
            if len == Some(self.frame.len()) {
                let frame = std::mem::take(&mut self.frame);
                if let Ok(Frame::Answer(_)) = Frame::decode(&frame[4..]) {
                    self.refused = frame;
                    return Err(ErrorKind::BrokenPipe.into());
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An answer that cannot be written leaves its session parked under
    /// its token with the last round's checkpoint, not completed; `RESUME`
    /// replays the final round to the same answer bytes, and a written
    /// answer retires the token.
    #[test]
    fn an_answer_that_never_reached_the_socket_stays_resumable() {
        let engine = engine();
        let config = ServerConfig::default();
        let registry = Arc::new(Mutex::new(ParkingRegistry::new(config.park_ttl)));
        let stats = Arc::new(ServerStats::default());
        let shutdown = AtomicBool::new(false);
        let mut sched = MultiQueryScheduler::new(config.policy);
        let mut links = BTreeMap::new();
        // Runs `cmd`, then steps the shard until every linked stream has
        // its answer queued.
        let mut serve = |cmd| {
            let exit = handle_command(
                cmd, &engine, &config, &mut sched, &mut links, &stats, &registry,
            );
            assert!(exit.is_none());
            while !links.is_empty() {
                handle_event(sched.poll(), &mut sched, &mut links, &stats, &registry);
            }
        };
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);

        let (tx, rx) = mpsc::sync_channel::<Outbound>(4_096);
        let mut request = QueryRequest::avg("name", "arr_delay", 3);
        request.samples_per_round = Some(8);
        serve(Command::Admit {
            client: 1,
            request: Box::new(request),
            tx,
        });
        let mut gone = RefusesAnswers::default();
        assert!(!pump_frames(&mut gone, &rx, &stats, &shutdown));
        assert!(!gone.refused.is_empty(), "the answer was refused");
        assert_eq!(count(&stats.sessions_admitted), 1);
        assert_eq!(count(&stats.sessions_completed), 0);
        assert_eq!(count(&stats.sessions_parked), 1);
        assert_eq!(count(&stats.sessions_cancelled), 0);
        assert_eq!(
            lock_registry(&registry).len(),
            1,
            "the token stays resumable"
        );

        let (tx, rx) = mpsc::sync_channel::<Outbound>(4_096);
        serve(Command::Resume {
            client: 2,
            token: 1,
            tx,
        });
        let mut socket = Vec::new();
        assert!(pump_frames(&mut socket, &rx, &stats, &shutdown));
        let mut frames: &[u8] = &socket;
        let mut last = None;
        while let Some(frame) = crate::protocol::read_frame(&mut frames).expect("frames decode") {
            last = Some(frame);
        }
        let refused = Frame::decode(&gone.refused[4..]).expect("answer decodes");
        assert_eq!(last, Some(refused), "the resumed answer is the refused one");
        assert_eq!(
            socket[socket.len() - gone.refused.len()..],
            gone.refused[..],
            "bit for bit"
        );
        assert_eq!(count(&stats.sessions_admitted), 2);
        assert_eq!(count(&stats.sessions_completed), 1);
        assert_eq!(count(&stats.sessions_parked), 1);
        assert_eq!(count(&stats.sessions_resumed), 1);
        assert!(
            lock_registry(&registry).is_empty(),
            "the written answer retired the token"
        );
    }

    /// The drain must also join cleanly when the scheduler holds nothing.
    #[test]
    fn drain_scheduler_is_clean_on_an_idle_scheduler() {
        let shared = shared(ServerConfig::default());
        let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
        let thread = spawn_supervisor(&shared, cmd_rx);
        drain_schedulers(&Shards::new(vec![cmd_tx]), vec![thread]);
        assert!(lock_registry(&shared.registry).is_empty());
        assert_eq!(shared.stats.sessions_parked.load(Ordering::Relaxed), 0);
    }

    /// The tests below start servers with explicit shard counts, so they
    /// cover sharding on any host.
    mod sharded {
        use super::*;
        use crate::client::{QueryRun, WireClient};
        use rapidviz::needletail::{ColumnDef, DataType, Schema, TableBuilder, Value};
        use rapidviz::RoundUpdate;

        /// Two groups of 2^19 rows each, holding the same multiset of
        /// values in `0..100`, so their means tie exactly.
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

        /// AVG over the tie at δ = 1e-9, one sample per group and round,
        /// with no sample cap. Except with probability ≤ 1e-9 it runs
        /// until both groups are drawn out, at round 524,288 (about 1.7 s
        /// of uninterrupted stepping for a release build on a 2-core
        /// x86-64 host), so it is still running whenever a test
        /// interrupts it.
        fn endless(seed: u64) -> QueryRequest {
            let mut req = QueryRequest::avg("g", "v", seed);
            req.delta = Some(1e-9);
            req.samples_per_round = Some(1);
            req
        }

        fn start(shards: usize, config: ServerConfig) -> ServerHandle {
            let config = ServerConfig {
                frame_queue: 4_096,
                per_client_max_samples: u64::MAX,
                ..config
            };
            let registry = Arc::new(Mutex::new(ParkingRegistry::new(config.park_ttl)));
            Server::start_sharded(tied_engine(), config, registry, shards).expect("server binds")
        }

        fn connect(handle: &ServerHandle) -> WireClient {
            WireClient::connect(handle.local_addr(), Duration::from_secs(30))
                .expect("client connects")
        }

        /// Reply streams in flight per shard.
        fn streams(handle: &ServerHandle) -> Vec<u64> {
            handle.shards.streams.lock().expect("unpoisoned").clone()
        }

        /// Polls `done` every 10 ms, for at most 10 s.
        fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
            for _ in 0..1_000 {
                if done() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("timed out waiting until {what}");
        }

        /// Reads the token and `rounds` round frames of a live stream.
        fn token_and_rounds(client: &mut WireClient, rounds: usize) -> (u64, Vec<RoundUpdate>) {
            let (mut token, mut seen) = (None, Vec::new());
            while token.is_none() || seen.len() < rounds {
                match client.next_frame().expect("frame decodes") {
                    Some(Frame::Parked { token: t }) => token = Some(t),
                    Some(Frame::Round(r)) => seen.push(r),
                    other => panic!("the session must keep streaming, got {other:?}"),
                }
            }
            (token.expect("token announced"), seen)
        }

        /// Connects and starts [`endless`]`(seed)`, returning the client once
        /// its token and first round have arrived.
        fn stream(handle: &ServerHandle, seed: u64) -> WireClient {
            let mut client = connect(handle);
            client.send_request(&endless(seed)).expect("request sent");
            token_and_rounds(&mut client, 1);
            client
        }

        #[test]
        fn resume_on_another_shard_continues_bit_identically() {
            let handle = start(2, ServerConfig::default());
            let blocker = stream(&handle, 4);
            let mut first = connect(&handle);
            first.send_request(&endless(5)).expect("request sent");
            let (token, before) = token_and_rounds(&mut first, 2);
            assert_eq!(streams(&handle), [1, 1], "the session runs on shard 1");
            drop(first);
            wait_until("shard 1 empties", || streams(&handle) == [1, 0]);
            drop(blocker);
            wait_until("both sessions park", || {
                handle.stats().sessions_parked.load(Ordering::Relaxed) == 2
                    && streams(&handle) == [0, 0]
            });

            // Both shards are idle, so the resume lands on shard 0.
            let mut second = connect(&handle);
            second
                .send_line(&format!("RESUME token={token}"))
                .expect("resume sent");
            let (again, after) = token_and_rounds(&mut second, 3);
            assert_eq!(streams(&handle), [1, 0], "the session resumed on shard 0");
            assert_eq!(again, token, "the token survives the resume");
            assert!(after[0].round > before[1].round);

            let engine = tied_engine();
            let mut local = VizQuery::new(&engine)
                .group_by("g")
                .avg("v")
                .delta(1e-9)
                .samples_per_round(1)
                .max_samples(u64::MAX)
                .start(StdRng::seed_from_u64(5))
                .expect("session starts");
            for wire in before.iter().chain(&after) {
                let update = loop {
                    let update = local.step();
                    if update.round >= wire.round {
                        break update;
                    }
                };
                assert_eq!(update.round, wire.round);
                assert_eq!(update.total_samples, wire.total_samples);
                let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&update.snapshot.estimates),
                    bits(&wire.snapshot.estimates),
                    "round {} diverged across shards",
                    wire.round
                );
            }
            handle.shutdown();
        }

        #[test]
        fn a_crash_drill_from_one_shard_restarts_every_shard() {
            let handle = start(
                3,
                ServerConfig {
                    enable_crash: true,
                    ..ServerConfig::default()
                },
            );
            let mut victims = [stream(&handle, 0), stream(&handle, 1)];
            assert_eq!(streams(&handle), [1, 1, 0]);
            connect(&handle).send_line("CRASH").expect("crash sent");
            for victim in &mut victims {
                while let Ok(Some(frame)) = victim.next_frame() {
                    assert!(
                        matches!(frame, Frame::Round(_)),
                        "a crash ends the stream without a terminal frame"
                    );
                }
            }
            let stats = handle.stats();
            wait_until("every shard restarted", || {
                stats.scheduler_restarts.load(Ordering::Relaxed) == 3
            });
            assert_eq!(stats.sessions_crashed.load(Ordering::Relaxed), 2);
            // Every restarted shard serves: two streams hold shards 0 and
            // 1, so the query lands on shard 2.
            let _held = [stream(&handle, 2), stream(&handle, 3)];
            let mut short = QueryRequest::avg("g", "v", 9);
            short.max_samples = Some(200);
            let run = connect(&handle).run_query(&short).expect("fresh query");
            assert!(run.answer.is_some());
            assert_eq!(stats.scheduler_restarts.load(Ordering::Relaxed), 3);
            handle.shutdown();
        }

        #[test]
        fn stats_from_any_shard_see_every_shards_admissions() {
            let handle = start(2, ServerConfig::default());
            let _on_shard_0 = stream(&handle, 1);
            // Shard 0 holds a stream, so this STATS is answered by shard 1.
            let stats = connect(&handle).stats().expect("stats round trip");
            assert_eq!(stats.sessions_admitted, 1);
            // The reply can reach the client before its stream is counted
            // out.
            wait_until("the STATS stream ends", || streams(&handle) == [1, 0]);
            let _on_shard_1 = stream(&handle, 2);
            assert_eq!(streams(&handle), [1, 1]);
            // A tie: shard 0 answers, and sees shard 1's admission.
            let stats = connect(&handle).stats().expect("stats round trip");
            assert_eq!(stats.sessions_admitted, 2);
            handle.shutdown();
        }

        #[test]
        fn placement_balances_streams_across_shards() {
            let handle = start(2, ServerConfig::default());
            let first = stream(&handle, 1);
            let _second = stream(&handle, 2);
            assert_eq!(streams(&handle), [1, 1], "two streams, two shards");
            let _third = stream(&handle, 3);
            assert_eq!(streams(&handle), [2, 1], "ties go to the lowest index");
            drop(first);
            wait_until("the first stream ends", || streams(&handle) == [1, 1]);
            // A connection that stays open between queries holds no shard.
            let mut idle = connect(&handle);
            idle.stats().expect("stats round trip");
            wait_until("the STATS stream ends", || streams(&handle) == [1, 1]);
            let _fourth = stream(&handle, 4);
            assert_eq!(streams(&handle), [2, 1]);
            let _fifth = stream(&handle, 5);
            assert_eq!(streams(&handle), [2, 2]);
            handle.shutdown();
        }

        #[test]
        fn a_crash_drill_keeps_the_global_budget_spent() {
            let handle = start(
                2,
                ServerConfig {
                    enable_crash: true,
                    global_sample_budget: Some(2_000),
                    ..ServerConfig::default()
                },
            );
            let drawn = |run: &QueryRun| -> u64 {
                let answer = run.answer.as_ref().expect("best-effort answer");
                assert_ne!(answer.outcome, StepOutcome::Converged);
                answer.samples_per_group.iter().sum()
            };
            let spent = connect(&handle).run_query(&endless(1)).expect("runs");
            assert!(drawn(&spent) >= 1_000, "the session drew the budget down");

            connect(&handle).send_line("CRASH").expect("crash sent");
            wait_until("every shard restarted", || {
                handle.stats().scheduler_restarts.load(Ordering::Relaxed) == 2
            });
            // The restarted shards still see the budget spent: a new
            // session gets its best-effort answer after the bootstrap
            // draws alone.
            let late = connect(&handle).run_query(&endless(2)).expect("runs");
            assert!(drawn(&late) < 100, "the crash reset the global budget");
            handle.shutdown();
        }
    }
}
