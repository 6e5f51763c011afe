//! # rapidviz-serve — a streaming wire protocol for progressive queries
//!
//! The paper's interaction model is a dashboard: a user issues an
//! aggregate query and watches bars *certify* one by one, long before the
//! exact answer would be ready. This crate puts that loop behind a TCP
//! socket: a std-only threaded server ([`server::Server`]) admits queries
//! into one [`rapidviz::MultiQueryScheduler`] per core and streams every
//! session's [`rapidviz::RoundUpdate`]s to its client as length-prefixed
//! binary frames, ending with the terminal answer.
//!
//! Determinism survives the wire: a request carries its RNG seed, and the
//! scheduler's invariant (multiplexing never perturbs results) means the
//! streamed estimates are **byte-identical** — `f64::to_bits` equal — to
//! an in-process [`rapidviz::VizQuery::execute`] with the same seed. The
//! loopback tests assert exactly that.
//!
//! ## Request grammar
//!
//! Requests are single LF-terminated ASCII lines, at most
//! [`protocol::MAX_REQUEST_LINE`] bytes including the LF (CR before the
//! LF is tolerated and stripped; empty lines are ignored):
//!
//! ```text
//! QUERY group=<col>[,<col>] agg=<avg|sum|count> measure=<col> seed=<u64>
//!       [algo=<ifocus|irefine|roundrobin|scan>]
//!       [filter=eq:<col>:<val> | filter=in:<col>:<v1>|<v2>|...]
//!       [delta=<f64>] [resolution_pct=<f64>] [bound=<f64>]
//!       [spr=<u64>] [max_samples=<u64>]
//! RESUME token=<u64>
//! STATS
//! ```
//!
//! `group`, `agg`, `measure`, and `seed` are required; key order is free;
//! unknown keys, bad numbers, or a missing required key get an error
//! frame with code `Malformed` and the connection closes. The grammar has
//! no escapes, so [`client::WireClient::send_request`] refuses, writing
//! nothing, a request whose line would not parse back to it (a value
//! holding a separator, an empty `IN` list). A connection
//! runs one command at a time: after `QUERY` or `RESUME`, the server
//! streams frames until the terminal frame, then reads the next line.
//!
//! `RESUME` re-attaches to a parked session: `token` is the non-zero
//! `u64` a `Parked` frame announced when the session was admitted.
//! Tokens stay valid while the session's checkpoint sits in the parking
//! registry — from admission until the session completes, is explicitly
//! resumed, or its TTL ([`server::ServerConfig::park_ttl`]) elapses after
//! a disconnect. An unknown, expired, or already-resumed token gets a
//! structured `NoSuchToken` error frame.
//!
//! ## Frame layout
//!
//! Every server→client message is one frame:
//!
//! ```text
//! u32 LE payload length (≤ protocol::MAX_FRAME_BYTES) | payload
//! ```
//!
//! Payloads are built from the primitives of
//! [`rapidviz::needletail::codec`]: little-endian integers, floats as
//! `f64::to_bits` in a `u64` (bit-exact, NaN-safe), `0`/`1` flag bytes,
//! strings as `u32 length | UTF-8 bytes`, vectors as a `u32` count
//! followed by packed elements. `payload[0]` is the frame tag:
//!
//! | tag | frame | payload after the tag |
//! |-----|-------|------------------------|
//! | `0x01` | Round | `u8` outcome (0 running / 1 converged / 2 budget), `u64` round, `u64` total_samples, `u64` fraction_sampled bits, `u32` n + n×`u32` newly-certified indices, snapshot |
//! | `0x02` | Answer | `u8` outcome, `u64` population, `u8` truncated, `u32` k + k×string labels, k×`u64` estimate bits, k×`u64` samples per group, `u64` rounds |
//! | `0x03` | Error | `u8` code (1 malformed / 2 invalid query / 3 over capacity / 4 shutting down / 5 no such token), string message |
//! | `0x04` | Evicted | `u64` resident bytes at eviction |
//! | `0x05` | Stats | 19×`u64`: admitted, completed, cancelled, rejected, frames sent, frames dropped, active clients, hit/miss pairs for the predicate cache (always 0, slot kept), the plan cache, and the composite cache (always 0, slot kept), then parked, resumed, expired, parked-now, parked bytes, scheduler restarts |
//! | `0x06` | Parked | `u64` resume token (never 0) |
//!
//! A Round frame carries the session's [`rapidviz::RoundUpdate`] itself
//! ([`protocol::Frame::Round`]); its snapshot is the engine's
//! [`rapidviz::Snapshot`], encoded as: `u32` k + k×string labels, k×`u64`
//! estimate bits, k×(`u64`,`u64`) interval lo/hi bits, k×`u8` active
//! flags, k×`u64` samples per group, `u64` rounds, `u8` truncated. A
//! decoder refuses an interval that is NaN or has lo > hi, so a decoded
//! snapshot keeps the in-process invariants.
//!
//! `0x02` and `0x03` are **terminal**: the server sends nothing further
//! for that command (and closes after `0x03`). `0x04` is followed by a
//! best-effort `0x02`; `0x06` precedes the round stream. Decoders must
//! reject unknown tags, truncated payloads, flag bytes other than `0`/`1`,
//! and trailing bytes — [`protocol::Frame::decode`] does, and the
//! robustness tests hammer it.
//!
//! ## Server lifecycle and failure behavior
//!
//! * One scheduler thread per core (a **shard**) owns the sessions
//!   placed on it; each query goes to the shard with the fewest streams
//!   in flight, and the shards share the engine, the counters, the
//!   parking registry and the global sample budget.
//!   Client threads only parse, forward, and pump encoded frames
//!   (sessions are not `Send`-guaranteed, so they never cross threads).
//!   Each shard's supervisor restarts its scheduler loop if it ever
//!   panics, instead of leaving that shard's connections wedged against
//!   a dead command channel; a `CRASH` drill restarts every shard.
//! * Sessions are **durable**: each admission that can checkpoint gets a
//!   resume token (`0x06 Parked`, sent before the first round) and its
//!   checkpoint is refreshed into a TTL-bounded parking registry after
//!   every round. A client disconnecting mid-stream *parks* the session
//!   (resumable via `RESUME` until the TTL lapses,
//!   [`server::ServerStats::sessions_parked`]); only tokenless sessions
//!   are cancelled outright
//!   ([`server::ServerStats::sessions_cancelled`]). Graceful shutdown
//!   drains live sessions into the same registry, so a successor server
//!   started with [`server::Server::start_shared`] resumes them; a
//!   scheduler crash loses live sessions but not their last-round
//!   checkpoints, and the resumed stream is bit-identical from the
//!   checkpointed round on.
//! * Slow clients lose intermediate round frames (counted in
//!   [`server::ServerStats::frames_dropped_slow`]), never terminal ones.
//! * Over-capacity connects and mid-shutdown queries get structured
//!   error frames (`OverCapacity` / `ShuttingDown`), not resets.
//!
//! ## Binaries
//!
//! * `rapidviz-serve` — serves a seeded flight-model table.
//! * `rapidviz-load` — closed-loop load generator (optionally
//!   self-hosting a server) reporting time-to-first-certified-bar
//!   percentiles, frames/s, and sessions/s.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{backoff_delays, QueryRun, RetryPolicy, WireClient};
pub use protocol::{
    parse_resume_line, read_frame, write_frame, ErrorCode, FilterSpec, Frame, QueryRequest,
    WireAnswer, WireStats,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
