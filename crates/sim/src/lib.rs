//! # rapidviz-sim — deterministic simulation + chaos harness
//!
//! The repo's crown-jewel guarantee — **scheduled ≡ standalone, cached ≡
//! cold, batched ≡ single, all byte-identical** — spans a state space no
//! hand-written test list can enumerate once sessions, the multi-query
//! scheduler, and the plan cache compose. This crate holds those
//! invariants the VOPR way: a single `u64` seed deterministically derives
//! a whole *episode* (table, workload, chaos schedule, faults), the
//! episode runs under a [`MultiQueryScheduler`], and every admitted query
//! is then **replayed standalone** and compared bit-for-bit.
//!
//! # Episode grammar
//!
//! One root seed, fed to [`episode_plan`], derives:
//!
//! * **A table** — 2–6 groups plus a secondary group attribute and a
//!   filter attribute, with group means spread over a bounded value range.
//! * **A workload** — 2–4 queries covering `AVG` (under every
//!   [`AlgorithmChoice`]), `SUM`, and `COUNT`; random predicates drawn
//!   from a small pool whose spellings differ but whose canonical forms
//!   collide, so the plan cache serves warm plans mid-episode; per-query
//!   δ, resolution, batch size, sample budgets, and wall-clock budgets
//!   (timeout / deadline / both, including already-expired deadlines).
//! * **An event schedule** — quantum-indexed chaos interleaved with the
//!   scheduler's own stepping: late admits, cancellations
//!   (`finish()` mid-run), simulated-clock jumps (deadline/timeout skew),
//!   policy switches, and `clear_plan_caches()` mid-stream.
//! * **Resource pressure** — optionally a global sample budget and/or a
//!   per-session memory cap (evictions).
//! * **Faults** — optionally a seeded storage-read fault injector
//!   ([`rapidviz_needletail::fault`]) that drops sampled-row reads,
//!   verifying sessions degrade to best-effort answers instead of
//!   panicking.
//!
//! # Invariant list
//!
//! Each episode asserts, per session and per round:
//!
//! 1. **replay-divergence** — every admitted query, replayed standalone
//!    against a fresh (cold-cache) engine with the same seed and the same
//!    recorded clock timeline, produces byte-identical
//!    ([`f64::to_bits`]) updates and final answer.
//! 2. **fraction-monotone** — `fraction_sampled` is monotone and ≤ 1.0.
//! 3. **samples-monotone** — `total_samples` and `round` never decrease.
//! 4. **certified-prefix** — certified (inactive) groups never
//!    reactivate, `newly_certified` matches the active-flag delta, and a
//!    certified group's estimate stays bit-frozen ever after (except under
//!    ROUNDROBIN, which samples every group each round by design — its
//!    certified positions still never reactivate).
//! 5. **session-budget** — once a session's sample cap is reached, the
//!    next quantum is exactly one terminal `BudgetExhausted` update that
//!    draws nothing; no quanta arrive after a terminal update.
//! 6. **global-budget** — no session is stepped at or past the global
//!    sample cap, and nothing is stepped after the scheduler reports
//!    exhaustion.
//! 7. **memory-accounting** — `peak_bytes ≥ approx_bytes ≥ 0` always;
//!    eviction fires only above the cap, zeroes the resident figure, and
//!    the evicted session receives no further quanta.
//! 8. **truncated-monotone** — the snapshot's `truncated` flag never
//!    clears once set.
//! 9. **post-terminal-frozen** — extra `step()` calls after the terminal
//!    outcome re-report it bit-identically and draw nothing.
//! 10. **no-panic** — the whole episode body runs under `catch_unwind`;
//!     any panic is an invariant failure with the same seed-based repro.
//!
//! # `SIM_SEED` repro workflow
//!
//! Any failing episode panics with a report whose first line is
//! `SIM_SEED=<u64> POLICY=<policy>`, after a greedy minimizer has shrunk
//! the chaos schedule (dropping events and resource knobs while the
//! failure persists). To reproduce:
//!
//! * re-run the batch with the env var set — `SIM_SEED=12345 cargo test
//!   -p rapidviz-sim` — which runs exactly that episode under every
//!   policy (`sim_seed_repro` test); or
//! * call [`run_seed`] with the printed seed and policy from a scratch
//!   test.
//!
//! The seed fully determines the episode — table, queries, events, faults
//! — so the repro needs no other state. Batch sizes are controlled by
//! `SIM_EPISODES` (per policy; default 350) and `SIM_BASE_SEED` (CI sets
//! a per-run value so coverage accumulates across runs while any failure
//! stays one `SIM_SEED` away from local repro).
//!
//! # Wire episodes
//!
//! The [`wire`] module extends the grammar over the TCP serving layer:
//! seeded client fleets (connect / query / disconnect-mid-stream /
//! malformed lines / half-close / disconnect-then-`RESUME` / scheduler
//! crash drills with reconnect-and-resume recovery) run against an
//! in-process `rapidviz-serve` server, and every completed answer —
//! including resumed and crash-recovered ones — is byte-compared against
//! its standalone replay. Failures print `SIM_SEED=<u64> POLICY=Wire`;
//! `SIM_WIRE_EPISODES` sizes the batch (default 25).
//!
//! # Calibration
//!
//! The [`calibrate`] module measures the ordering guarantee itself: a grid
//! of IFOCUS and ROUNDROBIN cells (with and without replacement, exact
//! and resolution-relaxed, five value families and five adversarial row
//! orders), each run thousands of times over one fixed table and judged
//! by a Clopper–Pearson upper bound on its mis-ordering rate, which must
//! sit at or below `δ`. `tests/calibration.rs` runs a fixed-seed slice in
//! the tier-1 suite; `cargo test --release -p rapidviz-sim --test
//! calibration_grid -- --ignored --nocapture` runs the whole grid (10,000
//! runs a cell) and prints every cell's row and the `SIM_SEED` of every
//! mis-ordered run of a failing cell.
//!
//! [`MultiQueryScheduler`]: rapidviz::MultiQueryScheduler
//! [`AlgorithmChoice`]: rapidviz::AlgorithmChoice

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod calibrate;
mod minimize;
mod plan;
mod run;
pub mod wire;

pub use minimize::minimize;
pub use plan::{
    episode_plan, EpisodePlan, GroupBy, PredSpec, QueryKind, QuerySpec, ScheduledEvent, SimEvent,
    TableSpec, TimeBudget,
};
pub use run::{run_episode, EpisodeOptions, Failure, Mutation, Report};
pub use wire::{
    run_wire_batch, run_wire_episode, wire_episode_plan, WireBehavior, WireClientScript,
    WireEpisodePlan, WireFailure, WireKind, WireQuerySpec, WireReport,
};

use rapidviz::SchedulePolicy;

/// Plans and runs one episode with default options; the entry point a
/// `SIM_SEED` repro uses.
///
/// # Errors
///
/// Returns the first invariant [`Failure`] the episode hits.
pub fn run_seed(seed: u64, policy: SchedulePolicy) -> Result<Report, Failure> {
    run_episode(&episode_plan(seed, policy), &EpisodeOptions::default())
}

/// Derives the per-episode seed for index `i` of a batch — SplitMix64
/// over the base seed, so neighbouring indices get decorrelated episodes.
#[must_use]
pub fn batch_seed(base_seed: u64, i: u64) -> u64 {
    let mut x = base_seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs `count` episodes derived from `base_seed` under `policy`,
/// panicking with a `SIM_SEED=<u64>` repro report (minimized first) on
/// the first failure. Returns aggregate episode statistics.
pub fn run_batch(base_seed: u64, count: u64, policy: SchedulePolicy) -> Report {
    let mut aggregate = Report::default();
    for i in 0..count {
        let seed = batch_seed(base_seed, i);
        let plan = episode_plan(seed, policy);
        let opts = EpisodeOptions::default();
        match run_episode(&plan, &opts) {
            Ok(report) => aggregate.absorb(&report),
            Err(failure) => {
                let minimized = minimize(&plan, &opts);
                panic!("{}", failure.report(&minimized));
            }
        }
    }
    aggregate
}
