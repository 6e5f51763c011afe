//! Randomized wire-client episode batches: seeded fleets against an
//! in-process server, byte-compared against standalone replays.
//!
//! Env knobs: `SIM_WIRE_EPISODES` (batch size, default 25),
//! `SIM_BASE_SEED` (batch base), `SIM_SEED` (re-run exactly one wire
//! episode — the repro path for a `SIM_SEED=<u64> POLICY=Wire` report).

use rapidviz_sim::{run_wire_batch, run_wire_episode, wire_episode_plan, WireBehavior};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn wire_batch() {
    let n = env_u64("SIM_WIRE_EPISODES", 25);
    let report = run_wire_batch(env_u64("SIM_BASE_SEED", 0x5EED_CAFE), n);
    eprintln!("wire batch: {report:?}");
    assert_eq!(report.episodes, n);
    assert!(
        report.verified_answers > 0,
        "batch must byte-verify some answers: {report:?}"
    );
    assert!(
        report.replayed_rounds > 0,
        "batch must replay some round frames: {report:?}"
    );
}

#[test]
fn wire_plan_is_deterministic_and_covers_behaviors() {
    let a = wire_episode_plan(7);
    let b = wire_episode_plan(7);
    assert_eq!(a, b, "same seed, same plan");
    // Across a modest seed range every behavior variant appears — the
    // grammar can actually reach its chaos arms.
    let mut saw = [false; 7];
    for seed in 0..200u64 {
        let plan = wire_episode_plan(seed);
        let solo = plan.clients.len() == 1;
        for c in plan.clients {
            match c.behavior {
                WireBehavior::Complete => saw[0] = true,
                WireBehavior::DisconnectAfter(_) => saw[1] = true,
                WireBehavior::Malformed => saw[2] = true,
                WireBehavior::HalfClose => saw[3] = true,
                WireBehavior::DisconnectReconnect(_) => saw[4] = true,
                WireBehavior::CrashRestart(_) => {
                    saw[5] = true;
                    // The drill kills every live session in the
                    // incarnation, so it must never have fleet-mates.
                    assert!(solo, "crash drill in a multi-client episode (seed {seed})");
                }
                WireBehavior::MissingColumn => saw[6] = true,
            }
        }
    }
    assert_eq!(saw, [true; 7], "behavior coverage: {saw:?}");
}

#[test]
fn wire_seed_repro() {
    let Ok(seed) = std::env::var("SIM_SEED") else {
        return;
    };
    let seed: u64 = seed.parse().expect("SIM_SEED must be a u64");
    if let Err(failure) = run_wire_episode(&wire_episode_plan(seed)) {
        panic!("{}", failure.report());
    }
}
