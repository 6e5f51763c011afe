//! Sessions whose groups are read whole resume over the wire bit for bit.
//!
//! A session at 30 % resolution over [`engine`] reads the groups `a` and
//! `b` whole in its first step and samples `c`; at 20 % it reads every
//! group whole. Each one's checkpoint at every
//! round is parked in a registry the server shares, and a `RESUME` over
//! the wire must stream the uninterrupted in-process run's remaining
//! rounds and answer, `f64::to_bits` equal. Nothing here races the
//! server: the sessions are parked before it starts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Schema, TableBuilder, Value};
use rapidviz::{ParkingRegistry, RoundUpdate, VizQuery};
use rapidviz_serve::{Server, ServerConfig, WireClient};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Groups of `g` (row ranges): two read whole at 30 %, one sampled.
fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for (label, size, mean) in [
        ("a", 2_000u32, 30.0),
        ("b", 3_000, 45.0),
        ("c", 20_000, 38.0),
    ] {
        for j in 0..size {
            let v = mean + f64::from((j * 37) % 41) - 20.0;
            b.push_row(vec![label.into(), Value::Float(v)]);
        }
    }
    NeedleTail::new(b.finish(), &["g"]).expect("engine builds")
}

fn query(engine: &NeedleTail, resolution_pct: f64) -> VizQuery<'_> {
    VizQuery::new(engine)
        .group_by("g")
        .avg("v")
        .bound(100.0)
        .resolution_pct(resolution_pct)
        .samples_per_round(16)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn mixed_and_exact_sessions_resume_over_the_wire_at_every_round() {
    let local = engine();
    for (by, pct) in [("mixed", 30.0), ("all exact", 20.0)] {
        let mut session = query(&local, pct).start(StdRng::seed_from_u64(5)).unwrap();
        let reference: Vec<RoundUpdate> = session.by_ref().collect();
        let answer = session.finish();
        assert_eq!(
            reference.len() == 1,
            by == "all exact",
            "{by}: one step iff all exact"
        );
        let registry = Arc::new(Mutex::new(ParkingRegistry::new(Duration::from_secs(600))));
        let mut tokens = Vec::new();
        for boundary in 0..reference.len() {
            let mut session = query(&local, pct).start(StdRng::seed_from_u64(5)).unwrap();
            for _ in 0..boundary {
                session.step();
            }
            let mut registry = registry.lock().unwrap();
            let token = registry.reserve();
            tokens.push(
                registry
                    .park_reserved(token, session.checkpoint().unwrap())
                    .unwrap(),
            );
        }
        let config = ServerConfig {
            frame_queue: 4_096,
            per_client_max_samples: u64::MAX,
            ..ServerConfig::default()
        };
        let handle = Server::start_shared(engine(), config, Arc::clone(&registry)).unwrap();
        for (boundary, token) in tokens.into_iter().enumerate() {
            let mut client =
                WireClient::connect(handle.local_addr(), Duration::from_secs(30)).unwrap();
            let run = client.resume(token).unwrap();
            let what = format!("{by}: resumed at round {boundary}");
            assert!(run.error.is_none(), "{what}: {:?}", run.error);
            assert_eq!(run.rounds.len(), reference.len() - boundary, "{what}");
            for (wire, local) in run.rounds.iter().zip(&reference[boundary..]) {
                assert_eq!(
                    (wire.outcome, wire.round, wire.total_samples),
                    (local.outcome, local.round, local.total_samples),
                    "{what}"
                );
                let (w, l) = (&wire.snapshot, &local.snapshot);
                assert_eq!(bits(&w.estimates), bits(&l.estimates), "{what}");
                let ends = |s: &rapidviz::Snapshot| -> Vec<u64> {
                    let iv = s.intervals.iter();
                    iv.flat_map(|i| [i.lo.to_bits(), i.hi.to_bits()]).collect()
                };
                assert_eq!(ends(w), ends(l), "{what}");
                assert_eq!(w.active, l.active, "{what}");
                assert_eq!(w.samples_per_group, l.samples_per_group, "{what}");
            }
            let wire = run.answer.expect("a terminal answer");
            assert_eq!(
                bits(&wire.estimates),
                bits(&answer.result.estimates),
                "{what}"
            );
            assert_eq!(wire.samples_per_group, answer.result.samples_per_group);
        }
        handle.shutdown();
    }
}
