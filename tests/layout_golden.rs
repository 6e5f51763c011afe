//! Fixed-seed digests of engine-backed runs, split by whether they depend
//! on where the engine stores each row.
//!
//! A group of the **first indexed column** sees its rows in their original
//! relative order however the engine lays the table out, so its draws,
//! estimates and sample counts are pinned here filtered and unfiltered,
//! with and without replacement, at one and 256 samples per round, for
//! AVG, SUM and COUNT, for a composite group-by led by that column, and for
//! the exact SCAN by it. Those digests must hold across any change to the
//! row layout.
//!
//! The rest depend on the layout, and are pinned so that a layout change
//! moves them on purpose: group-bys on other columns (their r-th row is
//! whatever row the layout puts r-th), Algorithm 5's size probe (a
//! uniformly random table position) and a fault-injected run (faults are
//! keyed by row id).
//!
//! The filters are the stack benchmark's three filter shapes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::core::extensions::{IFocusSum1, IFocusSum2, SizedGroupSource};
use rapidviz::core::{AlgoConfig, IFocus, RunResult, SamplingMode};
use rapidviz::needletail::codec::fnv1a64;
use rapidviz::needletail::{
    ColumnDef, DataType, NeedleTail, Predicate, Schema, SeededFaults, SizedGroupHandle,
    TableBuilder, Value,
};
use rapidviz::{NeedletailGroup, VizQuery};
use std::sync::Arc;

const AIRLINES: [&str; 6] = ["AA", "B6", "DL", "HA", "UA", "WN"];
const ORIGINS: usize = 6;
const INDEXED: [&str; 3] = ["name", "origin", "year"];

fn origin(i: usize) -> String {
    format!("O{i}")
}

/// 20,000 rows: Zipf-ish airline volumes, uniform origins and years, and a
/// delay in `[0, 100]` whose mean depends on the airline.
fn engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("year", DataType::Int),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(3301);
    for _ in 0..20_000 {
        let a = loop {
            let i = rng.gen_range(0..AIRLINES.len());
            if rng.gen_bool(1.0 / (1.0 + i as f64 * 0.3)) {
                break i;
            }
        };
        let delay = (20.0 + 9.0 * a as f64 + rng.gen_range(-20.0..20.0)).clamp(0.0, 100.0);
        b.push_row(vec![
            AIRLINES[a].into(),
            origin(rng.gen_range(0..ORIGINS)).into(),
            Value::Int(2000 + rng.gen_range(0..5)),
            delay.into(),
        ]);
    }
    NeedleTail::new(b.finish(), &INDEXED).unwrap()
}

/// No filter, then the benchmark's `year =`, `origin = ∧ year =` and
/// `origin IN (3)` shapes.
fn filters() -> [Predicate; 4] {
    [
        Predicate::True,
        Predicate::eq("year", Value::Int(2002)),
        Predicate::eq("origin", origin(2)).and(Predicate::eq("year", Value::Int(2003))),
        Predicate::is_in("origin", [1, 3, 4].map(origin)),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Agg {
    Avg,
    Sum,
}

fn digest(labels: &[String], r: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    for label in labels {
        bytes.extend_from_slice(label.as_bytes());
        bytes.push(0);
    }
    for x in &r.estimates {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for n in &r.samples_per_group {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.extend_from_slice(&r.rounds.to_le_bytes());
    bytes.push(u8::from(r.truncated));
    fnv1a64(&bytes)
}

/// 5 % resolution; a cap of about 6,000 draws per group ends SUM runs with
/// replacement, whose resolution is in sum space.
fn config(mode: SamplingMode, spr: u64) -> AlgoConfig {
    AlgoConfig::new(110.0, 0.05)
        .with_resolution(5.5)
        .with_mode(mode)
        .with_samples_per_round(spr)
        .with_max_rounds(6_000u64.div_ceil(spr))
}

/// One AVG (IFOCUS) or SUM (Algorithm 4) run over the engine's handles for
/// `group_by` under `filter`.
fn run(
    engine: &NeedleTail,
    group_by: &[&str],
    agg: Agg,
    mode: SamplingMode,
    spr: u64,
    filter: &Predicate,
    seed: u64,
) -> u64 {
    let handles = match group_by {
        [col] => engine.group_handles(col, "delay", filter),
        cols => engine.group_handles_multi(cols, "delay", filter),
    }
    .unwrap();
    let labels: Vec<String> = handles.iter().map(|h| h.label().to_string()).collect();
    let mut groups: Vec<NeedletailGroup> = handles.into_iter().map(NeedletailGroup::new).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let result = match agg {
        Agg::Avg => IFocus::new(config(mode, spr)).run(&mut groups, &mut rng),
        Agg::Sum => IFocusSum1::new(config(mode, spr)).run(&mut groups, &mut rng),
    };
    digest(&labels, &result)
}

/// Every aggregate × mode × round size × filter for `group_by`, in that
/// nesting order.
fn grid(engine: &NeedleTail, group_by: &[&str]) -> Vec<u64> {
    let mut out = Vec::new();
    for agg in [Agg::Avg, Agg::Sum] {
        for mode in [
            SamplingMode::WithoutReplacement,
            SamplingMode::WithReplacement,
        ] {
            for spr in [1, 256] {
                for (i, filter) in filters().iter().enumerate() {
                    out.push(run(engine, group_by, agg, mode, spr, filter, 40 + i as u64));
                }
            }
        }
    }
    out
}

/// COUNT sessions, read from the plan, under every filter.
fn count_digests(engine: &NeedleTail, group_by: &[&str]) -> Vec<u64> {
    filters()
        .into_iter()
        .map(|filter| {
            let mut q = VizQuery::new(engine);
            for col in group_by {
                q = q.group_by(*col);
            }
            let answer = q
                .count("delay")
                .filter(filter)
                .execute(&mut StdRng::seed_from_u64(7))
                .unwrap();
            digest(&answer.result.labels, &answer.result)
        })
        .collect()
}

/// Prints the digests in pasteable form before comparing, so a deliberate
/// re-pin reads them off the failure.
fn assert_pinned(what: &str, got: &[u64], want: &[u64]) {
    let listed: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, want, "{what}: got [{}]", listed.join(", "));
}

#[test]
fn first_column_group_runs_are_pinned() {
    let engine = engine();
    assert_pinned(
        "name",
        &grid(&engine, &["name"]),
        &[
            0x623d1f6b99b3ddab,
            0x3ef1ad1f40027c1e,
            0xd3af8b41c91e5305,
            0x880dc4ac4d460183,
            0xa4883537f0d3a473,
            0x6d596a44bf51735b,
            0x0c10f347c05b6386,
            0x4eaa2da3472ad6a7,
            0x3bc0ba501f6a645d,
            0xc0b4c044b5812fef,
            0xf2112ab694c94976,
            0x5e45dcfa2be73cd8,
            0x1a3246c045406e72,
            0x9347f56802c03e28,
            0xeadac3bd1295bd43,
            0x3f85b46d4f5ac4b6,
            0x18b1e397812653b4,
            0x8771ad6eaeacb4e8,
            0x690cc199f3106a82,
            0xc61908c5e9675dbd,
            0xf39659a21cb783f7,
            0xea7d0b091eab82fd,
            0x08b04ae7ee4e22e0,
            0xae9b6ac9dff2983a,
            0xaeee5348386cb769,
            0xca2015e2b53b60a1,
            0x46febecb09bd9db9,
            0x6e635f2a7603e2c8,
            0x7291eb6d99252318,
            0xbc36fdcb41b40fc6,
            0xb8ee011dd68f417d,
            0x4a997ce00aa9b70e,
        ],
    );
}

#[test]
fn first_column_count_sessions_are_pinned() {
    let engine = engine();
    assert_pinned(
        "name COUNT",
        &count_digests(&engine, &["name"]),
        &[
            0xd44195608c1d935d,
            0x72ced1bd61a43f5d,
            0x6b33ce91ebca487f,
            0xe8cd7007892b3c15,
        ],
    );
}

#[test]
fn composite_led_by_the_first_column_is_pinned() {
    let engine = engine();
    let mut got = Vec::new();
    for mode in [
        SamplingMode::WithoutReplacement,
        SamplingMode::WithReplacement,
    ] {
        for spr in [1, 256] {
            for (i, filter) in filters().iter().enumerate() {
                got.push(run(
                    &engine,
                    &["name", "origin"],
                    Agg::Avg,
                    mode,
                    spr,
                    filter,
                    60 + i as u64,
                ));
            }
        }
    }
    got.extend(count_digests(&engine, &["name", "origin"]));
    assert_pinned(
        "(name, origin)",
        &got,
        &[
            0x7f45fcc3a72b3110,
            0xede1ccd9a07193c9,
            0x1801b892f50e276e,
            0xc56f23a3519977dc,
            0x4f32d314e60a4db7,
            0x25ff96b02c0a7e5f,
            0x505967069305aacb,
            0x30eebdc4863f4193,
            0xa04634dc309701ba,
            0x1bc88ebb238ac45d,
            0x8a125d08f4938d01,
            0xb6738fa1afc46ecf,
            0x00372d8677a39ad0,
            0x9a04821d71be0195,
            0xc40f64bcb2bf8fde,
            0x7f27cdd62497c131,
            0x8ddf27e0b8b94caf,
            0x0cad0325a792e65d,
            0x9f481eaadc4d0463,
            0xc7267342e927f379,
        ],
    );
}

#[test]
fn first_column_scans_are_pinned() {
    let engine = engine();
    let got: Vec<u64> = filters()
        .iter()
        .map(|filter| {
            let mut bytes = Vec::new();
            for g in engine.scan("name", "delay", filter).unwrap() {
                bytes.extend_from_slice(g.group.to_string().as_bytes());
                bytes.extend_from_slice(&g.count.to_le_bytes());
                bytes.extend_from_slice(&g.sum.to_bits().to_le_bytes());
            }
            fnv1a64(&bytes)
        })
        .collect();
    assert_pinned(
        "scan name",
        &got,
        &[
            0x734e0d93dc3547d0,
            0x3f55048ba6733734,
            0x112af79c1cde1261,
            0x491af174b20abf73,
        ],
    );
}

#[test]
fn other_column_group_runs_are_pinned() {
    let engine = engine();
    let mut got = Vec::new();
    for group_by in [&["origin"][..], &["year"], &["origin", "year"]] {
        for agg in [Agg::Avg, Agg::Sum] {
            for mode in [
                SamplingMode::WithoutReplacement,
                SamplingMode::WithReplacement,
            ] {
                got.push(run(&engine, group_by, agg, mode, 16, &Predicate::True, 80));
                got.push(run(&engine, group_by, agg, mode, 16, &filters()[3], 81));
            }
        }
    }
    assert_pinned(
        "origin, year, (origin, year)",
        &got,
        &[
            0x251c0e898a26365d,
            0x7e661b143859afac,
            0xa57bcb3cbb3893db,
            0xc864367de9504c22,
            0x4d3300e093eb118d,
            0x182a4c48355dcccb,
            0x25d3d896c8bbb38b,
            0x3e6def59de7ca34a,
            0x56d677b2afbde864,
            0x865565c58a822b5c,
            0xb4b271deee920fa9,
            0x4f8d6028f7e3a9c7,
            0x575431c5e4171879,
            0x28b71f3d3f3247c7,
            0xcf2728c22614c54b,
            0x8851439037d00849,
            0xaa52dd293473eabb,
            0x78c7cf47a41cd11e,
            0xe587f54597935545,
            0x2233b7a806313d18,
            0x99b3062a48592214,
            0x01ad877e97f9e326,
            0x9f41463b9d82e5b2,
            0x985217d276372c4c,
        ],
    );
}

/// The engine's size-estimating handle as an Algorithm 5 source.
struct Sized(SizedGroupHandle);

impl SizedGroupSource for Sized {
    fn label(&self) -> String {
        self.0.label().to_string()
    }

    fn sample_with_size(&mut self, rng: &mut dyn RngCore) -> Option<(f64, f64)> {
        self.0.sample_with_size(rng)
    }

    fn sample_with_size_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        out: &mut Vec<(f64, f64)>,
    ) -> u64 {
        self.0.sample_batch_with_size(n as usize, rng, out) as u64
    }
}

#[test]
fn algorithm_5_size_probes_are_pinned() {
    let engine = engine();
    let got: Vec<u64> = [1, 64]
        .into_iter()
        .map(|spr| {
            let mut groups: Vec<Sized> = engine
                .sized_group_handles("name", "delay")
                .unwrap()
                .into_iter()
                .map(Sized)
                .collect();
            let labels: Vec<String> = groups.iter().map(SizedGroupSource::label).collect();
            let config = AlgoConfig::new(110.0, 0.05)
                .with_resolution(5.5)
                .with_samples_per_round(spr);
            let result = IFocusSum2::new(config).run(&mut groups, &mut StdRng::seed_from_u64(90));
            digest(&labels, &result)
        })
        .collect();
    assert_pinned(
        "Algorithm 5",
        &got,
        &[0x90226ead9d23afb7, 0xcfee962964b5ec22],
    );
}

#[test]
fn fault_injected_runs_are_pinned() {
    let mut engine = engine();
    engine.set_fault_injector(Arc::new(SeededFaults::new(9, 0.2)));
    let got: Vec<u64> = [Agg::Avg, Agg::Sum]
        .into_iter()
        .map(|agg| {
            run(
                &engine,
                &["name"],
                agg,
                SamplingMode::WithoutReplacement,
                16,
                &Predicate::True,
                95,
            )
        })
        .collect();
    assert_pinned("faults", &got, &[0xa35bf64503e8a4bd, 0x43ca4885cd2a5b52]);
    assert!(engine.metrics().snapshot().faulted_reads > 0);
}
