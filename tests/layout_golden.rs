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
//! keyed by row id). Multi-column group-bys not led by the first indexed
//! column are pinned beside them, a small table with numeric group
//! columns pins the cell order, which sorts cells by their values'
//! display strings, and wide keyed rounds (14 groups × 256 draws) are
//! pinned round by round, fault-free and fault-injected (at a rate that
//! ends the run in its first round, and at one that stops groups in later
//! rounds).
//!
//! The filters are the stack benchmark's three filter shapes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::core::extensions::{IFocusSum1, IFocusSum2, SizedGroupSource};
use rapidviz::core::{AlgoConfig, AlgorithmStepper, IFocus, RunResult, SamplingMode, Snapshot};
use rapidviz::needletail::codec::fnv1a64;
use rapidviz::needletail::{
    ColumnDef, DataType, GroupHandle, NeedleTail, Predicate, Schema, SeededFaults,
    SizedGroupHandle, TableBuilder, Value,
};
use rapidviz::{AlgorithmChoice, NeedletailGroup, StepOutcome, VizQuery};
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
    run_handles(handles, agg, mode, spr, seed)
}

/// One run over already planned handles.
fn run_handles(
    handles: Vec<GroupHandle>,
    agg: Agg,
    mode: SamplingMode,
    spr: u64,
    seed: u64,
) -> u64 {
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

/// Every estimate a fault-free SCAN session streams is the engine scan's
/// `sum / count` for its group, bit for bit: by the clustered `name` (row
/// ranges unfiltered, rank windows filtered) and by the unclustered
/// `origin` (index bitmaps unfiltered, intersections filtered), under
/// every filter.
#[test]
fn scan_sessions_equal_the_engine_scan_bit_for_bit() {
    let engine = engine();
    for column in ["name", "origin"] {
        for filter in filters() {
            let truth: Vec<(String, u64)> = engine
                .scan(column, "delay", &filter)
                .unwrap()
                .into_iter()
                .filter(|g| g.count > 0)
                .map(|g| (g.group.to_string(), (g.sum / g.count as f64).to_bits()))
                .collect();
            let mut session = VizQuery::new(&engine)
                .group_by(column)
                .avg("delay")
                .filter(filter.clone())
                .algorithm(AlgorithmChoice::ExactScan)
                .start(StdRng::seed_from_u64(0))
                .unwrap();
            let mut certified = 0;
            for update in session.by_ref() {
                let snap = &update.snapshot;
                for g in snap.certified_order() {
                    let want = truth.iter().find(|(label, _)| *label == snap.labels[g]);
                    assert_eq!(
                        want.map(|w| w.1),
                        Some(snap.estimates[g].to_bits()),
                        "{column} under {filter:?}: group {}",
                        snap.labels[g]
                    );
                }
                certified = snap.certified_order().len();
            }
            assert_eq!(certified, truth.len(), "{column} under {filter:?}");
            let answer = session.finish();
            assert_eq!(answer.outcome, StepOutcome::Converged);
            assert!(!answer.result.truncated);
        }
    }
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

#[test]
fn multi_column_group_runs_not_led_by_the_first_column_are_pinned() {
    let engine = engine();
    let mut got = Vec::new();
    for group_by in [&["origin", "name"][..], &["year", "origin"]] {
        for mode in [
            SamplingMode::WithoutReplacement,
            SamplingMode::WithReplacement,
        ] {
            for spr in [1, 256] {
                for (i, filter) in filters().iter().enumerate() {
                    got.push(run(
                        &engine,
                        group_by,
                        Agg::Avg,
                        mode,
                        spr,
                        filter,
                        70 + i as u64,
                    ));
                }
            }
        }
    }
    assert_pinned(
        "(origin, name), (year, origin)",
        &got,
        &[
            0x0a31bddfe60d7879,
            0xcdd11ef2fbcbf601,
            0x945a0e4383cf1098,
            0x92583080f4f140d6,
            0x434b15d3557b5530,
            0xa9deea5564730427,
            0x94c7b4d93f29edd4,
            0xcae50345bf770c50,
            0x668669f2f0de411f,
            0xd0f6ceee1ec2bcab,
            0x06af672221506c42,
            0x3c2ae9dfc5e4b676,
            0x740de9f2b26828c0,
            0xa8ac880be46972ef,
            0x3bde67474a9a9efc,
            0xe8cd4c7fda11bb03,
            0x602c61ac8f9d4c02,
            0x307a065045689cb2,
            0x70e0361100db1e5a,
            0xc0d466789c72bdc8,
            0x7caff428f9f1c916,
            0x1b392f7a68427733,
            0x70e0361100db1e5a,
            0xe8c78c17d5eeccb6,
            0x8d94d0ee4d002905,
            0xc8fc0c7d70dd90d5,
            0x8cf8c726181bef3a,
            0x1bb22dd79b056e94,
            0x4abd04ed703f7b23,
            0xc9bc7fd28818aa9b,
            0x8cf8c726181bef3a,
            0xc5ea2cbcb9949b7c,
        ],
    );
}

/// 3,000 rows whose numeric group columns hold 9, 10 and −1 (`n` as
/// integers, `f` as floats), beside a string column `g`.
fn numeric_cells_engine() -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("n", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("delay", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(3302);
    for _ in 0..3_000 {
        let n = [9, 10, -1][rng.gen_range(0..3)];
        let f = [9.0, 10.0, -1.0][rng.gen_range(0..3)];
        let delay = (40.0 + 3.0 * n as f64 + rng.gen_range(-30.0..30.0)).clamp(0.0, 100.0);
        b.push_row(vec![
            ["b", "a"][rng.gen_range(0..2)].into(),
            Value::Int(n),
            f.into(),
            delay.into(),
        ]);
    }
    NeedleTail::new(b.finish(), &["g"]).unwrap()
}

/// Cells are ordered by the tuple of their values' display strings, so
/// `10` sorts before `9` and `-1` before both.
#[test]
fn numeric_cell_labels_and_runs_are_pinned() {
    let engine = numeric_cells_engine();
    let mut labels = Vec::new();
    let mut got = Vec::new();
    for group_by in [&["g", "n"][..], &["n", "g"], &["f", "n"]] {
        for (i, filter) in [Predicate::True, Predicate::eq("g", "a")]
            .iter()
            .enumerate()
        {
            let handles = engine
                .group_handles_multi(group_by, "delay", filter)
                .unwrap();
            labels.push(
                handles
                    .iter()
                    .map(|h| h.label().to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            for mode in [
                SamplingMode::WithoutReplacement,
                SamplingMode::WithReplacement,
            ] {
                got.push(run_handles(
                    handles.clone(),
                    Agg::Avg,
                    mode,
                    16,
                    90 + i as u64,
                ));
            }
        }
    }
    assert_eq!(
        labels,
        [
            "a|-1,a|10,a|9,b|-1,b|10,b|9",
            "a|-1,a|10,a|9",
            "-1|a,-1|b,10|a,10|b,9|a,9|b",
            "-1|a,10|a,9|a",
            "-1|-1,-1|10,-1|9,10|-1,10|10,10|9,9|-1,9|10,9|9",
            "-1|-1,-1|10,-1|9,10|-1,10|10,10|9,9|-1,9|10,9|9",
        ]
    );
    assert_pinned(
        "numeric cells",
        &got,
        &[
            0xc03ecd2449cce2e4,
            0x739e8c98718aa97c,
            0xd6f35ac3a3a24a09,
            0x5507e6e37a14e468,
            0x4865cd8344690cd7,
            0x1cc2968571e2693a,
            0x28bd4c03c6e1417d,
            0xc973b6de4866152c,
            0xb75c847009d2a7ae,
            0xd0004047c865f152,
            0xea9a06fbca9b28fd,
            0x857942bc88705f50,
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

/// Rows of the small group of [`wide_round_engine`], which runs dry in a
/// round of more than 12 × 256 draws.
const WIDE_SMALL: u64 = 600;

/// 14 groups, 13 of 20,000 rows with means 20, 24, …, 68 and one of
/// [`WIDE_SMALL`] rows with mean 70, close enough to 68 that it is still
/// drawing when it runs dry. Every group is a row range of `g`.
fn wide_round_engine(faults: Option<SeededFaults>) -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(40);
    for g in 0..14u64 {
        let (rows, mu) = if g == 13 {
            (WIDE_SMALL, 70.0)
        } else {
            (20_000, 20.0 + 4.0 * g as f64)
        };
        for _ in 0..rows {
            let v = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
            b.push_row(vec![format!("g{g:02}").into(), v.into()]);
        }
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
    if let Some(faults) = faults {
        engine.set_fault_injector(Arc::new(faults));
    }
    engine
}

/// `fnv1a64` over a round: its outcome, the round counter, every estimate
/// and interval endpoint as bits, the active set and the per-group
/// samples.
fn round_digest(outcome: StepOutcome, snap: &Snapshot) -> u64 {
    let mut bytes = vec![outcome.code()];
    bytes.extend_from_slice(&snap.rounds.to_le_bytes());
    for (e, iv) in snap.estimates.iter().zip(&snap.intervals) {
        for x in [e, &iv.lo, &iv.hi] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    bytes.extend(snap.active.iter().map(|&a| u8::from(a)));
    for m in &snap.samples_per_group {
        bytes.extend_from_slice(&m.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Steps `stepper` to its end: every round's digest and samples per group.
fn wide_rounds<S: AlgorithmStepper>(
    mut stepper: S,
    groups: &mut [NeedletailGroup],
    rng: &mut StdRng,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let (mut digests, mut samples) = (Vec::new(), Vec::new());
    loop {
        let outcome = stepper.step(groups, rng);
        let snap = stepper.snapshot();
        digests.push(round_digest(outcome, &snap));
        samples.push(snap.samples_per_group);
        if !outcome.is_running() {
            return (digests, samples);
        }
    }
}

/// Wide keyed rounds without replacement (14 groups × 256 draws, seed 41),
/// AVG and SUM, fault-free and with 5 % of reads dropped: per run, the
/// round count, `fnv1a64` over every round's digest, `fnv1a64` over the
/// RNG's final state, and the samples and faulted reads the engine
/// charged. The fault-free AVG run's small group runs dry in a round of
/// more than 12 × 256 draws.
#[test]
fn wide_keyed_rounds_are_pinned() {
    let bytes = |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let mut got = Vec::new();
    for faults in [None, Some(SeededFaults::new(7, 0.05))] {
        let engine = wide_round_engine(faults);
        for sum in [false, true] {
            let handles = engine.group_handles("g", "v", &Predicate::True).unwrap();
            let mut groups: Vec<NeedletailGroup> =
                handles.into_iter().map(NeedletailGroup::new).collect();
            let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(256);
            let mut rng = StdRng::seed_from_u64(41);
            let before = engine.metrics().snapshot();
            let (digests, samples) = if sum {
                let stepper = IFocusSum1::new(config).start(&mut groups, &mut rng);
                wide_rounds(stepper, &mut groups, &mut rng)
            } else {
                let stepper = IFocus::new(config).start(&mut groups, &mut rng);
                wide_rounds(stepper, &mut groups, &mut rng)
            };
            let after = engine.metrics().snapshot();
            if !sum && faults.is_none() {
                let dry = samples.iter().position(|s| s[13] == WIDE_SMALL).unwrap();
                let drawn = |r: usize| samples[r].iter().sum::<u64>();
                assert!(dry > 0 && drawn(dry) - drawn(dry - 1) > 12 * 256);
            }
            got.push((
                digests.len(),
                fnv1a64(&bytes(&digests)),
                fnv1a64(&bytes(&rng.state())),
                after.random_samples - before.random_samples,
                after.faulted_reads - before.faulted_reads,
            ));
        }
    }
    let listed: Vec<String> = got
        .iter()
        .map(|(n, d, r, s, f)| format!("({n}, 0x{d:016x}, 0x{r:016x}, {s}, {f})"))
        .collect();
    assert_eq!(
        got,
        [
            (46, 0xb861ab0f587b4adb, 0x881bc35b1d615b7f, 126_309, 0),
            (46, 0xc087ab349b5aeced, 0x881bc35b1d615b7f, 123_662, 0),
            (1, 0x08ffc5fc5d443094, 0x881bc35b1d615b7f, 3_086, 152),
            (1, 0x640c65446269ceac, 0x881bc35b1d615b7f, 3_086, 152),
        ],
        "wide rounds: got [{}]",
        listed.join(", ")
    );
}

/// [`wide_keyed_rounds_are_pinned`]'s rounds with 0.05 % of reads dropped,
/// so that groups survive their first batch: both runs last at least three
/// rounds, and in some round after the first a group delivers fewer than
/// its 256 draws while rows are left, so a dropped read stopped it. Pinned
/// per run as there: the round count, `fnv1a64` over every round's digest
/// and over the RNG's final state, and the samples and faulted reads.
#[test]
fn multi_round_faulted_keyed_rounds_are_pinned() {
    let bytes = |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let engine = wide_round_engine(Some(SeededFaults::new(7, 0.0005)));
    let mut got = Vec::new();
    for sum in [false, true] {
        let handles = engine.group_handles("g", "v", &Predicate::True).unwrap();
        let rows: Vec<u64> = handles.iter().map(GroupHandle::len).collect();
        let mut groups: Vec<NeedletailGroup> =
            handles.into_iter().map(NeedletailGroup::new).collect();
        let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(256);
        let mut rng = StdRng::seed_from_u64(41);
        let before = engine.metrics().snapshot();
        let (digests, samples) = if sum {
            let stepper = IFocusSum1::new(config).start(&mut groups, &mut rng);
            wide_rounds(stepper, &mut groups, &mut rng)
        } else {
            let stepper = IFocus::new(config).start(&mut groups, &mut rng);
            wide_rounds(stepper, &mut groups, &mut rng)
        };
        let after = engine.metrics().snapshot();
        let stopped_short_after_round_1 = (1..samples.len()).any(|r| {
            (0..rows.len()).any(|i| {
                let drawn = samples[r][i] - samples[r - 1][i];
                drawn > 0 && drawn < 256 && samples[r][i] < rows[i]
            })
        });
        assert!(
            digests.len() >= 3 && stopped_short_after_round_1,
            "sum {sum}"
        );
        got.push((
            digests.len(),
            fnv1a64(&bytes(&digests)),
            fnv1a64(&bytes(&rng.state())),
            after.random_samples - before.random_samples,
            after.faulted_reads - before.faulted_reads,
        ));
    }
    let listed: Vec<String> = got
        .iter()
        .map(|(n, d, r, s, f)| format!("({n}, 0x{d:016x}, 0x{r:016x}, {s}, {f})"))
        .collect();
    assert_eq!(
        got,
        [
            (11, 0x34b7deb2d632452a, 0x881bc35b1d615b7f, 21_093, 12),
            (11, 0xabd778f75054f879, 0x881bc35b1d615b7f, 20_750, 12),
        ],
        "faulted rounds: got [{}]",
        listed.join(", ")
    );
}
