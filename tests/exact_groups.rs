//! Groups read whole by one exact pass instead of sampled: which ones the
//! planner picks, what they answer and charge, how a dropped row shows,
//! and that a session mixing them with sampled groups resumes bit for bit.
//!
//! A resolution `r` bounds a group's samples by `m_floor`, the round at
//! which the schedule's width reaches `r/4`; `VizQuery` reads a group whole
//! iff its rows are one range and at most `ρ·min(n_i, m_floor)` (ρ = 15).
//! At 30 % and three groups `m_floor` is ~780 samples, so on [`engine`] the
//! groups `a` (2,000 rows) and `b` (3,000) of the clustered `g` are read
//! whole and `c` (20,000) is sampled; at 20 % every group of `g` is read.
//! The groups of `h` (~8,300 rows each, not clustered) are always sampled.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz::needletail::{
    ColumnDef, DataType, NeedleTail, Predicate, Schema, SeededFaults, TableBuilder, Value,
};
use rapidviz::{
    AlgorithmChoice, QuerySession, RoundUpdate, SessionCheckpoint, StepOutcome, VizQuery,
};
use std::sync::Arc;

/// Sizes of the groups of `g`: two read whole at 30 %, one sampled.
const SIZES: [(&str, usize, f64); 3] =
    [("a", 2_000, 30.0), ("b", 3_000, 45.0), ("c", 20_000, 38.0)];

fn table() -> rapidviz::needletail::Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("h", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    let mut row = 0u32;
    for (label, size, mean) in SIZES {
        for j in 0..size {
            // Values spread ±20 around the group's mean, in [0, 100].
            let v = mean + f64::from((j as u32 * 37) % 41) - 20.0;
            let h = ["x", "y", "z"][(row % 3) as usize];
            b.push_row(vec![label.into(), h.into(), Value::Float(v)]);
            row += 1;
        }
    }
    b.finish()
}

fn engine() -> NeedleTail {
    NeedleTail::new(table(), &["g", "h"]).unwrap()
}

/// Resolutions of the mixed and the all-exact query over `g`.
const MIXED: f64 = 30.0;
const ALL_EXACT: f64 = 20.0;

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

fn drive(mut session: QuerySession) -> Vec<RoundUpdate> {
    session.by_ref().collect()
}

/// Every field a round shows, intervals and estimates as bits.
fn same_round(a: &RoundUpdate, b: &RoundUpdate, what: &str) {
    assert_eq!(
        (a.outcome, a.round, a.total_samples),
        (b.outcome, b.round, b.total_samples),
        "{what}"
    );
    assert_eq!(
        bits(&a.snapshot.estimates),
        bits(&b.snapshot.estimates),
        "{what}"
    );
    let ends = |u: &RoundUpdate| -> Vec<u64> {
        let iv = u.snapshot.intervals.iter();
        iv.flat_map(|i| [i.lo.to_bits(), i.hi.to_bits()]).collect()
    };
    assert_eq!(ends(a), ends(b), "{what}");
    assert_eq!(a.snapshot.active, b.snapshot.active, "{what}");
    assert_eq!(
        a.snapshot.samples_per_group, b.snapshot.samples_per_group,
        "{what}"
    );
    assert_eq!(a.newly_certified, b.newly_certified, "{what}");
}

#[test]
fn all_exact_sessions_equal_the_engine_scan_bit_for_bit() {
    let engine = engine();
    let answer = query(&engine, ALL_EXACT)
        .execute(&mut StdRng::seed_from_u64(1))
        .unwrap();
    let scan = engine.scan("g", "v", &Predicate::True).unwrap();
    assert_eq!(answer.result.labels.len(), scan.len());
    for g in scan {
        let i = answer
            .result
            .labels
            .iter()
            .position(|l| *l == g.group.to_string());
        let estimate = answer.result.estimates[i.unwrap()];
        assert_eq!(
            estimate.to_bits(),
            g.mean().unwrap().to_bits(),
            "{}",
            g.group
        );
    }
    // The unread-row bound and the sum space agree: SUM reads the same
    // groups whole, `(s/n)·n` of every group.
    let sum = VizQuery::new(&engine)
        .group_by("g")
        .sum("v")
        .bound(100.0)
        .resolution_pct(ALL_EXACT)
        .execute(&mut StdRng::seed_from_u64(1))
        .unwrap();
    assert_eq!(sum.result.total_samples(), engine.table().row_count());
    for (s, (e, &n)) in sum.result.estimates.iter().zip(
        answer
            .result
            .estimates
            .iter()
            .zip(&answer.result.samples_per_group),
    ) {
        assert_eq!(s.to_bits(), (e * n as f64).to_bits());
    }
}

#[test]
fn all_exact_sessions_charge_rows_scanned_not_samples() {
    let engine = engine();
    let rows = engine.table().row_count();
    let before = engine.metrics().snapshot();
    let mut session = query(&engine, ALL_EXACT)
        .start(StdRng::seed_from_u64(2))
        .unwrap();
    let updates: Vec<RoundUpdate> = session.by_ref().collect();
    let after = engine.metrics().snapshot();
    assert_eq!(after.rows_scanned - before.rows_scanned, rows);
    assert_eq!(
        after.random_samples, before.random_samples,
        "nothing sampled"
    );
    // One step, terminal: it reads every group and certifies them all.
    assert_eq!(updates.len(), 1);
    assert_eq!(updates[0].outcome, StepOutcome::Converged);
    assert_eq!(updates[0].newly_certified, [0, 1, 2]);
    assert!(updates[0]
        .snapshot
        .intervals
        .iter()
        .all(|iv| iv.width() == 0.0));
    // Rows read count as samples: SCAN's meaning.
    assert_eq!(session.total_samples(), rows);
    assert_eq!(session.fraction_sampled(), 1.0);
}

#[test]
fn mixed_sessions_read_the_small_groups_and_sample_the_large_one() {
    let engine = engine();
    let before = engine.metrics().snapshot();
    let updates = drive(
        query(&engine, MIXED)
            .start(StdRng::seed_from_u64(3))
            .unwrap(),
    );
    let after = engine.metrics().snapshot();
    assert_eq!(after.rows_scanned - before.rows_scanned, 5_000, "a and b");
    assert!(after.random_samples > before.random_samples, "c is sampled");
    let first = &updates[0].snapshot;
    assert_eq!(first.samples_per_group[..2], [2_000, 3_000]);
    assert!(first.samples_per_group[2] < 20_000);
    assert!(updates.len() > 5, "c samples for {} rounds", updates.len());
    let last = updates.last().unwrap();
    assert_eq!(last.outcome, StepOutcome::Converged);
    assert!(last.snapshot.samples_per_group[2] < 2_000);
}

#[test]
fn groups_that_are_not_one_row_range_are_sampled() {
    // `h` is indexed but not clustered, so its groups are bitmaps, and a
    // filter makes `g`'s groups windows of the predicate's bitmap: ρ was
    // measured on neither pass, so even at 20 % none is read whole.
    let engine = engine();
    let by_h = VizQuery::new(&engine)
        .group_by("h")
        .avg("v")
        .bound(100.0)
        .resolution_pct(ALL_EXACT);
    let filtered = query(&engine, ALL_EXACT).filter(Predicate::eq("h", "x"));
    for (what, q) in [("bitmaps", by_h), ("windows", filtered)] {
        let before = engine.metrics().snapshot();
        let answer = q.execute(&mut StdRng::seed_from_u64(3)).unwrap();
        let after = engine.metrics().snapshot();
        assert_eq!(after.rows_scanned, before.rows_scanned, "{what}");
        assert!(after.random_samples > before.random_samples, "{what}");
        assert_eq!(answer.outcome, StepOutcome::Converged, "{what}");
    }
}

#[test]
fn an_exact_group_with_a_dropped_row_is_never_a_point() {
    let mut engine = engine();
    engine.set_fault_injector(Arc::new(SeededFaults::new(7, 0.05)));
    for (what, q) in [
        (
            "scan",
            query(&engine, MIXED).algorithm(AlgorithmChoice::ExactScan),
        ),
        ("mixed", query(&engine, MIXED)),
    ] {
        let updates = drive(q.start(StdRng::seed_from_u64(4)).unwrap());
        for u in &updates {
            for (i, (_, size, _)) in SIZES.iter().enumerate() {
                let read = u.snapshot.samples_per_group[i];
                let exact = what == "scan" || i < 2;
                if exact && read > 0 {
                    assert!(read < *size as u64, "{what}: 5 % of rows dropped");
                    assert!(u.snapshot.intervals[i].width() > 0.0, "{what} group {i}");
                    assert!(u.snapshot.active[i], "{what}: group {i} never certified");
                }
            }
        }
        let last = updates.last().unwrap();
        assert_eq!(last.outcome, StepOutcome::BudgetExhausted, "{what}");
        assert!(last.snapshot.truncated, "{what}");
    }
}

#[test]
fn mixed_and_exact_sessions_resume_bit_identically_at_every_round() {
    let engine = engine();
    for (what, pct) in [("mixed", MIXED), ("all exact", ALL_EXACT)] {
        let reference = drive(query(&engine, pct).start(StdRng::seed_from_u64(5)).unwrap());
        for boundary in 0..reference.len() {
            let mut session = query(&engine, pct).start(StdRng::seed_from_u64(5)).unwrap();
            for _ in 0..boundary {
                session.step();
            }
            let bytes = session.checkpoint().unwrap().to_bytes();
            let checkpoint = SessionCheckpoint::from_bytes(&bytes).unwrap();
            let resumed = drive(QuerySession::resume(&engine, &checkpoint).unwrap());
            assert_eq!(resumed.len(), reference.len() - boundary, "{what}");
            for (k, (a, b)) in resumed.iter().zip(&reference[boundary..]).enumerate() {
                same_round(a, b, &format!("{what}: resumed at {boundary}, round {k}"));
            }
        }
    }
}

#[test]
fn a_capped_session_reads_no_group_whole_that_sampling_would_need_the_budget_for() {
    // Sampled, the three groups need at most ~3 × 780 samples and converge
    // under a cap of 2,500. Reading `a` whole (2,000 rows) would leave 500
    // for `b` and `c`, so nothing is read; a cap of 10,000 fits `a` and
    // `b` read whole beside `c`'s ~780.
    let engine = engine();
    for (cap, scanned) in [(2_500, 0), (10_000, 5_000)] {
        let before = engine.metrics().snapshot();
        let answer = query(&engine, MIXED)
            .max_samples(cap)
            .execute(&mut StdRng::seed_from_u64(7))
            .unwrap();
        let after = engine.metrics().snapshot();
        assert_eq!(
            after.rows_scanned - before.rows_scanned,
            scanned,
            "cap {cap}"
        );
        assert_eq!(answer.outcome, StepOutcome::Converged, "cap {cap}");
        assert!(!answer.result.truncated, "cap {cap}");
        assert!(answer.result.total_samples() <= cap, "cap {cap}");
    }
}

#[test]
fn a_capped_session_samples_instead_of_reading_past_its_cap() {
    // The wire workloads' shape: 1M rows in 14 groups of ~71,400, read
    // whole at 5 % when uncapped. Sampled, they could need 14 × ~28,500
    // samples, more than the server's default per-client cap of 200,000
    // already, so no group is read whole (tied means: they sample up to
    // the cap).
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    let labels: Vec<String> = (0..14).map(|g| format!("g{g:02}")).collect();
    for i in 0..1_000_000u32 {
        let label = labels[(i % 14) as usize].clone();
        b.push_row(vec![Value::Str(label), Value::Float(f64::from(i % 97))]);
    }
    let engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
    let before = engine.metrics().snapshot();
    let answer = VizQuery::new(&engine)
        .group_by("g")
        .avg("v")
        .bound(100.0)
        .resolution_pct(5.0)
        .samples_per_round(512)
        .max_samples(200_000)
        .execute(&mut StdRng::seed_from_u64(6))
        .unwrap();
    let after = engine.metrics().snapshot();
    assert_eq!(
        after.rows_scanned, before.rows_scanned,
        "nothing read whole"
    );
    assert!(after.random_samples > before.random_samples);
    assert!(answer.result.truncated);
    // The cap is checked between rounds: at most one round of 14 × 512
    // past it.
    assert!(answer.result.total_samples() <= 200_000 + 14 * 512);
}
