//! A wide round split across threads draws what the one-thread loop draws.
//!
//! `NeedletailGroup::draw_round` lends the groups of a wide keyed round to
//! the process's draw helpers. `InOrder` wraps the same group but keeps
//! the trait's default `draw_round`, the in-order loop, so stepping both
//! over the same table compares the split rounds with the sequential ones
//! bit for bit. A fault injector that never fails (or wraps
//! `SeededFaults`) counts the rows read on threads other than the stepping
//! one, and can hold the stepping thread's next read until a helper has
//! read a row, so the first split round of a run is drawn on two threads
//! for certain. On a one-core host (or under `taskset -c 0`) no helper
//! starts: nothing is held, and no helper may draw.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::core::extensions::IFocusSum1;
use rapidviz::core::{
    AlgoConfig, AlgorithmStepper, GroupSource, IFocus, SamplingMode, Snapshot, StepOutcome,
};
use rapidviz::needletail::codec::fnv1a64;
use rapidviz::needletail::{
    ColumnDef, DataType, FaultInjector, FaultSite, NeedleTail, Predicate, Schema, SeededFaults,
    TableBuilder,
};
use rapidviz::NeedletailGroup;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// The tests here run one at a time: a round only splits while no other
/// round in the process is being drawn.
static SERIAL: Mutex<()> = Mutex::new(());

/// Batch size of every round: 14 groups × 256 draws cross the split
/// threshold until the groups start to deactivate.
const SPR: u64 = 256;

/// Rows of the small group, which runs dry in its third batch.
const SMALL: u64 = 600;

/// A `NeedletailGroup` that takes `GroupSource`'s default `draw_round`.
struct InOrder(NeedletailGroup);

impl GroupSource for InOrder {
    fn label(&self) -> String {
        self.0.label()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn sample(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64> {
        self.0.sample(rng, mode)
    }

    fn draw_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        mode: SamplingMode,
        out: &mut Vec<f64>,
    ) -> u64 {
        self.0.draw_batch(n, rng, mode, out)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Counts row reads made off the stepping thread; fails the rows `faults`
/// fails; while `armed`, panics at the first read off the stepping thread;
/// and holds the stepping thread's reads until `off_thread` reaches
/// `hold_until` (0: no hold), for at most ten seconds.
#[derive(Debug)]
struct Watch {
    stepping: ThreadId,
    faults: Option<SeededFaults>,
    armed: AtomicBool,
    off_thread: AtomicU64,
    hold_until: AtomicU64,
}

impl Watch {
    fn new(faults: Option<SeededFaults>) -> Arc<Self> {
        Arc::new(Self {
            stepping: thread::current().id(),
            faults,
            armed: AtomicBool::new(false),
            off_thread: AtomicU64::new(0),
            hold_until: AtomicU64::new(0),
        })
    }

    fn off_thread(&self) -> u64 {
        self.off_thread.load(Ordering::SeqCst)
    }

    /// The stepping thread's next read waits for a helper's read, when
    /// there can be helpers.
    fn hold(&self) {
        if cores() > 1 {
            self.hold_until
                .store(self.off_thread() + 1, Ordering::SeqCst);
        }
    }
}

impl FaultInjector for Watch {
    fn fails(&self, site: FaultSite, row: u64) -> bool {
        if thread::current().id() != self.stepping {
            self.off_thread.fetch_add(1, Ordering::SeqCst);
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("planted draw panic at row {row}");
            }
        } else {
            let until = self.hold_until.swap(0, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.off_thread() < until && Instant::now() < deadline {
                thread::yield_now();
            }
        }
        self.faults.is_some_and(|f| f.fails(site, row))
    }
}

/// Whether this process may start draw helpers.
fn cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// 14 groups, 13 of 20,000 rows with means 20, 24, …, 68 and one of
/// [`SMALL`] rows with mean 70, close enough to 68 that it is still
/// drawing when it runs dry. The group column is the clustered one, so
/// every group is a row range.
fn engine(watch: Arc<Watch>) -> NeedleTail {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(40);
    for g in 0..14u64 {
        let (rows, mu) = if g == 13 {
            (SMALL, 70.0)
        } else {
            (20_000, 20.0 + 4.0 * g as f64)
        };
        for _ in 0..rows {
            let v = if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 };
            b.push_row(vec![format!("g{g:02}").into(), v.into()]);
        }
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
    engine.set_fault_injector(watch);
    engine
}

fn groups(engine: &NeedleTail) -> Vec<NeedletailGroup> {
    let handles = engine.group_handles("g", "v", &Predicate::True).unwrap();
    handles.into_iter().map(NeedletailGroup::new).collect()
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

/// One run to its end: every round's digest and samples per group, the
/// RNG's state after it, and the engine's sample and faulted-read counts
/// it added.
struct Run {
    digests: Vec<u64>,
    samples: Vec<Vec<u64>>,
    rng: [u64; 4],
    charged: (u64, u64),
}

/// AVG (`sum` false) or SUM over `groups`; `hold` runs after the bootstrap
/// draws, all of which are on the stepping thread, and before round 1.
fn run<G: GroupSource>(
    engine: &NeedleTail,
    sum: bool,
    groups: &mut [G],
    seed: u64,
    hold: impl Fn(),
) -> Run {
    let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(SPR);
    let mut rng = StdRng::seed_from_u64(seed);
    let before = engine.metrics().snapshot();
    let (digests, samples) = if sum {
        let stepper = IFocusSum1::new(config).start(groups, &mut rng);
        hold();
        rounds(stepper, groups, &mut rng)
    } else {
        let stepper = IFocus::new(config).start(groups, &mut rng);
        hold();
        rounds(stepper, groups, &mut rng)
    };
    let after = engine.metrics().snapshot();
    let charged = (
        after.random_samples - before.random_samples,
        after.faulted_reads - before.faulted_reads,
    );
    Run {
        digests,
        samples,
        rng: rng.state(),
        charged,
    }
}

/// Steps `stepper` to its end: every round's digest and samples per group.
fn rounds<S: AlgorithmStepper, G: GroupSource>(
    mut stepper: S,
    groups: &mut [G],
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

/// Steps `NeedletailGroup`s, their first wide round held until a helper
/// draws, and their `InOrder` twins over `engine`; asserts every round
/// equal, and that a helper drew (none on one core). Returns the split run.
fn assert_split_matches_in_order(
    engine: &NeedleTail,
    watch: &Watch,
    sum: bool,
    seed: u64,
    case: &str,
) -> Run {
    let before = watch.off_thread();
    let split = run(engine, sum, &mut groups(engine), seed, || watch.hold());
    let helped = watch.off_thread() - before;
    if cores() > 1 {
        assert!(helped > 0, "{case}: no draw ran on a helper");
    } else {
        assert_eq!(helped, 0, "{case}: a helper drew on one core");
    }
    let mut twins: Vec<InOrder> = groups(engine).into_iter().map(InOrder).collect();
    let in_order = run(engine, sum, &mut twins, seed, || {});
    assert_eq!(
        split.digests.len(),
        in_order.digests.len(),
        "{case}: rounds"
    );
    for (round, (a, b)) in split.digests.iter().zip(&in_order.digests).enumerate() {
        assert_eq!(a, b, "{case}: round {round} differs");
    }
    assert_eq!(split.rng, in_order.rng, "{case}: RNG words consumed");
    assert_eq!(split.charged, in_order.charged, "{case}: metrics");
    split
}

/// AVG and SUM, fault-free and with 5 % of reads dropped: every round of a
/// split run equals the in-order run's, and the fault-free AVG run's small
/// group runs dry in a round wide enough to split.
#[test]
fn split_rounds_draw_what_the_in_order_loop_draws() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for faults in [None, Some(SeededFaults::new(7, 0.05))] {
        let watch = Watch::new(faults);
        let engine = engine(Arc::clone(&watch));
        for sum in [false, true] {
            let case = format!("sum {sum}, faults {}", faults.is_some());
            let split = assert_split_matches_in_order(&engine, &watch, sum, 41, &case);
            if !sum && faults.is_none() {
                // The round the small group ran dry in (in sum space it
                // separates at once), and what that round drew.
                let dry = split
                    .samples
                    .iter()
                    .position(|s| s[13] == SMALL)
                    .expect("the small group runs dry");
                let drawn = |r: usize| split.samples[r].iter().sum::<u64>();
                assert!(dry > 0, "{case}");
                assert!(drawn(dry) - drawn(dry - 1) > 12 * SPR, "{case}: narrow");
            }
        }
    }
}

/// A draw that panics on a helper reaches the stepping thread as a panic,
/// after every group is home, and the helpers survive it: the next wide
/// rounds are split again and still equal the in-order loop's.
#[test]
fn a_panic_on_a_helper_is_raised_on_the_stepping_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let watch = Watch::new(None);
    let engine = engine(Arc::clone(&watch));
    let mut groups = groups(&engine);
    let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(SPR);
    let mut rng = StdRng::seed_from_u64(42);
    let mut stepper = IFocus::new(config).start(&mut groups, &mut rng);
    // The stepping thread's first read waits for the helper's, which panics.
    watch.armed.store(true, Ordering::SeqCst);
    watch.hold();
    let step = panic::catch_unwind(AssertUnwindSafe(|| stepper.step(&mut groups, &mut rng)));
    if cores() == 1 {
        assert!(step.unwrap().is_running(), "no helper, so nothing panics");
        return;
    }
    let payload = step.expect_err("the helper's panic reaches the stepping thread");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.starts_with("planted draw panic"), "{message}");
    // Every group came home, in its place.
    let labels: Vec<String> = groups.iter().map(GroupSource::label).collect();
    let expected: Vec<String> = (0..14).map(|g| format!("g{g:02}")).collect();
    assert_eq!(labels, expected);
    assert!(groups.iter().all(|g| g.len() > 0));
    assert_split_matches_in_order(&engine, &watch, false, 43, "after the panic");
}
