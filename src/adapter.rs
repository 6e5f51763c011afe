//! Bridges between the storage layer and the algorithm layer.
//!
//! `rapidviz-core` is storage-agnostic (it samples through the
//! [`GroupSource`] trait) and `rapidviz-needletail` knows nothing about the
//! algorithms; [`NeedletailGroup`] connects them, turning an engine
//! [`GroupHandle`] into a `GroupSource` the IFOCUS family can run on.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rapidviz_core::{GroupSource, SamplingMode};
use rapidviz_needletail::GroupHandle;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Builder;

/// A NEEDLETAIL group handle viewed as an algorithm group source.
#[derive(Debug, Clone)]
pub struct NeedletailGroup {
    handle: GroupHandle,
    true_mean: Option<f64>,
}

impl NeedletailGroup {
    /// Wraps an engine handle. `true_mean()` will report `None`; use
    /// [`NeedletailGroup::with_true_mean`] when evaluation needs the exact
    /// answer.
    #[must_use]
    pub fn new(handle: GroupHandle) -> Self {
        Self {
            handle,
            true_mean: None,
        }
    }

    /// Wraps an engine handle and precomputes the exact group mean (one
    /// full pass over the group — evaluation/testing use only).
    #[must_use]
    pub fn with_true_mean(handle: GroupHandle) -> Self {
        let true_mean = handle.exact_mean();
        Self { handle, true_mean }
    }

    /// The wrapped handle.
    #[must_use]
    pub fn handle(&self) -> &GroupHandle {
        &self.handle
    }
}

impl GroupSource for NeedletailGroup {
    fn label(&self) -> String {
        self.handle.label().to_string()
    }

    fn len(&self) -> u64 {
        self.handle.len()
    }

    fn sample(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64> {
        match mode {
            SamplingMode::WithReplacement => self.handle.sample_with_replacement(rng),
            SamplingMode::WithoutReplacement => self.handle.sample_without_replacement(rng),
        }
    }

    /// Batched draws compute all `n` ranks in one pass; a row range or
    /// position list resolves them in draw order, a bitmap or window in one
    /// sorted `select_many` sweep. RNG consumption matches `n` single
    /// draws, so fixed-seed runs are unchanged by batching.
    fn draw_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        mode: SamplingMode,
        out: &mut Vec<f64>,
    ) -> u64 {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        let got = match mode {
            SamplingMode::WithReplacement => self.handle.sample_batch_with_replacement(n, rng, out),
            SamplingMode::WithoutReplacement => {
                self.handle.sample_batch_without_replacement(n, rng, out)
            }
        };
        got as u64
    }

    /// Splits a wide round across the draw helpers: without replacement,
    /// ≥ 2 groups and `FAN_OUT_MIN_DRAWS` draws, every π_K keyed, and no
    /// other round being drawn in the process (a sharded server that keeps
    /// every core busy draws inline). Otherwise it draws in order.
    fn draw_round(
        groups: &mut [Self],
        picks: &[usize],
        n: u64,
        rng: &mut dyn RngCore,
        mode: SamplingMode,
        outs: &mut [Vec<f64>],
    ) {
        let alone = ROUNDS_IN_FLIGHT.fetch_add(1, Ordering::Relaxed) == 0;
        let _round = InFlight;
        let wide = alone
            && mode == SamplingMode::WithoutReplacement
            && picks.len() >= 2
            && n.saturating_mul(picks.len() as u64) >= FAN_OUT_MIN_DRAWS
            && picks.iter().all(|&i| groups[i].handle.is_keyed());
        if wide && helpers() > 0 {
            return fan_out(groups, picks, n, outs);
        }
        for &i in picks {
            outs[i].clear();
            groups[i].draw_batch(n, rng, mode, &mut outs[i]);
        }
    }

    /// [`GroupHandle::exact`]: one ascending pass, charged as rows scanned.
    fn read_exact(&mut self) -> Option<(u64, f64)> {
        let pass = self.handle.exact();
        Some((pass.delivered, pass.sum))
    }

    fn true_mean(&self) -> Option<f64> {
        self.true_mean
    }

    fn reset(&mut self) {
        self.handle.reset_permutation();
    }
}

/// The fewest draws a round needs before it is split across threads.
/// Measured (release, 2-cpu x86-64, 14 groups of a 4M-row table): a split
/// round of 224–256 draws took 18–36 % longer than in order, one of 512
/// broke even (−23 … +1 %), 1,024 gained up to 20 %, and 3,584 (14 × 256)
/// 27–29 %. `wire_stream` (224 draws a round) stays on one thread.
const FAN_OUT_MIN_DRAWS: u64 = 1_024;

/// The most draw helpers the pool starts, however many cores there are.
const MAX_HELPERS: usize = 7;

/// Rounds of [`NeedletailGroup`]s being drawn in this process right now.
/// `Relaxed`: it publishes no data (the queue has its own lock).
static ROUNDS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Takes a round off [`ROUNDS_IN_FLIGHT`] when dropped, unwinding included.
/// Only a round that entered alone fans out: one at a time uses [`QUEUE`].
struct InFlight;

impl Drop for InFlight {
    fn drop(&mut self) {
        ROUNDS_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The draw helpers, started at the first wide round: one fewer than the
/// cores this process may run on, at most [`MAX_HELPERS`], none on one.
/// Detached, they sleep between rounds; a draw's panic is caught and
/// raised on the stepping thread instead.
fn helpers() -> usize {
    static STARTED: OnceLock<usize> = OnceLock::new();
    *STARTED.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let spawn = |i| Builder::new().name(format!("draw-{i}")).spawn(help);
        let wanted = (cores - 1).min(MAX_HELPERS);
        (0..wanted).filter(|&i| spawn(i).is_ok()).count()
    })
}

/// The groups in transit between a round's stepping thread and the
/// helpers.
static QUEUE: LazyLock<Mutex<Queue>> = LazyLock::new(Mutex::default);
/// Helpers sleep here until groups are lent.
static LENT: Condvar = Condvar::new();
/// The stepping thread sleeps here until claimed groups come back.
static RETURNED: Condvar = Condvar::new();

/// One round's groups in transit. Its vectors keep their capacity from
/// round to round, so a warm hand-off allocates nothing.
#[derive(Default)]
struct Queue {
    /// Lent groups no thread has claimed yet.
    open: Vec<Lent>,
    /// Drawn groups waiting to go home.
    back: Vec<Lent>,
    /// Groups a helper is drawing now.
    claimed: usize,
}

/// A group lent by value, with all its draw needs and the panic it raised.
struct Lent {
    home: usize,
    group: NeedletailGroup,
    n: u64,
    out: Vec<f64>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Lent {
    fn draw(&mut self) {
        let (group, n, out) = (&mut self.group, self.n, &mut self.out);
        out.clear();
        // Never read: a lent group's permutation is keyed, and a keyed
        // batch takes no RNG word.
        let unread = &mut StdRng::seed_from_u64(0);
        let draw = || group.draw_batch(n, unread, SamplingMode::WithoutReplacement, out);
        self.panic = panic::catch_unwind(AssertUnwindSafe(draw)).err();
    }
}

/// A poisoned lock still guards a whole queue: no draw runs under it.
fn lock() -> MutexGuard<'static, Queue> {
    QUEUE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait(sleep: &Condvar, queue: MutexGuard<'static, Queue>) -> MutexGuard<'static, Queue> {
    sleep.wait(queue).unwrap_or_else(PoisonError::into_inner)
}

/// Claims open groups one at a time and draws them until none is open.
/// A helper's claim counts in `claimed` until its group is back.
fn drain(mut queue: MutexGuard<'static, Queue>, helper: bool) -> MutexGuard<'static, Queue> {
    while let Some(mut lent) = queue.open.pop() {
        queue.claimed += usize::from(helper);
        drop(queue);
        lent.draw();
        queue = lock();
        queue.claimed -= usize::from(helper);
        queue.back.push(lent);
    }
    queue
}

/// Lends every picked group to the helpers, leaving a stand-in in its
/// place, and drains the queue beside them: the stepping thread waits only
/// for groups a helper has already claimed. Once every group is home, a
/// panic a draw raised is raised again here.
fn fan_out(groups: &mut [NeedletailGroup], picks: &[usize], n: u64, outs: &mut [Vec<f64>]) {
    let mut queue = lock();
    for &home in picks {
        let stand_in = NeedletailGroup::new(groups[home].handle.stand_in());
        let group = std::mem::replace(&mut groups[home], stand_in);
        let out = std::mem::take(&mut outs[home]);
        queue.open.push(Lent {
            home,
            group,
            n,
            out,
            panic: None,
        });
    }
    LENT.notify_all();
    queue = drain(queue, false);
    while queue.claimed > 0 {
        queue = wait(&RETURNED, queue);
    }
    let mut raised = None;
    for lent in queue.back.drain(..) {
        groups[lent.home] = lent.group;
        outs[lent.home] = lent.out;
        raised = raised.or(lent.panic);
    }
    drop(queue);
    if let Some(payload) = raised {
        panic::resume_unwind(payload);
    }
}

/// A helper's life: drain the queue, wake the stepping thread, sleep.
fn help() {
    let mut queue = lock();
    loop {
        queue = drain(queue, true);
        if queue.claimed == 0 {
            RETURNED.notify_one();
        }
        queue = wait(&LENT, queue);
    }
}

/// Builds [`NeedletailGroup`]s (with exact means precomputed) for every
/// group of a `GROUP BY group_col` / `AVG(agg_col)` query over `engine`,
/// restricted to rows satisfying `predicate`.
///
/// # Errors
///
/// Propagates engine errors (missing columns, unindexed group column).
pub fn query_groups(
    engine: &rapidviz_needletail::NeedleTail,
    group_col: &str,
    agg_col: &str,
    predicate: &rapidviz_needletail::Predicate,
) -> Result<Vec<NeedletailGroup>, rapidviz_needletail::EngineError> {
    Ok(engine
        .group_handles(group_col, agg_col, predicate)?
        .into_iter()
        .map(NeedletailGroup::with_true_mean)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rapidviz_needletail::{ColumnDef, DataType, NeedleTail, Predicate, Schema, TableBuilder};

    fn engine() -> NeedleTail {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for (n, d) in [("AA", 30.0), ("JB", 10.0), ("AA", 50.0), ("JB", 20.0)] {
            b.push_row(vec![n.into(), d.into()]);
        }
        NeedleTail::new(b.finish(), &["name"]).unwrap()
    }

    #[test]
    fn adapter_exposes_group_semantics() {
        let engine = engine();
        let mut groups = query_groups(&engine, "name", "delay", &Predicate::True).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].label(), "AA");
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[0].true_mean(), Some(40.0));
        assert_eq!(groups[1].true_mean(), Some(15.0));
        // Without replacement exhausts and resets.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = groups[0]
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .unwrap();
        let b = groups[0]
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .unwrap();
        assert!((a + b - 80.0).abs() < 1e-12);
        assert!(groups[0]
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_none());
        groups[0].reset();
        assert!(groups[0]
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_some());
    }

    /// The engine's size-estimating handle as an Algorithm 5 source, with
    /// batched draws through one sorted `select_many` sweep.
    struct Sized(rapidviz_needletail::SizedGroupHandle);

    impl rapidviz_core::extensions::SizedGroupSource for Sized {
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
    fn sized_adapter_runs_algorithm_5_end_to_end() {
        use rand::Rng;
        use rapidviz_core::extensions::{IFocusSum2, SizedGroupSource};
        use rapidviz_core::AlgoConfig;

        // Two groups with clearly separated normalized sums:
        // "big" ≈ 0.75·40 = 30, "small" ≈ 0.25·20 = 5.
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("v", DataType::Float),
        ]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(90);
        for i in 0..8_000 {
            let (name, mu) = if i % 4 < 3 {
                ("big", 0.40)
            } else {
                ("small", 0.20)
            };
            let v = if rng.gen_bool(mu) { 100.0 } else { 0.0 };
            b.push_row(vec![name.into(), v.into()]);
        }
        let engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
        let mut groups: Vec<Sized> = engine
            .sized_group_handles("g", "v")
            .unwrap()
            .into_iter()
            .map(Sized)
            .collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].label(), "big");
        let algo = IFocusSum2::new(
            AlgoConfig::new(100.0, 0.05)
                .with_resolution(4.0)
                .with_samples_per_round(16),
        );
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(91);
        let result = algo.run(&mut groups, &mut run_rng);
        assert!(
            result.estimates[0] > result.estimates[1],
            "big line must out-total small: {:?}",
            result.estimates
        );
        assert!((result.estimates[0] - 30.0).abs() < 8.0);
        assert!((result.estimates[1] - 5.0).abs() < 4.0);
        // Batched draws were charged per sample.
        assert_eq!(
            engine.metrics().snapshot().random_samples,
            result.total_samples()
        );
    }

    #[test]
    fn plain_constructor_hides_true_mean() {
        let engine = engine();
        let handles = engine
            .group_handles("name", "delay", &Predicate::True)
            .unwrap();
        let g = NeedletailGroup::new(handles.into_iter().next().unwrap());
        assert_eq!(g.true_mean(), None);
        assert_eq!(g.handle().len(), 2);
    }
}
