//! Bridges between the storage layer and the algorithm layer.
//!
//! `rapidviz-core` is storage-agnostic (it samples through the
//! [`GroupSource`] trait) and `rapidviz-needletail` knows nothing about the
//! algorithms; [`NeedletailGroup`] connects them, turning an engine
//! [`GroupHandle`] into a `GroupSource` the IFOCUS family can run on.

use rand::RngCore;
use rapidviz_core::{GroupSource, SamplingMode};
use rapidviz_needletail::GroupHandle;

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
