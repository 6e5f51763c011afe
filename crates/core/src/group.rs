//! The group abstraction the algorithms sample from.
//!
//! A [`GroupSource`] is "one bar of the chart": it knows its population size
//! `n_i` and can produce random members. The algorithms never see raw
//! storage — NEEDLETAIL handles, materialized vectors, and lazily generated
//! virtual groups (for `10^10`-record sweeps) all implement this trait.

use rand::RngCore;
use rapidviz_stats::SamplingMode;

/// A sampleable group `S_i` of bounded values.
///
/// The `rng` parameter is `dyn` so implementations stay object-safe; rand's
/// blanket `Rng for &mut dyn RngCore` extension keeps call sites ergonomic.
pub trait GroupSource {
    /// Display label for the group (the group-by value).
    fn label(&self) -> String;

    /// Population size `n_i`.
    ///
    /// Used by the without-replacement confidence schedule and as the
    /// exhaustion bound. Virtual groups report their *virtual* size.
    fn len(&self) -> u64;

    /// Whether the group has no members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws one sample.
    ///
    /// * [`SamplingMode::WithReplacement`]: i.i.d. uniform member.
    /// * [`SamplingMode::WithoutReplacement`]: next element of a random
    ///   permutation; `None` once all `n_i` members are drawn. In-memory
    ///   sources shuffle uniformly (incremental Fisher–Yates); the
    ///   NEEDLETAIL adapter draws in a *keyed pseudo-random permutation*
    ///   order (`rapidviz_needletail::sampler`'s module docs state what the
    ///   guarantee assumes of it).
    fn sample(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64>;

    /// Draws up to `n` samples in one call, appending them to `out` in draw
    /// order; returns the number appended (`< n` only when a
    /// without-replacement source runs dry mid-batch, or a storage read
    /// is dropped). Without replacement the batch continues the same
    /// permutation as [`Self::sample`]: for the NEEDLETAIL adapter, the
    /// keyed pseudo-random permutation over ranks `drawn..drawn + n`.
    ///
    /// The default implementation loops [`Self::sample`], so every source
    /// is batch-capable with unchanged semantics. Sources backed by
    /// rank/select storage (e.g. the NEEDLETAIL adapter) override this to
    /// draw the whole batch in one pass — the hot-path optimization the
    /// per-round draw loops rely on. A round calls it once per drawing
    /// group, in group order, on the stepping thread.
    /// Overrides **must** consume the RNG identically to `n` single draws
    /// so that batch size never changes a fixed-seed run's output.
    fn draw_batch(
        &mut self,
        n: u64,
        rng: &mut dyn RngCore,
        mode: SamplingMode,
        out: &mut Vec<f64>,
    ) -> u64 {
        let mut got = 0;
        for _ in 0..n {
            match self.sample(rng, mode) {
                Some(x) => {
                    out.push(x);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    /// One exact pass over every member in storage order, as `(n, sum)`:
    /// the members read (fewer than [`Self::len`] when reads are dropped)
    /// and their sum, folded from `0.0`. `None` (the default): the source
    /// has no such pass, so it can only be sampled.
    fn read_exact(&mut self) -> Option<(u64, f64)> {
        None
    }

    /// The true mean `µ_i`, when the source knows it (synthetic data,
    /// materialized groups). Only used for *evaluation* — algorithms must
    /// never consult it.
    fn true_mean(&self) -> Option<f64> {
        None
    }

    /// Resets any without-replacement state, starting a fresh permutation.
    fn reset(&mut self);
}

/// A group backed by a materialized `Vec<f64>` — the simplest
/// [`GroupSource`], used by tests, examples, and small benchmarks.
#[derive(Debug, Clone)]
pub struct VecGroup {
    label: String,
    values: Vec<f64>,
    true_mean: f64,
    /// Without-replacement cursor: `values[..drawn]` have been produced.
    drawn: usize,
}

impl VecGroup {
    /// Creates a group from its member values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a group must have at least one member");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "group values must not be NaN"
        );
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        Self {
            label: label.into(),
            values,
            true_mean,
            drawn: 0,
        }
    }

    /// The member values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl GroupSource for VecGroup {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn len(&self) -> u64 {
        self.values.len() as u64
    }

    fn sample(&mut self, rng: &mut dyn RngCore, mode: SamplingMode) -> Option<f64> {
        use rand::Rng;
        match mode {
            SamplingMode::WithReplacement => {
                let i = rng.gen_range(0..self.values.len());
                Some(self.values[i])
            }
            SamplingMode::WithoutReplacement => {
                if self.drawn == self.values.len() {
                    return None;
                }
                // Incremental Fisher–Yates: uniformly pick among the
                // not-yet-drawn suffix and swap it into position `drawn`.
                let j = rng.gen_range(self.drawn..self.values.len());
                self.values.swap(self.drawn, j);
                let v = self.values[self.drawn];
                self.drawn += 1;
                Some(v)
            }
        }
    }

    fn true_mean(&self) -> Option<f64> {
        Some(self.true_mean)
    }

    fn reset(&mut self) {
        self.drawn = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_group_true_mean() {
        let g = VecGroup::new("g", vec![1.0, 2.0, 3.0]);
        assert_eq!(g.true_mean(), Some(2.0));
        assert_eq!(g.len(), 3);
        assert_eq!(g.label(), "g");
        assert!(!g.is_empty());
    }

    #[test]
    fn without_replacement_exhausts_exactly() {
        let mut g = VecGroup::new("g", vec![1.0, 2.0, 3.0, 4.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        while let Some(v) = g.sample(&mut rng, SamplingMode::WithoutReplacement) {
            out.push(v);
        }
        out.sort_by(f64::total_cmp);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn reset_allows_resampling() {
        let mut g = VecGroup::new("g", vec![1.0, 2.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = g.sample(&mut rng, SamplingMode::WithoutReplacement);
        let _ = g.sample(&mut rng, SamplingMode::WithoutReplacement);
        assert!(g
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_none());
        g.reset();
        assert!(g
            .sample(&mut rng, SamplingMode::WithoutReplacement)
            .is_some());
    }

    #[test]
    fn with_replacement_never_exhausts() {
        let mut g = VecGroup::new("g", vec![5.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng, SamplingMode::WithReplacement), Some(5.0));
        }
    }

    #[test]
    fn with_replacement_mean_converges() {
        let mut g = VecGroup::new("g", vec![0.0, 10.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += g.sample(&mut rng, SamplingMode::WithReplacement).unwrap();
        }
        let mean = sum / f64::from(n);
        assert!((mean - 5.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn draw_batch_default_matches_repeated_sample() {
        for mode in [
            SamplingMode::WithReplacement,
            SamplingMode::WithoutReplacement,
        ] {
            let values: Vec<f64> = (0..40).map(f64::from).collect();
            let mut g1 = VecGroup::new("g", values.clone());
            let mut g2 = g1.clone();
            let mut rng1 = rand::rngs::StdRng::seed_from_u64(7);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(7);
            let singles: Vec<f64> = (0..25).filter_map(|_| g1.sample(&mut rng1, mode)).collect();
            let mut batched = Vec::new();
            let got = g2.draw_batch(25, &mut rng2, mode, &mut batched);
            assert_eq!(got, 25);
            assert_eq!(batched, singles, "mode {mode:?}");
        }
    }

    #[test]
    fn draw_batch_truncates_at_exhaustion() {
        let mut g = VecGroup::new("g", vec![1.0, 2.0, 3.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut out = Vec::new();
        let got = g.draw_batch(10, &mut rng, SamplingMode::WithoutReplacement, &mut out);
        assert_eq!(got, 3);
        out.sort_by(f64::total_cmp);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        assert_eq!(
            g.draw_batch(5, &mut rng, SamplingMode::WithoutReplacement, &mut out),
            0
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn rejects_empty() {
        let _ = VecGroup::new("g", vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = VecGroup::new("g", vec![f64::NAN]);
    }
}
