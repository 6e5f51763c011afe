//! §6.3.6 — no index on the group-by attribute (Problem 9).
//!
//! Without an index we cannot direct samples at specific groups; all we can
//! do is draw uniformly random *rows* of the relation and observe which
//! group each belongs to. Per-group sample counts `m_i` therefore grow in
//! proportion to group sizes rather than need. The anytime confidence bound
//! still applies per group at its own `m_i` (each group's observations are
//! i.i.d. uniform members conditioned on the count), so the run terminates
//! — with the full `1 − δ` guarantee — once every pair of intervals
//! `[ν_i ± ε(m_i)]` is disjoint, or once every active ε has dropped below
//! the resolution cut-off.
//!
//! As the paper notes, when groups are roughly equal-sized this behaves
//! like ROUNDROBIN (no focusing is possible), yet still samples far less
//! than a full scan.
//!
//! Outside `rapidviz_core::focus`'s one round: rows arrive from a [`StreamSource`]
//! (no NEEDLETAIL index, no per-group draw to direct), every group sits at
//! its own `m_i`. Library-only §6.3.6 reference, eager `run`.

use rand::RngCore;
use rapidviz_core::{AlgoConfig, FixpointScratch, RunResult};
use rapidviz_stats::{Interval, RunningMean};

/// A relation we can only sample whole rows from: each draw yields
/// `(group index, measure value)`.
pub trait StreamSource {
    /// Number of groups `k`.
    fn group_count(&self) -> usize;

    /// Group labels.
    fn labels(&self) -> Vec<String>;

    /// Total number of rows.
    fn total_rows(&self) -> u64;

    /// Draws one uniformly random row (with replacement).
    fn sample_row(&mut self, rng: &mut dyn RngCore) -> (usize, f64);
}

/// A [`StreamSource`] over materialized per-group vectors.
#[derive(Debug, Clone)]
pub struct VecStream {
    labels: Vec<String>,
    groups: Vec<Vec<f64>>,
    /// Cumulative row counts for weighted group choice.
    cumulative: Vec<u64>,
    total: u64,
}

impl VecStream {
    /// Creates the stream.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups or any group is empty.
    #[must_use]
    pub fn new(labeled_groups: Vec<(String, Vec<f64>)>) -> Self {
        assert!(!labeled_groups.is_empty(), "need at least one group");
        let mut labels = Vec::with_capacity(labeled_groups.len());
        let mut groups = Vec::with_capacity(labeled_groups.len());
        let mut cumulative = Vec::with_capacity(labeled_groups.len());
        let mut total = 0u64;
        for (label, values) in labeled_groups {
            assert!(!values.is_empty(), "group {label:?} is empty");
            total += values.len() as u64;
            labels.push(label);
            groups.push(values);
            cumulative.push(total);
        }
        Self {
            labels,
            groups,
            cumulative,
            total,
        }
    }

    /// True group means (evaluation only).
    #[must_use]
    pub fn true_means(&self) -> Vec<f64> {
        self.groups
            .iter()
            .map(|g| g.iter().sum::<f64>() / g.len() as f64)
            .collect()
    }
}

impl StreamSource for VecStream {
    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn labels(&self) -> Vec<String> {
        self.labels.clone()
    }

    fn total_rows(&self) -> u64 {
        self.total
    }

    fn sample_row(&mut self, rng: &mut dyn RngCore) -> (usize, f64) {
        use rand::Rng;
        let row = rng.gen_range(0..self.total);
        let gi = self.cumulative.partition_point(|&c| c <= row);
        let within = row - (if gi == 0 { 0 } else { self.cumulative[gi - 1] });
        (gi, self.groups[gi][within as usize])
    }
}

/// The no-index ordering algorithm (Problem 9).
#[derive(Debug, Clone)]
pub struct NoIndexSampler {
    config: AlgoConfig,
}

impl NoIndexSampler {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(config: AlgoConfig) -> Self {
        Self { config }
    }

    /// Runs over the stream. `rounds` in the result counts drawn rows.
    pub fn run<S: StreamSource>(&self, stream: &mut S, rng: &mut dyn RngCore) -> RunResult {
        let k = stream.group_count();
        assert!(k > 0, "need at least one group");
        let schedule = self.config.schedule(k);
        let n_total = stream.total_rows();
        let labels = stream.labels();
        let mut estimates = vec![RunningMean::new(); k];
        let mut rows_drawn = 0u64;
        let mut truncated = false;
        let resolution_eps = self.config.resolution_epsilon();
        // Check termination every `check_stride` rows: each check is O(k log k).
        let check_stride = (k as u64).max(16);
        let mut fix = FixpointScratch::default();

        loop {
            // Draw a batch of rows.
            for _ in 0..check_stride {
                let (gi, value) = stream.sample_row(rng);
                estimates[gi].push(value);
            }
            rows_drawn += check_stride;

            // Groups not yet observed keep ε = c (vacuous interval spanning
            // the whole range).
            let eps_of = |i: usize| {
                let m = estimates[i].count();
                if m == 0 {
                    self.config.c
                } else {
                    // No-index sampling is with replacement over the whole
                    // relation; per-group draws are i.i.d. group members.
                    schedule.half_width(m, n_total)
                }
            };
            if let Some(thresh) = resolution_eps {
                if (0..k).all(|i| eps_of(i) < thresh) {
                    break;
                }
            }
            fix.build_full(k, |i| Interval::centered(estimates[i].mean(), eps_of(i)));
            if (0..k).all(|i| !fix.full_overlaps_others(i)) {
                break;
            }
            if rows_drawn >= self.config.max_rounds {
                truncated = true;
                break;
            }
        }
        RunResult {
            labels,
            estimates: estimates.iter().map(RunningMean::mean).collect(),
            samples_per_group: (0..k).map(|i| estimates[i].count()).collect(),
            rounds: rows_drawn,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rapidviz_core::is_correctly_ordered;

    fn stream(means: &[f64], n: usize, seed: u64) -> VecStream {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        VecStream::new(
            means
                .iter()
                .enumerate()
                .map(|(i, &mu)| {
                    let values: Vec<f64> = (0..n)
                        .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                        .collect();
                    (format!("g{i}"), values)
                })
                .collect(),
        )
    }

    #[test]
    fn orders_correctly_without_an_index() {
        let mut s = stream(&[20.0, 50.0, 80.0], 50_000, 140);
        let truths = s.true_means();
        let algo = NoIndexSampler::new(AlgoConfig::new(100.0, 0.05));
        let mut rng = rand::rngs::StdRng::seed_from_u64(141);
        let result = algo.run(&mut s, &mut rng);
        assert!(is_correctly_ordered(&result.estimates, &truths));
        assert!(!result.truncated);
    }

    #[test]
    fn per_group_counts_follow_sizes() {
        // 80% of rows in group 0: it gets ~4x the samples of group 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(142);
        let big: Vec<f64> = (0..80_000)
            .map(|_| if rng.gen_bool(0.2) { 100.0 } else { 0.0 })
            .collect();
        let small: Vec<f64> = (0..20_000)
            .map(|_| if rng.gen_bool(0.8) { 100.0 } else { 0.0 })
            .collect();
        let mut s = VecStream::new(vec![("big".into(), big), ("small".into(), small)]);
        let algo = NoIndexSampler::new(AlgoConfig::new(100.0, 0.05));
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(143);
        let result = algo.run(&mut s, &mut run_rng);
        let ratio = result.samples_per_group[0] as f64 / result.samples_per_group[1] as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "sample ratio should track the 4:1 size ratio, got {ratio}"
        );
    }

    #[test]
    fn resolution_bounds_total_draws() {
        let mut s = stream(&[40.0, 41.0], 200_000, 144);
        let algo = NoIndexSampler::new(AlgoConfig::new(100.0, 0.05).with_resolution(5.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(145);
        let result = algo.run(&mut s, &mut rng);
        assert!(!result.truncated);
        assert!(
            result.rounds < 400_000,
            "resolution must bound draws, took {}",
            result.rounds
        );
    }

    #[test]
    fn stream_sampling_is_weighted_uniform() {
        let mut s = VecStream::new(vec![
            ("a".into(), vec![1.0; 300]),
            ("b".into(), vec![2.0; 700]),
        ]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(146);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            let (gi, v) = s.sample_row(&mut rng);
            counts[gi] += 1;
            assert_eq!(v, if gi == 0 { 1.0 } else { 2.0 });
        }
        let frac = f64::from(counts[0]) / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "group share {frac}");
    }
}
