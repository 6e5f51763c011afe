//! Run results: the final [`RunResult`] of a run and the streamed
//! [`PartialEmission`] records produced by the partial-result variant.

/// One streamed partial result: a group's estimate frozen at the moment
/// the algorithm deactivated it (§6.2.2). Produced by
/// [`crate::extensions::IFocusPartial`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartialEmission {
    /// Group index in the input order.
    pub group: usize,
    /// Group label.
    pub label: String,
    /// The frozen estimate `ν_i`.
    pub estimate: f64,
    /// Round at which the group deactivated (`m_i`).
    pub round: u64,
    /// Cumulative samples across all groups at emission time.
    pub total_samples_so_far: u64,
}

/// The outcome of one algorithm run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Group labels, in input order.
    pub labels: Vec<String>,
    /// Final estimates `ν_1..ν_k` (for AVG algorithms these are means; the
    /// SUM variants return sums).
    pub estimates: Vec<f64>,
    /// Values read from each group (`m_i`), sampled or scanned whole.
    pub samples_per_group: Vec<u64>,
    /// Rounds executed (the final `m`; when every group was read whole,
    /// the most rows one group's pass read).
    pub rounds: u64,
    /// Whether the run hit [`crate::AlgoConfig::max_rounds`] before
    /// terminating naturally. Results are still the best-effort estimates.
    pub truncated: bool,
}

impl RunResult {
    /// Total sample complexity `C = Σ m_i`.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.samples_per_group.iter().sum()
    }

    /// Group indices sorted by ascending estimate (the display order of the
    /// resulting bar chart).
    #[must_use]
    pub fn order_by_estimate(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.estimates.len()).collect();
        idx.sort_by(|&a, &b| self.estimates[a].total_cmp(&self.estimates[b]));
        idx
    }

    /// `(label, estimate)` pairs sorted by ascending estimate.
    #[must_use]
    pub fn ranked(&self) -> Vec<(&str, f64)> {
        self.order_by_estimate()
            .into_iter()
            .map(|i| (self.labels[i].as_str(), self.estimates[i]))
            .collect()
    }

    /// Fraction of the dataset sampled, given the total population size,
    /// clamped to at most 1.0: with-replacement sampling on small groups
    /// can draw more samples than there are rows, but "fraction of the
    /// data touched" can never meaningfully exceed everything.
    #[must_use]
    pub fn fraction_sampled(&self, total_population: u64) -> f64 {
        if total_population == 0 {
            return 0.0;
        }
        (self.total_samples() as f64 / total_population as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            labels: vec!["AA".into(), "JB".into(), "UA".into()],
            estimates: vec![30.0, 15.0, 85.0],
            samples_per_group: vec![100, 250, 50],
            rounds: 250,
            truncated: false,
        }
    }

    #[test]
    fn totals() {
        let r = result();
        assert_eq!(r.total_samples(), 400);
        assert!((r.fraction_sampled(4000) - 0.1).abs() < 1e-12);
        assert_eq!(r.fraction_sampled(0), 0.0);
    }

    #[test]
    fn ranking() {
        let r = result();
        assert_eq!(r.order_by_estimate(), vec![1, 0, 2]);
        assert_eq!(r.ranked(), vec![("JB", 15.0), ("AA", 30.0), ("UA", 85.0)]);
    }
}
