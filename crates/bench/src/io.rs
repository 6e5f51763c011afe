//! Deterministic I/O + CPU cost model.
//!
//! The paper's wall-clock experiments (Figures 3b, 4a–c; Table 3) ran on a
//! specific server: spinning disks read sequentially at ~800 MB/s through
//! 1 MB Direct-I/O blocks, a single core performs ~10 M hash-map updates per
//! second, and the bitmap index retrieves one matching tuple per random
//! block read. We do not have that hardware, so [`DiskModel`] substitutes
//! for it and reproduces those figures as a *deterministic cost model*: the
//! experiment harness feeds it the exact operation counts
//! (`rapidviz_needletail::MetricsSnapshot`-style) and it returns I/O and CPU
//! seconds.
//!
//! Because every §5 time series is a monotone function of sample counts and
//! bytes scanned, the model preserves the *shape* of every figure (who wins,
//! crossovers, constants-vs-linear growth) even though absolute seconds
//! differ from the authors' testbed. The defaults are calibrated to the
//! constants the paper states or implies (§5.2): 800 MB/s sequential
//! bandwidth, 1e-7 s CPU per scanned record, and ~2 µs per random sample
//! (IFOCUS touches ~2M samples in 3.9 s at 10^9 records).

/// Cost-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Direct-I/O block size in bytes (paper: 1 MB).
    pub block_bytes: u64,
    /// Sequential read bandwidth in bytes/second (paper: ~800 MB/s).
    pub seq_bandwidth: f64,
    /// I/O seconds charged per random tuple retrieval (one block fetch
    /// through the hierarchical bitmap index).
    pub random_io_seconds_per_sample: f64,
    /// CPU seconds per sequentially scanned record (hash probe + update;
    /// paper: ~10 M updates/s on one thread).
    pub cpu_seconds_per_scan_record: f64,
    /// CPU seconds per sampled record (running-mean update + interval
    /// bookkeeping).
    pub cpu_seconds_per_sample: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl DiskModel {
    /// Defaults calibrated to the constants reported in §5.2.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            block_bytes: 1 << 20,
            seq_bandwidth: 800.0 * (1 << 20) as f64,
            random_io_seconds_per_sample: 1.5e-6,
            cpu_seconds_per_scan_record: 1.0e-7,
            cpu_seconds_per_sample: 0.5e-6,
        }
    }

    /// Cost of a full sequential scan over `total_bytes` containing
    /// `total_records` records.
    #[must_use]
    pub fn scan_cost(&self, total_bytes: u64, total_records: u64) -> CostBreakdown {
        let blocks = total_bytes.div_ceil(self.block_bytes).max(1);
        CostBreakdown {
            io_seconds: (blocks * self.block_bytes) as f64 / self.seq_bandwidth,
            cpu_seconds: total_records as f64 * self.cpu_seconds_per_scan_record,
        }
    }

    /// Cost of `samples` random tuple retrievals plus their per-sample CPU.
    #[must_use]
    pub fn sampling_cost(&self, samples: u64) -> CostBreakdown {
        CostBreakdown {
            io_seconds: samples as f64 * self.random_io_seconds_per_sample,
            cpu_seconds: samples as f64 * self.cpu_seconds_per_sample,
        }
    }
}

/// I/O and CPU seconds for an operation, reported separately exactly as
/// Figures 4b/4c do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Seconds spent on (modelled) disk I/O.
    pub io_seconds: f64,
    /// Seconds spent on (modelled) CPU work.
    pub cpu_seconds: f64,
}

impl CostBreakdown {
    /// Total seconds (the model is single-threaded, like the paper's runs,
    /// so I/O and CPU add).
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.io_seconds + self.cpu_seconds
    }
}

impl std::ops::Add for CostBreakdown {
    type Output = CostBreakdown;

    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            io_seconds: self.io_seconds + rhs.io_seconds,
            cpu_seconds: self.cpu_seconds + rhs.cpu_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_is_linear_in_bytes() {
        let m = DiskModel::paper_default();
        let c1 = m.scan_cost(8 << 30, 1_000_000_000);
        let c10 = m.scan_cost(80 << 30, 10_000_000_000);
        assert!((c10.io_seconds / c1.io_seconds - 10.0).abs() < 0.01);
        assert!((c10.cpu_seconds / c1.cpu_seconds - 10.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_scan_seconds() {
        // 8 GB at 800 MB/s ≈ 10.2 s of I/O; 1e9 records at 1e-7 s = 100 s CPU.
        let m = DiskModel::paper_default();
        let c = m.scan_cost(8 << 30, 1_000_000_000);
        assert!((c.io_seconds - 10.24).abs() < 0.1, "io {c:?}");
        assert!((c.cpu_seconds - 100.0).abs() < 1.0, "cpu {c:?}");
    }

    #[test]
    fn sampling_linear_in_samples() {
        let m = DiskModel::paper_default();
        let c = m.sampling_cost(2_000_000);
        assert!((c.io_seconds - 3.0).abs() < 0.01);
        assert!((c.cpu_seconds - 1.0).abs() < 0.01);
        assert!((c.total_seconds() - 4.0).abs() < 0.02);
    }

    #[test]
    fn sampling_beats_scan_at_paper_scale() {
        // The paper's headline: at 10^9 records IFOCUS (≈2M samples) is an
        // order of magnitude faster than SCAN.
        let m = DiskModel::paper_default();
        let ifocus = m.sampling_cost(2_000_000).total_seconds();
        let scan = m.scan_cost(8 << 30, 1_000_000_000).total_seconds();
        assert!(scan / ifocus > 10.0, "scan {scan}s vs ifocus {ifocus}s");
    }

    #[test]
    fn scan_rounds_up_to_block() {
        let m = DiskModel::paper_default();
        let tiny = m.scan_cost(10, 1);
        // Even 10 bytes costs one full 1 MB block.
        assert!((tiny.io_seconds - (1 << 20) as f64 / m.seq_bandwidth).abs() < 1e-12);
    }

    #[test]
    fn costs_add() {
        let a = CostBreakdown {
            io_seconds: 1.0,
            cpu_seconds: 2.0,
        };
        let b = CostBreakdown {
            io_seconds: 0.5,
            cpu_seconds: 0.25,
        };
        let c = a + b;
        assert_eq!(c.io_seconds, 1.5);
        assert_eq!(c.cpu_seconds, 2.25);
        assert_eq!(c.total_seconds(), 3.75);
    }
}
