//! A simulated block device: the paper's Direct-I/O disk as a data path.
//!
//! The experiments in §5 read 1 MB blocks with Direct I/O (no file-buffer
//! cache). [`SimulatedDisk`] reproduces that contract for *real* data
//! movement, not just counters: a table's measure column is serialized
//! into fixed-size pages, and every access — sequential scan or random
//! row fetch — goes through a single page-read primitive, which counts
//! distinct transfer events exactly the way a Direct-I/O device would
//! (one block per random fetch; `ceil(bytes/block)` for a scan). The
//! [`DiskModel`] then converts the counts into seconds.
//!
//! Pages store `f64` values little-endian, 131 072 per 1 MB page — the
//! same 8-bytes-per-record figure the paper's 8 GB/10^9-row dataset
//! implies.

use crate::io::{CostBreakdown, DiskModel};
use std::sync::atomic::{AtomicU64, Ordering};

/// A read-only simulated block device holding one measure column.
#[derive(Debug)]
pub struct SimulatedDisk {
    /// Raw little-endian pages; the last page may be partially filled.
    pages: Vec<Vec<u8>>,
    values: u64,
    page_bytes: usize,
    sequential_pages: AtomicU64,
    random_pages: AtomicU64,
}

impl SimulatedDisk {
    /// Bytes per stored value.
    pub const VALUE_BYTES: usize = 8;

    /// Serializes `values` onto a device with `page_bytes`-sized pages
    /// (the paper's setting: 1 MB).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a positive multiple of 8.
    #[must_use]
    pub fn new(values: &[f64], page_bytes: usize) -> Self {
        assert!(
            page_bytes >= Self::VALUE_BYTES && page_bytes.is_multiple_of(Self::VALUE_BYTES),
            "page size must be a positive multiple of 8"
        );
        let per_page = page_bytes / Self::VALUE_BYTES;
        let pages = values
            .chunks(per_page)
            .map(|chunk| {
                let mut page = Vec::with_capacity(chunk.len() * Self::VALUE_BYTES);
                for v in chunk {
                    page.extend_from_slice(&v.to_le_bytes());
                }
                page
            })
            .collect();
        Self {
            pages,
            values: values.len() as u64,
            page_bytes,
            sequential_pages: AtomicU64::new(0),
            random_pages: AtomicU64::new(0),
        }
    }

    /// Paper-default 1 MB pages.
    #[must_use]
    pub fn with_paper_pages(values: &[f64]) -> Self {
        Self::new(values, 1 << 20)
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.values
    }

    /// Whether the device is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values == 0
    }

    /// Reads the page holding `row`, charging one transfer of the given
    /// kind, and returns the raw page bytes.
    fn read_page(&self, page: usize, sequential: bool) -> &[u8] {
        if sequential {
            self.sequential_pages.fetch_add(1, Ordering::Relaxed);
        } else {
            self.random_pages.fetch_add(1, Ordering::Relaxed);
        }
        &self.pages[page]
    }

    /// Random access: fetches the value at `row` through a one-page
    /// Direct-I/O read (what the bitmap-index sample path does).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn fetch(&self, row: u64) -> f64 {
        assert!(row < self.values, "row {row} out of range");
        let per_page = (self.page_bytes / Self::VALUE_BYTES) as u64;
        let page = (row / per_page) as usize;
        let offset = ((row % per_page) as usize) * Self::VALUE_BYTES;
        let bytes = self.read_page(page, false);
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[offset..offset + 8]);
        f64::from_le_bytes(buf)
    }

    /// Sequential scan: visits every value in storage order through
    /// page-sized reads, invoking `f` per value (what SCAN does).
    pub fn scan(&self, mut f: impl FnMut(f64)) {
        for page_idx in 0..self.pages.len() {
            let bytes = self.read_page(page_idx, true);
            for chunk in bytes.chunks_exact(8) {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(chunk);
                f(f64::from_le_bytes(buf));
            }
        }
    }

    /// Transfer counters: `(sequential_pages, random_pages)`.
    #[must_use]
    pub fn transfers(&self) -> (u64, u64) {
        (
            self.sequential_pages.load(Ordering::Relaxed),
            self.random_pages.load(Ordering::Relaxed),
        )
    }

    /// Resets the transfer counters.
    pub fn reset_transfers(&self) {
        self.sequential_pages.store(0, Ordering::Relaxed);
        self.random_pages.store(0, Ordering::Relaxed);
    }

    /// Prices the recorded transfers with a cost model: sequential pages
    /// at bandwidth, random pages at the per-sample random-read cost.
    #[must_use]
    pub fn cost(&self, model: &DiskModel) -> CostBreakdown {
        let (seq, rand) = self.transfers();
        CostBreakdown {
            io_seconds: seq as f64 * self.page_bytes as f64 / model.seq_bandwidth
                + rand as f64 * model.random_io_seconds_per_sample,
            cpu_seconds: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(n: usize, page_bytes: usize) -> SimulatedDisk {
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        SimulatedDisk::new(&values, page_bytes)
    }

    #[test]
    fn fetch_roundtrips_values() {
        let d = disk(1000, 64); // 8 values per page
        for row in [0u64, 7, 8, 500, 999] {
            assert_eq!(d.fetch(row), row as f64 * 0.5);
        }
    }

    #[test]
    fn page_count_rounds_up() {
        assert_eq!(disk(16, 64).pages.len(), 2);
        assert_eq!(disk(17, 64).pages.len(), 3);
        assert_eq!(disk(0, 64).pages.len(), 0);
        assert!(disk(0, 64).is_empty());
    }

    #[test]
    fn random_fetches_charge_one_page_each() {
        let d = disk(1000, 64);
        for row in 0..10 {
            let _ = d.fetch(row * 90);
        }
        let (seq, rand) = d.transfers();
        assert_eq!(seq, 0);
        assert_eq!(rand, 10, "each fetch is one Direct-I/O page read");
    }

    #[test]
    fn scan_charges_every_page_once() {
        let d = disk(1000, 64); // 125 pages
        let mut sum = 0.0;
        let mut count = 0u64;
        d.scan(|v| {
            sum += v;
            count += 1;
        });
        assert_eq!(count, 1000);
        assert!((sum - 0.5 * (999.0 * 1000.0) / 2.0).abs() < 1e-9);
        let (seq, rand) = d.transfers();
        assert_eq!(seq, 125);
        assert_eq!(rand, 0);
    }

    #[test]
    fn costs_price_transfers() {
        let d = disk(100_000, 1 << 20); // < 1 page of 1 MB
        d.scan(|_| {});
        let _ = d.fetch(5);
        let model = DiskModel::paper_default();
        let cost = d.cost(&model);
        let expected_seq = (1 << 20) as f64 / model.seq_bandwidth;
        let expected = expected_seq + model.random_io_seconds_per_sample;
        assert!((cost.io_seconds - expected).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counters() {
        let d = disk(100, 64);
        let _ = d.fetch(0);
        d.reset_transfers();
        assert_eq!(d.transfers(), (0, 0));
    }

    #[test]
    fn scan_vs_sampling_crossover_on_real_datapath() {
        // The paper's core economics on the actual byte-moving path: at
        // 10^6 values, fetching 10^4 random rows moves far less "disk
        // time" than scanning everything.
        let values: Vec<f64> = (0..1_000_000).map(|i| f64::from(i % 100)).collect();
        let d = SimulatedDisk::with_paper_pages(&values);
        let model = DiskModel::paper_default();
        d.scan(|_| {});
        let scan_cost = d.cost(&model).io_seconds;
        d.reset_transfers();
        for i in 0..10_000u64 {
            let _ = d.fetch((i * 97) % 1_000_000);
        }
        let sample_cost = d.cost(&model).io_seconds;
        assert!(
            scan_cost < sample_cost * 10.0,
            "scan wins when sampling 1%: {scan_cost} vs {sample_cost}"
        );
        d.reset_transfers();
        for i in 0..100u64 {
            let _ = d.fetch((i * 9973) % 1_000_000);
        }
        let tiny_cost = d.cost(&model).io_seconds;
        assert!(tiny_cost < scan_cost, "sampling 0.01% beats the scan");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fetch_out_of_range() {
        let d = disk(10, 64);
        let _ = d.fetch(10);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_bad_page_size() {
        let _ = SimulatedDisk::new(&[1.0], 10);
    }
}
