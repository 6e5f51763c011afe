//! Fixed-seed golden digests of the raw streams under the draw path: the
//! rows the samplers hand out (single and batched, with and without
//! replacement, with the size estimate) and the positions
//! `Bitmap::select_many` resolves. "Batch equals the single-draw stream" is
//! the only other sampler-level oracle, and it compares the code with
//! itself; these digests pin the streams bit for bit — including how many
//! RNG words each run consumes (the word after the run is folded in) and
//! the permutation state mid-run.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rapidviz::needletail::codec::fnv1a64;
use rapidviz::needletail::{Bitmap, BitmapSampler, RowSet, SizeEstimatingSampler};
use std::sync::Arc;

/// Batch sizes every batched stream is pinned at: a lone draw, a partial
/// `select_many` chunk, several chunks, and the radix-sorted size.
const BATCHES: [usize; 4] = [1, 16, 256, 4096];

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    }
}

/// 150 001 bits = 293 superblocks (the last one partial) in 5 upper-directory
/// blocks: half-full, then 1-in-400, then 40 000 empty bits (a whole upper
/// block without a one), then 1-in-14.
fn dense_positions() -> (Vec<u64>, u64) {
    let len = 150_001u64;
    let mut next = lcg(0x9E37_79B9_7F4A_7C15);
    let positions = (0..len)
        .filter(|&i| match i {
            0..=19_999 => next().is_multiple_of(2),
            20_000..=59_999 => next().is_multiple_of(400),
            60_000..=99_999 => false,
            _ => next().is_multiple_of(14),
        })
        .collect();
    (positions, len)
}

/// Runs of 1–200 ones separated by gaps of 1–3 000 zeros: the shape of a
/// group-by column clustered by another column.
fn run_positions() -> (Vec<u64>, u64) {
    let len = 500_000u64;
    let mut next = lcg(0xD1B5_4A32_D192_ED03);
    let mut positions = Vec::new();
    let mut at = 0u64;
    loop {
        at += 1 + next() % 3_000;
        let run = 1 + next() % 200;
        if at + run >= len {
            return (positions, len);
        }
        positions.extend(at..at + run);
        at += run;
    }
}

/// The three eligible-row shapes a sampler draws from.
fn row_sets() -> [RowSet; 3] {
    let (dense, dense_len) = dense_positions();
    let (runs, runs_len) = run_positions();
    let view = dense.iter().copied().step_by(3).collect();
    [
        RowSet::from_bitmap(Bitmap::from_sorted_positions(&dense, dense_len)),
        RowSet::from_bitmap(Bitmap::from_sorted_positions(&runs, runs_len)),
        RowSet::Positions {
            positions: Arc::new(view),
            universe: dense_len,
        },
    ]
}

#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.0.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Folds the next RNG word in — two runs only digest alike if they
    /// consumed the generator alike — and finishes.
    fn finish(mut self, rng: &mut StdRng) -> u64 {
        self.words(&[rng.next_u64()]);
        fnv1a64(&self.0)
    }
}

/// Draws `rows` to exhaustion: `batch` rows through the batch call, then
/// `singles` rows one at a time, repeated.
fn wor_stream(rows: &RowSet, seed: u64, batch: usize, singles: usize) -> u64 {
    let mut sampler = BitmapSampler::from_rows(rows.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while sampler.remaining() > 0 {
        if batch > 0 {
            sampler.sample_batch_without_replacement(batch, &mut rng, &mut out);
        }
        for _ in 0..singles {
            out.extend(sampler.sample_without_replacement(&mut rng));
        }
    }
    assert_eq!(out.len() as u64, sampler.eligible());
    let mut fold = Fold::default();
    fold.words(&out);
    fold.finish(&mut rng)
}

#[test]
fn without_replacement_streams_are_pinned() {
    let sets = row_sets();
    let seed = |rows: &RowSet| 3100 + rows.count_ones();
    let got: Vec<u64> = sets
        .iter()
        .map(|rows| wor_stream(rows, seed(rows), 0, 1))
        .collect();
    let golden = [
        0x16b4_11ff_ad36_9badu64,
        0xdb9c_fe52_f768_2f05,
        0x10a1_d34f_c043_2404,
    ];
    assert_eq!(got, golden, "single draws: got {got:#018x?}");
    // Every batch size, run to exhaustion alone or interleaved with single
    // draws, is the same stream over the same RNG words.
    for (rows, want) in sets.iter().zip(golden) {
        for batch in BATCHES {
            let run = wor_stream(rows, seed(rows), batch, 0);
            assert_eq!(run, want, "batch {batch} to exhaustion: got {run:#018x}");
            let mixed = wor_stream(rows, seed(rows), batch, 3);
            assert_eq!(mixed, want, "batch {batch} + 3 singles: got {mixed:#018x}");
        }
    }
}

#[test]
fn permutation_state_mid_run_is_pinned() {
    // The permutation state halfway through the dense fixture (its draw
    // count; the keyed permutation stores no entries), reached by batches
    // and by single draws.
    let rows = &row_sets()[0];
    let half = rows.count_ones() as usize / 2;
    let digest = |batch: usize| {
        let mut sampler = BitmapSampler::from_rows(rows.clone());
        let mut rng = StdRng::seed_from_u64(3200);
        let mut out = Vec::new();
        while out.len() < half {
            let n = batch.min(half - out.len());
            if batch == 1 {
                out.extend(sampler.sample_without_replacement(&mut rng));
            } else {
                sampler.sample_batch_without_replacement(n, &mut rng, &mut out);
            }
        }
        let (drawn, entries) = sampler.permutation_state();
        let mut fold = Fold::default();
        fold.words(&[drawn, entries.len() as u64]);
        for (slot, value) in entries {
            fold.words(&[slot, value]);
        }
        fold.finish(&mut rng)
    };
    let got = [digest(1), digest(16), digest(256), digest(4096)];
    let golden = [0x9731_d1b5_e07d_66b7u64; 4];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn with_replacement_batches_are_pinned() {
    let got: Vec<u64> = row_sets()
        .iter()
        .map(|rows| {
            let mut sampler = BitmapSampler::from_rows(rows.clone());
            let mut rng = StdRng::seed_from_u64(3300 + rows.count_ones());
            let mut out = Vec::new();
            for _ in 0..3 {
                for batch in BATCHES {
                    sampler.sample_batch_with_replacement(batch, &mut rng, &mut out);
                }
            }
            // The batch calls replay the single-draw stream.
            let mut single_rng = StdRng::seed_from_u64(3300 + rows.count_ones());
            for &row in &out {
                assert_eq!(sampler.sample_with_replacement(&mut single_rng), Some(row));
            }
            let mut fold = Fold::default();
            fold.words(&out);
            fold.finish(&mut rng)
        })
        .collect();
    let golden = [
        0x588e_f342_f860_0a65u64,
        0xb4e9_74eb_e8ed_1f7b,
        0x341f_1aa0_dd50_31e9,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn size_estimate_batches_are_pinned() {
    let got: Vec<u64> = row_sets()
        .iter()
        .map(|rows| {
            // A relation a third longer than the bitmap: some probes land
            // past its end.
            let table_rows = rows.len() + rows.len() / 3;
            let mut sampler = SizeEstimatingSampler::from_rows(rows.clone(), table_rows);
            let mut rng = StdRng::seed_from_u64(3400 + rows.count_ones());
            let mut out = Vec::new();
            for _ in 0..3 {
                for batch in BATCHES {
                    sampler.sample_batch_with_size_estimate(batch, &mut rng, &mut out);
                }
            }
            let mut fold = Fold::default();
            for &(row, z) in &out {
                fold.words(&[row, z.to_bits()]);
            }
            fold.finish(&mut rng)
        })
        .collect();
    let golden = [
        0xf8df_bab1_f45f_5144u64,
        0x322e_fc6f_8bbd_e1bc,
        0xcd76_2b29_f537_58af,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn select_many_outputs_are_pinned() {
    let (dense, dense_len) = dense_positions();
    let (runs, runs_len) = run_positions();
    let bitmaps = [
        Bitmap::from_sorted_positions(&dense, dense_len),
        Bitmap::from_sorted_positions(&runs, runs_len),
    ];
    let got: Vec<u64> = bitmaps
        .iter()
        .flat_map(|bm| {
            let n = bm.count_ones();
            let mut next = lcg(n);
            // Sparse: 53 ranks spread over the whole bitmap.
            let sparse: Vec<u64> = (0..53).map(|i| i * (n - 1) / 52).collect();
            // Clustered: 300 consecutive ranks around position len·2/15
            // (on the dense fixture, the edge between the half-full and the
            // 1-in-400 region), then the last 70.
            let edge = bm.rank(bm.len() * 2 / 15).max(150);
            let mut clustered: Vec<u64> = (edge - 150..edge + 150).collect();
            clustered.extend(n - 70..n);
            // Duplicates: 40 random ranks, each repeated 1–5 times.
            let mut duplicates: Vec<u64> = (0..40)
                .flat_map(|_| {
                    let k = next() % n;
                    let times = 1 + next() % 5;
                    (0..times).map(move |_| k)
                })
                .collect();
            duplicates.sort_unstable();
            // A radix-sized random batch, and every rank once.
            let mut random: Vec<u64> = (0..4096).map(|_| next() % n).collect();
            random.sort_unstable();
            let every: Vec<u64> = (0..n).collect();
            [sparse, clustered, duplicates, random, every].map(|ks| {
                let mut out = Vec::new();
                bm.select_many(&ks, &mut out);
                assert_eq!(out.len(), ks.len());
                fnv1a64(
                    &out.iter()
                        .flat_map(|p| p.to_le_bytes())
                        .collect::<Vec<u8>>(),
                )
            })
        })
        .collect();
    let golden = [
        0x66d8_757f_2366_1b85u64,
        0x64c0_792f_2722_9a40,
        0x8a8a_d562_9553_acd1,
        0x1879_8a9c_bb4e_e68a,
        0x1f3b_ca54_64ca_0a8b,
        0xd397_04cf_948b_d804,
        0x7d04_6dab_9f8b_eab2,
        0x435c_69bf_c662_33e9,
        0x502e_41de_f643_54b6,
        0x195f_be00_65ac_db6c,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}
