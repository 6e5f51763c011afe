//! Rank/select bitmaps — NEEDLETAIL's index primitive.
//!
//! There is one representation, [`Bitmap`]: a plain `u64`-word bitvector
//! with a superblock rank directory, giving `O(1)` rank and `O(log n)`
//! select. This is the "hierarchically organized" bitmap of §4: finding the
//! `j`-th matching tuple costs a binary search over superblocks
//! (logarithmic in the number of records) plus a bounded word scan. A
//! bitmap costs `len / 8` bytes of words plus an eighth of that for its
//! rank directory (one `u64` per 512 bits), whatever it holds; filters
//! combine by word-parallel AND/OR/NOT.
//!
//! Layout: bits are packed little-endian into `u64` words; every
//! `WORDS_PER_SUPERBLOCK` words a cumulative one-count is recorded, and an
//! upper directory summarizes every `SUPERBLOCKS_PER_L2`-th superblock
//! (the "hierarchical" organization §4 describes). `rank` reads one
//! directory entry plus at most a superblock of words. `select` binary
//! searches the small upper directory and then a 64-entry superblock
//! window, then resolves within one word by branch-free broadword
//! arithmetic (`select_in_word`).
//!
//! ## The staged batch
//!
//! On a bitmap larger than the cache a select is two dependent misses — a
//! line of the superblock directory, then the line of words it points at —
//! and almost nothing else, so what a batch costs is decided by how many of
//! those misses wait on each other. [`Bitmap::select_many`] therefore
//! resolves a sorted batch `SELECT_CHUNK` ranks at a time, in two stages:
//!
//! 1. every rank's **superblock**. The upper directory is small enough to
//!    stay cache-resident and is walked by one monotone cursor; the 64-entry
//!    window search below it reads only that cursor and the rank, never the
//!    previous rank's answer, so the window probes of different ranks are
//!    independent loads. A rank inside the previous rank's superblock skips
//!    the search (the clustered case).
//! 2. every rank's **word scan** (`Bitmap::select_in_superblock`,
//!    the same helper `select` ends in). Each scan needs only its own
//!    superblock index from stage 1, so the word lines are independent too.
//!
//! Neither stage threads a cursor through the data it is about to miss on,
//! which is what lets an out-of-order core keep several of a chunk's misses
//! in flight instead of queueing them behind one another. The staging
//! changes no result: each rank resolves to exactly what `select` returns.

/// Words per rank-directory superblock (512 bits each).
const WORDS_PER_SUPERBLOCK: usize = 8;
/// Bits per superblock.
const BITS_PER_SUPERBLOCK: u64 = (WORDS_PER_SUPERBLOCK as u64) * 64;
/// Superblocks summarized per upper-directory block (32768 bits each).
const SUPERBLOCKS_PER_L2: usize = 64;
/// Ranks [`Bitmap::select_many`] stages together: enough independent
/// misses to fill the core's load queue, few enough that the staging buffer
/// is a 256-byte stack array.
const SELECT_CHUNK: usize = 32;

/// A bitmap over tuple positions `0..len`: a dense bitvector with `O(1)`
/// rank and `O(log n)` select.
///
/// The rank directory is two-level (the hierarchical organization §4
/// describes): `super_ranks` records cumulative ones every 512 bits, and
/// `l2_ranks` summarizes every 64th superblock. Select queries binary
/// search the small upper directory (which stays cache-resident even for
/// multi-hundred-million-row bitmaps) and then only a 64-entry window of
/// the lower one — bounding the cache lines a cold select touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: u64,
    words: Vec<u64>,
    /// `super_ranks[s]` = number of ones in words `[0, s*WORDS_PER_SUPERBLOCK)`.
    super_ranks: Vec<u64>,
    /// `l2_ranks[b]` = number of ones before superblock `b*SUPERBLOCKS_PER_L2`
    /// (one extra entry = total).
    l2_ranks: Vec<u64>,
    count_ones: u64,
}

impl Bitmap {
    /// An all-zeros bitmap of the given length.
    #[must_use]
    pub fn zeros(len: u64) -> Self {
        let words = vec![0u64; Self::word_count(len)];
        Self::from_words(words, len)
    }

    /// An all-ones bitmap of the given length.
    #[must_use]
    pub fn ones(len: u64) -> Self {
        let n_words = Self::word_count(len);
        let mut words = vec![u64::MAX; n_words];
        Self::mask_tail(&mut words, len);
        Self::from_words(words, len)
    }

    /// Builds from strictly increasing set-bit positions.
    ///
    /// # Panics
    ///
    /// Panics if positions are not strictly increasing or `>= len`.
    #[must_use]
    pub fn from_sorted_positions(positions: &[u64], len: u64) -> Self {
        let mut words = vec![0u64; Self::word_count(len)];
        let mut prev: Option<u64> = None;
        for &p in positions {
            assert!(p < len, "position {p} out of range (len {len})");
            if let Some(q) = prev {
                assert!(p > q, "positions must be strictly increasing");
            }
            words[(p / 64) as usize] |= 1u64 << (p % 64);
            prev = Some(p);
        }
        Self::from_words(words, len)
    }

    /// Builds from a boolean slice.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let len = bits.len() as u64;
        let mut words = vec![0u64; Self::word_count(len)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        Self::from_words(words, len)
    }

    /// Builds from raw words (tail bits beyond `len` are cleared) and
    /// computes the rank directory.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: u64) -> Self {
        let needed = Self::word_count(len);
        assert!(
            words.len() >= needed,
            "word vector too short for length {len}"
        );
        words.truncate(needed);
        Self::mask_tail(&mut words, len);
        let n_super = words.len().div_ceil(WORDS_PER_SUPERBLOCK);
        let mut super_ranks = Vec::with_capacity(n_super + 1);
        let mut running = 0u64;
        for s in 0..=n_super {
            super_ranks.push(running);
            if s < n_super {
                let start = s * WORDS_PER_SUPERBLOCK;
                let end = (start + WORDS_PER_SUPERBLOCK).min(words.len());
                running += words[start..end]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>();
            }
        }
        let n_l2 = n_super.div_ceil(SUPERBLOCKS_PER_L2);
        let mut l2_ranks = Vec::with_capacity(n_l2 + 1);
        for b in 0..=n_l2 {
            let sb = (b * SUPERBLOCKS_PER_L2).min(n_super);
            l2_ranks.push(super_ranks[sb]);
        }
        Self {
            len,
            words,
            count_ones: running,
            super_ranks,
            l2_ranks,
        }
    }

    fn word_count(len: u64) -> usize {
        (len.div_ceil(64)) as usize
    }

    fn mask_tail(words: &mut [u64], len: u64) {
        let tail_bits = len % 64;
        if tail_bits != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of addressable positions.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether length is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.count_ones
    }

    /// Bit value at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    #[must_use]
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "position {pos} out of range");
        (self.words[(pos / 64) as usize] >> (pos % 64)) & 1 == 1
    }

    /// Number of set bits strictly before `pos` (`pos` may equal `len`).
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    #[must_use]
    pub fn rank(&self, pos: u64) -> u64 {
        assert!(pos <= self.len, "rank position {pos} out of range");
        let sb = (pos / BITS_PER_SUPERBLOCK) as usize;
        let mut r = self.super_ranks[sb];
        let word_start = sb * WORDS_PER_SUPERBLOCK;
        let word_end = (pos / 64) as usize;
        for w in &self.words[word_start..word_end] {
            r += u64::from(w.count_ones());
        }
        let tail = pos % 64;
        if tail != 0 {
            let w = self.words[word_end] & ((1u64 << tail) - 1);
            r += u64::from(w.count_ones());
        }
        r
    }

    /// Position of the `k`-th (0-based) set bit, or `None` if out of range.
    #[must_use]
    pub fn select(&self, k: u64) -> Option<u64> {
        if k >= self.count_ones {
            return None;
        }
        // Binary search the small upper directory, then only a 64-entry
        // window of the superblock directory.
        let lb = self.l2_ranks.partition_point(|&r| r <= k) - 1;
        Some(self.select_in_superblock(self.superblock_in_l2(lb, k), k))
    }

    /// Last superblock within upper block `lb` whose cumulative rank is
    /// `<= k` (requires `l2_ranks[lb] <= k`).
    #[inline]
    fn superblock_in_l2(&self, lb: usize, k: u64) -> usize {
        let n_super = self.super_ranks.len() - 1;
        let sb_start = lb * SUPERBLOCKS_PER_L2;
        let sb_end = ((lb + 1) * SUPERBLOCKS_PER_L2).min(n_super);
        sb_start + self.super_ranks[sb_start + 1..=sb_end].partition_point(|&r| r <= k)
    }

    /// Position of the `k`-th set bit given the superblock `sb` that holds
    /// it (`super_ranks[sb] <= k < super_ranks[sb + 1]`): a scan of at most
    /// [`WORDS_PER_SUPERBLOCK`] words.
    #[inline]
    fn select_in_superblock(&self, sb: usize, k: u64) -> u64 {
        let mut remaining = k - self.super_ranks[sb];
        let word_start = sb * WORDS_PER_SUPERBLOCK;
        let word_end = (word_start + WORDS_PER_SUPERBLOCK).min(self.words.len());
        for (wi, &word) in (word_start..).zip(&self.words[word_start..word_end]) {
            let ones = u64::from(word.count_ones());
            if remaining < ones {
                let bit = select_in_word(word, remaining as u32);
                return (wi as u64) * 64 + u64::from(bit);
            }
            remaining -= ones;
        }
        unreachable!("rank directory inconsistent with words");
    }

    /// Resolves a **sorted** batch of ranks, appending the position of each
    /// `k`-th set bit to `out` in input order — the same positions as one
    /// [`Self::select`] per rank.
    ///
    /// The batch is staged 32 ranks at a time: first every rank's
    /// superblock, then every rank's word scan, so that the directory probes
    /// of a chunk, and then its word lines, are independent loads a core can
    /// overlap instead of a chain of misses each waiting on the last.
    /// Sortedness is what keeps stage 1 cheap: the upper directory is walked
    /// once by a cursor that only moves forward, and a rank in the same
    /// superblock as its predecessor costs no search at all — `O(b + log n)`
    /// directory work for a clustered batch, one 64-entry window search per
    /// rank for a sparse one.
    ///
    /// # Panics
    ///
    /// Panics if any rank is `>= count_ones()`. Debug builds additionally
    /// assert that `sorted_ks` is non-decreasing.
    pub fn select_many(&self, sorted_ks: &[u64], out: &mut Vec<u64>) {
        let Some(&last_k) = sorted_ks.last() else {
            return;
        };
        assert!(
            last_k < self.count_ones,
            "select_many rank out of range (count_ones {})",
            self.count_ones
        );
        out.reserve(sorted_ks.len());
        let mut lb = 0usize; // upper-directory cursor
        let mut sb = 0usize; // superblock of the previous rank
        let mut prev_k = 0u64;
        let mut sbs = [0usize; SELECT_CHUNK];
        for chunk in sorted_ks.chunks(SELECT_CHUNK) {
            for (slot, &k) in sbs.iter_mut().zip(chunk) {
                debug_assert!(k >= prev_k, "select_many ranks must be sorted");
                prev_k = k;
                if self.super_ranks[sb + 1] <= k {
                    if self.l2_ranks[lb + 1] <= k {
                        lb = gallop_last_le(&self.l2_ranks, lb + 1, k);
                    }
                    sb = self.superblock_in_l2(lb, k);
                }
                *slot = sb;
            }
            out.extend(
                sbs.iter()
                    .zip(chunk)
                    .map(|(&sb, &k)| self.select_in_superblock(sb, k)),
            );
        }
    }

    /// Bitwise AND with an equal-length bitmap.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap lengths must match");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Self::from_words(words, self.len)
    }

    /// Appends the set-bit positions of `self AND other`, ascending,
    /// without materializing the intersection bitmap (or its rank
    /// directory): each word pair is ANDed in a register and its surviving
    /// bits decoded directly.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersect_positions(&self, other: &Bitmap, out: &mut Vec<u64>) {
        assert_eq!(self.len, other.len, "bitmap lengths must match");
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let word = a & b;
            if word == 0 {
                continue;
            }
            let base = (wi as u64) * 64;
            out.extend((BitIter { word }).map(|bit| base + u64::from(bit)));
        }
    }

    /// Bitwise OR with an equal-length bitmap.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap lengths must match");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Self::from_words(words, self.len)
    }

    /// Bitwise NOT within `0..len`.
    #[must_use]
    pub fn not(&self) -> Bitmap {
        let words = self.words.iter().map(|w| !w).collect();
        Self::from_words(words, self.len)
    }

    /// Iterator over set-bit positions, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_ones_from(0)
    }

    /// Iterator over the set-bit positions `>= from`, ascending.
    pub(crate) fn iter_ones_from(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let first = usize::try_from(from / 64).unwrap_or(usize::MAX);
        let keep = u64::MAX << (from % 64);
        let words = self.words.iter().enumerate().skip(first);
        words.flat_map(move |(wi, &word)| {
            let word = if wi == first { word & keep } else { word };
            let base = (wi as u64) * 64;
            BitIter { word }.map(move |b| base + u64::from(b))
        })
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (self.words.len() + self.super_ranks.len() + self.l2_ranks.len()) * 8
    }
}

/// Largest index `s >= lo` with `arr[s] <= k`, assuming `arr[lo] <= k`:
/// exponential (galloping) probe followed by a binary search of the
/// bracketed window. Cost is `O(log gap)` in the distance advanced, so a
/// monotone sweep over a sorted batch pays for directory distance actually
/// crossed rather than a full `O(log n)` search per rank.
pub(crate) fn gallop_last_le(arr: &[u64], lo: usize, k: u64) -> usize {
    debug_assert!(arr[lo] <= k);
    // Give up galloping past this stride: a distant target is then found by
    // one binary search of the remaining suffix instead of ~2·log(gap)
    // scattered probes (which would be worse than plain binary search).
    const MAX_STEP: usize = 64;
    let mut lo = lo;
    let mut step = 1usize;
    loop {
        let probe = lo + step;
        if probe >= arr.len() || arr[probe] > k {
            let hi = probe.min(arr.len());
            return lo + arr[lo + 1..hi].partition_point(|&r| r <= k);
        }
        lo = probe;
        if step >= MAX_STEP {
            return lo + arr[lo + 1..].partition_point(|&r| r <= k);
        }
        step <<= 1;
    }
}

/// `SELECT_IN_BYTE[b * 8 + r]` = position of the `r`-th set bit of byte
/// `b` (8 when the byte has fewer than `r + 1` set bits).
const SELECT_IN_BYTE: [u8; 2048] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 2048] {
    let mut table = [8u8; 2048];
    let mut b = 0usize;
    while b < 256 {
        let mut count = 0usize;
        let mut bit = 0usize;
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[b * 8 + count] = bit as u8;
                count += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
}

/// Position (0..64) of the `r`-th set bit within `word`, by broadword
/// byte-parallel popcounts (Vigna's select-in-word) instead of a per-bit
/// clear-lowest loop: constant ~12 ops regardless of `r`.
fn select_in_word(word: u64, r: u32) -> u32 {
    debug_assert!(u64::from(word.count_ones()) > u64::from(r));
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    // SWAR popcount per byte.
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte i of byte_sums = ones in bytes 0..=i (cumulative, inclusive).
    let byte_sums = s.wrapping_mul(ONES);
    // MSB of byte i survives iff byte_sums_i <= r, so the popcount is the
    // index of the byte holding the r-th set bit.
    let r_step = u64::from(r) * ONES;
    let geq = ((r_step | MSBS) - byte_sums) & MSBS;
    let byte_idx = geq.count_ones();
    let place = byte_idx * 8;
    // Cumulative ones strictly before the target byte.
    let prefix = ((byte_sums << 8) >> place) & 0xFF;
    let rank_in_byte = u64::from(r) - prefix;
    let byte = ((word >> place) & 0xFF) as usize;
    place + u32::from(SELECT_IN_BYTE[byte * 8 + rank_in_byte as usize])
}

/// Iterator over set-bit offsets within a single word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_in_word_all_positions() {
        let word = 0b1011_0101u64;
        let positions = [0u32, 2, 4, 5, 7];
        for (r, &p) in positions.iter().enumerate() {
            assert_eq!(select_in_word(word, r as u32), p);
        }
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::zeros(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.select(0), None);
        assert_eq!(bm.rank(0), 0);
    }

    #[test]
    fn ones_masks_tail() {
        let bm = Bitmap::ones(70);
        assert_eq!(bm.count_ones(), 70);
        assert_eq!(bm.rank(70), 70);
        assert_eq!(bm.select(69), Some(69));
        assert_eq!(bm.select(70), None);
    }

    #[test]
    fn rank_across_superblocks() {
        // Set one bit per 100 positions over 3000 bits (spans superblocks).
        let positions: Vec<u64> = (0..30).map(|i| i * 100).collect();
        let bm = Bitmap::from_sorted_positions(&positions, 3000);
        for p in 0..=3000u64 {
            let expected = positions.iter().filter(|&&q| q < p).count() as u64;
            assert_eq!(bm.rank(p), expected, "rank({p})");
        }
    }

    #[test]
    fn select_brute_force_agreement() {
        let positions: Vec<u64> = vec![0, 1, 63, 64, 127, 128, 511, 512, 513, 1023, 2040];
        let bm = Bitmap::from_sorted_positions(&positions, 2048);
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(bm.select(k as u64), Some(p));
        }
        assert_eq!(bm.select(positions.len() as u64), None);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i as u64), b);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_positions() {
        let _ = Bitmap::from_sorted_positions(&[5, 5], 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oob_position() {
        let _ = Bitmap::from_sorted_positions(&[10], 10);
    }

    #[test]
    fn not_respects_length() {
        let bm = Bitmap::from_sorted_positions(&[0, 5], 10);
        let inv = bm.not();
        assert_eq!(inv.count_ones(), 8);
        assert_eq!(inv.len(), 10);
        // Tail bits (10..64) must not leak into the count.
        assert_eq!(inv.rank(10), 8);
    }

    #[test]
    fn select_in_word_matches_naive_scan() {
        // Exhaustive over structured words plus a pseudo-random sweep.
        let mut words: Vec<u64> = vec![1, u64::MAX, 0x8000_0000_0000_0000, 0xAAAA_AAAA_AAAA_AAAA];
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            words.push(x);
        }
        for &w in &words {
            let naive: Vec<u32> = (0..64).filter(|b| (w >> b) & 1 == 1).collect();
            for (r, &expect) in naive.iter().enumerate() {
                assert_eq!(select_in_word(w, r as u32), expect, "word {w:#x} rank {r}");
            }
        }
    }

    #[test]
    fn select_many_matches_repeated_select() {
        // Clustered + sparse ones across several superblocks.
        let mut positions: Vec<u64> = (100..400).collect();
        positions.extend((0..40).map(|i| 1000 + i * 97));
        let bm = Bitmap::from_sorted_positions(&positions, 8192);
        let n = bm.count_ones();
        // All ranks at once.
        let ks: Vec<u64> = (0..n).collect();
        let mut out = Vec::new();
        bm.select_many(&ks, &mut out);
        assert_eq!(out, positions);
        // A sparse subset with repeats.
        let ks = vec![0, 0, 5, 17, 17, 100, n - 1];
        let mut out = Vec::new();
        bm.select_many(&ks, &mut out);
        let expect: Vec<u64> = ks.iter().map(|&k| bm.select(k).unwrap()).collect();
        assert_eq!(out, expect);
        // Empty batch.
        let mut out = Vec::new();
        bm.select_many(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn select_many_staging_matches_select_for_every_chunk_shape() {
        // Batch lengths on both sides of every SELECT_CHUNK boundary, three
        // rank shapes, three densities — over 70 001 bits: 137 superblocks
        // (the last one 369 bits, its last word partial) in 3 upper blocks.
        let len = 70_001u64;
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for one_in in [2u64, 14, 400] {
            let positions: Vec<u64> = (0..len).filter(|_| next() % one_in == 0).collect();
            let bm = Bitmap::from_sorted_positions(&positions, len);
            let n = bm.count_ones();
            assert!(bm.l2_ranks.len() > 3 && n >= 100);
            for batch in [1usize, 31, 32, 33, 64, 65, 4096] {
                let sparse: Vec<u64> = (0..batch).map(|_| next() % n).collect();
                let start = next() % n;
                let clustered: Vec<u64> = (0..batch as u64).map(|i| (start + i / 3) % n).collect();
                let duplicates: Vec<u64> = sparse.iter().map(|k| k - k % (n / 7)).collect();
                for mut ks in [sparse, clustered, duplicates] {
                    ks.sort_unstable();
                    // Every batch ends on the last one of the partial word.
                    ks[batch - 1] = n - 1;
                    let mut out = vec![u64::MAX];
                    bm.select_many(&ks, &mut out);
                    let expect: Vec<u64> = std::iter::once(u64::MAX)
                        .chain(ks.iter().map(|&k| positions[k as usize]))
                        .collect();
                    assert_eq!(out, expect, "1/{one_in}, batch {batch}");
                    assert!(ks
                        .iter()
                        .all(|&k| bm.select(k) == Some(positions[k as usize])));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_many_rejects_oob_rank() {
        let bm = Bitmap::from_sorted_positions(&[3, 9], 16);
        let mut out = Vec::new();
        bm.select_many(&[0, 2], &mut out);
    }

    #[test]
    fn iter_ones_matches_positions() {
        let positions: Vec<u64> = vec![3, 64, 65, 100, 511, 700];
        let bm = Bitmap::from_sorted_positions(&positions, 701);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), positions);
        for from in [0, 3, 4, 63, 64, 66, 511, 700, 701, 10_000] {
            let expect: Vec<u64> = positions.iter().copied().filter(|&p| p >= from).collect();
            assert_eq!(
                bm.iter_ones_from(from).collect::<Vec<_>>(),
                expect,
                "from {from}"
            );
        }
    }

    #[test]
    fn queries_agree_with_positions() {
        let pos = vec![0, 3, 4, 63, 64, 65, 200, 511, 512, 999];
        let bm = Bitmap::from_sorted_positions(&pos, 1000);
        assert_eq!(bm.len(), 1000);
        assert_eq!(bm.count_ones(), pos.len() as u64);
        for (k, &p) in pos.iter().enumerate() {
            assert!(bm.get(p), "bit {p} should be set");
            assert_eq!(bm.select(k as u64), Some(p));
            assert_eq!(bm.rank(p), k as u64);
        }
        assert_eq!(bm.select(pos.len() as u64), None);
        assert!(!bm.get(1));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), pos);
    }

    #[test]
    fn boolean_algebra_matches_naive() {
        let a_pos = vec![1, 2, 3, 10, 50, 63, 64, 99];
        let b_pos = vec![2, 3, 7, 50, 65, 98, 99];
        let len = 100;
        let a = Bitmap::from_sorted_positions(&a_pos, len);
        let b = Bitmap::from_sorted_positions(&b_pos, len);
        let and = a.and(&b);
        let or = a.or(&b);
        let not_a = a.not();
        for p in 0..len {
            let (ba, bb) = (a_pos.contains(&p), b_pos.contains(&p));
            assert_eq!(and.get(p), ba && bb, "and at {p}");
            assert_eq!(or.get(p), ba || bb, "or at {p}");
            assert_eq!(not_a.get(p), !ba, "not at {p}");
        }
    }

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(77);
        let o = Bitmap::ones(77);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 77);
        assert_eq!(z.select(0), None);
        assert_eq!(o.select(76), Some(76));
        assert_eq!(o.select(77), None);
        assert_eq!(z.not().count_ones(), 77);
    }

    #[test]
    #[should_panic(expected = "lengths")]
    fn and_rejects_length_mismatch() {
        let a = Bitmap::zeros(10);
        let b = Bitmap::zeros(11);
        let _ = a.and(&b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    prop_compose! {
        fn arb_positions(max_len: u64)
            (len in 1..max_len)
            (positions in proptest::collection::btree_set(0..len, 0..128), len in Just(len))
            -> (Vec<u64>, u64)
        {
            (positions.into_iter().collect(), len)
        }
    }

    /// A second position set derived deterministically from the first.
    fn shifted(positions: &[u64], seed: u64, len: u64) -> Vec<u64> {
        positions
            .iter()
            .map(|p| (p + seed) % len)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    proptest! {
        #[test]
        fn rank_select_roundtrip((pos, len) in arb_positions(5000)) {
            let bm = Bitmap::from_sorted_positions(&pos, len);
            for (k, &p) in pos.iter().enumerate() {
                prop_assert_eq!(bm.select(k as u64), Some(p));
                prop_assert_eq!(bm.rank(p), k as u64);
                prop_assert_eq!(bm.rank(p + 1), k as u64 + 1);
            }
        }

        #[test]
        fn algebra_matches_set_operations(
            (a_pos, len) in arb_positions(2000),
            seed in 0u64..1000,
        ) {
            let b_pos = shifted(&a_pos, seed, len);
            let a = Bitmap::from_sorted_positions(&a_pos, len);
            let b = Bitmap::from_sorted_positions(&b_pos, len);
            let (a_set, b_set): (BTreeSet<u64>, BTreeSet<u64>) =
                (a_pos.iter().copied().collect(), b_pos.iter().copied().collect());
            prop_assert_eq!(
                a.and(&b).iter_ones().collect::<Vec<_>>(),
                a_set.intersection(&b_set).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                a.or(&b).iter_ones().collect::<Vec<_>>(),
                a_set.union(&b_set).copied().collect::<Vec<_>>()
            );
        }

        #[test]
        fn select_many_agrees_with_select((pos, len) in arb_positions(5000), seed in 0u64..1000) {
            let bm = Bitmap::from_sorted_positions(&pos, len);
            let n = bm.count_ones();
            if n > 0 {
                // A deterministic pseudo-random sorted batch with repeats.
                let mut ks: Vec<u64> = (0..48)
                    .map(|i| (seed.wrapping_mul(i * 2 + 1).wrapping_add(i * i)) % n)
                    .collect();
                ks.sort_unstable();
                let mut out = Vec::new();
                bm.select_many(&ks, &mut out);
                let expect: Vec<u64> = ks.iter().map(|&k| bm.select(k).unwrap()).collect();
                prop_assert_eq!(&out, &expect);
            }
        }

        #[test]
        fn intersection_agrees_with_materialized_and(
            (a_pos, len) in arb_positions(2000),
            seed in 0u64..1000,
        ) {
            let b_pos = shifted(&a_pos, seed, len);
            let a = Bitmap::from_sorted_positions(&a_pos, len);
            let b = Bitmap::from_sorted_positions(&b_pos, len);
            let and = a.and(&b);
            let mut out = Vec::new();
            a.intersect_positions(&b, &mut out);
            prop_assert_eq!(out.len() as u64, and.count_ones());
            prop_assert_eq!(out, and.iter_ones().collect::<Vec<_>>());
        }

        #[test]
        fn not_is_involution((pos, len) in arb_positions(2000)) {
            let bm = Bitmap::from_sorted_positions(&pos, len);
            let back = bm.not().not();
            prop_assert_eq!(
                bm.iter_ones().collect::<Vec<_>>(),
                back.iter_ones().collect::<Vec<_>>()
            );
            prop_assert_eq!(bm.not().count_ones(), len - pos.len() as u64);
        }
    }
}
