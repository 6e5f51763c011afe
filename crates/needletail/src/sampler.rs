//! Random tuple sampling over an eligibility bitmap.
//!
//! The core retrieval primitive of NEEDLETAIL: given the bitmap of rows
//! matching a condition, return a *uniformly random* matching row id in
//! `O(log n)` via `select(random index)`.
//!
//! Two regimes are supported, matching §3.6:
//!
//! * **With replacement** — stateless: each draw is an independent uniform
//!   pick among the eligible rows.
//! * **Without replacement** — a *virtual Fisher–Yates shuffle*: the sampler
//!   tracks only the swaps it has performed (a hash map of displaced slots),
//!   so memory grows with the number of draws, not the group size, and every
//!   eligible row is produced exactly once over the sampler's lifetime.
//!
//! [`SizeEstimatingSampler`] additionally produces the unbiased group-size
//! estimate `z` needed by the unknown-group-size `SUM` algorithm
//! (Algorithm 5): along with a random group member `x`, it probes an
//! independent uniformly random *table position* and reports whether that
//! position belongs to the group — `E[z] = |S_i| / N`, the normalized group
//! size, and `x·z` stays in `[0, c]` exactly as §6.3.1 requires. The probe
//! is answered by the in-memory bitmap, so it costs no I/O.
//!
//! ## Batched draws
//!
//! Both regimes also come in batch form —
//! [`BitmapSampler::sample_batch_with_replacement`] and
//! [`BitmapSampler::sample_batch_without_replacement`] — which generate all
//! `n` random ranks first, resolve them through one sorted
//! [`Bitmap::select_many`] call, and then restore draw order. The batch
//! paths consume the RNG identically to `n` single draws, so for a fixed
//! seed they return the **same stream of rows** — batching is a pure
//! throughput optimization with no statistical or reproducibility cost.
//! [`SizeEstimatingSampler::sample_batch_with_size_estimate`] extends the
//! same contract to Algorithm 5's `(row, z)` pairs.
//!
//! ## The staged shuffle
//!
//! One Fisher–Yates draw is: pick a slot `j` in `drawn..eligible`, hand out
//! what slot `j` holds, move what slot `drawn` holds into `j`, advance
//! `drawn`. Its state lives in a [`SwapMap`] that a long run grows past the
//! cache, so a draw costs the memory latency of the slots it probes — and a
//! loop of draws pays those latencies one after another, because each draw's
//! `j` comes out of the RNG only after the previous swap. The batch call
//! breaks that chain into three stages:
//!
//! 1. **Draw every slot up front**: `j_i = gen_range(drawn + i..eligible)`
//!    for the whole batch. This is exact, not approximate: `drawn` advances
//!    by one per draw *whatever the table holds*, so the range of draw `i`
//!    is known before any swap is applied, and the RNG is consumed word for
//!    word (rejections included) as the one-at-a-time loop consumes it.
//! 2. **Touch every `j_i`'s home slot** ([`SwapMap::touch`], after the
//!    table has been reserved so no slot moves): plain loads that depend on
//!    nothing but stage 1, folded into a `black_box`ed accumulator so they
//!    are neither dropped nor ordered. Their cache lines are in flight
//!    together. Losing this stage could cost speed, never an answer.
//! 3. **Apply the swaps in draw order** through the private `swap_step` —
//!    the same function the single-draw path calls, so the two cannot
//!    drift. The step is two probe sequences: removing `drawn`'s entry *is*
//!    the lookup of the displaced value, and replacing `j`'s entry *is* the
//!    lookup of the chosen one. `drawn`'s home slot walks the table
//!    sequentially (keys are homed at their low bits), so after stage 2
//!    neither probe waits on memory.
//!
//! The swaps themselves stay strictly ordered — a batch may pick the same
//! `j` twice, or pick `j == drawn` — only their memory traffic is hoisted.
//!
//! ## The scratch arena
//!
//! Every sampler owns a [`BatchScratch`]: the sort keys, the sorted-rank
//! staging buffer, the `select_many` output, and the radix-sort ping-pong
//! buffer all live in reusable vectors, so after the first few batches the
//! batch path performs **zero heap allocation at steady state** (verified
//! by a counting-allocator test). Batches of [`RADIX_MIN_BATCH`] keys or
//! more are sorted with a stable LSD radix sort over the packed words
//! instead of comparison sorting; since packed keys are distinct, both
//! sorts produce the identical resolve order (property-tested).

use crate::bitmap::Bitmap;
use crate::u64map::SwapMap;
use rand::Rng;
use std::sync::Arc;

/// The eligible-row set a sampler draws from — the zero-copy layer behind
/// the engine's plan cache.
///
/// Four shapes:
///
/// * [`RowSet::Range`] — a **row range** `[start, start + count)`: an
///   unfiltered group of the column the engine clusters its table by (the
///   first indexed one). `select(k)` is `start + k`; nothing is stored.
/// * [`RowSet::Bitmap`] — a full bitmap behind an [`Arc`]: the group's own
///   index bitmap (shared pointer-for-pointer between every handle and
///   cache entry that needs it), an evaluated predicate bitmap, or a
///   materialized intersection.
/// * [`RowSet::Positions`] — the **intersection view**: the sorted row ids
///   of a *selective* `group ∧ predicate` intersection, built by galloping
///   over the smaller operand and membership-testing the larger
///   ([`Bitmap::intersect_positions`]) instead of materializing a
///   table-length bitmap. `select(k)` degenerates to `positions[k]` — O(1),
///   faster than any rank directory — and the memory cost scales with the
///   filtered group, not the table.
/// * [`RowSet::Window`] — a **rank window** of a shared bitmap: its ones
///   of rank `first..first + count`. A clustered group is one row range
///   `[s, e)`, so its rows under a filter are exactly the filter bitmap's
///   ranks `rank(s)..rank(e)`: the plan costs two `rank` calls and copies
///   nothing, and `select(k)` is the bitmap's `select(first + k)`.
///
/// Every shape describes an abstract set of row ids, so a sampler is
/// oblivious to which it got: for a fixed seed the drawn row stream is
/// identical (the RNG consumes ranks in `0..count_ones()` either way and
/// `select` agrees by construction).
#[derive(Debug, Clone)]
pub enum RowSet {
    /// The rows `start..start + count` of a table of `universe` rows.
    Range {
        /// The range's first row.
        start: u64,
        /// Number of rows in the range (`start + count <= universe`).
        count: u64,
        /// Number of addressable rows (the table length).
        universe: u64,
    },
    /// A whole (possibly shared) bitmap over the table's rows.
    Bitmap(Arc<Bitmap>),
    /// Sorted eligible row ids of a selective intersection, plus the
    /// universe (table row count) they index into.
    Positions {
        /// Sorted, de-duplicated row ids (shared between clones).
        positions: Arc<Vec<u64>>,
        /// Number of addressable rows (the table length).
        universe: u64,
    },
    /// The ones of `bits` whose rank lies in `first..first + count`.
    Window {
        /// The shared bitmap the window ranges over.
        bits: Arc<Bitmap>,
        /// Rank (in `bits`) of the window's first row.
        first: u64,
        /// Number of rows in the window (`first + count <= bits.count_ones()`).
        count: u64,
    },
}

impl RowSet {
    /// Wraps an owned bitmap.
    #[must_use]
    pub fn from_bitmap(bitmap: Bitmap) -> Self {
        RowSet::Bitmap(Arc::new(bitmap))
    }

    /// Number of addressable positions (the table length).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            RowSet::Bitmap(bm) | RowSet::Window { bits: bm, .. } => bm.len(),
            RowSet::Range { universe, .. } | RowSet::Positions { universe, .. } => *universe,
        }
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of eligible rows.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        match self {
            RowSet::Bitmap(bm) => bm.count_ones(),
            RowSet::Positions { positions, .. } => positions.len() as u64,
            RowSet::Range { count, .. } | RowSet::Window { count, .. } => *count,
        }
    }

    /// Whether row `pos` is eligible.
    #[must_use]
    pub fn get(&self, pos: u64) -> bool {
        match self {
            RowSet::Range { start, count, .. } => (*start..start + count).contains(&pos),
            RowSet::Bitmap(bm) => bm.get(pos),
            RowSet::Positions { positions, .. } => positions.binary_search(&pos).is_ok(),
            RowSet::Window { bits, first, count } => {
                bits.get(pos) && (*first..first + count).contains(&bits.rank(pos))
            }
        }
    }

    /// The `k`-th (0-based) eligible row, or `None` if out of range.
    #[must_use]
    pub fn select(&self, k: u64) -> Option<u64> {
        match self {
            RowSet::Range { start, count, .. } => (k < *count).then(|| start + k),
            RowSet::Bitmap(bm) => bm.select(k),
            RowSet::Positions { positions, .. } => positions.get(k as usize).copied(),
            RowSet::Window { bits, first, count } => {
                (k < *count).then(|| bits.select(first + k)).flatten()
            }
        }
    }

    /// Resolves a **sorted** batch of ranks, appending each `k`-th eligible
    /// row to `out` in input order (the contract of
    /// [`Bitmap::select_many`]; a range adds its start to each rank, the
    /// positions view indexes directly). A window copies the ranks to shift
    /// them; the sampler's batch path shifts them in its own scratch
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if any rank is `>= count_ones()`.
    pub fn select_many(&self, sorted_ks: &[u64], out: &mut Vec<u64>) {
        if let Some(&last) = sorted_ks.last() {
            assert!(
                last < self.count_ones(),
                "select_many rank out of range (count_ones {})",
                self.count_ones()
            );
        }
        match self {
            RowSet::Range { start, .. } => out.extend(sorted_ks.iter().map(|&k| start + k)),
            RowSet::Bitmap(bm) => bm.select_many(sorted_ks, out),
            RowSet::Positions { positions, .. } => {
                out.extend(sorted_ks.iter().map(|&k| positions[k as usize]));
            }
            RowSet::Window { .. } => self.select_many_in_place(&mut sorted_ks.to_vec(), out),
        }
    }

    /// [`Self::select_many`] over ranks the call may overwrite: a window
    /// shifts them in place into its bitmap's rank space, so resolving a
    /// batch allocates nothing.
    fn select_many_in_place(&self, sorted_ks: &mut [u64], out: &mut Vec<u64>) {
        let RowSet::Window { bits, first, count } = self else {
            return self.select_many(sorted_ks, out);
        };
        if let Some(&last) = sorted_ks.last() {
            assert!(
                last < *count,
                "select_many rank out of range (count_ones {count})"
            );
        }
        for k in sorted_ks.iter_mut() {
            *k += first;
        }
        bits.select_many(sorted_ks, out);
    }

    /// Iterator over the eligible row ids, ascending. A window resolves
    /// each rank with one `select` (a verification path, not a hot one).
    pub fn iter_ones(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            RowSet::Range { start, count, .. } => Box::new(*start..start + count),
            RowSet::Bitmap(bm) => Box::new(bm.iter_ones()),
            RowSet::Positions { positions, .. } => Box::new(positions.iter().copied()),
            RowSet::Window { bits, first, count } => {
                Box::new((*first..first + count).filter_map(|k| bits.select(k)))
            }
        }
    }

    /// Approximate heap bytes of this view's own storage (shared storage
    /// is counted once per underlying allocation, not per clone). A range
    /// stores nothing, and a window owns nothing: its bitmap is the plan's
    /// shared filter.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            RowSet::Bitmap(bm) => bm.heap_bytes(),
            RowSet::Positions { positions, .. } => positions.len() * 8,
            RowSet::Range { .. } | RowSet::Window { .. } => 0,
        }
    }
}

/// Batches at or above this many keys sort with the LSD radix sort;
/// smaller batches use pattern-defeating quicksort, which wins while the
/// key array is cache-resident.
pub const RADIX_MIN_BATCH: usize = 4096;

/// Reusable buffers for batched rank resolution — one per sampler, so the
/// batch path allocates nothing once the buffers have grown to the batch
/// size. All buffers are cleared (not shrunk) between batches.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Draw-order ranks, packed in place to `rank << 20 | draw_index`.
    keys: Vec<u64>,
    /// Radix-sort ping-pong buffer.
    radix: Vec<u64>,
    /// Sorted ranks handed to [`Bitmap::select_many`].
    sorted: Vec<u64>,
    /// Positions returned by `select_many` (sorted-rank order).
    positions: Vec<u64>,
    /// Fallback sort pairs for oversized ranks/batches (rank ≥ 2^44 or
    /// batch ≥ 2^20); never used by realistic workloads.
    pairs: Vec<(u64, u64)>,
}

/// Uniform random sampler over the set bits of a bitmap (or any
/// [`RowSet`] view of one).
#[derive(Debug, Clone)]
pub struct BitmapSampler {
    bits: RowSet,
    eligible: u64,
    /// Virtual Fisher–Yates state: logical position -> displaced value.
    /// An open-addressed map homed at the key's low bits ([`SwapMap`]): the
    /// default SipHash `HashMap` dominates without-replacement draw cost,
    /// and these keys are internal ranks, never untrusted. Populations below
    /// `u32::MAX` use 8-byte entries so long runs stay cache-resident.
    swaps: SwapMap,
    /// Draws made without replacement so far.
    drawn: u64,
    /// Reusable batch-resolution buffers (allocation-free steady state).
    scratch: BatchScratch,
}

impl BitmapSampler {
    /// Creates a sampler over the set bits of `bitmap`.
    #[must_use]
    pub fn new(bitmap: Bitmap) -> Self {
        Self::from_rows(RowSet::from_bitmap(bitmap))
    }

    /// Creates a sampler over a shared bitmap without copying it — the
    /// zero-copy path the engine's plan cache uses for unfiltered groups.
    #[must_use]
    pub fn shared(bitmap: Arc<Bitmap>) -> Self {
        Self::from_rows(RowSet::Bitmap(bitmap))
    }

    /// Creates a sampler over any [`RowSet`] (shared bitmap or
    /// intersection view). Sampler state (permutation, scratch) is always
    /// fresh; only the row set is shared.
    #[must_use]
    pub fn from_rows(bits: RowSet) -> Self {
        let eligible = bits.count_ones();
        Self {
            bits,
            eligible,
            swaps: SwapMap::for_population(eligible),
            drawn: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Number of eligible rows.
    #[must_use]
    pub fn eligible(&self) -> u64 {
        self.eligible
    }

    /// Rows not yet produced by [`Self::sample_without_replacement`].
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.eligible - self.drawn
    }

    /// The underlying eligible-row set.
    #[must_use]
    pub fn rows(&self) -> &RowSet {
        &self.bits
    }

    /// A uniformly random eligible row id (independent across calls).
    /// `None` if no row is eligible.
    pub fn sample_with_replacement<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        if self.eligible == 0 {
            return None;
        }
        let k = rng.gen_range(0..self.eligible);
        self.bits.select(k)
    }

    /// The next row of a uniformly random permutation of the eligible rows.
    /// `None` once every eligible row has been produced.
    pub fn sample_without_replacement<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        if self.drawn == self.eligible {
            return None;
        }
        // Virtual Fisher–Yates over logical indices [drawn, eligible).
        let j = rng.gen_range(self.drawn..self.eligible);
        let chosen = self.swap_step(j);
        self.bits.select(chosen)
    }

    /// One Fisher–Yates swap: hands out the rank logical slot `j` holds,
    /// moves what slot `drawn` holds into `j`, and retires slot `drawn`.
    /// A slot without an entry holds its own index.
    #[inline]
    fn swap_step(&mut self, j: u64) -> u64 {
        let displaced = self.swaps.remove(self.drawn).unwrap_or(self.drawn);
        let chosen = if j == self.drawn {
            displaced
        } else {
            self.swaps.replace(j, displaced).unwrap_or(j)
        };
        self.drawn += 1;
        chosen
    }

    /// Draws `n` rows with replacement in one batch, appending them to
    /// `out` in draw order; returns the number appended (always `n` unless
    /// the bitmap is empty, in which case `0`).
    ///
    /// Generates all `n` ranks, resolves them through one sorted
    /// [`Bitmap::select_many`] sweep, and unsorts the results. For a fixed
    /// seed the appended rows are identical to `n` calls of
    /// [`Self::sample_with_replacement`].
    pub fn sample_batch_with_replacement<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) -> usize {
        if self.eligible == 0 || n == 0 {
            return 0;
        }
        self.scratch.keys.clear();
        for _ in 0..n {
            self.scratch.keys.push(rng.gen_range(0..self.eligible));
        }
        resolve_in_draw_order(&self.bits, &mut self.scratch, out);
        n
    }

    /// Draws up to `n` further rows of the without-replacement permutation
    /// in one batch, appending them to `out` in draw order; returns the
    /// number appended (`< n` once the population runs dry).
    ///
    /// The virtual Fisher–Yates state advances exactly as under repeated
    /// [`Self::sample_without_replacement`] calls and the RNG is consumed
    /// identically, so for a fixed seed the appended rows are the same
    /// stream. The batch is staged (module docs, *The staged shuffle*): all
    /// slots drawn, all home slots touched, then the swaps in draw order,
    /// then one [`Bitmap::select_many`] over the chosen ranks.
    pub fn sample_batch_without_replacement<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) -> usize {
        let take = n.min((self.eligible - self.drawn) as usize);
        if take == 0 {
            return 0;
        }
        let (drawn, eligible) = (self.drawn, self.eligible);
        let keys = &mut self.scratch.keys;
        keys.clear();
        keys.extend((0..take as u64).map(|i| rng.gen_range(drawn + i..eligible)));
        self.swaps.reserve(take);
        let touched = keys
            .iter()
            .fold(0u64, |acc, &j| acc.wrapping_add(self.swaps.touch(j)));
        std::hint::black_box(touched);
        for i in 0..take {
            self.scratch.keys[i] = self.swap_step(self.scratch.keys[i]);
        }
        resolve_in_draw_order(&self.bits, &mut self.scratch, out);
        take
    }

    /// Resets the without-replacement permutation (a fresh shuffle).
    pub fn reset(&mut self) {
        self.swaps.clear();
        self.drawn = 0;
    }

    /// Captures the without-replacement permutation state: the number of
    /// draws made so far plus every virtual Fisher–Yates swap entry,
    /// **sorted by logical slot** so the result is independent of the swap
    /// table's internal layout. A read-only view of how much state the
    /// sampler carries (the stack benchmark reports swap-map occupancy
    /// through it); the with-replacement path is stateless.
    #[must_use]
    pub fn permutation_state(&self) -> (u64, Vec<(u64, u64)>) {
        let mut entries = Vec::with_capacity(self.swaps.len());
        self.swaps.for_each_entry(|k, v| entries.push((k, v)));
        entries.sort_unstable();
        (self.drawn, entries)
    }
}

/// Resolves the draw-order ranks staged in `scratch.keys` against `bits`
/// via one sorted `select_many` sweep, appending positions to `out` in the
/// original draw order. All intermediate state lives in `scratch` (a
/// window shifts the sorted ranks there), so a warm scratch makes this
/// allocation-free (provided `out` has capacity).
///
/// When ranks and batch size fit (rank < 2^44, batch < 2^20 — any realistic
/// workload), rank and draw index are packed into a single `u64`
/// (`rank << 20 | index`) so the sort runs over plain words: markedly
/// faster than sorting `(u64, u32)` pairs. Batches of [`RADIX_MIN_BATCH`]
/// or more packed keys use the LSD radix sort. Oversized inputs fall back
/// to the pair sort.
fn resolve_in_draw_order(bits: &RowSet, scratch: &mut BatchScratch, out: &mut Vec<u64>) {
    const IDX_BITS: u32 = 20;
    let BatchScratch {
        keys,
        radix,
        sorted,
        positions,
        pairs,
    } = scratch;
    let n = keys.len();
    let max_rank = keys.iter().copied().max().unwrap_or(0);
    let base = out.len();
    if n < (1 << IDX_BITS) && max_rank < (1 << (64 - IDX_BITS)) {
        for (i, r) in keys.iter_mut().enumerate() {
            *r = (*r << IDX_BITS) | i as u64;
        }
        if n >= RADIX_MIN_BATCH {
            radix_sort_u64(keys, radix);
        } else {
            keys.sort_unstable();
        }
        sorted.clear();
        sorted.extend(keys.iter().map(|&p| p >> IDX_BITS));
        positions.clear();
        bits.select_many_in_place(sorted, positions);
        out.resize(base + n, 0);
        let idx_mask = (1u64 << IDX_BITS) - 1;
        for (&packed, &pos) in keys.iter().zip(positions.iter()) {
            out[base + (packed & idx_mask) as usize] = pos;
        }
    } else {
        pairs.clear();
        pairs.extend(keys.iter().copied().zip(0..));
        pairs.sort_unstable();
        sorted.clear();
        sorted.extend(pairs.iter().map(|&(r, _)| r));
        positions.clear();
        bits.select_many_in_place(sorted, positions);
        out.resize(base + n, 0);
        for (&(_, idx), &pos) in pairs.iter().zip(positions.iter()) {
            out[base + idx as usize] = pos;
        }
    }
}

/// Stable LSD radix sort over `u64` keys: 8-bit digits, low byte first,
/// skipping digit positions beyond the maximum key's width and positions
/// where every key shares the digit (the common case for packed
/// `rank << 20 | index` keys, whose top bytes are zero). `tmp` is the
/// ping-pong buffer; after every executed pass the buffers swap, so the
/// sorted run always ends in `keys`.
///
/// Stability makes the result identical to `sort_unstable` whenever keys
/// are distinct — which packed keys always are (the index bits differ).
pub(crate) fn radix_sort_u64(keys: &mut Vec<u64>, tmp: &mut Vec<u64>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let max = keys.iter().copied().max().unwrap_or(0);
    let passes = (64 - max.leading_zeros()).div_ceil(8).max(1) as usize;
    tmp.clear();
    tmp.resize(n, 0);
    for pass in 0..passes {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &k in keys.iter() {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        // A constant digit cannot reorder anything: skip the scatter.
        if counts.contains(&n) {
            continue;
        }
        let mut running = 0usize;
        for c in &mut counts {
            let bucket = *c;
            *c = running;
            running += bucket;
        }
        for &k in keys.iter() {
            let d = ((k >> shift) & 0xFF) as usize;
            tmp[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

/// A sampler that pairs each group-member draw with an unbiased estimate of
/// the group's normalized size (Algorithm 5 support).
#[derive(Debug, Clone)]
pub struct SizeEstimatingSampler {
    inner: BitmapSampler,
    table_rows: u64,
    /// Reusable draw-order row buffer for the batch path.
    rows_buf: Vec<u64>,
}

impl SizeEstimatingSampler {
    /// Creates the sampler; `table_rows` is the total relation size `N`.
    ///
    /// # Panics
    ///
    /// Panics if the bitmap is longer than the stated table size.
    #[must_use]
    pub fn new(bitmap: Bitmap, table_rows: u64) -> Self {
        Self::from_rows(RowSet::from_bitmap(bitmap), table_rows)
    }

    /// Creates the sampler over a shared bitmap without copying it.
    ///
    /// # Panics
    ///
    /// Panics if the bitmap is longer than the stated table size.
    #[must_use]
    pub fn shared(bitmap: Arc<Bitmap>, table_rows: u64) -> Self {
        Self::from_rows(RowSet::Bitmap(bitmap), table_rows)
    }

    /// Creates the sampler over any [`RowSet`].
    ///
    /// # Panics
    ///
    /// Panics if the row set's universe is longer than the stated table
    /// size.
    #[must_use]
    pub fn from_rows(bits: RowSet, table_rows: u64) -> Self {
        assert!(
            bits.len() <= table_rows,
            "bitmap length {} exceeds the relation size {table_rows}",
            bits.len()
        );
        Self {
            inner: BitmapSampler::from_rows(bits),
            table_rows,
            rows_buf: Vec::new(),
        }
    }

    /// Number of eligible rows (the true `n_i`; exposed for verification —
    /// the estimating path never consults it).
    #[must_use]
    pub fn eligible(&self) -> u64 {
        self.inner.eligible()
    }

    /// Draws `(row, z)`: a uniform random group member and an independent
    /// unbiased estimate `z ∈ {0, 1}` of the normalized group size
    /// `s_i = n_i / N`.
    pub fn sample_with_size_estimate<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(u64, f64)> {
        let row = self.inner.sample_with_replacement(rng)?;
        let probe = rng.gen_range(0..self.table_rows);
        let z = if probe < self.inner.rows().len() && self.inner.rows().get(probe) {
            1.0
        } else {
            0.0
        };
        Some((row, z))
    }

    /// Draws `n` `(row, z)` pairs in one batch, appending them to `out` in
    /// draw order; returns the number appended (always `n` unless the group
    /// is empty, in which case `0`).
    ///
    /// The member ranks resolve through one sorted [`Bitmap::select_many`]
    /// sweep while the size probes are answered inline by the in-memory
    /// bitmap (no I/O, exactly as the single-draw path). The RNG is
    /// consumed identically to `n` calls of
    /// [`Self::sample_with_size_estimate`] — rank then probe, per draw — so
    /// a fixed seed yields the same `(row, z)` stream, batched or not.
    pub fn sample_batch_with_size_estimate<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<(u64, f64)>,
    ) -> usize {
        if self.inner.eligible == 0 || n == 0 {
            return 0;
        }
        let base = out.len();
        let table_rows = self.table_rows;
        let BitmapSampler {
            bits,
            eligible,
            scratch,
            ..
        } = &mut self.inner;
        scratch.keys.clear();
        for _ in 0..n {
            scratch.keys.push(rng.gen_range(0..*eligible));
            let probe = rng.gen_range(0..table_rows);
            let z = if probe < bits.len() && bits.get(probe) {
                1.0
            } else {
                0.0
            };
            // Row is patched in after the batched rank resolution below.
            out.push((0, z));
        }
        self.rows_buf.clear();
        resolve_in_draw_order(bits, scratch, &mut self.rows_buf);
        for (slot, &row) in out[base..].iter_mut().zip(&self.rows_buf) {
            slot.0 = row;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bitmap(positions: &[u64], len: u64) -> Bitmap {
        Bitmap::from_sorted_positions(positions, len)
    }

    #[test]
    fn with_replacement_only_eligible_rows() {
        let positions = vec![2, 5, 7, 11];
        let s = BitmapSampler::new(bitmap(&positions, 16));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let row = s.sample_with_replacement(&mut rng).unwrap();
            assert!(positions.contains(&row), "sampled ineligible row {row}");
        }
    }

    #[test]
    fn with_replacement_roughly_uniform() {
        let positions: Vec<u64> = (0..10).map(|i| i * 3).collect();
        let s = BitmapSampler::new(bitmap(&positions, 30));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut counts = std::collections::HashMap::new();
        let draws = 20_000;
        for _ in 0..draws {
            *counts
                .entry(s.sample_with_replacement(&mut rng).unwrap())
                .or_insert(0u32) += 1;
        }
        let expected = draws as f64 / positions.len() as f64;
        for &p in &positions {
            let c = f64::from(counts[&p]);
            assert!(
                (c - expected).abs() < 0.15 * expected,
                "count for {p} was {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn without_replacement_is_a_permutation() {
        let positions: Vec<u64> = vec![1, 4, 9, 16, 25, 36, 49];
        let mut s = BitmapSampler::new(bitmap(&positions, 64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seen = Vec::new();
        while let Some(row) = s.sample_without_replacement(&mut rng) {
            seen.push(row);
        }
        assert_eq!(s.remaining(), 0);
        seen.sort_unstable();
        assert_eq!(seen, positions, "must produce each eligible row once");
        assert_eq!(s.sample_without_replacement(&mut rng), None);
    }

    #[test]
    fn without_replacement_first_draw_uniform() {
        let positions: Vec<u64> = (0..8).collect();
        let mut counts = [0u32; 8];
        for seed in 0..4000 {
            let mut s = BitmapSampler::new(bitmap(&positions, 8));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let row = s.sample_without_replacement(&mut rng).unwrap();
            counts[row as usize] += 1;
        }
        let expected = 4000.0 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) - expected).abs() < 0.25 * expected,
                "first-draw count for {i} was {c}"
            );
        }
    }

    #[test]
    fn reset_restores_full_population() {
        let positions: Vec<u64> = vec![0, 2, 4];
        let mut s = BitmapSampler::new(bitmap(&positions, 6));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = s.sample_without_replacement(&mut rng);
        let _ = s.sample_without_replacement(&mut rng);
        assert_eq!(s.remaining(), 1);
        s.reset();
        assert_eq!(s.remaining(), 3);
        let mut seen = Vec::new();
        while let Some(row) = s.sample_without_replacement(&mut rng) {
            seen.push(row);
        }
        seen.sort_unstable();
        assert_eq!(seen, positions);
    }

    #[test]
    fn permutation_state_entries_are_sorted() {
        let positions: Vec<u64> = (0..500).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 500));
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        for _ in 0..120 {
            let _ = s.sample_without_replacement(&mut rng);
        }
        let (_, entries) = s.permutation_state();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_bitmap_yields_none() {
        let mut s = BitmapSampler::new(Bitmap::zeros(10));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(s.sample_with_replacement(&mut rng), None);
        assert_eq!(s.sample_without_replacement(&mut rng), None);
    }

    #[test]
    fn swap_memory_bounded_by_draws() {
        let positions: Vec<u64> = (0..10_000).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 10_000));
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let _ = s.sample_without_replacement(&mut rng);
        }
        assert!(
            s.swaps.len() <= 100,
            "swap map grew past the number of draws: {}",
            s.swaps.len()
        );
    }

    #[test]
    fn size_estimate_is_unbiased() {
        // Group occupies 3000 of 10_000 rows: s_i = 0.3.
        let positions: Vec<u64> = (4000..7000).collect();
        let s = SizeEstimatingSampler::new(bitmap(&positions, 10_000), 10_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let draws = 30_000;
        let mut z_sum = 0.0;
        for _ in 0..draws {
            let (row, z) = s.sample_with_size_estimate(&mut rng).unwrap();
            assert!((4000..7000).contains(&row));
            z_sum += z;
        }
        let z_mean = z_sum / f64::from(draws);
        assert!(
            (z_mean - 0.3).abs() < 0.02,
            "E[z] should be ~0.3, got {z_mean}"
        );
    }

    #[test]
    fn size_estimate_empty_group() {
        let s = SizeEstimatingSampler::new(Bitmap::zeros(100), 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        assert_eq!(s.sample_with_size_estimate(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the relation size")]
    fn size_estimator_rejects_oversized_bitmap() {
        let _ = SizeEstimatingSampler::new(Bitmap::zeros(101), 100);
    }

    #[test]
    fn batch_with_replacement_matches_single_draw_stream() {
        let positions: Vec<u64> = (0..500).map(|i| i * 7 + 3).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 4000));
        let mut rng_single = rand::rngs::StdRng::seed_from_u64(40);
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(40);
        let singles: Vec<u64> = (0..137)
            .map(|_| s.sample_with_replacement(&mut rng_single).unwrap())
            .collect();
        let mut batched = Vec::new();
        let got = s.sample_batch_with_replacement(137, &mut rng_batch, &mut batched);
        assert_eq!(got, 137);
        assert_eq!(batched, singles, "batch must replay the single-draw stream");
    }

    #[test]
    fn batch_without_replacement_matches_single_draw_stream() {
        let positions: Vec<u64> = (0..300).map(|i| i * 11).collect();
        let mut s1 = BitmapSampler::new(bitmap(&positions, 3300));
        let mut s2 = s1.clone();
        let mut rng_single = rand::rngs::StdRng::seed_from_u64(41);
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(41);
        let singles: Vec<u64> = (0..97)
            .map(|_| s1.sample_without_replacement(&mut rng_single).unwrap())
            .collect();
        let mut batched = Vec::new();
        let got = s2.sample_batch_without_replacement(97, &mut rng_batch, &mut batched);
        assert_eq!(got, 97);
        assert_eq!(batched, singles, "batch must replay the single-draw stream");
        assert_eq!(s1.remaining(), s2.remaining());
    }

    #[test]
    fn batch_without_replacement_truncates_at_exhaustion() {
        let positions: Vec<u64> = vec![1, 5, 9];
        let mut s = BitmapSampler::new(bitmap(&positions, 16));
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut out = Vec::new();
        let got = s.sample_batch_without_replacement(10, &mut rng, &mut out);
        assert_eq!(got, 3);
        assert_eq!(s.remaining(), 0);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, positions);
        assert_eq!(s.sample_batch_without_replacement(4, &mut rng, &mut out), 0);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn batch_on_empty_bitmap_appends_nothing() {
        let mut s = BitmapSampler::new(Bitmap::zeros(32));
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut out = Vec::new();
        assert_eq!(s.sample_batch_with_replacement(8, &mut rng, &mut out), 0);
        assert_eq!(s.sample_batch_without_replacement(8, &mut rng, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_interleaves_with_single_draws() {
        // Mixed single/batch usage continues one permutation.
        let positions: Vec<u64> = (0..64).map(|i| i * 2).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 128));
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut seen = Vec::new();
        seen.push(s.sample_without_replacement(&mut rng).unwrap());
        let mut out = Vec::new();
        s.sample_batch_without_replacement(30, &mut rng, &mut out);
        seen.extend_from_slice(&out);
        while let Some(row) = s.sample_without_replacement(&mut rng) {
            seen.push(row);
        }
        seen.sort_unstable();
        assert_eq!(seen, positions, "mixed draws must still be a permutation");
    }

    #[test]
    fn staged_batches_equal_single_draws_on_every_tiny_population() {
        // Populations of 1..=6 rows, every way of cutting the run into
        // batches (the last one asking for two rows more than are left),
        // 300 seeds each. Small enough that the corners the staging must get
        // right are the common case: a slot drawn twice in one batch, a draw
        // of `j == drawn`, and a batch the population runs dry under.
        let (mut repeated_j, mut j_is_drawn) = (0u32, 0u32);
        for eligible in 1..=6u64 {
            let positions: Vec<u64> = (0..eligible).map(|i| i * 5 + 1).collect();
            let fresh = BitmapSampler::new(bitmap(&positions, 40));
            for cuts in 0..1u32 << (eligible - 1) {
                // Bit `i` of `cuts` set = a batch ends after draw `i`.
                let ends = (0..eligible).filter(|&i| cuts >> i & 1 == 1 || i == eligible - 1);
                let mut sizes = Vec::new();
                let mut start = 0;
                for end in ends {
                    sizes.push((end + 1 - start) as usize);
                    start = end + 1;
                }
                *sizes.last_mut().unwrap() += 2;
                for seed in 0..300 {
                    let (mut singles, mut batched) = (fresh.clone(), fresh.clone());
                    let mut rng_s = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut rng_b = rng_s.clone();
                    for &size in &sizes {
                        // The slots this batch will draw, from a copy of
                        // the generator.
                        let mut peek = rng_b.clone();
                        let js: Vec<u64> = (batched.drawn..eligible)
                            .take(size)
                            .map(|d| peek.gen_range(d..eligible))
                            .collect();
                        repeated_j += u32::from((1..js.len()).any(|i| js[..i].contains(&js[i])));
                        j_is_drawn += u32::from((batched.drawn..).zip(&js).any(|(d, &j)| d == j));
                        let want: Vec<u64> = (0..size)
                            .map_while(|_| singles.sample_without_replacement(&mut rng_s))
                            .collect();
                        let mut got = Vec::new();
                        let n =
                            batched.sample_batch_without_replacement(size, &mut rng_b, &mut got);
                        assert_eq!(n, got.len());
                        assert_eq!(got, want, "n {eligible} split {sizes:?} seed {seed}");
                        assert_eq!(batched.permutation_state(), singles.permutation_state());
                        assert_eq!(rng_b.state(), rng_s.state(), "RNG words consumed");
                    }
                    assert_eq!(batched.remaining(), 0);
                }
            }
        }
        assert!(repeated_j > 1000 && j_is_drawn > 1000);
    }

    #[test]
    fn radix_sized_batch_matches_single_draw_stream() {
        // A batch at RADIX_MIN_BATCH exercises the radix-sort resolve path
        // end to end and must still replay the single-draw stream.
        let positions: Vec<u64> = (0..30_000).map(|i| i * 3 + 1).collect();
        let s = BitmapSampler::new(bitmap(&positions, 100_000));
        let mut s2 = s.clone();
        let mut rng_single = rand::rngs::StdRng::seed_from_u64(50);
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(50);
        let singles: Vec<u64> = (0..RADIX_MIN_BATCH)
            .map(|_| s.sample_with_replacement(&mut rng_single).unwrap())
            .collect();
        let mut batched = Vec::new();
        let got = s2.sample_batch_with_replacement(RADIX_MIN_BATCH, &mut rng_batch, &mut batched);
        assert_eq!(got, RADIX_MIN_BATCH);
        assert_eq!(batched, singles, "radix path must replay the stream");
    }

    #[test]
    fn size_estimate_batch_matches_single_draw_stream() {
        let positions: Vec<u64> = (2000..5000).collect();
        let s = SizeEstimatingSampler::new(bitmap(&positions, 10_000), 10_000);
        let mut s2 = s.clone();
        let mut rng_single = rand::rngs::StdRng::seed_from_u64(60);
        let mut rng_batch = rand::rngs::StdRng::seed_from_u64(60);
        let singles: Vec<(u64, f64)> = (0..257)
            .map(|_| s.sample_with_size_estimate(&mut rng_single).unwrap())
            .collect();
        let mut batched = Vec::new();
        let got = s2.sample_batch_with_size_estimate(257, &mut rng_batch, &mut batched);
        assert_eq!(got, 257);
        assert_eq!(batched, singles, "size-estimate batch must replay stream");
    }

    #[test]
    fn size_estimate_batch_on_empty_group_appends_nothing() {
        let mut s = SizeEstimatingSampler::new(Bitmap::zeros(100), 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut out = Vec::new();
        assert_eq!(s.sample_batch_with_size_estimate(8, &mut rng, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn rowset_views_agree_on_queries() {
        let positions: Vec<u64> = vec![2, 5, 7, 64, 65, 200, 999];
        let as_bitmap = RowSet::from_bitmap(bitmap(&positions, 1000));
        let as_positions = RowSet::Positions {
            positions: Arc::new(positions.clone()),
            universe: 1000,
        };
        for set in [&as_bitmap, &as_positions] {
            assert_eq!(set.len(), 1000);
            assert!(!set.is_empty());
            assert_eq!(set.count_ones(), positions.len() as u64);
            assert_eq!(set.iter_ones().collect::<Vec<_>>(), positions);
            for (k, &p) in positions.iter().enumerate() {
                assert!(set.get(p));
                assert_eq!(set.select(k as u64), Some(p));
            }
            assert!(!set.get(3));
            assert_eq!(set.select(positions.len() as u64), None);
            let ks: Vec<u64> = vec![0, 0, 2, 6];
            let mut out = Vec::new();
            set.select_many(&ks, &mut out);
            assert_eq!(out, vec![2, 2, 7, 999]);
        }
        assert!(as_positions.heap_bytes() < as_bitmap.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rowset_positions_select_many_rejects_oob_rank() {
        let set = RowSet::Positions {
            positions: Arc::new(vec![1, 2]),
            universe: 10,
        };
        let mut out = Vec::new();
        set.select_many(&[0, 2], &mut out);
    }

    #[test]
    fn positions_view_replays_bitmap_sampler_stream() {
        // A sampler over the intersection *view* must consume the RNG and
        // produce rows exactly as one over the equivalent bitmap — the
        // invariant that makes the engine's selectivity cutover invisible
        // to fixed-seed results.
        let positions: Vec<u64> = (0..400).map(|i| i * 5 + 2).collect();
        let mut over_bitmap = BitmapSampler::new(bitmap(&positions, 4000));
        let mut over_view = BitmapSampler::from_rows(RowSet::Positions {
            positions: Arc::new(positions.clone()),
            universe: 4000,
        });
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(70);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(70);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        over_bitmap.sample_batch_with_replacement(97, &mut rng_a, &mut out_a);
        over_view.sample_batch_with_replacement(97, &mut rng_b, &mut out_b);
        assert_eq!(out_a, out_b, "WR batches must match across views");
        for _ in 0..150 {
            assert_eq!(
                over_bitmap.sample_without_replacement(&mut rng_a),
                over_view.sample_without_replacement(&mut rng_b),
                "WOR singles must match across views"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rowset_window_select_many_rejects_oob_rank() {
        let set = RowSet::Window {
            bits: Arc::new(Bitmap::ones(10)),
            first: 3,
            count: 2,
        };
        let mut out = Vec::new();
        set.select_many(&[0, 2], &mut out);
    }

    #[test]
    fn window_view_replays_bitmap_sampler_stream() {
        // The window over ranks 100..400 of a bitmap is the bitmap of those
        // rows: a sampler over either draws the same rows, batched or not.
        let all: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let bits = Arc::new(bitmap(&all, 3000));
        let mut over_bitmap = BitmapSampler::new(bitmap(&all[100..400], 3000));
        let mut over_window = BitmapSampler::from_rows(RowSet::Window {
            bits,
            first: 100,
            count: 300,
        });
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(71);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(71);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        over_bitmap.sample_batch_with_replacement(97, &mut rng_a, &mut out_a);
        over_window.sample_batch_with_replacement(97, &mut rng_b, &mut out_b);
        over_bitmap.sample_batch_without_replacement(120, &mut rng_a, &mut out_a);
        over_window.sample_batch_without_replacement(120, &mut rng_b, &mut out_b);
        assert_eq!(out_a, out_b);
        for _ in 0..50 {
            assert_eq!(
                over_bitmap.sample_without_replacement(&mut rng_a),
                over_window.sample_without_replacement(&mut rng_b)
            );
        }
    }

    #[test]
    fn batch_with_replacement_roughly_uniform() {
        let positions: Vec<u64> = (0..10).map(|i| i * 3).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 30));
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let mut out = Vec::new();
        s.sample_batch_with_replacement(20_000, &mut rng, &mut out);
        let mut counts = std::collections::HashMap::new();
        for row in out {
            *counts.entry(row).or_insert(0u32) += 1;
        }
        let expected = 20_000.0 / positions.len() as f64;
        for &p in &positions {
            let c = f64::from(counts[&p]);
            assert!(
                (c - expected).abs() < 0.15 * expected,
                "count for {p} was {c}, expected ~{expected}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        /// Without-replacement sampling is always a permutation of the
        /// eligible rows, for any bitmap and seed.
        #[test]
        fn permutation_property(
            positions in proptest::collection::btree_set(0u64..2000, 1..64),
            len_extra in 0u64..100,
            seed in 0u64..1000,
        ) {
            let positions: Vec<u64> = positions.into_iter().collect();
            let len = positions.last().unwrap() + 1 + len_extra;
            let mut s = BitmapSampler::new(Bitmap::from_sorted_positions(&positions, len));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut seen = Vec::new();
            while let Some(row) = s.sample_without_replacement(&mut rng) {
                seen.push(row);
            }
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted, positions, "not a permutation: {:?}", seen);
        }

        /// Batched without-replacement draws over the full population are an
        /// exact permutation of the eligible rows, for any bitmap, seed, and
        /// batch size.
        #[test]
        fn batch_permutation_property(
            positions in proptest::collection::btree_set(0u64..2000, 1..64),
            len_extra in 0u64..100,
            seed in 0u64..1000,
            batch in 1usize..17,
        ) {
            let positions: Vec<u64> = positions.into_iter().collect();
            let len = positions.last().unwrap() + 1 + len_extra;
            let mut s = BitmapSampler::new(Bitmap::from_sorted_positions(&positions, len));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut seen = Vec::new();
            loop {
                let got = s.sample_batch_without_replacement(batch, &mut rng, &mut seen);
                if got == 0 {
                    break;
                }
            }
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted, positions, "not a permutation: {:?}", seen);
        }

        /// Batched draws replay the single-draw stream exactly, in both
        /// regimes, for any bitmap/seed/batch split — so batching can never
        /// change an algorithm's output for a fixed seed.
        #[test]
        fn batch_equals_single_stream(
            positions in proptest::collection::btree_set(0u64..3000, 1..128),
            seed in 0u64..1000,
            n in 1usize..80,
        ) {
            let positions: Vec<u64> = positions.into_iter().collect();
            let len = positions.last().unwrap() + 1;
            let bm = Bitmap::from_sorted_positions(&positions, len);

            // With replacement.
            let mut s = BitmapSampler::new(bm.clone());
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
            let singles: Vec<u64> = (0..n)
                .map(|_| s.sample_with_replacement(&mut rng_a).unwrap())
                .collect();
            let mut batched = Vec::new();
            s.sample_batch_with_replacement(n, &mut rng_b, &mut batched);
            prop_assert_eq!(&batched, &singles);

            // Without replacement.
            let mut s1 = BitmapSampler::new(bm.clone());
            let mut s2 = BitmapSampler::new(bm);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
            let take = n.min(positions.len());
            let singles: Vec<u64> = (0..take)
                .map(|_| s1.sample_without_replacement(&mut rng_a).unwrap())
                .collect();
            let mut batched = Vec::new();
            let got = s2.sample_batch_without_replacement(n, &mut rng_b, &mut batched);
            prop_assert_eq!(got, take);
            prop_assert_eq!(&batched, &singles);
        }

        /// The LSD radix sort and the packed-u64 comparison sort order any
        /// distinct-key batch identically, so the two resolve paths can
        /// never disagree on draw order.
        #[test]
        fn radix_sort_matches_comparison_sort(
            ranks in proptest::collection::vec(0u64..(1 << 44), 1..600),
            seed in 0u64..1000,
        ) {
            // Pack exactly like resolve_in_draw_order: rank << 20 | index,
            // keys distinct by construction. Perturb with the seed so the
            // high bytes (and thus the pass-skipping logic) vary.
            let mut keys: Vec<u64> = ranks
                .iter()
                .enumerate()
                .map(|(i, &r)| (r.wrapping_add(seed) % (1 << 44)) << 20 | i as u64)
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            let mut tmp = Vec::new();
            radix_sort_u64(&mut keys, &mut tmp);
            prop_assert_eq!(keys, expected);
        }

        /// A rank window over `[s, e)` of a bitmap is the bitmap's ones
        /// inside the row range, and the range `[s, e)` itself is every row
        /// in it: every query agrees with intersecting the bitmap (or the
        /// all-rows bitmap) with the range.
        #[test]
        fn window_matches_range_intersection(
            positions in proptest::collection::btree_set(0u64..3000, 0..200),
            len_extra in 1u64..200,
            cut_a in 0u64..3200,
            cut_b in 0u64..3200,
            seed in 0u64..1000,
        ) {
            let positions: Vec<u64> = positions.into_iter().collect();
            let len = positions.last().map_or(0, |&p| p + 1) + len_extra;
            let (s, e) = (cut_a.min(cut_b) % (len + 1), cut_a.max(cut_b) % (len + 1));
            let (s, e) = (s.min(e), s.max(e));
            let range: Vec<u64> = (s..e).collect();
            let range = Bitmap::from_sorted_positions(&range, len);
            let rows = |set: &Bitmap| {
                let mut expect = Vec::new();
                set.intersect_positions(&range, &mut expect);
                expect
            };
            let bits = Bitmap::from_sorted_positions(&positions, len);
            let first = bits.rank(s);
            let cases = [
                (
                    rows(&bits),
                    RowSet::Window {
                        count: bits.rank(e) - first,
                        bits: Arc::new(bits),
                        first,
                    },
                ),
                (
                    rows(&Bitmap::ones(len)),
                    RowSet::Range { start: s, count: e - s, universe: len },
                ),
            ];
            for (expect, set) in cases {
                prop_assert_eq!(set.len(), len);
                prop_assert_eq!(set.count_ones(), expect.len() as u64);
                prop_assert_eq!(set.iter_ones().collect::<Vec<_>>(), expect.clone());
                for (k, &p) in expect.iter().enumerate() {
                    prop_assert_eq!(set.select(k as u64), Some(p));
                }
                prop_assert_eq!(set.select(expect.len() as u64), None);
                for pos in 0..len {
                    prop_assert_eq!(set.get(pos), expect.binary_search(&pos).is_ok());
                }
                if !expect.is_empty() {
                    let n = expect.len() as u64;
                    let mut ks: Vec<u64> = (0..40)
                        .map(|i| seed.wrapping_mul(i * 2 + 1).wrapping_add(i * i) % n)
                        .collect();
                    ks.sort_unstable();
                    let want: Vec<u64> = ks.iter().map(|&k| expect[k as usize]).collect();
                    let mut out = Vec::new();
                    set.select_many(&ks, &mut out);
                    prop_assert_eq!(&out, &want);
                    out.clear();
                    set.select_many_in_place(&mut ks, &mut out);
                    prop_assert_eq!(&out, &want);
                }
            }
        }

        /// Batched size-estimating draws replay the single-draw (row, z)
        /// stream exactly, for any bitmap/relation-size/seed/batch.
        #[test]
        fn size_estimate_batch_equals_single_stream(
            positions in proptest::collection::btree_set(0u64..2000, 1..100),
            rows_extra in 0u64..500,
            seed in 0u64..1000,
            n in 1usize..60,
        ) {
            let positions: Vec<u64> = positions.into_iter().collect();
            let len = positions.last().unwrap() + 1;
            let bm = Bitmap::from_sorted_positions(&positions, len);
            let s = SizeEstimatingSampler::new(bm, len + rows_extra);
            let mut s2 = s.clone();
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
            let singles: Vec<(u64, f64)> = (0..n)
                .map(|_| s.sample_with_size_estimate(&mut rng_a).unwrap())
                .collect();
            let mut batched = Vec::new();
            let got = s2.sample_batch_with_size_estimate(n, &mut rng_b, &mut batched);
            prop_assert_eq!(got, n);
            prop_assert_eq!(&batched, &singles);
        }
    }
}
