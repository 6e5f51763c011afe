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
//! * **Without replacement** — a *keyed pseudo-random permutation*: draw
//!   `d` returns the eligible row of rank `π_K(d)`, where `π_K` is a
//!   bijection on `[0, eligible)` keyed by one RNG word `K`. The sampler's
//!   whole state is `(K, d)`, so memory does not grow with the draws, and
//!   every eligible row is produced exactly once over the sampler's
//!   lifetime.
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
//! `n` ranks first and then resolve them. Without replacement the ranks
//! `π_K(drawn..drawn + n)` go through the network side by side (*The keyed
//! permutation*). A [`RowSet::Range`] or [`RowSet::Positions`] resolves a
//! rank with one add or one load, so it maps the ranks in draw order; only
//! a [`RowSet::Bitmap`] or [`RowSet::Window`] sorts them, resolves them
//! through one sorted [`Bitmap::select_many`] call, and restores draw
//! order. The batch paths consume the RNG identically to `n` single draws,
//! so for a fixed seed they return the **same stream of rows** — batching
//! is a pure throughput optimization with no statistical or
//! reproducibility cost.
//! [`SizeEstimatingSampler::sample_batch_with_size_estimate`] extends the
//! same contract to Algorithm 5's `(row, z)` pairs.
//!
//! ## The keyed permutation
//!
//! `π_K` is a small-domain Feistel network with cycle-walking (Black and
//! Rogaway, "Ciphers with Arbitrary Finite Domains", CT-RSA 2002). A rank
//! is split into two halves of the smallest power-of-two domain
//! `2^b ≥ eligible`, unbalanced when `b` is odd so the domain stays under
//! `2·eligible`. Each of six rounds XORs one half with a keyed SplitMix64
//! finalizer of the other and swaps them; an output `≥ eligible` is
//! enciphered again until it lands in range, fewer than two times per draw
//! on average. Six rounds mix a domain of 256 ranks or more, but not a
//! smaller one: with halves of one to three bits, (π_K(0), π_K(1)) stays
//! measurably non-uniform even at twelve rounds. So `b` is at least 8, and
//! a group of fewer than 256 rows walks up to `256 / eligible` times per
//! draw, which its few draws afford. A batch enciphers `LANES` ranks at a
//! time, round by round, so their independent multiply chains overlap
//! instead of each waiting on the last, and then cycle-walks the ranks that
//! landed out of range, again `LANES` at a time; each rank still takes
//! exactly the encipherings a single draw gives it. The round keys are
//! expanded from `K`, which the sampler takes from the RNG at its first
//! without-replacement draw, so with-replacement streams never see it.
//! [`BitmapSampler::reset`] drops `K`: the next draw starts a fresh
//! permutation.
//!
//! **What this assumes.** Hoeffding–Serfling is proved for a uniformly
//! random permutation; `π_K` is one of at most `2^64` pseudo-random ones.
//! The guarantee carries over when (1) the data is independent of `K` — `K`
//! comes from the session RNG after the table exists, so no row order can
//! depend on it — and (2) the round function is strong enough that no
//! structured row order shows bias. (2) is an empirical claim. This
//! module's tests check it at the permutation: a bijection on every domain
//! up to 4,097 and around every power of two up to `2^24`, chi-square
//! uniformity of `π_K(0)` and of `(π_K(0), π_K(1))` over many keys, and the
//! hypergeometric mean and variance of the first draws from a group sorted
//! by row id. `rapidviz-sim`'s calibration grid checks it at the answer:
//! its without-replacement adversarial-order cells (values sorted by row
//! id, periodic values of period 2 and 64, blocked values inside one
//! contiguous row range, a Zipf-skewed group column) run IFOCUS and
//! ROUNDROBIN sessions through this sampler and bound their mis-ordering
//! rate by `δ`.
//!
//! ## The scratch arena
//!
//! Every sampler owns a [`BatchScratch`]: the draw-order ranks, and for
//! the two shapes that sort (a bitmap and a window) the sorted-rank staging
//! buffer, the `select_many` output, and the radix-sort ping-pong buffer,
//! all live in reusable vectors, so after the first batch of a size the
//! batch path performs **zero heap allocation at steady state** (verified
//! by a counting-allocator test). Batches of [`RADIX_MIN_BATCH`] keys or
//! more are sorted with a stable LSD radix sort over the packed words
//! instead of comparison sorting; since packed keys are distinct, both
//! sorts produce the identical resolve order (property-tested).

use crate::bitmap::Bitmap;
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

    /// Calls `f` on every eligible row id, ascending, allocating nothing:
    /// a range counts through its rows, positions and a bitmap are walked
    /// in order, and a window is one `select` of its first row followed by
    /// a walk over its bitmap's set bits.
    pub fn for_each_row(&self, f: impl FnMut(u64)) {
        match self {
            RowSet::Range { start, count, .. } => (*start..start + count).for_each(f),
            RowSet::Bitmap(bm) => bm.iter_ones().for_each(f),
            RowSet::Positions { positions, .. } => positions.iter().copied().for_each(f),
            RowSet::Window { bits, first, count } => {
                if let Some(start) = bits.select(*first) {
                    let count = usize::try_from(*count).unwrap_or(usize::MAX);
                    bits.iter_ones_from(start).take(count).for_each(f);
                }
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
/// size. All buffers are cleared (not shrunk) between batches; a range or
/// positions view only ever uses `keys`.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Draw-order ranks; for a bitmap or window, packed in place to
    /// `rank << 20 | draw_index` and sorted.
    keys: Vec<u64>,
    /// Radix-sort ping-pong buffer (bitmap and window only).
    radix: Vec<u64>,
    /// Sorted ranks handed to [`Bitmap::select_many`] (bitmap and window
    /// only).
    sorted: Vec<u64>,
    /// Positions returned by `select_many` in sorted-rank order (bitmap
    /// and window only).
    positions: Vec<u64>,
    /// Fallback sort pairs for oversized ranks/batches (rank ≥ 2^44 or
    /// batch ≥ 2^20); never used by realistic workloads.
    pairs: Vec<(u64, u64)>,
}

/// Rounds of the Feistel network behind the without-replacement order
/// (module docs, *The keyed permutation*). Even, so the unbalanced halves
/// end at the widths they started from.
const FEISTEL_ROUNDS: usize = 6;

/// The network's smallest domain is `2^MIN_DOMAIN_BITS` ranks.
const MIN_DOMAIN_BITS: u32 = 8;

/// Ranks a batch pushes through the network side by side: enough
/// independent multiply chains to keep the multiplier busy while each
/// chain waits on its own last result.
const LANES: usize = 8;

/// The keyed bijection `π_K` on `[0, n)`: a Feistel network over `2^b ≥ n`
/// ranks, cycle-walked back into range.
#[derive(Debug, Clone, Copy)]
struct Permutation {
    /// Round keys, expanded from `K`.
    keys: [u64; FEISTEL_ROUNDS],
    /// The domain size `n`.
    n: u64,
    /// Widths of the high and low half at the first round (`high + low = b`).
    high: u32,
    low: u32,
}

impl Permutation {
    fn new(key: u64, n: u64) -> Self {
        let bits = (64 - n.saturating_sub(1).leading_zeros()).max(MIN_DOMAIN_BITS);
        let mut state = key;
        let keys = std::array::from_fn(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(state)
        });
        Self {
            keys,
            n,
            high: bits.div_ceil(2),
            low: bits / 2,
        }
    }

    /// `π_K(i)` for `i < n`: encipher, and re-encipher while out of range.
    #[inline]
    fn rank(&self, i: u64) -> u64 {
        let mut x = self.encipher(i);
        while x >= self.n {
            x = self.encipher(x);
        }
        x
    }

    /// Replaces every `i < n` in `xs` by `π_K(i)`, equal rank for rank to
    /// [`Self::rank`]: the network runs over [`LANES`] ranks at a time,
    /// then the ranks left `≥ n` cycle-walk through a window of `LANES`
    /// slots, each slot refilled from the batch as its walk lands in range.
    /// The last fewer than `LANES` ranks, and walks, go one at a time: a
    /// part-empty lane pass costs more than the few single ranks it would
    /// replace, which made batches of one to four draws slower.
    fn rank_many(&self, xs: &mut [u64]) {
        let mut chunks = xs.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let mut lanes = [0; LANES];
            lanes.copy_from_slice(chunk);
            chunk.copy_from_slice(&self.encipher_lanes(lanes));
        }
        for x in chunks.into_remainder() {
            *x = self.rank(*x);
        }
        // `slot[j]` is where walk `j` writes back.
        let (mut slot, mut lanes) = ([0usize; LANES], [0u64; LANES]);
        let (mut live, mut next) = (0, 0);
        loop {
            while live < LANES && next < xs.len() {
                if xs[next] >= self.n {
                    (slot[live], lanes[live]) = (next, xs[next]);
                    live += 1;
                }
                next += 1;
            }
            if live < LANES {
                break;
            }
            lanes = self.encipher_lanes(lanes);
            let mut j = 0;
            while j < live {
                if lanes[j] < self.n {
                    xs[slot[j]] = lanes[j];
                    live -= 1;
                    (slot[j], lanes[j]) = (slot[live], lanes[live]);
                } else {
                    j += 1;
                }
            }
        }
        // Walking on from an out-of-range rank is what `rank` does after
        // its first encipherment.
        for (&i, &x) in slot[..live].iter().zip(&lanes[..live]) {
            xs[i] = self.rank(x);
        }
    }

    /// One pass of the network over the power-of-two domain: [`round`] with
    /// each round key in turn.
    #[inline]
    fn encipher(&self, x: u64) -> u64 {
        let (mut wl, mut wr) = (self.high, self.low);
        let (mut l, mut r) = (x >> wr, x & mask(wr));
        for &key in &self.keys {
            (l, r) = round(l, r, key, wl);
            (wl, wr) = (wr, wl);
        }
        (l << wr) | r
    }

    /// [`Self::encipher`] over [`LANES`] ranks, every rank taking round `j`
    /// before any takes round `j + 1`, so their chains interleave.
    #[inline]
    fn encipher_lanes(&self, xs: [u64; LANES]) -> [u64; LANES] {
        let (mut wl, mut wr) = (self.high, self.low);
        let (mut l, mut r) = (xs.map(|x| x >> wr), xs.map(|x| x & mask(wr)));
        for &key in &self.keys {
            for (l, r) in l.iter_mut().zip(&mut r) {
                (*l, *r) = round(*l, *r, key, wl);
            }
            (wl, wr) = (wr, wl);
        }
        std::array::from_fn(|i| (l[i] << wr) | r[i])
    }
}

/// One Feistel round: halves `(l, r)` of widths `(wl, wr)` become
/// `(r, l ^ F(r))` of widths `(wr, wl)`, where `F` is the keyed SplitMix64
/// finalizer cut to `wl` bits.
#[inline]
fn round(l: u64, r: u64, key: u64, wl: u32) -> (u64, u64) {
    (r, l ^ (mix(r ^ key) & mask(wl)))
}

/// The low `w` bits.
#[inline]
fn mask(w: u32) -> u64 {
    (1 << w) - 1
}

/// SplitMix64's finalizer: a full-avalanche bijection on `u64` (also the
/// fault injector's row hash).
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform random sampler over the set bits of a bitmap (or any
/// [`RowSet`] view of one).
///
/// Without replacement, draw `d` is the row of rank `π_K(d)`, a keyed
/// pseudo-random permutation (module docs, *The keyed permutation*, which
/// state what the guarantee assumes of it: data independent of `K`, and a
/// round function strong enough that no structured row order shows bias).
#[derive(Debug, Clone)]
pub struct BitmapSampler {
    bits: RowSet,
    eligible: u64,
    /// `π_K`, keyed at the first without-replacement draw.
    order: Option<Permutation>,
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
            order: None,
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

    /// The next row of the keyed pseudo-random permutation of the eligible
    /// rows. `None` once every eligible row has been produced. The first
    /// draw takes the key from `rng`; later draws consume no RNG words.
    pub fn sample_without_replacement<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        if self.drawn == self.eligible {
            return None;
        }
        let rank = self.order(rng).rank(self.drawn);
        self.drawn += 1;
        self.bits.select(rank)
    }

    /// `π_K`, keyed from `rng` if no draw has keyed it yet.
    fn order<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Permutation {
        *self
            .order
            .get_or_insert_with(|| Permutation::new(rng.next_u64(), self.eligible))
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
    /// The batch is `π_K` over ranks `drawn..drawn + n`, computed in place
    /// `LANES` ranks at a time and resolved as the module docs' *Batched
    /// draws* describe; the RNG is consumed as by `n` calls of
    /// [`Self::sample_without_replacement`] (the key, if this is the first
    /// draw, and nothing else), so the rows are the same stream.
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
        let order = self.order(rng);
        let keys = &mut self.scratch.keys;
        keys.clear();
        keys.extend(self.drawn..self.drawn + take as u64);
        order.rank_many(keys);
        self.drawn += take as u64;
        resolve_in_draw_order(&self.bits, &mut self.scratch, out);
        take
    }

    /// Resets the without-replacement permutation: the next draw takes a
    /// fresh key.
    pub fn reset(&mut self) {
        self.order = None;
        self.drawn = 0;
    }

    /// The without-replacement state in the shape the stack benchmark
    /// reads: the number of draws made so far, and per-draw entries, of
    /// which there are none: the keyed permutation's whole state is
    /// `(K, drawn)`, and `K` is not exposed.
    #[must_use]
    pub fn permutation_state(&self) -> (u64, Vec<(u64, u64)>) {
        (self.drawn, Vec::new())
    }
}

/// Resolves the draw-order ranks staged in `scratch.keys` against `bits`,
/// appending positions to `out` in draw order. A range returns `start + k`
/// and a positions view `positions[k]`, rank by rank: no pack, sort,
/// `select_many` or unsort. A bitmap or window resolves through one sorted
/// [`Bitmap::select_many`] sweep, a window's ranks shifted by its `first`
/// as they are staged. All intermediate state lives in `scratch`, so a
/// warm scratch makes this allocation-free (provided `out` has capacity).
///
/// When ranks and batch size fit (rank < 2^44, batch < 2^20 — any realistic
/// workload), rank and draw index are packed into a single `u64`
/// (`rank << 20 | index`) so the sort runs over plain words: markedly
/// faster than sorting `(u64, u32)` pairs. Batches of [`RADIX_MIN_BATCH`]
/// or more packed keys use the LSD radix sort. Oversized inputs fall back
/// to the pair sort.
fn resolve_in_draw_order(bits: &RowSet, scratch: &mut BatchScratch, out: &mut Vec<u64>) {
    const IDX_BITS: u32 = 20;
    let (bm, first, count) = match bits {
        RowSet::Range { start, .. } => return out.extend(scratch.keys.iter().map(|&k| start + k)),
        RowSet::Positions { positions, .. } => {
            return out.extend(scratch.keys.iter().map(|&k| positions[k as usize]));
        }
        RowSet::Bitmap(bm) => (bm, 0, bm.count_ones()),
        RowSet::Window { bits, first, count } => (bits, *first, *count),
    };
    let BatchScratch {
        keys,
        radix,
        sorted,
        positions,
        pairs,
    } = scratch;
    let n = keys.len();
    let max_rank = keys.iter().copied().max().unwrap_or(0);
    assert!(n == 0 || max_rank < count, "rank out of range");
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
        sorted.extend(keys.iter().map(|&p| (p >> IDX_BITS) + first));
        positions.clear();
        bm.select_many(sorted, positions);
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
        sorted.extend(pairs.iter().map(|&(r, _)| r + first));
        positions.clear();
        bm.select_many(sorted, positions);
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
    use rand::{RngCore, SeedableRng};

    /// The set's rows as [`RowSet::for_each_row`] visits them.
    pub(super) fn ones(set: &RowSet) -> Vec<u64> {
        let mut rows = Vec::new();
        set.for_each_row(|row| rows.push(row));
        rows
    }

    fn bitmap(positions: &[u64], len: u64) -> Bitmap {
        Bitmap::from_sorted_positions(positions, len)
    }

    /// Whether `π_K` maps `[0, n)` onto itself.
    fn is_bijection(key: u64, n: u64) -> bool {
        let pi = Permutation::new(key, n);
        let mut seen = vec![false; n as usize];
        (0..n).all(|i| {
            let r = pi.rank(i);
            r < n && !std::mem::replace(&mut seen[r as usize], true)
        })
    }

    #[test]
    fn the_keyed_permutation_is_a_bijection_on_every_small_domain() {
        for n in 1..=4_097u64 {
            for key in [0, n, 0x9e37_79b9_7f4a_7c15 ^ n] {
                assert!(is_bijection(key, n), "n {n} key {key:#x}");
            }
        }
    }

    #[test]
    fn the_keyed_permutation_is_a_bijection_around_every_power_of_two() {
        for k in 1..=24u32 {
            for n in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                assert!(is_bijection(u64::from(k) << 40 | n, n), "n {n}");
            }
        }
    }

    /// `π_K(i)` by [`Permutation::encipher`] walked at most `2^b` times
    /// (every cycle of the network is that short), failing with the domain
    /// and offset of the batch it belongs to instead of walking forever.
    fn walked(pi: &Permutation, i: u64, offset: u64) -> u64 {
        let mut x = pi.encipher(i);
        for _ in 0..1u64 << (pi.high + pi.low) {
            if x < pi.n {
                return x;
            }
            x = pi.encipher(x);
        }
        panic!(
            "n {} offset {offset}: rank {i} never walks into range",
            pi.n
        );
    }

    #[test]
    fn batched_ranks_equal_single_ranks() {
        // Every bijection-test domain, each batch length from the start of
        // the permutation and from its middle: `rank_many` must give each
        // rank exactly what the single-rank walk gives it (8 is the lane
        // count, 4,097 more than a window's worth of walks). `rank_many`
        // walks with `rank`, which walks forever from a value a wrong lane
        // pass left off every in-range cycle, or on a network that is no
        // bijection; so the lane pass is held to `encipher`, over in-range
        // and out-of-range values, and the bounded reference walk runs
        // before `rank_many` does.
        let domains = (1..=4_097u64).chain((1..=24u32).flat_map(|k| {
            let p = 1u64 << k;
            [p - 1, p, p + 1]
        }));
        for n in domains {
            let pi = Permutation::new(mix(n), n);
            let domain = 1u64 << (pi.high + pi.low);
            for offset in [0, n / 2] {
                for start in [offset, n + offset % (domain - n + 1)] {
                    let lanes: [u64; LANES] = std::array::from_fn(|j| (start + j as u64) % domain);
                    let single = lanes.map(|x| pi.encipher(x));
                    assert_eq!(
                        pi.encipher_lanes(lanes),
                        single,
                        "n {n} offset {offset} lanes"
                    );
                }
                for len in [1u64, 7, 8, 9, 255, 256, 4_097] {
                    let end = n.min(offset + len);
                    let single: Vec<u64> = (offset..end).map(|i| walked(&pi, i, offset)).collect();
                    let mut batch: Vec<u64> = (offset..end).collect();
                    pi.rank_many(&mut batch);
                    assert_eq!(batch, single, "n {n} offset {offset} len {len}");
                }
            }
        }
    }

    /// Pearson's statistic of `counts` against a uniform expectation, and
    /// the bound it must sit under: the mean `df` plus five standard
    /// deviations `√(2·df)` (a tail far below 1e-5 for these `df`).
    fn chi_square(counts: &[u64]) -> (f64, f64) {
        let total: u64 = counts.iter().sum();
        let expected = total as f64 / counts.len() as f64;
        let stat = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let df = (counts.len() - 1) as f64;
        (stat, df + 5.0 * (2.0 * df).sqrt())
    }

    #[test]
    fn first_ranks_are_uniform_over_keys() {
        // π_K(0) over 60,000 keys, and the pair (π_K(0), π_K(1)) over
        // 300,000 keys (≥ 74 expected per cell at n = 64); n = 5 and 300
        // have an odd `b` before the floor of 256, and 300 after it.
        for n in [3u64, 5, 10, 64, 300] {
            let key = |i: u64| mix(i.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ n);
            let mut first = vec![0u64; n as usize];
            for i in 0..60_000 {
                first[Permutation::new(key(i), n).rank(0) as usize] += 1;
            }
            let (stat, bound) = chi_square(&first);
            assert!(stat < bound, "π_K(0), n {n}: chi-square {stat} ≥ {bound}");
            if n > 64 {
                continue;
            }
            let mut pairs = vec![0u64; (n * n) as usize];
            for i in 0..300_000 {
                let pi = Permutation::new(key(i), n);
                pairs[(pi.rank(0) * n + pi.rank(1)) as usize] += 1;
            }
            // The diagonal is impossible for a bijection; test the rest.
            assert!((0..n).all(|a| pairs[(a * n + a) as usize] == 0));
            let off: Vec<u64> = (0..n * n)
                .filter(|c| c / n != c % n)
                .map(|c| pairs[c as usize])
                .collect();
            let (stat, bound) = chi_square(&off);
            assert!(stat < bound, "pairs, n {n}: chi-square {stat} ≥ {bound}");
        }
    }

    #[test]
    fn first_draws_from_a_sorted_group_are_hypergeometric() {
        // A group whose values are its row ids (so sorted by row id): the
        // mean of the first m draws has the finite-population moments
        // E = μ and Var = σ²/m · (N − m)/(N − 1). Over 20,000 keys the
        // observed mean must sit within 4 standard errors of μ, and the
        // observed variance within 6 % of the formula (about 4.2 standard
        // errors of a variance estimate from 20,000 draws).
        let n = 1_000u64;
        let rows = RowSet::Range {
            start: 0,
            count: n,
            universe: n,
        };
        let mu = (n - 1) as f64 / 2.0;
        let sigma2 = (n * n - 1) as f64 / 12.0;
        let keys = 20_000u32;
        for m in [10usize, 100, 500] {
            let mut out = Vec::with_capacity(m);
            let means: Vec<f64> = (0..keys)
                .map(|seed| {
                    let mut s = BitmapSampler::from_rows(rows.clone());
                    let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(seed));
                    out.clear();
                    s.sample_batch_without_replacement(m, &mut rng, &mut out);
                    out.iter().sum::<u64>() as f64 / m as f64
                })
                .collect();
            let var = sigma2 / m as f64 * (n - m as u64) as f64 / (n - 1) as f64;
            let observed = means.iter().sum::<f64>() / f64::from(keys);
            let spread =
                means.iter().map(|x| (x - observed).powi(2)).sum::<f64>() / f64::from(keys - 1);
            let se = (var / f64::from(keys)).sqrt();
            assert!(
                (observed - mu).abs() < 4.0 * se,
                "m {m}: mean {observed} vs {mu}"
            );
            assert!(
                (spread / var - 1.0).abs() < 0.06,
                "m {m}: variance {spread} vs {var}"
            );
        }
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
    fn permutation_state_reports_draws_and_no_entries() {
        let positions: Vec<u64> = (0..500).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 500));
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        for _ in 0..120 {
            let _ = s.sample_without_replacement(&mut rng);
        }
        assert_eq!(s.permutation_state(), (120, Vec::new()));
    }

    #[test]
    fn empty_bitmap_yields_none() {
        let mut s = BitmapSampler::new(Bitmap::zeros(10));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(s.sample_with_replacement(&mut rng), None);
        assert_eq!(s.sample_without_replacement(&mut rng), None);
    }

    #[test]
    fn the_key_is_the_only_rng_word_a_permutation_takes() {
        // The first draw takes one word and the rest none, so the RNG
        // leaves a whole run exactly one word ahead; `reset` takes another.
        let positions: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let mut s = BitmapSampler::new(bitmap(&positions, 2000));
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut ahead = rng.clone();
        let _ = ahead.next_u64();
        let mut out = Vec::new();
        s.sample_batch_without_replacement(300, &mut rng, &mut out);
        while s.sample_without_replacement(&mut rng).is_some() {}
        assert_eq!(rng.state(), ahead.state());
        s.reset();
        let _ = s.sample_without_replacement(&mut rng);
        let _ = ahead.next_u64();
        assert_eq!(rng.state(), ahead.state());
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
    fn batches_equal_single_draws_on_every_tiny_population() {
        // Populations of 1..=6 rows, every way of cutting the run into
        // batches (the last one asking for two rows more than are left),
        // 300 seeds each: the same rows, and the same RNG words consumed.
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
                        let want: Vec<u64> = (0..size)
                            .map_while(|_| singles.sample_without_replacement(&mut rng_s))
                            .collect();
                        let mut got = Vec::new();
                        let n =
                            batched.sample_batch_without_replacement(size, &mut rng_b, &mut got);
                        assert_eq!(n, got.len());
                        assert_eq!(got, want, "n {eligible} split {sizes:?} seed {seed}");
                        assert_eq!(rng_b.state(), rng_s.state(), "RNG words consumed");
                    }
                    assert_eq!(batched.remaining(), 0);
                }
            }
        }
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
            assert_eq!(ones(set), positions);
            for (k, &p) in positions.iter().enumerate() {
                assert!(set.get(p));
                assert_eq!(set.select(k as u64), Some(p));
            }
            assert!(!set.get(3));
            assert_eq!(set.select(positions.len() as u64), None);
            let mut scratch = BatchScratch::default();
            scratch.keys.extend([6, 0, 2, 0]);
            let mut out = Vec::new();
            resolve_in_draw_order(set, &mut scratch, &mut out);
            assert_eq!(out, vec![999, 2, 7, 2]);
        }
        assert!(as_positions.heap_bytes() < as_bitmap.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn positions_batch_rejects_oob_rank() {
        let set = RowSet::Positions {
            positions: Arc::new(vec![1, 2]),
            universe: 10,
        };
        let mut scratch = BatchScratch::default();
        scratch.keys.extend([0, 2]);
        resolve_in_draw_order(&set, &mut scratch, &mut Vec::new());
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
        let mut scratch = BatchScratch::default();
        scratch.keys.extend([2, 0]);
        resolve_in_draw_order(&set, &mut scratch, &mut Vec::new());
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
    fn every_row_set_shape_replays_single_draws_in_batches_of_16_and_256() {
        // A range and a positions view map ranks in draw order, a bitmap
        // and a window sort them: all four must replay single draws.
        let rows: Vec<u64> = (0..3_000).map(|i| i * 3 + 1).collect();
        let bits = Arc::new(bitmap(&rows, 9_001));
        let shapes = [
            RowSet::Range {
                start: 40,
                count: 3_000,
                universe: 9_001,
            },
            RowSet::Positions {
                positions: Arc::new(rows.clone()),
                universe: 9_001,
            },
            RowSet::Bitmap(Arc::clone(&bits)),
            RowSet::Window {
                bits,
                first: 500,
                count: 2_000,
            },
        ];
        for set in shapes {
            for batch in [16, 256] {
                let mut singles = BitmapSampler::from_rows(set.clone());
                let mut batched = singles.clone();
                let mut rng_s = rand::rngs::StdRng::seed_from_u64(batch as u64);
                let mut rng_b = rng_s.clone();
                let mut got = Vec::new();
                for _ in 0..5 {
                    batched.sample_batch_with_replacement(batch, &mut rng_b, &mut got);
                    batched.sample_batch_without_replacement(batch, &mut rng_b, &mut got);
                }
                let mut want = Vec::new();
                for _ in 0..5 {
                    want.extend((0..batch).map(|_| singles.sample_with_replacement(&mut rng_s)));
                    want.extend((0..batch).map(|_| singles.sample_without_replacement(&mut rng_s)));
                }
                let want: Vec<u64> = want.into_iter().flatten().collect();
                assert_eq!(got, want, "{set:?} in batches of {batch}");
                assert_eq!(rng_b.state(), rng_s.state());
            }
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
    use super::tests::ones;
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
        /// regimes, for any bitmap/seed/batch split, and without
        /// replacement so do single draws mixed with batches — so batching
        /// can never change an algorithm's output for a fixed seed.
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

            // Mixed: a single draw, then alternating batches of `n` and
            // single draws, to exhaustion: the same stream again.
            let mut s3 = BitmapSampler::new(Bitmap::from_sorted_positions(&positions, len));
            let mut rng_c = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut all_singles: Vec<u64> = singles.clone();
            all_singles.extend(std::iter::from_fn(|| s1.sample_without_replacement(&mut rng_a)));
            let mut mixed = Vec::new();
            while s3.remaining() > 0 {
                mixed.extend(s3.sample_without_replacement(&mut rng_c));
                s3.sample_batch_without_replacement(n, &mut rng_c, &mut mixed);
            }
            prop_assert_eq!(&mixed, &all_singles);
            prop_assert_eq!(rng_c.state(), rng_a.state());
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
                prop_assert_eq!(ones(&set), expect.clone());
                for (k, &p) in expect.iter().enumerate() {
                    prop_assert_eq!(set.select(k as u64), Some(p));
                }
                prop_assert_eq!(set.select(expect.len() as u64), None);
                for pos in 0..len {
                    prop_assert_eq!(set.get(pos), expect.binary_search(&pos).is_ok());
                }
                if !expect.is_empty() {
                    let n = expect.len() as u64;
                    let mut scratch = BatchScratch::default();
                    scratch.keys.extend(
                        (0..40).map(|i| seed.wrapping_mul(i * 2 + 1).wrapping_add(i * i) % n),
                    );
                    let want: Vec<u64> =
                        scratch.keys.iter().map(|&k| expect[k as usize]).collect();
                    let mut out = Vec::new();
                    resolve_in_draw_order(&set, &mut scratch, &mut out);
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
