//! Compressed, rank/select-capable bitmaps — NEEDLETAIL's index primitive.
//!
//! Two physical representations share the logical [`Bitmap`] interface:
//!
//! * [`DenseBitmap`] — a plain `u64`-word bitvector augmented with a
//!   superblock rank directory, giving `O(1)` rank and `O(log n)` select.
//!   This is the "hierarchically organized" bitmap of §4: finding the `j`-th
//!   matching tuple costs a binary search over superblocks (logarithmic in
//!   the number of records) plus a bounded word scan.
//! * [`RleBitmap`] — run-length encoding with full boolean algebra
//!   (AND/OR/NOT performed directly on runs) and `O(log #runs)` select via
//!   cumulative one-counts. Dramatically smaller for the clustered or sparse
//!   bitmaps that group-by attributes typically produce.
//!
//! [`Bitmap`] picks whichever representation is smaller when sealing a
//! freshly built index ([`Bitmap::optimize`]).

mod dense;
mod rle;

pub use dense::DenseBitmap;
pub use rle::RleBitmap;

/// A logical bitmap over tuple positions `0..len`, in either physical
/// representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bitmap {
    /// Dense bitvector with a rank directory.
    Dense(DenseBitmap),
    /// Run-length-encoded representation.
    Rle(RleBitmap),
}

impl Bitmap {
    /// An all-zeros bitmap of the given length.
    #[must_use]
    pub fn zeros(len: u64) -> Self {
        Bitmap::Rle(RleBitmap::zeros(len))
    }

    /// An all-ones bitmap of the given length.
    #[must_use]
    pub fn ones(len: u64) -> Self {
        Bitmap::Rle(RleBitmap::ones(len))
    }

    /// Builds a bitmap from the sorted, de-duplicated positions of set bits.
    ///
    /// # Panics
    ///
    /// Panics if positions are not strictly increasing or exceed `len`.
    #[must_use]
    pub fn from_sorted_positions(positions: &[u64], len: u64) -> Self {
        Bitmap::Dense(DenseBitmap::from_sorted_positions(positions, len))
    }

    /// Number of addressable positions.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            Bitmap::Dense(d) => d.len(),
            Bitmap::Rle(r) => r.len(),
        }
    }

    /// Whether the bitmap has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        match self {
            Bitmap::Dense(d) => d.count_ones(),
            Bitmap::Rle(r) => r.count_ones(),
        }
    }

    /// Value of the bit at `pos`.
    #[must_use]
    pub fn get(&self, pos: u64) -> bool {
        match self {
            Bitmap::Dense(d) => d.get(pos),
            Bitmap::Rle(r) => r.get(pos),
        }
    }

    /// Number of set bits strictly before `pos`.
    #[must_use]
    pub fn rank(&self, pos: u64) -> u64 {
        match self {
            Bitmap::Dense(d) => d.rank(pos),
            Bitmap::Rle(r) => r.rank(pos),
        }
    }

    /// Position of the `k`-th set bit (0-based). `None` if `k >= count_ones`.
    #[must_use]
    pub fn select(&self, k: u64) -> Option<u64> {
        match self {
            Bitmap::Dense(d) => d.select(k),
            Bitmap::Rle(r) => r.select(k),
        }
    }

    /// Resolves a **sorted** batch of ranks, appending the position of each
    /// `k`-th set bit to `out` in input order — the positions one
    /// [`Self::select`] per rank would return. See
    /// [`DenseBitmap::select_many`] / [`RleBitmap::select_many`] for the
    /// per-representation cost model: the dense form stages the batch so
    /// its cache misses overlap, the RLE form walks its runs once.
    ///
    /// # Panics
    ///
    /// Panics if any rank is `>= count_ones()`.
    pub fn select_many(&self, sorted_ks: &[u64], out: &mut Vec<u64>) {
        match self {
            Bitmap::Dense(d) => d.select_many(sorted_ks, out),
            Bitmap::Rle(r) => r.select_many(sorted_ks, out),
        }
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len(), other.len(), "bitmap lengths must match");
        match (self, other) {
            (Bitmap::Rle(a), Bitmap::Rle(b)) => Bitmap::Rle(a.and(b)),
            _ => Bitmap::Dense(self.to_dense().and(&other.to_dense())),
        }
    }

    /// Appends the set-bit positions of `self AND other`, ascending,
    /// without materializing the intersection bitmap or its rank
    /// directory. Dense pairs AND word pairs in registers and decode the
    /// survivors; mixed/RLE pairs gallop over the sparser operand's set
    /// bits and membership-test the other — the cost scales with
    /// `min(|self|, |other|)`, not the table length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersect_positions(&self, other: &Bitmap, out: &mut Vec<u64>) {
        assert_eq!(self.len(), other.len(), "bitmap lengths must match");
        match (self, other) {
            (Bitmap::Dense(a), Bitmap::Dense(b)) => a.intersect_positions(b, out),
            _ => {
                let (sparse, tested) = if self.count_ones() <= other.count_ones() {
                    (self, other)
                } else {
                    (other, self)
                };
                out.extend(sparse.iter_ones().filter(|&p| tested.get(p)));
            }
        }
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len(), other.len(), "bitmap lengths must match");
        match (self, other) {
            (Bitmap::Rle(a), Bitmap::Rle(b)) => Bitmap::Rle(a.or(b)),
            _ => Bitmap::Dense(self.to_dense().or(&other.to_dense())),
        }
    }

    /// Bitwise NOT (within `0..len`).
    #[must_use]
    pub fn not(&self) -> Bitmap {
        match self {
            Bitmap::Dense(d) => Bitmap::Dense(d.not()),
            Bitmap::Rle(r) => Bitmap::Rle(r.not()),
        }
    }

    /// Iterator over the positions of set bits, ascending.
    pub fn iter_ones(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            Bitmap::Dense(d) => Box::new(d.iter_ones()),
            Bitmap::Rle(r) => Box::new(r.iter_ones()),
        }
    }

    /// Materializes a dense copy.
    #[must_use]
    pub fn to_dense(&self) -> DenseBitmap {
        match self {
            Bitmap::Dense(d) => d.clone(),
            Bitmap::Rle(r) => r.to_dense(),
        }
    }

    /// Materializes an RLE copy.
    #[must_use]
    pub fn to_rle(&self) -> RleBitmap {
        match self {
            Bitmap::Dense(d) => RleBitmap::from_dense(d),
            Bitmap::Rle(r) => r.clone(),
        }
    }

    /// Approximate heap footprint in bytes of the current representation.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            Bitmap::Dense(d) => d.heap_bytes(),
            Bitmap::Rle(r) => r.heap_bytes(),
        }
    }

    /// Re-encodes into whichever representation is smaller (ties keep the
    /// current one). Index sealing calls this per distinct value.
    #[must_use]
    pub fn optimize(self) -> Bitmap {
        let rle = self.to_rle();
        let dense_bytes = DenseBitmap::projected_heap_bytes(self.len());
        if rle.heap_bytes() < dense_bytes {
            Bitmap::Rle(rle)
        } else {
            match self {
                d @ Bitmap::Dense(_) => d,
                Bitmap::Rle(r) => Bitmap::Dense(r.to_dense()),
            }
        }
    }
}

impl From<DenseBitmap> for Bitmap {
    fn from(d: DenseBitmap) -> Self {
        Bitmap::Dense(d)
    }
}

impl From<RleBitmap> for Bitmap {
    fn from(r: RleBitmap) -> Self {
        Bitmap::Rle(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_positions() -> Vec<u64> {
        vec![0, 3, 4, 63, 64, 65, 200, 511, 512, 999]
    }

    fn both_reps(positions: &[u64], len: u64) -> [Bitmap; 2] {
        let dense = Bitmap::from_sorted_positions(positions, len);
        let rle = Bitmap::Rle(dense.to_rle());
        [dense, rle]
    }

    #[test]
    fn representations_agree_on_queries() {
        let pos = sample_positions();
        for bm in both_reps(&pos, 1000) {
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
    }

    #[test]
    fn boolean_algebra_matches_naive() {
        let a_pos = vec![1, 2, 3, 10, 50, 63, 64, 99];
        let b_pos = vec![2, 3, 7, 50, 65, 98, 99];
        let len = 100;
        for a in both_reps(&a_pos, len) {
            for b in both_reps(&b_pos, len) {
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
    fn optimize_prefers_rle_for_sparse() {
        let bm = Bitmap::from_sorted_positions(&[5, 100_000], 1_000_000);
        let opt = bm.optimize();
        assert!(matches!(opt, Bitmap::Rle(_)), "sparse bitmap should go RLE");
        assert_eq!(opt.count_ones(), 2);
    }

    #[test]
    fn optimize_prefers_dense_for_noise() {
        // Alternating bits: worst case for RLE.
        let positions: Vec<u64> = (0..4096).step_by(2).collect();
        let bm = Bitmap::from_sorted_positions(&positions, 4096);
        let opt = bm.optimize();
        assert!(
            matches!(opt, Bitmap::Dense(_)),
            "noisy bitmap should stay dense"
        );
        assert_eq!(opt.count_ones(), 2048);
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

    prop_compose! {
        fn arb_positions(max_len: u64)
            (len in 1..max_len)
            (positions in proptest::collection::btree_set(0..len, 0..128), len in Just(len))
            -> (Vec<u64>, u64)
        {
            (positions.into_iter().collect(), len)
        }
    }

    proptest! {
        #[test]
        fn rank_select_roundtrip((pos, len) in arb_positions(5000)) {
            let bm = Bitmap::from_sorted_positions(&pos, len);
            for rep in [bm.clone(), Bitmap::Rle(bm.to_rle())] {
                for (k, &p) in pos.iter().enumerate() {
                    prop_assert_eq!(rep.select(k as u64), Some(p));
                    prop_assert_eq!(rep.rank(p), k as u64);
                    prop_assert_eq!(rep.rank(p + 1), k as u64 + 1);
                }
            }
        }

        #[test]
        fn algebra_agrees_across_representations(
            (a_pos, len) in arb_positions(2000),
            seed in 0u64..1000,
        ) {
            // Derive a second position set deterministically from the seed.
            let b_pos: Vec<u64> = a_pos
                .iter()
                .map(|p| (p + seed) % len)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let a_d = Bitmap::from_sorted_positions(&a_pos, len);
            let b_d = Bitmap::from_sorted_positions(&b_pos, len);
            let a_r = Bitmap::Rle(a_d.to_rle());
            let b_r = Bitmap::Rle(b_d.to_rle());
            let dd = a_d.and(&b_d);
            let rr = a_r.and(&b_r);
            prop_assert_eq!(
                dd.iter_ones().collect::<Vec<_>>(),
                rr.iter_ones().collect::<Vec<_>>()
            );
            let dd = a_d.or(&b_d);
            let rr = a_r.or(&b_r);
            prop_assert_eq!(
                dd.iter_ones().collect::<Vec<_>>(),
                rr.iter_ones().collect::<Vec<_>>()
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
                for rep in [bm.clone(), Bitmap::Rle(bm.to_rle())] {
                    let mut out = Vec::new();
                    rep.select_many(&ks, &mut out);
                    let expect: Vec<u64> = ks.iter().map(|&k| rep.select(k).unwrap()).collect();
                    prop_assert_eq!(&out, &expect);
                }
            }
        }

        #[test]
        fn intersection_agrees_with_materialized_and(
            (a_pos, len) in arb_positions(2000),
            seed in 0u64..1000,
        ) {
            // Derive a second position set deterministically from the seed.
            let b_pos: Vec<u64> = a_pos
                .iter()
                .map(|p| (p + seed) % len)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let a_d = Bitmap::from_sorted_positions(&a_pos, len);
            let b_d = Bitmap::from_sorted_positions(&b_pos, len);
            // Every representation pairing must agree with the
            // materialized AND on the intersection positions.
            for a in [a_d.clone(), Bitmap::Rle(a_d.to_rle())] {
                for b in [b_d.clone(), Bitmap::Rle(b_d.to_rle())] {
                    let and = a.and(&b);
                    let mut out = Vec::new();
                    a.intersect_positions(&b, &mut out);
                    prop_assert_eq!(out.len() as u64, and.count_ones());
                    prop_assert_eq!(out, and.iter_ones().collect::<Vec<_>>());
                }
            }
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

        #[test]
        fn optimize_preserves_content((pos, len) in arb_positions(3000)) {
            let bm = Bitmap::from_sorted_positions(&pos, len);
            let opt = bm.clone().optimize();
            prop_assert_eq!(opt.len(), bm.len());
            prop_assert_eq!(
                opt.iter_ones().collect::<Vec<_>>(),
                bm.iter_ones().collect::<Vec<_>>()
            );
        }
    }
}
