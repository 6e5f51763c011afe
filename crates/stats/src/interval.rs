//! Closed-interval arithmetic for confidence intervals.
//!
//! The active-set test of Algorithm 1 (line 11) asks whether the confidence
//! interval of group `i` intersects the union of the confidence intervals of
//! all *other* active groups. [`Interval`] provides the pointwise operations
//! and [`IntervalSetScratch`] answers that union-overlap query in `O(log n)`
//! per probe after an `O(n log n)` build, which keeps the per-round
//! bookkeeping cost at `O(k log k)` as analyzed in §3.4 of the paper.

/// A closed interval `[lo, hi]` on the real line.
///
/// Invariant: `lo <= hi` (enforced by [`Interval::new`], which sorts the
/// endpoints). Degenerate (single-point) intervals are allowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`, swapping the endpoints if given out of order.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is NaN; confidence intervals must be real.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval endpoints must not be NaN"
        );
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// The confidence interval `[center - half_width, center + half_width]`.
    ///
    /// Negative half-widths are treated as zero (a point interval), which is
    /// the correct degenerate behaviour when a schedule clamps to zero.
    #[must_use]
    pub fn centered(center: f64, half_width: f64) -> Self {
        let h = half_width.max(0.0);
        Self::new(center - h, center + h)
    }

    /// Interval width `hi - lo`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    #[must_use]
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `x` lies inside the closed interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether two closed intervals intersect (shared endpoints count).
    ///
    /// Touching intervals *do* overlap: the paper's termination condition
    /// requires intervals to be disjoint, and treating tangency as overlap is
    /// the conservative choice (never stops early).
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether this interval lies strictly below `other` (no intersection).
    #[must_use]
    pub fn strictly_below(&self, other: &Interval) -> bool {
        self.hi < other.lo
    }

    /// The intersection of two intervals, if non-empty.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// The smallest interval containing both inputs.
    #[must_use]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// Best and second-best `(hi, index)` pairs for the exclusion trick.
#[derive(Debug, Clone, Copy)]
struct BestPair {
    best_val: f64,
    best_idx: usize,
    second_val: f64,
}

/// A set of intervals supporting fast "does this interval hit any member
/// other than one excluded index?" queries, built `begin` / `push` /
/// `build` and rebuilt in place.
///
/// Internally the member intervals are sorted by lower endpoint together
/// with prefix maxima of `hi`, so that the exclusion query runs in
/// `O(log n)`: for a probe `q` and excluded member `x`, `q` overlaps some
/// member `!= x` iff there exists `j != x` with `lo_j <= q.hi` and
/// `hi_j >= q.lo`, answered from the prefix of members starting at or
/// below `q.hi`, skipping `x` via second-best tracking.
///
/// Every internal buffer (members, sort order, prefix maxima) is retained
/// across rebuilds, so a warmed scratch performs **zero heap allocation**
/// per rebuild. This is what the per-round deactivation fixpoints of the
/// IFOCUS family iterate on.
#[derive(Debug, Clone, Default)]
pub struct IntervalSetScratch {
    /// Member intervals in insertion order (index-addressable).
    members: Vec<Interval>,
    /// Indices sorted by `lo` (ties broken by index, so rebuilds are
    /// deterministic).
    by_lo: Vec<usize>,
    /// `prefix_best[t]` = best and second-best `hi` over `by_lo[..=t]`.
    prefix_best: Vec<BestPair>,
}

impl IntervalSetScratch {
    /// Creates an empty scratch (no buffers reserved yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new set, clearing members but keeping buffer capacity.
    pub fn begin(&mut self) {
        self.members.clear();
    }

    /// Adds a member interval; its index is the insertion position.
    pub fn push(&mut self, member: Interval) {
        self.members.push(member);
    }

    /// Sorts and indexes the pushed members, making the query methods
    /// valid. Allocation-free once the buffers have grown to the largest
    /// member count seen.
    pub fn build(&mut self) {
        self.by_lo.clear();
        self.by_lo.extend(0..self.members.len());
        // Unstable sort (no merge buffer); the index tiebreak keeps the
        // order — and therefore every downstream query — deterministic.
        self.by_lo.sort_unstable_by(|&a, &b| {
            self.members[a]
                .lo
                .total_cmp(&self.members[b].lo)
                .then(a.cmp(&b))
        });
        self.prefix_best.clear();
        self.prefix_best.reserve(self.members.len());
        let mut best = BestPair {
            best_val: f64::NEG_INFINITY,
            best_idx: usize::MAX,
            second_val: f64::NEG_INFINITY,
        };
        for &idx in &self.by_lo {
            let hi = self.members[idx].hi;
            if hi > best.best_val {
                best.second_val = best.best_val;
                best.best_val = hi;
                best.best_idx = idx;
            } else if hi > best.second_val {
                best.second_val = hi;
            }
            self.prefix_best.push(best);
        }
    }

    /// Number of member intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Approximate resident bytes of the retained buffers (capacities, not
    /// lengths) — feeds the algorithm layer's per-session memory
    /// accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.members.capacity() * size_of::<Interval>()
            + self.by_lo.capacity() * size_of::<usize>()
            + self.prefix_best.capacity() * size_of::<BestPair>()
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns the member at `idx`.
    #[must_use]
    pub fn member(&self, idx: usize) -> Interval {
        self.members[idx]
    }

    /// Does `probe` overlap any member whose index differs from `exclude`?
    ///
    /// Pass `exclude = usize::MAX` (or any out-of-range index) to test
    /// against every member. Runs in `O(log n)`. Requires [`Self::build`]
    /// after the last `push`.
    #[must_use]
    pub fn overlaps_any_excluding(&self, probe: &Interval, exclude: usize) -> bool {
        if self.members.is_empty() {
            return false;
        }
        debug_assert_eq!(self.prefix_best.len(), self.members.len(), "not built");
        // Find the last sorted position whose lo <= probe.hi.
        let pos = self
            .by_lo
            .partition_point(|&i| self.members[i].lo <= probe.hi);
        if pos == 0 {
            return false;
        }
        let best = self.prefix_best[pos - 1];
        // Among members with lo <= probe.hi, is there one (other than
        // `exclude`) with hi >= probe.lo?
        if best.best_idx != exclude {
            best.best_val >= probe.lo
        } else {
            best.second_val >= probe.lo
        }
    }

    /// Does member `idx` overlap any *other* member of the set?
    ///
    /// This is exactly the activity test of Algorithm 1 line 11.
    #[must_use]
    pub fn member_overlaps_others(&self, idx: usize) -> bool {
        self.overlaps_any_excluding(&self.members[idx], idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    /// A freshly built set over `members`.
    pub(super) fn set_of(members: &[Interval]) -> IntervalSetScratch {
        let mut set = IntervalSetScratch::new();
        members.iter().for_each(|&member| set.push(member));
        set.build();
        set
    }

    #[test]
    fn new_sorts_endpoints() {
        let i = Interval::new(3.0, 1.0);
        assert_eq!(i.lo, 1.0);
        assert_eq!(i.hi, 3.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn new_rejects_nan() {
        let _ = Interval::new(f64::NAN, 1.0);
    }

    #[test]
    fn centered_clamps_negative_half_width() {
        let i = Interval::centered(5.0, -1.0);
        assert_eq!(i.lo, 5.0);
        assert_eq!(i.hi, 5.0);
        assert_eq!(i.width(), 0.0);
    }

    #[test]
    fn centered_basic() {
        let i = Interval::centered(10.0, 2.5);
        assert_eq!(i.lo, 7.5);
        assert_eq!(i.hi, 12.5);
        assert_eq!(i.center(), 10.0);
        assert_eq!(i.width(), 5.0);
    }

    #[test]
    fn contains_endpoints() {
        let i = iv(1.0, 2.0);
        assert!(i.contains(1.0));
        assert!(i.contains(2.0));
        assert!(i.contains(1.5));
        assert!(!i.contains(0.999));
        assert!(!i.contains(2.001));
    }

    #[test]
    fn overlap_is_symmetric_and_counts_tangency() {
        let a = iv(0.0, 1.0);
        let b = iv(1.0, 2.0);
        let c = iv(1.5, 3.0);
        let d = iv(2.5, 4.0);
        assert!(
            a.overlaps(&b) && b.overlaps(&a),
            "tangent intervals overlap"
        );
        assert!(b.overlaps(&c) && c.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(c.overlaps(&d));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn strictly_below() {
        assert!(iv(0.0, 1.0).strictly_below(&iv(1.1, 2.0)));
        assert!(!iv(0.0, 1.0).strictly_below(&iv(1.0, 2.0)));
        assert!(!iv(0.0, 1.0).strictly_below(&iv(0.5, 2.0)));
    }

    #[test]
    fn intersect_and_hull() {
        let a = iv(0.0, 2.0);
        let b = iv(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(iv(1.0, 2.0)));
        assert_eq!(a.hull(&b), iv(0.0, 3.0));
        assert_eq!(a.intersect(&iv(5.0, 6.0)), None);
    }

    /// Brute-force oracle for the exclusion query.
    fn naive_overlaps_any_excluding(
        members: &[Interval],
        probe: &Interval,
        exclude: usize,
    ) -> bool {
        members
            .iter()
            .enumerate()
            .any(|(i, m)| i != exclude && m.overlaps(probe))
    }

    #[test]
    fn interval_set_matches_naive_small() {
        let members = vec![iv(0.0, 1.0), iv(0.5, 2.0), iv(3.0, 4.0), iv(4.0, 5.0)];
        let set = set_of(&members);
        for exclude in 0..=members.len() {
            for probe in &[iv(0.0, 0.4), iv(0.9, 3.1), iv(6.0, 7.0), iv(4.5, 4.6)] {
                assert_eq!(
                    set.overlaps_any_excluding(probe, exclude),
                    naive_overlaps_any_excluding(&members, probe, exclude),
                    "probe={probe:?} exclude={exclude}"
                );
            }
        }
    }

    #[test]
    fn member_overlaps_others_basic() {
        // Groups 0/1 overlap each other; 2 is isolated; 3/4 touch.
        let set = set_of(&[
            iv(0.0, 1.0),
            iv(0.5, 1.5),
            iv(10.0, 11.0),
            iv(20.0, 21.0),
            iv(21.0, 22.0),
        ]);
        assert!(set.member_overlaps_others(0));
        assert!(set.member_overlaps_others(1));
        assert!(!set.member_overlaps_others(2));
        assert!(set.member_overlaps_others(3), "tangency counts as overlap");
        assert!(set.member_overlaps_others(4));
    }

    #[test]
    fn singleton_set_never_overlaps() {
        let set = set_of(&[iv(0.0, 100.0)]);
        assert!(!set.member_overlaps_others(0));
    }

    #[test]
    fn empty_set() {
        let set = set_of(&[]);
        assert!(set.is_empty());
        assert!(!set.overlaps_any_excluding(&iv(0.0, 1.0), usize::MAX));
    }

    #[test]
    fn duplicate_intervals_overlap_each_other() {
        let set = set_of(&[iv(1.0, 2.0), iv(1.0, 2.0)]);
        assert!(set.member_overlaps_others(0));
        assert!(set.member_overlaps_others(1));
    }

    #[test]
    fn scratch_rebuild_matches_fresh_set() {
        // A reused scratch must answer exactly like a freshly built set,
        // across rebuilds of different sizes (shrinking included).
        let rounds: Vec<Vec<Interval>> = vec![
            vec![iv(0.0, 1.0), iv(0.5, 2.0), iv(3.0, 4.0), iv(4.0, 5.0)],
            vec![iv(10.0, 11.0), iv(10.5, 12.0)],
            vec![iv(-3.0, -1.0), iv(-2.0, 0.0), iv(5.0, 6.0)],
            vec![iv(7.0, 8.0)],
        ];
        let mut scratch = IntervalSetScratch::new();
        for members in rounds {
            scratch.begin();
            for &m in &members {
                scratch.push(m);
            }
            scratch.build();
            let fresh = set_of(&members);
            assert_eq!(scratch.len(), fresh.len());
            for i in 0..members.len() {
                assert_eq!(
                    scratch.member_overlaps_others(i),
                    fresh.member_overlaps_others(i),
                    "member {i} of {members:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::set_of;
    use super::*;
    use proptest::prelude::*;

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-100.0f64..100.0, 0.0f64..50.0).prop_map(|(lo, w)| Interval::new(lo, lo + w))
    }

    proptest! {
        #[test]
        fn overlap_symmetric(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn intersect_nonempty_iff_overlap(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.intersect(&b).is_some(), a.overlaps(&b));
        }

        #[test]
        fn hull_contains_both(a in arb_interval(), b in arb_interval()) {
            let h = a.hull(&b);
            prop_assert!(h.lo <= a.lo && h.hi >= a.hi);
            prop_assert!(h.lo <= b.lo && h.hi >= b.hi);
        }

        #[test]
        fn set_query_matches_naive(
            members in proptest::collection::vec(arb_interval(), 0..24),
            probe in arb_interval(),
            exclude in 0usize..30,
        ) {
            let set = set_of(&members);
            let naive = members
                .iter()
                .enumerate()
                .any(|(i, m)| i != exclude && m.overlaps(&probe));
            prop_assert_eq!(set.overlaps_any_excluding(&probe, exclude), naive);
        }

        #[test]
        fn member_query_matches_naive(
            members in proptest::collection::vec(arb_interval(), 1..24),
        ) {
            let set = set_of(&members);
            for i in 0..members.len() {
                let naive = members
                    .iter()
                    .enumerate()
                    .any(|(j, m)| j != i && m.overlaps(&members[i]));
                prop_assert_eq!(set.member_overlaps_others(i), naive);
            }
        }
    }
}
