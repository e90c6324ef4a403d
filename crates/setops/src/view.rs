//! A unified view over the two set representations the enumeration
//! kernels work with: strictly increasing `u32` slices and packed
//! `u64` bitmap rows over a small dense universe.
//!
//! Every driver used to hand-pick among `intersect_into` /
//! `intersect_count` / `intersect_first` / `is_subset` on raw slices.
//! [`SetView`] closes that choice behind one operation set: the caller
//! holds a view of a neighborhood (however it is represented) and asks
//! for the operation it needs against a sorted probe slice; the view
//! dispatches to the merge/gallop kernels or to word probes.
//!
//! The probe operand is always a strictly increasing slice — in the
//! enumeration loops it is the current `L` set (or a derived candidate
//! list), which stays materialized as a sorted vector in every
//! algorithm. Outputs are strictly increasing slices too, so a bitmap
//! row and a sorted row of the same set are observably interchangeable
//! (property-tested below).

/// Which intersection kernels an enumeration run may use.
///
/// This is an execution hint: it never changes which bicliques are
/// produced or in which order, only how the set intersections inside
/// the hot loop are computed. The differential tests force the pure
/// variants against each other and against the default. The MBET engine
/// also runs its nodes with `|L'| ≤ 64` on one-word keys under every
/// variant but `SortedOnly`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Choose per node: bitmap rows where the local universe is small
    /// and the probe/row size ratio favors word probes, sorted slices
    /// (merge/gallop adaptive) elsewhere. The production default.
    #[default]
    Adaptive,
    /// Sorted-slice kernels only; bitmap rows are never built. For MBET,
    /// the trie everywhere: no one-word keys, the paper's representation
    /// and the differential tests' reference.
    SortedOnly,
    /// Bitmap rows whenever a local universe exists (local-graph rows
    /// are always packed); slices remain only where no dense universe
    /// is available (global adjacency).
    BitmapOnly,
}

/// A borrowed, read-only view of a vertex set in one of the two
/// kernel representations.
///
/// `Sorted` wraps a strictly increasing id slice. `Bits` wraps packed
/// 64-bit words over a dense local universe: bit `i` of word `i / 64`
/// is set iff local id `i` is a member; trailing bits of the last
/// word are zero.
#[derive(Clone, Copy, Debug)]
pub enum SetView<'a> {
    /// Strictly increasing ids (global or local — the view does not
    /// care, only that probes use the same id space).
    Sorted(&'a [u32]),
    /// Packed membership words over a dense local universe.
    Bits(&'a [u64]),
}

/// A strictly increasing probe whose last element is `len - 1` can
/// only be the identity range `[0..len)` — intersecting with it is a
/// prefix cut. Localized enumeration probes with the full left
/// universe at every root node, so this single compare converts the
/// hottest probe shape into a binary search.
#[inline]
fn is_identity_range(probe: &[u32]) -> bool {
    probe.last().is_some_and(|&m| m as usize == probe.len() - 1)
}

impl<'a> SetView<'a> {
    /// Membership test for one id.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        match *self {
            SetView::Sorted(s) => s.binary_search(&x).is_ok(),
            SetView::Bits(w) => {
                let word = (x >> 6) as usize;
                word < w.len() && w[word] >> (x & 63) & 1 == 1
            }
        }
    }

    /// `probe ⊆ self`. `probe` must be strictly increasing.
    ///
    /// Replaces the call-site pattern `is_subset(l_new, nbr)`.
    #[inline]
    pub fn contains_all(&self, probe: &[u32]) -> bool {
        match *self {
            SetView::Sorted(s) => crate::is_subset(probe, s),
            SetView::Bits(_) => probe.iter().all(|&x| self.contains(x)),
        }
    }

    /// `|self ∩ probe|` without materializing the intersection.
    #[inline]
    pub fn intersect_count(&self, probe: &[u32]) -> usize {
        match *self {
            SetView::Sorted(s) if is_identity_range(probe) => {
                s.partition_point(|&x| (x as usize) < probe.len())
            }
            SetView::Sorted(s) => crate::intersect_count(s, probe),
            SetView::Bits(_) => probe.iter().filter(|&&x| self.contains(x)).count(),
        }
    }

    /// First element of `probe` that is also in `self`, if any.
    ///
    /// For `Sorted` this is the plain two-pointer [`crate::intersect_first`]
    /// (identical early-exit behavior to the historical call sites).
    #[inline]
    pub fn intersect_first(&self, probe: &[u32]) -> Option<u32> {
        match *self {
            SetView::Sorted(s) => crate::intersect_first(s, probe),
            SetView::Bits(_) => probe.iter().copied().find(|&x| self.contains(x)),
        }
    }

    /// `self ∩ probe → out` (cleared first), strictly increasing.
    #[inline]
    pub fn intersect_into(&self, probe: &[u32], out: &mut Vec<u32>) {
        match *self {
            SetView::Sorted(s) if is_identity_range(probe) => {
                out.clear();
                let cut = s.partition_point(|&x| (x as usize) < probe.len());
                out.extend_from_slice(&s[..cut]);
            }
            SetView::Sorted(s) => crate::intersect_into(s, probe, out),
            SetView::Bits(_) => {
                out.clear();
                out.extend(probe.iter().copied().filter(|&x| self.contains(x)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Packs a sorted id set into bitmap words over universe `n`.
    fn pack(s: &[u32], n: u32) -> Vec<u64> {
        let mut words = vec![0u64; (n as usize).div_ceil(64)];
        for &x in s {
            words[(x >> 6) as usize] |= 1u64 << (x & 63);
        }
        words
    }

    fn sorted_set(max: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..max, 0..70)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn bits_and_sorted_views_agree(a in sorted_set(300), probe in sorted_set(300)) {
            let words = pack(&a, 300);
            let sv = SetView::Sorted(&a);
            let bv = SetView::Bits(&words);
            prop_assert_eq!(sv.contains_all(&probe), bv.contains_all(&probe));
            prop_assert_eq!(sv.intersect_count(&probe), bv.intersect_count(&probe));
            prop_assert_eq!(sv.intersect_first(&probe), bv.intersect_first(&probe));
            let (mut s_out, mut b_out) = (Vec::new(), Vec::new());
            sv.intersect_into(&probe, &mut s_out);
            bv.intersect_into(&probe, &mut b_out);
            prop_assert_eq!(&s_out, &b_out);
            prop_assert!(crate::is_strictly_increasing(&s_out));
        }

        #[test]
        fn identity_probes_agree_with_general_path(a in sorted_set(300), n in 0u32..300) {
            let probe: Vec<u32> = (0..n).collect();
            let want: Vec<u32> = a.iter().copied().filter(|&x| x < n).collect();
            let mut out = Vec::new();
            SetView::Sorted(&a).intersect_into(&probe, &mut out);
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(SetView::Sorted(&a).intersect_count(&probe), want.len());
        }

        #[test]
        fn contains_matches_slice(a in sorted_set(300), x in 0u32..310) {
            let words = pack(&a, 300);
            prop_assert_eq!(SetView::Sorted(&a).contains(x), a.contains(&x));
            prop_assert_eq!(SetView::Bits(&words).contains(x), a.contains(&x));
        }
    }

    #[test]
    fn bits_out_of_universe_probe_is_absent() {
        let words = pack(&[1, 63], 64);
        let v = SetView::Bits(&words);
        assert!(v.contains(63));
        assert!(!v.contains(64), "past the packed words");
        assert!(!v.contains(1000));
        assert_eq!(v.intersect_count(&[1, 64, 1000]), 1);
    }

    #[test]
    fn kernel_default_is_adaptive() {
        assert_eq!(Kernel::default(), Kernel::Adaptive);
    }
}
