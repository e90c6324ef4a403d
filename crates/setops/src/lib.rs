//! Set-operation kernels for maximal biclique enumeration.
//!
//! Every MBE algorithm in this workspace spends the bulk of its time
//! intersecting, unioning, and containment-testing *sorted* vertex-id
//! slices (adjacency lists and derived candidate sets). This crate provides
//! those kernels in three flavors:
//!
//! * [`merge`] — linear two-pointer kernels;
//! * [`gallop`] — galloping (exponential + binary search) kernels, far
//!   faster when one input is much shorter than the other;
//! * [`adaptive`](intersect_into) — dispatchers that pick between the two
//!   based on the length ratio ([`GALLOP_RATIO`]), which is what the
//!   algorithms call. The intersections cut a second operand that is an
//!   identity range (`[0..n)`, every task's first `L` in local ids) to a
//!   binary search.
//!
//! The dispatch is measured to win only at the skewed end: at length
//! ratio 512 it gallops in about 200 ns against the merge's 4 µs, but at
//! ratio 1 it merges, and on two 4096-element sets the gallop (19 µs)
//! beats both the merge (33 µs) and the dispatcher (29 µs) on a 2-vCPU
//! host (EXPERIMENTS.md, E10).
//!
//! Small sets are not held here: the MBET engine keys its nodes with
//! `|L'| ≤ 64` on one `u64` mask per vertex ([`Kernel::Adaptive`]), and
//! these slice kernels serve everything above.
//!
//! All slice kernels require strictly increasing input slices and produce
//! strictly increasing outputs; this invariant is `debug_assert`ed and
//! exercised by property tests.

#![forbid(unsafe_code)]

pub mod gallop;
pub mod merge;

/// Which key representation the MBET engine runs its nodes on.
///
/// This is an execution hint: it never changes which bicliques are
/// produced, in which order, or any search counter but `word_nodes`,
/// only how each node's keys are held. The differential tests run the
/// two against each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// One `u64` mask per key at the nodes with `|L'| ≤ 64` (word mode),
    /// sorted slices and the prefix trie above. The production default.
    #[default]
    Adaptive,
    /// Sorted slices and the prefix trie at every node: the paper's
    /// representation and the differential tests' reference.
    SortedOnly,
}

/// Length ratio above which the adaptive kernels switch from linear merging
/// to galloping. 32 is the conventional crossover (one binary-search probe
/// costs about log2(ratio) comparisons, which beats scanning once the ratio
/// exceeds roughly the word width); E10 finds the gallop ahead at ratio 1
/// as well, so the crossover is not tuned for this host.
pub const GALLOP_RATIO: usize = 32;

#[inline]
fn ratio_exceeds(small: usize, large: usize) -> bool {
    // `small * GALLOP_RATIO` could overflow for pathological inputs; use a
    // division-free check that saturates instead.
    large / GALLOP_RATIO.max(1) > small
}

/// A strictly increasing slice whose last element is `len - 1` can only
/// be the identity range `[0..len)`, so intersecting with it is a prefix
/// cut of the other operand. Localized enumeration intersects rows with
/// the full left universe at every task's first node, and this one
/// compare turns that hottest shape into a binary search.
#[inline]
fn is_identity_range(s: &[u32]) -> bool {
    s.last().is_some_and(|&m| m as usize == s.len() - 1)
}

/// `a ∩ b` as a prefix of `a` when `b` is an identity range, `None`
/// otherwise.
#[inline]
fn identity_cut<'a>(a: &'a [u32], b: &[u32]) -> Option<&'a [u32]> {
    is_identity_range(b).then(|| &a[..a.partition_point(|&x| (x as usize) < b.len())])
}

/// Intersect two strictly increasing slices into `out` (cleared first).
///
/// When `b` is an identity range `[0..n)`, the result is the prefix of
/// `a` below `n`, found by binary search; otherwise dispatches between
/// merge and gallop based on the length ratio.
///
/// ```
/// let mut out = Vec::new();
/// setops::intersect_into(&[1, 3, 5, 7], &[3, 4, 5, 6], &mut out);
/// assert_eq!(out, [3, 5]);
/// ```
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if let Some(cut) = identity_cut(a, b) {
        out.clear();
        out.extend_from_slice(cut);
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if ratio_exceeds(small.len(), large.len()) {
        gallop::intersect_gallop_into(small, large, out);
    } else {
        merge::intersect_merge_into(a, b, out);
    }
}

/// Size of the intersection of two strictly increasing slices, without
/// materializing it. Cuts an identity range as [`intersect_into`] does.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    if let Some(cut) = identity_cut(a, b) {
        return cut.len();
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if ratio_exceeds(small.len(), large.len()) {
        gallop::intersect_gallop_count(small, large)
    } else {
        merge::intersect_merge_count(a, b)
    }
}

/// `true` iff every element of `a` occurs in `b`. Both strictly increasing.
pub fn is_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if ratio_exceeds(a.len(), b.len()) {
        gallop::is_subset_gallop(a, b)
    } else {
        merge::is_subset_merge(a, b)
    }
}

/// Union of two strictly increasing slices into `out` (cleared first).
pub fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    merge::union_merge_into(a, b, out);
}

/// First common element of two strictly increasing slices, if any.
///
/// Used for early-exit non-emptiness tests (`L' ∩ N(q) ≠ ∅`).
pub fn intersect_first(a: &[u32], b: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(a[i]),
        }
    }
    None
}

/// Checks the strictly-increasing invariant. Exposed so downstream crates
/// can assert it on loaded data; cheap enough for debug assertions.
pub fn is_strictly_increasing(s: &[u32]) -> bool {
    // windows(2) guarantees both elements. xtask-allow: index-literal
    s.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intersect_basic() {
        let mut out = Vec::new();
        intersect_into(&[1, 2, 3], &[2, 3, 4], &mut out);
        assert_eq!(out, [2, 3]);
        intersect_into(&[], &[2, 3, 4], &mut out);
        assert!(out.is_empty());
        intersect_into(&[5], &[2, 3, 4], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_dispatches_to_gallop() {
        // ratio > 32 forces the gallop path.
        let big: Vec<u32> = (0..10_000).collect();
        let small = [3u32, 9_999];
        let mut out = Vec::new();
        intersect_into(&small, &big, &mut out);
        assert_eq!(out, [3, 9_999]);
        assert_eq!(intersect_count(&small, &big), 2);
    }

    #[test]
    fn subset_tests() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[1, 2], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3], &[1, 2]));
        let big: Vec<u32> = (0..10_000).step_by(2).collect();
        assert!(is_subset(&[0, 4_000], &big));
        assert!(!is_subset(&[0, 4_001], &big));
    }

    #[test]
    fn union_difference() {
        let mut out = Vec::new();
        union_into(&[1, 3], &[2, 3, 4], &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn first_and_disjoint() {
        assert_eq!(intersect_first(&[1, 5, 9], &[2, 5]), Some(5));
        assert_eq!(intersect_first(&[1, 9], &[2, 5]), None);
    }

    #[test]
    fn strictly_increasing_checker() {
        assert!(is_strictly_increasing(&[]));
        assert!(is_strictly_increasing(&[7]));
        assert!(is_strictly_increasing(&[1, 2, 9]));
        assert!(!is_strictly_increasing(&[1, 1]));
        assert!(!is_strictly_increasing(&[2, 1]));
    }

    fn sorted_set(max: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..max, 0..70)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        /// The identity cut agrees with the general path, which runs
        /// with the operands swapped.
        #[test]
        fn identity_probes_agree_with_general_path(a in sorted_set(300), n in 0u32..300) {
            let probe: Vec<u32> = (0..n).collect();
            let want: Vec<u32> = a.iter().copied().filter(|&x| x < n).collect();
            let mut out = Vec::new();
            intersect_into(&a, &probe, &mut out);
            prop_assert_eq!(&out, &want);
            intersect_into(&probe, &a, &mut out);
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(intersect_count(&a, &probe), want.len());
            prop_assert_eq!(intersect_count(&probe, &a), want.len());
        }
    }

    #[test]
    fn kernel_default_is_adaptive() {
        assert_eq!(Kernel::default(), Kernel::Adaptive);
    }
}
