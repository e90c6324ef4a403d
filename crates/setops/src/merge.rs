//! Linear two-pointer kernels over strictly increasing slices.
//!
//! These are the workhorses when both inputs have comparable lengths: each
//! element of each input is inspected at most once, so the cost is
//! `O(|a| + |b|)` with branch-predictable inner loops.

/// `a ∩ b → out`. `out` is cleared first and its capacity reused.
pub fn intersect_merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    debug_assert!(crate::is_strictly_increasing(a));
    debug_assert!(crate::is_strictly_increasing(b));
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if x > y {
            j += 1;
        } else {
            out.push(x);
            i += 1;
            j += 1;
        }
    }
}

/// `|a ∩ b|` without materializing the intersection.
pub fn intersect_merge_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if x > y {
            j += 1;
        } else {
            n += 1;
            i += 1;
            j += 1;
        }
    }
    n
}

/// `a ⊆ b` via a single forward scan of both slices.
pub fn is_subset_merge(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    'outer: for &x in a {
        while j < b.len() {
            match b[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// `a ∪ b → out`. `out` is cleared first.
pub fn union_merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    debug_assert!(crate::is_strictly_increasing(a));
    debug_assert!(crate::is_strictly_increasing(b));
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            out.push(x);
            i += 1;
        } else if x > y {
            out.push(y);
            j += 1;
        } else {
            out.push(x);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// `a \ b → out`. `out` is cleared first.
pub fn difference_merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    debug_assert!(crate::is_strictly_increasing(a));
    debug_assert!(crate::is_strictly_increasing(b));
    out.clear();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            out.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..400, 0..60)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn intersect_matches_naive(a in sorted_set(), b in sorted_set()) {
            let mut out = Vec::new();
            intersect_merge_into(&a, &b, &mut out);
            let naive: Vec<u32> =
                a.iter().copied().filter(|x| b.contains(x)).collect();
            prop_assert_eq!(&out, &naive);
            prop_assert_eq!(intersect_merge_count(&a, &b), naive.len());
        }

        #[test]
        fn union_matches_naive(a in sorted_set(), b in sorted_set()) {
            let mut out = Vec::new();
            union_merge_into(&a, &b, &mut out);
            let mut naive: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            naive.sort_unstable();
            naive.dedup();
            prop_assert_eq!(out, naive);
        }

        #[test]
        fn difference_matches_naive(a in sorted_set(), b in sorted_set()) {
            let mut out = Vec::new();
            difference_merge_into(&a, &b, &mut out);
            let naive: Vec<u32> =
                a.iter().copied().filter(|x| !b.contains(x)).collect();
            prop_assert_eq!(out, naive);
        }

        #[test]
        fn subset_matches_naive(a in sorted_set(), b in sorted_set()) {
            let naive = a.iter().all(|x| b.contains(x));
            prop_assert_eq!(is_subset_merge(&a, &b), naive);
        }

        #[test]
        fn outputs_sorted(a in sorted_set(), b in sorted_set()) {
            let mut out = Vec::new();
            intersect_merge_into(&a, &b, &mut out);
            prop_assert!(crate::is_strictly_increasing(&out));
            union_merge_into(&a, &b, &mut out);
            prop_assert!(crate::is_strictly_increasing(&out));
            difference_merge_into(&a, &b, &mut out);
            prop_assert!(crate::is_strictly_increasing(&out));
        }
    }

    #[test]
    fn subset_of_self_and_empty() {
        assert!(is_subset_merge(&[], &[]));
        assert!(is_subset_merge(&[], &[3]));
        assert!(!is_subset_merge(&[3], &[]));
    }
}
