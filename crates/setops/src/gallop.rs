//! Galloping (exponential + binary search) kernels for size-skewed inputs.
//!
//! When `|small| ≪ |large|`, probing each element of `small` into `large`
//! with an exponential search costs `O(|small| · log(|large| / |small|))`,
//! which beats a linear merge once the ratio exceeds [`crate::GALLOP_RATIO`].
//! Successive probes resume from the previous position so a full pass over
//! `small` never rescans `large` from the start.

/// Smallest index `i ≥ from` with `hay[i] >= needle`, or `hay.len()`.
///
/// Exponential (doubling) search from `from`, then binary search within the
/// located window. This is the standard "gallop" primitive.
#[inline]
pub fn gallop_to(hay: &[u32], needle: u32, from: usize) -> usize {
    let mut lo = from;
    if lo >= hay.len() || hay[lo] >= needle {
        return lo;
    }
    // Invariant: hay[lo] < needle. Double the step until we overshoot.
    let mut step = 1;
    let mut hi = lo + 1;
    while hi < hay.len() && hay[hi] < needle {
        lo = hi;
        step *= 2;
        hi = lo.saturating_add(step).min(hay.len());
        if hi == hay.len() {
            break;
        }
    }
    // Binary search in (lo, hi].
    let mut left = lo + 1;
    let mut right = hi;
    while left < right {
        let mid = left + (right - left) / 2;
        if hay[mid] < needle {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

/// `small ∩ large → out`, galloping through `large`. `out` cleared first.
pub fn intersect_gallop_into(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    debug_assert!(small.len() <= large.len());
    out.clear();
    let mut pos = 0;
    for &x in small {
        pos = gallop_to(large, x, pos);
        if pos == large.len() {
            break;
        }
        if large[pos] == x {
            out.push(x);
            pos += 1;
        }
    }
}

/// `|small ∩ large|`, galloping through `large`.
pub fn intersect_gallop_count(small: &[u32], large: &[u32]) -> usize {
    debug_assert!(small.len() <= large.len());
    let mut n = 0;
    let mut pos = 0;
    for &x in small {
        pos = gallop_to(large, x, pos);
        if pos == large.len() {
            break;
        }
        if large[pos] == x {
            n += 1;
            pos += 1;
        }
    }
    n
}

/// `small ⊆ large`, galloping through `large`; exits on the first miss.
pub fn is_subset_gallop(small: &[u32], large: &[u32]) -> bool {
    let mut pos = 0;
    for &x in small {
        pos = gallop_to(large, x, pos);
        if pos == large.len() || large[pos] != x {
            return false;
        }
        pos += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gallop_to_positions() {
        let hay = [2u32, 4, 6, 8, 10];
        assert_eq!(gallop_to(&hay, 1, 0), 0);
        assert_eq!(gallop_to(&hay, 2, 0), 0);
        assert_eq!(gallop_to(&hay, 3, 0), 1);
        assert_eq!(gallop_to(&hay, 10, 0), 4);
        assert_eq!(gallop_to(&hay, 11, 0), 5);
        assert_eq!(gallop_to(&hay, 5, 3), 3, "never moves left of `from`");
        assert_eq!(gallop_to(&[], 5, 0), 0);
    }

    #[test]
    fn gallop_resumes_from_position() {
        let hay: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let mut pos = 0;
        for needle in [0u32, 30, 31, 2997] {
            pos = gallop_to(&hay, needle, pos);
            assert_eq!(hay[pos], needle.div_ceil(3) * 3);
        }
    }

    fn sorted_set(max: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..max, 0..80)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn gallop_intersect_matches_merge(
            a in sorted_set(2000), b in sorted_set(2000)
        ) {
            let (small, large) =
                if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            let mut got = Vec::new();
            intersect_gallop_into(small, large, &mut got);
            let mut want = Vec::new();
            crate::merge::intersect_merge_into(&a, &b, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(intersect_gallop_count(small, large), want.len());
        }

        #[test]
        fn gallop_subset_matches_merge(
            a in sorted_set(300), b in sorted_set(300)
        ) {
            prop_assert_eq!(
                is_subset_gallop(&a, &b),
                crate::merge::is_subset_merge(&a, &b)
            );
        }

        #[test]
        fn gallop_to_is_lower_bound(
            hay in sorted_set(500), needle in 0u32..500, from in 0usize..80
        ) {
            let from = from.min(hay.len());
            let got = gallop_to(&hay, needle, from);
            // Lower bound within hay[from..].
            let want = from
                + hay[from..].partition_point(|&x| x < needle);
            prop_assert_eq!(got, want);
        }
    }
}
