//! E10 — Set-operation microbenchmarks.
//!
//! Underpins the representation-threshold discussion (the σ-style
//! trade-off between list and bitmap local-neighborhood encodings):
//! merge vs. gallop intersection across size ratios, at the sizes the
//! MBET trie path intersects (`|L'| > 64`) and at global-adjacency scale;
//! subset testing; and word mode's one-`u64` operations against the slice
//! kernels on the same sets below `|L'| = 64`. Every cell is nanoseconds
//! per call: the median (over `MBE_BENCH_TRIALS`) of one timed batch of
//! [`REPS`] calls.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;

/// Calls per timed batch: a batch of even the cheapest kernel spans far
/// more than the clock's resolution.
const REPS: u32 = 10_000;

fn sorted_set(rng: &mut StdRng, n: usize, universe: u32) -> Vec<u32> {
    let mut s = std::collections::BTreeSet::new();
    while s.len() < n {
        s.insert(rng.gen_range(0..universe));
    }
    s.into_iter().collect()
}

/// Nanoseconds per call of `f`.
fn ns_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let ((), batch) = bench::time_median(|| {
        for _ in 0..REPS {
            black_box(f());
        }
    });
    batch.as_secs_f64() * 1e9 / f64::from(REPS)
}

fn intersections() {
    println!("intersect_ratio: |small| = |large| / ratio from a universe of `univ` (ns/call)");
    println!(
        "{:>8}{:>8}{:>10}{:>12}{:>12}{:>12}",
        "|large|", "ratio", "univ", "merge", "gallop", "adaptive"
    );
    let mut rng = StdRng::seed_from_u64(1);
    // Trie-path sizes draw from a local universe twice the larger set
    // (rows and `L'` are local left ids); the 4096 rows are global-scale.
    let cases = [(128usize, 1usize), (128, 8), (256, 1), (256, 8)]
        .map(|(n, r)| (n, r, 2 * n as u32))
        .into_iter()
        .chain([1usize, 8, 64, 512].map(|r| (4096, r, 1 << 20)));
    for (n, ratio, univ) in cases {
        let large = sorted_set(&mut rng, n, univ);
        let small = sorted_set(&mut rng, n / ratio, univ);
        let mut out = Vec::new();
        let merge = ns_per_call(|| setops::merge::intersect_merge_into(&small, &large, &mut out));
        let gallop =
            ns_per_call(|| setops::gallop::intersect_gallop_into(&small, &large, &mut out));
        let adaptive = ns_per_call(|| setops::intersect_into(&small, &large, &mut out));
        println!("{n:>8}{ratio:>8}{univ:>10}{merge:>12.1}{gallop:>12.1}{adaptive:>12.1}");
    }
}

fn subset() {
    println!();
    println!("subset: every (8192 / n)-th member of an 8192-set against the set (ns/call)");
    println!("{:>8}{:>12}", "n", "slices");
    let mut rng = StdRng::seed_from_u64(2);
    let big = sorted_set(&mut rng, 8192, 1 << 20);
    for n in [8usize, 128, 2048] {
        let probe: Vec<u32> = big.iter().step_by(big.len() / n).copied().collect();
        let slices = ns_per_call(|| setops::is_subset(&probe, &big));
        println!("{n:>8}{slices:>12.1}");
    }
}

/// The one-word key of a set of positions below 64.
fn mask(s: &[u32]) -> u64 {
    s.iter().fold(0, |m, &x| m | 1 << x)
}

fn words() {
    println!();
    // Word mode keys every node with |L'| ≤ 64 by one u64 per vertex.
    println!(
        "word_vs_list_below_64: a, b two |L|/2-subsets of an |L| universe; \
         count |a ∩ b|, test a ∩ b ⊆ b (ns/call)"
    );
    println!(
        "{:>8}{:>13}{:>13}{:>14}{:>14}",
        "|L|", "list_count", "word_count", "list_subset", "word_subset"
    );
    let mut rng = StdRng::seed_from_u64(3);
    for l in [16usize, 32, 64] {
        let a = sorted_set(&mut rng, l / 2, l as u32);
        let b = sorted_set(&mut rng, l / 2, l as u32);
        let mut ab = Vec::new();
        setops::intersect_into(&a, &b, &mut ab);
        let (wa, wb, wab) = (mask(&a), mask(&b), mask(&ab));
        let list_count = ns_per_call(|| setops::intersect_count(black_box(&a), black_box(&b)));
        let word_count = ns_per_call(|| (black_box(wa) & black_box(wb)).count_ones());
        let list_subset = ns_per_call(|| setops::is_subset(black_box(&ab), black_box(&b)));
        let word_subset = ns_per_call(|| black_box(wab) & !black_box(wb) == 0);
        println!(
            "{l:>8}{list_count:>13.1}{word_count:>13.1}{list_subset:>14.1}{word_subset:>14.1}"
        );
    }
}

fn main() {
    bench::header("E10", "set-operation microbenchmarks", "representation-threshold discussion");
    intersections();
    subset();
    words();
}
