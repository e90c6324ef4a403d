//! E10 — Set-operation microbenchmarks.
//!
//! Underpins the representation-threshold discussion (the σ-style
//! trade-off between list and bitmap local-neighborhood encodings):
//! merge vs. gallop intersection across size ratios, subset testing, and
//! bitmap kernels at `|L|`-scale universes. Every cell is nanoseconds per
//! call: the median (over `MBE_BENCH_TRIALS`) of one timed batch of
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
    println!("intersect_ratio: |large| = 4096, |small| = 4096 / ratio (ns/call)");
    println!("{:>8}{:>12}{:>12}{:>12}", "ratio", "merge", "gallop", "adaptive");
    let mut rng = StdRng::seed_from_u64(1);
    for ratio in [1usize, 8, 64, 512] {
        let large = sorted_set(&mut rng, 4096, 1 << 20);
        let small = sorted_set(&mut rng, 4096 / ratio, 1 << 20);
        let mut out = Vec::new();
        let merge = ns_per_call(|| setops::merge::intersect_merge_into(&small, &large, &mut out));
        let gallop =
            ns_per_call(|| setops::gallop::intersect_gallop_into(&small, &large, &mut out));
        let adaptive = ns_per_call(|| setops::intersect_into(&small, &large, &mut out));
        println!("{ratio:>8}{merge:>12.1}{gallop:>12.1}{adaptive:>12.1}");
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

fn bitmap() {
    println!();
    // |L| is bounded by D(V): benchmark at the scales enumeration sees.
    println!("bitmap_vs_list_at_L_scale: two |L|/2-subsets of an |L| universe (ns/call)");
    println!(
        "{:>8}{:>16}{:>18}{:>13}{:>15}",
        "|L|", "list_intersect", "bitmap_intersect", "list_subset", "bitmap_subset"
    );
    let mut rng = StdRng::seed_from_u64(3);
    for l in [32usize, 256, 2048] {
        let a = sorted_set(&mut rng, l / 2, l as u32);
        let b = sorted_set(&mut rng, l / 2, l as u32);
        let ba = setops::Bitmap::from_ranks(l, &a);
        let bb = setops::Bitmap::from_ranks(l, &b);
        let mut out = Vec::new();
        let list_intersect = ns_per_call(|| setops::intersect_into(&a, &b, &mut out));
        let bitmap_intersect = ns_per_call(|| ba.intersect_count(&bb));
        let list_subset = ns_per_call(|| setops::is_subset(&a, &b));
        let bitmap_subset = ns_per_call(|| ba.is_subset_of(&bb));
        println!(
            "{l:>8}{list_intersect:>16.1}{bitmap_intersect:>18.1}{list_subset:>13.1}{bitmap_subset:>15.1}"
        );
    }
}

fn main() {
    bench::header("E10", "set-operation microbenchmarks", "representation-threshold discussion");
    intersections();
    subset();
    bitmap();
}
