//! E4 — Ablation of the prefix-tree techniques (analog of the papers'
//! "effect of optimizations" figure: the full algorithm vs. variants
//! each disabling one technique).
//!
//! Variants: full MBET; full MBET under `Kernel::SortedOnly` (the trie
//! everywhere, the paper's representation: no one-word keys below
//! `|L'| = 64`); w/o equivalence batching; w/o trie-based maximality
//! checking (falls back to per-`q` subset scans, and keeps every excluded
//! vertex instead of the excluded antichain); w/o trie-based absorption
//! filtering; all off (≡ MBEA's branch structure).

use mbe::{Algorithm, Kernel, MbeOptions, MbetConfig};

fn main() {
    bench::header("E4", "MBET technique ablation", "effect-of-optimizations figure");
    let full = MbetConfig::default();
    let variants: [(&str, MbetConfig, Kernel); 6] = [
        ("full", full, Kernel::Adaptive),
        ("full, SortedOnly", full, Kernel::SortedOnly),
        ("w/o batching", MbetConfig { batching: false, ..full }, Kernel::Adaptive),
        ("w/o trie-max", MbetConfig { trie_maximality: false, ..full }, Kernel::Adaptive),
        ("w/o trie-abs", MbetConfig { trie_absorption: false, ..full }, Kernel::Adaptive),
        (
            "all off",
            MbetConfig { batching: false, trie_maximality: false, trie_absorption: false },
            Kernel::Adaptive,
        ),
    ];
    print!("{:<14}", "dataset");
    for (name, _, _) in &variants {
        print!("{name:>18}");
    }
    println!();
    for p in bench::general_presets() {
        let g = bench::build(&p);
        print!("{:<14}", p.abbrev);
        let mut count = None;
        for (_, cfg, kernel) in &variants {
            let opts = MbeOptions::new(Algorithm::Mbet).mbet(*cfg).kernel(*kernel);
            let (b, d) = bench::time_median(|| bench::count(&g, &opts));
            if let Some(c) = count {
                assert_eq!(c, b, "{}", p.abbrev);
            }
            count = Some(b);
            print!("{:>16}ms", format!("{:.2}", d.as_secs_f64() * 1e3));
        }
        println!();
    }
}
