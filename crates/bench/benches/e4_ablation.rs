//! E4 — Ablation of the prefix-tree techniques (analog of the papers'
//! "effect of optimizations" figure: the full algorithm vs. variants
//! each disabling one technique).
//!
//! Variants: full MBET; w/o equivalence batching; w/o trie-based
//! maximality checking (falls back to per-`q` subset scans, and keeps
//! every excluded vertex instead of the excluded antichain); w/o
//! trie-based absorption filtering; all off (≡ MBEA's branch structure).

use mbe::{Algorithm, MbeOptions, MbetConfig};

fn main() {
    bench::header("E4", "MBET technique ablation", "effect-of-optimizations figure");
    let variants: [(&str, MbetConfig); 5] = [
        ("full", MbetConfig::default()),
        ("w/o batching", MbetConfig { batching: false, ..Default::default() }),
        ("w/o trie-max", MbetConfig { trie_maximality: false, ..Default::default() }),
        ("w/o trie-abs", MbetConfig { trie_absorption: false, ..Default::default() }),
        ("all off", MbetConfig { batching: false, trie_maximality: false, trie_absorption: false }),
    ];
    print!("{:<14}", "dataset");
    for (name, _) in &variants {
        print!("{name:>14}");
    }
    println!();
    for p in bench::general_presets() {
        let g = bench::build(&p);
        print!("{:<14}", p.abbrev);
        let mut count = None;
        for (_, cfg) in &variants {
            let opts = MbeOptions::new(Algorithm::Mbet).mbet(*cfg);
            let (b, d) = bench::time_median(|| bench::count(&g, &opts));
            if let Some(c) = count {
                assert_eq!(c, b, "{}", p.abbrev);
            }
            count = Some(b);
            print!("{:>12}ms", format!("{:.2}", d.as_secs_f64() * 1e3));
        }
        println!();
    }
}
