//! Dense-subgraph mining with the extension APIs.
//!
//! Run with: `cargo run --release --example dense_subgraphs`
//!
//! A market-basket-style analysis on the BookCrossing analogue showing
//! the workflow the size-threshold and extremal APIs exist for:
//!
//! 1. measure graph cohesion (butterfly density);
//! 2. peel to the (α,β)-core to bound the search region;
//! 3. enumerate only the *large* maximal bicliques with pruned search;
//! 4. extract the top-k by edge count with branch-and-bound.

use mbe_suite::{bigraph, mbe};

fn main() {
    let preset = mbe_suite::gen::presets::by_abbrev("BX").expect("preset exists");
    let g = preset.build(2026);
    println!(
        "BookCrossing analogue: {} readers × {} books, {} ratings",
        g.num_u(),
        g.num_v(),
        g.num_edges()
    );

    // 1. Cohesion: butterflies per edge.
    let t = std::time::Instant::now();
    let butterflies = bigraph::butterfly::count_butterflies(&g);
    println!(
        "butterflies: {} ({:.2} per edge) in {:?}",
        butterflies,
        bigraph::butterfly::butterfly_density(&g),
        t.elapsed()
    );

    // 2. Core reduction: only the (4,3)-core can contain a biclique with
    //    |L| ≥ 3 readers and |R| ≥ 4 books.
    let (min_readers, min_books) = (3usize, 4usize);
    let red = bigraph::core::alpha_beta_core(&g, min_books, min_readers);
    println!(
        "({min_books},{min_readers})-core: |U| {} -> {}, |E| {} -> {}",
        g.num_u(),
        red.graph.num_u(),
        g.num_edges(),
        red.graph.num_edges()
    );

    // 3. Size-constrained enumeration (core reduction + pruning happen
    //    inside; ids come back in the original space).
    let t = std::time::Instant::now();
    let thr = mbe::SizeThresholds::new(min_readers, min_books);
    let report = mbe::Enumeration::new(&g).thresholds(thr).collect().expect("valid configuration");
    let groups = report.bicliques;
    println!(
        "{} reading circles with ≥{} readers and ≥{} common books in {:?} \
         ({} branches size-pruned)",
        groups.len(),
        min_readers,
        min_books,
        t.elapsed(),
        report.stats.bound_pruned
    );
    for b in groups.iter().take(3) {
        assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right));
    }

    // 4. The top-5 densest groups overall, found without full enumeration.
    let t = std::time::Instant::now();
    let report = mbe::Enumeration::new(&g).top_k(5).expect("valid configuration");
    let top = report.bicliques;
    println!(
        "top-5 by edges in {:?} ({} branches bound-pruned):",
        t.elapsed(),
        report.stats.bound_pruned
    );
    for b in &top {
        println!("  {} readers × {} books = {} edges", b.left.len(), b.right.len(), b.edges());
    }

    // Cross-check: the best thresholded group can never beat the global
    // top-1 (the global search has no size constraints).
    if let (Some(best_thr), Some(best)) = (groups.iter().map(|b| b.edges()).max(), top.first()) {
        assert!(best.edges() >= best_thr.min(best.edges()));
        println!("\nglobal max biclique: {} edges", best.edges());
    }
}
