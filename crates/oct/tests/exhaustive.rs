//! Exhaustive small-scope oracle for the OCT driver: every labelled
//! general graph on a few vertices, checked against the brute-force
//! reference [`oct::reference::maximal_induced_bicliques`].
//!
//! Per graph, at 1 and 2 threads:
//!
//! * a complete run emits exactly the reference's bicliques, as sorted
//!   `A ∪ B` keys, with no duplicates;
//! * at every stop point `max_bicliques = 1..=B`, the stopped run's
//!   checkpoint round-trips through `to_bytes`/`from_bytes` and resumes
//!   at the other thread count, and the two segments are disjoint and
//!   together the complete set.
//!
//! The driver localizes every bipartite instance of its assignment sweep
//! through `LocalGraph` and runs the stock MBET engine on it, so both are
//! checked here on every transversal, assignment and maximality-filter
//! shape a small scope has.
//!
//! Tier-1 runs every graph on 2–5 vertices (1,098 graphs). The 6-vertex
//! scope (32,768 graphs) is ignored by default; run it in a release
//! build with `cargo test --release -p oct --test exhaustive -- --ignored`.

use bigraph::general::GeneralGraph;
use oct::{OctCheckpoint, OctEnumeration, OctReport};

/// The graph on `n` vertices whose `i`-th vertex pair `(a, b)`, `a < b`,
/// in lexicographic order is an edge iff bit `i` of `mask` is set.
fn graph(n: u32, mask: u32) -> GeneralGraph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, e)| e)
        .collect();
    GeneralGraph::from_edges(n, &edges).unwrap()
}

/// The sorted `A ∪ B` key of every biclique `report` emitted.
fn keys(report: &OctReport) -> Vec<Vec<u32>> {
    report
        .bicliques
        .iter()
        .map(|b| {
            let mut k: Vec<u32> = b.left.iter().chain(&b.right).copied().collect();
            k.sort_unstable();
            k
        })
        .collect()
}

/// `keys` sorted, asserting that none occurs twice.
fn sorted_unique(mut keys: Vec<Vec<u32>>, what: &str) -> Vec<Vec<u32>> {
    let len = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), len, "{what}: a biclique emitted twice");
    keys
}

/// Every check of the module docs on one graph.
fn check_graph(g: &GeneralGraph, what: &str) {
    let want = oct::reference::maximal_induced_bicliques(g);
    for threads in [1, 2] {
        let what = format!("{what} threads={threads}");
        let run = OctEnumeration::new(g).threads(threads).collect().unwrap();
        assert!(run.is_complete(), "{what}: {:?}", run.stop);
        assert_eq!(sorted_unique(keys(&run), &what), want, "{what}");
        for k in 1..=want.len() as u64 {
            let what = format!("{what} k={k}");
            let stopped =
                OctEnumeration::new(g).threads(threads).max_bicliques(k).collect().unwrap();
            let mut union = keys(&stopped);
            match stopped.checkpoint {
                Some(ckpt) => {
                    let ckpt = OctCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
                    let resumed =
                        OctEnumeration::new(g).threads(3 - threads).resume(ckpt).collect().unwrap();
                    assert!(resumed.is_complete(), "{what}: resume stopped");
                    union.extend(keys(&resumed));
                }
                None => assert!(stopped.is_complete(), "{what}: no checkpoint"),
            }
            assert_eq!(sorted_unique(union, &what), want, "{what}: stopped ∪ resumed");
        }
    }
}

/// [`check_graph`] on every labelled graph on `n` vertices.
fn check_scope(n: u32) {
    for mask in 0..1u32 << (n * (n - 1) / 2) {
        check_graph(&graph(n, mask), &format!("n={n} mask={mask:#x}"));
    }
}

#[test]
fn every_general_graph_on_2_to_5_vertices_matches_the_reference() {
    for n in 2..=5 {
        check_scope(n);
    }
}

#[test]
#[ignore = "32,768 graphs: run in a release build with --ignored"]
fn every_general_graph_on_6_vertices_matches_the_reference() {
    check_scope(6);
}
