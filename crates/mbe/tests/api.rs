//! Public-API surface tests: the contracts a downstream user relies on,
//! exercised through the exported entry points only.

use bigraph::BipartiteGraph;
use mbe::{Algorithm, CountSink, Enumeration, FnSink, MbeOptions, StopReason};

fn demo_graph() -> BipartiteGraph {
    // Two overlapping blocks plus noise: enough structure for ~dozens of
    // bicliques.
    let mut edges = Vec::new();
    for u in 0..6u32 {
        for v in 0..4u32 {
            edges.push((u, v));
        }
    }
    for u in 4..10u32 {
        for v in 3..8u32 {
            edges.push((u, v));
        }
    }
    edges.extend([(10, 8), (11, 8), (10, 9)]);
    BipartiteGraph::from_edges(12, 10, &edges).unwrap()
}

#[test]
fn count_equals_collect_equals_stats() {
    let g = demo_graph();
    for alg in Algorithm::all() {
        let opts = MbeOptions::new(alg);
        let collected = Enumeration::new(&g).options(opts.clone()).collect().unwrap();
        let counted = Enumeration::new(&g).options(opts).count().unwrap();
        assert_eq!(collected.bicliques.len() as u64, counted.count(), "{alg:?}");
        assert_eq!(collected.stats.emitted, counted.stats.emitted, "{alg:?}");
        assert_eq!(
            collected.stats.nodes, counted.stats.nodes,
            "stats must not depend on the sink ({alg:?})"
        );
        assert!(collected.is_complete() && counted.is_complete(), "{alg:?}");
    }
}

#[test]
fn serial_emission_order_is_deterministic() {
    let g = demo_graph();
    let a = Enumeration::new(&g).collect().unwrap();
    let b = Enumeration::new(&g).collect().unwrap();
    assert_eq!(a.bicliques, b.bicliques, "same options must give the same emission order");
}

#[test]
fn early_stop_returns_partial_prefix() {
    let g = demo_graph();
    let all = Enumeration::new(&g).collect().unwrap().bicliques;
    assert!(all.len() > 5);

    // Stop after 3: the emissions seen must be the first 3 of the full
    // deterministic order.
    let mut seen = Vec::new();
    let report = {
        let mut sink = FnSink(|l: &[u32], r: &[u32]| {
            seen.push(mbe::Biclique::new(l.to_vec(), r.to_vec()));
            if seen.len() < 3 {
                mbe::sink::CONTINUE
            } else {
                mbe::sink::STOP
            }
        });
        Enumeration::new(&g).run(&mut sink).unwrap()
    };
    assert_eq!(report.stop, StopReason::SinkStopped);
    assert_eq!(seen.len(), 3);
    assert_eq!(seen.as_slice(), &all[..3]);
    // The emitted counter excludes the emission that requested the stop.
    assert_eq!(report.stats.emitted, 2);
}

#[test]
fn emit_budget_returns_exact_prefix() {
    let g = demo_graph();
    let all = Enumeration::new(&g).collect().unwrap().bicliques;
    let report = Enumeration::new(&g).max_bicliques(4).collect().unwrap();
    assert_eq!(report.stop, StopReason::EmitBudget);
    assert_eq!(report.bicliques.as_slice(), &all[..4]);
    assert_eq!(report.count(), 4);
}

#[test]
fn stats_elapsed_is_populated() {
    let g = demo_graph();
    let mut sink = CountSink::default();
    let report = Enumeration::new(&g).run(&mut sink).unwrap();
    assert!(report.stats.elapsed.as_nanos() > 0);
    assert_eq!(report.stats.nodes, report.stats.emitted + report.stats.nonmaximal);
    assert!(report.stats.tasks > 0);
}

#[test]
fn default_options_are_mbet_ascending_serial() {
    let o = MbeOptions::default();
    assert_eq!(o.algorithm, Algorithm::Mbet);
    assert_eq!(o.order, bigraph::order::VertexOrder::AscendingDegree);
    assert_eq!(o.threads, 1, "serial by default");
    assert!(o.mbet.batching && o.mbet.trie_maximality && o.mbet.trie_absorption);
}

#[test]
fn emitted_ids_are_in_caller_space_under_reordering() {
    // With a random order applied internally, ids must still come back
    // in the caller's space: every emitted pair must be a biclique of
    // the *input* graph.
    let g = demo_graph();
    let report =
        Enumeration::new(&g).order(bigraph::order::VertexOrder::Random(99)).collect().unwrap();
    for b in &report.bicliques {
        assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right), "{b:?}");
    }
}

#[test]
fn sides_both_nonempty_and_sorted() {
    let g = demo_graph();
    let all = Enumeration::new(&g).collect().unwrap().bicliques;
    for b in &all {
        assert!(!b.left.is_empty() && !b.right.is_empty());
        assert!(setops::is_strictly_increasing(&b.left));
        assert!(setops::is_strictly_increasing(&b.right));
    }
}

#[test]
fn graphs_with_swapped_sides_give_mirrored_results() {
    let g = demo_graph();
    let swapped = g.swap_sides();
    let a = Enumeration::new(&g).collect().unwrap().bicliques;
    let b = Enumeration::new(&swapped).collect().unwrap().bicliques;
    let mut a_mirrored: Vec<mbe::Biclique> =
        a.iter().map(|x| mbe::Biclique { left: x.right.clone(), right: x.left.clone() }).collect();
    a_mirrored.sort();
    let mut b = b;
    b.sort();
    assert_eq!(a_mirrored, b);
}

#[test]
fn kernel_option_is_behavior_invariant() {
    // The kernel is an execution hint: forcing the trie everywhere must
    // reproduce the default run exactly — same bicliques, same order,
    // same counters.
    let g = demo_graph();
    let want = Enumeration::new(&g).collect().unwrap();
    let got = Enumeration::new(&g)
        .options(MbeOptions::default().kernel(mbe::Kernel::SortedOnly))
        .collect()
        .unwrap();
    assert_eq!(got.bicliques, want.bicliques);
    assert_eq!(got.stats.emitted, want.stats.emitted);
    assert_eq!(got.stats.nodes, want.stats.nodes);
}
