//! The correctness gate: every engine, every configuration, every
//! ordering must produce exactly the brute-force maximal biclique set on
//! randomized graphs.

use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;
use mbe::verify::{assert_matches_brute_force, brute_force};
use mbe::{Algorithm, Enumeration, MbeOptions, MbetConfig};
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1u32..10, 1u32..8).prop_flat_map(|(nu, nv)| {
        proptest::collection::vec((0..nu, 0..nv), 0..60)
            .prop_map(move |edges| BipartiteGraph::from_edges(nu, nv, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_algorithm_matches_brute_force(g in random_graph()) {
        for alg in Algorithm::all() {
            let report = Enumeration::new(&g).algorithm(alg).collect().unwrap();
            assert_matches_brute_force(&g, &report.bicliques);
            prop_assert!(report.is_complete());
            prop_assert_eq!(report.count() as usize, report.bicliques.len());
        }
    }

    #[test]
    fn mbet_matches_under_every_toggle_combination(g in random_graph()) {
        let want = brute_force(&g);
        for mask in 0u8..8 {
            let cfg = MbetConfig {
                batching: mask & 1 != 0,
                trie_maximality: mask & 2 != 0,
                trie_absorption: mask & 4 != 0,
            };
            let mut got =
                Enumeration::new(&g).algorithm(Algorithm::Mbet).mbet(cfg).collect().unwrap().bicliques;
            got.sort();
            prop_assert_eq!(&got, &want, "cfg {:?}", cfg);
        }
    }

    #[test]
    fn ordering_does_not_change_the_result(g in random_graph(), seed in 0u64..1000) {
        let want = brute_force(&g);
        for order in [
            VertexOrder::Natural,
            VertexOrder::AscendingDegree,
            VertexOrder::DescendingDegree,
            VertexOrder::Unilateral,
            VertexOrder::Random(seed),
        ] {
            for alg in [Algorithm::Mbea, Algorithm::Mbet] {
                let mut got =
                    Enumeration::new(&g).algorithm(alg).order(order).collect().unwrap().bicliques;
                got.sort();
                prop_assert_eq!(&got, &want, "{:?} {:?}", alg, order);
            }
        }
    }

    #[test]
    fn parallel_matches_serial(g in random_graph(), threads in 1usize..5) {
        let want = brute_force(&g);
        for alg in [Algorithm::Imbea, Algorithm::Mbet] {
            let report =
                Enumeration::new(&g).algorithm(alg).threads(threads).collect().unwrap();
            prop_assert!(report.is_complete());
            let mut got = report.bicliques;
            got.sort();
            prop_assert_eq!(&got, &want, "{:?}", alg);
        }
    }

    #[test]
    fn forced_task_splitting_matches(g in random_graph()) {
        let want = brute_force(&g);
        for alg in Algorithm::all() {
            let mut opts = MbeOptions::new(alg).threads(2);
            opts.split_height = 0;
            opts.split_size = 0;
            let mut got = Enumeration::new(&g).options(opts).collect().unwrap().bicliques;
            got.sort();
            prop_assert_eq!(&got, &want, "{:?}", alg);
        }
    }

    #[test]
    fn no_duplicates_ever_emitted(g in random_graph()) {
        // The TrieSink counts R-set collisions; a correct engine never
        // produces one because R determines L (= C(R)).
        for alg in Algorithm::all() {
            let mut sink = mbe::TrieSink::unbounded();
            let report = Enumeration::new(&g).algorithm(alg).run(&mut sink).unwrap();
            prop_assert!(report.is_complete());
            prop_assert_eq!(sink.duplicates(), 0, "{:?}", alg);
        }
    }

    #[test]
    fn emitted_bicliques_are_maximal(g in random_graph()) {
        let got = Enumeration::new(&g).collect().unwrap().bicliques;
        for b in &got {
            prop_assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right));
        }
    }
}

/// Deterministic regression corpus: shapes that historically catch MBE
/// bugs (equivalent candidates, absorption chains, crowns, multi-block).
#[test]
fn regression_corpus() {
    type Case = (u32, u32, Vec<(u32, u32)>);
    let corpus: Vec<Case> = vec![
        // Crown S(4): u_i adjacent to every v_j except j == i.
        (4, 4, {
            let mut e = Vec::new();
            for u in 0..4u32 {
                for v in 0..4u32 {
                    if u != v {
                        e.push((u, v));
                    }
                }
            }
            e
        }),
        // Two overlapping complete blocks sharing one U vertex.
        (5, 4, {
            let mut e = Vec::new();
            for u in 0..3u32 {
                for v in 0..2u32 {
                    e.push((u, v));
                }
            }
            for u in 2..5u32 {
                for v in 2..4u32 {
                    e.push((u, v));
                }
            }
            e
        }),
        // Chain of pairwise-overlapping edges.
        (6, 5, (0..5u32).flat_map(|i| [(i, i), (i + 1, i)]).collect()),
        // Heavy equivalence: three classes of duplicated neighborhoods.
        (4, 9, {
            let mut e = Vec::new();
            for v in 0..3u32 {
                e.push((0, v));
                e.push((1, v));
            }
            for v in 3..6u32 {
                e.push((1, v));
                e.push((2, v));
            }
            for v in 6..9u32 {
                e.push((0, v));
                e.push((3, v));
            }
            e
        }),
        // Nested neighborhoods (absorption ladder).
        (
            4,
            4,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)],
        ),
    ];
    for (nu, nv, edges) in corpus {
        let g = BipartiteGraph::from_edges(nu, nv, &edges).unwrap();
        for alg in Algorithm::all() {
            let got = Enumeration::new(&g).algorithm(alg).collect().unwrap().bicliques;
            assert_matches_brute_force(&g, &got);
        }
    }
}
