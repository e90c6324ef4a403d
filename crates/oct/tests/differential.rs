//! Differential tests: the OCT driver must match the brute-force
//! oracle exactly on small random general graphs, serially and with
//! worker threads, and must match the direct bipartite engine when the
//! input happens to be bipartite.

use bigraph::general::GeneralGraph;
use bigraph::order::VertexOrder;
use gen::gnp_general;
use oct::reference::maximal_induced_bicliques;
use oct::{OctEnumeration, OctReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sorted union keys from a driver run.
fn driver_keys(g: &GeneralGraph, threads: usize) -> Vec<Vec<u32>> {
    let report = OctEnumeration::new(g).threads(threads).max_oct(14).collect().expect("driver run");
    assert!(report.is_complete(), "run should complete");
    let mut keys: Vec<Vec<u32>> = report
        .bicliques
        .iter()
        .map(|b| {
            let mut k: Vec<u32> = b.left.iter().chain(b.right.iter()).copied().collect();
            k.sort_unstable();
            k
        })
        .collect();
    let before = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), before, "driver emitted duplicates");
    assert_eq!(report.stats.emitted, before as u64);
    keys
}

#[test]
fn matches_oracle_on_er_graphs_serial() {
    for n in [4u32, 6, 8, 10, 12, 14] {
        for (si, p) in [(0u64, 0.15), (1, 0.3), (2, 0.45), (3, 0.6)] {
            let mut rng = StdRng::seed_from_u64(n as u64 * 100 + si);
            let g = gnp_general(&mut rng, n, p);
            let expect = maximal_induced_bicliques(&g);
            let got = driver_keys(&g, 1);
            assert_eq!(got, expect, "n={n} seed={si} p={p}");
        }
    }
}

#[test]
fn matches_oracle_on_er_graphs_threaded() {
    for threads in [2usize, 4] {
        for (si, p) in [(10u64, 0.25), (11, 0.5)] {
            let mut rng = StdRng::seed_from_u64(777 + si);
            let g = gnp_general(&mut rng, 12, p);
            let expect = maximal_induced_bicliques(&g);
            let got = driver_keys(&g, threads);
            assert_eq!(got, expect, "threads={threads} seed={si}");
        }
    }
}

#[test]
fn matches_oracle_on_dense_small_graphs() {
    // Dense graphs push the transversal size up and exercise the
    // assignment pruning hard.
    for si in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(4242 + si);
        let g = gnp_general(&mut rng, 9, 0.75);
        let expect = maximal_induced_bicliques(&g);
        let got = driver_keys(&g, 1);
        assert_eq!(got, expect, "seed={si}");
    }
}

#[test]
fn matches_oracle_on_planted_instances() {
    for si in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(99 + si);
        let cfg = gen::NearBipartiteConfig::new(6, 5, 14, 3);
        let (g, _) = gen::near_bipartite(&mut rng, &cfg);
        let expect = maximal_induced_bicliques(&g);
        let got = driver_keys(&g, 1);
        assert_eq!(got, expect, "seed={si}");
    }
}

#[test]
fn bipartite_input_matches_direct_engine() {
    // Route a bipartite graph through the OCT path; it must agree with
    // the stock bipartite engine run on the same graph (modulo the
    // general-graph id mapping u -> u, v -> num_u + v).
    let mut rng = StdRng::seed_from_u64(31);
    let bg = gen::er::gnm(&mut rng, 9, 8, 30);
    let g = GeneralGraph::from_bipartite(&bg);

    let direct = mbe::Enumeration::new(&bg)
        .algorithm(mbe::Algorithm::Mbet)
        .collect()
        .expect("bipartite run");
    let shift = bg.num_u();
    let mut expect: Vec<Vec<u32>> = direct
        .bicliques
        .iter()
        .map(|b| {
            let mut k: Vec<u32> =
                b.left.iter().copied().chain(b.right.iter().map(|&v| v + shift)).collect();
            k.sort_unstable();
            k
        })
        .collect();
    expect.sort();

    let report = OctEnumeration::new(&g).collect().expect("oct run");
    assert_eq!(report.stats.oct_size, 0, "bipartite input must decompose with an empty OCT");
    let got = driver_keys(&g, 1);
    assert_eq!(got, expect);
}

/// FNV-1a of a collected listing, in emission order.
fn listing_hash(report: &OctReport) -> u64 {
    let mut bytes = Vec::new();
    for b in &report.bicliques {
        for side in [&b.left, &b.right] {
            for v in side {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        }
    }
    bigraph::codec::fnv1a(&bytes)
}

#[test]
fn listings_are_pinned_in_emission_order() {
    // The fixture graph of `mbe-cli generate oct-planted 20 20 80 4
    // --seed 5`, and a random graph with transversal-only bicliques,
    // which two mirrored same-side units reach and only one emits.
    let mut rng = StdRng::seed_from_u64(5);
    let (g, _) = gen::near_bipartite(&mut rng, &gen::NearBipartiteConfig::new(20, 20, 80, 4));
    let fixture = OctEnumeration::new(&g).order(VertexOrder::Random(7)).collect().expect("run");
    assert_eq!((fixture.stats.emitted, listing_hash(&fixture)), (102, 0x5825_7597_fe48_42d2));

    let mut rng = StdRng::seed_from_u64(16);
    let g = gnp_general(&mut rng, 18, 0.3);
    let report = OctEnumeration::new(&g).collect().expect("run");
    assert_eq!((report.stats.emitted, listing_hash(&report)), (70, 0x0772_a5ce_7946_7c1b));
}
