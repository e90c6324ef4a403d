//! Metamorphic oracles at preset scale.
//!
//! Brute force stops at a dozen or so vertices a side, and the
//! differential tests only pit engines against each other. These tests
//! instead transform a preset-sized input in ways whose effect on the
//! answer is known, and check that the answer moves exactly that way:
//! swapping the sides or adding isolated vertices keeps the count, a
//! twin of a vertex joins exactly the bicliques that vertex is in, and
//! renaming both sides by permutations renames the bicliques and nothing
//! else. Each transformed input runs serially and on two threads.

mod common;

use std::collections::HashSet;

use bigraph::BipartiteGraph;
use mbe::{Biclique, Enumeration, MbeOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const THREADS: [usize; 2] = [1, 2];

/// Two shallow benchmark presets and one structured graph.
fn graphs() -> Vec<(&'static str, BipartiteGraph)> {
    let preset = |abbrev| gen::presets::by_abbrev(abbrev).expect("known preset").build(42);
    vec![
        ("WA", preset("WA")),
        ("Mti", preset("Mti")),
        ("structured", common::structured(3, 300, 200, 2000)),
    ]
}

fn count(g: &BipartiteGraph, threads: usize) -> u64 {
    Enumeration::new(g).options(MbeOptions::default().threads(threads)).count().unwrap().count()
}

fn collect(g: &BipartiteGraph, threads: usize) -> Vec<Biclique> {
    Enumeration::new(g).options(MbeOptions::default().threads(threads)).collect().unwrap().bicliques
}

/// `g` with `k` isolated vertices added on each side.
fn with_isolated(g: &BipartiteGraph, k: u32) -> BipartiteGraph {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    BipartiteGraph::from_edges(g.num_u() + k, g.num_v() + k, &edges).unwrap()
}

/// `g` with a new right vertex (id `num_v`) adjacent to exactly `N(v)`.
fn with_right_twin(g: &BipartiteGraph, v: u32) -> BipartiteGraph {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.extend(g.nbr_v(v).iter().map(|&u| (u, g.num_v())));
    BipartiteGraph::from_edges(g.num_u(), g.num_v() + 1, &edges).unwrap()
}

/// `g` with a new left vertex (id `num_u`) adjacent to exactly `N(u)`.
fn with_left_twin(g: &BipartiteGraph, u: u32) -> BipartiteGraph {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.extend(g.nbr_u(u).iter().map(|&v| (g.num_u(), v)));
    BipartiteGraph::from_edges(g.num_u() + 1, g.num_v(), &edges).unwrap()
}

/// The bicliques as a set, with `twin_left` removed from every left side
/// and `twin_right` from every right side (a twin is never a whole side).
fn without(
    bicliques: &[Biclique],
    twin_left: Option<u32>,
    twin_right: Option<u32>,
) -> HashSet<Biclique> {
    let strip = |side: &[u32], twin: Option<u32>| -> Vec<u32> {
        let mut s: Vec<u32> = side.iter().copied().filter(|&x| Some(x) != twin).collect();
        s.sort_unstable();
        s
    };
    bicliques
        .iter()
        .map(|b| Biclique { left: strip(&b.left, twin_left), right: strip(&b.right, twin_right) })
        .collect()
}

/// `g` with both sides renamed by permutations drawn from `seed`: left
/// `u` becomes `pu[u]` and right `v` becomes `pv[v]`.
fn relabeled(g: &BipartiteGraph, seed: u64) -> (BipartiteGraph, Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pu: Vec<u32> = (0..g.num_u()).collect();
    let mut pv: Vec<u32> = (0..g.num_v()).collect();
    pu.shuffle(&mut rng);
    pv.shuffle(&mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (pu[u as usize], pv[v as usize])).collect();
    (BipartiteGraph::from_edges(g.num_u(), g.num_v(), &edges).unwrap(), pu, pv)
}

fn sum_left(bicliques: &[Biclique]) -> usize {
    bicliques.iter().map(|b| b.left.len()).sum()
}

fn sum_right(bicliques: &[Biclique]) -> usize {
    bicliques.iter().map(|b| b.right.len()).sum()
}

#[test]
fn side_swap_and_isolated_vertices_keep_the_count() {
    for (name, g) in graphs() {
        let want = count(&g, 1);
        assert!(want > 1000, "{name}: {want}");
        let (swapped, padded) = (g.swap_sides(), with_isolated(&g, 5));
        for threads in THREADS {
            assert_eq!(count(&swapped, threads), want, "{name} swapped, threads={threads}");
            assert_eq!(count(&padded, threads), want, "{name} isolated, threads={threads}");
        }
    }
}

#[test]
fn a_twin_joins_exactly_the_bicliques_of_its_original() {
    for (name, g) in graphs() {
        let base = collect(&g, 1);
        let base_set = without(&base, None, None);
        // The busiest vertex of each side is in many bicliques.
        let v = (0..g.num_v()).max_by_key(|&v| g.deg_v(v)).unwrap();
        let u = (0..g.num_u()).max_by_key(|&u| g.deg_u(u)).unwrap();
        let with_v = base.iter().filter(|b| b.right.contains(&v)).count();
        let with_u = base.iter().filter(|b| b.left.contains(&u)).count();
        assert!(with_v > 0 && with_u > 0, "{name}");
        let (right_twin, left_twin) = (with_right_twin(&g, v), with_left_twin(&g, u));
        for threads in THREADS {
            let got = collect(&right_twin, threads);
            assert_eq!(got.len(), base.len(), "{name} right twin, threads={threads}");
            assert_eq!(sum_right(&got), sum_right(&base) + with_v, "{name} threads={threads}");
            assert_eq!(sum_left(&got), sum_left(&base), "{name} threads={threads}");
            assert_eq!(without(&got, None, Some(g.num_v())), base_set, "{name} threads={threads}");

            let got = collect(&left_twin, threads);
            assert_eq!(got.len(), base.len(), "{name} left twin, threads={threads}");
            assert_eq!(sum_left(&got), sum_left(&base) + with_u, "{name} threads={threads}");
            assert_eq!(sum_right(&got), sum_right(&base), "{name} threads={threads}");
            assert_eq!(without(&got, Some(g.num_u()), None), base_set, "{name} threads={threads}");
        }
    }
}

#[test]
fn relabeling_renames_exactly_the_bicliques() {
    let graphs = graphs();
    // A root whose `L` exceeds a word runs on the trie and starts word
    // roots below it; renaming moves those roots to other vertices.
    assert!(graphs.iter().any(|(_, g)| (0..g.num_v()).any(|v| g.deg_v(v) > 64)));
    for (name, g) in graphs {
        let base = collect(&g, 1);
        for seed in [1, 2] {
            let (h, pu, pv) = relabeled(&g, seed);
            let rename = |side: &[u32], p: &[u32]| -> Vec<u32> {
                let mut s: Vec<u32> = side.iter().map(|&x| p[x as usize]).collect();
                s.sort_unstable();
                s
            };
            let want: HashSet<Biclique> = base
                .iter()
                .map(|b| Biclique { left: rename(&b.left, &pu), right: rename(&b.right, &pv) })
                .collect();
            for threads in THREADS {
                let got = collect(&h, threads);
                assert_eq!(got.len(), base.len(), "{name} seed={seed} threads={threads}");
                let got: HashSet<Biclique> = got.into_iter().collect();
                assert_eq!(got, want, "{name} seed={seed} threads={threads}");
            }
        }
    }
}
