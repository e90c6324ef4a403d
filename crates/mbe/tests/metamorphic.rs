//! Metamorphic oracles at preset scale.
//!
//! Brute force stops at a dozen or so vertices a side, and the
//! differential tests only pit engines against each other. These tests
//! instead transform a preset-sized input in ways whose effect on the
//! answer is known, and check that the answer moves exactly that way:
//! swapping the sides or adding isolated vertices keeps the count, and a
//! twin of a vertex joins exactly the bicliques that vertex is in. Each
//! transformed input runs serially and on two threads.

mod common;

use std::collections::HashSet;

use bigraph::BipartiteGraph;
use mbe::{Biclique, Enumeration, MbeOptions};

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
