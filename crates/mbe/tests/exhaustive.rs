//! Exhaustive small-scope oracle: every bipartite graph on a few
//! vertices, checked against the brute-force reference.
//!
//! The proptests sample random graphs and the metamorphic oracles run at
//! preset scale; here every edge set of a small scope is checked, so no
//! rare shape slips past an engine or driver change. Per graph:
//!
//! * all four engines on one worker, and MBET with each [`Kernel`], emit
//!   exactly the brute-force set, MBET with the same search counters
//!   under every kernel (`word_nodes` aside: 0 under `SortedOnly`);
//! * all four engines at 2 threads with forced splitting
//!   (`split_height = split_size = 0`) emit it too, with the one-worker
//!   run's search counters;
//! * every complete run closes the counter identity
//!   `nodes = emitted + nonmaximal + undersized`;
//! * at every stop point `max_bicliques = 1..=B`, the stopped run and its
//!   resume are disjoint and together the complete set: every engine on
//!   one worker, and MBET at 2 threads with forced splitting, MBET both
//!   under the default kernel and under `SortedOnly`;
//! * on one worker, a count stopped at the same point (its sink reads no
//!   ids, so the engines skip building them) stops with the collecting
//!   run's counters and checkpoint bytes.
//!
//! Tier-1 runs the 3×4 scope (4,096 graphs). The 4×4 scope (65,536
//! graphs) is ignored by default; run it in a release build with
//! `cargo test --release -p mbe --test exhaustive -- --ignored` (add
//! `--features debug-invariants` to assert every node on the way).
//! Every `L'` of a graph this small fits a word, so outside `SortedOnly`
//! MBET runs word mode only; `SortedOnly` runs the trie path everywhere,
//! which is why its stop points are checked too. The switch between the
//! two at `|L'| = 64` is covered at preset scale by `differential.rs`
//! and at the boundary by `mbet::tests`.

use bigraph::BipartiteGraph;
use mbe::{Algorithm, Biclique, Enumeration, Kernel, MbeOptions, Report, Stats, StopReason};

/// The graph on `nu × nv` vertices whose edge `(u, v)` is present iff
/// bit `u · nv + v` of `mask` is set.
fn graph(nu: u32, nv: u32, mask: u32) -> BipartiteGraph {
    let edges: Vec<(u32, u32)> =
        (0..nu * nv).filter(|b| mask >> b & 1 == 1).map(|b| (b / nv, b % nv)).collect();
    BipartiteGraph::from_edges(nu, nv, &edges).unwrap()
}

fn sorted(mut bicliques: Vec<Biclique>) -> Vec<Biclique> {
    bicliques.sort();
    bicliques
}

/// `opts` on 2 threads, splitting every task that has a candidate.
fn forced_split(opts: &MbeOptions) -> MbeOptions {
    let mut opts = opts.clone().threads(2);
    opts.split_height = 0;
    opts.split_size = 0;
    opts
}

/// The search counters a threaded run must share with the one-worker run;
/// all but the last (`word_nodes`) are shared across kernels too.
fn counters(s: &Stats) -> [u64; 9] {
    [
        s.nodes,
        s.nonmaximal,
        s.emitted,
        s.batched,
        s.absorbed,
        s.excluded_keyed,
        s.excluded_kept,
        s.undersized,
        s.word_nodes,
    ]
}

/// A complete run of `opts` over `g`: asserts it completed, emitted
/// `want` and closed the counter identity.
fn complete(g: &BipartiteGraph, opts: &MbeOptions, want: &[Biclique], what: &str) -> Report {
    let report = Enumeration::new(g).options(opts.clone()).collect().unwrap();
    assert!(report.is_complete(), "{what}: stopped with {:?}", report.stop);
    let s = &report.stats;
    assert_eq!(s.nodes, s.emitted + s.nonmaximal + s.undersized, "{what}: counter identity");
    assert_eq!(sorted(report.bicliques.clone()), want, "{what}: bicliques");
    report
}

/// Every stop point `max_bicliques = 1..=B` of `opts` over `g`: the
/// stopped run emits exactly `k`, its resume completes, and the two are
/// disjoint with union `want`. At `k = B` the run completes uncheckpointed.
/// On one worker, a count stopped at `k` (its sink reads no ids) stops as
/// the collecting run does, with the same counters and checkpoint bytes.
fn stop_points(g: &BipartiteGraph, opts: &MbeOptions, want: &[Biclique], what: &str) {
    for k in 1..=want.len() as u64 {
        let stopped = Enumeration::new(g).options(opts.clone()).max_bicliques(k).collect().unwrap();
        assert_eq!(stopped.bicliques.len() as u64, k, "{what} k={k}: emitted");
        if opts.threads == 1 {
            let counted = Enumeration::new(g).options(opts.clone()).max_bicliques(k).count();
            let counted = counted.unwrap();
            assert_eq!(counted.count(), k, "{what} k={k}: counted");
            assert_eq!(counted.stop, stopped.stop, "{what} k={k}: count stop");
            let search = |s: &Stats| Stats { elapsed: Default::default(), ..s.clone() };
            assert_eq!(search(&counted.stats), search(&stopped.stats), "{what} k={k}: count stats");
            let bytes = |r: &Report| r.checkpoint.as_ref().map(|c| c.to_bytes());
            assert_eq!(bytes(&counted), bytes(&stopped), "{what} k={k}: count checkpoint");
        }
        let mut union = stopped.bicliques;
        match stopped.checkpoint {
            Some(ckpt) => {
                assert_eq!(stopped.stop, StopReason::EmitBudget, "{what} k={k}");
                let resumed = Enumeration::new(g).options(opts.clone()).resume(ckpt).collect();
                let resumed = resumed.unwrap();
                assert!(resumed.is_complete(), "{what} k={k}: resume stopped");
                union.extend(resumed.bicliques);
            }
            None => assert!(stopped.stop.is_complete(), "{what} k={k}: no checkpoint"),
        }
        let len = union.len();
        let mut union = sorted(union);
        union.dedup();
        assert_eq!(union.len(), len, "{what} k={k}: a biclique in both segments");
        assert_eq!(union, want, "{what} k={k}: stopped ∪ resumed");
    }
}

/// Every check of the module docs over every graph on `nu × nv` vertices.
fn check_scope(nu: u32, nv: u32) {
    for mask in 0..1u32 << (nu * nv) {
        let g = graph(nu, nv, mask);
        let want = sorted(mbe::verify::brute_force(&g));
        for alg in Algorithm::all() {
            let what = format!("{alg:?} mask={mask:#x}");
            let opts = MbeOptions::new(alg);
            let one = complete(&g, &opts, &want, &what);
            let split = complete(&g, &forced_split(&opts), &want, &format!("{what} forced split"));
            assert_eq!(counters(&split.stats), counters(&one.stats), "{what}: forced split");
            stop_points(&g, &opts, &want, &what);
            if alg == Algorithm::Mbet {
                let trie = opts.clone().kernel(Kernel::SortedOnly);
                let run = complete(&g, &trie, &want, &format!("{what} SortedOnly"));
                let (got, base) = (counters(&run.stats), counters(&one.stats));
                assert_eq!(got[..8], base[..8], "{what} SortedOnly");
                assert_eq!(got[8], 0, "{what} SortedOnly: word_nodes");
                assert_eq!(one.stats.word_nodes, one.stats.nodes, "{what}: word_nodes");
                stop_points(&g, &forced_split(&opts), &want, &format!("{what} forced split"));
                let what = format!("{what} SortedOnly");
                stop_points(&g, &trie, &want, &what);
                stop_points(&g, &forced_split(&trie), &want, &format!("{what} forced split"));
            }
        }
    }
}

#[test]
fn every_graph_on_3x4_vertices_matches_brute_force() {
    check_scope(3, 4);
}

#[test]
#[ignore = "65,536 graphs: run in a release build with --ignored"]
fn every_graph_on_4x4_vertices_matches_brute_force() {
    check_scope(4, 4);
}
