//! Frontier-shard split/merge contract: any partition of the root
//! frontier into k shards, resumed independently and unioned, equals the
//! complete run, duplicate-free — the invariant the coordinator's
//! scatter/gather (serve crate) distributes on. Exercised with the
//! balanced [`Checkpoint::split`] cut AND arbitrary random partitions,
//! on the serial and the threaded driver.

use bigraph::BipartiteGraph;
use mbe::checkpoint::initial_checkpoint;
use mbe::{
    Algorithm, Biclique, Checkpoint, Enumeration, MbeError, MbeOptions, QueryParams, Report,
    ResumeTask, StopReason,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small-but-nontrivial random bipartite graph with planted blocks.
fn graph(seed: u64, nu: u32, nv: u32, edges: usize) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<(u32, u32)> = Vec::new();
    for _ in 0..edges {
        all.push((rng.gen_range(0..nu), rng.gen_range(0..nv)));
    }
    // A planted 3x4 block so dense structure is always present.
    for u in 0..3.min(nu) {
        for v in 0..4.min(nv) {
            all.push((u, v));
        }
    }
    BipartiteGraph::from_edges(nu, nv, &all).unwrap()
}

fn complete_run(g: &BipartiteGraph, opts: &MbeOptions) -> Vec<Biclique> {
    let mut all = Enumeration::new(g).options(opts.clone()).collect().unwrap().bicliques;
    all.sort();
    all
}

/// Resumes every shard independently (at `threads`) and returns the
/// sorted union, asserting each shard completes and none overlaps.
fn union_of_shards(g: &BipartiteGraph, shards: &[Checkpoint], threads: usize) -> Vec<Biclique> {
    let mut union: Vec<Biclique> = Vec::new();
    for shard in shards {
        let report = mbe::service::run_query(
            Enumeration::new(g).resume(shard.clone()),
            &QueryParams { threads, ..QueryParams::default() },
        )
        .unwrap();
        assert_eq!(report.stop, StopReason::Completed, "shard must run to completion");
        union.extend(report.bicliques);
    }
    let before = union.len();
    union.sort();
    union.dedup();
    assert_eq!(union.len(), before, "shard outputs overlap: duplicates in the union");
    union
}

/// An arbitrary (not load-balanced) partition of the frontier into k
/// nonempty-or-empty buckets, driven by the proptest-provided seed.
fn random_partition(whole: &Checkpoint, k: usize, seed: u64) -> Vec<Checkpoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets: Vec<Vec<ResumeTask>> = vec![Vec::new(); k];
    for task in &whole.frontier {
        buckets[rng.gen_range(0..k)].push(task.clone());
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|frontier| Checkpoint { emitted: 0, frontier, ..whole.clone() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The balanced split: every k, serial resume.
    #[test]
    fn balanced_split_union_equals_complete_run(
        seed in 0u64..500,
        k in 1usize..8,
    ) {
        let g = graph(seed, 40, 30, 160);
        let opts = MbeOptions::new(Algorithm::Mbet);
        let reference = complete_run(&g, &opts);
        let shards = initial_checkpoint(&g, &opts).split(&g, k).unwrap();
        prop_assert_eq!(union_of_shards(&g, &shards, 1), reference);
    }

    /// Any partition at all, resumed serially and threaded.
    #[test]
    fn arbitrary_partition_union_equals_complete_run(
        seed in 0u64..500,
        part_seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let g = graph(seed, 35, 25, 130);
        let opts = MbeOptions::new(Algorithm::Mbet);
        let reference = complete_run(&g, &opts);
        let whole = initial_checkpoint(&g, &opts);
        let shards = random_partition(&whole, k, part_seed);
        prop_assert_eq!(union_of_shards(&g, &shards, 1), reference.clone());
        prop_assert_eq!(union_of_shards(&g, &shards, 2), reference);
    }
}

#[test]
fn split_union_holds_for_every_algorithm() {
    let g = graph(7, 30, 30, 120);
    for alg in Algorithm::all() {
        let opts = MbeOptions::new(alg);
        let reference = complete_run(&g, &opts);
        let shards = initial_checkpoint(&g, &opts).split(&g, 3).unwrap();
        assert_eq!(union_of_shards(&g, &shards, 1), reference, "{}", alg.label());
    }
}

#[test]
fn merged_shards_resume_like_the_original() {
    let g = graph(3, 30, 20, 100);
    let opts = MbeOptions::new(Algorithm::Mbet);
    let whole = initial_checkpoint(&g, &opts);
    let shards = whole.split(&g, 4).unwrap();
    let merged = Checkpoint::merge(&shards).unwrap();
    let reference = complete_run(&g, &opts);
    assert_eq!(union_of_shards(&g, &[merged], 1), reference);
}

/// Resumes `ckpt` on `g` at `threads` on a thread of its own, so a resume
/// that hangs fails the test instead of blocking it. A panicking resume
/// reads as `None`.
fn resume_under_watchdog(
    g: BipartiteGraph,
    ckpt: Checkpoint,
    threads: usize,
) -> Option<Result<Report, MbeError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(Enumeration::new(&g).threads(threads).resume(ckpt).collect());
    });
    let out = rx.recv_timeout(std::time::Duration::from_secs(60));
    assert!(!matches!(out, Err(std::sync::mpsc::RecvTimeoutError::Timeout)), "resume hung");
    run.join().ok().and(out.ok())
}

/// A decoded frontier that does not fit the graph is refused before any
/// driver runs: an out-of-range root, a left side naming a missing
/// vertex, an unsorted left side and an out-of-range candidate each come
/// back as a checkpoint error, serially and threaded, with no panic and
/// no hang.
#[test]
fn frontier_tasks_outside_the_graph_are_refused() {
    let g = graph(5, 4, 4, 6);
    let base = initial_checkpoint(&g, &MbeOptions::default());
    let node =
        |l: Vec<u32>, p: Vec<u32>| ResumeTask::Node { l, r_parent: vec![], v: 0, p, q: vec![] };
    let hostile = [
        ResumeTask::Root(99),
        node(vec![0, 77], vec![]),
        node(vec![1, 0], vec![]),
        node(vec![0], vec![1, 50]),
    ];
    for task in hostile {
        let bytes = Checkpoint { frontier: vec![task.clone()], ..base.clone() }.to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        for threads in [1, 2] {
            match resume_under_watchdog(g.clone(), ckpt.clone(), threads) {
                Some(Err(MbeError::Checkpoint(_))) => {}
                Some(other) => panic!("{task:?} at {threads} threads: {other:?}"),
                None => panic!("{task:?} at {threads} threads: the resume panicked"),
            }
        }
    }
}
