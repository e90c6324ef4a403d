//! Differential tests at scales beyond brute force.
//!
//! Brute force caps the smaller side at ~20 vertices; these tests instead
//! pit the engines against *each other* on structured inputs two orders
//! of magnitude larger, where bookkeeping bugs (arena reuse, trie
//! clearing, scratch pooling, fast-path boundaries) actually surface.
//! The proptests at the bottom are the budget/cancellation contract —
//! stopped runs stop for the stated reason, emit exactly what the budget
//! allows, and never deadlock or double-emit, serial or parallel — and
//! the bounded-run contract: thresholds cut every engine and driver
//! without changing what qualifies.

mod common;

use bigraph::BipartiteGraph;
use common::structured;
use mbe::{Algorithm, Biclique, Enumeration, MbeOptions, MbetConfig, Stats, StopReason};
use proptest::prelude::*;

fn collect(g: &BipartiteGraph, opts: MbeOptions) -> Vec<Biclique> {
    Enumeration::new(g).options(opts).collect().unwrap().bicliques
}

fn count(g: &BipartiteGraph, opts: MbeOptions) -> (u64, Stats) {
    let report = Enumeration::new(g).options(opts).count().unwrap();
    (report.count(), report.stats)
}

#[test]
fn engines_agree_on_structured_graphs() {
    for seed in 0..6 {
        let g = structured(seed, 300, 200, 1500);
        let mut reference = collect(&g, MbeOptions::new(Algorithm::Mbea));
        reference.sort();
        assert!(!reference.is_empty());
        for alg in [Algorithm::MineLmbc, Algorithm::Imbea, Algorithm::Mbet] {
            let mut got = collect(&g, MbeOptions::new(alg));
            got.sort();
            assert_eq!(got, reference, "{alg:?} seed={seed}");
        }
    }
}

#[test]
fn mbet_toggles_agree_at_scale() {
    let g = structured(99, 400, 250, 2500);
    let (want, mbea) = count(&g, MbeOptions::new(Algorithm::Mbea));
    let mut stats = Vec::new();
    for mask in 0u8..8 {
        let cfg = MbetConfig {
            batching: mask & 1 != 0,
            trie_maximality: mask & 2 != 0,
            trie_absorption: mask & 4 != 0,
        };
        let (got, s) = count(&g, MbeOptions::new(Algorithm::Mbet).mbet(cfg));
        assert_eq!(got, want, "{cfg:?}");
        // Word mode honours every toggle: the trie everywhere makes the
        // same decisions.
        let sorted = MbeOptions::new(Algorithm::Mbet).mbet(cfg).kernel(mbe::Kernel::SortedOnly);
        let (got, trie) = count(&g, sorted);
        assert_eq!(got, want, "{cfg:?} SortedOnly");
        assert_eq!(tree_counters(&s), tree_counters(&trie), "{cfg:?}");
        assert!(0 < s.word_nodes && s.word_nodes < s.nodes, "{cfg:?}: {s:?}");
        assert_eq!(trie.word_nodes, 0, "{cfg:?}");
        stats.push(s);
    }
    // All off is MBEA, branch for branch.
    assert_eq!(
        (stats[0].nodes, stats[0].nonmaximal, stats[0].emitted),
        (mbea.nodes, mbea.nonmaximal, mbea.emitted)
    );
    // Trie maximality (and the excluded antichain it gates) never moves a
    // decision: runs that differ only in it walk the same tree.
    for mask in [0usize, 1, 4, 5] {
        let (off, on) = (&stats[mask], &stats[mask | 2]);
        assert_eq!(
            (off.nodes, off.nonmaximal, off.batched, off.emitted),
            (on.nodes, on.nonmaximal, on.batched, on.emitted),
            "mask={mask}"
        );
        assert!(on.excluded_kept < off.excluded_kept, "mask={mask}: {on:?} vs {off:?}");
    }
}

/// The counters of the tree a complete run searched: every kernel
/// searches the same tree and reports the same.
fn tree_counters(s: &Stats) -> [u64; 8] {
    [
        s.nodes,
        s.nonmaximal,
        s.emitted,
        s.batched,
        s.absorbed,
        s.excluded_keyed,
        s.excluded_kept,
        s.undersized,
    ]
}

/// The search counters a complete run reports: the tree's, and the part
/// of it MBET ran in word mode. A threaded run, split or not, searches
/// exactly the serial run's tree and reports the same.
fn search_counters(s: &Stats) -> [u64; 9] {
    let t = tree_counters(s);
    [t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], s.word_nodes]
}

/// Every other decision test is relative (kernel against kernel, threads
/// against serial, toggles against MBEA), so a shift both representations
/// made at once would pass them all. This one pins MBET's default search
/// tree to the counters it had when the word body lost its comparison
/// sorts: on BX (word mode but for a few roots) and on a graph whose roots
/// exceed 64 left vertices (the trie path), serially, at 4 threads with
/// every node split, and, for the tree's eight, under `SortedOnly`.
#[test]
fn mbet_search_tree_is_pinned() {
    #[allow(clippy::type_complexity)]
    let cases: [(&str, BipartiteGraph, [u64; 9]); 2] = [
        (
            "BX",
            gen::presets::by_abbrev("BX").expect("preset BX").build(1),
            [96758, 68468, 28290, 90091, 23187, 192453, 49933, 0, 96723],
        ),
        (
            "structured(55)",
            structured(55, 350, 240, 2200),
            [6227, 4031, 2196, 9283, 2462, 12049, 2864, 0, 6226],
        ),
    ];
    for (name, g, want) in cases {
        let (_, serial) = count(&g, MbeOptions::default());
        assert_eq!(search_counters(&serial), want, "{name} serial");
        let mut split = MbeOptions::default().threads(4);
        split.split_height = 0;
        split.split_size = 0;
        let (_, threaded) = count(&g, split);
        assert_eq!(search_counters(&threaded), want, "{name} 4 threads, split");
        let (_, trie) = count(&g, MbeOptions::default().kernel(mbe::Kernel::SortedOnly));
        assert_eq!(tree_counters(&trie)[..], want[..8], "{name} SortedOnly");
    }
}

#[test]
fn parallel_and_split_agree_at_scale() {
    let g = structured(7, 350, 220, 2000);
    for alg in Algorithm::all() {
        let (want, serial) = count(&g, MbeOptions::new(alg));
        for threads in [2, 4] {
            // Default thresholds, then zero thresholds: every node with
            // children splits.
            for forced in [false, true] {
                let mut opts = MbeOptions::new(alg).threads(threads);
                if forced {
                    opts.split_height = 0;
                    opts.split_size = 0;
                }
                let (got, stats) = count(&g, opts);
                let at = format!("{alg:?} threads={threads} forced={forced}");
                assert_eq!(got, want, "{at}");
                assert_eq!(search_counters(&stats), search_counters(&serial), "{at}");
                if forced {
                    assert!(stats.tasks > serial.tasks, "{at}: splitting must create extra tasks");
                }
            }
        }
    }
}

#[test]
fn parallel_stop_terminates_promptly() {
    let g = structured(13, 400, 300, 3000);
    let found = std::sync::atomic::AtomicU64::new(0);
    let (_, report) = Enumeration::new(&g)
        .algorithm(Algorithm::Mbet)
        .threads(4)
        .run_per_worker(|_| {
            mbe::FnSink(|_: &[u32], _: &[u32]| {
                if found.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 10 {
                    mbe::sink::CONTINUE
                } else {
                    mbe::sink::STOP
                }
            })
        })
        .unwrap();
    assert_eq!(report.stop, StopReason::SinkStopped);
    let n = found.load(std::sync::atomic::Ordering::Relaxed);
    // Each worker may overshoot by its in-flight node, no more.
    assert!(n >= 10, "found {n}");
    assert!(n < 10_000, "stop was ignored: {n}");
}

#[test]
fn filtered_matches_post_filter_at_scale() {
    let g = structured(21, 300, 200, 1800);
    let all = collect(&g, MbeOptions::default());
    // Work reference from the same (MBEA-style, unbatched) engine family
    // the filtered search uses, in the same natural order: the thresholds
    // may only ever *remove* enumeration nodes from that tree.
    let unfiltered = MbeOptions::new(Algorithm::Mbea).order(bigraph::order::VertexOrder::Natural);
    let full_stats = Enumeration::new(&g).options(unfiltered).collect().unwrap().stats;
    for (a, b) in [(2, 2), (3, 4), (5, 5)] {
        let thr = mbe::SizeThresholds::new(a, b);
        let report = Enumeration::new(&g).thresholds(thr).collect().unwrap();
        let mut got = report.bicliques;
        got.sort();
        let mut want: Vec<_> =
            all.iter().filter(|x| x.left.len() >= a && x.right.len() >= b).cloned().collect();
        want.sort();
        assert_eq!(got, want, "thr=({a},{b})");
        // Thresholded search must do less work than the full run.
        assert!(
            report.stats.nodes <= full_stats.nodes,
            "thr=({a},{b}): filtered expanded {} nodes, full run {}",
            report.stats.nodes,
            full_stats.nodes
        );
    }
}

#[test]
fn top_k_matches_full_sort_at_scale() {
    let g = structured(33, 300, 200, 1800);
    let all = collect(&g, MbeOptions::default());
    let mut scores: Vec<usize> = all.iter().map(|b| b.edges()).collect();
    scores.sort_unstable_by(|a, b| b.cmp(a));
    for k in [1, 7, 50] {
        let report = Enumeration::new(&g).top_k(k).unwrap();
        let got: Vec<usize> = report.bicliques.iter().map(|b| b.edges()).collect();
        let want: Vec<usize> = scores.iter().copied().take(k).collect();
        assert_eq!(got, want, "k={k}");
        assert!(report.stats.bound_pruned > 0 || k >= all.len());
    }
}

#[test]
fn top_k_matches_full_sort_threaded() {
    let g = structured(33, 300, 200, 1800);
    let mut scores: Vec<usize> =
        collect(&g, MbeOptions::default()).iter().map(|b| b.edges()).collect();
    scores.sort_unstable_by(|a, b| b.cmp(a));
    for threads in 2..=4 {
        for split in [false, true] {
            let mut opts = MbeOptions::default().threads(threads);
            if split {
                opts.split_height = 0;
                opts.split_size = 0;
            }
            for k in [1, 7, 50] {
                let report = Enumeration::new(&g).options(opts.clone()).top_k(k).unwrap();
                assert!(report.is_complete());
                let got: Vec<usize> = report.bicliques.iter().map(|b| b.edges()).collect();
                let want: Vec<usize> = scores.iter().copied().take(k).collect();
                assert_eq!(got, want, "threads={threads} split={split} k={k}");
                for b in &report.bicliques {
                    assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right));
                }
            }
        }
    }
}

#[test]
fn thresholds_run_per_worker() {
    let g = structured(21, 300, 200, 1800);
    let all = collect(&g, MbeOptions::default());
    for threads in [1, 3] {
        let (sinks, report) = Enumeration::new(&g)
            .threads(threads)
            .thresholds(mbe::SizeThresholds::new(3, 4))
            .run_per_worker(|_| mbe::CollectSink::new())
            .unwrap();
        assert!(report.is_complete());
        assert!(report.checkpoint.is_none());
        let mut got: Vec<Biclique> = sinks.into_iter().flat_map(|s| s.into_vec()).collect();
        got.sort();
        let mut want: Vec<Biclique> =
            all.iter().filter(|b| b.left.len() >= 3 && b.right.len() >= 4).cloned().collect();
        want.sort();
        assert_eq!(got, want, "threads={threads}");
        assert_eq!(report.count(), want.len() as u64);
    }
}

#[test]
fn counters_close_at_scale() {
    let g = structured(44, 350, 250, 2200);
    for alg in Algorithm::all() {
        let report = Enumeration::new(&g).algorithm(alg).count().unwrap();
        assert!(report.is_complete());
        assert_eq!(report.stats.nodes, report.stats.emitted + report.stats.nonmaximal, "{alg:?}");
    }
}

#[test]
fn kernels_agree_at_scale() {
    // The kernel is an execution hint: the trie everywhere (SortedOnly)
    // and the adaptive default (word mode below |L'| = 64) must produce
    // identical emissions (order included, serially) and identical
    // search-tree counters, at a scale where roots exceed 64 left
    // vertices, so the trie path, the word path and the switch between
    // them all run.
    let g = structured(55, 350, 240, 2200);
    assert!((0..g.num_v()).any(|v| g.deg_v(v) > 64));
    let want = Enumeration::new(&g)
        .options(MbeOptions::default().kernel(mbe::Kernel::SortedOnly))
        .collect()
        .unwrap();
    assert!(want.bicliques.len() > 100);
    assert_eq!(want.stats.word_nodes, 0);
    let got = Enumeration::new(&g)
        .options(MbeOptions::default().kernel(mbe::Kernel::Adaptive))
        .collect()
        .unwrap();
    assert_eq!(got.bicliques, want.bicliques);
    assert_eq!(tree_counters(&got.stats), tree_counters(&want.stats));
    let s = &got.stats;
    assert!(0 < s.word_nodes && s.word_nodes < s.nodes, "{s:?}");
    let mut reference = want.bicliques;
    reference.sort();
    for threads in [2, 4] {
        for kernel in [mbe::Kernel::SortedOnly, mbe::Kernel::Adaptive] {
            let mut got = collect(&g, MbeOptions::default().threads(threads).kernel(kernel));
            got.sort();
            assert_eq!(got, reference, "threads={threads} {kernel:?}");
        }
        // Zero split thresholds split every node that has children, so
        // every split child re-localizes through `run_node` on a left
        // side narrower than its root's.
        for kernel in [mbe::Kernel::Adaptive, mbe::Kernel::SortedOnly] {
            let mut opts = MbeOptions::default().threads(threads).kernel(kernel);
            opts.split_height = 0;
            opts.split_size = 0;
            let mut got = collect(&g, opts);
            got.sort();
            assert_eq!(got, reference, "split, threads={threads} {kernel:?}");
        }
    }
}

#[test]
fn resume_crosses_relabeled_roots_under_kernel_change() {
    // Stopping mid-root captures `Node` frontier entries whose sets were
    // translated back out of that root's compacted id space; resuming
    // re-localizes them from scratch. The kernel is not pinned by the
    // checkpoint (it never affects the emitted set), so the two segments
    // may even run under different kernels.
    use bigraph::order::VertexOrder;
    let g = structured(77, 300, 200, 1800);
    let full: std::collections::HashSet<Biclique> =
        collect(&g, MbeOptions::default()).into_iter().collect();
    // SortedOnly stops on the trie. Adaptive, in descending-degree order,
    // stops in the first root, whose `L` exceeds a word: that root runs
    // on the trie, its children with `|L''| ≤ 64` are word roots, and the
    // stop lands inside one of their subtrees (the in-flight node,
    // captured first, fits a word).
    assert!((0..g.num_v()).any(|v| g.deg_v(v) > 64));
    let stops = [
        (mbe::Kernel::SortedOnly, VertexOrder::AscendingDegree, 3),
        (mbe::Kernel::Adaptive, VertexOrder::DescendingDegree, 3),
    ];
    for (stop_kernel, order, budget) in stops {
        let opts = MbeOptions::default().order(order);
        let stopped = Enumeration::new(&g)
            .options(opts.clone().kernel(stop_kernel))
            .max_bicliques(budget)
            .collect()
            .unwrap();
        let ckpt = stopped.checkpoint.clone().expect("budget-stopped run must checkpoint");
        // The stop landed inside a root subtree: the frontier must carry
        // interior nodes (not just untouched roots), every id translated
        // back into the graph-wide space.
        let mut saw_node = false;
        for task in &ckpt.frontier {
            if let mbe::ResumeTask::Node { l, r_parent, v, p, q } = task {
                saw_node = true;
                assert!(setops::is_strictly_increasing(l));
                for &u in l {
                    assert!(u < g.num_u(), "left id {u} out of range");
                }
                for &w in r_parent.iter().chain(p).chain(q).chain(std::iter::once(v)) {
                    assert!(w < g.num_v(), "right id {w} out of range");
                }
            }
        }
        assert!(saw_node, "expected the stop to land inside a root subtree");
        if stop_kernel == mbe::Kernel::Adaptive {
            assert!(stopped.stats.word_nodes > 0, "{:?}", stopped.stats);
            match &ckpt.frontier[0] {
                // Checkpoint ids are the ordered graph's: 0 is the first
                // root, of the largest degree, and in this node's `R'`.
                mbe::ResumeTask::Node { l, r_parent, .. } => {
                    assert!(
                        l.len() <= 64 && r_parent.first() == Some(&0),
                        "{:?}",
                        ckpt.frontier[0]
                    );
                }
                task => panic!("expected the in-flight word node first, got {task:?}"),
            }
        }
        for kernel in [mbe::Kernel::SortedOnly, mbe::Kernel::Adaptive] {
            for threads in [1, 3] {
                let at = format!("stopped {stop_kernel:?}, resumed {kernel:?} threads={threads}");
                let resumed = Enumeration::new(&g)
                    .options(opts.clone().threads(threads).kernel(kernel))
                    .resume(ckpt.clone())
                    .collect()
                    .unwrap();
                assert!(resumed.is_complete(), "{at}");
                let mut union: std::collections::HashSet<Biclique> =
                    std::collections::HashSet::with_capacity(full.len());
                for b in stopped.bicliques.iter().chain(resumed.bicliques.iter()) {
                    assert!(union.insert(b.clone()), "duplicate across segments: {b:?} ({at})");
                }
                assert_eq!(union, full, "{at}");
            }
        }
    }
}

/// Total `q` entries over a checkpoint's interior-node tasks.
fn frontier_q_total(ckpt: &mbe::Checkpoint) -> usize {
    ckpt.frontier
        .iter()
        .map(|t| match t {
            mbe::ResumeTask::Node { q, .. } => q.len(),
            mbe::ResumeTask::Root(_) => 0,
        })
        .sum()
}

#[test]
fn checkpoint_with_unpruned_excluded_sets_resumes_exactly() {
    // The fixture holds the `MBCK` bytes of this serial run, stopped at
    // the same budget by the engine before it kept each trie-path node's
    // excluded set an antichain: its interior nodes carry dominated
    // excluded vertices too. The format is unchanged, so it must resume.
    const BUDGET: u64 = 924;
    let g = structured(77, 300, 200, 1800);
    let full: std::collections::HashSet<Biclique> =
        collect(&g, MbeOptions::default()).into_iter().collect();
    let old = mbe::Checkpoint::from_bytes(include_bytes!("data/structured77_budget924.mbck"))
        .expect("fixture decodes");
    assert_eq!(old.emitted, BUDGET);
    let stopped = Enumeration::new(&g).max_bicliques(BUDGET).collect().unwrap();
    assert_eq!(stopped.bicliques.len() as u64, BUDGET);
    let new = stopped.checkpoint.clone().expect("budget-stopped run must checkpoint");
    assert!(
        frontier_q_total(&new) < frontier_q_total(&old),
        "the fixture must carry the larger excluded sets ({} vs {})",
        frontier_q_total(&new),
        frontier_q_total(&old)
    );
    // Resuming validates every task first (`Checkpoint::matches` wants
    // each `q` ascending), then must finish the run exactly.
    for ckpt in [old, new] {
        let resumed = Enumeration::new(&g).resume(ckpt).collect().unwrap();
        assert!(resumed.is_complete());
        let mut union = std::collections::HashSet::with_capacity(full.len());
        for b in stopped.bicliques.iter().chain(&resumed.bicliques) {
            assert!(union.insert(b.clone()), "duplicate across segments: {b:?}");
        }
        assert_eq!(union, full);
    }
}

#[test]
fn checkpoint_fixture_reencodes_byte_identically() {
    // Decoding and re-encoding the recorded `MBCK` bytes must give the
    // same bytes back: the format has one encoding per checkpoint.
    let bytes = include_bytes!("data/structured77_budget924.mbck");
    let ckpt = mbe::Checkpoint::from_bytes(bytes).expect("fixture decodes");
    assert_eq!(ckpt.to_bytes(), bytes.as_slice());
}

#[test]
fn one_worker_stop_checkpoints_the_recorded_bytes() {
    // A one-worker run takes the roots in order and, stopped, captures
    // the in-flight task's remainder followed by the roots it never took.
    // Pinned: the `MBCK` bytes of this run. A change to the seed order,
    // the drain order or the engine's capture moves them.
    let g = structured(77, 300, 200, 1800);
    let stopped = Enumeration::new(&g).max_bicliques(924).collect().unwrap();
    let bytes = stopped.checkpoint.expect("budget-stopped run must checkpoint").to_bytes();
    assert_eq!(bytes.len(), 3226);
    assert_eq!(bigraph::codec::fnv1a(&bytes), 0xc588_4c3d_24d9_7a93);
}

// ---------------------------------------------------------------------------
// Run-control contract, property-tested.

fn random_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1u32..12, 1u32..10).prop_flat_map(|(nu, nv)| {
        proptest::collection::vec((0..nu, 0..nv), 0..80)
            .prop_map(move |edges| BipartiteGraph::from_edges(nu, nv, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any graph, any budget `k`: if the graph has more than `k` maximal
    /// bicliques the run stops with `EmitBudget` after exactly `k`
    /// duplicate-free emissions, each maximal; otherwise it completes
    /// with the full set.
    #[test]
    fn emit_budget_is_exact_and_duplicate_free(g in random_graph(), k in 1u64..12) {
        let total = Enumeration::new(&g).count().unwrap().count();
        let report = Enumeration::new(&g).max_bicliques(k).collect().unwrap();
        if total > k {
            prop_assert_eq!(report.stop, StopReason::EmitBudget);
            prop_assert_eq!(report.bicliques.len() as u64, k);
        } else {
            prop_assert_eq!(report.stop, StopReason::Completed);
            prop_assert_eq!(report.bicliques.len() as u64, total);
        }
        let unique: std::collections::HashSet<&Biclique> = report.bicliques.iter().collect();
        prop_assert_eq!(unique.len(), report.bicliques.len(), "duplicate emission");
        for b in &report.bicliques {
            prop_assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right));
        }
    }

    /// The same budget contract holds across worker counts: parallel
    /// budgeted runs stop for the same reason, emit exactly the budget,
    /// never double-emit, and always terminate (the test completing *is*
    /// the no-deadlock assertion).
    #[test]
    fn budgets_and_cancellation_are_safe_in_parallel(
        g in random_graph(),
        k in 1u64..12,
        threads in 2usize..5,
    ) {
        let total = Enumeration::new(&g).count().unwrap().count();
        let report =
            Enumeration::new(&g).threads(threads).max_bicliques(k).collect().unwrap();
        if total > k {
            prop_assert_eq!(report.stop, StopReason::EmitBudget, "threads={}", threads);
        } else {
            prop_assert_eq!(report.stop, StopReason::Completed, "threads={}", threads);
        }
        prop_assert_eq!(report.bicliques.len() as u64, total.min(k));
        let unique: std::collections::HashSet<&Biclique> = report.bicliques.iter().collect();
        prop_assert_eq!(unique.len(), report.bicliques.len(), "duplicate emission");

        // A run cancelled before it starts drains cleanly and emits
        // nothing, at every worker count.
        let control = mbe::RunControl::new();
        control.cancel();
        let cancelled = Enumeration::new(&g)
            .threads(threads)
            .control(control)
            .collect()
            .unwrap();
        prop_assert_eq!(cancelled.stop, StopReason::Cancelled);
        prop_assert!(cancelled.bicliques.is_empty());
    }

    /// Kernel differential on arbitrary graphs: word mode's one-word
    /// bitmap keys (`Adaptive`) and the sorted trie (`SortedOnly`),
    /// forced through the public API, must be observably identical —
    /// same bicliques in the same serial order, same search-tree
    /// counters — and parallel runs of both agree as sets at 2–4
    /// workers. The graphs have at most 11 left vertices, so every
    /// `Adaptive` node is a word node.
    #[test]
    fn bitmap_and_sorted_kernels_are_observably_identical(
        g in random_graph(),
        threads in 2usize..5,
    ) {
        let sorted = Enumeration::new(&g)
            .options(MbeOptions::default().kernel(mbe::Kernel::SortedOnly))
            .collect()
            .unwrap();
        let words = Enumeration::new(&g)
            .options(MbeOptions::default().kernel(mbe::Kernel::Adaptive))
            .collect()
            .unwrap();
        prop_assert_eq!(&sorted.bicliques, &words.bicliques);
        prop_assert_eq!(tree_counters(&sorted.stats), tree_counters(&words.stats));
        prop_assert_eq!(sorted.stats.word_nodes, 0);
        prop_assert_eq!(words.stats.word_nodes, words.stats.nodes);

        let mut want = sorted.bicliques;
        want.sort();
        for kernel in [mbe::Kernel::SortedOnly, mbe::Kernel::Adaptive] {
            let mut got = collect(&g, MbeOptions::default().threads(threads).kernel(kernel));
            got.sort();
            prop_assert_eq!(&got, &want, "threads={} {:?}", threads, kernel);
        }
    }

    /// The checkpoint/resume contract on random graphs: stop a run of any
    /// engine with a budget, round-trip the checkpoint through the on-disk
    /// byte format, resume it at an arbitrary worker count, and the two
    /// segments form a duplicate-free partition of the uninterrupted run's
    /// biclique set. Every engine's frontier must pass
    /// `Checkpoint::matches`, iMBEA's unsorted candidate lists included.
    #[test]
    fn checkpoint_roundtrip_resume_equals_complete_run(
        g in random_graph(),
        k in 1u64..8,
        threads in 1usize..5,
        alg in 0usize..4,
        forced_split in 0u8..2,
    ) {
        let alg = Algorithm::all()[alg];
        let full: std::collections::HashSet<Biclique> =
            Enumeration::new(&g).collect().unwrap().bicliques.into_iter().collect();
        // Forced splitting queues every child of every node a threaded run
        // reaches, so a stop captures split-off children as frontier tasks.
        let mut opts = MbeOptions::new(alg).threads(threads);
        if forced_split == 1 {
            opts.split_height = 0;
            opts.split_size = 0;
        }
        let stopped =
            Enumeration::new(&g).options(opts.clone()).max_bicliques(k).collect().unwrap();
        match stopped.checkpoint.clone() {
            None => prop_assert!(stopped.is_complete(), "only complete runs lack a checkpoint"),
            Some(ckpt) => {
                prop_assert_eq!(ckpt.emitted, stopped.bicliques.len() as u64);
                let restored = mbe::Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
                prop_assert_eq!(&restored, &ckpt);
                prop_assert!(restored.matches(&g).is_ok(), "{:?} threads={}", alg, threads);
                let resumed = Enumeration::new(&g).options(opts).resume(restored).collect().unwrap();
                prop_assert!(resumed.is_complete(), "{:?} threads={}", alg, threads);
                let mut union: std::collections::HashSet<Biclique> =
                    std::collections::HashSet::with_capacity(full.len());
                for b in stopped.bicliques.iter().chain(resumed.bicliques.iter()) {
                    prop_assert!(union.insert(b.clone()), "duplicate across segments: {:?}", b);
                }
                prop_assert_eq!(union, full, "threads={}", threads);
            }
        }
    }

    /// Corrupted checkpoint bytes — truncations, single bit flips, and a
    /// fingerprint for the wrong graph — are rejected with typed errors,
    /// never a panic or a silently wrong resume.
    #[test]
    fn corrupted_checkpoint_bytes_are_rejected(
        g in random_graph(),
        cut_seed in 0usize..4096,
        flip_seed in 0usize..4096,
    ) {
        let stopped = Enumeration::new(&g).max_bicliques(1).collect().unwrap();
        if let Some(ckpt) = stopped.checkpoint.clone() {
            let bytes = ckpt.to_bytes();

            // Any strict prefix fails to decode.
            let cut_at = cut_seed % bytes.len();
            prop_assert!(mbe::Checkpoint::from_bytes(&bytes[..cut_at]).is_err());

            // Any single flipped bit is caught (the trailing checksum
            // covers every preceding byte).
            let bit = flip_seed % (bytes.len() * 8);
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                mbe::Checkpoint::from_bytes(&corrupt).is_err(),
                "flipped bit {} decoded successfully",
                bit
            );

            // A structurally valid checkpoint for a *different* graph is
            // rejected at resume time by the fingerprint.
            let mut other_edges: Vec<(u32, u32)> = Vec::new();
            for u in 0..g.num_u() {
                for v in g.nbr_u(u) {
                    other_edges.push((u, *v));
                }
            }
            other_edges.push((g.num_u(), g.num_v()));
            let other =
                BipartiteGraph::from_edges(g.num_u() + 1, g.num_v() + 1, &other_edges).unwrap();
            let err = Enumeration::new(&other).resume(ckpt).collect().unwrap_err();
            prop_assert!(
                matches!(err, mbe::MbeError::Checkpoint(mbe::CheckpointError::GraphMismatch { .. })),
                "expected GraphMismatch, got {:?}",
                err
            );
        }
    }

    /// Cancellation raised from another thread mid-run: the run always
    /// returns (no deadlock), and whatever it emitted is a duplicate-free
    /// set of genuine maximal bicliques.
    #[test]
    fn midrun_cancellation_never_deadlocks_or_double_emits(
        g in random_graph(),
        threads in 1usize..5,
        delay_us in 0u64..200,
    ) {
        let e = Enumeration::new(&g).threads(threads);
        let control = e.control_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            control.cancel();
        });
        let report = e.collect().unwrap();
        canceller.join().unwrap();
        // Either it finished before the flag landed or it was cancelled.
        prop_assert!(
            report.stop == StopReason::Completed || report.stop == StopReason::Cancelled,
            "unexpected stop: {:?}",
            report.stop
        );
        let unique: std::collections::HashSet<&Biclique> = report.bicliques.iter().collect();
        prop_assert_eq!(unique.len(), report.bicliques.len(), "duplicate emission");
        for b in &report.bicliques {
            prop_assert!(mbe::verify::is_maximal_biclique(&g, &b.left, &b.right));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Thresholds are a bound on every engine and driver: any algorithm,
    /// 1–4 workers, with or without forced splitting, emits exactly the
    /// post-filtered full enumeration, the counter identity closes, and
    /// a top-k run under the same thresholds ranks within that set.
    #[test]
    fn thresholds_match_post_filter_on_every_engine_and_driver(
        g in random_graph(),
        min_l in 1usize..4,
        min_r in 1usize..4,
        alg in 0usize..4,
        threads in 1usize..5,
        split in 0u8..2,
    ) {
        let alg = Algorithm::all()[alg];
        let mut want: Vec<Biclique> = Enumeration::new(&g)
            .collect()
            .unwrap()
            .bicliques
            .into_iter()
            .filter(|b| b.left.len() >= min_l && b.right.len() >= min_r)
            .collect();
        want.sort();
        let split = split == 1;
        let mut opts = MbeOptions::new(alg).threads(threads);
        if split {
            opts.split_height = 0;
            opts.split_size = 0;
        }
        let thr = mbe::SizeThresholds::new(min_l, min_r);
        let report = Enumeration::new(&g).options(opts.clone()).thresholds(thr).collect().unwrap();
        prop_assert!(report.is_complete());
        let mut got = report.bicliques;
        got.sort();
        prop_assert_eq!(&got, &want, "{:?} threads={} split={}", alg, threads, split);
        let s = &report.stats;
        prop_assert_eq!(s.nodes, s.emitted + s.nonmaximal + s.undersized);
        prop_assert_eq!(s.emitted, want.len() as u64);

        // Top-k composes with the same thresholds.
        let top = Enumeration::new(&g).options(opts).thresholds(thr).top_k(3).unwrap();
        let mut scores: Vec<usize> = want.iter().map(Biclique::edges).collect();
        scores.sort_unstable_by(|a, b| b.cmp(a));
        scores.truncate(3);
        let top_scores: Vec<usize> = top.bicliques.iter().map(Biclique::edges).collect();
        prop_assert_eq!(top_scores, scores, "top-3 {:?} threads={} split={}", alg, threads, split);
        prop_assert!(top.bicliques.iter().all(|b| want.contains(b)));
    }
}
