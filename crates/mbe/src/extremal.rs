//! Extremal biclique search: the maximum-edge biclique and the top-k.
//!
//! The maximum-edge biclique is always maximal (adding a vertex adds
//! edges), so the search space is the same enumeration tree — but a
//! branch-and-bound cut applies: a node `(L', R', C')` can never produce
//! more than `|L'| · (|R'| + |C'|)` edges, because descendants only
//! shrink `L` and only grow `R` from `C`. Branches whose bound cannot
//! beat the incumbents are cut, which prunes the vast majority of the
//! tree on skewed graphs.
//!
//! [`crate::Enumeration::top_k`] runs that search on the stock engines
//! and drivers: the cut is the run's bound (`task::Bound`), against θ,
//! the k-th best edge count found so far. Each worker keeps its `k` best
//! in a `TopKSink` and raises the shared θ once its heap is full; the
//! heaps are merged at the end (`merge_top_k`). The maximum-edge
//! biclique is the `top_k(1)` answer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::run::StopReason;
use crate::sink::{Biclique, BicliqueSink};

/// Heap entry ordered so `BinaryHeap` behaves as a *min*-heap on score:
/// `peek` is the weakest incumbent.
struct Entry {
    score: usize,
    biclique: Biclique,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.cmp(&self.score)
    }
}

/// One worker's top-k incumbents: its `k` best bicliques by edge count.
/// Once the heap is full, every improvement raises the shared θ to the
/// heap's weakest score — the threshold the run's bound prunes against.
pub(crate) struct TopKSink {
    k: usize,
    heap: BinaryHeap<Entry>,
    theta: Arc<AtomicUsize>,
}

impl TopKSink {
    pub(crate) fn new(k: usize, theta: Arc<AtomicUsize>) -> Self {
        TopKSink { k, heap: BinaryHeap::new(), theta }
    }
}

impl BicliqueSink for TopKSink {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        let score = left.len() * right.len();
        if self.heap.len() == self.k {
            if self.heap.peek().is_some_and(|weakest| score <= weakest.score) {
                return ControlFlow::Continue(());
            }
            self.heap.pop();
        }
        self.heap.push(Entry {
            score,
            biclique: Biclique { left: left.to_vec(), right: right.to_vec() },
        });
        if self.heap.len() == self.k {
            if let Some(weakest) = self.heap.peek() {
                self.theta.fetch_max(weakest.score, Ordering::Relaxed);
            }
        }
        ControlFlow::Continue(())
    }
}

/// The `k` best bicliques across the workers' heaps, best first.
pub(crate) fn merge_top_k(k: usize, sinks: Vec<TopKSink>) -> Vec<Biclique> {
    let mut all: Vec<Entry> = sinks.into_iter().flat_map(|s| s.heap.into_vec()).collect();
    all.sort_by_key(|e| Reverse(e.score));
    all.truncate(k);
    all.into_iter().map(|e| e.biclique).collect()
}

#[cfg(test)]
mod tests {
    use crate::{Enumeration, Report, RunControl, StopReason};
    use bigraph::BipartiteGraph;
    use proptest::prelude::*;

    fn g0() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            5,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 1),
                (3, 1),
                (3, 2),
                (3, 3),
                (4, 3),
            ],
        )
        .unwrap()
    }

    fn top_k(g: &BipartiteGraph, k: usize) -> Report {
        Enumeration::new(g).top_k(k).unwrap()
    }

    #[test]
    fn maximum_on_g0() {
        // Three maximal bicliques of G0 have 6 edges (the maximum).
        let report = top_k(&g0(), 1);
        assert_eq!(report.bicliques.len(), 1);
        assert_eq!(report.bicliques[0].edges(), 6);
        assert!(report.stats.nodes > 0);
    }

    #[test]
    fn top_k_ordering_and_truncation() {
        let top = top_k(&g0(), 3).bicliques;
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].edges() >= w[1].edges()));
        assert_eq!(top[0].edges(), 6);
        // Requesting more than exist returns all six.
        assert_eq!(top_k(&g0(), 100).bicliques.len(), 6);
        // k = 0 is empty, no search performed.
        let none = top_k(&g0(), 0);
        assert!(none.bicliques.is_empty());
        assert_eq!(none.stats.nodes, 0);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(3, 3, &[]).unwrap();
        let report = top_k(&g, 1);
        assert!(report.is_complete());
        assert!(report.bicliques.is_empty());
    }

    #[test]
    fn controlled_search_completes_and_matches() {
        let report = Enumeration::new(&g0()).control(RunControl::new()).top_k(3).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.bicliques, top_k(&g0(), 3).bicliques);
    }

    #[test]
    fn pre_cancelled_search_stops_immediately() {
        let control = RunControl::new();
        control.cancel();
        let report = Enumeration::new(&g0()).control(control).top_k(3).unwrap();
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.bicliques.is_empty());
        assert_eq!(report.stats.tasks, 0);
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let control = RunControl::new().timeout(std::time::Duration::ZERO);
        let report = Enumeration::new(&g0()).control(control).top_k(3).unwrap();
        assert_eq!(report.stop, StopReason::Deadline);
        assert!(report.bicliques.is_empty());
    }

    #[test]
    fn bound_pruning_fires_on_skewed_input() {
        // A big planted block dwarfs everything; most branches should be
        // cut against it.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..8 {
            for v in 0..8 {
                edges.push((u, v));
            }
        }
        for i in 0..20u32 {
            edges.push((8 + i % 4, 8 + i));
        }
        let g = BipartiteGraph::from_edges(12, 28, &edges).unwrap();
        let report = top_k(&g, 1);
        assert_eq!(report.bicliques.first().expect("block exists").edges(), 64);
        assert!(report.stats.bound_pruned > 0, "bound pruning never fired");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Top-k agrees with sorting the full enumeration.
        #[test]
        fn matches_full_enumeration(
            edges in proptest::collection::vec((0u32..9, 0u32..8), 0..50),
            k in 1usize..6,
        ) {
            let g = BipartiteGraph::from_edges(9, 8, &edges).unwrap();
            let top = top_k(&g, k).bicliques;
            let all = Enumeration::new(&g).collect().unwrap().bicliques;
            let mut scores: Vec<usize> = all.iter().map(|b| b.edges()).collect();
            scores.sort_unstable_by(|a, b| b.cmp(a));
            let want: Vec<usize> = scores.into_iter().take(k).collect();
            let got: Vec<usize> = top.iter().map(|b| b.edges()).collect();
            prop_assert_eq!(got, want);
            // Every returned biclique is genuinely maximal.
            for b in &top {
                prop_assert!(crate::verify::is_maximal_biclique(&g, &b.left, &b.right));
            }
        }
    }
}
