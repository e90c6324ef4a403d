//! Baseline enumeration engines: MineLMBC, MBEA, iMBEA.
//!
//! All three share the set-enumeration-tree recursion described in
//! DESIGN.md §3.1 and differ in two places:
//!
//! * **maximality check** — `MineLmbc` recomputes the common neighborhood
//!   `C(L')` from the graph and compares it to `R'` (the literal
//!   "Algorithm 1" of the background literature); `Mbea`/`Imbea` keep an
//!   excluded set `Q` and test `L' ⊆ N(q)` per excluded vertex, which is
//!   what makes them competitive;
//! * **candidate order** — `Imbea` re-sorts the candidates of every node
//!   by ascending local degree `|N(w) ∩ L|`, which tends to move failing
//!   branches earlier and shrink the subtrees of the rest.
//!
//! These engines deliberately mirror the published pseudocode, including
//! its per-node allocations — they are the comparators the MBET speedups
//! in the experiment suite are measured against. The node body runs
//! through the shared expansion helpers in [`crate::task`] (over the
//! global-graph [`crate::task::NbrSource`]), so every engine answers the
//! candidate/exclusion questions with the same [`setops::SetView`]
//! operation set.

use std::ops::ControlFlow;

use crate::checkpoint::ResumeTask;
use crate::metrics::Stats;
use crate::run::StopReason;
use crate::sink::BicliqueSink;
use crate::task::{Bound, NbrSource, RootTask};
use crate::Algorithm;
use bigraph::BipartiteGraph;

/// A baseline engine instance (holds scratch buffers; cheap to create).
pub struct BaselineEngine<'g> {
    g: &'g BipartiteGraph,
    alg: Algorithm,
    /// The cut of a bounded run (never cuts by default).
    bound: Bound,
    /// Scratch for `C(L')` recomputation (MineLMBC only).
    cbuf: Vec<u32>,
    cbuf2: Vec<u32>,
    /// Unexplored subtrees captured while unwinding out of a stopped
    /// `run_task`/`run_node` call; drained via `take_frontier`.
    frontier: Vec<ResumeTask>,
    /// Deepest recursion the last `run_task`/`run_node` call reached.
    task_depth: usize,
    /// Split mode for the node a task starts at: its children are queued
    /// on the frontier instead of expanded. Set by the drivers' task
    /// runner before each task.
    pub(crate) split: bool,
}

impl<'g> BaselineEngine<'g> {
    /// An engine over `g`. `alg` must not be [`Algorithm::Mbet`].
    pub fn new(g: &'g BipartiteGraph, alg: Algorithm) -> Self {
        assert!(alg != Algorithm::Mbet, "use MbetEngine for Algorithm::Mbet");
        BaselineEngine {
            g,
            alg,
            bound: Bound::default(),
            cbuf: Vec::new(),
            cbuf2: Vec::new(),
            frontier: Vec::new(),
            task_depth: 0,
            split: false,
        }
    }

    /// The same engine, cutting the tree with `bound`.
    pub(crate) fn with_bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Deepest enumeration recursion the most recent
    /// [`run_task`](Self::run_task)/[`run_node`](Self::run_node) call
    /// reached (0 when the root emitted without branching).
    pub fn task_depth(&self) -> usize {
        self.task_depth
    }

    /// Runs one root task. Breaks iff the sink (or the control plane
    /// gating it) requested a stop.
    pub fn run_task(
        &mut self,
        task: &RootTask,
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        self.frontier.clear();
        self.task_depth = 0;
        self.expand(0, &task.l0, &[], task.v, &task.p0, &task.q0, sink, stats)
    }

    /// Takes the frontier the last call left: the children a split node
    /// queued, or what a stopped call left unexplored.
    pub(crate) fn take_frontier(&mut self) -> Vec<ResumeTask> {
        std::mem::take(&mut self.frontier)
    }

    /// Runs an arbitrary unchecked node (a queued split child or a
    /// checkpointed one). Semantics identical to [`Self::run_task`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_node(
        &mut self,
        l: &[u32],
        r_parent: &[u32],
        v: u32,
        p: &[u32],
        q: &[u32],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        self.frontier.clear();
        self.task_depth = 0;
        self.expand(0, l, r_parent, v, p, q, sink, stats)
    }

    /// Expands the node reached by traversing `v` from a parent with
    /// biclique `(·, r_parent)`: `l_new` is already `L ∩ N(v)`.
    ///
    /// `untraversed` are the parent's remaining candidates (excluding `v`),
    /// `traversed` the excluded set at this point. Emits the biclique when
    /// maximal and recurses, or in split mode at depth 0 queues the
    /// children instead. Breaks iff enumeration should stop.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        depth: usize,
        l_new: &[u32],
        r_parent: &[u32],
        v: u32,
        untraversed: &[u32],
        traversed: &[u32],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        debug_assert!(!l_new.is_empty());
        if self.bound.cuts(l_new.len(), r_parent.len() + 1 + untraversed.len()) {
            stats.bound_pruned += 1;
            return ControlFlow::Continue(());
        }
        stats.nodes += 1;
        self.task_depth = self.task_depth.max(depth);

        // Cheap rejection first for the Q-based variants: some excluded
        // vertex adjacent to all of L' proves (L', ·) can never be maximal
        // here, and the same holds for every descendant (L'' ⊆ L').
        if self.alg != Algorithm::MineLmbc
            && crate::task::covered_by_excluded(self.g, traversed, l_new)
        {
            stats.nonmaximal += 1;
            return ControlFlow::Continue(());
        }

        // Absorption: untraversed candidates adjacent to all of L' belong
        // in R'. Collect them and the surviving candidate set in one pass.
        let mut absorbed: Vec<u32> = Vec::new();
        let mut p_new: Vec<u32> = Vec::new();
        crate::task::partition_candidates(self.g, untraversed, l_new, &mut absorbed, &mut p_new);
        stats.absorbed += absorbed.len() as u64;

        let r_new = crate::task::assemble_r(r_parent, v, &absorbed);
        crate::invariants::check_node(self.g, l_new, &r_new);

        if self.alg == Algorithm::MineLmbc {
            // Algorithm-1 check: R' must equal C(L') recomputed from the
            // graph. (The Q-based engines already rejected above.)
            if !self.r_equals_common_neighbors(l_new, &r_new) {
                stats.nonmaximal += 1;
                return ControlFlow::Continue(());
            }
        }

        // A Break verdict means this emission was NOT delivered (the
        // control gate rejects before forwarding), so re-running this
        // whole node on resume delivers it exactly once.
        if !self.bound.emits(r_new.len()) {
            stats.undersized += 1;
        } else if let ControlFlow::Break(r) = sink.emit(l_new, &r_new) {
            self.frontier.push(ResumeTask::Node {
                l: l_new.to_vec(),
                r_parent: r_parent.to_vec(),
                v,
                p: untraversed.to_vec(),
                q: traversed.to_vec(),
            });
            return ControlFlow::Break(r);
        } else {
            stats.emitted += 1;
        }

        if p_new.is_empty() {
            return ControlFlow::Continue(());
        }

        // Q' = excluded vertices still relevant below (sharing a neighbor
        // with L'). MineLMBC has no Q at all.
        let mut q_now: Vec<u32> = Vec::new();
        if self.alg != Algorithm::MineLmbc {
            crate::task::live_excluded(self.g, traversed, l_new, &mut q_now);
        }

        if self.alg == Algorithm::Imbea {
            // iMBEA: branch on sparse candidates first.
            let g = self.g;
            p_new.sort_by_key(|&w| g.nbr(w, l_new.len()).intersect_count(l_new));
        }

        if depth == 0 && self.split {
            self.queue_children(l_new, &r_new, &p_new, 0, q_now);
            return ControlFlow::Continue(());
        }
        let mut l_child = Vec::new();
        for i in 0..p_new.len() {
            let w = p_new[i];
            crate::task::child_l(self.g, l_new, w, &mut l_child);
            debug_assert!(!l_child.is_empty(), "candidates share a neighbor with L'");
            let l_child_owned = std::mem::take(&mut l_child);
            let flow = self.expand(
                depth + 1,
                &l_child_owned,
                &r_new,
                w,
                &p_new[i + 1..],
                &q_now,
                sink,
                stats,
            );
            q_now.push(w);
            if let ControlFlow::Break(r) = flow {
                // The broken child captured its own subtree; this level
                // owes the checkpoint its untried siblings `p_new[i+1..]`.
                self.queue_children(l_new, &r_new, &p_new, i + 1, q_now);
                return ControlFlow::Break(r);
            }
            l_child = l_child_owned;
        }
        ControlFlow::Continue(())
    }

    /// Pushes the children `p_new[from..]` onto the frontier exactly as
    /// this node would expand them: child `k` sees `q` grown by
    /// `p_new[from..k]` (every earlier branch counts as traversed). A
    /// split node queues every child; a stop queues the untried siblings.
    fn queue_children(
        &mut self,
        l_parent: &[u32],
        r_new: &[u32],
        p_new: &[u32],
        from: usize,
        mut q: Vec<u32>,
    ) {
        for k in from..p_new.len() {
            let w = p_new[k];
            let mut l_child = Vec::new();
            crate::task::child_l(self.g, l_parent, w, &mut l_child);
            self.frontier.push(ResumeTask::Node {
                l: l_child,
                r_parent: r_new.to_vec(),
                v: w,
                p: p_new[k + 1..].to_vec(),
                q: q.clone(),
            });
            q.push(w);
        }
    }

    /// `true` iff `C(l) == r` where `C(l) = ∩_{u ∈ l} N(u)` in `V`.
    fn r_equals_common_neighbors(&mut self, l: &[u32], r: &[u32]) -> bool {
        debug_assert!(!l.is_empty());
        let mut acc = std::mem::take(&mut self.cbuf);
        let mut tmp = std::mem::take(&mut self.cbuf2);
        acc.clear();
        acc.extend_from_slice(self.g.nbr_u(l[0]));
        for &u in &l[1..] {
            if acc.len() < r.len() {
                break; // can only shrink further; already too small
            }
            setops::intersect_into(&acc, self.g.nbr_u(u), &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        let eq = acc == r;
        self.cbuf = acc;
        self.cbuf2 = tmp;
        eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use crate::task::TaskBuilder;

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

    fn run_all(alg: Algorithm, g: &BipartiteGraph) -> (Vec<crate::Biclique>, Stats) {
        let mut sink = CollectSink::new();
        let mut stats = Stats::default();
        let mut builder = TaskBuilder::new(g);
        let mut engine = BaselineEngine::new(g, alg);
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                assert!(engine.run_task(&t, &mut sink, &mut stats).is_continue());
            }
        }
        let mut out = sink.into_vec();
        out.sort();
        (out, stats)
    }

    /// G0 has exactly 6 maximal bicliques (Fig. 1 of the background
    /// literature).
    #[test]
    fn g0_has_six_maximal_bicliques() {
        let g = g0();
        for alg in [Algorithm::MineLmbc, Algorithm::Mbea, Algorithm::Imbea] {
            let (bicliques, stats) = run_all(alg, &g);
            assert_eq!(bicliques.len(), 6, "{alg:?}");
            assert_eq!(stats.emitted, 6, "{alg:?}");
            // Spot-check two known ones: ({u1,u2},{v1,v2,v3}) and
            // ({u2,u4},{v2,v3,v4}).
            assert!(bicliques.iter().any(|b| b.left == [0, 1] && b.right == [0, 1, 2]));
            assert!(bicliques.iter().any(|b| b.left == [1, 3] && b.right == [1, 2, 3]));
        }
    }

    #[test]
    fn all_baselines_agree_on_g0() {
        let g = g0();
        let (a, _) = run_all(Algorithm::MineLmbc, &g);
        let (b, _) = run_all(Algorithm::Mbea, &g);
        let (c, _) = run_all(Algorithm::Imbea, &g);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn complete_bipartite_single_biclique() {
        // K(3,3): exactly one maximal biclique — the whole graph.
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                edges.push((u, v));
            }
        }
        let g = BipartiteGraph::from_edges(3, 3, &edges).unwrap();
        for alg in [Algorithm::MineLmbc, Algorithm::Mbea, Algorithm::Imbea] {
            let (bicliques, _) = run_all(alg, &g);
            assert_eq!(bicliques.len(), 1, "{alg:?}");
            assert_eq!(bicliques[0].left, [0, 1, 2]);
            assert_eq!(bicliques[0].right, [0, 1, 2]);
        }
    }

    #[test]
    fn perfect_matching_enumerates_every_edge() {
        // A perfect matching of size n: every edge is its own maximal
        // biclique.
        let n = 6;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, i)).collect();
        let g = BipartiteGraph::from_edges(n, n, &edges).unwrap();
        let (bicliques, _) = run_all(Algorithm::Mbea, &g);
        assert_eq!(bicliques.len(), n as usize);
        for (i, b) in bicliques.iter().enumerate() {
            assert_eq!(b.left, [i as u32]);
            assert_eq!(b.right, [i as u32]);
        }
    }

    #[test]
    fn star_graph() {
        // One U vertex adjacent to all of V: single maximal biclique.
        let g =
            BipartiteGraph::from_edges(1, 5, &[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let (bicliques, _) = run_all(Algorithm::Imbea, &g);
        assert_eq!(bicliques.len(), 1);
        assert_eq!(bicliques[0].right, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn stop_is_honored() {
        let g = g0();
        let mut stats = Stats::default();
        let mut count = 0;
        let mut sink = crate::FnSink(|_: &[u32], _: &[u32]| {
            count += 1;
            if count < 2 {
                crate::sink::CONTINUE
            } else {
                crate::sink::STOP
            }
        });
        let mut builder = TaskBuilder::new(&g);
        let mut engine = BaselineEngine::new(&g, Algorithm::Mbea);
        let mut stopped = false;
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                if engine.run_task(&t, &mut sink, &mut stats).is_break() {
                    stopped = true;
                    break;
                }
            }
        }
        assert!(stopped);
        assert_eq!(count, 2);
    }
}
