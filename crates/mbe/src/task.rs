//! Root-task decomposition.
//!
//! Every algorithm in this crate decomposes the global enumeration — a DFS
//! from the implicit root node `(U, ∅, V, ∅)` — into one **root task** per
//! right vertex `v`: the subtree obtained by traversing `v` first. The
//! task's universe is the 1-hop/2-hop neighborhood of `v`:
//!
//! * `l0 = N(v)` — the left side of every biclique in the subtree;
//! * `p0 = {w ∈ N²(v) : w > v}` — untraversed candidates;
//! * `q0 = {w ∈ N²(v) : w < v}` — already-traversed (excluded) vertices.
//!
//! Tasks are independent, which is what the pool in [`crate::parallel`]
//! exploits; its one-worker case runs them in order.
//!
//! A size-thresholded or top-k run ("bounded run") walks the same tree
//! and cuts it with a `Bound` that every expansion site checks.

use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::baseline::BaselineEngine;
use crate::checkpoint::ResumeTask;
use crate::mbet::MbetEngine;
use crate::metrics::{Stats, WorkerMetrics};
use crate::obs::{ObsCtx, TaskDelta, TaskInfo, TaskKind};
use crate::run::StopReason;
use crate::sink::BicliqueSink;
use crate::{Algorithm, MbeOptions, SizeThresholds};
use bigraph::two_hop::TwoHop;
use bigraph::{BipartiteGraph, LocalGraph};

/// One per-root-vertex unit of enumeration work.
#[derive(Debug, Clone)]
pub struct RootTask {
    /// The root right vertex.
    pub v: u32,
    /// `N(v)` — the initial `L`.
    pub l0: Vec<u32>,
    /// Untraversed 2-hop candidates (`> v`).
    pub p0: Vec<u32>,
    /// Traversed 2-hop vertices (`< v`).
    pub q0: Vec<u32>,
}

/// The load estimate of a task whose first node has `|L| = l_len` and
/// `|P| = p_len`: the tree height `min(|L|, |P|)` and the tree size
/// `height · |P|`. The product saturates at `usize::MAX` instead of
/// overflowing on adversarial degree distributions, so both estimates
/// stay monotone in both inputs.
pub(crate) fn est_tree(l_len: usize, p_len: usize) -> (usize, usize) {
    let height = l_len.min(p_len);
    (height, height.saturating_mul(p_len))
}

/// The split predicate of a threaded pool: a task runs its first
/// node in split mode iff both estimates of [`est_tree`] exceed their
/// thresholds (`opts.split_height`, `opts.split_size`).
pub(crate) fn splits(opts: &MbeOptions, l_len: usize, p_len: usize) -> bool {
    let (height, size) = est_tree(l_len, p_len);
    height > opts.split_height && size > opts.split_size
}

/// Builds root tasks over one graph with reusable scratch space.
pub struct TaskBuilder<'g> {
    g: &'g BipartiteGraph,
    two_hop: TwoHop,
    buf: Vec<u32>,
}

impl<'g> TaskBuilder<'g> {
    /// A builder for `g`.
    pub fn new(g: &'g BipartiteGraph) -> Self {
        TaskBuilder { g, two_hop: TwoHop::new(g.num_v() as usize), buf: Vec::new() }
    }

    /// The task rooted at `v`, or `None` if `v` is isolated (an isolated
    /// vertex belongs to no biclique with a non-empty left side).
    pub fn build(&mut self, v: u32) -> Option<RootTask> {
        let l0 = self.g.nbr_v(v);
        if l0.is_empty() {
            return None;
        }
        self.two_hop.of_v(self.g, v, &mut self.buf);
        let split = self.buf.partition_point(|&w| w < v);
        Some(RootTask {
            v,
            l0: l0.to_vec(),
            q0: self.buf[..split].to_vec(),
            p0: self.buf[split..].to_vec(),
        })
    }
}

/// Anything that can hand out the sorted neighborhood of a right
/// vertex (restricted to the current universe).
///
/// This is the seam between the engines and the id space: the
/// baselines read global adjacency straight off the [`BipartiteGraph`]
/// CSR, while the localized MBET engine reads per-root [`LocalGraph`]
/// rows in local left ids. The shared expansion helpers below are
/// written against this trait and call the `setops` slice kernels, so
/// every engine runs the same candidate/exclusion logic in either id
/// space.
pub trait NbrSource {
    /// The strictly increasing neighborhood of right vertex `w`.
    fn nbr(&self, w: u32) -> &[u32];
}

impl NbrSource for BipartiteGraph {
    #[inline]
    fn nbr(&self, w: u32) -> &[u32] {
        self.nbr_v(w)
    }
}

impl NbrSource for LocalGraph {
    #[inline]
    fn nbr(&self, w: u32) -> &[u32] {
        self.row(w)
    }
}

/// `true` iff some excluded vertex of `traversed` is adjacent to all of
/// `l_new` — the standard Q-based non-maximality prune (`L' ⊆ N(q)`),
/// fatal for the node and all its descendants.
pub(crate) fn covered_by_excluded<N: NbrSource + ?Sized>(
    n: &N,
    traversed: &[u32],
    l_new: &[u32],
) -> bool {
    traversed.iter().any(|&q| setops::is_subset(l_new, n.nbr(q)))
}

/// One pass over `untraversed` splitting it by local degree against
/// `l_new`: full coverage → appended to `absorbed` (joins `R'`), partial
/// overlap → `p_new` (stays a candidate; cleared first), empty overlap →
/// dropped. Both keep the input's relative order.
pub(crate) fn partition_candidates<N: NbrSource + ?Sized>(
    n: &N,
    untraversed: &[u32],
    l_new: &[u32],
    absorbed: &mut Vec<u32>,
    p_new: &mut Vec<u32>,
) {
    p_new.clear();
    for &w in untraversed {
        let common = setops::intersect_count(n.nbr(w), l_new);
        if common == l_new.len() {
            absorbed.push(w);
        } else if common > 0 {
            p_new.push(w);
        }
    }
}

/// `R' = r_parent ∪ {v} ∪ absorbed`, sorted — the one allocation per
/// emitted biclique that must outlive the recursion.
pub(crate) fn assemble_r(r_parent: &[u32], v: u32, absorbed: &[u32]) -> Vec<u32> {
    let mut r_new: Vec<u32> = Vec::with_capacity(r_parent.len() + 1 + absorbed.len());
    r_new.extend_from_slice(r_parent);
    r_new.push(v);
    r_new.extend_from_slice(absorbed);
    r_new.sort_unstable();
    r_new
}

/// The excluded vertices still relevant below this node: those sharing
/// at least one neighbor with `l_new` (first-occurrence early-exit
/// test). Preserves order; `out` is cleared first.
pub(crate) fn live_excluded<N: NbrSource + ?Sized>(
    n: &N,
    traversed: &[u32],
    l_new: &[u32],
    out: &mut Vec<u32>,
) {
    out.clear();
    out.extend(
        traversed.iter().copied().filter(|&q| setops::intersect_first(n.nbr(q), l_new).is_some()),
    );
}

/// The child's `L`: `l_new ∩ N(w)`, strictly increasing, into `out`
/// (cleared first).
pub(crate) fn child_l<N: NbrSource + ?Sized>(n: &N, l_new: &[u32], w: u32, out: &mut Vec<u32>) {
    setops::intersect_into(n.nbr(w), l_new, out);
}

/// The cut of a bounded run, checked by every expansion site.
///
/// Below a node `(L', R', C')` the left side only shrinks and the right
/// side grows only from the candidates, so every biclique in the subtree
/// has `|L| ≤ |L'|` and `|R| ≤ |R'| + |C'|`. The node is cut when
/// `|L'| < min_l`, when `|R'| + |C'| < min_r`, or when
/// `|L'|·(|R'| + |C'|) ≤ θ`, the k-th best edge count a top-k run has
/// found so far (one atomic shared by every worker; `Relaxed` suffices,
/// since θ publishes no other data and a stale, smaller θ only prunes
/// less). The default bound never cuts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bound {
    min_l: usize,
    min_r: usize,
    theta: Option<Arc<AtomicUsize>>,
}

impl Bound {
    /// A bound for `thresholds` (none: no size cut) and, for a top-k
    /// run, the shared incumbent `theta`.
    pub(crate) fn new(thresholds: Option<SizeThresholds>, theta: Option<Arc<AtomicUsize>>) -> Self {
        let (min_l, min_r) = thresholds.map_or((0, 0), |t| (t.min_l, t.min_r));
        Bound { min_l, min_r, theta }
    }

    /// `true` iff no biclique below a node with `|L'| = l_len` and
    /// `|R'| + |C'| = r_reach` can be reported.
    #[inline]
    pub(crate) fn cuts(&self, l_len: usize, r_reach: usize) -> bool {
        l_len < self.min_l
            || r_reach < self.min_r
            || self
                .theta
                .as_ref()
                .is_some_and(|t| l_len.saturating_mul(r_reach) <= t.load(Ordering::Relaxed))
    }

    /// `true` iff a maximal biclique with `|R'| = r_len` is emitted (a
    /// shorter one is counted in `Stats::undersized`; its node still
    /// branches, since `R` grows below it).
    #[inline]
    pub(crate) fn emits(&self, r_len: usize) -> bool {
        r_len >= self.min_r
    }

    /// `true` iff this bound carries a top-k incumbent, whose pruning
    /// depends on the order the workers find bicliques in.
    pub(crate) fn is_top_k(&self) -> bool {
        self.theta.is_some()
    }
}

/// Root-level equivalence classes: `reps[v]` is `true` iff `v` is the
/// smallest vertex among those with exactly its neighborhood.
///
/// Enumeration only needs to run root tasks for representatives: if
/// `N(w) = N(v)` with `v < w`, every maximal biclique containing `w`
/// contains `v` too, so none is rooted at `w`. This is the root-level
/// instance of MBET's equivalence batching.
pub fn root_representatives(g: &BipartiteGraph) -> Vec<bool> {
    let nv = g.num_v() as usize;
    let mut order: Vec<u32> = (0..nv as u32).collect();
    order.sort_by(|&a, &b| g.nbr_v(a).cmp(g.nbr_v(b)).then(a.cmp(&b)));
    let mut reps = vec![true; nv];
    for pair in order.windows(2) {
        let &[a, b] = pair else { continue };
        if g.nbr_v(a) == g.nbr_v(b) {
            // Same class; sorted tie-break puts the smaller id first.
            reps[b as usize] = false;
        }
    }
    reps
}

/// The root frontier of a full run of `opts` over `g`, generated lazily
/// in id order: every non-isolated vertex, minus the non-representatives
/// ([`root_representatives`]) when the run batches roots, which are
/// counted in `batched` as the sweep passes them. Only MBET with
/// batching enabled skips equivalent roots (the baselines process every
/// vertex, as in their papers).
#[derive(Clone)]
pub(crate) struct Roots<'a> {
    g: &'a BipartiteGraph,
    reps: Option<Vec<bool>>,
    next: u32,
    pub(crate) batched: u64,
}

impl<'a> Roots<'a> {
    pub(crate) fn new(g: &'a BipartiteGraph, opts: &MbeOptions) -> Self {
        let batches = opts.algorithm == Algorithm::Mbet && opts.mbet.batching;
        Roots { g, reps: batches.then(|| root_representatives(g)), next: 0, batched: 0 }
    }
}

impl Iterator for Roots<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.next < self.g.num_v() {
            let v = self.next;
            self.next += 1;
            if self.reps.as_ref().is_some_and(|r| !r[v as usize]) {
                self.batched += 1;
            } else if !self.g.nbr_v(v).is_empty() {
                return Some(v);
            }
        }
        None
    }
}

/// Runs the tasks of one pool worker on one engine and one root
/// builder, both reused across tasks. Every task of every run goes
/// through [`TaskRunner::run`].
pub(crate) struct TaskRunner<'g> {
    g: &'g BipartiteGraph,
    /// The ordering permutation `g` was built with, which the engine
    /// un-applies on emission.
    perm: &'g [u32],
    opts: MbeOptions,
    engine: AnyEngine<'g>,
    builder: TaskBuilder<'g>,
    /// Whether a task that [`splits`] runs its first node in split mode
    /// (a threaded pool) or always runs its whole subtree (one worker).
    split: bool,
}

impl<'g> TaskRunner<'g> {
    /// A runner over the ordered graph `g`, whose right ids go back to
    /// the caller's through `perm` (`perm[internal] = caller`).
    pub(crate) fn new(
        g: &'g BipartiteGraph,
        perm: &'g [u32],
        opts: &MbeOptions,
        split: bool,
    ) -> Self {
        TaskRunner {
            g,
            perm,
            opts: opts.clone(),
            engine: AnyEngine::new(g, perm, opts),
            builder: TaskBuilder::new(g),
            split,
        }
    }

    /// Runs one task: builds a root task's universe (an isolated root is
    /// skipped and counts as no task), fires `task_start`, runs the
    /// subtree on the engine, or only its first node in split mode,
    /// records the task in `wm` and fires `task_finish`. A panic is
    /// caught here, so the task is closed in the trace and the metrics
    /// either way, and comes back as `Err` with the runner's engine and
    /// builder rebuilt. After the call, [`take_frontier`](Self::take_frontier)
    /// holds what the task left: the children a split queued, or the
    /// unexplored remainder of a stopped task.
    pub(crate) fn run(
        &mut self,
        task: &ResumeTask,
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
        obs: ObsCtx<'_>,
        wm: &mut WorkerMetrics,
    ) -> std::thread::Result<ControlFlow<StopReason>> {
        let (nodes_before, emitted_before) = (stats.nodes, stats.emitted);
        let mut started = None;
        // One catch for the whole task, root build included: building a
        // root reads the graph around `v`.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Opens the task: sets split mode and fires `task_start`.
            let mut open = |v: u32, kind: TaskKind, l_len: usize, p_len: usize| {
                let split = self.split && splits(&self.opts, l_len, p_len);
                self.engine.set_split(split);
                let info = TaskInfo { v, kind: if split { TaskKind::Split } else { kind } };
                stats.tasks += 1;
                obs.task_start(&info);
                started = Some((info, Instant::now()));
            };
            match task {
                ResumeTask::Root(v) => {
                    let Some(root) = self.builder.build(*v) else {
                        return ControlFlow::Continue(()); // isolated root — nothing to do
                    };
                    open(root.v, TaskKind::Root, root.l0.len(), root.p0.len());
                    self.engine.run_task(&root, sink, stats)
                }
                ResumeTask::Node { l, r_parent, v, p, q } => {
                    open(*v, TaskKind::Node, l.len(), p.len());
                    self.engine.run_node(l, r_parent, *v, p, q, sink, stats)
                }
            }
        }));
        if result.is_err() {
            // Mid-unwind scratch (the engine's recursion, the builder's
            // 2-hop marks) must not survive the task.
            self.engine = AnyEngine::new(self.g, self.perm, &self.opts);
            self.builder = TaskBuilder::new(self.g);
        }
        if let Some((info, t0)) = started {
            let elapsed = t0.elapsed();
            // A panicked task reports the deltas it accumulated before
            // unwinding, and depth 0.
            let (depth, peak) = match result {
                Ok(_) => (self.engine.task_depth() as u64, self.engine.peak_trie_nodes() as u64),
                Err(_) => (0, 0),
            };
            record_task(wm, depth, peak, elapsed);
            let delta = TaskDelta {
                nodes: stats.nodes - nodes_before,
                emitted: stats.emitted - emitted_before,
                depth,
            };
            obs.task_finish(&info, elapsed, &delta);
        }
        result
    }

    /// Takes what the last [`run`](Self::run) left on the engine's
    /// frontier (empty unless it split or stopped).
    pub(crate) fn take_frontier(&mut self) -> Vec<ResumeTask> {
        self.engine.take_frontier()
    }
}

/// Folds one finished task into the worker's telemetry: latency and
/// depth histograms plus the running peaks.
pub(crate) fn record_task(
    wm: &mut WorkerMetrics,
    depth: u64,
    peak_trie_nodes: u64,
    elapsed: std::time::Duration,
) {
    wm.tasks += 1;
    wm.task_latency_us.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    wm.depth.record(depth);
    wm.peak_depth = wm.peak_depth.max(depth);
    wm.peak_trie_nodes = wm.peak_trie_nodes.max(peak_trie_nodes);
}

/// Engine dispatch of the pool's workers. Constructed once per worker so
/// scratch pools are reused across tasks.
pub(crate) enum AnyEngine<'g> {
    Baseline(BaselineEngine<'g>),
    // Boxed: the MBET engine embeds the localization buffers, making it
    // much larger than the baseline variant. One box per worker.
    Mbet(Box<MbetEngine<'g>>),
}

impl<'g> AnyEngine<'g> {
    /// The engine of `opts` over the ordered graph `g`, emitting caller
    /// ids through `perm`.
    pub(crate) fn new(g: &'g BipartiteGraph, perm: &'g [u32], opts: &MbeOptions) -> Self {
        let bound = opts.bound.clone();
        match opts.algorithm {
            Algorithm::Mbet => AnyEngine::Mbet(Box::new(
                MbetEngine::new(g, opts.mbet, opts.kernel).with_bound(bound).with_perm(perm),
            )),
            alg => {
                AnyEngine::Baseline(BaselineEngine::new(g, alg).with_bound(bound).with_perm(perm))
            }
        }
    }

    /// Sets split mode for the first node of the next task: its children
    /// are queued on the frontier instead of expanded.
    pub(crate) fn set_split(&mut self, split: bool) {
        match self {
            AnyEngine::Baseline(e) => e.split = split,
            AnyEngine::Mbet(e) => e.split = split,
        }
    }

    pub(crate) fn run_task(
        &mut self,
        task: &RootTask,
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        match self {
            AnyEngine::Baseline(e) => e.run_task(task, sink, stats),
            AnyEngine::Mbet(e) => e.run_task(task, sink, stats),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_node(
        &mut self,
        l: &[u32],
        r_parent: &[u32],
        v: u32,
        p: &[u32],
        q: &[u32],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        match self {
            AnyEngine::Baseline(e) => e.run_node(l, r_parent, v, p, q, sink, stats),
            AnyEngine::Mbet(e) => e.run_node(l, r_parent, v, p, q, sink, stats),
        }
    }

    /// Takes the frontier the engine left in its last
    /// `run_task`/`run_node` call: the children of a split node, or the
    /// unexplored remainder of a call that broke (empty otherwise).
    pub(crate) fn take_frontier(&mut self) -> Vec<ResumeTask> {
        match self {
            AnyEngine::Baseline(e) => e.take_frontier(),
            AnyEngine::Mbet(e) => e.take_frontier(),
        }
    }

    /// Deepest recursion the last `run_task`/`run_node` call reached.
    pub(crate) fn task_depth(&self) -> usize {
        match self {
            AnyEngine::Baseline(e) => e.task_depth(),
            AnyEngine::Mbet(e) => e.task_depth(),
        }
    }

    /// Peak live prefix-tree nodes across the engine's lifetime (MBET
    /// only; baselines have no trie and report 0).
    pub(crate) fn peak_trie_nodes(&self) -> usize {
        match self {
            AnyEngine::Baseline(_) => 0,
            AnyEngine::Mbet(e) => e.peak_trie_nodes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn task_shape_on_g0() {
        let g = g0();
        let mut b = TaskBuilder::new(&g);
        let t = b.build(0).unwrap(); // v1
        assert_eq!(t.l0, [0, 1]); // N(v1) = {u1, u2}
        assert!(t.q0.is_empty());
        assert_eq!(t.p0, [1, 2, 3]); // N²(v1) = {v2, v3, v4}
        let t = b.build(3).unwrap(); // v4: N² = {v1, v2, v3}, all < 3
        assert_eq!(t.q0, [0, 1, 2]);
        assert!(t.p0.is_empty());
        assert_eq!(est_tree(t.l0.len(), t.p0.len()).0, 0);
    }

    #[test]
    fn isolated_roots_skipped() {
        let g = BipartiteGraph::from_edges(2, 3, &[(0, 0), (1, 2)]).unwrap();
        let mut b = TaskBuilder::new(&g);
        assert!(b.build(1).is_none());
        assert!(b.build(0).is_some());
    }

    #[test]
    fn estimates() {
        // |L| = 3, |P| = 2 ⇒ height 2, size 4.
        assert_eq!(est_tree(3, 2), (2, 4));
    }

    #[test]
    fn est_tree_size_saturates_at_usize_max() {
        assert_eq!(est_tree(usize::MAX, usize::MAX), (usize::MAX, usize::MAX));
        let half = usize::MAX / 2;
        assert_eq!(est_tree(usize::MAX, half), (half, usize::MAX));
        assert_eq!(est_tree(half, usize::MAX), (half, usize::MAX));
        assert_eq!(est_tree(usize::MAX, 1), (1, 1));
        assert_eq!(est_tree(usize::MAX, 0), (0, 0));
        assert_eq!(est_tree(0, usize::MAX), (0, 0));
    }

    #[test]
    fn representatives_group_identical_neighborhoods() {
        // v0 and v2 have N = {0}; v1 has N = {0,1}; v3 has N = {0}.
        let g =
            BipartiteGraph::from_edges(2, 4, &[(0, 0), (0, 1), (1, 1), (0, 2), (0, 3)]).unwrap();
        let reps = root_representatives(&g);
        assert_eq!(reps, vec![true, true, false, false]);
    }

    #[test]
    fn representatives_all_distinct() {
        let g = g0();
        assert!(root_representatives(&g).iter().all(|&r| r));
    }
}
