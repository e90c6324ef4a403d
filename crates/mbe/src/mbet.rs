//! The MBET engine: prefix-tree driven enumeration over per-root
//! localized subgraphs.
//!
//! Per root task (and per resumed node) the engine first **localizes**:
//! it builds a [`LocalGraph`] holding the induced subgraph on the
//! task's left universe and right vertices, densely relabeled on both
//! sides (see `bigraph::local` for the id-space rules). Everything the
//! recursion touches from then on — candidate keys, excluded keys, `L`
//! sets — lives in local ids; only `R'` (which must be reported),
//! emissions, and checkpoint frontiers are translated back to global
//! ids at the boundary. Localized rows are pre-clipped to `N(root)` and
//! may be bitmap-packed, so each per-node intersection picks the
//! cheapest representation through [`LocalGraph::row_view`] under the
//! engine's [`Kernel`] policy.
//!
//! Per enumeration node, the engine re-encodes every candidate's and
//! excluded vertex's local neighborhood as its intersection with the
//! node's `L` and inserts it into two [`CandidateTrie`]s. The tries
//! then answer the node's three hot questions structurally (DESIGN.md
//! §3.2):
//!
//! 1. **Equivalence batching** — candidates landing on the same trie node
//!    have identical local neighborhoods; only the smallest (the group
//!    *representative*) is branched on, the rest are provably redundant.
//!    The same argument deduplicates the excluded set, and, at the top
//!    level, whole root tasks ([`crate::task::root_representatives`]).
//! 2. **Maximality** — "is some excluded vertex adjacent to all of `L'`?"
//!    is one superset walk over the excluded trie. That trie holds an
//!    antichain: an excluded key contained in another can never decide a
//!    check below this node, so it is dropped before the trie is built.
//! 3. **Absorption** — "which candidates are adjacent to all of `L'`?" is
//!    a key-length test, shared per group rather than per candidate.
//!
//! Each of the three is independently switchable via [`MbetConfig`]; with
//! all three off the engine is branch-for-branch identical to MBEA, which
//! the test suite asserts down to the node counters. (Local ids are
//! order-isomorphic to global ids, so localization never changes a
//! tie-break or a branch.)
//!
//! The hot path is allocation-free in steady state: keys and member lists
//! live in per-depth arenas (`Scratch`) that are reused across sibling
//! nodes, and the only per-node allocation is the `R'` vector that must
//! outlive the recursion.

use std::ops::ControlFlow;

use crate::checkpoint::ResumeTask;
use crate::metrics::Stats;
use crate::run::StopReason;
use crate::sink::BicliqueSink;
use crate::task::{Bound, RootTask};
use crate::MbetConfig;
use bigraph::{BipartiteGraph, LocalGraph};
use ptree::CandidateTrie;
use setops::Kernel;

/// A `(start, end)` range into one of the scratch arenas.
type Span = (u32, u32);

#[inline]
fn slice(arena: &[u32], s: Span) -> &[u32] {
    &arena[s.0 as usize..s.1 as usize]
}

/// One equivalence class of candidates at a node.
#[derive(Clone, Copy)]
struct Group {
    /// Local neighborhood as local left ids `⊆ L` (into `keyar`).
    key: Span,
    /// Members (into `memar`), unordered.
    members: Span,
    /// Smallest member — the branch representative.
    rep: u32,
}

/// An excluded vertex with a non-empty local neighborhood.
#[derive(Clone, Copy)]
struct Excluded {
    v: u32,
    key: Span,
}

/// Per-depth scratch space, pooled so sibling nodes at the same depth
/// reuse allocations.
#[derive(Default)]
struct Scratch {
    ctrie_p: CandidateTrie,
    ctrie_q: CandidateTrie,
    /// Arena holding every group key and excluded key of this node.
    keyar: Vec<u32>,
    /// Arena holding every group's member list.
    memar: Vec<u32>,
    groups: Vec<Group>,
    q_list: Vec<Excluded>,
    keybuf: Vec<u32>,
    absorbed: Vec<u32>,
    l_child: Vec<u32>,
    child_p: Vec<u32>,
    child_q: Vec<u32>,
    /// The node's `L` translated back to global ids for emission.
    emit_l: Vec<u32>,
}

impl Scratch {
    /// Reduces `q_list` to one vertex per maximal distinct key and leaves
    /// exactly those keys in `ctrie_q` (which must be empty on entry).
    ///
    /// Every descendant's `L''` is a subset of this node's `L'`, so when
    /// `key(q) ⊆ key(q')`, `L'' ⊆ N(q)` implies `L'' ⊆ N(q')`: `q` can
    /// never decide a maximality check that `q'` would not. Longest keys
    /// go first, so a key is kept iff no kept key contains it (equality
    /// counts). Only a quarter to a third of the keys survive, so scanning
    /// the kept ones beats a superset walk over `ctrie_q` (EXPERIMENTS.md,
    /// "Excluded antichain"). The kept list is restored to vertex order,
    /// which keeps every child's `q`, and so every checkpointed `q`,
    /// ascending.
    fn keep_excluded_antichain(&mut self) {
        debug_assert!(self.ctrie_q.is_empty());
        self.q_list.sort_unstable_by_key(|q| (std::cmp::Reverse(q.key.1 - q.key.0), q.v));
        // Partition in place: kept entries to the front, dropped ones to
        // the tail (where the invariant check can still see them).
        let mut kept = 0;
        for i in 0..self.q_list.len() {
            let q = self.q_list[i];
            let key = slice(&self.keyar, q.key);
            let kept_keys = &self.q_list[..kept];
            if !kept_keys.iter().any(|k| setops::is_subset(key, slice(&self.keyar, k.key))) {
                self.ctrie_q.insert(key, q.v);
                self.q_list.swap(kept, i);
                kept += 1;
            }
        }
        let (keep, dropped) = self.q_list.split_at(kept);
        crate::invariants::check_excluded_antichain(
            keep.iter().map(|q| slice(&self.keyar, q.key)),
            dropped.iter().map(|q| slice(&self.keyar, q.key)),
        );
        self.q_list.truncate(kept);
        self.q_list.sort_unstable_by_key(|q| q.v);
    }
}

/// The prefix-tree enumeration engine.
pub struct MbetEngine<'g> {
    g: &'g BipartiteGraph,
    cfg: MbetConfig,
    /// The cut of a bounded run (never cuts by default).
    bound: Bound,
    /// Per-task localized subgraph; rebuilt by `run_task`/`run_node`,
    /// its buffers reused across tasks.
    local: LocalGraph,
    pool: Vec<Scratch>,
    /// Peak candidate-trie node count across the run (memory metric).
    peak_trie_nodes: usize,
    /// Unexplored subtrees captured while unwinding out of a stopped
    /// `run_task`/`run_node` call; drained via `take_frontier`.
    frontier: Vec<ResumeTask>,
    /// Deepest recursion the last `run_task`/`run_node` call reached.
    task_depth: usize,
    /// Split mode for the node a task starts at: its children are queued
    /// on the frontier, in global ids, instead of expanded. Set by the
    /// drivers' task runner before each task.
    pub(crate) split: bool,
    /// Reused staging buffers for the per-task localization.
    rights_buf: Vec<u32>,
    root_l: Vec<u32>,
    root_p: Vec<u32>,
    root_q: Vec<u32>,
}

impl<'g> MbetEngine<'g> {
    /// An engine over `g` with feature toggles `cfg`, using the
    /// intersection kernels permitted by `kernel`.
    pub fn new(g: &'g BipartiteGraph, cfg: MbetConfig, kernel: Kernel) -> Self {
        MbetEngine {
            g,
            cfg,
            bound: Bound::default(),
            local: LocalGraph::new(kernel),
            pool: Vec::new(),
            peak_trie_nodes: 0,
            frontier: Vec::new(),
            task_depth: 0,
            split: false,
            rights_buf: Vec::new(),
            root_l: Vec::new(),
            root_p: Vec::new(),
            root_q: Vec::new(),
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

    /// Takes the frontier the last call left: the children a split node
    /// queued, or what a stopped call left unexplored.
    pub(crate) fn take_frontier(&mut self) -> Vec<ResumeTask> {
        std::mem::take(&mut self.frontier)
    }

    /// Largest candidate-trie (nodes) observed, a proxy for the working-set
    /// memory of the prefix-tree machinery.
    pub fn peak_trie_nodes(&self) -> usize {
        self.peak_trie_nodes
    }

    /// Runs one root task (global ids in, global ids emitted). Breaks
    /// iff the sink (or the control plane gating it) requested a stop.
    pub fn run_task(
        &mut self,
        task: &RootTask,
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        self.frontier.clear();
        self.task_depth = 0;
        // The task's right universe, `q0 ∪ {v} ∪ p0`, is already sorted:
        // the task builder guarantees q0 < v < p0.
        self.rights_buf.clear();
        self.rights_buf.extend_from_slice(&task.q0);
        self.rights_buf.push(task.v);
        self.rights_buf.extend_from_slice(&task.p0);
        debug_assert!(setops::is_strictly_increasing(&self.rights_buf));
        self.local.localize(self.g, &task.l0, &self.rights_buf);
        crate::invariants::check_localization(self.g, &self.local);

        // Local ids are ranks in the sorted universes, so the three
        // slices are contiguous ranges.
        let nq = task.q0.len() as u32;
        self.root_l.clear();
        self.root_l.extend(0..task.l0.len() as u32);
        self.root_q.clear();
        self.root_q.extend(0..nq);
        self.root_p.clear();
        self.root_p.extend(nq + 1..self.rights_buf.len() as u32);

        let l = std::mem::take(&mut self.root_l);
        let p = std::mem::take(&mut self.root_p);
        let q = std::mem::take(&mut self.root_q);
        let flow = self.expand(0, &l, &[], nq, &p, &q, sink, stats);
        self.root_l = l;
        self.root_p = p;
        self.root_q = q;
        flow
    }

    /// Runs an arbitrary unchecked node, given in global ids (a queued
    /// split child or a checkpointed one).
    /// Semantics identical to [`Self::run_task`].
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
        // Arbitrary caller input: sort the right universe defensively.
        self.rights_buf.clear();
        self.rights_buf.extend_from_slice(q);
        self.rights_buf.extend_from_slice(p);
        self.rights_buf.push(v);
        self.rights_buf.sort_unstable();
        self.rights_buf.dedup();
        self.local.localize(self.g, l, &self.rights_buf);
        crate::invariants::check_localization(self.g, &self.local);

        self.root_l.clear();
        self.root_l.extend(0..l.len() as u32);
        self.root_p.clear();
        for &w in p {
            self.root_p.push(self.rlocal(w));
        }
        self.root_q.clear();
        for &w in q {
            self.root_q.push(self.rlocal(w));
        }
        let v_local = self.rlocal(v);

        let l = std::mem::take(&mut self.root_l);
        let p = std::mem::take(&mut self.root_p);
        let q = std::mem::take(&mut self.root_q);
        let flow = self.expand(0, &l, r_parent, v_local, &p, &q, sink, stats);
        self.root_l = l;
        self.root_p = p;
        self.root_q = q;
        flow
    }

    /// Local id of a right vertex known to be inside the current
    /// localization (callers only look up members of the `rights` slice
    /// the localization was just built from, so the search cannot miss).
    #[inline]
    fn rlocal(&self, w: u32) -> u32 {
        // xtask-allow: expect
        self.local.right_local(w).expect("vertex missing from localization")
    }

    /// Pushes a [`ResumeTask::Node`] for a node of the current
    /// localization onto the frontier, translated back to global ids —
    /// queued tasks and checkpoints never leak local ids. `r_parent` is
    /// already global. Cold: it runs only at a stop or for the children
    /// of a split node, never inside a serial run's recursion.
    #[cold]
    fn push_task(&mut self, l: &[u32], r_parent: &[u32], v: u32, p: &[u32], q: &[u32]) {
        let mut l_global = Vec::with_capacity(l.len());
        self.local.left_to_global(l, &mut l_global);
        let local = &self.local;
        self.frontier.push(ResumeTask::Node {
            l: l_global,
            r_parent: r_parent.to_vec(),
            v: local.right_global(v),
            p: p.iter().map(|&w| local.right_global(w)).collect(),
            q: q.iter().map(|&w| local.right_global(w)).collect(),
        });
    }

    /// Expands the node reached by traversing `v`: `l_new` is already the
    /// child's `L`. All of `l_new`/`v`/`untraversed`/`traversed` are
    /// local ids; `r_parent` is global. Mirrors `BaselineEngine::expand`
    /// but runs the node body through the tries. In split mode at depth
    /// 0 it queues each child it would expand instead.
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

        // Hybrid fast path: below a handful of candidates the trie's
        // bookkeeping cannot pay for itself — plain scans win. The same
        // trade-off the literature makes for its representation threshold.
        if untraversed.len() <= SMALL_NODE_CANDIDATES {
            return self.expand_small(
                depth,
                l_new,
                r_parent,
                v,
                untraversed,
                traversed,
                sink,
                stats,
            );
        }
        stats.nodes += 1;
        self.task_depth = self.task_depth.max(depth);

        if self.pool.len() <= depth {
            self.pool.resize_with(depth + 1, Scratch::default);
        }
        let mut s = std::mem::take(&mut self.pool[depth]);
        s.ctrie_p.clear();
        s.ctrie_q.clear();
        s.keyar.clear();
        s.memar.clear();
        s.groups.clear();
        s.q_list.clear();

        // ---- Excluded vertices: key them, check this node's maximality
        // along the way, then keep only the keys that matter below. A key
        // is the vertex's localized row clipped to `L'` — local left ids,
        // so keys of one node share an id space and one representation
        // check (`check_local_key`) covers both kernels.
        let antichain = self.cfg.trie_maximality;
        let mut covered = false;
        let mut keyed = 0u64;
        for &q in traversed {
            self.local.row_view(q, l_new.len()).intersect_into(l_new, &mut s.keybuf);
            crate::invariants::check_local_key(&s.keybuf, l_new);
            if s.keybuf.is_empty() {
                continue; // can never cover any L'' ⊆ L'
            }
            if s.keybuf.len() == l_new.len() {
                covered = true; // q adjacent to all of L'
                break;
            }
            keyed += 1;
            // Under trie maximality the antichain below also dedupes, so
            // only batching alone dedupes here.
            let existed = !antichain && self.cfg.batching && s.ctrie_q.insert(&s.keybuf, q);
            if !existed {
                let start = s.keyar.len() as u32;
                s.keyar.extend_from_slice(&s.keybuf);
                s.q_list.push(Excluded { v: q, key: (start, s.keyar.len() as u32) });
            }
        }
        if covered {
            stats.nonmaximal += 1;
            self.pool[depth] = s;
            return ControlFlow::Continue(());
        }
        stats.excluded_keyed += keyed;
        if antichain {
            s.keep_excluded_antichain();
        }
        stats.excluded_kept += s.q_list.len() as u64;

        // ---- Candidates: trie-group them by local neighborhood.
        for &w in untraversed {
            self.local.row_view(w, l_new.len()).intersect_into(l_new, &mut s.keybuf);
            crate::invariants::check_local_key(&s.keybuf, l_new);
            if s.keybuf.is_empty() {
                continue;
            }
            s.ctrie_p.insert(&s.keybuf, w);
        }
        self.peak_trie_nodes = self.peak_trie_nodes.max(s.ctrie_p.node_count());
        {
            let groups = &mut s.groups;
            let keyar = &mut s.keyar;
            let memar = &mut s.memar;
            let batching = self.cfg.batching;
            s.ctrie_p.for_each_group(|key, members| {
                let kstart = keyar.len() as u32;
                keyar.extend_from_slice(key);
                let kspan = (kstart, keyar.len() as u32);
                if batching {
                    let mstart = memar.len() as u32;
                    memar.extend_from_slice(members);
                    // A trie group always has members. xtask-allow: expect
                    let rep = members.iter().copied().min().expect("non-empty group");
                    groups.push(Group { key: kspan, members: (mstart, memar.len() as u32), rep });
                } else {
                    // Ablation mode: one singleton group per candidate so
                    // the branch structure matches MBEA exactly.
                    for &w in members {
                        let mstart = memar.len() as u32;
                        memar.push(w);
                        groups.push(Group {
                            key: kspan,
                            members: (mstart, memar.len() as u32),
                            rep: w,
                        });
                    }
                }
            });
        }
        // Process groups in representative-id order (determinism and
        // equivalence with the baselines' candidate order — local right
        // order is global right order).
        s.groups.sort_unstable_by_key(|grp| grp.rep);
        crate::invariants::check_spans(
            s.keyar.len(),
            s.groups.iter().map(|grp| grp.key).chain(s.q_list.iter().map(|q| q.key)),
        );
        crate::invariants::check_spans(s.memar.len(), s.groups.iter().map(|grp| grp.members));

        // ---- Absorption for *this* node: candidates adjacent to all of
        // L' go straight into R'. Their key is all of L', so full
        // coverage is a length test, paid once per group.
        s.absorbed.clear();
        {
            let memar = &s.memar;
            let absorbed = &mut s.absorbed;
            let full_len = l_new.len() as u32;
            s.groups.retain(|grp| {
                if grp.key.1 - grp.key.0 == full_len {
                    absorbed.extend_from_slice(slice(memar, grp.members));
                    false
                } else {
                    true
                }
            });
        }
        stats.absorbed += s.absorbed.len() as u64;

        // R' lives in global ids (it outlives this localization): map
        // the absorbed candidates home before they join it. One true
        // allocation per emitted biclique.
        for w in &mut s.absorbed {
            *w = self.local.right_global(*w);
        }
        let r_new = crate::task::assemble_r(r_parent, self.local.right_global(v), &s.absorbed);
        self.local.left_to_global(l_new, &mut s.emit_l);
        crate::invariants::check_node(self.g, &s.emit_l, &r_new);

        if !self.bound.emits(r_new.len()) {
            stats.undersized += 1;
        } else if let ControlFlow::Break(r) = sink.emit(&s.emit_l, &r_new) {
            // A Break verdict means this emission was NOT delivered (the
            // control gate rejects before forwarding), so re-running the
            // whole node on resume delivers it exactly once.
            self.push_task(l_new, r_parent, v, untraversed, traversed);
            self.pool[depth] = s;
            return ControlFlow::Break(r);
        } else {
            stats.emitted += 1;
        }

        // ---- Branch on each group representative.
        let split = depth == 0 && self.split;
        let mut stop = None;
        for gi in 0..s.groups.len() {
            let grp = s.groups[gi];
            let key = slice(&s.keyar, grp.key);
            let n_members = (grp.members.1 - grp.members.0) as u64;
            stats.batched += n_members - 1;

            // Maximality of the child: some excluded vertex adjacent to
            // all of L'' = key?
            let non_maximal = if self.cfg.trie_maximality {
                s.ctrie_q.any_superset(key)
            } else {
                s.q_list.iter().any(|q| setops::is_subset(key, slice(&s.keyar, q.key)))
            };
            if non_maximal {
                // A branch attempt that dies at the check — counted as a
                // node so the counter identity holds for every engine
                // (the child `expand` is never entered).
                stats.nodes += 1;
                stats.nonmaximal += 1;
            } else {
                // The key *is* the child's L, already in local left ids.
                s.l_child.clear();
                s.l_child.extend_from_slice(key);

                // Child's candidate universe: the rest of this group
                // (equivalent to the representative, hence adjacent to all
                // of L'' — the child's full-coverage scan absorbs them into
                // its R'), plus members of later groups whose key shares a
                // vertex with this key (the rest die at the child anyway).
                s.child_p.clear();
                s.child_p
                    .extend(slice(&s.memar, grp.members).iter().copied().filter(|&w| w != grp.rep));
                if self.cfg.trie_absorption {
                    // Per-group (not per-member) key test.
                    for later in &s.groups[gi + 1..] {
                        if local_keys_intersect(slice(&s.keyar, later.key), key) {
                            s.child_p.extend_from_slice(slice(&s.memar, later.members));
                        }
                    }
                } else {
                    for later in &s.groups[gi + 1..] {
                        for &w in slice(&s.memar, later.members) {
                            if self
                                .local
                                .row_view(w, s.l_child.len())
                                .intersect_first(&s.l_child)
                                .is_some()
                            {
                                s.child_p.push(w);
                            }
                        }
                    }
                }
                s.child_p.sort_unstable();

                s.child_q.clear();
                s.child_q.extend(
                    s.q_list
                        .iter()
                        .filter(|q| local_keys_intersect(slice(&s.keyar, q.key), key))
                        .map(|q| q.v),
                );

                if split {
                    // Split mode: queue exactly the child expanded below.
                    self.push_task(key, &r_new, grp.rep, &s.child_p, &s.child_q);
                } else {
                    // Move the buffers out for the recursive call (the
                    // child works in pool[depth + 1]); restore afterwards.
                    let l_child = std::mem::take(&mut s.l_child);
                    let child_p = std::mem::take(&mut s.child_p);
                    let child_q = std::mem::take(&mut s.child_q);
                    let cont = self.expand(
                        depth + 1,
                        &l_child,
                        &r_new,
                        grp.rep,
                        &child_p,
                        &child_q,
                        sink,
                        stats,
                    );
                    s.l_child = l_child;
                    s.child_p = child_p;
                    s.child_q = child_q;
                    if let ControlFlow::Break(r) = cont {
                        // The broken child captured its own subtree; this
                        // level owes the checkpoint its untried groups.
                        self.capture_group_siblings(&s, &r_new, gi);
                        stop = Some(r);
                        break;
                    }
                }
            }

            // The representative becomes excluded for later groups —
            // unless its branch died at the check: a kept key then
            // already contains its key.
            if non_maximal && antichain {
                continue;
            }
            let existed = if self.cfg.trie_maximality || self.cfg.batching {
                s.ctrie_q.insert(key, grp.rep)
            } else {
                false
            };
            if !(existed && self.cfg.batching) {
                s.q_list.push(Excluded { v: grp.rep, key: grp.key });
            }
        }

        self.pool[depth] = s;
        match stop {
            Some(r) => ControlFlow::Break(r),
            None => ControlFlow::Continue(()),
        }
    }

    /// Pushes the untried groups `s.groups[broke_at + 1..]` as resume
    /// tasks, translated to global ids. Each group's node branches on its
    /// representative with `p` = its co-members plus all later groups'
    /// members (a conservative superset — the child's candidate scan
    /// drops the irrelevant ones) and `q` = the current exclusions plus
    /// every earlier representative.
    fn capture_group_siblings(&mut self, s: &Scratch, r_new: &[u32], broke_at: usize) {
        let mut q: Vec<u32> = s.q_list.iter().map(|q| q.v).collect();
        q.push(s.groups[broke_at].rep);
        let mut p = Vec::new();
        for j in broke_at + 1..s.groups.len() {
            let grp = s.groups[j];
            p.clear();
            p.extend(slice(&s.memar, grp.members).iter().copied().filter(|&w| w != grp.rep));
            for later in &s.groups[j + 1..] {
                p.extend_from_slice(slice(&s.memar, later.members));
            }
            p.sort_unstable();
            self.push_task(slice(&s.keyar, grp.key), r_new, grp.rep, &p, &q);
            q.push(grp.rep);
        }
    }
}

/// `true` iff two sorted local-left-id keys share an element.
fn local_keys_intersect(a: &[u32], b: &[u32]) -> bool {
    setops::intersect_first(a, b).is_some()
}

/// Candidate count at or below which [`MbetEngine::expand`] switches to
/// plain scans. Chosen empirically on the benchmark analogues (see the
/// E4 ablation); the enumeration *result* is unaffected by the value.
const SMALL_NODE_CANDIDATES: usize = 4;

impl MbetEngine<'_> {
    /// Scan-based node processing for small candidate sets. Identical
    /// semantics (and counter accounting) to `BaselineEngine`'s MBEA
    /// path — it runs the same shared expansion helpers, only against
    /// the localized rows, and queues its children the same way in split
    /// mode — but recursing back into [`Self::expand`] so larger
    /// descendants regain the trie machinery.
    #[allow(clippy::too_many_arguments)]
    fn expand_small(
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
        stats.nodes += 1;
        self.task_depth = self.task_depth.max(depth);
        if crate::task::covered_by_excluded(&self.local, traversed, l_new) {
            stats.nonmaximal += 1;
            return ControlFlow::Continue(());
        }
        let mut absorbed: Vec<u32> = Vec::new();
        let mut p_new: Vec<u32> = Vec::new();
        crate::task::partition_candidates(
            &self.local,
            untraversed,
            l_new,
            &mut absorbed,
            &mut p_new,
        );
        stats.absorbed += absorbed.len() as u64;
        for w in &mut absorbed {
            *w = self.local.right_global(*w);
        }
        let r_new = crate::task::assemble_r(r_parent, self.local.right_global(v), &absorbed);
        let mut emit_l = Vec::new();
        self.local.left_to_global(l_new, &mut emit_l);
        crate::invariants::check_node(self.g, &emit_l, &r_new);
        if !self.bound.emits(r_new.len()) {
            stats.undersized += 1;
        } else if let ControlFlow::Break(r) = sink.emit(&emit_l, &r_new) {
            // Undelivered emission: re-run the whole node on resume.
            self.push_task(l_new, r_parent, v, untraversed, traversed);
            return ControlFlow::Break(r);
        } else {
            stats.emitted += 1;
        }
        if p_new.is_empty() {
            return ControlFlow::Continue(());
        }
        let mut q_now: Vec<u32> = Vec::new();
        crate::task::live_excluded(&self.local, traversed, l_new, &mut q_now);
        if depth == 0 && self.split {
            self.queue_small_children(l_new, &r_new, &p_new, 0, q_now);
            return ControlFlow::Continue(());
        }
        let mut l_child = Vec::new();
        for i in 0..p_new.len() {
            let w = p_new[i];
            crate::task::child_l(&self.local, l_new, w, &mut l_child);
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
                self.queue_small_children(l_new, &r_new, &p_new, i + 1, q_now);
                return ControlFlow::Break(r);
            }
            l_child = l_child_owned;
        }
        ControlFlow::Continue(())
    }

    /// Scan-path counterpart of `BaselineEngine`'s child queue: pushes
    /// the children `p_new[from..]`, translated to global ids, with `q`
    /// (local ids) grown by each earlier branch. A split node queues
    /// every child; a stop queues the untried siblings.
    fn queue_small_children(
        &mut self,
        l_parent: &[u32],
        r_new: &[u32],
        p_new: &[u32],
        from: usize,
        mut q: Vec<u32>,
    ) {
        let mut l_child = Vec::new();
        for k in from..p_new.len() {
            let w = p_new[k];
            crate::task::child_l(&self.local, l_parent, w, &mut l_child);
            self.push_task(&l_child, r_new, w, &p_new[k + 1..], &q);
            q.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use crate::task::TaskBuilder;
    use crate::{Algorithm, Biclique};

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

    fn run_mbet_kernel(
        g: &BipartiteGraph,
        cfg: MbetConfig,
        kernel: Kernel,
    ) -> (Vec<Biclique>, Stats) {
        let mut sink = CollectSink::new();
        let mut stats = Stats::default();
        let mut builder = TaskBuilder::new(g);
        let mut engine = MbetEngine::new(g, cfg, kernel);
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                assert!(engine.run_task(&t, &mut sink, &mut stats).is_continue());
            }
        }
        let mut out = sink.into_vec();
        out.sort();
        (out, stats)
    }

    fn run_mbet(g: &BipartiteGraph, cfg: MbetConfig) -> (Vec<Biclique>, Stats) {
        run_mbet_kernel(g, cfg, Kernel::Adaptive)
    }

    #[test]
    fn g0_six_bicliques_all_configs() {
        let g = g0();
        for batching in [false, true] {
            for trie_maximality in [false, true] {
                for trie_absorption in [false, true] {
                    let cfg = MbetConfig { batching, trie_maximality, trie_absorption };
                    let (bicliques, stats) = run_mbet(&g, cfg);
                    assert_eq!(bicliques.len(), 6, "{cfg:?}");
                    assert_eq!(stats.emitted, 6, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn kernels_agree_bicliques_and_counters() {
        let g = g0();
        let base = run_mbet_kernel(&g, MbetConfig::default(), Kernel::SortedOnly);
        for kernel in [Kernel::Adaptive, Kernel::BitmapOnly] {
            let got = run_mbet_kernel(&g, MbetConfig::default(), kernel);
            assert_eq!(got.0, base.0, "{kernel:?}");
            assert_eq!(got.1.nodes, base.1.nodes, "{kernel:?}");
            assert_eq!(got.1.emitted, base.1.emitted, "{kernel:?}");
            assert_eq!(got.1.nonmaximal, base.1.nonmaximal, "{kernel:?}");
            assert_eq!(got.1.batched, base.1.batched, "{kernel:?}");
        }
    }

    #[test]
    fn mbet_matches_mbea_counters_when_disabled() {
        let g = g0();
        let cfg = MbetConfig { batching: false, trie_maximality: false, trie_absorption: false };
        let (got, mbet_stats) = run_mbet(&g, cfg);

        let mut sink = CollectSink::new();
        let mut mbea_stats = Stats::default();
        let mut builder = TaskBuilder::new(&g);
        let mut engine = crate::baseline::BaselineEngine::new(&g, Algorithm::Mbea);
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                assert!(engine.run_task(&t, &mut sink, &mut mbea_stats).is_continue());
            }
        }
        let mut want = sink.into_vec();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(mbet_stats.nodes, mbea_stats.nodes);
        assert_eq!(mbet_stats.nonmaximal, mbea_stats.nonmaximal);
        assert_eq!(mbet_stats.emitted, mbea_stats.emitted);
    }

    #[test]
    fn batching_reduces_work_on_duplicated_neighborhoods() {
        // v0 sees {u0,u1,u2}; v1..v5 all see exactly {u0,u1} — one
        // equivalence class of five candidates inside v0's subtree.
        let mut edges = vec![(0u32, 0u32), (1, 0), (2, 0)];
        for v in 1..=5 {
            edges.push((0, v));
            edges.push((1, v));
        }
        let g = BipartiteGraph::from_edges(3, 6, &edges).unwrap();
        let (b_on, s_on) = run_mbet(&g, MbetConfig::default());
        let (b_off, s_off) = run_mbet(&g, MbetConfig { batching: false, ..Default::default() });
        assert_eq!(b_on, b_off);
        // Two maximal bicliques: ({u0,u1,u2},{v0}) and ({u0,u1},{v0..v5}).
        assert_eq!(b_on.len(), 2);
        assert!(b_on.iter().any(|b| b.left == [0, 1] && b.right == [0, 1, 2, 3, 4, 5]));
        assert_eq!(s_on.batched, 4, "five equivalent candidates, one branch");
        assert!(s_on.nodes + s_on.nonmaximal < s_off.nodes + s_off.nonmaximal);
    }

    #[test]
    fn equivalent_partial_candidates_all_join_r() {
        // Regression: non-representative members of the expanded group
        // must end up in the child's R even though only the rep branches.
        let edges = vec![(0u32, 0u32), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
        let g = BipartiteGraph::from_edges(3, 3, &edges).unwrap();
        let (bicliques, _) = run_mbet(&g, MbetConfig::default());
        crate::verify::assert_matches_brute_force(&g, &bicliques);
        assert!(bicliques.iter().any(|b| b.left == [0, 1] && b.right == [0, 1, 2]));
    }

    #[test]
    fn stop_requested_mid_run() {
        let g = g0();
        let mut stats = Stats::default();
        let mut n = 0;
        let mut sink = crate::FnSink(|_: &[u32], _: &[u32]| {
            n += 1;
            crate::sink::STOP
        });
        let mut builder = TaskBuilder::new(&g);
        let mut engine = MbetEngine::new(&g, MbetConfig::default(), Kernel::Adaptive);
        let t = builder.build(0).unwrap();
        assert!(engine.run_task(&t, &mut sink, &mut stats).is_break());
        assert_eq!(n, 1);
    }

    #[test]
    fn captured_frontier_is_global_ids() {
        // Stop at the first emission of a root with candidates: the
        // captured resume tasks must be valid *global* right ids with
        // global L sets, even though the engine ran on local ids.
        let g = g0();
        let mut stats = Stats::default();
        let mut sink = crate::FnSink(|_: &[u32], _: &[u32]| crate::sink::STOP);
        let mut builder = TaskBuilder::new(&g);
        let mut engine = MbetEngine::new(&g, MbetConfig::default(), Kernel::Adaptive);
        let t = builder.build(0).unwrap();
        assert!(engine.run_task(&t, &mut sink, &mut stats).is_break());
        let frontier = engine.take_frontier();
        assert!(!frontier.is_empty());
        for task in &frontier {
            if let ResumeTask::Node { l, v, p, q, .. } = task {
                assert!(*v < g.num_v());
                for &w in p.iter().chain(q.iter()) {
                    assert!(w < g.num_v());
                }
                for &u in l {
                    assert!(u < g.num_u());
                }
                assert!(setops::is_strictly_increasing(l));
            }
        }
    }

    #[test]
    fn peak_trie_nodes_is_tracked() {
        // Needs a node with more candidates than the small-node fast-path
        // threshold, or no trie is ever built: one root vertex whose
        // 2-hop universe has 8 partially-overlapping candidates.
        let mut edges = vec![(0u32, 0u32), (1, 0), (2, 0), (3, 0)];
        for v in 1..=8u32 {
            edges.push((v % 4, v));
            edges.push(((v + 1) % 4, v));
        }
        let g = BipartiteGraph::from_edges(4, 9, &edges).unwrap();
        let mut engine = MbetEngine::new(&g, MbetConfig::default(), Kernel::Adaptive);
        let mut sink = CollectSink::new();
        let mut stats = Stats::default();
        let mut builder = TaskBuilder::new(&g);
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                assert!(engine.run_task(&t, &mut sink, &mut stats).is_continue());
            }
        }
        assert!(engine.peak_trie_nodes() > 1);
        crate::verify::assert_matches_brute_force(&g, &sink.into_vec());
    }

    #[test]
    fn nested_excluded_keys_keep_only_the_maximal_one() {
        // Root v3 sees all of u0..u5. The earlier right vertices v0..v2
        // reach it as excluded vertices with nested keys {u0} ⊂ {u0,u1} ⊂
        // {u0,u1,u2}, and its five candidates v4..v8 (one more than the
        // small-node threshold) send it down the trie path.
        let mut edges = vec![(0u32, 0u32), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)];
        edges.extend((0..6).map(|u| (u, 3)));
        for v in 4..9u32 {
            edges.push((v - 3, v));
            edges.push(((v - 2) % 6, v));
        }
        let g = BipartiteGraph::from_edges(6, 9, &edges).unwrap();
        assert_eq!(SMALL_NODE_CANDIDATES, 4);

        let mut engine = MbetEngine::new(&g, MbetConfig::default(), Kernel::Adaptive);
        let mut stats = Stats::default();
        let root = TaskBuilder::new(&g).build(3).unwrap();
        assert_eq!((root.q0.len(), root.p0.len()), (3, 5));
        assert!(engine.run_task(&root, &mut CollectSink::new(), &mut stats).is_continue());
        // Only the root runs the trie path: three keys in, one kept.
        assert_eq!((stats.excluded_keyed, stats.excluded_kept), (3, 1));

        let (got, on) = run_mbet(&g, MbetConfig::default());
        crate::verify::assert_matches_brute_force(&g, &got);
        assert!(on.excluded_kept < on.excluded_keyed, "{on:?}");
        // Without trie maximality nothing is pruned, and no decision moves.
        let (got_off, off) =
            run_mbet(&g, MbetConfig { trie_maximality: false, ..Default::default() });
        assert_eq!(got_off, got);
        assert_eq!(
            (off.nodes, off.emitted, off.nonmaximal, off.batched),
            (on.nodes, on.emitted, on.nonmaximal, on.batched)
        );
    }

    #[test]
    fn fast_path_threshold_boundary() {
        // Graphs straddling the SMALL_NODE_CANDIDATES boundary must agree
        // with brute force regardless of which path handles the root.
        for extra in 0..=(2 * SMALL_NODE_CANDIDATES as u32) {
            let mut edges = vec![(0u32, 0u32), (1, 0)];
            for v in 1..=(1 + extra) {
                edges.push((v % 3, v));
                edges.push(((v + 1) % 3, v));
            }
            let g = BipartiteGraph::from_edges(3, 2 + extra, &edges).unwrap();
            for kernel in [Kernel::Adaptive, Kernel::SortedOnly, Kernel::BitmapOnly] {
                let (bicliques, _) = run_mbet_kernel(&g, MbetConfig::default(), kernel);
                crate::verify::assert_matches_brute_force(&g, &bicliques);
            }
        }
    }
}
