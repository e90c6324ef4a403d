//! The MBET engine: prefix-tree driven enumeration over per-root
//! localized subgraphs.
//!
//! Per root task (and per resumed node) the engine first **localizes**:
//! it builds a [`LocalGraph`] holding the induced subgraph on the
//! task's left universe and right vertices, densely relabeled on both
//! sides (see `bigraph::local` for the id-space rules). Everything the
//! recursion touches from then on — candidate keys, excluded keys, `L`
//! sets, `R'` — lives in local ids. A node's `R'` is the task's
//! `r_parent` (internal ids) plus one engine-level stack of local right
//! ids: each node on the path pushes its traversed vertex and its
//! absorbed candidates and truncates back before it returns. Ids are
//! translated only where something reads them: an emission to a sink
//! that reads ids (to caller ids, through a per-task table composing the
//! localization with the ordering permutation, then sorted once), a
//! captured frontier task (to internal ids), and the `debug-invariants`
//! node check. A count translates nothing.
//!
//! Per enumeration node, the engine keys every candidate and excluded
//! vertex by its local neighborhood clipped to the node's `L'` and
//! answers the node's three hot questions on those keys (DESIGN.md
//! §3.2):
//!
//! 1. **Equivalence batching** — candidates with the same key have
//!    identical local neighborhoods; only the smallest (the group
//!    *representative*) is branched on, the rest are provably redundant.
//!    The same argument deduplicates the excluded set, and, at the top
//!    level, whole root tasks ([`crate::task::root_representatives`]).
//! 2. **Maximality** — "is some excluded vertex adjacent to all of `L'`?"
//!    is one superset search over the excluded keys. They form an
//!    antichain: an excluded key contained in another can never decide a
//!    check below this node, so it is dropped first.
//! 3. **Absorption** — "which candidates are adjacent to all of `L'`?" is
//!    a full-key test, shared per group rather than per candidate.
//!
//! Keys take one of two representations, and one node body (`expand`,
//! with `expand_small` for nodes of at most four candidates) is generic
//! over them:
//!
//! * **The trie path**: `L'` is a sorted list of local left
//!   ids, every candidate and excluded vertex is keyed from its localized
//!   row ([`LocalGraph::row`]) at every node by the `setops` slice
//!   kernels, and two [`CandidateTrie`]s group the candidate keys and
//!   walk the excluded ones.
//! * **Word mode**: the first node on a path whose `L'` has at
//!   most 64 vertices is a *word root*. It keys every candidate and
//!   excluded vertex once from its row as a `u64` mask over the positions
//!   of its `L'`; below it `P` and `Q` carry their masks, a child's `L''`
//!   is its representative's mask and every child key is `key & L''`, so
//!   no row is read again in the subtree. Emission and checkpoint capture
//!   map masks home through the word root's table of at most 64 local
//!   ids.
//!
//! Every node's `P` and `Q` are ascending by vertex, and a word body keeps
//! its bookkeeping in that order with no comparison sort: the excluded
//! antichain orders its keys by a stable counting sort on key size, the
//! candidates are grouped through an open-addressing table keyed by mask
//! as the ascending `P` is read, so groups come out in representative
//! order, and each child's `P` is one pass over the node's `P` from the
//! representative on. Each pass is stable in vertex order, so every
//! maximal distinct excluded key keeps its smallest vertex and every group
//! its smallest member, as the sorts they replace did. The trie path
//! counting-sorts its antichain the same way, and sorts its groups and
//! child `P`s.
//!
//! Both make the same decisions in the same order, so the emitted
//! bicliques, every search counter but `Stats::word_nodes`, split
//! children and checkpoint bytes are the same under both [`Kernel`]s;
//! `Kernel::SortedOnly` turns word mode off and runs the trie everywhere.
//!
//! Each technique is independently switchable via [`MbetConfig`]; with
//! all three off the engine is branch-for-branch identical to MBEA, which
//! the test suite asserts down to the node counters. (Local ids are
//! order-isomorphic to global ids, so localization never changes a
//! tie-break or a branch.)
//!
//! Both node bodies are allocation-free in steady state: keys, member
//! lists and the children's `P` and `Q` live in per-depth scratch
//! (`Scratch`) that is reused across sibling nodes, and `R'` on the
//! engine's stack.

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

/// Most vertices a word root's `L'` may have: one bit each in a `u64`.
const WORD_BITS: usize = 64;

/// The mask of the first `n` positions, `1 ≤ n ≤ 64`. (`(1 << 64) - 1`
/// would overflow the shift.)
#[inline]
fn full_mask(n: usize) -> u64 {
    debug_assert!((1..=WORD_BITS).contains(&n));
    u64::MAX >> (WORD_BITS - n)
}

/// One equivalence class of candidates at a node.
#[derive(Clone, Copy)]
struct Group<K> {
    /// The members' common key `⊆ L'`.
    key: K,
    /// Members (into `memar`): ascending in word mode, unordered on the
    /// trie path.
    members: Span,
    /// Smallest member — the branch representative.
    rep: u32,
    /// Word mode: the representative's index in the node's `P`, where
    /// [`Repr::child_p`] starts (0 on the trie path, which does not use it).
    at: u32,
}

/// A right vertex with its key: an excluded vertex of a node, and in a
/// word subtree every entry of `P` and `Q`.
#[derive(Clone, Copy, Debug)]
struct Keyed<K> {
    v: u32,
    key: K,
}

/// Per-depth scratch space of one node body, pooled so sibling nodes at
/// the same depth reuse allocations.
struct Scratch<R: Repr> {
    /// The representation's own key storage.
    keys: R,
    /// Arena holding every group's member list.
    memar: Vec<u32>,
    groups: Vec<Group<R::Key>>,
    q_list: Vec<Keyed<R::Key>>,
    child_p: Vec<R::Entry>,
    child_q: Vec<R::Entry>,
    /// A small node's child `L''`.
    l_small: R::LBuf,
    /// The excluded antichain's buffers: per key size a count, then the
    /// next free slot of its run; the `(key, index into q_list)` entries
    /// ordered longest key first; the kept keys; which entries are kept;
    /// and, for the invariant check only, the dropped entries.
    by_size: Vec<u32>,
    ranked: Vec<(R::Key, u32)>,
    kept: Vec<R::Key>,
    keep: Vec<bool>,
    dropped: Vec<Keyed<R::Key>>,
}

impl<R: Repr> Default for Scratch<R> {
    fn default() -> Self {
        Scratch {
            keys: R::default(),
            memar: Vec::new(),
            groups: Vec::new(),
            q_list: Vec::new(),
            child_p: Vec::new(),
            child_q: Vec::new(),
            l_small: R::LBuf::default(),
            by_size: Vec::new(),
            ranked: Vec::new(),
            kept: Vec::new(),
            keep: Vec::new(),
            dropped: Vec::new(),
        }
    }
}

impl<R: Repr> Scratch<R> {
    fn clear(&mut self) {
        self.keys.clear();
        self.memar.clear();
        self.groups.clear();
        self.q_list.clear();
    }

    /// Absorption for a node: candidates adjacent to all of `l` go
    /// straight into its `R'`. Their key is all of `l`, so full coverage is
    /// one key test, paid once per group; the absorbed groups' members are
    /// appended to `absorbed`, and the groups leave `groups`, the rest in
    /// order.
    fn absorb(&mut self, l: R::L<'_>, absorbed: &mut Vec<u32>) {
        let (keys, memar) = (&self.keys, &self.memar);
        self.groups.retain(|grp| {
            let covered = keys.covers(grp.key, l);
            if covered {
                absorbed.extend_from_slice(slice(memar, grp.members));
            }
            !covered
        });
    }

    /// Reduces `q_list` (ascending by vertex) to one vertex per maximal
    /// distinct key, still ascending, and indexes exactly those keys for
    /// the maximality search. No key is longer than `l_len`.
    ///
    /// Every descendant's `L''` is a subset of this node's `L'`, so when
    /// `key(q) ⊆ key(q')`, `L'' ⊆ N(q)` implies `L'' ⊆ N(q')`: `q` can
    /// never decide a maximality check that `q'` would not. A stable
    /// counting sort on key size ([`Repr::size`]) puts the keys longest
    /// first, equal sizes in vertex order, so every strict superset of a
    /// key, and every equal key of a smaller vertex, comes before it; a
    /// key is then kept iff no kept key contains it (equality counts). Only
    /// a quarter to a third of the keys survive, so scanning the kept ones
    /// beats a superset walk (EXPERIMENTS.md, "Excluded antichain"). The
    /// kept entries are compacted in place, in vertex order, which keeps
    /// every child's `q`, and so every checkpointed `q`, ascending. No pass
    /// compares two keys' order, so nothing here is a comparison sort.
    fn keep_excluded_antichain(&mut self, l_len: usize) {
        let keys = &self.keys;
        let n = self.q_list.len();
        // `by_size[s]` counts the keys of size `s`, then becomes the next
        // free slot of their run; the runs go longest first.
        self.by_size.clear();
        self.by_size.resize(l_len + 1, 0);
        for q in &self.q_list {
            self.by_size[keys.size(q.key)] += 1;
        }
        let mut next = 0;
        for slot in self.by_size.iter_mut().rev() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        self.ranked.clear();
        self.ranked.resize(n, (R::Key::default(), 0));
        for (i, q) in self.q_list.iter().enumerate() {
            let slot = &mut self.by_size[keys.size(q.key)];
            self.ranked[*slot as usize] = (q.key, i as u32);
            *slot += 1;
        }
        // Each key is written after the kept ones, and stays there iff none
        // of them contains it: no branch on the outcome.
        self.kept.clear();
        self.kept.resize(n, R::Key::default());
        self.keep.clear();
        self.keep.resize(n, false);
        let mut kept = 0;
        for &(key, i) in &self.ranked {
            let keep = !keys.any_contains(&self.kept[..kept], key);
            self.kept[kept] = key;
            kept += keep as usize;
            self.keep[i as usize] = keep;
        }
        // The dropped keys go to the invariant check, which wants each
        // inside a kept one; only it needs them gathered.
        self.dropped.clear();
        if crate::invariants::ENABLED {
            let dropped = self.q_list.iter().zip(&self.keep).filter(|&(_, &kept)| !kept);
            self.dropped.extend(dropped.map(|(&q, _)| q));
        }
        // Compact in vertex order: every entry is copied to the next free
        // place, which advances past the kept ones only.
        let mut end = 0;
        for i in 0..n {
            self.q_list[end] = self.q_list[i];
            end += self.keep[i] as usize;
        }
        self.q_list.truncate(end);
        keys.check_antichain(&self.q_list, &self.dropped);
        self.keys.index_excluded(&self.q_list);
    }
}

/// The key representation a node body runs on. The body makes every
/// decision; a representation keys vertices against a node's `L'` and
/// answers set questions about the keys. [`Trie`] is the trie path,
/// [`Words`] is word mode (see the module docs).
trait Repr: Default + Sized {
    /// Word mode: the body's nodes count in `Stats::word_nodes`.
    const WORD: bool;
    /// A node's `L'`.
    type L<'a>: Copy;
    /// An owned `L'` (a small-path child's).
    type LBuf: Default;
    /// An entry of a node's `P` or `Q`.
    type Entry: Copy;
    /// A key stored at a node.
    type Key: Copy + Default;

    /// This representation's scratch pool.
    fn pool<'e>(eng: &'e mut MbetEngine<'_>) -> &'e mut Vec<Scratch<Self>>;
    /// Expands a child node of this representation's nodes.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        eng: &mut MbetEngine<'_>,
        depth: usize,
        l: Self::L<'_>,
        v: u32,
        p: &[Self::Entry],
        q: &[Self::Entry],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason>;

    fn l_len(l: Self::L<'_>) -> usize;
    fn l_of(buf: &Self::LBuf) -> Self::L<'_>;
    fn vertex(e: Self::Entry) -> u32;
    /// `l` in global ids, ascending, into `out` (cleared first). `table`
    /// is the word root's `L'` in local ids.
    fn left_global(local: &LocalGraph, table: &[u32], l: Self::L<'_>, out: &mut Vec<u32>);
    /// Debug-invariant check of a node's entries (see
    /// `invariants::check_word_keys`). `table` is the word root's `L'`
    /// in local ids.
    fn check_entries(local: &LocalGraph, table: &[u32], l: Self::L<'_>, entries: &[Self::Entry]);

    // ---- The full node body.

    /// Forgets the previous node's keys.
    fn clear(&mut self);
    /// Keys `e` against `l`: stores `N(e) ∩ L'`.
    fn key(&mut self, local: &LocalGraph, e: Self::Entry, l: Self::L<'_>) -> Self::Key;
    fn is_empty(&self, k: Self::Key) -> bool;
    /// `k = L'`: the vertex is adjacent to all of `L'`.
    fn covers(&self, k: Self::Key, l: Self::L<'_>) -> bool;
    /// `|k|`: a strict superset is larger, so ordering by size, longest
    /// first, puts every key after each key strictly containing it.
    fn size(&self, k: Self::Key) -> usize;
    /// `a ⊆ b`.
    fn is_subset(&self, a: Self::Key, b: Self::Key) -> bool;
    /// Whether some key of `kept` contains `k` (the excluded antichain's
    /// test).
    fn any_contains(&self, kept: &[Self::Key], k: Self::Key) -> bool;
    /// `a ∩ b ≠ ∅`.
    fn intersects(&self, a: Self::Key, b: Self::Key) -> bool;
    /// A key as a child's `L''`.
    fn key_l(&self, k: Self::Key) -> Self::L<'_>;
    /// The child entry of vertex `v` with key `k` at a node whose child
    /// has `L'' = l_child`.
    fn entry(v: u32, k: Self::Key, l_child: Self::Key) -> Self::Entry;
    /// Groups the candidates of `p` (ascending) with a non-empty key into
    /// the empty `groups` (members into `memar`), in increasing
    /// representative order: one group per distinct key under batching,
    /// one per candidate otherwise. Returns the candidate trie's size (0
    /// without one).
    fn group(
        &mut self,
        local: &LocalGraph,
        p: &[Self::Entry],
        l: Self::L<'_>,
        batching: bool,
        groups: &mut Vec<Group<Self::Key>>,
        memar: &mut Vec<u32>,
    ) -> usize;
    /// Debug-invariant check of the arena spans of a node's keys.
    fn check_spans(&self, groups: &[Group<Self::Key>], q_list: &[Keyed<Self::Key>]);
    /// Debug-invariant check of the excluded antichain.
    fn check_antichain(&self, kept: &[Keyed<Self::Key>], dropped: &[Keyed<Self::Key>]);
    /// Indexes the kept excluded keys for [`Repr::any_superset`].
    fn index_excluded(&mut self, kept: &[Keyed<Self::Key>]);
    /// Keeps the first excluded vertex of each distinct key, in order.
    fn dedup_excluded(&mut self, q_list: &mut Vec<Keyed<Self::Key>>);
    /// Whether some excluded key contains `k` (the keys of `q_list`,
    /// indexed).
    fn any_superset(&self, q_list: &[Keyed<Self::Key>], k: Self::Key) -> bool;
    /// Indexes a representative's key as an excluded key; with `dedupe`,
    /// returns whether an excluded key equal to it was there already.
    fn insert_rep(
        &mut self,
        q_list: &[Keyed<Self::Key>],
        k: Self::Key,
        rep: u32,
        dedupe: bool,
    ) -> bool;
    /// The child `P` of branching on `groups[gi]` (`p` is the node's `P`,
    /// `groups` its groups after absorption), into `out`, strictly
    /// increasing by vertex: the group's other members (equivalent to the
    /// representative, hence adjacent to all of `L''`: the child's
    /// full-coverage scan absorbs them into its `R'`), plus the members of
    /// later groups that meet the group's key, the child's `L''` (the rest
    /// die at the child anyway). With `trie_absorption` that is a key test
    /// per later group, without it a row test per member.
    #[allow(clippy::too_many_arguments)]
    fn child_p(
        &self,
        local: &LocalGraph,
        p: &[Self::Entry],
        groups: &[Group<Self::Key>],
        gi: usize,
        memar: &[u32],
        trie_absorption: bool,
        out: &mut Vec<Self::Entry>,
    );

    // ---- The small node body (MBEA's scans).

    /// Some excluded vertex of `q` is adjacent to all of `l`.
    fn covered(local: &LocalGraph, q: &[Self::Entry], l: Self::L<'_>) -> bool;
    /// Splits `p` by its overlap with `l`: all of it → appended to
    /// `absorbed` (as vertices), part of it → `p_new` (cleared first),
    /// none → dropped. Order kept.
    fn partition(
        local: &LocalGraph,
        p: &[Self::Entry],
        l: Self::L<'_>,
        absorbed: &mut Vec<u32>,
        p_new: &mut Vec<Self::Entry>,
    );
    /// The entries of `q` that meet `l`, in order, into `out`.
    fn live(local: &LocalGraph, q: &[Self::Entry], l: Self::L<'_>, out: &mut Vec<Self::Entry>);
    /// The child `L'' = N(e) ∩ l` of branching on `e`, into `out`.
    fn child_l(local: &LocalGraph, l: Self::L<'_>, e: Self::Entry, out: &mut Self::LBuf);
}

/// The trie path: sorted local-id keys in an arena, grouped by one
/// candidate trie and searched through one excluded trie.
#[derive(Default)]
struct Trie {
    ctrie_p: CandidateTrie,
    ctrie_q: CandidateTrie,
    /// Arena holding every group key and excluded key of this node.
    keyar: Vec<u32>,
    keybuf: Vec<u32>,
}

impl Repr for Trie {
    const WORD: bool = false;
    type L<'a> = &'a [u32];
    type LBuf = Vec<u32>;
    type Entry = u32;
    type Key = Span;

    fn pool<'e>(eng: &'e mut MbetEngine<'_>) -> &'e mut Vec<Scratch<Self>> {
        &mut eng.pool
    }

    fn descend(
        eng: &mut MbetEngine<'_>,
        depth: usize,
        l: &[u32],
        v: u32,
        p: &[u32],
        q: &[u32],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        eng.expand_sorted(depth, l, v, p, q, sink, stats)
    }

    #[inline]
    fn l_len(l: &[u32]) -> usize {
        l.len()
    }

    #[inline]
    fn l_of(buf: &Vec<u32>) -> &[u32] {
        buf
    }

    #[inline]
    fn vertex(e: u32) -> u32 {
        e
    }

    fn left_global(local: &LocalGraph, _table: &[u32], l: &[u32], out: &mut Vec<u32>) {
        local.left_to_global(l, out);
    }

    #[inline]
    fn check_entries(_local: &LocalGraph, _table: &[u32], _l: &[u32], _entries: &[u32]) {}

    fn clear(&mut self) {
        self.ctrie_p.clear();
        self.ctrie_q.clear();
        self.keyar.clear();
    }

    #[inline]
    fn key(&mut self, local: &LocalGraph, e: u32, l: &[u32]) -> Span {
        // Local left ids, so keys of one node share an id space that
        // `check_local_key` checks.
        setops::intersect_into(local.row(e), l, &mut self.keybuf);
        crate::invariants::check_local_key(&self.keybuf, l);
        let start = self.keyar.len() as u32;
        self.keyar.extend_from_slice(&self.keybuf);
        (start, self.keyar.len() as u32)
    }

    #[inline]
    fn is_empty(&self, k: Span) -> bool {
        k.0 == k.1
    }

    #[inline]
    fn covers(&self, k: Span, l: &[u32]) -> bool {
        (k.1 - k.0) as usize == l.len()
    }

    #[inline]
    fn size(&self, k: Span) -> usize {
        (k.1 - k.0) as usize
    }

    #[inline]
    fn is_subset(&self, a: Span, b: Span) -> bool {
        setops::is_subset(slice(&self.keyar, a), slice(&self.keyar, b))
    }

    #[inline]
    fn any_contains(&self, kept: &[Span], k: Span) -> bool {
        kept.iter().any(|&c| self.is_subset(k, c))
    }

    #[inline]
    fn intersects(&self, a: Span, b: Span) -> bool {
        setops::intersect_first(slice(&self.keyar, a), slice(&self.keyar, b)).is_some()
    }

    #[inline]
    fn key_l(&self, k: Span) -> &[u32] {
        slice(&self.keyar, k)
    }

    #[inline]
    fn entry(v: u32, _k: Span, _l_child: Span) -> u32 {
        v
    }

    fn group(
        &mut self,
        local: &LocalGraph,
        p: &[u32],
        l: &[u32],
        batching: bool,
        groups: &mut Vec<Group<Span>>,
        memar: &mut Vec<u32>,
    ) -> usize {
        for &w in p {
            setops::intersect_into(local.row(w), l, &mut self.keybuf);
            crate::invariants::check_local_key(&self.keybuf, l);
            if !self.keybuf.is_empty() {
                self.ctrie_p.insert(&self.keybuf, w);
            }
        }
        let keyar = &mut self.keyar;
        self.ctrie_p.for_each_group(|key, members| {
            let kstart = keyar.len() as u32;
            keyar.extend_from_slice(key);
            let key = (kstart, keyar.len() as u32);
            if batching {
                let mstart = memar.len() as u32;
                memar.extend_from_slice(members);
                // A trie group always has members. xtask-allow: expect
                let rep = members.iter().copied().min().expect("non-empty group");
                groups.push(Group { key, members: (mstart, memar.len() as u32), rep, at: 0 });
            } else {
                // Ablation mode: one singleton group per candidate so the
                // branch structure matches MBEA exactly.
                for &w in members {
                    let mstart = memar.len() as u32;
                    memar.push(w);
                    let members = (mstart, memar.len() as u32);
                    groups.push(Group { key, members, rep: w, at: 0 });
                }
            }
        });
        // The trie visits keys in lexicographic order; the body branches
        // in representative order.
        groups.sort_unstable_by_key(|grp| grp.rep);
        self.ctrie_p.node_count()
    }

    fn check_spans(&self, groups: &[Group<Span>], q_list: &[Keyed<Span>]) {
        crate::invariants::check_spans(
            self.keyar.len(),
            groups.iter().map(|grp| grp.key).chain(q_list.iter().map(|q| q.key)),
        );
    }

    fn check_antichain(&self, kept: &[Keyed<Span>], dropped: &[Keyed<Span>]) {
        crate::invariants::check_excluded_antichain(
            kept.iter().map(|q| slice(&self.keyar, q.key)),
            dropped.iter().map(|q| slice(&self.keyar, q.key)),
        );
    }

    fn index_excluded(&mut self, kept: &[Keyed<Span>]) {
        debug_assert!(self.ctrie_q.is_empty());
        for q in kept {
            self.ctrie_q.insert(slice(&self.keyar, q.key), q.v);
        }
    }

    fn dedup_excluded(&mut self, q_list: &mut Vec<Keyed<Span>>) {
        q_list.retain(|q| !self.ctrie_q.insert(slice(&self.keyar, q.key), q.v));
    }

    #[inline]
    fn any_superset(&self, _q_list: &[Keyed<Span>], k: Span) -> bool {
        self.ctrie_q.any_superset(slice(&self.keyar, k))
    }

    #[inline]
    fn insert_rep(&mut self, _q_list: &[Keyed<Span>], k: Span, rep: u32, _dedupe: bool) -> bool {
        self.ctrie_q.insert(slice(&self.keyar, k), rep)
    }

    fn child_p(
        &self,
        local: &LocalGraph,
        _p: &[u32],
        groups: &[Group<Span>],
        gi: usize,
        memar: &[u32],
        trie_absorption: bool,
        out: &mut Vec<u32>,
    ) {
        let grp = groups[gi];
        out.clear();
        out.extend(slice(memar, grp.members).iter().copied().filter(|&w| w != grp.rep));
        let later = &groups[gi + 1..];
        if trie_absorption {
            for g in later.iter().filter(|g| self.intersects(g.key, grp.key)) {
                out.extend_from_slice(slice(memar, g.members));
            }
        } else {
            let l_child = slice(&self.keyar, grp.key);
            for g in later {
                let live = |&w: &u32| setops::intersect_first(local.row(w), l_child).is_some();
                out.extend(slice(memar, g.members).iter().copied().filter(live));
            }
        }
        out.sort_unstable();
    }

    fn covered(local: &LocalGraph, q: &[u32], l: &[u32]) -> bool {
        crate::task::covered_by_excluded(local, q, l)
    }

    fn partition(
        local: &LocalGraph,
        p: &[u32],
        l: &[u32],
        absorbed: &mut Vec<u32>,
        p_new: &mut Vec<u32>,
    ) {
        crate::task::partition_candidates(local, p, l, absorbed, p_new);
    }

    fn live(local: &LocalGraph, q: &[u32], l: &[u32], out: &mut Vec<u32>) {
        crate::task::live_excluded(local, q, l, out);
    }

    fn child_l(local: &LocalGraph, l: &[u32], e: u32, out: &mut Vec<u32>) {
        crate::task::child_l(local, l, e, out);
    }
}

/// An open-addressing map from non-zero masks to `u32`s, emptied per use:
/// a word body groups its candidates and dedupes its excluded keys
/// through it, in one pass each.
#[derive(Default)]
struct MaskTable {
    /// `(mask, value)` with linear probing; mask 0 marks a free slot.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: a hash keeps the product's top bits.
    shift: u32,
}

impl MaskTable {
    /// Empties the table and sizes it for `n` keys at most half full.
    fn reset(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(8);
        self.slots.clear();
        self.slots.resize(cap, (0, 0));
        self.shift = 64 - cap.trailing_zeros();
    }

    /// The value stored for `key` (non-zero), or `None` after storing
    /// `val` for it.
    #[inline]
    fn get_or_insert(&mut self, key: u64, val: u32) -> Option<u32> {
        debug_assert!(key != 0);
        let wrap = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == 0 {
                self.slots[i] = (key, val);
                return None;
            }
            i = (i + 1) & wrap;
        }
    }
}

/// Word mode: every key is a `u64` mask over the word root's `L'`, and
/// `P` and `Q` carry their keys.
#[derive(Default)]
struct Words {
    /// Groups candidates by key, and dedupes excluded keys.
    table: MaskTable,
    /// Per entry of the node's `P`: its group's representative plus one,
    /// or 0 when its key is empty or all of `L'` (it is in no child's
    /// `P`). [`Repr::child_p`] keeps the entries with a tag above its
    /// representative.
    tags: Vec<u32>,
}

impl Repr for Words {
    const WORD: bool = true;
    type L<'a> = u64;
    type LBuf = u64;
    type Entry = Keyed<u64>;
    type Key = u64;

    fn pool<'e>(eng: &'e mut MbetEngine<'_>) -> &'e mut Vec<Scratch<Self>> {
        &mut eng.word_pool
    }

    fn descend(
        eng: &mut MbetEngine<'_>,
        depth: usize,
        l: u64,
        v: u32,
        p: &[Keyed<u64>],
        q: &[Keyed<u64>],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        eng.expand::<Words>(depth, l, v, p, q, sink, stats)
    }

    #[inline]
    fn l_len(l: u64) -> usize {
        l.count_ones() as usize
    }

    #[inline]
    fn l_of(buf: &u64) -> u64 {
        *buf
    }

    #[inline]
    fn vertex(e: Keyed<u64>) -> u32 {
        e.v
    }

    fn left_global(local: &LocalGraph, table: &[u32], l: u64, out: &mut Vec<u32>) {
        out.clear();
        let mut m = l;
        while m != 0 {
            out.push(local.left_global(table[m.trailing_zeros() as usize]));
            m &= m - 1;
        }
    }

    #[inline]
    fn check_entries(local: &LocalGraph, table: &[u32], l: u64, entries: &[Keyed<u64>]) {
        crate::invariants::check_word_keys(local, table, l, entries.iter().map(|e| (e.v, e.key)));
    }

    #[inline]
    fn clear(&mut self) {}

    #[inline]
    fn key(&mut self, _local: &LocalGraph, e: Keyed<u64>, l: u64) -> u64 {
        e.key & l
    }

    #[inline]
    fn is_empty(&self, k: u64) -> bool {
        k == 0
    }

    #[inline]
    fn covers(&self, k: u64, l: u64) -> bool {
        k == l
    }

    #[inline]
    fn size(&self, k: u64) -> usize {
        k.count_ones() as usize
    }

    #[inline]
    fn is_subset(&self, a: u64, b: u64) -> bool {
        a & !b == 0
    }

    /// A fold with no early exit, which compiles to a branch-free loop.
    #[inline]
    fn any_contains(&self, kept: &[u64], k: u64) -> bool {
        kept.iter().fold(false, |found, &c| found | (k & !c == 0))
    }

    #[inline]
    fn intersects(&self, a: u64, b: u64) -> bool {
        a & b != 0
    }

    #[inline]
    fn key_l(&self, k: u64) -> u64 {
        k
    }

    #[inline]
    fn entry(v: u32, k: u64, l_child: u64) -> Keyed<u64> {
        Keyed { v, key: k & l_child }
    }

    fn group(
        &mut self,
        _local: &LocalGraph,
        p: &[Keyed<u64>],
        l: u64,
        batching: bool,
        groups: &mut Vec<Group<u64>>,
        memar: &mut Vec<u32>,
    ) -> usize {
        debug_assert!(groups.is_empty());
        self.tags.clear();
        if batching {
            self.table.reset(p.len());
        }
        // `p` is ascending, so the candidate that opens a group is its
        // representative, and groups open in representative order. Under
        // batching a key met before joins its group, found through the
        // table; without it (the ablation mode, branch for branch MBEA)
        // every candidate opens its own. Each entry's tag holds its group's
        // index for now, and `members.1` counts the group.
        for (i, e) in p.iter().enumerate() {
            let key = e.key & l;
            let next = groups.len() as u32;
            let known =
                if batching && key != 0 { self.table.get_or_insert(key, next) } else { None };
            let g = match known {
                Some(g) => g,
                None if key == 0 => u32::MAX,
                None => {
                    groups.push(Group { key, members: (0, 0), rep: e.v, at: i as u32 });
                    next
                }
            };
            if let Some(grp) = groups.get_mut(g as usize) {
                grp.members.1 += 1;
            }
            self.tags.push(g);
        }
        // Lay the member lists out back to back, then place every member
        // in vertex order.
        let mut end = memar.len() as u32;
        for grp in groups.iter_mut() {
            let count = grp.members.1;
            grp.members = (end, end);
            end += count;
        }
        memar.resize(end as usize, 0);
        for (e, t) in p.iter().zip(self.tags.iter_mut()) {
            *t = match groups.get_mut(*t as usize) {
                Some(grp) => {
                    memar[grp.members.1 as usize] = e.v;
                    grp.members.1 += 1;
                    if grp.key == l {
                        0
                    } else {
                        grp.rep + 1
                    }
                }
                None => 0,
            };
        }
        crate::invariants::check_word_groups(
            groups.iter().map(|grp| (grp.rep, slice(memar, grp.members))),
        );
        0
    }

    #[inline]
    fn check_spans(&self, _groups: &[Group<u64>], _q_list: &[Keyed<u64>]) {}

    fn check_antichain(&self, kept: &[Keyed<u64>], dropped: &[Keyed<u64>]) {
        if crate::invariants::ENABLED {
            let ids = |q: &Keyed<u64>| -> Vec<u32> {
                (0..WORD_BITS as u32).filter(|&i| q.key >> i & 1 == 1).collect()
            };
            let kept: Vec<Vec<u32>> = kept.iter().map(ids).collect();
            let dropped: Vec<Vec<u32>> = dropped.iter().map(ids).collect();
            crate::invariants::check_excluded_antichain(
                kept.iter().map(Vec::as_slice),
                dropped.iter().map(Vec::as_slice),
            );
        }
    }

    #[inline]
    fn index_excluded(&mut self, _kept: &[Keyed<u64>]) {}

    fn dedup_excluded(&mut self, q_list: &mut Vec<Keyed<u64>>) {
        // `q` is ascending, so the first of each key is its smallest.
        self.table.reset(q_list.len());
        q_list.retain(|q| self.table.get_or_insert(q.key, 0).is_none());
    }

    /// A fold with no early exit, which compiles to a branch-free loop.
    #[inline]
    fn any_superset(&self, q_list: &[Keyed<u64>], k: u64) -> bool {
        q_list.iter().fold(false, |found, q| found | (k & !q.key == 0))
    }

    #[inline]
    fn insert_rep(&mut self, q_list: &[Keyed<u64>], k: u64, _rep: u32, dedupe: bool) -> bool {
        dedupe && q_list.iter().any(|q| q.key == k)
    }

    /// One pass over `p` from the representative on, already ascending:
    /// an entry is in the child iff its group is this one or a later one
    /// (its tag is above the representative) and its key meets the
    /// group's. Per later group or per member, that is the same mask test,
    /// so `trie_absorption` changes nothing here.
    fn child_p(
        &self,
        _local: &LocalGraph,
        p: &[Keyed<u64>],
        groups: &[Group<u64>],
        gi: usize,
        _memar: &[u32],
        _trie_absorption: bool,
        out: &mut Vec<Keyed<u64>>,
    ) {
        let Group { key, rep, at, .. } = groups[gi];
        let from = at as usize + 1;
        out.clear();
        for (e, &tag) in p[from..].iter().zip(&self.tags[from..]) {
            let k = e.key & key;
            if tag > rep && k != 0 {
                out.push(Keyed { v: e.v, key: k });
            }
        }
    }

    /// A fold with no early exit, which compiles to a branch-free loop.
    fn covered(_local: &LocalGraph, q: &[Keyed<u64>], l: u64) -> bool {
        q.iter().fold(false, |found, e| found | (e.key & l == l))
    }

    fn partition(
        _local: &LocalGraph,
        p: &[Keyed<u64>],
        l: u64,
        absorbed: &mut Vec<u32>,
        p_new: &mut Vec<Keyed<u64>>,
    ) {
        p_new.clear();
        for e in p {
            let key = e.key & l;
            if key == l {
                absorbed.push(e.v);
            } else if key != 0 {
                p_new.push(Keyed { v: e.v, key });
            }
        }
    }

    fn live(_local: &LocalGraph, q: &[Keyed<u64>], l: u64, out: &mut Vec<Keyed<u64>>) {
        out.clear();
        out.extend(q.iter().map(|e| Keyed { v: e.v, key: e.key & l }).filter(|e| e.key != 0));
    }

    #[inline]
    fn child_l(_local: &LocalGraph, l: u64, e: Keyed<u64>, out: &mut u64) {
        *out = e.key & l;
    }
}

/// The prefix-tree enumeration engine.
pub struct MbetEngine<'g> {
    g: &'g BipartiteGraph,
    cfg: MbetConfig,
    /// The cut of a bounded run (never cuts by default).
    bound: Bound,
    /// The ordering permutation `g` was built with (`perm[internal] =
    /// caller`), un-applied on emission; `None` emits `g`'s own ids.
    perm: Option<&'g [u32]>,
    /// Per-task localized subgraph; rebuilt by `run_task`/`run_node`,
    /// its buffers reused across tasks.
    local: LocalGraph,
    /// Whether nodes with `|L'| ≤ 64` run in word mode (`Kernel::Adaptive`).
    words: bool,
    pool: Vec<Scratch<Trie>>,
    word_pool: Vec<Scratch<Words>>,
    /// The current word root's `L'` in local ids: bit `i` of a word-mode
    /// mask stands for entry `i`.
    word_local: Vec<u32>,
    /// The word root's `P` and `Q` with their keys.
    word_p: Vec<Keyed<u64>>,
    word_q: Vec<Keyed<u64>>,
    /// Indexed by local left id: the bit of its position in the word
    /// root's `L'`, 0 outside it (all 0 between word roots).
    word_bit: Vec<u64>,
    /// The current node's `R'`: the task's `r_parent` (internal ids,
    /// ascending), then a stack of local right ids to which every node on
    /// the path pushes its traversed vertex and its absorbed candidates,
    /// truncating back before it returns.
    r_parent: Vec<u32>,
    r_stack: Vec<u32>,
    /// Whether the current task's sink reads ids, asked once per task.
    reads_ids: bool,
    /// Built per task only when the sink reads ids: `r_parent` and every
    /// local right id in caller ids.
    r_parent_caller: Vec<u32>,
    right_caller: Vec<u32>,
    /// The emitted `L'` and `R'` of a sink that reads ids.
    emit_l: Vec<u32>,
    emit_r: Vec<u32>,
    /// Peak candidate-trie node count across the run (memory metric).
    peak_trie_nodes: usize,
    /// Unexplored subtrees captured while unwinding out of a stopped
    /// `run_task`/`run_node` call; drained via `take_frontier`.
    frontier: Vec<ResumeTask>,
    /// Deepest recursion the last `run_task`/`run_node` call reached.
    task_depth: usize,
    /// Split mode for the node a task starts at: its children are queued
    /// on the frontier, in global ids, instead of expanded. Set by the
    /// pool's task runner before each task.
    pub(crate) split: bool,
    /// Reused staging buffers for the per-task localization.
    rights_buf: Vec<u32>,
    root_l: Vec<u32>,
    root_p: Vec<u32>,
    root_q: Vec<u32>,
}

impl<'g> MbetEngine<'g> {
    /// An engine over `g` with feature toggles `cfg`, emitting `g`'s own
    /// ids. Under [`Kernel::Adaptive`] the nodes with `|L'| ≤ 64` run in
    /// word mode; [`Kernel::SortedOnly`] runs the trie everywhere.
    pub fn new(g: &'g BipartiteGraph, cfg: MbetConfig, kernel: Kernel) -> Self {
        MbetEngine {
            g,
            cfg,
            bound: Bound::default(),
            perm: None,
            local: LocalGraph::new(kernel),
            words: kernel != Kernel::SortedOnly,
            pool: Vec::new(),
            word_pool: Vec::new(),
            word_local: Vec::new(),
            word_p: Vec::new(),
            word_q: Vec::new(),
            word_bit: Vec::new(),
            r_parent: Vec::new(),
            r_stack: Vec::new(),
            reads_ids: true,
            r_parent_caller: Vec::new(),
            right_caller: Vec::new(),
            emit_l: Vec::new(),
            emit_r: Vec::new(),
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

    /// The same engine, emitting right ids through `perm` (`perm[id in
    /// g] = caller id`, as `order::apply` returns it). Tasks, frontiers
    /// and checkpoints stay in `g`'s ids.
    pub(crate) fn with_perm(mut self, perm: &'g [u32]) -> Self {
        self.perm = Some(perm);
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

    /// Largest candidate trie (nodes) a trie-path node built, a proxy for
    /// the working-set memory of the prefix-tree machinery. Word-mode
    /// nodes build no trie, so outside `Kernel::SortedOnly` only the
    /// nodes with `|L'| > 64` count.
    pub fn peak_trie_nodes(&self) -> usize {
        self.peak_trie_nodes
    }

    /// Runs one root task, given in the graph's ids. The bicliques go to
    /// `sink` in the ids of the graph the engine was built on (caller ids
    /// for an engine with the ordering permutation), unless the sink
    /// reads no ids. Breaks iff the sink (or the control plane gating it)
    /// requested a stop.
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
        self.start_r(&[], sink);

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
        let flow = self.expand_sorted(0, &l, nq, &p, &q, sink, stats);
        self.root_l = l;
        self.root_p = p;
        self.root_q = q;
        debug_assert!(self.r_stack.is_empty());
        flow
    }

    /// Runs an arbitrary unchecked node, given in the graph's ids (a
    /// queued split child or a checkpointed one).
    /// Semantics identical to [`Self::run_task`].
    ///
    /// `p` and `q` must be strictly ascending: the node bodies keep vertex
    /// order and word mode's passes rely on it (checked under
    /// `debug-invariants`). Split children inherit it from their parent,
    /// and `Checkpoint::matches` requires it of every resumed MBET task.
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
        self.start_r(r_parent, sink);

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
        let flow = self.expand_sorted(0, &l, v_local, &p, &q, sink, stats);
        self.root_l = l;
        self.root_p = p;
        self.root_q = q;
        debug_assert!(self.r_stack.is_empty());
        flow
    }

    /// Starts a task's `R'` on the fresh localization: `r_parent` and an
    /// empty stack. Asks `sink` whether it reads ids, and only if it does
    /// builds the tables an emission translates through.
    fn start_r(&mut self, r_parent: &[u32], sink: &dyn BicliqueSink) {
        self.r_parent.clear();
        self.r_parent.extend_from_slice(r_parent);
        self.r_stack.clear();
        self.reads_ids = sink.reads_ids();
        if self.reads_ids {
            let perm = self.perm;
            let caller = |&w: &u32| perm.map_or(w, |perm| perm[w as usize]);
            self.r_parent_caller.clear();
            self.r_parent_caller.extend(r_parent.iter().map(caller));
            self.right_caller.clear();
            self.right_caller.extend(self.local.right_ids().iter().map(caller));
        }
    }

    /// Local id of a right vertex known to be inside the current
    /// localization (callers only look up members of the `rights` slice
    /// the localization was just built from, so the search cannot miss).
    #[inline]
    fn rlocal(&self, w: u32) -> u32 {
        // xtask-allow: expect
        self.local.right_local(w).expect("vertex missing from localization")
    }

    /// The `R'` of the node whose stack is `r_stack[..height]`, in the
    /// graph's ids, ascending, into `out` (cleared first).
    fn r_global(&self, height: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.r_parent);
        out.extend(self.r_stack[..height].iter().map(|&w| self.local.right_global(w)));
        out.sort_unstable();
    }

    /// Hands the current node's biclique `(l, R')` to `sink`: `l` in
    /// global ids and `R'` in caller ids, both ascending, or two empty
    /// slices, with no id work, when the sink reads no ids.
    fn emit<R: Repr>(
        &mut self,
        l: R::L<'_>,
        sink: &mut dyn BicliqueSink,
    ) -> ControlFlow<StopReason> {
        if !self.reads_ids {
            return sink.emit(&[], &[]);
        }
        R::left_global(&self.local, &self.word_local, l, &mut self.emit_l);
        self.emit_r.clear();
        self.emit_r.extend_from_slice(&self.r_parent_caller);
        self.emit_r.extend(self.r_stack.iter().map(|&w| self.right_caller[w as usize]));
        self.emit_r.sort_unstable();
        sink.emit(&self.emit_l, &self.emit_r)
    }

    /// Under `debug-invariants`: the current node `(l, R')`, in the
    /// graph's ids, is a biclique whose `L'` is the common neighborhood of
    /// its `R'`.
    fn check_node<R: Repr>(&self, l: R::L<'_>) {
        if crate::invariants::ENABLED {
            let (mut l_global, mut r) = (Vec::new(), Vec::new());
            R::left_global(&self.local, &self.word_local, l, &mut l_global);
            self.r_global(self.r_stack.len(), &mut r);
            crate::invariants::check_node(self.g, &l_global, &r);
        }
    }

    /// Pushes a [`ResumeTask::Node`] for a node of the current
    /// localization onto the frontier, translated back to the graph's
    /// ids — queued tasks and checkpoints never leak local ids or masks.
    /// Its `r_parent` is the `R'` of the stack up to `height`. Cold: it
    /// runs only at a stop or for the children of a split node, never
    /// inside a serial run's recursion.
    #[cold]
    fn push_task<R: Repr>(
        &mut self,
        l: R::L<'_>,
        height: usize,
        v: u32,
        p: impl IntoIterator<Item = u32>,
        q: impl IntoIterator<Item = u32>,
    ) {
        let mut l_global = Vec::with_capacity(R::l_len(l));
        R::left_global(&self.local, &self.word_local, l, &mut l_global);
        let mut r_parent = Vec::with_capacity(self.r_parent.len() + height);
        self.r_global(height, &mut r_parent);
        let local = &self.local;
        self.frontier.push(ResumeTask::Node {
            l: l_global,
            r_parent,
            v: local.right_global(v),
            p: p.into_iter().map(|w| local.right_global(w)).collect(),
            q: q.into_iter().map(|w| local.right_global(w)).collect(),
        });
    }

    /// Takes the scratch of `depth` out of `R`'s pool (grown as needed);
    /// the node puts it back before it returns.
    fn take_scratch<R: Repr>(&mut self, depth: usize) -> Scratch<R> {
        let pool = R::pool(self);
        if pool.len() <= depth {
            pool.resize_with(depth + 1, Scratch::default);
        }
        std::mem::take(&mut pool[depth])
    }

    /// Expands a node of the trie path's representation (local ids
    /// throughout): as a word root when word mode is on and `|L'| ≤ 64`,
    /// on the trie otherwise.
    #[allow(clippy::too_many_arguments)]
    fn expand_sorted(
        &mut self,
        depth: usize,
        l_new: &[u32],
        v: u32,
        untraversed: &[u32],
        traversed: &[u32],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        if !self.words || l_new.len() > WORD_BITS {
            return self.expand::<Trie>(depth, l_new, v, untraversed, traversed, sink, stats);
        }
        // A word root: bit `i` stands for `l_new[i]`. `word_bit` gives each
        // local left id its bit (0 outside `l_new`), so a key is one pass
        // over the row. Every entry keeps its place, an empty key
        // included, so the body sees the same `|P|`.
        self.word_local.clear();
        self.word_local.extend_from_slice(l_new);
        if self.word_bit.len() < self.local.num_left() {
            self.word_bit.resize(self.local.num_left(), 0);
        }
        for (i, &x) in l_new.iter().enumerate() {
            self.word_bit[x as usize] = 1 << i;
        }
        let mut p = std::mem::take(&mut self.word_p);
        let mut q = std::mem::take(&mut self.word_q);
        let (local, bit) = (&self.local, &self.word_bit);
        let key = |&w: &u32| Keyed {
            v: w,
            key: local.row(w).iter().fold(0, |k, &x| k | bit[x as usize]),
        };
        p.clear();
        p.extend(untraversed.iter().map(key));
        q.clear();
        q.extend(traversed.iter().map(key));
        for &x in l_new {
            self.word_bit[x as usize] = 0;
        }
        let full = full_mask(l_new.len());
        let flow = self.expand::<Words>(depth, full, v, &p, &q, sink, stats);
        self.word_p = p;
        self.word_q = q;
        flow
    }

    /// Expands the node reached by traversing `v`: `l_new` is already the
    /// child's `L`. All of `l_new`/`v`/`untraversed`/`traversed` are
    /// local (`R`'s representation), and the stack holds the parent's
    /// `R'`. Mirrors `BaselineEngine::expand` but groups and searches
    /// keys. In split mode at depth 0 it queues each child it would
    /// expand instead.
    #[allow(clippy::too_many_arguments)]
    fn expand<R: Repr>(
        &mut self,
        depth: usize,
        l_new: R::L<'_>,
        v: u32,
        untraversed: &[R::Entry],
        traversed: &[R::Entry],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        let l_len = R::l_len(l_new);
        debug_assert!(l_len > 0);
        let r_parent_len = self.r_parent.len() + self.r_stack.len();
        if self.bound.cuts(l_len, r_parent_len + 1 + untraversed.len()) {
            stats.bound_pruned += 1;
            return ControlFlow::Continue(());
        }
        R::check_entries(&self.local, &self.word_local, l_new, untraversed);
        R::check_entries(&self.local, &self.word_local, l_new, traversed);
        // Both bodies' passes keep vertex order, and word mode's grouping
        // and child `P` rely on it.
        crate::invariants::check_ascending("P", untraversed.iter().map(|&e| R::vertex(e)));
        crate::invariants::check_ascending("Q", traversed.iter().map(|&e| R::vertex(e)));

        // Hybrid fast path: below a handful of candidates the grouping
        // bookkeeping cannot pay for itself — plain scans win. The same
        // trade-off the literature makes for its representation threshold.
        if untraversed.len() <= SMALL_NODE_CANDIDATES {
            return self.expand_small::<R>(depth, l_new, v, untraversed, traversed, sink, stats);
        }
        stats.nodes += 1;
        stats.word_nodes += R::WORD as u64;
        self.task_depth = self.task_depth.max(depth);

        let mut s = self.take_scratch::<R>(depth);
        s.clear();

        // ---- Excluded vertices: key them, check this node's maximality
        // along the way, then keep only the keys that matter below.
        let antichain = self.cfg.trie_maximality;
        let mut covered = false;
        let mut keyed = 0u64;
        for &q in traversed {
            let key = s.keys.key(&self.local, q, l_new);
            if s.keys.is_empty(key) {
                continue; // can never cover any L'' ⊆ L'
            }
            if s.keys.covers(key, l_new) {
                covered = true; // q adjacent to all of L'
                break;
            }
            keyed += 1;
            s.q_list.push(Keyed { v: R::vertex(q), key });
        }
        if covered {
            stats.nonmaximal += 1;
            R::pool(self)[depth] = s;
            return ControlFlow::Continue(());
        }
        stats.excluded_keyed += keyed;
        if antichain {
            s.keep_excluded_antichain(l_len);
        } else if self.cfg.batching {
            // Under trie maximality the antichain also dedupes, so only
            // batching alone dedupes here.
            s.keys.dedup_excluded(&mut s.q_list);
        }
        stats.excluded_kept += s.q_list.len() as u64;

        // ---- Candidates: group them by key, in representative-id order
        // (determinism and equivalence with the baselines' candidate
        // order — local right order is global right order).
        let trie_nodes = s.keys.group(
            &self.local,
            untraversed,
            l_new,
            self.cfg.batching,
            &mut s.groups,
            &mut s.memar,
        );
        self.peak_trie_nodes = self.peak_trie_nodes.max(trie_nodes);
        crate::invariants::check_ascending("group representatives", s.groups.iter().map(|g| g.rep));
        s.keys.check_spans(&s.groups, &s.q_list);
        crate::invariants::check_spans(s.memar.len(), s.groups.iter().map(|grp| grp.members));

        // ---- `R'`: `v` and the absorbed candidates go on the stack.
        let height = self.r_stack.len();
        self.r_stack.push(v);
        s.absorb(l_new, &mut self.r_stack);
        stats.absorbed += (self.r_stack.len() - height - 1) as u64;
        self.check_node::<R>(l_new);

        if !self.bound.emits(self.r_parent.len() + self.r_stack.len()) {
            stats.undersized += 1;
        } else if let ControlFlow::Break(r) = self.emit::<R>(l_new, sink) {
            // A Break verdict means this emission was NOT delivered (the
            // control gate rejects before forwarding), so re-running the
            // whole node on resume delivers it exactly once.
            let vertex = |&e: &R::Entry| R::vertex(e);
            self.push_task::<R>(
                l_new,
                height,
                v,
                untraversed.iter().map(vertex),
                traversed.iter().map(vertex),
            );
            self.r_stack.truncate(height);
            R::pool(self)[depth] = s;
            return ControlFlow::Break(r);
        } else {
            stats.emitted += 1;
        }

        // ---- Branch on each group representative.
        let split = depth == 0 && self.split;
        let mut stop = None;
        for gi in 0..s.groups.len() {
            let grp = s.groups[gi];
            let key = grp.key;
            let n_members = (grp.members.1 - grp.members.0) as u64;
            stats.batched += n_members - 1;

            // Maximality of the child: some excluded vertex adjacent to
            // all of L'' = key?
            let non_maximal = if self.cfg.trie_maximality {
                s.keys.any_superset(&s.q_list, key)
            } else {
                s.q_list.iter().any(|q| s.keys.is_subset(key, q.key))
            };
            if non_maximal {
                // A branch attempt that dies at the check — counted as a
                // node so the counter identity holds for every engine
                // (the child `expand` is never entered).
                stats.nodes += 1;
                stats.word_nodes += R::WORD as u64;
                stats.nonmaximal += 1;
            } else {
                // The key *is* the child's L''.
                s.keys.child_p(
                    &self.local,
                    untraversed,
                    &s.groups,
                    gi,
                    &s.memar,
                    self.cfg.trie_absorption,
                    &mut s.child_p,
                );
                crate::invariants::check_ascending(
                    "child P",
                    s.child_p.iter().map(|&e| R::vertex(e)),
                );

                s.child_q.clear();
                for q in &s.q_list {
                    if s.keys.intersects(q.key, key) {
                        s.child_q.push(R::entry(q.v, q.key, key));
                    }
                }

                if split {
                    // Split mode: queue exactly the child expanded below.
                    let vertex = |&e: &R::Entry| R::vertex(e);
                    self.push_task::<R>(
                        s.keys.key_l(key),
                        self.r_stack.len(),
                        grp.rep,
                        s.child_p.iter().map(vertex),
                        s.child_q.iter().map(vertex),
                    );
                } else {
                    // Move the lists out for the recursive call (the child
                    // works in the pool's next depth); restore afterwards.
                    let child_p = std::mem::take(&mut s.child_p);
                    let child_q = std::mem::take(&mut s.child_q);
                    let cont = R::descend(
                        self,
                        depth + 1,
                        s.keys.key_l(key),
                        grp.rep,
                        &child_p,
                        &child_q,
                        sink,
                        stats,
                    );
                    s.child_p = child_p;
                    s.child_q = child_q;
                    if let ControlFlow::Break(r) = cont {
                        // The broken child captured its own subtree; this
                        // level owes the checkpoint its untried groups.
                        self.capture_group_siblings(&s, gi, self.r_stack.len());
                        stop = Some(r);
                        break;
                    }
                }
            }

            // The representative becomes excluded for later groups —
            // unless its branch died at the check: a kept key then
            // already contains its key. Under trie maximality no excluded
            // key equals it (none contains it); under batching alone an
            // equal one already stands for it.
            if non_maximal && antichain {
                continue;
            }
            let batching = self.cfg.batching;
            let existed =
                (antichain || batching) && s.keys.insert_rep(&s.q_list, key, grp.rep, !antichain);
            if !(existed && batching) {
                s.q_list.push(Keyed { v: grp.rep, key });
            }
        }

        self.r_stack.truncate(height);
        R::pool(self)[depth] = s;
        match stop {
            Some(r) => ControlFlow::Break(r),
            None => ControlFlow::Continue(()),
        }
    }

    /// Pushes the untried groups `s.groups[broke_at + 1..]` as resume
    /// tasks, translated to the graph's ids, under the node's `R'` (the
    /// stack up to `height`). Each group's node branches on its
    /// representative with `p` = its co-members plus all later groups'
    /// members (a conservative superset — the child's candidate scan
    /// drops the irrelevant ones) and `q` = the current exclusions plus
    /// every earlier representative.
    fn capture_group_siblings<R: Repr>(&mut self, s: &Scratch<R>, broke_at: usize, height: usize) {
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
            self.push_task::<R>(
                s.keys.key_l(grp.key),
                height,
                grp.rep,
                p.iter().copied(),
                q.iter().copied(),
            );
            q.push(grp.rep);
        }
    }
}

/// Candidate count at or below which [`MbetEngine::expand`] switches to
/// plain scans. Chosen empirically on the benchmark analogues (see the
/// E4 ablation); the enumeration *result* is unaffected by the value.
const SMALL_NODE_CANDIDATES: usize = 4;

impl MbetEngine<'_> {
    /// Scan-based node processing for small candidate sets. Identical
    /// semantics (and counter accounting) to `BaselineEngine`'s MBEA
    /// path — the trie path runs the same shared expansion helpers, only
    /// against the localized rows, and word mode the same scans on masks;
    /// both queue their children the same way in split mode — but
    /// recursing back into [`Self::expand`] so larger descendants regain
    /// the grouping machinery.
    #[allow(clippy::too_many_arguments)]
    fn expand_small<R: Repr>(
        &mut self,
        depth: usize,
        l_new: R::L<'_>,
        v: u32,
        untraversed: &[R::Entry],
        traversed: &[R::Entry],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        stats.nodes += 1;
        stats.word_nodes += R::WORD as u64;
        self.task_depth = self.task_depth.max(depth);
        if R::covered(&self.local, traversed, l_new) {
            stats.nonmaximal += 1;
            return ControlFlow::Continue(());
        }
        // The node's lists live in this depth's scratch, like the full
        // body's: `child_p` holds `P'` and `child_q` the live `Q`. Its
        // `R'` goes on the stack above the parent's.
        let mut s = self.take_scratch::<R>(depth);
        let height = self.r_stack.len();
        let flow = self.small_body::<R>(
            &mut s,
            depth,
            l_new,
            height,
            v,
            untraversed,
            traversed,
            sink,
            stats,
        );
        self.r_stack.truncate(height);
        R::pool(self)[depth] = s;
        flow
    }

    /// [`Self::expand_small`] past its maximality check, on the scratch
    /// `s` of its depth, above the parent's stack of `height`.
    #[allow(clippy::too_many_arguments)]
    fn small_body<R: Repr>(
        &mut self,
        s: &mut Scratch<R>,
        depth: usize,
        l_new: R::L<'_>,
        height: usize,
        v: u32,
        untraversed: &[R::Entry],
        traversed: &[R::Entry],
        sink: &mut dyn BicliqueSink,
        stats: &mut Stats,
    ) -> ControlFlow<StopReason> {
        self.r_stack.push(v);
        R::partition(&self.local, untraversed, l_new, &mut self.r_stack, &mut s.child_p);
        stats.absorbed += (self.r_stack.len() - height - 1) as u64;
        self.check_node::<R>(l_new);
        let vertex = |&e: &R::Entry| R::vertex(e);
        if !self.bound.emits(self.r_parent.len() + self.r_stack.len()) {
            stats.undersized += 1;
        } else if let ControlFlow::Break(r) = self.emit::<R>(l_new, sink) {
            // Undelivered emission: re-run the whole node on resume.
            self.push_task::<R>(
                l_new,
                height,
                v,
                untraversed.iter().map(vertex),
                traversed.iter().map(vertex),
            );
            return ControlFlow::Break(r);
        } else {
            stats.emitted += 1;
        }
        if s.child_p.is_empty() {
            return ControlFlow::Continue(());
        }
        R::live(&self.local, traversed, l_new, &mut s.child_q);
        let r_height = self.r_stack.len();
        if depth == 0 && self.split {
            self.queue_small_children::<R>(l_new, r_height, &s.child_p, 0, &mut s.child_q);
            return ControlFlow::Continue(());
        }
        for i in 0..s.child_p.len() {
            let w = s.child_p[i];
            R::child_l(&self.local, l_new, w, &mut s.l_small);
            let flow = R::descend(
                self,
                depth + 1,
                R::l_of(&s.l_small),
                R::vertex(w),
                &s.child_p[i + 1..],
                &s.child_q,
                sink,
                stats,
            );
            s.child_q.push(w);
            if let ControlFlow::Break(r) = flow {
                self.queue_small_children::<R>(l_new, r_height, &s.child_p, i + 1, &mut s.child_q);
                return ControlFlow::Break(r);
            }
        }
        ControlFlow::Continue(())
    }

    /// Scan-path counterpart of `BaselineEngine`'s child queue: pushes
    /// the children `p_new[from..]`, translated to the graph's ids, under
    /// the node's `R'` (the stack up to `height`), with `q` grown by each
    /// earlier branch. A split node queues every child; a stop queues the
    /// untried siblings.
    fn queue_small_children<R: Repr>(
        &mut self,
        l_parent: R::L<'_>,
        height: usize,
        p_new: &[R::Entry],
        from: usize,
        q: &mut Vec<R::Entry>,
    ) {
        let vertex = |&e: &R::Entry| R::vertex(e);
        let mut l_child = R::LBuf::default();
        for k in from..p_new.len() {
            let w = p_new[k];
            R::child_l(&self.local, l_parent, w, &mut l_child);
            self.push_task::<R>(
                R::l_of(&l_child),
                height,
                R::vertex(w),
                p_new[k + 1..].iter().map(vertex),
                q.iter().map(vertex),
            );
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
        let got = run_mbet_kernel(&g, MbetConfig::default(), Kernel::Adaptive);
        assert_eq!(got.0, base.0);
        assert_eq!(got.1.nodes, base.1.nodes);
        assert_eq!(got.1.emitted, base.1.emitted);
        assert_eq!(got.1.nonmaximal, base.1.nonmaximal);
        assert_eq!(got.1.batched, base.1.batched);
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
        // 2-hop universe has 8 partially-overlapping candidates. Its `L'`
        // fits a word, so only `SortedOnly` builds the trie.
        let mut edges = vec![(0u32, 0u32), (1, 0), (2, 0), (3, 0)];
        for v in 1..=8u32 {
            edges.push((v % 4, v));
            edges.push(((v + 1) % 4, v));
        }
        let g = BipartiteGraph::from_edges(4, 9, &edges).unwrap();
        let mut engine = MbetEngine::new(&g, MbetConfig::default(), Kernel::SortedOnly);
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
        // small-node threshold) send it down the full (grouping) body.
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
        // Only the root runs the full body: three keys in, one kept.
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
    fn word_root_boundary() {
        // Roots whose `L` has 63, 64 and 65 vertices: a word root short of
        // a full word, one that fills all 64 bits (its full mask cannot be
        // `(1 << 64) - 1`, which overflows the shift), and a trie root
        // whose children become word roots. v0 sees all of u0..un, v9 is
        // its twin, and v1..v8 see overlapping parts of it.
        let tree = |s: &Stats| {
            let excluded = (s.excluded_keyed, s.excluded_kept, s.undersized);
            (s.nodes, s.nonmaximal, s.emitted, s.batched, s.absorbed, excluded)
        };
        for n in [63u32, 64, 65] {
            let mut edges: Vec<(u32, u32)> = (0..n).flat_map(|u| [(u, 0), (u, 9)]).collect();
            for v in 1..=8u32 {
                edges.extend((0..n).filter(|u| (u * 7 + v * 13) % 11 < 7).map(|u| (u, v)));
            }
            let g = BipartiteGraph::from_edges(n, 10, &edges).unwrap();
            let (want, trie) = run_mbet_kernel(&g, MbetConfig::default(), Kernel::SortedOnly);
            crate::verify::assert_matches_brute_force(&g, &want);
            assert_eq!(trie.word_nodes, 0, "n={n}");
            let (got, words) = run_mbet_kernel(&g, MbetConfig::default(), Kernel::Adaptive);
            assert_eq!(got, want, "n={n}");
            assert_eq!(tree(&words), tree(&trie), "n={n}");
            if n > 64 {
                assert!(0 < words.word_nodes && words.word_nodes < words.nodes, "{words:?}");
            } else {
                assert_eq!(words.word_nodes, words.nodes, "n={n}");
            }
        }
    }

    /// Ascending `(vertex, mask)` lists whose masks repeat and nest: each
    /// entry takes one of a few base masks over 10 bits, or a part of one
    /// (possibly empty).
    fn keyed_lists() -> impl Strategy<Value = (Vec<u64>, Vec<Keyed<u64>>)> {
        let bases = proptest::collection::vec(1u64..1 << 10, 1..5);
        let picks = proptest::collection::vec((1u32..4, 0usize..8, 0u64..1 << 11), 0..40);
        (bases, picks).prop_map(|(bases, picks)| {
            let mut v = 0;
            let list = picks
                .into_iter()
                .map(|(gap, b, part)| {
                    v += gap;
                    let base = bases[b % bases.len()];
                    // Half the entries take their base whole.
                    Keyed { v, key: if part & 1 == 0 { base } else { base & part >> 1 } }
                })
                .collect();
            (bases, list)
        })
    }

    fn vertices<K>(list: &[Keyed<K>]) -> Vec<u32> {
        list.iter().map(|e| e.v).collect()
    }

    /// Word mode's grouping by sorting `(mask, vertex)` pairs, as it ran
    /// before the table: `(key, representative, members)` per group.
    fn sorted_groups(p: &[Keyed<u64>], l: u64, batching: bool) -> Vec<(u64, u32, Vec<u32>)> {
        let mut pairs: Vec<(u64, u32)> =
            p.iter().map(|e| (e.key & l, e.v)).filter(|&(k, _)| k != 0).collect();
        if !batching {
            return pairs.into_iter().map(|(k, w)| (k, w, vec![w])).collect();
        }
        pairs.sort_unstable();
        let mut groups: Vec<(u64, u32, Vec<u32>)> = pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run[0].1, run.iter().map(|&(_, w)| w).collect()))
            .collect();
        groups.sort_unstable_by_key(|g| g.1);
        groups
    }

    proptest! {
        #[test]
        fn antichain_keeps_the_smallest_vertex_of_each_maximal_key(case in keyed_lists()) {
            // The body drops empty keys before the antichain.
            let list: Vec<Keyed<u64>> = case.1.into_iter().filter(|e| e.key != 0).collect();
            // O(n²): no strictly larger key contains it, and no smaller
            // vertex has the same key.
            let want: Vec<u32> = list
                .iter()
                .filter(|e| {
                    !list.iter().any(|f| {
                        e.key & !f.key == 0 && (e.key != f.key || f.v < e.v)
                    })
                })
                .map(|e| e.v)
                .collect();

            let mut words = Scratch::<Words>::default();
            words.q_list.extend_from_slice(&list);
            words.keep_excluded_antichain(WORD_BITS);
            prop_assert_eq!(vertices(&words.q_list), want.clone());

            // The same sets as sorted spans, through the trie path.
            let mut trie = Scratch::<Trie>::default();
            for e in &list {
                let start = trie.keys.keyar.len() as u32;
                trie.keys.keyar.extend((0..WORD_BITS as u32).filter(|&i| e.key >> i & 1 == 1));
                trie.q_list.push(Keyed { v: e.v, key: (start, trie.keys.keyar.len() as u32) });
            }
            trie.keep_excluded_antichain(WORD_BITS);
            prop_assert_eq!(vertices(&trie.q_list), want);
            prop_assert_eq!(trie.keys.ctrie_q.len(), trie.q_list.len());
        }

        #[test]
        fn word_grouping_matches_a_sort_of_mask_vertex_pairs(case in keyed_lists()) {
            // `L'` is a base mask, so some keys are all of it, some part of
            // it and some empty.
            let (bases, p) = case;
            let l = bases[0];
            let local = LocalGraph::new(Kernel::Adaptive);
            for batching in [false, true] {
                let mut words = Words::default();
                let (mut groups, mut memar) = (Vec::new(), Vec::new());
                words.group(&local, &p, l, batching, &mut groups, &mut memar);
                let got: Vec<(u64, u32, Vec<u32>)> = groups
                    .iter()
                    .map(|g| (g.key, g.rep, slice(&memar, g.members).to_vec()))
                    .collect();
                prop_assert_eq!(got, sorted_groups(&p, l, batching));
                for g in &groups {
                    prop_assert_eq!(p[g.at as usize].v, g.rep);
                }
            }
        }

        #[test]
        fn word_child_p_matches_member_lists_then_a_sort(case in keyed_lists()) {
            let (bases, mut p) = case;
            let l = bases[0];
            // Always an absorbed candidate and one with an empty key.
            let last = p.last().map_or(0, |e| e.v);
            p.push(Keyed { v: last + 1, key: l | 1 << 12 });
            p.push(Keyed { v: last + 2, key: 1 << 11 });
            let local = LocalGraph::new(Kernel::Adaptive);
            for batching in [false, true] {
                let mut s = Scratch::<Words>::default();
                s.keys.group(&local, &p, l, batching, &mut s.groups, &mut s.memar);
                let mut absorbed = Vec::new();
                s.absorb(l, &mut absorbed);
                prop_assert!(absorbed.contains(&(last + 1)));
                let key_of = |w: u32| p.iter().find(|e| e.v == w).map_or(0, |e| e.key);
                for gi in 0..s.groups.len() {
                    let grp = s.groups[gi];
                    // The member-list build: the group's other members,
                    // then every later group meeting the key, sorted.
                    let members = |g: &Group<u64>| slice(&s.memar, g.members).to_vec();
                    let mut want: Vec<u32> =
                        members(&grp).into_iter().filter(|&w| w != grp.rep).collect();
                    for later in s.groups[gi + 1..].iter().filter(|g| g.key & grp.key != 0) {
                        want.extend(members(later));
                    }
                    want.sort_unstable();
                    let want: Vec<(u32, u64)> =
                        want.into_iter().map(|w| (w, key_of(w) & grp.key)).collect();
                    for absorption in [false, true] {
                        let out = &mut s.child_p;
                        s.keys.child_p(&local, &p, &s.groups, gi, &s.memar, absorption, out);
                        let got: Vec<(u32, u64)> = out.iter().map(|e| (e.v, e.key)).collect();
                        prop_assert_eq!(&got, &want, "group {}", gi);
                    }
                }
            }
        }
    }

    /// 8 × 12 vertices, each right vertex adjacent to a different
    /// pattern of left ones, so a random order moves right ids.
    fn mixed() -> BipartiteGraph {
        let edges: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|u| (0..12u32).filter(move |v| (u * 7 + v * 13) % 5 < 2).map(move |v| (u, v)))
            .collect();
        BipartiteGraph::from_edges(8, 12, &edges).unwrap()
    }

    /// Every root task of `g` on `engine`, into `sink`.
    fn run_roots(
        g: &BipartiteGraph,
        engine: &mut MbetEngine<'_>,
        sink: &mut dyn BicliqueSink,
    ) -> Stats {
        let mut stats = Stats::default();
        let mut builder = TaskBuilder::new(g);
        for v in 0..g.num_v() {
            if let Some(t) = builder.build(v) {
                assert!(engine.run_task(&t, sink, &mut stats).is_continue());
            }
        }
        stats
    }

    fn sorted(mut bicliques: Vec<Biclique>) -> Vec<Biclique> {
        bicliques.sort();
        bicliques
    }

    #[test]
    fn an_engine_with_the_permutation_emits_caller_ids() {
        let g = mixed();
        let (h, perm) = bigraph::order::apply(&g, bigraph::order::VertexOrder::Random(7));
        assert!(perm.iter().enumerate().any(|(i, &w)| w != i as u32), "{perm:?}");
        let want = sorted(crate::verify::brute_force(&g));
        for kernel in [Kernel::Adaptive, Kernel::SortedOnly] {
            let mut engine = MbetEngine::new(&h, MbetConfig::default(), kernel).with_perm(&perm);
            let mut sink = CollectSink::new();
            run_roots(&h, &mut engine, &mut sink);
            let got = sink.into_vec();
            for b in &got {
                assert!(setops::is_strictly_increasing(&b.left), "{kernel:?} {b:?}");
                assert!(setops::is_strictly_increasing(&b.right), "{kernel:?} {b:?}");
            }
            assert_eq!(sorted(got), want, "{kernel:?}");
        }
    }

    #[test]
    fn an_engine_without_a_permutation_emits_the_graphs_own_ids() {
        // perfbench's replica runs `MbetEngine::new` on the ordered graph
        // and maps the ids home itself.
        let g = mixed();
        let (h, _) = bigraph::order::apply(&g, bigraph::order::VertexOrder::Random(7));
        let mut engine = MbetEngine::new(&h, MbetConfig::default(), Kernel::Adaptive);
        let mut sink = CollectSink::new();
        run_roots(&h, &mut engine, &mut sink);
        assert_eq!(sorted(sink.into_vec()), sorted(crate::verify::brute_force(&h)));
    }

    /// Counts its calls; asserts each hands it no ids.
    struct Blind(u64);

    impl BicliqueSink for Blind {
        fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
            assert!(left.is_empty() && right.is_empty(), "{left:?} {right:?}");
            self.0 += 1;
            crate::sink::CONTINUE
        }

        fn reads_ids(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_sink_that_reads_no_ids_gets_empty_slices_once_per_biclique() {
        let g = mixed();
        let (h, perm) = bigraph::order::apply(&g, bigraph::order::VertexOrder::Random(7));
        let want = crate::verify::brute_force(&g).len() as u64;
        for kernel in [Kernel::Adaptive, Kernel::SortedOnly] {
            let mut engine = MbetEngine::new(&h, MbetConfig::default(), kernel).with_perm(&perm);
            let mut blind = Blind(0);
            let stats = run_roots(&h, &mut engine, &mut blind);
            assert_eq!((blind.0, stats.emitted), (want, want), "{kernel:?}");
        }
        for alg in [Algorithm::MineLmbc, Algorithm::Mbea, Algorithm::Imbea] {
            let mut engine = crate::baseline::BaselineEngine::new(&h, alg).with_perm(&perm);
            let (mut blind, mut stats) = (Blind(0), Stats::default());
            let mut builder = TaskBuilder::new(&h);
            for v in 0..h.num_v() {
                if let Some(t) = builder.build(v) {
                    assert!(engine.run_task(&t, &mut blind, &mut stats).is_continue());
                }
            }
            assert_eq!((blind.0, stats.emitted), (want, want), "{alg:?}");
        }
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
            for kernel in [Kernel::Adaptive, Kernel::SortedOnly] {
                let (bicliques, _) = run_mbet_kernel(&g, MbetConfig::default(), kernel);
                crate::verify::assert_matches_brute_force(&g, &bicliques);
            }
        }
    }
}
