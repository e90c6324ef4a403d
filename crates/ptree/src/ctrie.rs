//! The per-node candidate trie.
//!
//! At an enumeration node `(L, R, C, Q)` every candidate `w ∈ C` and
//! excluded vertex `q ∈ Q` is characterized by its *local neighborhood*
//! `NL(w) = N(w) ∩ L`, re-encoded as the sorted sequence of ranks of its
//! members within `L`. Inserting those rank sequences into this trie makes
//! the three hot per-node questions structural:
//!
//! 1. **Equivalence batching** — candidates with identical `NL` end at the
//!    same trie node ([`CandidateTrie::for_each_group`]); they expand to
//!    identical subtrees and are processed once.
//! 2. **Absorption** — at the node `(L', R', C')` reached by expanding
//!    `v`, every candidate `w` adjacent to all of `L'` belongs in `R'`.
//!    Keyed against `L'` itself, such a `w` has the full key, so the MBET
//!    engine absorbs with a key-length test (`|key| = |L'|`), paid once
//!    per group of [`CandidateTrie::for_each_group`]; no walk is needed.
//! 3. **Maximality** — `(L', R')` is non-maximal iff some excluded `q` has
//!    `NL(q) ⊇ L'` ([`CandidateTrie::any_superset`]), one walk instead of
//!    `|Q|` subset scans.
//!
//! Because keys are strictly increasing sequences, labels strictly
//! increase along any root-to-leaf path, and sibling lists are kept sorted
//! — both facts are what make the superset walk prunable.

use crate::NIL;

#[derive(Clone, Copy)]
struct Node {
    /// Symbol (rank within `L`) on the incoming edge. Unused for the root.
    label: u32,
    first_child: u32,
    next_sibling: u32,
    /// Head of the linked list of vertices whose key terminates here.
    verts_head: u32,
}

/// A trie over strictly increasing rank sequences with vertex payloads.
///
/// Reusable across enumeration nodes: [`CandidateTrie::clear`] retains all
/// allocations, so steady-state insertion and grouping allocate nothing.
pub struct CandidateTrie {
    nodes: Vec<Node>,
    /// `(vertex, next_index)` payload pool shared by all nodes.
    payload: Vec<(u32, u32)>,
    keys: usize,
    /// [`CandidateTrie::for_each_group`]'s walk buffers, kept across calls:
    /// the key on the current path, the vertices of one group, a node's
    /// children (reversed onto the stack) and the DFS stack of
    /// `(node, entering)`.
    path: Vec<u32>,
    verts: Vec<u32>,
    tmp: Vec<u32>,
    stack: Vec<(u32, bool)>,
}

impl Default for CandidateTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl CandidateTrie {
    /// An empty trie.
    pub fn new() -> Self {
        let mut t = CandidateTrie {
            nodes: Vec::new(),
            payload: Vec::new(),
            keys: 0,
            path: Vec::new(),
            verts: Vec::new(),
            tmp: Vec::new(),
            stack: Vec::new(),
        };
        t.nodes.push(Node { label: 0, first_child: NIL, next_sibling: NIL, verts_head: NIL });
        t
    }

    /// Removes all keys, keeping allocations.
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        // Root node always exists after truncate(1). xtask-allow: index-literal
        self.nodes[0] = Node { label: 0, first_child: NIL, next_sibling: NIL, verts_head: NIL };
        self.payload.clear();
        self.keys = 0;
    }

    /// Number of inserted keys (with multiplicity).
    pub fn len(&self) -> usize {
        self.keys
    }

    /// `true` iff nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Number of trie nodes, including the root (memory metric).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts `key` (strictly increasing ranks) with payload `vertex`.
    ///
    /// Returns `true` iff the key was already present (i.e. `vertex` joins
    /// an existing equivalence group).
    pub fn insert(&mut self, key: &[u32], vertex: u32) -> bool {
        // windows(2) guarantees both elements. xtask-allow: index-literal
        debug_assert!(key.windows(2).all(|w| w[0] < w[1]), "key must be strictly increasing");
        let mut at = 0usize;
        for &sym in key {
            at = self.child_or_insert(at, sym);
        }
        let head = self.nodes[at].verts_head;
        self.payload.push((vertex, head));
        self.nodes[at].verts_head = (self.payload.len() - 1) as u32;
        self.keys += 1;
        head != NIL
    }

    /// Finds the child of `at` labeled `sym`, creating it (in sorted
    /// sibling position) if absent. Returns its index.
    fn child_or_insert(&mut self, at: usize, sym: u32) -> usize {
        let mut prev = NIL;
        let mut cur = self.nodes[at].first_child;
        while cur != NIL {
            let n = self.nodes[cur as usize];
            if n.label == sym {
                return cur as usize;
            }
            if n.label > sym {
                break;
            }
            prev = cur;
            cur = n.next_sibling;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { label: sym, first_child: NIL, next_sibling: cur, verts_head: NIL });
        if prev == NIL {
            self.nodes[at].first_child = idx;
        } else {
            self.nodes[prev as usize].next_sibling = idx;
        }
        idx as usize
    }

    /// Visits every distinct key once, in increasing lexicographic order,
    /// with the slice of payload vertices that share it. `f(key_ranks,
    /// vertices)`; vertices are in reverse insertion order. The walk runs
    /// on buffers the trie keeps, so it allocates nothing once they have
    /// grown.
    pub fn for_each_group(&mut self, mut f: impl FnMut(&[u32], &[u32])) {
        let CandidateTrie { nodes, payload, path, verts, tmp, stack, .. } = self;
        path.clear();
        stack.clear();
        // Explicit DFS: (node, entering) — entering=false pops the path.
        stack.push((0, true));
        while let Some((idx, entering)) = stack.pop() {
            if !entering {
                path.pop();
                continue;
            }
            let n = nodes[idx as usize];
            if idx != 0 {
                path.push(n.label);
                stack.push((idx, false));
            }
            if n.verts_head != NIL {
                verts.clear();
                let mut p = n.verts_head;
                while p != NIL {
                    let (v, next) = payload[p as usize];
                    verts.push(v);
                    p = next;
                }
                f(path, verts);
            }
            // Push children (any order; reverse keeps visitation sorted).
            let mut kids = n.first_child;
            tmp.clear();
            while kids != NIL {
                tmp.push(kids);
                kids = nodes[kids as usize].next_sibling;
            }
            for &k in tmp.iter().rev() {
                stack.push((k, true));
            }
        }
    }

    /// `true` iff some inserted key is a superset of `query`
    /// (equality counts). `query` must be strictly increasing.
    pub fn any_superset(&self, query: &[u32]) -> bool {
        let mut found = false;
        self.walk_supersets(0, query, 0, &mut |_| {
            found = true;
            false // stop
        });
        found
    }

    /// DFS for superset matching: calls `f(vertex)` for every payload
    /// vertex below `at` whose key is a superset of `query[qi..]`
    /// (equality counts). Returns `false` if `f` returned `false` (stop).
    fn walk_supersets(
        &self,
        at: usize,
        query: &[u32],
        qi: usize,
        f: &mut impl FnMut(u32) -> bool,
    ) -> bool {
        if qi == query.len() {
            // Everything below (and here) is a superset.
            return self.emit_subtree(at, f);
        }
        let need = query[qi];
        let mut child = self.nodes[at].first_child;
        while child != NIL {
            let c = self.nodes[child as usize];
            if c.label < need {
                // Extra element; still hunting for `need` below.
                if !self.walk_supersets(child as usize, query, qi, f) {
                    return false;
                }
            } else if c.label == need {
                if !self.walk_supersets(child as usize, query, qi + 1, f) {
                    return false;
                }
                // Labels strictly increase along paths, so no other sibling
                // subtree can contain `need` after this one.
                break;
            } else {
                // c.label > need: `need` cannot occur in this or any later
                // sibling subtree (labels only grow deeper).
                break;
            }
            child = c.next_sibling;
        }
        true
    }

    /// Emits every payload vertex in the subtree rooted at `at`.
    fn emit_subtree(&self, at: usize, f: &mut impl FnMut(u32) -> bool) -> bool {
        let n = self.nodes[at];
        let mut p = n.verts_head;
        while p != NIL {
            let (v, next) = self.payload[p as usize];
            if !f(v) {
                return false;
            }
            p = next;
        }
        let mut child = n.first_child;
        while child != NIL {
            if !self.emit_subtree(child as usize, f) {
                return false;
            }
            child = self.nodes[child as usize].next_sibling;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn collect_groups(t: &mut CandidateTrie) -> BTreeMap<Vec<u32>, BTreeSet<u32>> {
        let mut m = BTreeMap::new();
        t.for_each_group(|k, vs| {
            m.insert(k.to_vec(), vs.iter().copied().collect());
        });
        m
    }

    /// Every group `for_each_group` visits, in visiting order.
    fn group_sequence(t: &mut CandidateTrie) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut seq = Vec::new();
        t.for_each_group(|k, vs| seq.push((k.to_vec(), vs.to_vec())));
        seq
    }

    fn supersets(t: &CandidateTrie, q: &[u32]) -> BTreeSet<u32> {
        let mut s = BTreeSet::new();
        t.walk_supersets(0, q, 0, &mut |v| {
            s.insert(v);
            true
        });
        s
    }

    #[test]
    fn groups_by_identical_keys() {
        let mut t = CandidateTrie::new();
        t.insert(&[0, 2, 5], 10);
        t.insert(&[0, 2], 11);
        t.insert(&[0, 2, 5], 12);
        t.insert(&[], 13);
        assert_eq!(t.len(), 4);
        let g = collect_groups(&mut t);
        assert_eq!(g.len(), 3);
        assert_eq!(g[&vec![0, 2, 5]], BTreeSet::from([10, 12]));
        assert_eq!(g[&vec![0, 2]], BTreeSet::from([11]));
        assert_eq!(g[&vec![]], BTreeSet::from([13]));
    }

    #[test]
    fn superset_queries() {
        let mut t = CandidateTrie::new();
        t.insert(&[0, 2, 5], 1);
        t.insert(&[1, 2], 2);
        t.insert(&[2], 3);
        t.insert(&[0, 1, 2, 3], 4);

        assert_eq!(supersets(&t, &[2]), BTreeSet::from([1, 2, 3, 4]));
        assert_eq!(supersets(&t, &[0, 2]), BTreeSet::from([1, 4]));
        assert_eq!(supersets(&t, &[5]), BTreeSet::from([1]));
        assert_eq!(supersets(&t, &[0, 5]), BTreeSet::from([1]));
        assert_eq!(supersets(&t, &[4]), BTreeSet::new());
        assert_eq!(supersets(&t, &[]), BTreeSet::from([1, 2, 3, 4]));
        assert!(t.any_superset(&[1, 2, 3]));
        assert!(!t.any_superset(&[1, 2, 5]));
    }

    #[test]
    fn early_stop_in_superset_walk() {
        let mut t = CandidateTrie::new();
        for v in 0..10 {
            t.insert(&[0, 1], v);
        }
        let mut seen = 0;
        let finished = t.walk_supersets(0, &[0], 0, &mut |_| {
            seen += 1;
            seen < 3
        });
        assert!(!finished);
        assert_eq!(seen, 3);
    }

    #[test]
    fn clear_retains_capacity_and_resets() {
        let mut t = CandidateTrie::new();
        t.insert(&[0, 1, 2], 7);
        assert!(t.node_count() > 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1);
        assert!(!t.any_superset(&[]));
        t.insert(&[3], 9);
        assert_eq!(supersets(&t, &[3]), BTreeSet::from([9]));
    }

    #[test]
    fn empty_key_is_superset_of_nothing_but_empty() {
        let mut t = CandidateTrie::new();
        t.insert(&[], 5);
        assert!(t.any_superset(&[]));
        assert!(!t.any_superset(&[0]));
    }

    fn key_strategy() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..24, 0..8)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn matches_naive_model(
            keys in proptest::collection::vec(key_strategy(), 0..40),
            queries in proptest::collection::vec(key_strategy(), 0..10),
        ) {
            let mut t = CandidateTrie::new();
            for (i, k) in keys.iter().enumerate() {
                t.insert(k, i as u32);
            }

            // Groups match a map-based model.
            let mut model: BTreeMap<Vec<u32>, BTreeSet<u32>> = BTreeMap::new();
            for (i, k) in keys.iter().enumerate() {
                model.entry(k.clone()).or_default().insert(i as u32);
            }
            prop_assert_eq!(collect_groups(&mut t), model);

            // Superset queries match a scan-based model.
            for q in &queries {
                let want: BTreeSet<u32> = keys
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| q.iter().all(|x| k.contains(x)))
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(supersets(&t, q), want.clone());
                prop_assert_eq!(t.any_superset(q), !want.is_empty());
            }
        }

        #[test]
        fn refilled_trie_groups_like_a_fresh_one(
            first in proptest::collection::vec(key_strategy(), 0..30),
            second in proptest::collection::vec(key_strategy(), 0..30),
        ) {
            // The walk buffers survive `clear` and a grouping: the refilled
            // trie must visit the same groups, in the same order, with the
            // same vertex order, as a trie that never held `first`.
            let mut reused = CandidateTrie::new();
            for (i, k) in first.iter().enumerate() {
                reused.insert(k, i as u32);
            }
            group_sequence(&mut reused);
            reused.clear();
            let mut fresh = CandidateTrie::new();
            for (i, k) in second.iter().enumerate() {
                reused.insert(k, i as u32);
                fresh.insert(k, i as u32);
            }
            let want = group_sequence(&mut fresh);
            prop_assert_eq!(group_sequence(&mut reused), want.clone());
            // A second walk of the same trie repeats itself.
            prop_assert_eq!(group_sequence(&mut reused), want);
        }
    }
}
