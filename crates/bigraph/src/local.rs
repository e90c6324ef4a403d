//! Per-root localized subgraphs with dense relabeling.
//!
//! The enumeration subtree rooted at a right vertex `v` only ever
//! touches `L ⊆ N(v)` and candidates/excluded drawn from `N²(v)`
//! (see [`crate::two_hop`]). [`LocalGraph`] extracts that induced
//! subgraph once per root (or per resumed node), relabels both sides
//! into dense local id spaces, and stores each right vertex's
//! localized adjacency `N(w) ∩ left` as a strictly increasing
//! local-id row (CSR).
//!
//! Rows are built by one scatter over the left side's adjacency: the
//! right vertices are tagged with their local ids in a table indexed by
//! global right id, and `N(u)` is walked for each `u ∈ left` in rank
//! order — once to count each row's length, once to write `u`'s local
//! id into the row of every tagged neighbour. For a root that touches
//! exactly the `Σ_{u ∈ N(v)} |N(u)|` pairs its 2-hop walk reads, rather
//! than one sorted intersection of length `deg(w) + |N(v)|` per right
//! vertex `w`; rows come out strictly increasing because `u` is visited
//! in rank order.
//!
//! The payoff is in the inner loop: a node at depth `d` used to
//! intersect each candidate's *full global* adjacency (length
//! `deg(w)`) against the current `L`; on the local graph the same
//! operation runs on a row already clipped to `N(root)`. At a node
//! with `|L'| ≤ 64` the MBET engine reads each row once more, into one
//! `u64` mask (its word mode).
//!
//! Id-space rules: `left` and `right` hold *global* ids sorted
//! ascending; a local id is the rank of its global id in that vector,
//! so local order is isomorphic to global order and every
//! tie-breaking comparison downstream is preserved. Mapping local →
//! global is an indexed load ([`LocalGraph::left_global`] /
//! [`LocalGraph::right_global`]); global → local is a binary search.

use crate::BipartiteGraph;
use setops::Kernel;

/// An induced, densely relabeled subgraph of one enumeration subtree.
///
/// Holds reusable buffers: [`LocalGraph::localize`] clears and refills
/// them, so one instance per worker amortizes all allocation across
/// roots.
pub struct LocalGraph {
    /// Global left (`U`-side) ids, sorted ascending; the local left id
    /// of `left[i]` is `i`.
    left: Vec<u32>,
    /// Global right (`V`-side) ids, sorted ascending; the local right
    /// id of `right[j]` is `j`.
    right: Vec<u32>,
    /// CSR row boundaries over `adj`: row `j` is
    /// `adj[offsets[j] .. offsets[j + 1]]`.
    offsets: Vec<u32>,
    /// Concatenated rows of local left ids, strictly increasing per row.
    adj: Vec<u32>,
    /// Per-row write cursors of the fill pass, kept so localization
    /// allocates nothing steady-state.
    scratch: Vec<u32>,
    /// Indexed by global right id: `local id + 1` for each vertex of
    /// `rights` while [`LocalGraph::localize`] runs, 0 otherwise. Grown
    /// to the graph's `|V|` on first use (4 bytes per right vertex) and
    /// reset to zero at the end of every call.
    tag: Vec<u32>,
}

impl LocalGraph {
    /// An empty localizer with no buffers allocated yet.
    ///
    /// The [`Kernel`] is not read: rows are sorted under every kernel.
    /// The argument is kept for `perfbench`'s replica, which passes one,
    /// until a benchmark-only change drops it (ROADMAP item 1).
    pub fn new(_kernel: Kernel) -> Self {
        LocalGraph {
            left: Vec::new(),
            right: Vec::new(),
            offsets: Vec::new(),
            adj: Vec::new(),
            scratch: Vec::new(),
            tag: Vec::new(),
        }
    }

    /// Rebuilds this localization for the subtree whose left universe
    /// is `left` and whose right vertices are `rights` (both strictly
    /// increasing slices of *global* ids). Buffer capacity is reused
    /// across calls.
    ///
    /// Each right vertex `w` gets the row `N(w) ∩ left`, expressed in
    /// local left ids.
    ///
    /// The rows are one scatter over `N(u)` for `u ∈ left` (see the
    /// module docs), costing `Σ_{u ∈ left} deg(u)`: for a root, the
    /// pairs of its 2-hop walk; for a split or resumed node, at most its
    /// root's walk, since `left ⊆ N(root)` and neighbours outside
    /// `rights` are skipped by the tag check.
    pub fn localize(&mut self, g: &BipartiteGraph, left: &[u32], rights: &[u32]) {
        debug_assert!(setops::is_strictly_increasing(left));
        debug_assert!(setops::is_strictly_increasing(rights));
        self.left.clear();
        self.left.extend_from_slice(left);
        self.right.clear();
        self.right.extend_from_slice(rights);

        if self.tag.len() < g.num_v() as usize {
            self.tag.resize(g.num_v() as usize, 0);
        }
        for (j, &w) in rights.iter().enumerate() {
            self.tag[w as usize] = j as u32 + 1;
        }

        // Count pass: row `j`'s hits land in `offsets[j + 1]`, and the
        // prefix sum turns the counts into row boundaries.
        self.offsets.clear();
        self.offsets.resize(rights.len() + 1, 0);
        for &u in left {
            for &w in g.nbr_u(u) {
                let t = self.tag[w as usize];
                if t != 0 {
                    self.offsets[t as usize] += 1;
                }
            }
        }
        for j in 1..self.offsets.len() {
            self.offsets[j] += self.offsets[j - 1];
        }

        // Fill pass: `u` is visited in rank order, so each row comes
        // out strictly increasing.
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.offsets[..rights.len()]);
        self.adj.clear();
        self.adj.resize(self.offsets[rights.len()] as usize, 0);
        for (lid, &u) in left.iter().enumerate() {
            for &w in g.nbr_u(u) {
                let t = self.tag[w as usize] as usize;
                if t == 0 {
                    continue;
                }
                let cursor = &mut self.scratch[t - 1];
                self.adj[*cursor as usize] = lid as u32;
                *cursor += 1;
            }
        }

        for &w in rights {
            self.tag[w as usize] = 0;
        }
    }

    /// Number of left vertices in the local universe.
    pub fn num_left(&self) -> usize {
        self.left.len()
    }

    /// Number of localized right vertices.
    pub fn num_right(&self) -> usize {
        self.right.len()
    }

    /// The sorted global left ids; index = local left id.
    pub fn left_ids(&self) -> &[u32] {
        &self.left
    }

    /// The sorted global right ids; index = local right id.
    pub fn right_ids(&self) -> &[u32] {
        &self.right
    }

    /// Global id of a local left vertex.
    #[inline]
    pub fn left_global(&self, lid: u32) -> u32 {
        self.left[lid as usize]
    }

    /// Global id of a local right vertex.
    #[inline]
    pub fn right_global(&self, rid: u32) -> u32 {
        self.right[rid as usize]
    }

    /// Local right id of a global right vertex, if it was localized.
    #[inline]
    pub fn right_local(&self, w: u32) -> Option<u32> {
        self.right.binary_search(&w).ok().map(|i| i as u32)
    }

    /// The sorted local-left-id row `N(w) ∩ left` of local right `rid`.
    #[inline]
    pub fn row(&self, rid: u32) -> &[u32] {
        let (s, e) = (self.offsets[rid as usize], self.offsets[rid as usize + 1]);
        &self.adj[s as usize..e as usize]
    }

    /// Always `false`: rows are never packed into bitmap words. Kept for
    /// `perfbench`'s replica, which reads it, until a benchmark-only
    /// change drops the read (ROADMAP item 1).
    pub fn has_bits(&self) -> bool {
        false
    }

    /// Maps a slice of local left ids to their global ids (appended to
    /// `out`, which is cleared first). A strictly increasing input
    /// yields a strictly increasing output because local left order is
    /// global order.
    pub fn left_to_global(&self, locals: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(locals.iter().map(|&lid| self.left[lid as usize]));
    }

    /// Structural self-check for the relabeling invariants; called by
    /// the `mbe` debug-invariants harness after every localization.
    ///
    /// Asserts: both id vectors strictly increasing; every row strictly
    /// increasing with ids inside the left universe; every row equal to
    /// a naive oracle independent of the scatter — the local ids `i`
    /// with `left[i] ∈ N(w)`, each found by binary search in `N(w)`;
    /// and the tag table all-zero again.
    pub fn check_consistency(&self, g: &BipartiteGraph) {
        assert!(setops::is_strictly_increasing(&self.left), "left ids not sorted");
        assert!(setops::is_strictly_increasing(&self.right), "right ids not sorted");
        assert_eq!(self.offsets.len(), self.right.len() + 1);
        assert!(self.tag.iter().all(|&t| t == 0), "tag table not reset");
        let mut want = Vec::new();
        for (j, &w) in self.right.iter().enumerate() {
            let row = self.row(j as u32);
            assert!(setops::is_strictly_increasing(row), "row {j} not sorted");
            assert!(
                row.iter().all(|&lid| (lid as usize) < self.left.len()),
                "row {j} escapes the left universe"
            );
            let nbrs = g.nbr_v(w);
            want.clear();
            want.extend(
                (0..self.left.len() as u32)
                    .filter(|&i| nbrs.binary_search(&self.left[i as usize]).is_ok()),
            );
            assert_eq!(row, &want[..], "row {j} disagrees with N({w}) ∩ left");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn localized(g: &BipartiteGraph, left: &[u32], rights: &[u32]) -> LocalGraph {
        let mut lg = LocalGraph::new(Kernel::Adaptive);
        lg.localize(g, left, rights);
        lg
    }

    #[test]
    fn g0_root_localization() {
        let g = crate::tests::g0();
        // Root v=0: left = N(v0), rights = N²(v0) ∪ {v0}.
        let left = g.nbr_v(0).to_vec();
        let mut th = crate::two_hop::TwoHop::new(g.num_v() as usize);
        let mut rights = Vec::new();
        th.of_v(&g, 0, &mut rights);
        rights.push(0);
        rights.sort_unstable();
        let lg = localized(&g, &left, &rights);
        lg.check_consistency(&g);
        assert!(!lg.has_bits());
        assert_eq!(lg.num_left(), left.len());
        assert_eq!(lg.num_right(), rights.len());
        // The root's own row covers the whole left universe.
        let v_local = lg.right_local(0).unwrap();
        let full: Vec<u32> = (0..left.len() as u32).collect();
        assert_eq!(lg.row(v_local), &full[..]);
        // Round-trip local → global.
        let mut back = Vec::new();
        lg.left_to_global(&full, &mut back);
        assert_eq!(back, left);
    }

    #[test]
    fn reuse_shrinks_and_regrows() {
        let g = crate::tests::g0();
        let mut lg = LocalGraph::new(Kernel::Adaptive);
        lg.localize(&g, g.nbr_v(3), &[0, 1, 2, 3]);
        lg.check_consistency(&g);
        // Re-localize to a smaller then larger universe; stale state
        // must not leak.
        lg.localize(&g, &g.nbr_v(1)[..1], &[1]);
        lg.check_consistency(&g);
        lg.localize(&g, g.nbr_v(3), &[0, 2, 3]);
        lg.check_consistency(&g);
    }

    /// A random `nu × nv` graph, each edge present with `density`.
    fn random_graph(rng: &mut StdRng, nu: u32, nv: u32, density: f64) -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..nu {
            for v in 0..nv {
                if rng.gen_bool(density) {
                    edges.push((u, v));
                }
            }
        }
        BipartiteGraph::from_edges(nu, nv, &edges).unwrap()
    }

    /// A random strictly increasing subset of `0..n`.
    fn random_subset(rng: &mut StdRng, n: u32, keep: f64) -> Vec<u32> {
        (0..n).filter(|_| rng.gen_bool(keep)).collect()
    }

    proptest! {
        /// The scatter against the naive oracle at left universes of
        /// one to five words, on root shapes and on arbitrary
        /// `left`/`rights` subsets (split, resumed and OCT nodes, whose
        /// left side reaches right vertices outside `rights`), with one
        /// localizer reused across two graphs of different `|V|`.
        #[test]
        fn scatter_matches_oracle_at_bitmap_scale(
            seed in 0u64..u64::MAX,
            nu in 64u32..300,
            nv in (2u32..120, 2u32..120),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let density = rng.gen_range(0.05..0.6);
            // The smaller graph first: the tag table grows on the second
            // call and outsizes the graph on the third.
            let graphs = [
                random_graph(&mut rng, nu, nv.0.min(nv.1), density),
                random_graph(&mut rng, nu, nv.0.max(nv.1) + 1, density),
            ];
            let mut lg = LocalGraph::new(Kernel::Adaptive);
            for g in [&graphs[0], &graphs[1], &graphs[0]] {
                let v = rng.gen_range(0..g.num_v());
                let mut th = crate::two_hop::TwoHop::new(g.num_v() as usize);
                let mut root_rights = Vec::new();
                th.of_v(g, v, &mut root_rights);
                root_rights.push(v);
                root_rights.sort_unstable();
                let keep_l = rng.gen_range(0.2..1.0);
                let keep_r = rng.gen_range(0.05..1.0);
                let shapes = [
                    (g.nbr_v(v).to_vec(), root_rights),
                    (random_subset(&mut rng, nu, keep_l), random_subset(&mut rng, g.num_v(), keep_r)),
                ];
                for (left, rights) in &shapes {
                    lg.localize(g, left, rights);
                    lg.check_consistency(g);
                }
            }
        }

        #[test]
        fn localization_is_consistent(
            edges in proptest::collection::vec((0u32..14, 0u32..12), 0..140),
            v in 0u32..12,
        ) {
            let g = BipartiteGraph::from_edges(14, 12, &edges).unwrap();
            let left = g.nbr_v(v).to_vec();
            let mut th = crate::two_hop::TwoHop::new(g.num_v() as usize);
            let mut rights = Vec::new();
            th.of_v(&g, v, &mut rights);
            rights.push(v);
            rights.sort_unstable();
            localized(&g, &left, &rights).check_consistency(&g);
        }
    }
}
