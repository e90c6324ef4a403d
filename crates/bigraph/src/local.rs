//! Per-root localized subgraphs with dense relabeling.
//!
//! The enumeration subtree rooted at a right vertex `v` only ever
//! touches `L ⊆ N(v)` and candidates/excluded drawn from `N²(v)`
//! (see [`crate::two_hop`]). [`LocalGraph`] extracts that induced
//! subgraph once per root (or per resumed node), relabels both sides
//! into dense local id spaces, and stores each right vertex's
//! localized adjacency `N(w) ∩ left` twice when profitable: as a
//! strictly increasing local-id row (CSR) and as packed bitmap words
//! over the left universe.
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
//! operation runs on a row already clipped to `N(root)` — and, when
//! the left universe is small, on `u64` words. Which representation a
//! given operation uses is decided per node by [`LocalGraph::row_view`]
//! under the [`Kernel`] policy; both representations are observably
//! identical (property-tested here, differentially tested at the
//! enumeration level in `mbe`).
//!
//! Id-space rules: `left` and `right` hold *global* ids sorted
//! ascending; a local id is the rank of its global id in that vector,
//! so local order is isomorphic to global order and every
//! tie-breaking comparison downstream is preserved. Mapping local →
//! global is an indexed load ([`LocalGraph::left_global`] /
//! [`LocalGraph::right_global`]); global → local is a binary search.

use crate::BipartiteGraph;
use setops::{Kernel, SetView};

/// Bitmap rows are only built when the left universe packs into this
/// many words or fewer (universe ≤ 4096): beyond that, per-row probe
/// cost no longer beats galloping and the quadratic
/// `rows × words_per_row` footprint stops paying for itself.
const MAX_BITS_WORDS_PER_ROW: usize = 64;

/// Cap on the total packed-words footprint per localization
/// (`2^21` words = 16 MiB) so one hub root cannot balloon a worker's
/// resident memory.
const MAX_BITS_TOTAL_WORDS: usize = 1 << 21;

/// Below this left-universe size the adaptive policy skips bitmap rows
/// entirely: [`LocalGraph::row_view`] picks a bitmap only when
/// `probe_len / GALLOP_RATIO > row_len`, and with `|left| <
/// 2 * GALLOP_RATIO` every probe satisfies `probe_len / GALLOP_RATIO
/// ≤ 1`, so only rows of at most one element could ever qualify —
/// intersections too small for the packing cost to pay off. Sparse
/// graphs hit this on nearly every root.
const MIN_BITS_LEFT: usize = 2 * setops::GALLOP_RATIO;

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
    /// Packed bitmap rows (`words_per_row` words each), empty when the
    /// kernel policy or the size heuristic rejected bitmaps.
    bits: Vec<u64>,
    /// Words per bitmap row: `ceil(|left| / 64)`.
    words_per_row: usize,
    /// The kernel policy this localization was built under.
    kernel: Kernel,
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
    pub fn new(kernel: Kernel) -> Self {
        LocalGraph {
            left: Vec::new(),
            right: Vec::new(),
            offsets: Vec::new(),
            adj: Vec::new(),
            bits: Vec::new(),
            words_per_row: 0,
            kernel,
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
    /// local left ids; bitmap rows are packed according to the
    /// [`Kernel`] policy and the size heuristic.
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

        self.words_per_row = self.left.len().div_ceil(64);
        let build_bits = match self.kernel {
            Kernel::SortedOnly => false,
            Kernel::BitmapOnly => true,
            Kernel::Adaptive => {
                self.left.len() >= MIN_BITS_LEFT
                    && self.words_per_row <= MAX_BITS_WORDS_PER_ROW
                    && rights.len().saturating_mul(self.words_per_row) <= MAX_BITS_TOTAL_WORDS
            }
        };

        self.bits.clear();
        if build_bits {
            self.bits.resize(rights.len() * self.words_per_row, 0);
        }

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
                if build_bits {
                    self.bits[(t - 1) * self.words_per_row + lid / 64] |= 1u64 << (lid % 64);
                }
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

    /// A [`SetView`] of the row of `rid`, choosing the representation
    /// that is cheapest to probe with a sorted operand of length
    /// `probe_len` under this localization's kernel policy.
    ///
    /// Bitmap probing costs `O(probe_len)`; galloping a much shorter
    /// row into the probe costs `O(|row| · log probe_len)`, so sorted
    /// wins exactly when the probe dwarfs the row — the same ratio
    /// test the slice kernels use.
    #[inline]
    pub fn row_view(&self, rid: u32, probe_len: usize) -> SetView<'_> {
        let row = self.row(rid);
        if self.bits.is_empty() {
            return SetView::Sorted(row);
        }
        if self.kernel == Kernel::Adaptive && probe_len / setops::GALLOP_RATIO > row.len() {
            return SetView::Sorted(row);
        }
        let base = rid as usize * self.words_per_row;
        SetView::Bits(&self.bits[base..base + self.words_per_row])
    }

    /// Whether bitmap rows were built for this localization: never under
    /// `SortedOnly`; under `BitmapOnly` always, and under `Adaptive` when
    /// `|left| ≥ 2·GALLOP_RATIO`, `ceil(|left|/64) ≤ 64` and
    /// `|rights| · ceil(|left|/64) ≤ 2²¹` — in both cases only when
    /// `left` and `rights` are non-empty (zero words pack nothing).
    pub fn has_bits(&self) -> bool {
        !self.bits.is_empty()
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
    /// when bitmaps were built, each packed row decoding to exactly its
    /// sorted row; and the tag table all-zero again.
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
            if !self.bits.is_empty() {
                let base = j * self.words_per_row;
                let words = &self.bits[base..base + self.words_per_row];
                let decoded: Vec<u32> = (0..self.left.len() as u32)
                    .filter(|&lid| words[(lid >> 6) as usize] >> (lid & 63) & 1 == 1)
                    .collect();
                assert_eq!(&decoded[..], row, "bitmap row {j} disagrees with sorted row");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn localized(g: &BipartiteGraph, left: &[u32], rights: &[u32], kernel: Kernel) -> LocalGraph {
        let mut lg = LocalGraph::new(kernel);
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
        for kernel in [Kernel::Adaptive, Kernel::SortedOnly, Kernel::BitmapOnly] {
            let lg = localized(&g, &left, &rights, kernel);
            lg.check_consistency(&g);
            assert_eq!(lg.num_left(), left.len());
            assert_eq!(lg.num_right(), rights.len());
            // g0's left universe is far below MIN_BITS_LEFT, so the
            // adaptive policy skips packing; only a forced bitmap
            // kernel builds rows here.
            assert_eq!(lg.has_bits(), kernel == Kernel::BitmapOnly);
            // The root's own row covers the whole left universe.
            let v_local = lg.right_local(0).unwrap();
            let full: Vec<u32> = (0..left.len() as u32).collect();
            assert_eq!(lg.row(v_local), &full[..]);
            // Round-trip local → global.
            let mut back = Vec::new();
            lg.left_to_global(&full, &mut back);
            assert_eq!(back, left);
        }
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

    /// The packing rule [`LocalGraph::has_bits`] documents.
    fn packs(kernel: Kernel, left: usize, rights: usize) -> bool {
        let words = left.div_ceil(64);
        let allowed = match kernel {
            Kernel::SortedOnly => false,
            Kernel::BitmapOnly => true,
            Kernel::Adaptive => {
                left >= MIN_BITS_LEFT
                    && words <= MAX_BITS_WORDS_PER_ROW
                    && rights * words <= MAX_BITS_TOTAL_WORDS
            }
        };
        allowed && left > 0 && rights > 0
    }

    #[test]
    fn adaptive_packs_a_large_left_universe() {
        // Dense enough that N(v) passes MIN_BITS_LEFT and N²(v) is all
        // of V: a root the adaptive policy packs.
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_graph(&mut rng, 200, 12, 0.5);
        let v = (0..12).max_by_key(|&v| g.nbr_v(v).len()).unwrap();
        assert!(g.nbr_v(v).len() >= MIN_BITS_LEFT);
        let rights: Vec<u32> = (0..12).collect();
        let lg = localized(&g, g.nbr_v(v), &rights, Kernel::Adaptive);
        lg.check_consistency(&g);
        assert!(lg.has_bits());
    }

    proptest! {
        /// The scatter against the naive oracle at universes where
        /// `Adaptive` packs, on root shapes and on arbitrary
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
            for kernel in [Kernel::Adaptive, Kernel::SortedOnly, Kernel::BitmapOnly] {
                let mut lg = LocalGraph::new(kernel);
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
                        prop_assert_eq!(lg.has_bits(), packs(kernel, left.len(), rights.len()));
                    }
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
            for kernel in [Kernel::Adaptive, Kernel::SortedOnly, Kernel::BitmapOnly] {
                let lg = localized(&g, &left, &rights, kernel);
                lg.check_consistency(&g);
            }
        }

        #[test]
        fn row_views_agree_across_kernels(
            edges in proptest::collection::vec((0u32..14, 0u32..12), 0..140),
            v in 0u32..12,
        ) {
            let g = BipartiteGraph::from_edges(14, 12, &edges).unwrap();
            let left = g.nbr_v(v).to_vec();
            let rights: Vec<u32> = (0..g.num_v()).collect();
            let sorted = localized(&g, &left, &rights, Kernel::SortedOnly);
            let bits = localized(&g, &left, &rights, Kernel::BitmapOnly);
            let probe: Vec<u32> = (0..left.len() as u32).step_by(2).collect();
            for rid in 0..rights.len() as u32 {
                let sv = sorted.row_view(rid, probe.len());
                let bv = bits.row_view(rid, probe.len());
                prop_assert!(matches!(sv, SetView::Sorted(_)));
                // A zero-width universe packs into zero words, so the
                // bitmap build degenerates to sorted rows.
                prop_assert!(matches!(bv, SetView::Bits(_)) || left.is_empty());
                prop_assert_eq!(sv.intersect_count(&probe), bv.intersect_count(&probe));
                prop_assert_eq!(sv.contains_all(&probe), bv.contains_all(&probe));
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sv.intersect_into(&probe, &mut a);
                bv.intersect_into(&probe, &mut b);
                prop_assert_eq!(a, b);
            }
        }
    }
}
