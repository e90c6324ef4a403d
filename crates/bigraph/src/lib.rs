//! Bipartite graph substrate for maximal biclique enumeration.
//!
//! A [`BipartiteGraph`] stores both sides of a bipartite graph
//! `G = (U, V, E)` in compressed-sparse-row (CSR) form with neighbor lists
//! sorted by vertex id. Vertices of each side are dense `u32` ids in their
//! own id space (`0..num_u()` and `0..num_v()`).
//!
//! The crate also provides:
//!
//! * [`codec`] — the byte codec the checkpoint formats and the serve wire
//!   share (FNV-1a, a strict bounded reader, the checksummed envelope);
//! * [`io`] — plain edge-list readers/writers (KONECT-style comments
//!   tolerated);
//! * [`order`] — the vertex orderings that MBE algorithms impose on `V`
//!   (ascending degree, descending degree, unilateral/degeneracy, random);
//! * [`stats`] — degree and 2-hop-degree statistics (`D`, `D₂`) used for
//!   load estimation and reporting;
//! * [`two_hop`] — 2-hop neighborhood computation, the root-task substrate.
//!
//! The conventions follow the MBE literature: the side with *fewer*
//! vertices is canonicalized to `V` (see [`BipartiteGraph::canonicalize`]),
//! since enumeration explores the powerset of `V`.

#![forbid(unsafe_code)]

pub mod builder;
pub mod butterfly;
pub mod codec;
pub mod core;
pub mod general;
pub mod io;
pub mod local;
pub mod order;
pub mod stats;
pub mod two_hop;

pub use builder::GraphBuilder;
pub use general::GeneralGraph;
pub use local::LocalGraph;

/// Which side of the bipartite graph a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left side `U` (canonically the larger one).
    U,
    /// The right side `V` (canonically the smaller one; enumeration
    /// explores subsets of `V`).
    V,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::U => Side::V,
            Side::V => Side::U,
        }
    }
}

/// Errors produced while constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint was out of the declared vertex range.
    VertexOutOfRange {
        /// Side of the offending endpoint.
        side: Side,
        /// The offending vertex id.
        vertex: u32,
        /// Number of vertices declared for that side.
        len: u32,
    },
    /// An input line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// The input exceeds a configured size limit (see
    /// [`io::ReadLimits`]). Reported instead of silently truncating or
    /// attempting an allocation sized by hostile input.
    TooLarge {
        /// What grew past its limit (e.g. `"edges"`, `"line bytes"`).
        what: &'static str,
        /// The limit that was exceeded.
        limit: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { side, vertex, len } => {
                write!(f, "vertex {vertex} out of range for side {side:?} (size {len})")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            GraphError::TooLarge { what, limit } => {
                write!(f, "input too large: {what} exceeds the limit of {limit}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// An immutable bipartite graph in two-sided CSR form.
///
/// Construct via [`BipartiteGraph::from_edges`] or [`GraphBuilder`].
/// Neighbor lists are strictly increasing; duplicate edges are merged at
/// construction.
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    // CSR for U -> V.
    u_offsets: Vec<usize>,
    u_adj: Vec<u32>,
    // CSR for V -> U.
    v_offsets: Vec<usize>,
    v_adj: Vec<u32>,
}

impl BipartiteGraph {
    /// Builds a graph from an edge list. Duplicate edges are merged.
    ///
    /// `nu`/`nv` declare the number of vertices on each side; every edge
    /// endpoint must be `< nu` (left) resp. `< nv` (right).
    ///
    /// ```
    /// use bigraph::BipartiteGraph;
    /// let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (0, 1), (2, 1), (0, 1)]).unwrap();
    /// assert_eq!(g.num_edges(), 3);
    /// assert_eq!(g.nbr_u(0), &[0, 1]);
    /// assert_eq!(g.nbr_v(1), &[0, 2]);
    /// ```
    pub fn from_edges(nu: u32, nv: u32, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(nu, nv);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    pub(crate) fn from_csr(
        u_offsets: Vec<usize>,
        u_adj: Vec<u32>,
        v_offsets: Vec<usize>,
        v_adj: Vec<u32>,
    ) -> Self {
        let g = BipartiteGraph { u_offsets, u_adj, v_offsets, v_adj };
        debug_assert!(g.check_invariants());
        g
    }

    fn check_invariants(&self) -> bool {
        (0..self.num_u()).all(|u| setops::is_strictly_increasing(self.nbr_u(u)))
            && (0..self.num_v()).all(|v| setops::is_strictly_increasing(self.nbr_v(v)))
            && self.u_adj.len() == self.v_adj.len()
    }

    /// Number of vertices on the `U` side.
    #[inline]
    pub fn num_u(&self) -> u32 {
        (self.u_offsets.len() - 1) as u32
    }

    /// Number of vertices on the `V` side.
    #[inline]
    pub fn num_v(&self) -> u32 {
        (self.v_offsets.len() - 1) as u32
    }

    /// Number of (distinct) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.u_adj.len()
    }

    /// Sorted neighbors (in `V`) of left vertex `u`.
    #[inline]
    pub fn nbr_u(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.u_adj[self.u_offsets[u]..self.u_offsets[u + 1]]
    }

    /// Sorted neighbors (in `U`) of right vertex `v`.
    #[inline]
    pub fn nbr_v(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.v_adj[self.v_offsets[v]..self.v_offsets[v + 1]]
    }

    /// Degree of left vertex `u`.
    #[inline]
    pub fn deg_u(&self, u: u32) -> usize {
        self.nbr_u(u).len()
    }

    /// Degree of right vertex `v`.
    #[inline]
    pub fn deg_v(&self, v: u32) -> usize {
        self.nbr_v(v).len()
    }

    /// `true` iff edge `(u, v)` exists (binary search on the shorter list).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if self.deg_u(u) <= self.deg_v(v) {
            self.nbr_u(u).binary_search(&v).is_ok()
        } else {
            self.nbr_v(v).binary_search(&u).is_ok()
        }
    }

    /// All edges as `(u, v)` pairs, ordered by `u` then `v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_u()).flat_map(move |u| self.nbr_u(u).iter().map(move |&v| (u, v)))
    }

    /// Swaps the two sides: `U` becomes `V` and vice versa.
    pub fn swap_sides(&self) -> BipartiteGraph {
        BipartiteGraph {
            u_offsets: self.v_offsets.clone(),
            u_adj: self.v_adj.clone(),
            v_offsets: self.u_offsets.clone(),
            v_adj: self.u_adj.clone(),
        }
    }

    /// Canonicalizes side assignment so that `|U| ≥ |V|`, the convention
    /// assumed by the enumeration algorithms (they explore subsets of `V`).
    ///
    /// Returns the (possibly swapped) graph and whether a swap happened, so
    /// callers can map reported bicliques back to original sides.
    pub fn canonicalize(&self) -> (BipartiteGraph, bool) {
        if self.num_u() >= self.num_v() {
            (self.clone(), false)
        } else {
            (self.swap_sides(), true)
        }
    }

    /// Relabels the `V` side by `perm`, where `perm[new_id] = old_id`.
    /// Neighbor lists on the `U` side are re-sorted accordingly.
    ///
    /// Panics if `perm` is not a permutation of `0..num_v()`.
    pub fn permute_v(&self, perm: &[u32]) -> BipartiteGraph {
        let nv = self.num_v() as usize;
        assert_eq!(perm.len(), nv, "permutation length mismatch");
        let mut inv = vec![u32::MAX; nv];
        for (new_id, &old_id) in perm.iter().enumerate() {
            assert!(
                (old_id as usize) < nv && inv[old_id as usize] == u32::MAX,
                "not a permutation"
            );
            inv[old_id as usize] = new_id as u32;
        }
        // Rebuild V side CSR in the new order.
        let mut v_offsets = Vec::with_capacity(nv + 1);
        let mut v_adj = Vec::with_capacity(self.v_adj.len());
        v_offsets.push(0);
        for &old_id in perm {
            v_adj.extend_from_slice(self.nbr_v(old_id));
            v_offsets.push(v_adj.len());
        }
        // Rewrite U side ids and re-sort each list.
        let mut u_adj = self.u_adj.clone();
        for w in u_adj.iter_mut() {
            *w = inv[*w as usize];
        }
        for u in 0..self.num_u() as usize {
            u_adj[self.u_offsets[u]..self.u_offsets[u + 1]].sort_unstable();
        }
        BipartiteGraph::from_csr(self.u_offsets.clone(), u_adj, v_offsets, v_adj)
    }

    /// Induced subgraph on the given (sorted, deduplicated) vertex subsets.
    /// Vertices are re-labeled densely in the order given.
    pub fn induced(&self, us: &[u32], vs: &[u32]) -> BipartiteGraph {
        debug_assert!(setops::is_strictly_increasing(us));
        debug_assert!(setops::is_strictly_increasing(vs));
        let mut vmap = std::collections::HashMap::with_capacity(vs.len());
        for (i, &v) in vs.iter().enumerate() {
            vmap.insert(v, i as u32);
        }
        let mut b = GraphBuilder::new(us.len() as u32, vs.len() as u32);
        let mut keep = Vec::new();
        for (i, &u) in us.iter().enumerate() {
            setops::intersect_into(self.nbr_u(u), vs, &mut keep);
            for &v in &keep {
                b.add_edge(i as u32, vmap[&v]).expect("in-range by construction");
            }
        }
        b.build()
    }
}

impl std::fmt::Debug for BipartiteGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BipartiteGraph {{ |U|: {}, |V|: {}, |E|: {} }}",
            self.num_u(),
            self.num_v(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example graph G0 from the MBE literature:
    /// U = {u1..u5} (ids 0..5), V = {v1..v4} (ids 0..4).
    pub(crate) fn g0() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            5,
            4,
            &[
                (0, 0), // u1-v1
                (0, 1), // u1-v2
                (0, 2), // u1-v3
                (1, 0), // u2-v1
                (1, 1), // u2-v2
                (1, 2), // u2-v3
                (1, 3), // u2-v4
                (2, 1), // u3-v2
                (3, 1), // u4-v2
                (3, 2), // u4-v3
                (3, 3), // u4-v4
                (4, 3), // u5-v4
            ],
        )
        .unwrap()
    }

    #[test]
    fn g0_shape() {
        let g = g0();
        assert_eq!(g.num_u(), 5);
        assert_eq!(g.num_v(), 4);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.nbr_u(1), &[0, 1, 2, 3]);
        assert_eq!(g.nbr_v(1), &[0, 1, 2, 3]);
        assert_eq!(g.nbr_v(3), &[1, 3, 4]);
        assert!(g.has_edge(4, 3));
        assert!(!g.has_edge(4, 0));
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 0), (1, 1), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.nbr_u(0), &[0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(2, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { side: Side::U, vertex: 2, len: 2 }));
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { side: Side::V, vertex: 5, len: 2 }));
    }

    #[test]
    fn swap_and_canonicalize() {
        let g = BipartiteGraph::from_edges(2, 4, &[(0, 0), (1, 3), (1, 2)]).unwrap();
        let (c, swapped) = g.canonicalize();
        assert!(swapped);
        assert_eq!(c.num_u(), 4);
        assert_eq!(c.num_v(), 2);
        assert_eq!(c.num_edges(), 3);
        // Round trip.
        let back = c.swap_sides();
        assert_eq!(back, g);
        // Already canonical graphs are untouched.
        let (c2, swapped2) = c.canonicalize();
        assert!(!swapped2);
        assert_eq!(c2, c);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = g0();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        let g2 = BipartiteGraph::from_edges(5, 4, &edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn permute_v_identity_and_reverse() {
        let g = g0();
        let id: Vec<u32> = (0..4).collect();
        assert_eq!(g.permute_v(&id), g);

        let rev: Vec<u32> = (0..4).rev().collect();
        let p = g.permute_v(&rev);
        // v3 (old id 2) is new id 1; u1's neighbors {v1,v2,v3} = old {0,1,2}
        // map to new {3,2,1}, sorted {1,2,3}.
        assert_eq!(p.nbr_u(0), &[1, 2, 3]);
        assert_eq!(p.nbr_v(1), g.nbr_v(2));
        // Degree multiset preserved.
        let mut d1: Vec<usize> = (0..4).map(|v| g.deg_v(v)).collect();
        let mut d2: Vec<usize> = (0..4).map(|v| p.deg_v(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_v_rejects_non_permutation() {
        g0().permute_v(&[0, 0, 1, 2]);
    }

    #[test]
    fn induced_subgraph() {
        let g = g0();
        // Restrict to U {u1,u2,u4} = {0,1,3}, V {v2,v3} = {1,2}.
        let s = g.induced(&[0, 1, 3], &[1, 2]);
        assert_eq!(s.num_u(), 3);
        assert_eq!(s.num_v(), 2);
        assert_eq!(s.nbr_u(0), &[0, 1]); // u1 -> {v2,v3}
        assert_eq!(s.nbr_u(2), &[0, 1]); // u4 -> {v2,v3}
        assert_eq!(s.nbr_v(0), &[0, 1, 2]); // v2 adjacent to all three
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        assert_eq!(g.num_u(), 0);
        assert_eq!(g.num_v(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = BipartiteGraph::from_edges(3, 3, &[(1, 1)]).unwrap();
        assert_eq!(g.deg_u(0), 0);
        assert_eq!(g.deg_u(2), 0);
        assert_eq!(g.deg_v(0), 0);
        assert_eq!(g.nbr_u(1), &[1]);
    }
}
