//! Undirected general graphs (no side labels).
//!
//! A [`GeneralGraph`] stores a simple undirected graph in CSR form with
//! neighbor lists sorted by vertex id — the substrate for the odd-cycle
//! -transversal driver (`crates/oct`), which lifts bipartite maximal
//! biclique enumeration to graphs that are only *nearly* bipartite.
//!
//! The edge-list reader accepts the same plain-text format as
//! [`crate::io`] (KONECT-style comments, sparse or 1-based ids, extra
//! columns tolerated) and applies the same [`ReadLimits`] hardening:
//! exceeding a limit is a typed [`GraphError::TooLarge`], never a
//! silent truncation or a hostile-input-sized allocation. The only
//! format difference is that both endpoints of a row share one vertex
//! id space.
//!
//! Self-loops are discarded at construction: the graphs are simple, and
//! a looped vertex could never join either (independent) side of an
//! induced biclique anyway.

use crate::io::ReadLimits;
use crate::GraphError;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

/// An immutable simple undirected graph in CSR form.
///
/// Vertices are dense `u32` ids `0..num_vertices()`; neighbor lists are
/// strictly increasing; duplicate edges and self-loops are merged away
/// at construction.
#[derive(Clone, PartialEq, Eq)]
pub struct GeneralGraph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl GeneralGraph {
    /// Builds a graph on `n` vertices from an undirected edge list.
    /// Edge direction is irrelevant; duplicates (in either orientation)
    /// are merged and self-loops dropped.
    ///
    /// ```
    /// use bigraph::general::GeneralGraph;
    /// let g = GeneralGraph::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 3)]).unwrap();
    /// assert_eq!(g.num_edges(), 2); // (0,1) deduped, (2,2) dropped
    /// assert_eq!(g.nbr(1), &[0, 3]);
    /// ```
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut half: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            for x in [a, b] {
                if x >= n {
                    return Err(GraphError::VertexOutOfRange {
                        side: crate::Side::U,
                        vertex: x,
                        len: n,
                    });
                }
            }
            if a == b {
                continue;
            }
            half.push((a, b));
            half.push((b, a));
        }
        half.sort_unstable();
        half.dedup();
        let mut offsets = vec![0usize; n as usize + 1];
        for &(a, _) in &half {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        let adj: Vec<u32> = half.iter().map(|&(_, b)| b).collect();
        Ok(GeneralGraph { offsets, adj })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of (distinct, undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Sorted neighbors of vertex `v`.
    #[inline]
    pub fn nbr(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn deg(&self, v: u32) -> usize {
        self.nbr(v).len()
    }

    /// `true` iff edge `{a, b}` exists (binary search on the shorter
    /// neighbor list).
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        if self.deg(a) <= self.deg(b) {
            self.nbr(a).binary_search(&b).is_ok()
        } else {
            self.nbr(b).binary_search(&a).is_ok()
        }
    }

    /// All edges as `(a, b)` pairs with `a < b`, ordered by `a` then `b`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |a| self.nbr(a).iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
    }

    /// FNV-1a fingerprint over the vertex count and adjacency structure.
    /// Two structurally identical graphs hash equal; used to pin
    /// checkpoints and service cache entries to their graph.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::codec::Fnv::default();
        h.write_u64(self.num_vertices() as u64);
        for v in 0..self.num_vertices() {
            let nbrs = self.nbr(v);
            h.write_u64(nbrs.len() as u64);
            for &w in nbrs {
                h.write_u64(w as u64);
            }
        }
        h.finish()
    }

    /// Views a bipartite graph as a general graph: left vertex `u`
    /// keeps id `u`, right vertex `v` becomes `num_u() + v`. Useful for
    /// routing bipartite inputs through the general-graph pipeline.
    pub fn from_bipartite(g: &crate::BipartiteGraph) -> GeneralGraph {
        let nu = g.num_u();
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u, nu + v)).collect();
        GeneralGraph::from_edges(nu + g.num_v(), &edges)
            .expect("bipartite endpoints are in range by construction")
    }
}

impl std::fmt::Debug for GeneralGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GeneralGraph {{ |V|: {}, |E|: {} }}", self.num_vertices(), self.num_edges())
    }
}

/// Reads a general-graph edge list from any buffered reader under the
/// default [`ReadLimits`]. Both endpoints share one id space; ids are
/// compacted to dense 0-based ids preserving numeric order.
pub fn read_general_edge_list<R: BufRead>(reader: R) -> Result<GeneralGraph, GraphError> {
    read_general_edge_list_with_limits(reader, ReadLimits::default())
}

/// Reads a general-graph edge list with caller-chosen size limits.
/// Exceeding a limit is always a typed error — never a silent
/// truncation of the input. The format and hardening mirror
/// [`crate::io::read_edge_list_with_limits`] exactly.
pub fn read_general_edge_list_with_limits<R: BufRead>(
    mut reader: R,
    limits: ReadLimits,
) -> Result<GeneralGraph, GraphError> {
    let mut raw: Vec<(u64, u64)> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut idx = 0usize;
    loop {
        idx += 1;
        buf.clear();
        // Read at most one byte past the line cap: enough to tell "fits
        // exactly" from "too long" without buffering an unbounded line.
        let n = (&mut reader).take(limits.max_line_bytes as u64 + 1).read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if buf.len() > limits.max_line_bytes {
            return Err(GraphError::TooLarge {
                what: "line bytes",
                limit: limits.max_line_bytes as u64,
            });
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| GraphError::Parse { line: idx, msg: format!("invalid UTF-8: {e}") })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx,
                msg: format!("missing {what} endpoint"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse { line: idx, msg: format!("{what}: {e}") })
        };
        let a = parse(it.next(), "first")?;
        let b = parse(it.next(), "second")?;
        // Extra columns (weights, timestamps) are tolerated and ignored.
        if raw.len() as u64 >= limits.max_edges {
            return Err(GraphError::TooLarge { what: "edges", limit: limits.max_edges });
        }
        raw.push((a, b));
    }
    compact(&raw)
}

/// Compacts sparse/1-based ids (one shared id space) to dense 0-based.
fn compact(raw: &[(u64, u64)]) -> Result<GeneralGraph, GraphError> {
    let mut ids: Vec<u64> = Vec::with_capacity(raw.len() * 2);
    for &(a, b) in raw {
        ids.push(a);
        ids.push(b);
    }
    ids.sort_unstable();
    ids.dedup();
    // Dense ids are u32; more distinct raw ids than u32 can address
    // cannot be represented, only mis-truncated — reject it.
    if ids.len() > u32::MAX as usize {
        return Err(GraphError::TooLarge { what: "distinct ids", limit: u32::MAX as u64 });
    }
    let id = |x: u64| ids.binary_search(&x).expect("present by construction") as u32;
    let edges: Vec<(u32, u32)> = raw.iter().map(|&(a, b)| (id(a), id(b))).collect();
    GeneralGraph::from_edges(ids.len() as u32, &edges)
}

/// Reads a general-graph edge list from a file path.
pub fn read_general_edge_list_path<P: AsRef<Path>>(path: P) -> Result<GeneralGraph, GraphError> {
    read_general_edge_list_path_with_limits(path, ReadLimits::default())
}

/// Reads a general-graph edge list from a file path with caller-chosen
/// size limits — the entry point for loaders that treat the path as
/// untrusted input (the query service's `LOAD_GENERAL` verb reads
/// server-side files this way).
pub fn read_general_edge_list_path_with_limits<P: AsRef<Path>>(
    path: P,
    limits: ReadLimits,
) -> Result<GeneralGraph, GraphError> {
    let f = std::fs::File::open(path)?;
    read_general_edge_list_with_limits(std::io::BufReader::new(f), limits)
}

/// Writes a graph as a plain 0-based edge list (each edge once, `a < b`).
pub fn write_general_edge_list<W: Write>(g: &GeneralGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "% general edge list: |V|={} |E|={}", g.num_vertices(), g.num_edges())?;
    for (a, b) in g.edges() {
        writeln!(w, "{a} {b}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a graph to a file path.
pub fn write_general_edge_list_path<P: AsRef<Path>>(
    g: &GeneralGraph,
    path: P,
) -> Result<(), GraphError> {
    write_general_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_shape() {
        let g = GeneralGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.nbr(1), &[0, 2]);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn duplicates_and_loops_merged() {
        let g = GeneralGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.deg(2), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = GeneralGraph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 2, len: 2, .. }));
    }

    #[test]
    fn reader_matches_bipartite_reader_hardening() {
        let text = "% comment\n# more\n\n1 10 5.0\n2 10\n1 11\n";
        let g = read_general_edge_list(text.as_bytes()).unwrap();
        // ids {1, 2, 10, 11} -> {0, 1, 2, 3}
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.nbr(0), &[2, 3]);

        let limits = ReadLimits { max_line_bytes: 8, ..ReadLimits::default() };
        let long = format!("% {}\n1 2\n", "x".repeat(64));
        match read_general_edge_list_with_limits(long.as_bytes(), limits).unwrap_err() {
            GraphError::TooLarge { what, limit } => {
                assert_eq!(what, "line bytes");
                assert_eq!(limit, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }

        let tight = ReadLimits { max_edges: 2, ..ReadLimits::default() };
        match read_general_edge_list_with_limits("1 2\n2 3\n3 4\n".as_bytes(), tight).unwrap_err() {
            GraphError::TooLarge { what, limit } => {
                assert_eq!(what, "edges");
                assert_eq!(limit, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }

        match read_general_edge_list("1 2\nx 3\n".as_bytes()).unwrap_err() {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        match read_general_edge_list("7\n".as_bytes()).unwrap_err() {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("second"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let g = GeneralGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let mut buf = Vec::new();
        write_general_edge_list(&g, &mut buf).unwrap();
        let g2 = read_general_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let a = GeneralGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let b = GeneralGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let c = GeneralGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn from_bipartite_offsets_right_side() {
        let bg = crate::BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1), (0, 1)]).unwrap();
        let g = GeneralGraph::from_bipartite(&bg);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 2)); // u0 - v0
        assert!(g.has_edge(1, 3)); // u1 - v1
        assert!(g.has_edge(0, 3)); // u0 - v1
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = read_general_edge_list("% nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
