//! Maximal **induced** biclique enumeration in general (non-bipartite)
//! graphs, by reduction to the workspace's bipartite MBE engine.
//!
//! The pipeline (DESIGN.md §12):
//!
//! 1. [`decompose`](decompose::decompose) finds a small odd cycle
//!    transversal `S` — removing `S` leaves a bipartite remainder with
//!    certificate classes `(X, Y)` — via BFS odd-cycle peeling plus a
//!    bounded drop/swap local search.
//! 2. [`OctEnumeration`] sweeps the `3^|S|`
//!    side assignments of `S`, prunes invalid ones by adjacency masks,
//!    and for each valid assignment builds compact bipartite instances
//!    solved by the stock [`mbe::Enumeration`] engine.
//! 3. Candidates from all assignments are deduplicated through an
//!    R-set trie keyed on the sorted union `A ∪ B` (which uniquely
//!    determines the pair), maximality-filtered against the full
//!    graph, and emitted.
//!
//! Runs are resumable: [`OctCheckpoint`]
//! carries the next unit address *and* the full dedup key log, so a
//! stopped run plus its resumption equals the complete run with no
//! duplicates.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod decompose;
pub mod driver;
pub mod reference;

pub use checkpoint::{OctCheckpoint, OctCheckpointError};
pub use decompose::{decompose, two_color, Class, Decomposition};
pub use driver::{OctEnumeration, OctError, OctReport, OctStats, DEFAULT_MAX_OCT, MAX_OCT_LIMIT};
