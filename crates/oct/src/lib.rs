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
//! 3. Each maximal induced biclique has one *owner* unit, a function
//!    of the pair alone: crossing units are oriented by certificate
//!    class, same-side units by the side inside the transversal, and a
//!    biclique inside the transversal belongs to the mirrored unit
//!    with `l_mask > r_mask`. So no candidate is found twice; each is
//!    maximality-filtered against the full graph and emitted.
//!
//! Runs are resumable: [`OctCheckpoint`] carries the next unit address
//! and the keys of the candidates that unit handled before the stop,
//! so a stopped run plus its resumption equals the complete run with no
//! duplicates, and the checkpoint grows with one unit's output, not the
//! run's.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod decompose;
pub mod driver;
pub mod reference;

pub use checkpoint::OctCheckpoint;
pub use decompose::{decompose, two_color, Class, Decomposition};
pub use driver::{OctEnumeration, OctError, OctReport, OctStats, DEFAULT_MAX_OCT, MAX_OCT_LIMIT};
