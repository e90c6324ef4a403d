//! # mbe-suite
//!
//! A production-quality Rust reproduction of **"Maximal Biclique
//! Enumeration: A Prefix Tree Based Approach"** (ICDE 2024): the MBET
//! prefix-tree algorithm, the baselines it is evaluated against, workload
//! generators calibrated to the standard benchmark datasets, and the
//! full experiment harness. See `DESIGN.md` for the system inventory and
//! the reconstruction notes, and `EXPERIMENTS.md` for measured results.
//!
//! This facade re-exports the workspace crates so applications can
//! depend on `mbe-suite` alone:
//!
//! ```
//! use mbe_suite::prelude::*;
//!
//! let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
//! let report = Enumeration::new(&g).collect().unwrap();
//! assert_eq!(report.bicliques.len(), 1); // the complete block itself
//! assert!(report.is_complete());
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`bigraph`] | bipartite CSR graphs, loaders, orderings, statistics |
//! | [`setops`] | sorted-slice set kernels |
//! | [`ptree`] | the candidate trie and R-set trie (the paper's data structure) |
//! | [`mbe`] | MBET, MBETM mode, baselines, the work-stealing driver, verification |
//! | [`gen`] | synthetic workloads and benchmark-dataset analogues |

#![forbid(unsafe_code)]

pub use bigraph;
pub use gen;
pub use mbe;
pub use ptree;
pub use setops;

/// The handful of names almost every user needs.
pub mod prelude {
    pub use bigraph::order::VertexOrder;
    pub use bigraph::BipartiteGraph;
    pub use mbe::{
        Algorithm, Biclique, BicliqueSink, Enumeration, MbeError, MbeOptions, MbetConfig, Report,
        RunControl, Stats, StopReason,
    };
}
