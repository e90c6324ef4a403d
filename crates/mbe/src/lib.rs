//! Maximal biclique enumeration (MBE) with a prefix-tree core.
//!
//! This crate implements the algorithm family around **MBET**, the
//! prefix-tree based MBE algorithm ("Maximal Biclique Enumeration: A Prefix
//! Tree Based Approach", ICDE 2024 — see the workspace DESIGN.md for the
//! reconstruction notes), together with the published baselines it is
//! evaluated against and one work-stealing driver whose one-worker case
//! is the serial run.
//!
//! # Quick start
//!
//! Every run goes through the [`Enumeration`] builder, which owns the
//! options, the output sink, and the run-control plane (cancellation,
//! deadlines, budgets):
//!
//! ```
//! use bigraph::BipartiteGraph;
//! use mbe::{Algorithm, Enumeration, MbeOptions};
//!
//! // A 2x2 complete block plus a pendant edge.
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap();
//! let report = Enumeration::new(&g)
//!     .options(MbeOptions::new(Algorithm::Mbet))
//!     .collect()
//!     .unwrap();
//! assert!(report.is_complete());
//! assert_eq!(report.bicliques.len(), 2);
//! assert_eq!(report.stats.emitted, 2);
//! ```
//!
//! Runs can be bounded or interrupted; the [`Report`] says how far they
//! got and why they stopped ([`StopReason`]):
//!
//! ```
//! use bigraph::BipartiteGraph;
//! use mbe::{Enumeration, StopReason};
//! use std::time::Duration;
//!
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap();
//! let report = Enumeration::new(&g)
//!     .max_bicliques(1)                       // emission budget
//!     .timeout(Duration::from_secs(60))       // wall-clock deadline
//!     .collect()
//!     .unwrap();
//! assert_eq!(report.stop, StopReason::EmitBudget);
//! assert_eq!(report.bicliques.len(), 1);
//! ```
//!
//! A stopped run's output is always a duplicate-free subset of the
//! complete run's output, at any thread count.
//! For cooperative cancellation from another thread, share a
//! [`RunControl`] (it clones cheaply and shares its cancel flag) and call
//! [`RunControl::cancel`].
//!
//! # Algorithms
//!
//! | [`Algorithm`] | Maximality check | Extras |
//! |---|---|---|
//! | `MineLmbc` | recompute `C(L')` and compare | literal "Algorithm 1" of the background literature |
//! | `Mbea` | excluded-set (`Q`) subset scans | |
//! | `Imbea` | excluded-set scans | candidates sorted by local degree per node |
//! | `Mbet` | prefix-tree superset walk | equivalence batching + trie absorption ([`MbetConfig`]) |
//!
//! All algorithms emit exactly the same set of maximal bicliques — every
//! maximal biclique `(L, R)` with both sides non-empty, each exactly once —
//! which the test suite enforces against a brute-force reference
//! ([`verify`]).
//!
//! # Conventions
//!
//! Enumeration explores subsets of the `V` side, so graphs should be
//! [canonicalized](bigraph::BipartiteGraph::canonicalize) (`|U| ≥ |V|`)
//! first for best performance — the library works either way. A
//! [`VertexOrder`] is applied internally and
//! emitted bicliques are reported in *original* vertex ids.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod checkpoint;
pub mod extremal;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod filtered;
pub mod histogram;
pub mod invariants;
pub mod mbet;
pub mod metrics;
pub mod obs;
pub mod parallel;
pub mod run;
pub mod service;
pub mod sink;
pub mod task;
pub mod verify;

pub use checkpoint::{initial_checkpoint, Checkpoint, CheckpointError, ResumeTask};
pub use filtered::SizeThresholds;
pub use histogram::Histogram;
pub use metrics::{CacheCounters, RunMetrics, Stats, WorkerMetrics};
pub use obs::{FanoutObserver, JsonlTraceObserver, NoopObserver, Observer};
pub use run::{Enumeration, MbeError, Report, RunControl, StopReason};
pub use service::{CachedResult, QueryParams, ResultCache};
pub use sink::{Biclique, BicliqueSink, CollectSink, CountSink, FnSink, TrieSink};

pub use setops::Kernel;

use bigraph::codec::CodecError;
use bigraph::order::VertexOrder;

/// Which enumeration engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// "Algorithm 1": no excluded set; maximality by recomputing `C(L')`.
    MineLmbc,
    /// Excluded-set based maximality (Zhang et al. 2014, MBEA).
    Mbea,
    /// MBEA plus per-node ascending local-degree candidate ordering.
    Imbea,
    /// The prefix-tree algorithm (the paper's contribution).
    Mbet,
}

impl Algorithm {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::MineLmbc => "MineLMBC",
            Algorithm::Mbea => "MBEA",
            Algorithm::Imbea => "iMBEA",
            Algorithm::Mbet => "MBET",
        }
    }

    /// All algorithms, in the order the experiment tables report them.
    pub fn all() -> [Algorithm; 4] {
        [Algorithm::MineLmbc, Algorithm::Mbea, Algorithm::Imbea, Algorithm::Mbet]
    }

    /// The byte that names this algorithm in `MBCK`, `MBOK` and on the
    /// serve wire (1–4).
    pub fn tag(self) -> u8 {
        match self {
            Algorithm::MineLmbc => 1,
            Algorithm::Mbea => 2,
            Algorithm::Imbea => 3,
            Algorithm::Mbet => 4,
        }
    }

    /// Inverse of [`Algorithm::tag`]: any other byte is
    /// [`CodecError::Invalid`].
    pub fn from_tag(tag: u8) -> Result<Algorithm, CodecError> {
        match tag {
            1 => Ok(Algorithm::MineLmbc),
            2 => Ok(Algorithm::Mbea),
            3 => Ok(Algorithm::Imbea),
            4 => Ok(Algorithm::Mbet),
            _ => Err(CodecError::Invalid("algorithm")),
        }
    }
}

/// Feature toggles of the MBET engine, exposed for the E4 ablation.
///
/// With all three disabled the engine degenerates to MBEA (and the tests
/// assert exactly that, node counts included). Each toggle makes the
/// same decisions on the trie path and in word mode (the nodes with
/// `|L'| ≤ 64` under [`Kernel::Adaptive`], DESIGN.md §3.2), so every
/// configuration reports the same search counters under both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbetConfig {
    /// Expand one representative per group of candidates with identical
    /// local neighborhoods (§3.2 of DESIGN.md): trie groups on the trie
    /// path, runs of equal masks in word mode.
    pub batching: bool,
    /// Answer the maximality question with one superset search over the
    /// excluded keys (a walk over the excluded-vertex trie, or a scan of
    /// the masks in word mode) instead of per-`q` subset scans, and keep
    /// only the excluded vertices whose key no other excluded key
    /// contains (the excluded antichain).
    pub trie_maximality: bool,
    /// Build each child's candidate set with one key test per group of
    /// equivalent candidates instead of a test per candidate (a row scan
    /// on the trie path, a mask test in word mode). Absorption into `R'`
    /// is a per-group full-key test either way.
    pub trie_absorption: bool,
}

impl Default for MbetConfig {
    fn default() -> Self {
        MbetConfig { batching: true, trie_maximality: true, trie_absorption: true }
    }
}

/// Options of one enumeration run, at any thread count.
#[derive(Debug, Clone)]
pub struct MbeOptions {
    /// Engine selection.
    pub algorithm: Algorithm,
    /// Ordering imposed on `V` before enumeration.
    pub order: VertexOrder,
    /// MBET feature toggles (ignored by other engines).
    pub mbet: MbetConfig,
    /// Worker threads: `1` (the default) runs one worker on the calling
    /// thread, `0` spawns one worker per core, any other `n` spawns `n`
    /// workers.
    pub threads: usize,
    /// Load-aware splitting: root tasks with estimated enumeration-tree
    /// height above this are split (threaded runs only).
    pub split_height: usize,
    /// Load-aware splitting: root tasks with estimated size above this are
    /// split (threaded runs only).
    pub split_size: usize,
    /// Which key representation the MBET engine runs on: word mode at
    /// the nodes with `|L'| ≤ 64` and the trie above
    /// ([`Kernel::Adaptive`]), or the trie everywhere
    /// ([`Kernel::SortedOnly`]). An execution hint only: never changes which bicliques are emitted or
    /// their order, nor any search counter but `Stats::word_nodes`, so
    /// (like `threads`) it is excluded from checkpoint fingerprints and
    /// cache keys.
    pub kernel: Kernel,
    /// The cut of a thresholded or top-k run. Set by the
    /// [`Enumeration`] terminals from the builder's thresholds and
    /// top-k request, never by callers; unbounded by default.
    pub(crate) bound: task::Bound,
}

impl MbeOptions {
    /// Defaults matching the paper-style configuration: ascending-degree
    /// order, all MBET features on, one worker (`threads = 1`),
    /// splitting thresholds (20, 1500).
    pub fn new(algorithm: Algorithm) -> Self {
        MbeOptions {
            algorithm,
            order: VertexOrder::AscendingDegree,
            mbet: MbetConfig::default(),
            threads: 1,
            split_height: 20,
            split_size: 1500,
            kernel: Kernel::Adaptive,
            bound: task::Bound::default(),
        }
    }

    /// Sets the vertex order.
    pub fn order(mut self, order: VertexOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the MBET feature toggles.
    pub fn mbet(mut self, cfg: MbetConfig) -> Self {
        self.mbet = cfg;
        self
    }

    /// Sets the worker-thread count (`1` = serial, `0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the key representation (execution hint).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

impl Default for MbeOptions {
    fn default() -> Self {
        MbeOptions::new(Algorithm::Mbet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder() {
        let o = MbeOptions::new(Algorithm::Imbea)
            .order(VertexOrder::Natural)
            .threads(4)
            .mbet(MbetConfig { batching: false, ..Default::default() });
        assert_eq!(o.algorithm, Algorithm::Imbea);
        assert_eq!(o.order, VertexOrder::Natural);
        assert_eq!(o.threads, 4);
        assert!(!o.mbet.batching);
        assert!(o.mbet.trie_maximality);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Algorithm::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
