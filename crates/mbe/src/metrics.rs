//! Enumeration counters.
//!
//! These counters regenerate the analysis columns of the paper-style
//! experiments: the ratio of non-maximal to maximal nodes (E3), the
//! batching savings of the prefix tree (E4), and per-task load figures
//! (E8). They are plain integers threaded through the engines by `&mut`,
//! so measuring costs nothing beyond the increments themselves.

use std::time::Duration;

use crate::histogram::Histogram;

/// Counters accumulated over one enumeration run.
///
/// On a completed run every expanded node is counted exactly once:
/// `nodes = emitted + nonmaximal + undersized`. On a *stopped* run
/// (cancelled, deadline, or over budget — see [`crate::StopReason`]) the
/// counters describe the partial work actually performed, and the
/// identity need not close: a stop can land between a node expansion and
/// its emission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Enumeration nodes expanded (branches actually recursed into).
    pub nodes: u64,
    /// Maximal bicliques emitted (α in the papers' tables).
    pub emitted: u64,
    /// Branches discarded by the maximality check (δ in the papers'
    /// tables; the reported ratio is `nonmaximal / emitted`).
    pub nonmaximal: u64,
    /// Candidates skipped because an equivalent representative was already
    /// expanded (MBET batching only).
    pub batched: u64,
    /// Candidates absorbed into `R'` without branching.
    pub absorbed: u64,
    /// The part of `nodes` counted in an MBET word-mode body (below the
    /// first node of a path whose `L'` has at most 64 vertices): nodes
    /// expanded there and branches that died at the child check inside
    /// one. It depends only on each node's `|L'|`, so threaded and serial
    /// runs agree on it. Always 0 under `Kernel::SortedOnly` and for the
    /// baselines.
    pub word_nodes: u64,
    /// Excluded vertices keyed at MBET nodes that ran the full (grouping)
    /// body, on the trie path or in word mode, and passed the maximality
    /// check: those whose key (`N(q) ∩ L'`) is non-empty and short of all
    /// of `L'`. Counted before the excluded antichain.
    pub excluded_keyed: u64,
    /// Of `excluded_keyed`, those the node kept for its branches: one per
    /// maximal distinct key under trie maximality, one per distinct key
    /// under batching alone, every one with both off.
    pub excluded_kept: u64,
    /// Root tasks processed.
    pub tasks: u64,
    /// Subtrees cut by the bound of a thresholded or top-k run before
    /// their node was expanded (always 0 for an unbounded run).
    pub bound_pruned: u64,
    /// Expanded nodes that passed the maximality check but were not
    /// emitted because `|R'|` is below a thresholded run's minimum; the
    /// node still branches (always 0 for an unbounded run).
    pub undersized: u64,
    /// Wall-clock time of the run (set by the entry points).
    pub elapsed: Duration,
}

impl Stats {
    /// `δ/α`: generated non-maximal branches per maximal biclique. The
    /// pruning-effectiveness metric of experiment E3.
    pub fn nonmaximal_ratio(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.nonmaximal as f64 / self.emitted as f64
        }
    }

    /// Merges another run's counters into this one (used by the parallel
    /// driver; `elapsed` takes the max since threads run concurrently).
    pub fn merge(&mut self, other: &Stats) {
        self.nodes += other.nodes;
        self.emitted += other.emitted;
        self.nonmaximal += other.nonmaximal;
        self.batched += other.batched;
        self.absorbed += other.absorbed;
        self.word_nodes += other.word_nodes;
        self.excluded_keyed += other.excluded_keyed;
        self.excluded_kept += other.excluded_kept;
        self.tasks += other.tasks;
        self.bound_pruned += other.bound_pruned;
        self.undersized += other.undersized;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Telemetry one worker accumulated over a run (a one-worker run has
/// exactly one; a threaded run keeps one per worker thread).
///
/// `emitted` counts *delivered* emissions only, so
/// `RunMetrics::total_emitted` always equals `Stats::emitted` for the
/// same run segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// This worker's index (0-based; 0 for one-worker runs).
    pub worker: usize,
    /// Tasks this worker executed (root, node, and split tasks alike).
    pub tasks: u64,
    /// Tasks obtained by stealing from a peer worker's deque (always 0
    /// for one-worker runs; takes from the seed and injector batch
    /// refills are not steals).
    pub steals: u64,
    /// Times the worker woke from its idle backoff loop to re-check for
    /// work (always 0 for one-worker runs).
    pub idle_wakeups: u64,
    /// Maximal bicliques this worker delivered to the sink.
    pub emitted: u64,
    /// Deepest enumeration recursion any of this worker's tasks reached.
    pub peak_depth: u64,
    /// Peak live prefix-tree nodes across this worker's tasks (MBET
    /// engines only; 0 for baselines). Only trie-path nodes build a
    /// trie: outside `Kernel::SortedOnly`, those with `|L'| > 64`.
    pub peak_trie_nodes: u64,
    /// Task wall-clock latency distribution, in microseconds.
    pub task_latency_us: Histogram,
    /// Per-task enumeration depth distribution.
    pub depth: Histogram,
}

impl WorkerMetrics {
    /// An empty counter set labeled with this worker's index.
    pub fn new(worker: usize) -> Self {
        WorkerMetrics { worker, ..Default::default() }
    }
}

/// Per-worker telemetry for a whole run, carried on
/// [`crate::Report::metrics`].
///
/// Resumed runs append segments: each driver invocation contributes its
/// worker set, so a serial run resumed on 4 threads yields 1 + 4
/// entries. The merged totals below fold the segments together
/// (histograms add bucket-wise, peaks take the max). The shape of this
/// struct is part of the versioned telemetry surface documented in
/// DESIGN.md §8.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// One entry per worker per driver segment, in segment order.
    pub workers: Vec<WorkerMetrics>,
}

impl RunMetrics {
    /// Appends another run segment's workers (used on resume).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.workers.extend(other.workers.iter().cloned());
    }

    /// Total tasks executed across workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total successful steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total idle wakeups across workers.
    pub fn total_idle_wakeups(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_wakeups).sum()
    }

    /// Total delivered emissions across workers; equals
    /// [`Stats::emitted`] for the same run.
    pub fn total_emitted(&self) -> u64 {
        self.workers.iter().map(|w| w.emitted).sum()
    }

    /// Deepest recursion reached by any worker.
    pub fn peak_depth(&self) -> u64 {
        self.workers.iter().map(|w| w.peak_depth).max().unwrap_or(0)
    }

    /// Task latency distribution merged across workers (microseconds).
    pub fn task_latency_us(&self) -> Histogram {
        let mut h = Histogram::new();
        for w in &self.workers {
            h.merge(&w.task_latency_us);
        }
        h
    }

    /// Per-task depth distribution merged across workers.
    pub fn depth(&self) -> Histogram {
        let mut h = Histogram::new();
        for w in &self.workers {
            h.merge(&w.depth);
        }
        h
    }
}

/// Counters of the service-layer result cache
/// ([`crate::service::ResultCache`]), surfaced by the `STATS` verb of the
/// query service.
///
/// `hits`/`misses`/`insertions`/`evictions` are monotone totals since the
/// cache was created; `bytes_used` is a gauge of the current retained
/// size and `bytes_evicted` the monotone total of bytes reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (whether or not a result was later inserted).
    pub misses: u64,
    /// Entries stored (replacements of an existing key count too).
    pub insertions: u64,
    /// Entries removed to make room under the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently retained (gauge, not a total).
    pub bytes_used: u64,
    /// Approximate bytes reclaimed by evictions so far.
    pub bytes_evicted: u64,
}

impl CacheCounters {
    /// Fraction of lookups served from the cache (`0.0` before any
    /// lookup).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits.saturating_add(self.misses);
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counters_hit_ratio() {
        assert_eq!(CacheCounters::default().hit_ratio(), 0.0);
        let c = CacheCounters { hits: 3, misses: 1, ..Default::default() };
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ratio_handles_zero_emissions() {
        assert_eq!(Stats::default().nonmaximal_ratio(), 0.0);
        let s = Stats { emitted: 4, nonmaximal: 6, ..Default::default() };
        assert!((s.nonmaximal_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Stats {
            nodes: 1,
            emitted: 2,
            nonmaximal: 3,
            batched: 4,
            absorbed: 5,
            word_nodes: 1,
            excluded_keyed: 9,
            excluded_kept: 4,
            tasks: 6,
            bound_pruned: 7,
            undersized: 8,
            elapsed: Duration::from_millis(10),
        };
        let b = Stats {
            nodes: 10,
            emitted: 20,
            nonmaximal: 30,
            batched: 40,
            absorbed: 50,
            word_nodes: 10,
            excluded_keyed: 90,
            excluded_kept: 40,
            tasks: 60,
            bound_pruned: 70,
            undersized: 80,
            elapsed: Duration::from_millis(5),
        };
        a.merge(&b);
        assert_eq!(a.nodes, 11);
        assert_eq!(a.emitted, 22);
        assert_eq!(a.nonmaximal, 33);
        assert_eq!(a.batched, 44);
        assert_eq!(a.absorbed, 55);
        assert_eq!(a.word_nodes, 11);
        assert_eq!(a.excluded_keyed, 99);
        assert_eq!(a.excluded_kept, 44);
        assert_eq!(a.tasks, 66);
        assert_eq!(a.bound_pruned, 77);
        assert_eq!(a.undersized, 88);
        assert_eq!(a.elapsed, Duration::from_millis(10));
    }

    #[test]
    fn run_metrics_totals_and_merge() {
        let mut w0 = WorkerMetrics::new(0);
        w0.tasks = 3;
        w0.steals = 1;
        w0.idle_wakeups = 2;
        w0.emitted = 10;
        w0.peak_depth = 4;
        w0.task_latency_us.record(100);
        w0.depth.record(4);
        let mut w1 = WorkerMetrics::new(1);
        w1.tasks = 2;
        w1.emitted = 5;
        w1.peak_depth = 7;
        w1.task_latency_us.record(3);
        w1.depth.record(7);

        let mut m = RunMetrics { workers: vec![w0] };
        m.merge(&RunMetrics { workers: vec![w1] });
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.total_tasks(), 5);
        assert_eq!(m.total_steals(), 1);
        assert_eq!(m.total_idle_wakeups(), 2);
        assert_eq!(m.total_emitted(), 15);
        assert_eq!(m.peak_depth(), 7);
        assert_eq!(m.task_latency_us().count(), 2);
        assert_eq!(m.depth().max_bucket_lower_bound(), Some(4));
        assert_eq!(RunMetrics::default().peak_depth(), 0);
    }
}
