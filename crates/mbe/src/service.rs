//! Service-layer query support: canonical parameters, a byte-budgeted
//! LRU result cache, and the parameter→[`Enumeration`] bridge.
//!
//! The TCP front end lives in the workspace's `serve` crate; everything
//! an embedded caller also needs — naming a query, deciding whether two
//! queries are interchangeable, caching a completed result, running a
//! query — lives here so the policy is testable without sockets.
//!
//! A query is identified by `(graph fingerprint, canonical key)`:
//!
//! - the fingerprint is [`crate::checkpoint::graph_fingerprint`], the
//!   same FNV-1a digest checkpoints use to pin a graph;
//! - the key is [`QueryParams::canonical_key`], which covers exactly the
//!   result-affecting parameters. Execution hints (thread count, the
//!   per-request deadline) are deliberately excluded: they change how
//!   fast a run finishes, never what a *completed* run returns.
//!
//! Only completed runs are cacheable ([`cacheable`]): a stopped run's
//! output depends on where it stopped, which the key does not capture.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bigraph::order::VertexOrder;

use crate::filtered::SizeThresholds;
use crate::metrics::CacheCounters;
use crate::run::{Enumeration, MbeError, Report, StopReason};
use crate::sink::Biclique;
use crate::Algorithm;

/// Parameters of one service query — the wire-independent form shared by
/// the TCP protocol, the cache key, and the execution bridge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParams {
    /// Enumeration engine to run.
    pub algorithm: Algorithm,
    /// Vertex order imposed on the `V` side.
    pub order: VertexOrder,
    /// Worker threads for this query (`1` = serial, `0` = all cores).
    /// Execution hint only — not part of the canonical key.
    pub threads: usize,
    /// Minimum `|L|`; values `> 1` bound the run (see
    /// [`Enumeration::thresholds`]).
    pub min_left: usize,
    /// Minimum `|R|`; values `> 1` bound the run (see
    /// [`Enumeration::thresholds`]).
    pub min_right: usize,
    /// When `Some(k)`, return the top `k` bicliques by edges
    /// ([`Enumeration::top_k`]) instead of full enumeration. Thresholds
    /// and the budget still apply; `count_only` is ignored (the `k`
    /// bicliques are always returned).
    pub top_k: Option<usize>,
    /// Emission budget: stop after this many bicliques.
    pub max_bicliques: Option<u64>,
    /// Per-request deadline; `None` falls back to the server default.
    /// Not part of the canonical key (see the module docs).
    pub timeout: Option<Duration>,
    /// Count emissions without materializing them.
    pub count_only: bool,
}

impl Default for QueryParams {
    /// Paper-style defaults: MBET, ascending-degree order, serial, no
    /// thresholds, full enumeration, no budget or deadline.
    fn default() -> Self {
        QueryParams {
            algorithm: Algorithm::Mbet,
            order: VertexOrder::AscendingDegree,
            threads: 1,
            min_left: 1,
            min_right: 1,
            top_k: None,
            max_bicliques: None,
            timeout: None,
            count_only: false,
        }
    }
}

impl QueryParams {
    /// `true` iff this query's size thresholds bound the run (which
    /// makes it not checkpointable).
    pub fn thresholded(&self) -> bool {
        self.min_left > 1 || self.min_right > 1
    }

    /// `true` iff this query is a bounded run: size thresholds above 1,
    /// or top-k. Bounded runs are not checkpointable (their bound is not
    /// pinned in a checkpoint), and they apply only to bipartite graphs.
    pub fn bounded(&self) -> bool {
        self.thresholded() || self.top_k.is_some()
    }

    /// `true` iff this query can be split across workers by frontier
    /// sharding. A bounded run is not checkpointable, and an emission
    /// budget is a whole-run property a per-shard budget cannot express —
    /// both run undistributed (locally at a coordinator, without the
    /// degraded flag: that is policy, not failure).
    pub fn shardable(&self) -> bool {
        !self.bounded() && self.max_bicliques.is_none()
    }

    /// The canonical cache-key string: a stable, human-readable encoding
    /// of exactly the result-affecting parameters. Two queries with equal
    /// keys on the same graph fingerprint have identical complete
    /// results. Execution hints (`threads`, `timeout`) are excluded;
    /// threshold values are clamped to `≥ 1` the same way
    /// [`SizeThresholds::new`] clamps them, so `min_left: 0` and
    /// `min_left: 1` canonicalize identically.
    pub fn canonical_key(&self) -> String {
        let order = match self.order {
            VertexOrder::Natural => "nat".to_string(),
            VertexOrder::AscendingDegree => "asc".to_string(),
            VertexOrder::DescendingDegree => "desc".to_string(),
            VertexOrder::Unilateral => "uni".to_string(),
            VertexOrder::Random(seed) => format!("rand{seed}"),
        };
        let top_k = self.top_k.map_or("-".to_string(), |k| k.to_string());
        let budget = self.max_bicliques.map_or("-".to_string(), |n| n.to_string());
        format!(
            "alg={};ord={};minl={};minr={};topk={};budget={};count={}",
            self.algorithm.label(),
            order,
            self.min_left.max(1),
            self.min_right.max(1),
            top_k,
            budget,
            u8::from(self.count_only),
        )
    }
}

/// Applies `params` to `run` and finishes it with the terminal they
/// pick: `top_k`, `count` or `collect`.
///
/// This is the one bridge from service parameters to an [`Enumeration`].
/// The caller starts the run with its graph, [`crate::RunControl`] and
/// observer, and optionally [`Enumeration::resume`], a sampling cadence
/// or a fault plan. The control's deadline and cancellation flag apply
/// as-is: the service maps per-request deadlines onto the control at
/// admission time, so queued time counts against the deadline.
///
/// A resumed run keeps the algorithm, vertex order and MBET toggles its
/// checkpoint pins. Only `threads`, `count_only` and the emission budget
/// apply to it; the report covers exactly the checkpoint's frontier, and
/// a non-completed stop carries the remaining frontier's checkpoint.
pub fn run_query(run: Enumeration<'_>, params: &QueryParams) -> Result<Report, MbeError> {
    let mut run = run.threads(params.threads);
    if let Some(n) = params.max_bicliques {
        run = run.max_bicliques(n);
    }
    if !run.is_resumed() {
        run = run.algorithm(params.algorithm).order(params.order);
        if params.thresholded() {
            run = run.thresholds(SizeThresholds::new(params.min_left, params.min_right));
        }
        if let Some(k) = params.top_k {
            return run.top_k(k);
        }
    }
    if params.count_only {
        run.count()
    } else {
        run.collect()
    }
}

/// `true` iff `report` may be stored in a [`ResultCache`]: only complete
/// runs qualify. A stopped run (deadline, budget, cancellation, …) is a
/// prefix of the full answer determined by *when* it stopped — not a
/// function of the canonical key — so replaying it to a later identical
/// query would silently return partial results.
pub fn cacheable(report: &Report) -> bool {
    report.stop == StopReason::Completed
}

/// An immutable cached query result. Bicliques are behind an [`Arc`] so
/// a cache hit is O(1): the response borrows the same allocation the
/// cache retains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// The bicliques the run returned (none for a count-only run).
    pub bicliques: Arc<Vec<Biclique>>,
    /// Delivered emission count of the original run.
    pub emitted: u64,
    /// Wall-clock time the original (uncached) run took.
    pub elapsed: Duration,
}

/// Fixed per-entry bookkeeping charge in the cache's byte accounting.
const ENTRY_OVERHEAD: usize = 160;

/// Fixed per-biclique charge (two `Vec` headers plus allocator slack).
const BICLIQUE_OVERHEAD: usize = 48;

impl CachedResult {
    /// Captures a completed report as a cacheable value. Callers should
    /// check [`cacheable`] first; this only copies data.
    pub fn from_report(report: &Report) -> CachedResult {
        CachedResult {
            bicliques: Arc::new(report.bicliques.clone()),
            emitted: report.stats.emitted,
            elapsed: report.stats.elapsed,
        }
    }

    /// Approximate retained size used for the cache's byte budget:
    /// id payloads plus fixed per-biclique and per-entry overheads. An
    /// estimate — the budget bounds memory to within a small constant
    /// factor, it is not an allocator audit.
    pub fn cost_bytes(&self) -> usize {
        let mut cost = ENTRY_OVERHEAD;
        for b in self.bicliques.iter() {
            cost = cost
                .saturating_add(BICLIQUE_OVERHEAD)
                .saturating_add(4 * (b.left.len() + b.right.len()));
        }
        cost
    }
}

/// One cache slot: the value, its charged cost, and its LRU stamp.
struct Entry {
    value: CachedResult,
    cost: usize,
    last_used: u64,
}

/// A byte-budgeted LRU cache of completed query results, keyed by
/// `(graph fingerprint, canonical parameter key)`.
///
/// Eviction is strict LRU by lookup/insert recency, driven by the
/// approximate [`CachedResult::cost_bytes`] accounting: an insert evicts
/// least-recently-used entries until the new total fits the budget. A
/// value larger than the whole budget is not inserted at all. The cache
/// is not internally synchronized — the service wraps it in a `Mutex`.
pub struct ResultCache {
    entries: HashMap<(u64, String), Entry>,
    budget: usize,
    used: usize,
    tick: u64,
    counters: CacheCounters,
}

impl ResultCache {
    /// An empty cache that will retain at most ~`budget_bytes` of result
    /// data (by the [`CachedResult::cost_bytes`] estimate).
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            budget: budget_bytes,
            used: 0,
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Looks up a result, counting a hit or a miss and refreshing the
    /// entry's recency on a hit. The returned value shares the cached
    /// allocation (see [`CachedResult`]).
    pub fn lookup(&mut self, fingerprint: u64, key: &str) -> Option<CachedResult> {
        self.tick += 1;
        // Borrow-shaped two-step: HashMap has no `get_mut` by borrowed
        // pair key without allocating, so probe with a scratch tuple.
        let probe = (fingerprint, key.to_string());
        match self.entries.get_mut(&probe) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.counters.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting least-recently-used entries as needed to
    /// stay within the byte budget. Replacing an existing key refunds the
    /// old entry's cost first. A value whose cost alone exceeds the
    /// budget is dropped without disturbing the cache.
    pub fn insert(&mut self, fingerprint: u64, key: String, value: CachedResult) {
        let cost = value.cost_bytes();
        if cost > self.budget {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&(fingerprint, key.clone())) {
            self.used = self.used.saturating_sub(old.cost);
        }
        while self.used.saturating_add(cost) > self.budget {
            let Some(lru_key) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&lru_key) {
                self.used = self.used.saturating_sub(evicted.cost);
                self.counters.evictions += 1;
                self.counters.bytes_evicted += evicted.cost as u64;
            }
        }
        self.entries.insert((fingerprint, key), Entry { value, cost, last_used: self.tick });
        self.used = self.used.saturating_add(cost);
        self.counters.insertions += 1;
    }

    /// Current counters, with the `bytes_used` gauge filled in.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters { bytes_used: self.used as u64, ..self.counters }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes currently retained.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::graph_fingerprint;
    use bigraph::BipartiteGraph;

    fn small_graph() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)],
        )
        .unwrap()
    }

    fn result_with(n_bicliques: usize, ids_per_side: usize) -> CachedResult {
        let b =
            Biclique::new((0..ids_per_side as u32).collect(), (0..ids_per_side as u32).collect());
        CachedResult {
            bicliques: Arc::new(vec![b; n_bicliques]),
            emitted: n_bicliques as u64,
            elapsed: Duration::from_millis(1),
        }
    }

    #[test]
    fn canonical_key_covers_result_affecting_params_only() {
        let base = QueryParams::default();
        let hinted =
            QueryParams { threads: 8, timeout: Some(Duration::from_secs(1)), ..base.clone() };
        assert_eq!(base.canonical_key(), hinted.canonical_key(), "hints excluded");

        let other_alg = QueryParams { algorithm: Algorithm::Mbea, ..base.clone() };
        let other_ord = QueryParams { order: VertexOrder::Random(7), ..base.clone() };
        let other_thr = QueryParams { min_left: 2, ..base.clone() };
        let other_k = QueryParams { top_k: Some(3), ..base.clone() };
        let other_budget = QueryParams { max_bicliques: Some(10), ..base.clone() };
        let other_count = QueryParams { count_only: true, ..base.clone() };
        let keys: std::collections::HashSet<String> =
            [&base, &other_alg, &other_ord, &other_thr, &other_k, &other_budget, &other_count]
                .iter()
                .map(|p| p.canonical_key())
                .collect();
        assert_eq!(keys.len(), 7, "each result-affecting change yields a distinct key");

        // Threshold clamping matches SizeThresholds::new.
        let zero = QueryParams { min_left: 0, min_right: 0, ..base.clone() };
        assert_eq!(zero.canonical_key(), base.canonical_key());
    }

    #[test]
    fn run_query_matches_direct_enumeration() {
        let g = small_graph();
        let direct = Enumeration::new(&g).collect().unwrap();
        let served = run_query(Enumeration::new(&g), &QueryParams::default()).unwrap();
        assert!(served.is_complete());
        let mut a = direct.bicliques.clone();
        let mut b = served.bicliques.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(cacheable(&served));

        let counted = run_query(
            Enumeration::new(&g),
            &QueryParams { count_only: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(counted.stats.emitted, served.stats.emitted);
        assert!(counted.bicliques.is_empty());
    }

    #[test]
    fn run_query_thresholded_and_top_k_modes() {
        let g = small_graph();
        let thr = run_query(
            Enumeration::new(&g),
            &QueryParams { min_left: 2, min_right: 2, threads: 4, ..Default::default() },
        )
        .unwrap();
        assert!(thr.is_complete(), "thresholded query forced serial, not rejected");
        assert!(thr.bicliques.iter().all(|b| b.left.len() >= 2 && b.right.len() >= 2));

        let top =
            run_query(Enumeration::new(&g), &QueryParams { top_k: Some(1), ..Default::default() })
                .unwrap();
        assert_eq!(top.bicliques.len(), 1);
        let full = Enumeration::new(&g).collect().unwrap();
        let best = full.bicliques.iter().map(Biclique::edges).max().unwrap();
        assert_eq!(top.bicliques[0].edges(), best);
    }

    #[test]
    fn stopped_runs_are_not_cacheable() {
        let g = small_graph();
        let stopped = run_query(
            Enumeration::new(&g),
            &QueryParams { max_bicliques: Some(1), ..Default::default() },
        )
        .unwrap();
        assert_eq!(stopped.stop, StopReason::EmitBudget);
        assert!(!cacheable(&stopped));
        assert!(stopped.checkpoint.is_some(), "budget stop carries a checkpoint");
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        let unit = result_with(1, 4).cost_bytes();
        // Room for exactly two unit entries.
        let mut cache = ResultCache::new(2 * unit);
        let g = small_graph();
        let fp = graph_fingerprint(&g);

        assert!(cache.lookup(fp, "a").is_none());
        cache.insert(fp, "a".into(), result_with(1, 4));
        cache.insert(fp, "b".into(), result_with(1, 4));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fp, "a").is_some(), "a refreshed — now MRU");
        cache.insert(fp, "c".into(), result_with(1, 4));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fp, "b").is_none(), "b was LRU and got evicted");
        assert!(cache.lookup(fp, "a").is_some());
        assert!(cache.lookup(fp, "c").is_some());

        let c = cache.counters();
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 2);
        assert_eq!(c.insertions, 3);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.bytes_used as usize, cache.used_bytes());
        assert_eq!(c.bytes_evicted as usize, unit);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn cache_keys_separate_fingerprints() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(1, "k".into(), result_with(1, 2));
        assert!(cache.lookup(2, "k").is_none(), "same params, different graph");
        assert!(cache.lookup(1, "k").is_some());
    }

    #[test]
    fn cache_replacement_refunds_cost_and_oversize_is_skipped() {
        let small = result_with(1, 2);
        let unit = small.cost_bytes();
        let mut cache = ResultCache::new(4 * unit);
        cache.insert(9, "k".into(), small.clone());
        let used_once = cache.used_bytes();
        cache.insert(9, "k".into(), small);
        assert_eq!(cache.used_bytes(), used_once, "replacement did not double-charge");
        assert_eq!(cache.len(), 1);

        // An entry bigger than the whole budget is dropped, cache intact.
        cache.insert(9, "huge".into(), result_with(1000, 16));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(9, "k").is_some());
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn count_only_results_cache_without_payload() {
        let g = small_graph();
        let report = run_query(
            Enumeration::new(&g),
            &QueryParams { count_only: true, ..Default::default() },
        )
        .unwrap();
        let cached = CachedResult::from_report(&report);
        assert!(cached.bicliques.is_empty());
        assert_eq!(cached.emitted, report.stats.emitted);
        assert_eq!(cached.cost_bytes(), ENTRY_OVERHEAD);
    }
}
