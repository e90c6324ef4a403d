//! The OCT enumeration driver.
//!
//! Lifts bipartite maximal biclique enumeration to general graphs by
//! iterating over the ≤ `3^|OCT|` side assignments of the odd cycle
//! transversal. Each transversal vertex is assigned *excluded*, *left*
//! or *right*; assignments violating an adjacency constraint (two
//! same-side transversal vertices adjacent, or a left/right pair
//! non-adjacent) are pruned wholesale. A valid assignment
//! `(S_L, S_R)` contributes up to two *enumeration units*:
//!
//! * **crossing** — a bipartite instance over
//!   `L_X = {x ∈ X : x ⊥ S_L, x ~ all S_R}` and
//!   `R_Y = {y ∈ Y : y ⊥ S_R, y ~ all S_L}` with the original edges;
//!   its maximal bicliques `(P, Q)` yield candidates
//!   `(S_L ∪ P, S_R ∪ Q)` — every maximal induced biclique whose two
//!   sides both contain remainder vertices is found here (remainder
//!   parts of the two sides necessarily lie in opposite certificate
//!   classes);
//! * **same-side** (only when `S_R ≠ ∅`) — covers bicliques whose
//!   second side lies *entirely inside the transversal*: the first
//!   side is `S_L ∪ M` where `M` is a maximal independent set of the
//!   bipartite graph on `{v ∈ X ∪ Y : v ⊥ S_L, v ~ all S_R}`. Maximal
//!   independent sets of a bipartite graph are exactly the maximal
//!   bicliques of its **bipartite complement** (plus the two one-class
//!   extremes, handled directly), so the same stock engine runs here
//!   too.
//!
//! Every induced biclique `(A, B)` a unit produces has one *owner*
//! unit, a function of the pair alone: its assignment puts `A ∩ S` and
//! `B ∩ S` on the two sides, and
//!
//! * when both sides keep remainder vertices, these lie in opposite
//!   certificate classes, and the owner is the crossing unit with the
//!   `X`-class side first;
//! * when one side keeps them, the other lies inside the transversal,
//!   and the owner is the same-side unit with the remainder side first;
//! * when neither does (a *transversal-only* biclique), the mirrored
//!   same-side units `(S_L, S_R)` and `(S_R, S_L)` both reach it, and
//!   only the one with `l_mask > r_mask`, the smaller assignment code,
//!   emits it.
//!
//! So no unit finds another unit's candidate, no candidate is found
//! twice, and the driver keeps no record of what it emitted; debug
//! builds recompute each candidate's owner and check that it is the
//! running unit. A candidate may still be *non-maximal in the full
//! graph* (it was maximal only within its unit's instance), so each one
//! is maximality-checked against the general graph before being
//! emitted. A stop names the unit to re-run and the candidates that
//! unit handled before it ([`OctCheckpoint`]).

use crate::checkpoint::OctCheckpoint;
use crate::decompose::{decompose, Decomposition};
use bigraph::general::GeneralGraph;
use bigraph::order::VertexOrder;
use bigraph::{BipartiteGraph, GraphBuilder, LocalGraph};
use mbe::{
    Algorithm, Biclique, CheckpointError, Enumeration, MbeError, Observer, RunControl, StopReason,
};
use std::time::{Duration, Instant};

/// Default cap on the transversal size the driver will accept.
pub const DEFAULT_MAX_OCT: u32 = 12;

/// Hard ceiling on [`OctEnumeration::max_oct`]: beyond this the
/// `3^|OCT|` assignment space cannot be iterated in reasonable time.
pub const MAX_OCT_LIMIT: u32 = 14;

/// Errors from the OCT driver.
#[derive(Debug)]
pub enum OctError {
    /// The heuristic transversal exceeds the configured cap; the
    /// `3^|OCT|` assignment sweep would be intractable.
    TransversalTooLarge {
        /// Size of the transversal the heuristic found.
        size: u32,
        /// The configured cap it exceeded.
        limit: u32,
    },
    /// A builder option combination is invalid.
    InvalidConfig(&'static str),
    /// An inner bipartite enumeration failed.
    Engine(MbeError),
    /// A resume checkpoint could not be validated or applied.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for OctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OctError::TransversalTooLarge { size, limit } => {
                write!(f, "odd cycle transversal of size {size} exceeds the cap of {limit}")
            }
            OctError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OctError::Engine(e) => write!(f, "inner enumeration failed: {e}"),
            OctError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for OctError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OctError::Engine(e) => Some(e),
            OctError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MbeError> for OctError {
    fn from(e: MbeError) -> Self {
        OctError::Engine(e)
    }
}

impl From<CheckpointError> for OctError {
    fn from(e: CheckpointError) -> Self {
        OctError::Checkpoint(e)
    }
}

/// Counters describing one OCT driver run.
#[derive(Debug, Clone, Default)]
pub struct OctStats {
    /// Transversal size the decomposition produced.
    pub oct_size: u32,
    /// Remainder vertices in the `X` (left) certificate class.
    pub left_size: u32,
    /// Remainder vertices in the `Y` (right) class.
    pub right_size: u32,
    /// Valid (unpruned) assignments visited this run.
    pub assignments: u64,
    /// Enumeration units executed this run.
    pub units_run: u64,
    /// Inner engine invocations (units can skip the engine when an
    /// instance side is empty).
    pub inner_runs: u64,
    /// Bicliques the inner engines emitted.
    pub inner_emitted: u64,
    /// Candidates maximality-checked this run: inner emissions and
    /// direct candidates, each in the one unit that owns it. A resumed
    /// unit's candidates from before the stop are skipped, not counted.
    pub candidates: u64,
    /// Candidates rejected by the full-graph maximality check.
    pub nonmaximal: u64,
    /// Bicliques emitted, cumulative across resumed runs.
    pub emitted: u64,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
}

/// The outcome of an OCT driver run.
#[derive(Debug)]
pub struct OctReport {
    /// Maximal induced bicliques emitted by *this* run (empty under
    /// [`OctEnumeration::count`]). Each [`Biclique`]'s `left` side is
    /// the one containing the smaller minimum vertex id.
    pub bicliques: Vec<Biclique>,
    /// The transversal the decomposition produced, sorted.
    pub oct: Vec<u32>,
    /// Run counters.
    pub stats: OctStats,
    /// Why the run stopped.
    pub stop: StopReason,
    /// A resumable position, present iff the run stopped early.
    pub checkpoint: Option<OctCheckpoint>,
    /// Worker telemetry folded across all inner engine runs: one entry
    /// per worker index, counters summed and histograms merged.
    pub metrics: mbe::metrics::RunMetrics,
}

impl OctReport {
    /// `true` iff the run covered the whole assignment space.
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete()
    }
}

/// Builder for an OCT enumeration run, mirroring [`Enumeration`].
///
/// ```
/// use bigraph::general::GeneralGraph;
/// use oct::OctEnumeration;
///
/// // A triangle with a pendant: bicliques are the three edges of the
/// // triangle, the pendant edge, and the path-center pair {0,2}-{1}...
/// let g = GeneralGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// let report = OctEnumeration::new(&g).collect().unwrap();
/// assert!(report.is_complete());
/// ```
pub struct OctEnumeration<'g> {
    g: &'g GeneralGraph,
    algorithm: Algorithm,
    order: VertexOrder,
    threads: usize,
    control: RunControl,
    max_bicliques: Option<u64>,
    max_oct: u32,
    resume: Option<OctCheckpoint>,
    observer: Option<&'g dyn Observer>,
}

/// Unit kinds, in execution order within one assignment code.
const KIND_CROSSING: u8 = 0;
const KIND_SAME_SIDE: u8 = 1;

impl<'g> OctEnumeration<'g> {
    /// A driver over `g` with default options (MBET, ascending degree,
    /// serial, no budgets).
    pub fn new(g: &'g GeneralGraph) -> Self {
        OctEnumeration {
            g,
            algorithm: Algorithm::Mbet,
            order: VertexOrder::AscendingDegree,
            threads: 1,
            control: RunControl::new(),
            max_bicliques: None,
            max_oct: DEFAULT_MAX_OCT,
            resume: None,
            observer: None,
        }
    }

    /// Selects the inner bipartite engine.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Selects the vertex order applied inside each instance.
    pub fn order(mut self, o: VertexOrder) -> Self {
        self.order = o;
        self
    }

    /// Worker threads for each inner enumeration (1 = serial, 0 = all
    /// cores).
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Shares a control handle: its cancel flag and deadline stop the
    /// running unit's inner enumeration, and a cancel is also checked
    /// between units.
    /// Prefer [`OctEnumeration::max_bicliques`] over the control's
    /// emission budget — the latter would count each inner run's own
    /// emissions, before the maximality filter, afresh in every unit.
    pub fn control(mut self, c: RunControl) -> Self {
        self.control = c;
        self
    }

    /// Convenience: sets a wall-clock deadline on the control.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.control = self.control.timeout(d);
        self
    }

    /// Stops after emitting this many maximal bicliques in this run.
    pub fn max_bicliques(mut self, n: u64) -> Self {
        self.max_bicliques = Some(n);
        self
    }

    /// Caps the accepted transversal size (default
    /// [`DEFAULT_MAX_OCT`], at most [`MAX_OCT_LIMIT`]). A larger
    /// transversal fails with [`OctError::TransversalTooLarge`].
    pub fn max_oct(mut self, n: u32) -> Self {
        self.max_oct = n;
        self
    }

    /// Resumes from a checkpoint: pinned algorithm/order are copied
    /// from it, the sweep restarts at its unit, and that unit skips the
    /// candidates it handled before the stop, so `stopped ∪ resumed`
    /// equals the complete run duplicate-free.
    pub fn resume(mut self, c: OctCheckpoint) -> Self {
        self.algorithm = c.algorithm;
        self.order = c.order;
        self.resume = Some(c);
        self
    }

    /// Forwards an observer to every inner enumeration (one trace/
    /// progress bracket per unit).
    pub fn observer(mut self, obs: &'g dyn Observer) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Runs the driver, collecting emitted bicliques.
    pub fn collect(self) -> Result<OctReport, OctError> {
        self.run(true)
    }

    /// Runs the driver, counting without storing bicliques.
    pub fn count(self) -> Result<OctReport, OctError> {
        self.run(false)
    }

    fn run(mut self, keep: bool) -> Result<OctReport, OctError> {
        let started = Instant::now();
        if self.max_oct > MAX_OCT_LIMIT {
            return Err(OctError::InvalidConfig("max_oct above the supported limit"));
        }
        let decomp = decompose(self.g);
        let k = decomp.oct.len() as u32;
        if k > self.max_oct {
            return Err(OctError::TransversalTooLarge { size: k, limit: self.max_oct });
        }
        let (start_code, start_kind, emitted_base, keys) = match self.resume.take() {
            Some(c) => {
                c.matches(self.g)?;
                (c.next_code, c.next_kind, c.emitted, c.keys)
            }
            None => (0, KIND_CROSSING, 0, Vec::new()),
        };
        let mut driver = Driver::new(&self, &decomp, keep, keys);
        driver.stats.oct_size = k;
        driver.stats.left_size = driver.x.len() as u32;
        driver.stats.right_size = driver.y.len() as u32;

        let total_codes = 3u64.checked_pow(k).unwrap_or(u64::MAX);
        let mut stop = StopReason::Completed;
        let mut ckpt_at: Option<(u64, u8)> = None;

        'codes: for code in start_code..total_codes {
            let (l_mask, r_mask) = decode_assignment(code, k);
            if !driver.assignment_valid(l_mask, r_mask) {
                continue;
            }
            driver.stats.assignments += 1;
            for kind in [KIND_CROSSING, KIND_SAME_SIDE] {
                if code == start_code && kind < start_kind {
                    continue;
                }
                if kind == KIND_SAME_SIDE && r_mask == 0 {
                    continue;
                }
                let unit_stop = if self.control.is_cancelled() {
                    Some(StopReason::Cancelled)
                } else {
                    driver.run_unit(code, kind, l_mask, r_mask)?
                };
                if let Some(reason) = unit_stop {
                    stop = reason;
                    ckpt_at = Some((code, kind));
                    break 'codes;
                }
                // The unit is done, and no later unit can find its
                // candidates: their keys go.
                driver.unit_keys.clear();
                driver.skip.clear();
            }
        }

        let emitted = emitted_base + driver.emitted;
        let checkpoint = ckpt_at.map(|(next_code, next_kind)| OctCheckpoint {
            fingerprint: self.g.fingerprint(),
            algorithm: self.algorithm,
            order: self.order,
            next_code,
            next_kind,
            emitted,
            keys: std::mem::take(&mut driver.unit_keys),
        });
        let mut stats = driver.stats;
        stats.emitted = emitted;
        stats.elapsed = started.elapsed();
        let metrics = mbe::metrics::RunMetrics { workers: driver.metrics };
        Ok(OctReport {
            bicliques: driver.out,
            oct: decomp.oct.clone(),
            stats,
            stop,
            checkpoint,
            metrics,
        })
    }
}

/// Decodes a ternary assignment code into (left, right) bit masks over
/// the sorted transversal: digit 0 = excluded, 1 = left, 2 = right.
fn decode_assignment(code: u64, k: u32) -> (u32, u32) {
    let (mut l, mut r) = (0u32, 0u32);
    let mut c = code;
    for i in 0..k {
        match c % 3 {
            1 => l |= 1 << i,
            2 => r |= 1 << i,
            _ => {}
        }
        c /= 3;
    }
    (l, r)
}

/// The ternary code of the assignment `(l, r)`: the inverse of
/// [`decode_assignment`].
fn encode_assignment(l: u32, r: u32) -> u64 {
    (0..u32::BITS)
        .rev()
        .fold(0, |code, i| 3 * code + u64::from(l >> i & 1) + 2 * u64::from(r >> i & 1))
}

/// Merges two sorted, disjoint id lists.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Per-run state shared by all units.
struct Driver<'a> {
    /// The run's graph and options: engine, order, threads, control,
    /// observer and budget.
    run: &'a OctEnumeration<'a>,
    /// Sorted transversal ids.
    s: Vec<u32>,
    /// Sorted `X`-class remainder ids.
    x: Vec<u32>,
    /// Sorted `Y`-class remainder ids.
    y: Vec<u32>,
    /// Adjacency masks among transversal vertices.
    adj_s: Vec<u32>,
    /// For every vertex: bitmask of adjacent transversal positions.
    oct_mask: Vec<u32>,
    /// The bipartite remainder graph: `U` = index into `x`, `V` = index
    /// into `y`.
    g_xy: BipartiteGraph,
    /// Reused compaction buffers for per-unit instances.
    lg: LocalGraph,
    /// The running unit, `(code, kind)`: the owner of every candidate
    /// it hands to [`Driver::consider`] (checked in debug builds).
    unit: (u64, u8),
    /// `A ∪ B` keys of the candidates the running unit has handled, for
    /// a stop inside it to checkpoint. A resumed run starts with the
    /// stopped run's keys, which its first unit keeps.
    unit_keys: Vec<Vec<u32>>,
    /// The stopped run's keys, sorted: candidates the resumed run's
    /// first unit skips, because they were handled before the stop.
    skip: Vec<Vec<u32>>,
    stats: OctStats,
    /// Worker telemetry folded across inner runs, indexed by worker.
    metrics: Vec<mbe::metrics::WorkerMetrics>,
    emitted: u64,
    keep: bool,
    out: Vec<Biclique>,
}

impl<'a> Driver<'a> {
    fn new(
        run: &'a OctEnumeration<'a>,
        decomp: &Decomposition,
        keep: bool,
        unit_keys: Vec<Vec<u32>>,
    ) -> Self {
        let g = run.g;
        let s = decomp.oct.clone();
        let x = decomp.left();
        let y = decomp.right();
        let n = g.num_vertices() as usize;
        let mut adj_s = vec![0u32; s.len()];
        let mut oct_mask = vec![0u32; n];
        for (i, &si) in s.iter().enumerate() {
            for &w in g.nbr(si) {
                oct_mask[w as usize] |= 1 << i;
            }
        }
        for (i, &si) in s.iter().enumerate() {
            adj_s[i] = oct_mask[si as usize];
        }
        // Positions of remainder vertices inside x / y.
        let mut y_pos = vec![u32::MAX; n];
        for (j, &v) in y.iter().enumerate() {
            y_pos[v as usize] = j as u32;
        }
        let mut edges = Vec::new();
        for (xi, &v) in x.iter().enumerate() {
            for &w in g.nbr(v) {
                let yj = y_pos[w as usize];
                if yj != u32::MAX {
                    edges.push((xi as u32, yj));
                }
            }
        }
        let g_xy = BipartiteGraph::from_edges(x.len() as u32, y.len() as u32, &edges)
            .expect("remainder indices are dense by construction");
        let mut skip = unit_keys.clone();
        skip.sort_unstable();
        Driver {
            run,
            s,
            x,
            y,
            adj_s,
            oct_mask,
            g_xy,
            lg: LocalGraph::new(setops::Kernel::SortedOnly),
            unit: (0, KIND_CROSSING),
            unit_keys,
            skip,
            stats: OctStats::default(),
            metrics: Vec::new(),
            emitted: 0,
            keep,
            out: Vec::new(),
        }
    }

    /// Folds one inner run's worker telemetry into the per-worker
    /// aggregate: counters sum, histograms merge, peaks take the max.
    fn fold_metrics(&mut self, m: &mbe::metrics::RunMetrics) {
        for wm in &m.workers {
            if self.metrics.len() <= wm.worker {
                self.metrics
                    .extend((self.metrics.len()..=wm.worker).map(mbe::metrics::WorkerMetrics::new));
            }
            let agg = &mut self.metrics[wm.worker];
            agg.tasks += wm.tasks;
            agg.steals += wm.steals;
            agg.idle_wakeups += wm.idle_wakeups;
            agg.emitted += wm.emitted;
            agg.peak_depth = agg.peak_depth.max(wm.peak_depth);
            agg.peak_trie_nodes = agg.peak_trie_nodes.max(wm.peak_trie_nodes);
            agg.task_latency_us.merge(&wm.task_latency_us);
            agg.depth.merge(&wm.depth);
        }
    }

    /// An assignment is valid iff both sides are independent in `G[S]`
    /// and every left/right pair is adjacent.
    fn assignment_valid(&self, l_mask: u32, r_mask: u32) -> bool {
        let mut m = l_mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.adj_s[i] & l_mask != 0 || self.adj_s[i] & r_mask != r_mask {
                return false;
            }
        }
        let mut m = r_mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.adj_s[i] & r_mask != 0 {
                return false;
            }
        }
        true
    }

    /// Transversal vertices selected by `mask`, sorted (the transversal
    /// itself is sorted, so a mask scan preserves order).
    fn s_of(&self, mask: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(mask.count_ones() as usize);
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            out.push(self.s[i]);
        }
        out
    }

    /// Remainder candidates from `pool` (indices into `ids`) that are
    /// adjacent to every `need`-side transversal vertex and to no
    /// `avoid`-side one.
    fn filter_candidates(&self, ids: &[u32], need: u32, avoid: u32) -> Vec<u32> {
        ids.iter()
            .enumerate()
            .filter(|&(_, &v)| {
                let m = self.oct_mask[v as usize];
                m & need == need && m & avoid == 0
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The unit that owns the induced biclique `{a, b}`, as
    /// `(code, kind)`; a function of the pair alone (module docs).
    fn owner(&self, a: &[u32], b: &[u32]) -> (u64, u8) {
        let mask = |side: &[u32]| {
            side.iter().filter_map(|v| self.s.binary_search(v).ok()).fold(0u32, |m, i| m | 1 << i)
        };
        let (ma, mb) = (mask(a), mask(b));
        let (ra, rb) = (a.len() > ma.count_ones() as usize, b.len() > mb.count_ones() as usize);
        let (kind, a_first) = match (ra, rb) {
            (true, true) => (KIND_CROSSING, a.iter().any(|v| self.x.binary_search(v).is_ok())),
            (false, false) => (KIND_SAME_SIDE, ma > mb),
            _ => (KIND_SAME_SIDE, ra),
        };
        let (l, r) = if a_first { (ma, mb) } else { (mb, ma) };
        (encode_assignment(l, r), kind)
    }

    /// Runs the unit `(code, kind)` of the assignment `(l_mask, r_mask)`.
    /// Returns `Ok(Some(reason))` when the run must stop (the unit is
    /// then re-run on resume).
    fn run_unit(
        &mut self,
        code: u64,
        kind: u8,
        l_mask: u32,
        r_mask: u32,
    ) -> Result<Option<StopReason>, OctError> {
        self.unit = (code, kind);
        self.stats.units_run += 1;
        let s_l = self.s_of(l_mask);
        let s_r = self.s_of(r_mask);
        if kind == KIND_CROSSING {
            let lx = self.filter_candidates(&self.x, r_mask, l_mask);
            let ry = self.filter_candidates(&self.y, l_mask, r_mask);
            if lx.is_empty() || ry.is_empty() {
                return Ok(None);
            }
            self.lg.localize(&self.g_xy, &lx, &ry);
            let mut b = GraphBuilder::new(lx.len() as u32, ry.len() as u32);
            for j in 0..self.lg.num_right() as u32 {
                for &lid in self.lg.row(j) {
                    b.add_edge(lid, j).expect("local ids are dense");
                }
            }
            let left_globals: Vec<u32> = lx.iter().map(|&i| self.x[i as usize]).collect();
            let right_globals: Vec<u32> = ry.iter().map(|&j| self.y[j as usize]).collect();
            return self.run_inner(&b.build(), |bic| {
                let p: Vec<u32> = bic.left.iter().map(|&l| left_globals[l as usize]).collect();
                let q: Vec<u32> = bic.right.iter().map(|&r| right_globals[r as usize]).collect();
                (merge_sorted(&s_l, &p), merge_sorted(&s_r, &q))
            });
        }

        // Same-side unit: the second side is exactly S_R; the first is
        // S_L ∪ M for M a maximal independent set of the bipartite
        // graph on XA ∪ YA.
        let xa = self.filter_candidates(&self.x, r_mask, l_mask);
        let ya = self.filter_candidates(&self.y, r_mask, l_mask);
        if xa.is_empty() && ya.is_empty() {
            // M = ∅: a transversal-only candidate, which the mirrored
            // unit (S_R, S_L) reaches too. The unit with the larger left
            // mask (the smaller code) owns it. As S_R ≠ ∅, S_L ≠ ∅ then.
            if l_mask > r_mask && self.consider(s_l, s_r) {
                return Ok(Some(StopReason::EmitBudget));
            }
            return Ok(None);
        }
        let xa_globals: Vec<u32> = xa.iter().map(|&i| self.x[i as usize]).collect();
        let ya_globals: Vec<u32> = ya.iter().map(|&j| self.y[j as usize]).collect();

        self.lg.localize(&self.g_xy, &xa, &ya);
        // M = XA is a maximal independent set iff every YA vertex has a
        // neighbor in XA; M = YA symmetrically (coverage of XA by rows).
        // So an empty YA leaves M = XA alone, and an empty XA M = YA.
        let mut covered = vec![false; xa.len()];
        let mut all_rows_nonempty = true;
        for j in 0..self.lg.num_right() as u32 {
            let row = self.lg.row(j);
            if row.is_empty() {
                all_rows_nonempty = false;
            }
            for &lid in row {
                covered[lid as usize] = true;
            }
        }
        if all_rows_nonempty {
            let a = merge_sorted(&s_l, &xa_globals);
            if self.consider(a, s_r.clone()) {
                return Ok(Some(StopReason::EmitBudget));
            }
        }
        if covered.iter().all(|&c| c) {
            let a = merge_sorted(&s_l, &ya_globals);
            if self.consider(a, s_r.clone()) {
                return Ok(Some(StopReason::EmitBudget));
            }
        }
        // Mixed maximal independent sets = maximal bicliques of the
        // bipartite complement with both sides non-empty.
        let mut b = GraphBuilder::new(xa.len() as u32, ya.len() as u32);
        for j in 0..self.lg.num_right() as u32 {
            let row = self.lg.row(j);
            let mut r = 0usize;
            for lid in 0..xa.len() as u32 {
                if r < row.len() && row[r] == lid {
                    r += 1;
                } else {
                    b.add_edge(lid, j).expect("local ids are dense");
                }
            }
        }
        let comp = b.build();
        if comp.num_edges() == 0 {
            return Ok(None);
        }
        self.run_inner(&comp, |bic| {
            let p: Vec<u32> = bic.left.iter().map(|&l| xa_globals[l as usize]).collect();
            let q: Vec<u32> = bic.right.iter().map(|&r| ya_globals[r as usize]).collect();
            (merge_sorted(&s_l, &merge_sorted(&p, &q)), s_r.clone())
        })
    }

    /// One run of the stock engine on `inst` under the run's control
    /// and observer: counts it, folds its telemetry, and considers
    /// `candidate(bic)` for each biclique it emitted. Returns the stop
    /// the driver must take, if any.
    fn run_inner(
        &mut self,
        inst: &BipartiteGraph,
        candidate: impl Fn(&Biclique) -> (Vec<u32>, Vec<u32>),
    ) -> Result<Option<StopReason>, OctError> {
        let opts = self.run;
        let mut run = Enumeration::new(inst)
            .algorithm(opts.algorithm)
            .order(opts.order)
            .threads(opts.threads)
            .control(opts.control.clone());
        if let Some(obs) = opts.observer {
            run = run.observer(obs);
        }
        let report = run.collect()?;
        self.stats.inner_runs += 1;
        self.stats.inner_emitted += report.bicliques.len() as u64;
        self.fold_metrics(&report.metrics);
        for bic in &report.bicliques {
            let (a, b) = candidate(bic);
            if self.consider(a, b) {
                return Ok(Some(StopReason::EmitBudget));
            }
        }
        Ok(Some(report.stop).filter(|&s| s != StopReason::Completed))
    }

    /// Maximality-checks and (maybe) emits one candidate of the running
    /// unit, unless the stopped run this one resumes handled it.
    /// Returns `true` when the emission budget was just exhausted.
    fn consider(&mut self, a: Vec<u32>, b: Vec<u32>) -> bool {
        debug_assert!(!a.is_empty() && !b.is_empty());
        debug_assert_eq!(self.owner(&a, &b), self.unit, "a candidate outside its owner unit");
        let key = merge_sorted(&a, &b);
        if self.skip.binary_search(&key).is_ok() {
            return false;
        }
        self.unit_keys.push(key);
        self.stats.candidates += 1;
        if !self.is_maximal(&a, &b) {
            self.stats.nonmaximal += 1;
            return false;
        }
        self.emitted += 1;
        if self.keep {
            let (first, second) = if a[0] < b[0] { (a, b) } else { (b, a) };
            self.out.push(Biclique::new(first, second));
        }
        matches!(self.run.max_bicliques, Some(limit) if self.emitted >= limit)
    }

    /// `true` iff no vertex outside `a ∪ b` can join either side in the
    /// full general graph.
    fn is_maximal(&self, a: &[u32], b: &[u32]) -> bool {
        let g = self.run.g;
        // A vertex joining side `a` must be adjacent to all of `b`, so
        // it lives in N(b[0]); symmetrically for side `b`.
        for &v in g.nbr(b[0]) {
            if a.binary_search(&v).is_ok() || b.binary_search(&v).is_ok() {
                continue;
            }
            if b.iter().all(|&w| g.has_edge(v, w)) && a.iter().all(|&w| !g.has_edge(v, w)) {
                return false;
            }
        }
        for &v in g.nbr(a[0]) {
            if a.binary_search(&v).is_ok() || b.binary_search(&v).is_ok() {
                continue;
            }
            if a.iter().all(|&w| g.has_edge(v, w)) && b.iter().all(|&w| !g.has_edge(v, w)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_assignment_roundtrip() {
        // k = 3: code 0 = all excluded; code 1 = s0 left; code 2 = s0
        // right; code 5 = 2*1 + 1*3 → s0 right, s1 left.
        assert_eq!(decode_assignment(0, 3), (0, 0));
        assert_eq!(decode_assignment(1, 3), (0b001, 0));
        assert_eq!(decode_assignment(2, 3), (0, 0b001));
        assert_eq!(decode_assignment(5, 3), (0b010, 0b001));
        assert_eq!(decode_assignment(26, 3), (0, 0b111));
        for code in 0..3u64.pow(4) {
            let (l, r) = decode_assignment(code, 4);
            assert_eq!(encode_assignment(l, r), code);
        }
    }

    #[test]
    fn merge_sorted_interleaves() {
        assert_eq!(merge_sorted(&[1, 4, 9], &[2, 3, 10]), vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(merge_sorted(&[], &[5]), vec![5]);
    }

    #[test]
    fn single_edge() {
        let g = GeneralGraph::from_edges(2, &[(0, 1)]).unwrap();
        let r = OctEnumeration::new(&g).collect().unwrap();
        assert!(r.is_complete());
        assert_eq!(r.bicliques.len(), 1);
        assert_eq!(r.bicliques[0].left, vec![0]);
        assert_eq!(r.bicliques[0].right, vec![1]);
    }

    #[test]
    fn triangle_has_three_edge_bicliques() {
        let g = GeneralGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let r = OctEnumeration::new(&g).collect().unwrap();
        assert!(r.is_complete());
        assert_eq!(r.stats.oct_size, 1);
        // In a triangle every edge is a maximal induced biclique.
        assert_eq!(r.bicliques.len(), 3);
    }

    #[test]
    fn star_mixes_leaf_classes() {
        // K_{1,3}: bipartite; the unique maximal biclique is the star.
        let g = GeneralGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let r = OctEnumeration::new(&g).collect().unwrap();
        assert_eq!(r.bicliques.len(), 1);
        assert_eq!(r.bicliques[0].left, vec![0]);
        assert_eq!(r.bicliques[0].right, vec![1, 2, 3]);
    }

    #[test]
    fn five_cycle() {
        // C5: OCT size 1; the maximal induced bicliques of C5 are its
        // five paths of length 2 (center + two neighbors) — each P3
        // {center}-{two endpoints} — and no edges (every edge extends).
        let g = GeneralGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let r = OctEnumeration::new(&g).collect().unwrap();
        assert!(r.is_complete());
        assert_eq!(r.bicliques.len(), 5);
        for b in &r.bicliques {
            assert_eq!(b.left.len() + b.right.len(), 3);
        }
    }

    #[test]
    fn transversal_cap_enforced() {
        // K5 needs an OCT of size 3.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in i + 1..5 {
                edges.push((i, j));
            }
        }
        let g = GeneralGraph::from_edges(5, &edges).unwrap();
        match OctEnumeration::new(&g).max_oct(2).collect() {
            Err(OctError::TransversalTooLarge { size, limit: 2 }) => assert!(size >= 3),
            other => panic!("expected TransversalTooLarge, got {other:?}"),
        }
        assert!(OctEnumeration::new(&g).collect().unwrap().is_complete());
    }

    #[test]
    fn count_matches_collect() {
        let g = GeneralGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 4)],
        )
        .unwrap();
        let collected = OctEnumeration::new(&g).collect().unwrap();
        let counted = OctEnumeration::new(&g).count().unwrap();
        assert_eq!(collected.stats.emitted, counted.stats.emitted);
        assert!(counted.bicliques.is_empty());
        assert_eq!(collected.bicliques.len() as u64, collected.stats.emitted);
    }
}
