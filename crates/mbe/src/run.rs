//! The run-control plane: one unified entry point for every enumeration.
//!
//! [`Enumeration`] is a builder that owns the graph, the [`MbeOptions`],
//! optional size [`SizeThresholds`], and a [`RunControl`] — a shareable
//! cancellation flag plus wall-clock deadline and emission/node budgets.
//! Thresholded and top-k runs ("bounded runs") go through the same
//! engines and drivers as every other run, cut by a bound.
//! Every terminal method returns `Result<`[`Report`]`, `[`MbeError`]`>`;
//! a [`Report`] carries the results, the [`Stats`], and a typed
//! [`StopReason`], so partial results from a stopped run are first-class
//! values instead of a silent `false`.
//!
//! ```
//! use bigraph::BipartiteGraph;
//! use mbe::{Enumeration, StopReason};
//!
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap();
//! let report = Enumeration::new(&g).collect().unwrap();
//! assert_eq!(report.stop, StopReason::Completed);
//! assert_eq!(report.bicliques.len(), 2);
//! ```

use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;

use crate::checkpoint::{graph_fingerprint, Checkpoint, CheckpointError, ResumeTask};
use crate::extremal::TopKSink;
use crate::filtered::SizeThresholds;
use crate::metrics::{RunMetrics, Stats};
use crate::obs::{ObsCtx, Observer, RunContext, DEFAULT_SAMPLE_EVERY};
use crate::parallel::{ParOutcome, RunOutcome};
use crate::sink::{Biclique, BicliqueSink, CollectSink, CountSink};
use crate::task::Bound;
use crate::{Algorithm, MbeOptions, MbetConfig};

/// Why an enumeration run ended.
///
/// Everything except [`StopReason::Completed`] describes an early stop;
/// the [`Report`] still carries every biclique emitted up to that point,
/// and the partial set is guaranteed to be a duplicate-free subset of the
/// complete run's output (asserted under the `debug-invariants` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopReason {
    /// The enumeration ran to the end; the result set is complete.
    #[default]
    Completed,
    /// The shared [`RunControl`] cancellation flag was raised.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The `max_emitted` budget was exhausted.
    EmitBudget,
    /// The `max_nodes` budget was exhausted (search-tree nodes for
    /// [`RunControl::max_nodes`], trie nodes for
    /// [`crate::TrieSink::with_node_limit`]).
    NodeBudget,
    /// A user sink returned `ControlFlow::Break` from `emit`.
    SinkStopped,
    /// A worker panicked mid-task; the panicking task's subtree
    /// is *not* in the checkpoint (it may have partially emitted), so a
    /// resume cannot guarantee completeness — the panic surfaces as
    /// [`MbeError::WorkerPanic`] carrying the partial [`Report`].
    WorkerPanicked,
}

impl StopReason {
    /// `true` iff the run finished without stopping early.
    pub fn is_complete(self) -> bool {
        self == StopReason::Completed
    }

    /// Short human-readable label (used by the CLI).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::EmitBudget => "emit-budget",
            StopReason::NodeBudget => "node-budget",
            StopReason::SinkStopped => "sink-stopped",
            StopReason::WorkerPanicked => "worker-panic",
        }
    }

    /// The byte that names this stop reason in `MBCK` checkpoints and on
    /// the serve wire (1–7).
    pub fn encode(self) -> u8 {
        match self {
            StopReason::Completed => 1,
            StopReason::Cancelled => 2,
            StopReason::Deadline => 3,
            StopReason::EmitBudget => 4,
            StopReason::NodeBudget => 5,
            StopReason::SinkStopped => 6,
            StopReason::WorkerPanicked => 7,
        }
    }

    /// Inverse of [`StopReason::encode`]; `None` for a byte no encoder
    /// writes.
    pub fn decode(word: u8) -> Option<StopReason> {
        match word {
            1 => Some(StopReason::Completed),
            2 => Some(StopReason::Cancelled),
            3 => Some(StopReason::Deadline),
            4 => Some(StopReason::EmitBudget),
            5 => Some(StopReason::NodeBudget),
            6 => Some(StopReason::SinkStopped),
            7 => Some(StopReason::WorkerPanicked),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// External control over a running enumeration.
///
/// Cloning a `RunControl` shares the cancellation flag: hand a clone to
/// another thread (or a signal handler) and call [`RunControl::cancel`]
/// there to stop a run in flight. Deadlines and budgets are plain values
/// copied into each run.
///
/// Budget semantics:
/// - `max_emitted` is exact at any thread count: the run stops with
///   [`StopReason::EmitBudget`] after exactly that many bicliques have
///   been forwarded to the sink (fewer if the enumeration finishes
///   first, with [`StopReason::Completed`]).
/// - `max_nodes` is enforced at task boundaries, so a run may overshoot
///   the node budget by the size of the tasks in flight before stopping
///   with [`StopReason::NodeBudget`].
/// - The deadline and the cancellation flag are observed before every
///   emission and in the workers' idle loops, so dense regions that emit
///   frequently stop promptly; an emission-free subtree finishes its task
///   before the stop is observed.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    max_emitted: Option<u64>,
    max_nodes: Option<u64>,
}

impl RunControl {
    /// A control with no limits: never cancels on its own.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline to `dur` from now.
    pub fn timeout(self, dur: Duration) -> Self {
        self.deadline(Instant::now() + dur)
    }

    /// Stops the run after exactly `n` bicliques have been emitted.
    pub fn max_emitted(mut self, n: u64) -> Self {
        self.max_emitted = Some(n);
        self
    }

    /// Stops the run once roughly `n` search-tree nodes have been
    /// expanded (checked at task boundaries).
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Raises the shared cancellation flag. Safe to call from any thread;
    /// every run sharing this control (or a clone of it) stops at its
    /// next check point with [`StopReason::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// `true` iff [`RunControl::cancel`] has been called on this control
    /// or any clone of it.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

/// Shared per-run state derived from a [`RunControl`]: the first stop
/// reason (first writer wins), the emission-token counter backing the
/// exact `max_emitted` budget, and the global expanded-node counter
/// backing `max_nodes`. One instance per run, shared by reference across
/// workers.
pub(crate) struct ControlState<'c> {
    control: &'c RunControl,
    obs: ObsCtx<'c>,
    emit_tokens: AtomicU64,
    nodes: AtomicU64,
    stop: AtomicU8,
}

impl<'c> ControlState<'c> {
    #[cfg(test)]
    fn new(control: &'c RunControl) -> Self {
        ControlState::with_obs(control, ObsCtx::noop())
    }

    /// The state of one run under `control`, firing `on_stop` through
    /// `obs` when a stop reason wins the first-writer race.
    pub(crate) fn with_obs(control: &'c RunControl, obs: ObsCtx<'c>) -> Self {
        ControlState {
            control,
            obs,
            emit_tokens: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            stop: AtomicU8::new(0),
        }
    }

    /// The recorded stop reason, if any stop has been requested.
    pub(crate) fn stopped(&self) -> Option<StopReason> {
        StopReason::decode(self.stop.load(Ordering::SeqCst))
    }

    /// The final reason for a finished run: the recorded stop, or
    /// `Completed` when nothing stopped it.
    pub(crate) fn reason(&self) -> StopReason {
        self.stopped().unwrap_or(StopReason::Completed)
    }

    /// Records `reason` as the run's stop reason unless one is already
    /// recorded; returns the winning (first-recorded) reason either way.
    pub(crate) fn note_stop(&self, reason: StopReason) -> StopReason {
        match self.stop.compare_exchange(0, reason.encode(), Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                // Only the winning writer reports: on_stop fires exactly
                // once per run, with the reason every worker will observe.
                self.obs.stop(reason);
                reason
            }
            Err(prev) => StopReason::decode(prev).unwrap_or(reason),
        }
    }

    /// Per-emission gate: checks the recorded stop, the cancellation
    /// flag, the deadline, and (atomically, so it is exact across
    /// parallel workers) the emission budget.
    pub(crate) fn admit(&self) -> ControlFlow<StopReason> {
        if let Some(r) = self.stopped() {
            return ControlFlow::Break(r);
        }
        if self.control.is_cancelled() {
            return ControlFlow::Break(self.note_stop(StopReason::Cancelled));
        }
        if let Some(at) = self.control.deadline {
            if Instant::now() >= at {
                return ControlFlow::Break(self.note_stop(StopReason::Deadline));
            }
        }
        if let Some(max) = self.control.max_emitted {
            if self.emit_tokens.fetch_add(1, Ordering::SeqCst) >= max {
                return ControlFlow::Break(self.note_stop(StopReason::EmitBudget));
            }
        }
        ControlFlow::Continue(())
    }

    /// Task-boundary gate: adds `nodes_delta` expanded nodes to the
    /// global counter, then checks every passive stop condition (node
    /// budget, cancellation, deadline).
    pub(crate) fn note_task(&self, nodes_delta: u64) -> ControlFlow<StopReason> {
        if let Some(max) = self.control.max_nodes {
            let total = self.nodes.fetch_add(nodes_delta, Ordering::SeqCst) + nodes_delta;
            if total >= max {
                return ControlFlow::Break(self.note_stop(StopReason::NodeBudget));
            }
        } else {
            self.nodes.fetch_add(nodes_delta, Ordering::SeqCst);
        }
        if let Some(r) = self.stopped() {
            return ControlFlow::Break(r);
        }
        if self.control.is_cancelled() {
            return ControlFlow::Break(self.note_stop(StopReason::Cancelled));
        }
        if let Some(at) = self.control.deadline {
            if Instant::now() >= at {
                return ControlFlow::Break(self.note_stop(StopReason::Deadline));
            }
        }
        ControlFlow::Continue(())
    }

    /// Cheap passive check for idle loops (parallel workers between
    /// steals): observes cancellation and the deadline without touching
    /// any budget counter.
    pub(crate) fn check_idle(&self) {
        if self.stopped().is_some() {
            return;
        }
        if self.control.is_cancelled() {
            self.note_stop(StopReason::Cancelled);
        } else if let Some(at) = self.control.deadline {
            if Instant::now() >= at {
                self.note_stop(StopReason::Deadline);
            }
        }
    }
}

/// Internal sink adapter that gates every emission on the shared
/// [`ControlState`] before forwarding to the user sink, and records the
/// user sink's own stop as [`StopReason::SinkStopped`] (or whatever
/// reason the sink returned) in the shared state so parallel workers see
/// it.
pub(crate) struct ControlledSink<'a, S: BicliqueSink> {
    state: &'a ControlState<'a>,
    inner: &'a mut S,
}

impl<'a, S: BicliqueSink> ControlledSink<'a, S> {
    pub(crate) fn new(state: &'a ControlState<'a>, inner: &'a mut S) -> Self {
        ControlledSink { state, inner }
    }
}

impl<S: BicliqueSink> BicliqueSink for ControlledSink<'_, S> {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        self.state.admit()?;
        match self.inner.emit(left, right) {
            ControlFlow::Continue(()) => ControlFlow::Continue(()),
            ControlFlow::Break(r) => ControlFlow::Break(self.state.note_stop(r)),
        }
    }
}

/// Errors from the [`Enumeration`] terminals.
///
/// Early stops are *not* errors — they come back as `Ok(Report)` with a
/// non-`Completed` [`StopReason`]. Errors are configuration or runtime
/// failures that prevented the run from producing a meaningful report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbeError {
    /// The builder was configured inconsistently (message says how).
    InvalidConfig(&'static str),
    /// The pool failed to spawn a worker thread.
    Spawn(String),
    /// A worker panicked outside any task (a spawned worker's join
    /// failed, or the one worker's loop unwound), so its state could not
    /// be recovered; results would be incomplete.
    WorkerPanicked,
    /// A worker panicked *inside a task*; the panic was contained and
    /// the run drained cleanly. `report` is a valid partial report (its
    /// `stop` is [`StopReason::WorkerPanicked`]) whose checkpoint covers
    /// every task *except* the one that panicked — `task` names it.
    WorkerPanic {
        /// Short description of the task that panicked (internal ids).
        task: String,
        /// The panic payload, when it was a string.
        payload: String,
        /// The partial report: everything emitted before the panic plus
        /// the checkpoint of the surviving frontier.
        report: Box<Report>,
    },
    /// A checkpoint could not be read, validated, or matched to the
    /// graph being resumed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for MbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbeError::InvalidConfig(msg) => write!(f, "invalid enumeration config: {msg}"),
            MbeError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            MbeError::WorkerPanicked => f.write_str("a worker thread panicked"),
            MbeError::WorkerPanic { task, payload, report } => write!(
                f,
                "worker panicked in {task}: {payload} \
                 (partial report: {} bicliques emitted before the panic)",
                report.stats.emitted
            ),
            MbeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for MbeError {}

impl From<CheckpointError> for MbeError {
    fn from(e: CheckpointError) -> Self {
        MbeError::Checkpoint(e)
    }
}

/// The outcome of an enumeration run: results, stats, and why it ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Collected bicliques (empty for counting terminals).
    pub bicliques: Vec<Biclique>,
    /// Enumeration statistics. For a stopped run these describe the work
    /// done up to the stop; the `nodes = emitted + nonmaximal +
    /// undersized` identity only holds for completed runs.
    pub stats: Stats,
    /// Why the run ended.
    pub stop: StopReason,
    /// The resumable frontier of a stopped run: `Some` whenever `stop`
    /// is not [`StopReason::Completed`] (except for thresholded and top-k
    /// runs, which are not checkpointable). Feed it back through
    /// [`Enumeration::resume`] — or serialize it with
    /// [`Checkpoint::to_bytes`] / [`Checkpoint::save`] — to continue the
    /// run later: the resumed output and this run's output are disjoint
    /// and together equal the complete run's output.
    pub checkpoint: Option<Checkpoint>,
    /// Per-worker telemetry (histograms, steal/idle counters) for this
    /// run segment; see [`RunMetrics`]. Populated by every terminal,
    /// thresholded and top-k runs included.
    pub metrics: RunMetrics,
}

impl Report {
    /// `true` iff the run finished without stopping early.
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete()
    }

    /// Number of bicliques forwarded to the sink (equals
    /// `bicliques.len()` for collecting terminals).
    pub fn count(&self) -> u64 {
        self.stats.emitted
    }
}

/// Builder for one enumeration run — the single entry point that
/// replaces the old `enumerate` / `collect_bicliques` / `count_bicliques`
/// / `par_*` function family.
///
/// Configure the run with the chained setters, then finish with one of
/// the terminals: [`collect`](Enumeration::collect) (bicliques in a
/// `Report`), [`count`](Enumeration::count) (count only),
/// [`run`](Enumeration::run) (stream into your own sink on one worker),
/// [`run_per_worker`](Enumeration::run_per_worker) (one sink per
/// worker), or [`top_k`](Enumeration::top_k) (the `k` bicliques with the
/// most edges).
///
/// Every terminal runs on the one driver, the pool of
/// [`crate::parallel`]. Threading follows `MbeOptions::threads`: `1`
/// (the default) runs one worker on the calling thread, in root order,
/// `0` uses one worker per core, `n > 1` uses `n` workers.
///
/// ```
/// use bigraph::BipartiteGraph;
/// use mbe::{Enumeration, StopReason};
///
/// let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
/// // A budget of 0 bicliques stops immediately with EmitBudget.
/// let report = Enumeration::new(&g).max_bicliques(0).collect().unwrap();
/// assert_eq!(report.stop, StopReason::EmitBudget);
/// assert!(report.bicliques.is_empty());
/// ```
pub struct Enumeration<'g> {
    g: &'g BipartiteGraph,
    /// `g` peeled in place to the thresholds' core, when thresholded.
    core: Option<BipartiteGraph>,
    opts: MbeOptions,
    control: RunControl,
    thresholds: Option<SizeThresholds>,
    resume: Option<Checkpoint>,
    observer: Option<&'g dyn Observer>,
    sample_every: u64,
    #[cfg(feature = "fault-injection")]
    faults: Option<crate::faults::FaultPlan>,
}

impl<'g> Enumeration<'g> {
    /// A run over `g` with default options (MBET, serial) and no limits.
    pub fn new(g: &'g BipartiteGraph) -> Self {
        Enumeration {
            g,
            core: None,
            opts: MbeOptions::default(),
            control: RunControl::new(),
            thresholds: None,
            resume: None,
            observer: None,
            sample_every: DEFAULT_SAMPLE_EVERY,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// Replaces the whole option set.
    pub fn options(mut self, opts: MbeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Selects the engine.
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.opts.algorithm = alg;
        self
    }

    /// Sets the vertex order applied before enumeration.
    pub fn order(mut self, order: VertexOrder) -> Self {
        self.opts.order = order;
        self
    }

    /// Sets the worker-thread count (`1` serial, `0` all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Sets the MBET feature toggles.
    pub fn mbet(mut self, cfg: MbetConfig) -> Self {
        self.opts.mbet = cfg;
        self
    }

    /// Restricts output to bicliques with `|L| >= min_l` and
    /// `|R| >= min_r`. Peels the graph to its `(min_r, min_l)`-core in
    /// place here; every terminal then runs the configured engine and
    /// driver with the thresholds as a bound (see [`crate::filtered`]).
    /// Thresholded runs are not checkpointable: resume is refused and
    /// [`Report::checkpoint`] stays `None`.
    pub fn thresholds(mut self, thr: SizeThresholds) -> Self {
        self.core = Some(crate::filtered::peel_core(self.g, thr));
        self.thresholds = Some(thr);
        self
    }

    /// Replaces the whole run control.
    pub fn control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Stops the run `dur` from now with [`StopReason::Deadline`].
    pub fn timeout(mut self, dur: Duration) -> Self {
        self.control = self.control.timeout(dur);
        self
    }

    /// Stops the run after exactly `n` emissions with
    /// [`StopReason::EmitBudget`].
    pub fn max_bicliques(mut self, n: u64) -> Self {
        self.control = self.control.max_emitted(n);
        self
    }

    /// Stops the run once roughly `n` search-tree nodes have been
    /// expanded, with [`StopReason::NodeBudget`].
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.control = self.control.max_nodes(n);
        self
    }

    /// A clone of this run's [`RunControl`]: hand it to another thread
    /// and call [`RunControl::cancel`] to stop the run in flight.
    pub fn control_handle(&self) -> RunControl {
        self.control.clone()
    }

    /// Attaches an [`Observer`] whose hooks fire throughout the run (at
    /// any thread count). Without one, the hook sites reduce to a null
    /// check — see the hot-path contract in [`crate::obs`].
    pub fn observer(mut self, obs: &'g dyn Observer) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Sets the emission-sampling cadence for
    /// [`Observer::on_emit_sample`] (per worker, in delivered emissions;
    /// clamped to at least 1). Defaults to
    /// [`DEFAULT_SAMPLE_EVERY`].
    pub fn sample_every(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// The observer context the driver threads around.
    fn obs_ctx(&self) -> ObsCtx<'g> {
        ObsCtx::new(self.observer, self.sample_every)
    }

    /// Fires `on_run_start` with this run's configuration.
    fn note_run_start(&self, obs: &ObsCtx<'g>) {
        obs.run_start(&RunContext {
            algorithm: self.opts.algorithm,
            threads: self.opts.threads,
            resumed: self.resume.is_some(),
        });
    }

    /// Fires `on_checkpoint` (when the report carries one) and
    /// `on_run_end` — the common run epilogue, also used on the
    /// contained-panic error path so trace observers always flush.
    fn note_run_end(obs: &ObsCtx<'g>, report: &Report) {
        if let Some(ck) = &report.checkpoint {
            obs.checkpoint(ck.frontier.len() as u64, ck.emitted);
        }
        obs.run_end(report.stop, &report.stats);
    }

    /// Continues a previously stopped run from its checkpoint instead of
    /// starting from the root.
    ///
    /// The checkpoint pins the result-affecting options — algorithm,
    /// vertex order, and MBET toggles are copied from it, and mutating
    /// them afterwards is rejected at the terminal. Thread count and
    /// splitting thresholds remain free: they redistribute work without
    /// changing the emitted set. The terminal validates that the graph's
    /// fingerprint matches the checkpoint
    /// ([`MbeError::Checkpoint`] otherwise).
    ///
    /// Guarantee: the resumed run's emissions are disjoint from the
    /// stopped run's, and (when the resumed run itself completes) their
    /// union is exactly the complete run's output.
    pub fn resume(mut self, ckpt: Checkpoint) -> Self {
        self.opts.algorithm = ckpt.algorithm;
        self.opts.order = ckpt.order;
        self.opts.mbet = ckpt.mbet;
        self.resume = Some(ckpt);
        self
    }

    /// `true` once [`Enumeration::resume`] has set a checkpoint.
    pub(crate) fn is_resumed(&self) -> bool {
        self.resume.is_some()
    }

    /// Injects deterministic faults (scripted sink errors / panics) into
    /// this run — test-only machinery behind the `fault-injection`
    /// feature; see [`crate::faults`].
    #[cfg(feature = "fault-injection")]
    pub fn faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Resume-specific validation, run by every terminal that honors
    /// checkpoints: thresholded runs cannot resume, the pinned options
    /// must not have been mutated after [`Enumeration::resume`], and the
    /// graph must fingerprint-match the checkpoint.
    fn validate_resume(&self) -> Result<(), MbeError> {
        let Some(ckpt) = &self.resume else {
            return Ok(());
        };
        if self.thresholds.is_some() {
            return Err(MbeError::InvalidConfig(
                "size-thresholded runs are not checkpointable and cannot be resumed",
            ));
        }
        if self.opts.algorithm != ckpt.algorithm
            || self.opts.order != ckpt.order
            || self.opts.mbet != ckpt.mbet
        {
            return Err(MbeError::InvalidConfig(
                "resume pins the checkpoint's algorithm, order, and mbet toggles; \
                 only threads and splitting may change",
            ));
        }
        ckpt.matches(self.g)?;
        Ok(())
    }

    /// Builds the `Report::checkpoint` for a finished segment run with
    /// `opts`: `None` when the run completed or was bounded, otherwise
    /// the captured frontier plus a cumulative emitted count
    /// (checkpoints chain across resumes).
    fn make_checkpoint(
        &self,
        opts: &MbeOptions,
        stop: StopReason,
        emitted_now: u64,
        frontier: Vec<ResumeTask>,
    ) -> Option<Checkpoint> {
        if stop.is_complete() || self.thresholds.is_some() || opts.bound.is_top_k() {
            return None;
        }
        Some(Checkpoint {
            fingerprint: self
                .resume
                .as_ref()
                .map_or_else(|| graph_fingerprint(self.g), |c| c.fingerprint),
            algorithm: self.opts.algorithm,
            order: self.opts.order,
            mbet: self.opts.mbet,
            emitted: self.resume.as_ref().map_or(0, |c| c.emitted) + emitted_now,
            stop,
            frontier,
        })
    }

    /// The graph the driver runs on: the peeled core when thresholded.
    fn graph(&self) -> &BipartiteGraph {
        self.core.as_ref().unwrap_or(self.g)
    }

    /// The options the driver runs with: the builder's, cut by the
    /// thresholds and, for a top-k run, the shared incumbent `theta`.
    fn bounded_opts(&self, theta: Option<Arc<AtomicUsize>>) -> MbeOptions {
        MbeOptions { bound: Bound::new(self.thresholds, theta), ..self.opts.clone() }
    }

    /// The checkpointed frontier this run resumes, if any.
    fn resume_tasks(&self) -> Option<&[ResumeTask]> {
        self.resume.as_ref().map(|c| c.frontier.as_slice())
    }

    /// Runs the segment with `opts` on the pool, one sink per worker.
    fn drive<S, F>(&self, opts: &MbeOptions, make_sink: F) -> Result<ParOutcome<S>, MbeError>
    where
        S: BicliqueSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        crate::parallel::par_run(
            self.graph(),
            opts,
            &self.control,
            self.resume_tasks(),
            self.obs_ctx(),
            make_sink,
        )
    }

    /// The report of a finished segment run with `opts`. Fires the
    /// run-end hooks; a contained worker panic comes back as
    /// [`MbeError::WorkerPanic`] carrying the partial report (trace
    /// observers still see `run_end`, with the `WorkerPanicked` stop).
    fn finish(
        &self,
        obs: &ObsCtx<'g>,
        opts: &MbeOptions,
        bicliques: Vec<Biclique>,
        out: RunOutcome,
    ) -> Result<Report, MbeError> {
        let checkpoint = self.make_checkpoint(opts, out.stop, out.stats.emitted, out.frontier);
        let report = Report {
            bicliques,
            stats: out.stats,
            stop: out.stop,
            checkpoint,
            metrics: out.metrics,
        };
        Self::note_run_end(obs, &report);
        match out.panic {
            Some(p) => Err(MbeError::WorkerPanic {
                task: p.task,
                payload: p.payload,
                report: Box::new(report),
            }),
            None => Ok(report),
        }
    }

    /// Runs and collects every emitted biclique into the report.
    pub fn collect(self) -> Result<Report, MbeError> {
        self.validate_resume()?;
        let obs = self.obs_ctx();
        self.note_run_start(&obs);
        let opts = self.bounded_opts(None);
        let par = self.drive(&opts, |_| {
            #[cfg(feature = "fault-injection")]
            {
                crate::faults::FaultySink::new(self.faults.clone(), CollectSink::new())
            }
            #[cfg(not(feature = "fault-injection"))]
            {
                CollectSink::new()
            }
        })?;
        let mut per_worker = par.sinks.into_iter().map(|s| {
            #[cfg(feature = "fault-injection")]
            let s = s.into_inner();
            s.into_vec()
        });
        // The first (for one worker, only) sink's vector is kept as is,
        // so a one-worker run never copies its output.
        let mut bicliques = per_worker.next().unwrap_or_default();
        per_worker.for_each(|more| bicliques.extend(more));
        let report = self.finish(&obs, &opts, bicliques, par.out)?;
        crate::invariants::check_stopped_collect(
            self.g,
            &self.opts,
            self.thresholds,
            &report.bicliques,
            report.stop,
            // The emitted ∪ resumed = complete equality only makes sense
            // for a first segment; a resumed segment is missing whatever
            // earlier segments emitted.
            if self.resume.is_none() { report.checkpoint.as_ref() } else { None },
        );
        Ok(report)
    }

    /// Runs and counts emissions without storing them
    /// ([`Report::bicliques`] stays empty; use [`Report::count`]).
    pub fn count(self) -> Result<Report, MbeError> {
        self.validate_resume()?;
        let obs = self.obs_ctx();
        self.note_run_start(&obs);
        let opts = self.bounded_opts(None);
        let par = self.drive(&opts, |_| CountSink::default())?;
        self.finish(&obs, &opts, Vec::new(), par.out)
    }

    /// Streams every emission into `sink` on one worker, on the calling
    /// thread (regardless of `threads` — a single sink cannot be shared
    /// across workers; use [`run_per_worker`](Enumeration::run_per_worker)
    /// for that), so `sink` need not be `Send`. The report's `bicliques`
    /// stay empty; the sink holds the results.
    pub fn run<S: BicliqueSink>(self, sink: &mut S) -> Result<Report, MbeError> {
        self.validate_resume()?;
        let obs = self.obs_ctx();
        self.note_run_start(&obs);
        let opts = self.bounded_opts(None);
        let out = crate::parallel::run_one(
            self.graph(),
            &opts,
            &self.control,
            self.resume_tasks(),
            obs,
            sink,
        )?;
        self.finish(&obs, &opts, Vec::new(), out)
    }

    /// Runs with one sink per worker (built by `make_sink(worker_index)`),
    /// returning the sinks alongside the report. Respects `threads` (`0`
    /// = all cores); `threads == 1` builds the one sink of the one worker.
    ///
    /// A contained worker panic returns [`MbeError::WorkerPanic`]; the
    /// per-worker sinks are dropped in that case (the error's report
    /// still carries the stats and the checkpoint).
    pub fn run_per_worker<S, F>(self, make_sink: F) -> Result<(Vec<S>, Report), MbeError>
    where
        S: BicliqueSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        self.validate_resume()?;
        let obs = self.obs_ctx();
        self.note_run_start(&obs);
        let opts = self.bounded_opts(None);
        let par = self.drive(&opts, make_sink)?;
        let report = self.finish(&obs, &opts, Vec::new(), par.out)?;
        Ok((par.sinks, report))
    }

    /// Runs a top-k search: [`Report::bicliques`] holds the `k` maximal
    /// bicliques with the most edges (`|L|·|R|`), best first; ties are
    /// broken arbitrarily. The run cuts every subtree that cannot beat
    /// θ, the k-th best edge count found so far, shared by all workers
    /// (see [`crate::extremal`]). It composes with the thresholds, the
    /// thread count and the run control: a stopped search returns its
    /// best-so-far incumbents, which are genuine maximal bicliques but
    /// may rank below the true top-k. Top-k runs are not checkpointable;
    /// resuming one is refused. `k = 0` returns an empty report without
    /// running.
    pub fn top_k(self, k: usize) -> Result<Report, MbeError> {
        if self.resume.is_some() {
            return Err(MbeError::InvalidConfig(
                "top-k runs are not checkpointable and cannot be resumed",
            ));
        }
        if k == 0 {
            return Ok(Report::default());
        }
        let obs = self.obs_ctx();
        self.note_run_start(&obs);
        let theta = Arc::new(AtomicUsize::new(0));
        let opts = self.bounded_opts(Some(Arc::clone(&theta)));
        let par = self.drive(&opts, |_| TopKSink::new(k, Arc::clone(&theta)))?;
        let bicliques = crate::extremal::merge_top_k(k, par.sinks);
        self.finish(&obs, &opts, bicliques, par.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_graph() -> BipartiteGraph {
        // A 2x2 complete block plus a pendant edge: 2 maximal bicliques.
        BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap()
    }

    #[test]
    fn stop_reason_roundtrip_and_labels() {
        let all = [
            StopReason::Completed,
            StopReason::Cancelled,
            StopReason::Deadline,
            StopReason::EmitBudget,
            StopReason::NodeBudget,
            StopReason::SinkStopped,
            StopReason::WorkerPanicked,
        ];
        let labels: std::collections::HashSet<_> = all.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), all.len());
        for r in all {
            assert_eq!(StopReason::decode(r.encode()), Some(r));
        }
        assert_eq!(StopReason::decode(0), None);
        assert!(StopReason::Completed.is_complete());
        assert!(!StopReason::Cancelled.is_complete());
    }

    #[test]
    fn control_state_first_stop_wins() {
        let control = RunControl::new();
        let state = ControlState::new(&control);
        assert_eq!(state.reason(), StopReason::Completed);
        assert_eq!(state.note_stop(StopReason::Deadline), StopReason::Deadline);
        assert_eq!(state.note_stop(StopReason::Cancelled), StopReason::Deadline);
        assert_eq!(state.reason(), StopReason::Deadline);
    }

    #[test]
    fn admit_enforces_exact_emit_budget() {
        let control = RunControl::new().max_emitted(3);
        let state = ControlState::new(&control);
        for _ in 0..3 {
            assert!(state.admit().is_continue());
        }
        assert_eq!(state.admit(), ControlFlow::Break(StopReason::EmitBudget));
        // Sticky after the first break.
        assert_eq!(state.admit(), ControlFlow::Break(StopReason::EmitBudget));
    }

    #[test]
    fn admit_observes_cancellation_and_deadline() {
        let control = RunControl::new();
        let shared = control.clone();
        let state = ControlState::new(&control);
        assert!(state.admit().is_continue());
        shared.cancel();
        assert_eq!(state.admit(), ControlFlow::Break(StopReason::Cancelled));

        let expired = RunControl::new().deadline(Instant::now() - Duration::from_millis(1));
        let state = ControlState::new(&expired);
        assert_eq!(state.admit(), ControlFlow::Break(StopReason::Deadline));
    }

    #[test]
    fn note_task_enforces_node_budget() {
        let control = RunControl::new().max_nodes(10);
        let state = ControlState::new(&control);
        assert!(state.note_task(9).is_continue());
        assert_eq!(state.note_task(1), ControlFlow::Break(StopReason::NodeBudget));
    }

    #[test]
    fn builder_collect_completes() {
        let g = block_graph();
        let report = Enumeration::new(&g).collect().unwrap();
        assert!(report.is_complete());
        assert_eq!(report.bicliques.len(), 2);
        assert_eq!(report.count(), 2);
    }

    #[test]
    fn builder_count_matches_collect() {
        let g = block_graph();
        let collected = Enumeration::new(&g).collect().unwrap();
        let counted = Enumeration::new(&g).count().unwrap();
        assert_eq!(counted.count(), collected.bicliques.len() as u64);
        assert!(counted.bicliques.is_empty());
    }

    #[test]
    fn emit_budget_is_exact_serial() {
        let g = block_graph();
        let report = Enumeration::new(&g).max_bicliques(1).collect().unwrap();
        assert_eq!(report.stop, StopReason::EmitBudget);
        assert_eq!(report.bicliques.len(), 1);
    }

    #[test]
    fn budget_larger_than_output_completes() {
        let g = block_graph();
        let report = Enumeration::new(&g).max_bicliques(100).collect().unwrap();
        assert_eq!(report.stop, StopReason::Completed);
        assert_eq!(report.bicliques.len(), 2);
    }

    #[test]
    fn pre_cancelled_run_emits_nothing() {
        let g = block_graph();
        let control = RunControl::new();
        control.cancel();
        let report = Enumeration::new(&g).control(control).collect().unwrap();
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.bicliques.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = MbeError::InvalidConfig("nope");
        assert!(e.to_string().contains("nope"));
        assert!(MbeError::Spawn("io".into()).to_string().contains("io"));
        let _ = MbeError::WorkerPanicked.to_string();
        let wp = MbeError::WorkerPanic {
            task: "node task v=3".into(),
            payload: "boom".into(),
            report: Box::new(Report::default()),
        };
        assert!(wp.to_string().contains("node task v=3"));
        assert!(wp.to_string().contains("boom"));
        let ce = MbeError::from(CheckpointError::BadMagic);
        assert!(ce.to_string().contains("magic"));
    }

    #[test]
    fn resume_rejects_mutated_options_and_foreign_graph() {
        let g = block_graph();
        let report = Enumeration::new(&g).max_bicliques(1).collect().unwrap();
        let ckpt = report.checkpoint.expect("stopped run must carry a checkpoint");

        // Mutating a pinned option after resume() is rejected.
        let err = Enumeration::new(&g)
            .resume(ckpt.clone())
            .algorithm(Algorithm::Mbea)
            .collect()
            .unwrap_err();
        assert!(matches!(err, MbeError::InvalidConfig(_)));

        // Resuming against a different graph is rejected.
        let other = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let err = Enumeration::new(&other).resume(ckpt.clone()).collect().unwrap_err();
        assert!(matches!(err, MbeError::Checkpoint(CheckpointError::GraphMismatch { .. })));

        // Thresholds and resume don't mix.
        let err = Enumeration::new(&g)
            .resume(ckpt)
            .thresholds(SizeThresholds::new(1, 1))
            .collect()
            .unwrap_err();
        assert!(matches!(err, MbeError::InvalidConfig(_)));
    }

    #[test]
    fn stopped_then_resumed_equals_complete_serial() {
        let g = block_graph();
        let complete = Enumeration::new(&g).collect().unwrap();
        let stopped = Enumeration::new(&g).max_bicliques(1).collect().unwrap();
        let ckpt = stopped.checkpoint.clone().expect("checkpoint");
        assert_eq!(ckpt.emitted, stopped.bicliques.len() as u64);
        let resumed = Enumeration::new(&g).resume(ckpt).collect().unwrap();
        assert!(resumed.is_complete());
        assert!(resumed.checkpoint.is_none());
        let mut union: Vec<_> =
            stopped.bicliques.iter().chain(resumed.bicliques.iter()).cloned().collect();
        union.sort();
        union.dedup();
        assert_eq!(union.len(), stopped.bicliques.len() + resumed.bicliques.len());
        let mut want = complete.bicliques;
        want.sort();
        assert_eq!(union, want);
    }

    #[test]
    fn completed_run_has_no_checkpoint() {
        let g = block_graph();
        let report = Enumeration::new(&g).collect().unwrap();
        assert!(report.checkpoint.is_none());
    }
}
