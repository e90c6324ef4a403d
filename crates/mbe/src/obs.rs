//! Run telemetry: observer hooks, trace export, and emission sampling.
//!
//! Long enumerations are black boxes without instrumentation: the flat
//! end-of-run [`Stats`] cannot say *where* a parallel run spent its time,
//! which workers starved, or how task latency was distributed. This
//! module is the zero-dependency observability layer both drivers report
//! through:
//!
//! * [`Observer`] — a trait of hook points (run/segment start+end, task
//!   start/finish with duration and per-task counters, worker
//!   steal/idle transitions, periodic emission samples, stop-reason
//!   resolution, checkpoint capture). Every hook has a no-op default.
//! * [`JsonlTraceObserver`] — writes one hand-rolled JSON object per
//!   event (schema [`TRACE_SCHEMA_VERSION`]) so runs can be replayed and
//!   diffed offline; validated by `cargo run -p xtask -- trace-check`.
//!   Its lines go through [`JsonLines`], the one JSONL writer, which the
//!   serve coordinator's span log shares.
//! * [`FanoutObserver`] — composes several observers into one.
//!
//! # Hot-path contract
//!
//! Observers are threaded through the drivers as an `Option<&dyn
//! Observer>`: with no observer attached the per-task cost is a single
//! predictable null check, and **no hook allocates on the caller's
//! behalf** — every payload ([`TaskInfo`], [`TaskDelta`], …) is a stack
//! value borrowing driver state. Hook implementations must honor the
//! same contract on the emission path (`on_emit_sample` fires inside the
//! sink chain): do bounded work, never block on I/O per event.
//! [`JsonlTraceObserver`] complies by buffering through one reusable
//! `String` behind a mutex and flushing only at run end. Emission
//! sampling is decimated driver-side (default every
//! [`DEFAULT_SAMPLE_EVERY`] delivered emissions, configurable via
//! [`crate::Enumeration::sample_every`]), so the per-emission cost is an
//! increment and a divisibility test.
//!
//! Hooks observing shared progress (`on_stop`, `on_emit_sample`,
//! per-worker task hooks) may be called concurrently from different
//! workers; [`Observer`] therefore requires [`Sync`] and takes `&self`.

use std::io::Write as _;
use std::ops::ControlFlow;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::Stats;
use crate::run::StopReason;
use crate::sink::BicliqueSink;
use crate::Algorithm;

/// Version of the JSONL trace event schema emitted by
/// [`JsonlTraceObserver`] (the `"v"` field of every line). Bump on any
/// incompatible change and document the delta in DESIGN.md §8.
///
/// v2 (over v1): the `run_start` header line gains a mandatory
/// `"anchor"` field — wall-clock UNIX-epoch microseconds captured at
/// observer creation — so run-relative `t_us` timestamps from
/// different processes can be aligned on one wall-clock axis; it also
/// gains optional `"trace"`/`"parent"` fields carrying a distributed
/// trace context (see [`JsonlTraceObserver::set_trace_context`]). All
/// other events are unchanged; validators keep accepting v1.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Default emission-sampling cadence: `on_emit_sample` fires once per
/// this many delivered emissions per worker.
pub const DEFAULT_SAMPLE_EVERY: u64 = 1024;

/// Context handed to [`Observer::on_run_start`]: what the run was
/// configured to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunContext {
    /// The engine the run uses.
    pub algorithm: Algorithm,
    /// Configured worker count (`1` serial, `0` = all cores, pre-resolution).
    pub threads: usize,
    /// `true` when the run replays a checkpointed frontier.
    pub resumed: bool,
}

/// Which driver a segment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// The in-order serial driver.
    Serial,
    /// The work-stealing parallel driver.
    Parallel,
}

impl DriverKind {
    /// Short label used in traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            DriverKind::Serial => "serial",
            DriverKind::Parallel => "parallel",
        }
    }
}

/// Context handed to [`Observer::on_segment_start`]: one driver
/// invocation (a fresh run and each resumed continuation are segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The driver this segment runs on.
    pub driver: DriverKind,
    /// Resolved worker count (always `1` for the serial driver).
    pub workers: usize,
    /// Tasks seeded into the pool (root sweep or checkpointed frontier).
    pub seeded_tasks: u64,
    /// `true` when the segment replays a checkpointed frontier.
    pub resumed: bool,
}

/// What kind of task a worker picked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A per-root-vertex task (the whole subtree of one right vertex).
    Root,
    /// A checkpointed or split-off interior node replayed as a task.
    Node,
    /// A root or node task whose first node ran in split mode on its
    /// engine: expanded as in a serial run, with each child it would
    /// have recursed into queued as a `Node` task instead.
    Split,
}

impl TaskKind {
    /// Short label used in traces.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Root => "root",
            TaskKind::Node => "node",
            TaskKind::Split => "split",
        }
    }
}

/// Identity of one unit of work, handed to the task hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInfo {
    /// The task's defining right vertex (internal, post-ordering id).
    pub v: u32,
    /// What kind of task it is.
    pub kind: TaskKind,
}

/// Per-task counter deltas handed to [`Observer::on_task_finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskDelta {
    /// Enumeration nodes the task expanded.
    pub nodes: u64,
    /// Bicliques the task delivered to the sink.
    pub emitted: u64,
    /// Deepest recursion the task reached (0 for a split task, which
    /// expands only its first node, and for a panicked task).
    pub depth: u64,
}

/// Hook points every enumeration run reports through.
///
/// All hooks default to no-ops, so implementors override only what they
/// need. Hooks may be invoked concurrently from multiple workers (hence
/// the [`Sync`] supertrait and `&self` receivers); per-worker hooks
/// carry the worker index. See the module docs for the hot-path
/// contract implementations must honor.
pub trait Observer: Sync {
    /// The run is about to start (fired once per terminal call).
    fn on_run_start(&self, _ctx: &RunContext) {}
    /// The run finished; `stats` is the merged final count set. Fired on
    /// every exit path, including a contained worker panic — trace
    /// observers flush here.
    fn on_run_end(&self, _stop: StopReason, _stats: &Stats) {}
    /// A driver segment is about to start.
    fn on_segment_start(&self, _seg: &SegmentInfo) {}
    /// The segment finished with `stop`; `stats` covers this segment.
    fn on_segment_end(&self, _stop: StopReason, _stats: &Stats) {}
    /// Worker `worker` picked up `task`.
    fn on_task_start(&self, _worker: usize, _task: &TaskInfo) {}
    /// Worker `worker` finished `task` in `elapsed`, moving the counters
    /// by `delta`. Not fired for a task that panicked (the run ends with
    /// [`StopReason::WorkerPanicked`] instead).
    fn on_task_finish(
        &self,
        _worker: usize,
        _task: &TaskInfo,
        _elapsed: Duration,
        _delta: &TaskDelta,
    ) {
    }
    /// Worker `worker` obtained its task by stealing from a peer.
    fn on_steal(&self, _worker: usize) {}
    /// Worker `worker` found no work and is entering its idle loop.
    fn on_idle(&self, _worker: usize) {}
    /// Worker `worker` has delivered `emitted` bicliques so far (fired
    /// once per sampling interval, see [`DEFAULT_SAMPLE_EVERY`]).
    fn on_emit_sample(&self, _worker: usize, _emitted: u64) {}
    /// A stop reason was recorded as the run's first (winning) stop.
    fn on_stop(&self, _reason: StopReason) {}
    /// A stopped run captured a resumable checkpoint covering `tasks`
    /// frontier tasks after `emitted` cumulative emissions.
    fn on_checkpoint(&self, _tasks: u64, _emitted: u64) {}
}

/// The do-nothing observer: the default when none is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// A shared reference to an observer is itself an observer, so callers
/// can compose a [`FanoutObserver`] from borrowed observers and still
/// reach them afterwards (e.g. [`JsonlTraceObserver::take_error`]).
impl<O: Observer + ?Sized> Observer for &O {
    fn on_run_start(&self, ctx: &RunContext) {
        (**self).on_run_start(ctx);
    }
    fn on_run_end(&self, stop: StopReason, stats: &Stats) {
        (**self).on_run_end(stop, stats);
    }
    fn on_segment_start(&self, seg: &SegmentInfo) {
        (**self).on_segment_start(seg);
    }
    fn on_segment_end(&self, stop: StopReason, stats: &Stats) {
        (**self).on_segment_end(stop, stats);
    }
    fn on_task_start(&self, worker: usize, task: &TaskInfo) {
        (**self).on_task_start(worker, task);
    }
    fn on_task_finish(&self, worker: usize, task: &TaskInfo, elapsed: Duration, delta: &TaskDelta) {
        (**self).on_task_finish(worker, task, elapsed, delta);
    }
    fn on_steal(&self, worker: usize) {
        (**self).on_steal(worker);
    }
    fn on_idle(&self, worker: usize) {
        (**self).on_idle(worker);
    }
    fn on_emit_sample(&self, worker: usize, emitted: u64) {
        (**self).on_emit_sample(worker, emitted);
    }
    fn on_stop(&self, reason: StopReason) {
        (**self).on_stop(reason);
    }
    fn on_checkpoint(&self, tasks: u64, emitted: u64) {
        (**self).on_checkpoint(tasks, emitted);
    }
}

/// Fans every hook out to a list of observers, in push order.
///
/// The CLI uses this to combine `--trace` and `--progress` into the one
/// observer slot of [`crate::Enumeration::observer`]. The `'a` lifetime
/// lets it hold borrowed observers (boxed `&O`, see the reference
/// `impl`), so the caller keeps access to them after the run.
#[derive(Default)]
pub struct FanoutObserver<'a> {
    observers: Vec<Box<dyn Observer + Send + 'a>>,
}

impl<'a> FanoutObserver<'a> {
    /// An empty fanout (all hooks no-op until observers are pushed).
    pub fn new() -> Self {
        FanoutObserver::default()
    }

    /// Appends an observer; hooks fire in push order.
    pub fn push(&mut self, obs: Box<dyn Observer + Send + 'a>) {
        self.observers.push(obs);
    }

    /// Number of composed observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// `true` iff no observers are composed.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for FanoutObserver<'_> {
    fn on_run_start(&self, ctx: &RunContext) {
        for o in &self.observers {
            o.on_run_start(ctx);
        }
    }
    fn on_run_end(&self, stop: StopReason, stats: &Stats) {
        for o in &self.observers {
            o.on_run_end(stop, stats);
        }
    }
    fn on_segment_start(&self, seg: &SegmentInfo) {
        for o in &self.observers {
            o.on_segment_start(seg);
        }
    }
    fn on_segment_end(&self, stop: StopReason, stats: &Stats) {
        for o in &self.observers {
            o.on_segment_end(stop, stats);
        }
    }
    fn on_task_start(&self, worker: usize, task: &TaskInfo) {
        for o in &self.observers {
            o.on_task_start(worker, task);
        }
    }
    fn on_task_finish(&self, worker: usize, task: &TaskInfo, elapsed: Duration, delta: &TaskDelta) {
        for o in &self.observers {
            o.on_task_finish(worker, task, elapsed, delta);
        }
    }
    fn on_steal(&self, worker: usize) {
        for o in &self.observers {
            o.on_steal(worker);
        }
    }
    fn on_idle(&self, worker: usize) {
        for o in &self.observers {
            o.on_idle(worker);
        }
    }
    fn on_emit_sample(&self, worker: usize, emitted: u64) {
        for o in &self.observers {
            o.on_emit_sample(worker, emitted);
        }
    }
    fn on_stop(&self, reason: StopReason) {
        for o in &self.observers {
            o.on_stop(reason);
        }
    }
    fn on_checkpoint(&self, tasks: u64, emitted: u64) {
        for o in &self.observers {
            o.on_checkpoint(tasks, emitted);
        }
    }
}

/// The per-worker observer context the drivers thread around: the
/// optional observer, the sampling cadence, and this worker's index.
/// `Copy`, two words wide, and a no-op when no observer is attached.
#[derive(Clone, Copy)]
pub(crate) struct ObsCtx<'a> {
    obs: Option<&'a dyn Observer>,
    pub(crate) every: u64,
    pub(crate) worker: usize,
}

impl<'a> ObsCtx<'a> {
    pub(crate) fn new(obs: Option<&'a dyn Observer>, every: u64) -> Self {
        ObsCtx { obs, every: every.max(1), worker: 0 }
    }

    pub(crate) fn noop() -> Self {
        ObsCtx { obs: None, every: DEFAULT_SAMPLE_EVERY, worker: 0 }
    }

    /// The same context re-addressed to worker `worker`.
    pub(crate) fn for_worker(self, worker: usize) -> Self {
        ObsCtx { worker, ..self }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.obs.is_some()
    }

    pub(crate) fn run_start(&self, ctx: &RunContext) {
        if let Some(o) = self.obs {
            o.on_run_start(ctx);
        }
    }

    pub(crate) fn run_end(&self, stop: StopReason, stats: &Stats) {
        if let Some(o) = self.obs {
            o.on_run_end(stop, stats);
        }
    }

    pub(crate) fn segment_start(&self, seg: &SegmentInfo) {
        if let Some(o) = self.obs {
            o.on_segment_start(seg);
        }
    }

    pub(crate) fn segment_end(&self, stop: StopReason, stats: &Stats) {
        if let Some(o) = self.obs {
            o.on_segment_end(stop, stats);
        }
    }

    pub(crate) fn task_start(&self, task: &TaskInfo) {
        if let Some(o) = self.obs {
            o.on_task_start(self.worker, task);
        }
    }

    pub(crate) fn task_finish(&self, task: &TaskInfo, elapsed: Duration, delta: &TaskDelta) {
        if let Some(o) = self.obs {
            o.on_task_finish(self.worker, task, elapsed, delta);
        }
    }

    pub(crate) fn steal(&self) {
        if let Some(o) = self.obs {
            o.on_steal(self.worker);
        }
    }

    pub(crate) fn idle(&self) {
        if let Some(o) = self.obs {
            o.on_idle(self.worker);
        }
    }

    pub(crate) fn sample(&self, emitted: u64) {
        if let Some(o) = self.obs {
            o.on_emit_sample(self.worker, emitted);
        }
    }

    pub(crate) fn stop(&self, reason: StopReason) {
        if let Some(o) = self.obs {
            o.on_stop(reason);
        }
    }

    pub(crate) fn checkpoint(&self, tasks: u64, emitted: u64) {
        if let Some(o) = self.obs {
            o.on_checkpoint(tasks, emitted);
        }
    }
}

/// Sink adapter counting *delivered* emissions per worker and firing
/// `on_emit_sample` at the configured cadence. Sits between the control
/// gate and the mapping/user sink, so its count equals this worker's
/// contribution to `Stats::emitted`.
pub(crate) struct RecordingSink<'a, S: BicliqueSink> {
    inner: &'a mut S,
    obs: ObsCtx<'a>,
    emitted: u64,
}

impl<'a, S: BicliqueSink> RecordingSink<'a, S> {
    #[cfg(test)]
    pub(crate) fn new(inner: &'a mut S, obs: ObsCtx<'a>) -> Self {
        RecordingSink::with_base(inner, obs, 0)
    }

    /// Like [`new`](Self::new) but continuing the delivered-emission
    /// count from `base`, so the sampling cadence survives segment (or
    /// per-task sink rebuild) boundaries.
    pub(crate) fn with_base(inner: &'a mut S, obs: ObsCtx<'a>, base: u64) -> Self {
        RecordingSink { inner, obs, emitted: base }
    }

    /// Emissions delivered through this sink so far.
    #[cfg(test)]
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<S: BicliqueSink> BicliqueSink for RecordingSink<'_, S> {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        self.inner.emit(left, right)?;
        // Only delivered emissions count (a Break above means the
        // emission was rejected and will be re-delivered on resume).
        self.emitted += 1;
        if self.obs.enabled() && self.emitted.is_multiple_of(self.obs.every) {
            self.obs.sample(self.emitted);
        }
        ControlFlow::Continue(())
    }
}

/// Mutable state of a [`JsonLines`] writer, serialized by one mutex so
/// event timestamps are taken and written atomically (concurrent events
/// cannot interleave out of timestamp order).
struct LinesInner {
    out: std::io::BufWriter<std::fs::File>,
    last_us: u64,
    buf: String,
    error: Option<std::io::Error>,
}

/// The one JSON-lines event writer, shared by the run trace
/// ([`JsonlTraceObserver`]) and the coordinator's span log.
///
/// Every line is a flat object that starts with the schema version
/// `"v"` ([`TRACE_SCHEMA_VERSION`]), a microsecond timestamp `"t_us"`
/// relative to creation (monotone non-decreasing: timestamps are
/// assigned under the writer lock), and the event name `"ev"`; the
/// caller appends the rest with [`field_u64`] and [`field_str`].
///
/// Output is buffered. Write errors never panic: the first one — of an
/// event write or of [`flush`](JsonLines::flush) — is parked, later
/// events are dropped, and [`take_error`](JsonLines::take_error) returns
/// it. Dropping the writer flushes what is left.
pub struct JsonLines {
    start: Instant,
    anchor_us: u64,
    inner: Mutex<LinesInner>,
}

impl JsonLines {
    /// Creates (truncating) `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let anchor_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        Ok(JsonLines {
            start: Instant::now(),
            anchor_us,
            inner: Mutex::new(LinesInner {
                out: std::io::BufWriter::new(file),
                last_us: 0,
                buf: String::with_capacity(160),
                error: None,
            }),
        })
    }

    /// Wall-clock UNIX-epoch microseconds captured at creation: the
    /// `anchor` that aligns this file's `t_us` with other processes'.
    pub fn anchor_us(&self) -> u64 {
        self.anchor_us
    }

    /// Appends one event line: the common prelude, then `fields`
    /// (each written as `,"key":value` into the shared buffer).
    pub fn event(&self, ev: &str, fields: impl FnOnce(&mut String)) {
        use std::fmt::Write as _;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.error.is_some() {
            return;
        }
        // Timestamp under the lock: concurrent events serialize here, so
        // lines land in non-decreasing t_us order by construction.
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let us = us.max(inner.last_us);
        inner.last_us = us;
        let mut buf = std::mem::take(&mut inner.buf);
        buf.clear();
        let _ = write!(buf, "{{\"v\":{TRACE_SCHEMA_VERSION},\"t_us\":{us},\"ev\":\"{ev}\"");
        fields(&mut buf);
        buf.push_str("}\n");
        if let Err(e) = inner.out.write_all(buf.as_bytes()) {
            inner.error = Some(e);
        }
        inner.buf = buf;
    }

    /// Flushes buffered lines to the file, parking a failure for
    /// [`take_error`](JsonLines::take_error).
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = inner.out.flush() {
            if inner.error.is_none() {
                inner.error = Some(e);
            }
        }
    }

    /// Takes the first write error encountered, if any.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).error.take()
    }
}

impl Drop for JsonLines {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = inner.out.flush();
    }
}

/// Appends `,"key":value` for a numeric value.
pub fn field_u64(buf: &mut String, key: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = write!(buf, ",\"{key}\":{value}");
}

/// Appends `,"key":"value"` for a static label (labels are fixed ASCII
/// identifiers, so no JSON escaping is needed).
pub fn field_str(buf: &mut String, key: &str, value: &str) {
    use std::fmt::Write as _;
    let _ = write!(buf, ",\"{key}\":\"{value}\"");
}

/// Writes every hook as one JSONL event through [`JsonLines`]
/// (hand-rolled, no serde — the same vendored-only constraint as
/// `checkpoint.rs`).
///
/// One line per event, e.g.:
///
/// ```text
/// {"v":2,"t_us":1423,"ev":"task_finish","w":0,"task":5,"kind":"root","us":87,"nodes":12,"emitted":4,"depth":3}
/// ```
///
/// Validate a trace with `cargo run -p xtask -- trace-check <path>`; the
/// full event catalogue is in DESIGN.md §8.
///
/// Output is flushed at `on_run_end` (which fires on panic containment
/// too) and on drop. Write errors never panic the run: the first one,
/// including a failed run-end flush, is parked and retrievable via
/// [`take_error`](JsonlTraceObserver::take_error).
pub struct JsonlTraceObserver {
    lines: JsonLines,
    /// Distributed trace context stamped onto the header line, set via
    /// [`JsonlTraceObserver::set_trace_context`] before the run starts.
    trace: Mutex<Option<(u64, u64)>>,
}

impl JsonlTraceObserver {
    /// Creates (truncating) `path` and returns an observer tracing to it.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(JsonlTraceObserver { lines: JsonLines::create(path)?, trace: Mutex::new(None) })
    }

    /// Stamps a distributed trace context onto this trace: the
    /// `run_start` header line will carry `"trace"` and `"parent"`
    /// fields, making the file joinable against a coordinator span log
    /// by trace id. Must be called before the run starts (the header is
    /// written by `on_run_start`).
    pub fn set_trace_context(&self, trace_id: u64, parent_span: u64) {
        *self.trace.lock().unwrap_or_else(PoisonError::into_inner) = Some((trace_id, parent_span));
    }

    /// Takes the first write error encountered, if any (subsequent
    /// events after an error are dropped).
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.lines.take_error()
    }
}

impl Observer for JsonlTraceObserver {
    fn on_run_start(&self, ctx: &RunContext) {
        // Read outside `event`'s closure, which runs under the writer lock.
        let anchor_us = self.lines.anchor_us();
        let trace = *self.trace.lock().unwrap_or_else(PoisonError::into_inner);
        self.lines.event("run_start", |b| {
            field_str(b, "alg", ctx.algorithm.label());
            field_u64(b, "threads", ctx.threads as u64);
            field_u64(b, "resumed", ctx.resumed as u64);
            field_u64(b, "anchor", anchor_us);
            if let Some((trace_id, parent_span)) = trace {
                field_u64(b, "trace", trace_id);
                field_u64(b, "parent", parent_span);
            }
        });
    }

    fn on_run_end(&self, stop: StopReason, stats: &Stats) {
        self.lines.event("run_end", |b| {
            field_str(b, "stop", stop.label());
            field_u64(b, "nodes", stats.nodes);
            field_u64(b, "emitted", stats.emitted);
            field_u64(b, "tasks", stats.tasks);
        });
        self.lines.flush();
    }

    fn on_segment_start(&self, seg: &SegmentInfo) {
        self.lines.event("segment_start", |b| {
            field_str(b, "driver", seg.driver.label());
            field_u64(b, "workers", seg.workers as u64);
            field_u64(b, "seeded", seg.seeded_tasks);
            field_u64(b, "resumed", seg.resumed as u64);
        });
    }

    fn on_segment_end(&self, stop: StopReason, stats: &Stats) {
        self.lines.event("segment_end", |b| {
            field_str(b, "stop", stop.label());
            field_u64(b, "nodes", stats.nodes);
            field_u64(b, "emitted", stats.emitted);
        });
    }

    fn on_task_start(&self, worker: usize, task: &TaskInfo) {
        self.lines.event("task_start", |b| {
            field_u64(b, "w", worker as u64);
            field_u64(b, "task", task.v as u64);
            field_str(b, "kind", task.kind.label());
        });
    }

    fn on_task_finish(&self, worker: usize, task: &TaskInfo, elapsed: Duration, delta: &TaskDelta) {
        self.lines.event("task_finish", |b| {
            field_u64(b, "w", worker as u64);
            field_u64(b, "task", task.v as u64);
            field_str(b, "kind", task.kind.label());
            field_u64(b, "us", elapsed.as_micros().min(u64::MAX as u128) as u64);
            field_u64(b, "nodes", delta.nodes);
            field_u64(b, "emitted", delta.emitted);
            field_u64(b, "depth", delta.depth);
        });
    }

    fn on_steal(&self, worker: usize) {
        self.lines.event("steal", |b| field_u64(b, "w", worker as u64));
    }

    fn on_idle(&self, worker: usize) {
        self.lines.event("idle", |b| field_u64(b, "w", worker as u64));
    }

    fn on_emit_sample(&self, worker: usize, emitted: u64) {
        self.lines.event("sample", |b| {
            field_u64(b, "w", worker as u64);
            field_u64(b, "emitted", emitted);
        });
    }

    fn on_stop(&self, reason: StopReason) {
        self.lines.event("stop", |b| field_str(b, "reason", reason.label()));
    }

    fn on_checkpoint(&self, tasks: u64, emitted: u64) {
        self.lines.event("checkpoint", |b| {
            field_u64(b, "tasks", tasks);
            field_u64(b, "emitted", emitted);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;

    #[test]
    fn noop_observer_is_free_to_call() {
        let obs = NoopObserver;
        obs.on_run_start(&RunContext { algorithm: Algorithm::Mbet, threads: 1, resumed: false });
        obs.on_stop(StopReason::Cancelled);
        obs.on_run_end(StopReason::Cancelled, &Stats::default());
    }

    #[test]
    fn obsctx_noop_is_disabled_and_sampling_cadence_works() {
        let ctx = ObsCtx::noop();
        assert!(!ctx.enabled());
        // Hooks on a disabled context are safe no-ops.
        ctx.task_start(&TaskInfo { v: 0, kind: TaskKind::Root });
        ctx.stop(StopReason::Deadline);

        struct Count(Mutex<Vec<u64>>);
        impl Observer for Count {
            fn on_emit_sample(&self, _w: usize, emitted: u64) {
                self.0.lock().unwrap().push(emitted);
            }
        }
        let counter = Count(Mutex::new(Vec::new()));
        let ctx = ObsCtx::new(Some(&counter), 3);
        let mut inner = CountSink::default();
        let mut rec = RecordingSink::new(&mut inner, ctx);
        for _ in 0..10 {
            assert!(rec.emit(&[0], &[0]).is_continue());
        }
        assert_eq!(rec.emitted(), 10);
        assert_eq!(*counter.0.lock().unwrap(), vec![3, 6, 9]);
    }

    #[test]
    fn recording_sink_skips_rejected_emissions() {
        let mut hits = 0u64;
        {
            let mut inner = crate::FnSink(|_: &[u32], _: &[u32]| {
                hits += 1;
                crate::sink::STOP
            });
            let mut rec = RecordingSink::new(&mut inner, ObsCtx::noop());
            assert!(rec.emit(&[0], &[0]).is_break());
            assert_eq!(rec.emitted(), 0, "a Break verdict is undelivered");
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn fanout_forwards_in_order() {
        struct Tag(&'static str, std::sync::Arc<Mutex<Vec<&'static str>>>);
        impl Observer for Tag {
            fn on_stop(&self, _r: StopReason) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let mut fan = FanoutObserver::new();
        assert!(fan.is_empty());
        fan.push(Box::new(Tag("a", log.clone())));
        fan.push(Box::new(Tag("b", log.clone())));
        assert_eq!(fan.len(), 2);
        fan.on_stop(StopReason::Cancelled);
        assert_eq!(*log.lock().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn jsonl_trace_lines_are_versioned_and_monotone() {
        let path = std::env::temp_dir()
            .join(format!("mbe-obs-unit-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let obs = JsonlTraceObserver::create(&path).unwrap();
        obs.on_run_start(&RunContext { algorithm: Algorithm::Mbet, threads: 2, resumed: false });
        obs.on_task_start(0, &TaskInfo { v: 7, kind: TaskKind::Root });
        obs.on_task_finish(
            0,
            &TaskInfo { v: 7, kind: TaskKind::Root },
            Duration::from_micros(12),
            &TaskDelta { nodes: 3, emitted: 2, depth: 1 },
        );
        obs.on_run_end(StopReason::Completed, &Stats::default());
        assert!(obs.take_error().is_none());
        drop(obs);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ev\":\"run_start\""));
        assert!(lines[0].contains("\"alg\":\"MBET\""));
        assert!(lines[3].contains("\"ev\":\"run_end\""));
        let mut last = 0u64;
        for l in &lines {
            assert!(l.starts_with(&format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"t_us\":")));
            assert!(l.ends_with('}'));
            let t: u64 = l
                .split("\"t_us\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!(t >= last, "timestamps must be non-decreasing");
            last = t;
        }
    }

    #[test]
    fn run_start_carries_anchor_and_optional_trace_context() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // Without a trace context: anchor present, trace absent.
        let path = dir.join(format!("mbe-obs-anchor-{pid}.jsonl")).to_string_lossy().into_owned();
        let obs = JsonlTraceObserver::create(&path).unwrap();
        obs.on_run_start(&RunContext { algorithm: Algorithm::Mbet, threads: 1, resumed: false });
        obs.on_run_end(StopReason::Completed, &Stats::default());
        drop(obs);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"anchor\":"), "{header}");
        assert!(!header.contains("\"trace\":"), "{header}");
        let anchor: u64 = header
            .split("\"anchor\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(anchor > 0, "wall clock anchor should be a real epoch timestamp");

        // With a trace context: both ids stamped on the header line.
        let path = dir.join(format!("mbe-obs-trace-{pid}.jsonl")).to_string_lossy().into_owned();
        let obs = JsonlTraceObserver::create(&path).unwrap();
        obs.set_trace_context(12345, 6789);
        obs.on_run_start(&RunContext { algorithm: Algorithm::Mbet, threads: 1, resumed: false });
        obs.on_run_end(StopReason::Completed, &Stats::default());
        drop(obs);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"trace\":12345"), "{header}");
        assert!(header.contains("\"parent\":6789"), "{header}");
        assert!(header.contains("\"anchor\":"), "{header}");
    }
}
