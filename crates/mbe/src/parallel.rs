//! Work-stealing parallel driver with load-aware task splitting.
//!
//! Root tasks (one per right vertex, see [`crate::task`]) are distributed
//! over a crossbeam work-stealing pool. Real bipartite graphs are
//! power-law skewed, so a handful of root tasks can dominate the runtime;
//! following the load-aware scheme of the parallel MBE literature, a task
//! whose estimated enumeration-tree size `min(|L|,|C|)·|C|` exceeds
//! `opts.split_size` (and whose height bound exceeds `opts.split_height`)
//! is *split*: the worker processes just that node — emitting its biclique
//! — and enqueues each child branch as an independent task. Splitting
//! recurses until estimates fall under the bounds, so no worker is left
//! holding a monolithic subtree while others idle.
//!
//! Every worker owns a private engine (scratch reuse) and a private sink;
//! per-worker sinks and [`Stats`] are returned to the caller for merging.
//!
//! **Stopping.** Workers share one [`ControlState`]: emissions are gated
//! through it (so `max_emitted` budgets are exact even here), and the
//! cancellation flag / deadline are additionally observed in the idle
//! [`Backoff`] loop. Once a stop is recorded, every worker switches to
//! *drain* mode — it keeps popping and discarding queued tasks,
//! decrementing the pending counter, until the pool is empty — so the
//! pending counter always reaches zero and is asserted
//! ([`crate::invariants::check_drained`]) on every run, stopped or not.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::checkpoint::ResumeTask;
use crate::metrics::{RunMetrics, Stats, WorkerMetrics};
use crate::obs::{DriverKind, ObsCtx, RecordingSink, SegmentInfo, TaskDelta, TaskInfo, TaskKind};
use crate::run::{ControlState, ControlledSink, MbeError, RunControl, RunOutcome, StopReason};
use crate::sink::BicliqueSink;
use crate::task::{record_task, root_reps, AnyEngine, Bound, RootTask, Roots, TaskBuilder};
use crate::MbeOptions;
use bigraph::BipartiteGraph;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::Backoff;

/// What a contained worker panic looked like: which task poisoned the
/// worker and the (stringified) panic payload.
pub(crate) struct PanicInfo {
    pub(crate) task: String,
    pub(crate) payload: String,
}

/// Everything a driver run produces: the per-worker sinks (one for the
/// serial driver) and the segment's [`RunOutcome`] — merged stats, stop
/// reason, the captured unexplored frontier (internal ids; empty on
/// completion), telemetry, and the first contained panic, if any.
pub(crate) struct ParOutcome<S> {
    pub(crate) sinks: Vec<S>,
    pub(crate) out: RunOutcome,
}

/// A unit of parallel work.
///
/// Roots are shipped as bare vertex ids — the 1-hop/2-hop universe is
/// computed by the worker that picks the task up, so that this heavy part
/// of the preprocessing parallelizes too. Splitting produces explicit
/// [`NodeTask`]s.
enum Task {
    Root(u32),
    Node(NodeTask),
}

/// An unchecked enumeration node shipped between workers.
#[derive(Debug, Clone)]
struct NodeTask {
    /// `L` of the node (already intersected with `N(v)`).
    l: Vec<u32>,
    /// `R` of the parent (the node's own `R` adds `v` and absorptions).
    r_parent: Vec<u32>,
    /// The vertex whose traversal created this node.
    v: u32,
    /// Remaining candidates of the parent.
    p: Vec<u32>,
    /// Excluded vertices relevant to this node.
    q: Vec<u32>,
}

impl NodeTask {
    fn from_root(t: RootTask) -> Self {
        NodeTask { l: t.l0, r_parent: Vec::new(), v: t.v, p: t.p0, q: t.q0 }
    }

    fn est_height(&self) -> usize {
        self.l.len().min(self.p.len())
    }

    fn est_size(&self) -> usize {
        crate::task::est_tree_size(self.est_height(), self.p.len())
    }

    fn should_split(&self, opts: &MbeOptions) -> bool {
        self.est_height() > opts.split_height && self.est_size() > opts.split_size
    }
}

/// Parallel enumeration core used by the [`crate::Enumeration`] builder
/// terminals: runs the configured algorithm over
/// `g` with `opts.threads` workers (0 = all available cores) under
/// `control`. When `resume` is `Some`, the pool is seeded from the
/// checkpointed frontier (internal ids) instead of the root sweep.
/// `make_sink(worker_index)` builds one sink per worker; the sinks, the
/// merged stats, the stop reason, any captured frontier, and the first
/// contained worker panic come back in the [`ParOutcome`].
///
/// Emission *order* is nondeterministic, the emitted *set* is not (and
/// under an emission budget the emitted *count* is exact — the budget is
/// a shared atomic token pool).
///
/// A panicking task is contained by `catch_unwind`: the worker records
/// the first panic, rebuilds its engine, and the pool stops and drains as
/// for any other stop. The panicked task itself is *excluded* from the
/// captured frontier — it may have already emitted part of its subtree,
/// and re-running it could emit duplicates — so a post-panic checkpoint
/// is best-effort, not exhaustive (documented on
/// [`MbeError::WorkerPanic`]).
pub(crate) fn par_run<S, F>(
    g: &BipartiteGraph,
    opts: &MbeOptions,
    control: &RunControl,
    resume: Option<&[ResumeTask]>,
    obs: ObsCtx<'_>,
    make_sink: F,
) -> Result<ParOutcome<S>, MbeError>
where
    S: BicliqueSink + Send,
    F: Fn(usize) -> S + Sync,
{
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        opts.threads
    };

    let (h, perm) = bigraph::order::apply(g, opts.order);
    let start = std::time::Instant::now();

    let injector: Injector<Task> = Injector::new();
    let pending = AtomicU64::new(0);
    let state = ControlState::with_obs(control, obs);
    let frontier: Mutex<Vec<ResumeTask>> = Mutex::new(Vec::new());
    let panic_slot: Mutex<Option<PanicInfo>> = Mutex::new(None);

    let mut seed_stats = Stats::default();
    match resume {
        Some(tasks) => {
            // Resume seeding: replay the checkpointed frontier verbatim
            // (it was captured after root batching, so no re-filtering).
            for t in tasks {
                pending.fetch_add(1, Ordering::SeqCst);
                injector.push(match t {
                    ResumeTask::Root(v) => Task::Root(*v),
                    // Once per checkpointed task at startup, cold; the
                    // queued task owns its sets.
                    ResumeTask::Node { l, r_parent, v, p, q } => Task::Node(NodeTask {
                        l: l.clone(),               // xtask-allow: hot-alloc-loop (startup resume seeding)
                        r_parent: r_parent.clone(), // xtask-allow: hot-alloc-loop (startup resume seeding)
                        v: *v,
                        p: p.clone(), // xtask-allow: hot-alloc-loop (startup resume seeding)
                        q: q.clone(), // xtask-allow: hot-alloc-loop (startup resume seeding)
                    }),
                });
            }
        }
        None => {
            // Seed with bare root ids (respecting MBET root batching);
            // workers compute the 2-hop universes themselves so this
            // heavy part of the preprocessing scales too.
            let reps = root_reps(&h, opts);
            let mut roots = Roots::new(&h, reps.as_deref());
            for v in roots.by_ref() {
                pending.fetch_add(1, Ordering::SeqCst);
                injector.push(Task::Root(v));
            }
            seed_stats.batched = roots.batched;
        }
    }

    obs.segment_start(&SegmentInfo {
        driver: DriverKind::Parallel,
        workers: threads,
        seeded_tasks: pending.load(Ordering::SeqCst),
        resumed: resume.is_some(),
    });

    let workers: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<_> = workers.iter().map(|w| w.stealer()).collect();

    let mut results: Vec<Option<(S, Stats, WorkerMetrics)>> = (0..threads).map(|_| None).collect();

    let (spawn_err, panicked) = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut spawn_err: Option<String> = None;
        for (wid, (local, slot)) in workers.into_iter().zip(results.iter_mut()).enumerate() {
            let injector = &injector;
            let stealers = &stealers;
            let pending = &pending;
            let state = &state;
            let h = &h;
            let perm = &perm[..];
            let make_sink = &make_sink;
            let frontier = &frontier;
            let panic_slot = &panic_slot;
            let spawned = scope
                .builder()
                // xtask-allow: hot-alloc-loop (once per worker at spawn)
                .name(format!("mbe-worker-{wid}"))
                .stack_size(64 << 20) // deep R-chains recurse; be generous
                .spawn(move |_| {
                    let mut sink = make_sink(wid);
                    let mut stats = Stats::default();
                    let mut engine = AnyEngine::new(h, opts);
                    let obs_w = obs.for_worker(wid);
                    let mut wm = WorkerMetrics::new(wid);
                    worker_loop(
                        h,
                        perm,
                        opts,
                        &local,
                        injector,
                        stealers,
                        pending,
                        state,
                        &mut engine,
                        &mut sink,
                        &mut stats,
                        frontier,
                        panic_slot,
                        obs_w,
                        &mut wm,
                    );
                    // A worker's delivered count is exactly its stats
                    // delta (engines bump `stats.emitted` only after a
                    // full-chain Continue).
                    wm.emitted = stats.emitted;
                    *slot = Some((sink, stats, wm));
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Stop the already-running workers (they drain the
                    // queue) and surface the failure to the caller.
                    spawn_err = Some(e.to_string()); // xtask-allow: hot-alloc-loop (spawn-failure path, at most once)
                    state.note_stop(StopReason::Cancelled);
                    break;
                }
            }
        }
        let mut panicked = false;
        for hdl in handles {
            if hdl.join().is_err() {
                panicked = true;
            }
        }
        (spawn_err, panicked)
    })
    .expect("scope"); // xtask-allow: expect

    if let Some(msg) = spawn_err {
        return Err(MbeError::Spawn(msg));
    }
    if panicked {
        // Per-task panics are contained by catch_unwind; a join failure
        // means something outside the task loop (sink construction,
        // engine setup) blew up — no partial report is salvageable.
        return Err(MbeError::WorkerPanicked);
    }

    let mut stats = seed_stats;
    let mut sinks = Vec::with_capacity(threads);
    let mut metrics = RunMetrics::default();
    for r in results {
        let Some((s, st, wm)) = r else {
            return Err(MbeError::WorkerPanicked);
        };
        stats.merge(&st);
        metrics.workers.push(wm);
        sinks.push(s);
    }
    let stop = state.reason();
    // Every exit path — completion or drain-after-stop — leaves the
    // pending counter at zero; asserted unconditionally.
    crate::invariants::check_drained(pending.load(Ordering::SeqCst));
    if resume.is_none() {
        // The parallel-vs-serial recount compares against a full serial
        // run; it is meaningless for a resumed segment.
        crate::invariants::check_parallel_run(g, opts, &stats, !stop.is_complete());
    }
    stats.elapsed = start.elapsed();
    obs.segment_end(stop, &stats);
    let frontier = frontier.into_inner().unwrap_or_else(PoisonError::into_inner);
    let panic = panic_slot.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok(ParOutcome { sinks, out: RunOutcome { stats, stop, frontier, metrics, panic } })
}

/// Where a popped task came from — feeds the steal telemetry: only tasks
/// taken from a *peer's* deque count as steals (injector pops are normal
/// distribution, not work stealing).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TaskSource {
    /// The worker's own deque.
    Local,
    /// The shared injector (seeded roots and split children).
    Injector,
    /// Stolen from another worker's deque.
    Peer,
}

/// Pops the next task: local deque first, then the injector, then peers.
/// Retries while any source reports [`Steal::Retry`] (a racing steal), so
/// `None` means every source was *observed empty* — same semantics as the
/// crossbeam `find(!Retry)` idiom this replaces.
fn next_task(
    local: &Worker<Task>,
    injector: &Injector<Task>,
    stealers: &[Stealer<Task>],
) -> Option<(Task, TaskSource)> {
    if let Some(t) = local.pop() {
        return Some((t, TaskSource::Local));
    }
    loop {
        let mut retry = false;
        match injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some((t, TaskSource::Injector)),
            Steal::Retry => retry = true,
            Steal::Empty => {}
        }
        for s in stealers {
            match s.steal() {
                Steal::Success(t) => return Some((t, TaskSource::Peer)),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

/// Post-stop cleanup: pop queued tasks into the shared `frontier`
/// (decrementing the pending counter) until the pool is empty — what used
/// to be discarded is now exactly the checkpointable remainder. Peers
/// still finishing a task may push split children meanwhile; they are
/// drained too, and the loop terminates because in-flight tasks are
/// finite and no new work is started once every worker observes the stop.
fn drain_after_stop(
    local: &Worker<Task>,
    injector: &Injector<Task>,
    stealers: &[Stealer<Task>],
    pending: &AtomicU64,
    frontier: &Mutex<Vec<ResumeTask>>,
) {
    let backoff = Backoff::new();
    loop {
        while let Some((task, _)) = next_task(local, injector, stealers) {
            let captured = match task {
                Task::Root(v) => ResumeTask::Root(v),
                Task::Node(t) => resume_task_of(&t),
            };
            frontier.lock().unwrap_or_else(PoisonError::into_inner).push(captured);
            pending.fetch_sub(1, Ordering::SeqCst);
            backoff.reset();
        }
        if pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        backoff.snooze();
    }
}

/// The resume representation of a queued node task.
fn resume_task_of(t: &NodeTask) -> ResumeTask {
    ResumeTask::Node {
        l: t.l.clone(),
        r_parent: t.r_parent.clone(),
        v: t.v,
        p: t.p.clone(),
        q: t.q.clone(),
    }
}

/// Renders the panic payload `catch_unwind` handed back. Panic messages
/// are almost always `&str` or `String`; anything else is opaque.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records the first contained panic of the run; later ones are
/// dropped (the pool is already stopping).
fn note_panic(
    slot: &Mutex<Option<PanicInfo>>,
    task: impl FnOnce() -> String,
    payload: &(dyn std::any::Any + Send),
) {
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_none() {
        *slot = Some(PanicInfo { task: task(), payload: panic_payload(payload) });
    }
}

/// A short human-readable description of a root task, built only on
/// panic.
fn describe_root(v: u32) -> String {
    format!("root task v={v}")
}

/// A short human-readable description of a task, built only on panic.
fn describe_task(t: &NodeTask) -> String {
    format!("node task v={} |L|={} |P|={} |Q|={}", t.v, t.l.len(), t.p.len(), t.q.len())
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<'g, S: BicliqueSink>(
    h: &'g BipartiteGraph,
    perm: &[u32],
    opts: &MbeOptions,
    local: &Worker<Task>,
    injector: &Injector<Task>,
    stealers: &[Stealer<Task>],
    pending: &AtomicU64,
    state: &ControlState<'_>,
    engine: &mut AnyEngine<'g>,
    sink: &mut S,
    stats: &mut Stats,
    frontier: &Mutex<Vec<ResumeTask>>,
    panic_slot: &Mutex<Option<PanicInfo>>,
    obs: ObsCtx<'_>,
    wm: &mut WorkerMetrics,
) {
    let mut split_buf: Vec<NodeTask> = Vec::new();
    let mut builder = TaskBuilder::new(h);
    let backoff = Backoff::new();
    // Fires `on_idle` once per idle *period* (transition into idleness),
    // not per snooze; `wm.idle_wakeups` counts every snooze.
    let mut idle = false;
    // Record a pre-cancelled / pre-expired control before doing any work.
    state.check_idle();
    loop {
        if state.stopped().is_some() {
            drain_after_stop(local, injector, stealers, pending, frontier);
            return;
        }
        let Some((task, source)) = next_task(local, injector, stealers) else {
            // Injector and every stealer came up empty. Either the pool is
            // done (`pending` drained) or peers are still expanding nodes
            // that may yet split — back off exponentially (spin, then
            // yield) instead of burning a core on a bare yield loop. The
            // idle loop doubles as the passive cancellation/deadline
            // observation point.
            if pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if !idle {
                idle = true;
                obs.idle();
            }
            wm.idle_wakeups += 1;
            state.check_idle();
            backoff.snooze();
            continue;
        };
        backoff.reset();
        idle = false;
        if source == TaskSource::Peer {
            wm.steals += 1;
            obs.steal();
        }

        // The task's identity for the observer: captured before the root
        // build consumes it (splitting refines Root/Node to Split below).
        let (origin_v, origin_kind) = match &task {
            Task::Root(v) => (*v, TaskKind::Root),
            Task::Node(t) => (t.v, TaskKind::Node),
        };
        // Building a root reads the graph around `v`, so it is contained
        // like the task itself: a panic here must stop the pool, not end
        // this worker with the task still pending.
        let task = match task {
            Task::Node(t) => Some(t),
            Task::Root(v) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| builder.build(v))) {
                    Ok(root) => root.map(NodeTask::from_root),
                    Err(payload) => {
                        note_panic(panic_slot, || describe_root(v), payload.as_ref());
                        // The builder's 2-hop marks may be mid-update.
                        builder = TaskBuilder::new(h);
                        pending.fetch_sub(1, Ordering::SeqCst);
                        state.note_stop(StopReason::WorkerPanicked);
                        continue;
                    }
                }
            }
        };
        let flow = match task {
            None => ControlFlow::Continue(()), // isolated root — nothing to do
            Some(task) => {
                stats.tasks += 1;
                let nodes_before = stats.nodes;
                let emitted_before = stats.emitted;
                let was_split = task.should_split(opts);
                let info = TaskInfo {
                    v: origin_v,
                    kind: if was_split { TaskKind::Split } else { origin_kind },
                };
                obs.task_start(&info);
                let t0 = std::time::Instant::now();
                // Contain per-task panics: a poisoned task must not take
                // the whole pool down. The captured borrows (&mut sink,
                // stats, engine, split_buf) end when the closure returns;
                // the panic arm below rebuilds the engine (its recursion
                // scratch may hold mid-unwind garbage) and clears the
                // split buffer, so nothing poisoned survives the task.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut mapped = crate::sink::map_right(sink, perm);
                    let mut recording = RecordingSink::with_base(&mut mapped, obs, emitted_before);
                    let mut controlled = ControlledSink::new(state, &mut recording);
                    if was_split {
                        split_buf.clear();
                        split_node(h, &opts.bound, &task, &mut controlled, stats, &mut split_buf)
                    } else {
                        engine.run_node(
                            &task.l,
                            &task.r_parent,
                            task.v,
                            &task.p,
                            &task.q,
                            &mut controlled,
                            stats,
                        )
                    }
                }));
                let elapsed = t0.elapsed();
                // Split tasks process a single node outside the engine,
                // so their recursion depth is 0 and the engine's depth
                // field is stale — don't read it. Same for a panicked
                // task: mid-unwind engine state is garbage.
                let depth = match &result {
                    Ok(_) if !was_split => engine.task_depth() as u64,
                    _ => 0,
                };
                if result.is_ok() {
                    record_task(wm, depth, engine.peak_trie_nodes() as u64, elapsed);
                }
                // Every task_start pairs with a task_finish, on the
                // panic path too — a dangling start would read as a
                // forever-running task in the trace. A panicked task
                // reports the deltas it accumulated before unwinding.
                obs.task_finish(
                    &info,
                    elapsed,
                    &TaskDelta {
                        nodes: stats.nodes - nodes_before,
                        emitted: stats.emitted - emitted_before,
                        depth,
                    },
                );
                match result {
                    Ok(ControlFlow::Continue(())) => {
                        if was_split {
                            pending.fetch_add(split_buf.len() as u64, Ordering::SeqCst);
                            for child in split_buf.drain(..) {
                                injector.push(Task::Node(child));
                            }
                        }
                        // Task-boundary accounting feeds the node budget.
                        state.note_task(stats.nodes - nodes_before)
                    }
                    Ok(ControlFlow::Break(r)) => {
                        let mut fr = frontier.lock().unwrap_or_else(PoisonError::into_inner);
                        if was_split {
                            // split_node's only break is its single emit,
                            // which happens before any child is built: the
                            // emission was undelivered, so the whole task
                            // re-runs on resume.
                            split_buf.clear();
                            fr.push(resume_task_of(&task));
                        } else {
                            fr.extend(engine.take_frontier());
                        }
                        drop(fr);
                        ControlFlow::Break(r)
                    }
                    Err(payload) => {
                        // The panicked task *was* counted in `stats.tasks`
                        // — mirror that in the worker metrics so the
                        // per-worker task sum still equals the merged
                        // total.
                        record_task(wm, 0, 0, elapsed);
                        note_panic(panic_slot, || describe_task(&task), payload.as_ref());
                        // The panicked task is NOT captured: it may have
                        // partially emitted, and re-running it would risk
                        // duplicates. Rebuild the engine before reuse.
                        *engine = AnyEngine::new(h, opts);
                        split_buf.clear();
                        ControlFlow::Break(StopReason::WorkerPanicked)
                    }
                }
            }
        };
        pending.fetch_sub(1, Ordering::SeqCst);
        if let ControlFlow::Break(r) = flow {
            state.note_stop(r);
            // The loop top switches to drain mode.
        }
    }
}

/// Processes one node — bound, check, absorb, emit — and pushes its
/// children as tasks instead of recursing. Engine-agnostic (MBEA-style
/// scans): split nodes are rare, fan-out dominates their cost. Breaks
/// (pushing no children) iff the sink requested a stop.
fn split_node(
    g: &BipartiteGraph,
    bound: &Bound,
    t: &NodeTask,
    sink: &mut dyn BicliqueSink,
    stats: &mut Stats,
    out: &mut Vec<NodeTask>,
) -> ControlFlow<StopReason> {
    if bound.cuts(t.l.len(), t.r_parent.len() + 1 + t.p.len()) {
        stats.bound_pruned += 1;
        return ControlFlow::Continue(());
    }
    stats.nodes += 1;
    if crate::task::covered_by_excluded(g, &t.q, &t.l) {
        stats.nonmaximal += 1;
        return ControlFlow::Continue(());
    }
    // `absorbed` and `p_new` partition `t.p`.
    let mut absorbed = Vec::with_capacity(t.p.len());
    let mut p_new = Vec::with_capacity(t.p.len());
    crate::task::partition_candidates(g, &t.p, &t.l, &mut absorbed, &mut p_new);
    stats.absorbed += absorbed.len() as u64;
    let r_new = crate::task::assemble_r(&t.r_parent, t.v, &absorbed);
    crate::invariants::check_node(g, &t.l, &r_new);
    if bound.emits(r_new.len()) {
        sink.emit(&t.l, &r_new)?;
        stats.emitted += 1;
    } else {
        stats.undersized += 1;
    }

    let mut q_now: Vec<u32> = Vec::new();
    crate::task::live_excluded(g, &t.q, &t.l, &mut q_now);
    let mut l_child = Vec::new();
    for i in 0..p_new.len() {
        let w = p_new[i];
        crate::task::child_l(g, &t.l, w, &mut l_child);
        // Each child task is shipped through the injector and outlives
        // this frame — it must own its sets. Split nodes are rare
        // (fan-out dominates), so the copies are off the hot path.
        out.push(NodeTask {
            l: l_child.clone(),      // xtask-allow: hot-alloc-loop (owned by the child task)
            r_parent: r_new.clone(), // xtask-allow: hot-alloc-loop (owned by the child task)
            v: w,
            // xtask-allow: hot-alloc-loop (owned by the child task)
            p: p_new[i + 1..].to_vec(),
            q: q_now.clone(), // xtask-allow: hot-alloc-loop (owned by the child task)
        });
        q_now.push(w);
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use crate::{Algorithm, Enumeration};
    use std::sync::mpsc::RecvTimeoutError;

    fn g0() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            5,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 1),
                (3, 1),
                (3, 2),
                (3, 3),
                (4, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_serial_on_g0() {
        let g = g0();
        for alg in Algorithm::all() {
            let opts = MbeOptions::new(alg).threads(3);
            let mut par = Enumeration::new(&g).options(opts.clone()).collect().unwrap().bicliques;
            par.sort();
            let mut ser =
                Enumeration::new(&g).options(opts.threads(1)).collect().unwrap().bicliques;
            ser.sort();
            assert_eq!(par, ser, "{alg:?}");
            assert_eq!(par.len(), 6);
        }
    }

    #[test]
    fn forced_splitting_is_correct() {
        let g = g0();
        // Absurdly low bounds force every splittable node to split.
        let mut opts = MbeOptions::new(Algorithm::Mbet).threads(2);
        opts.split_height = 0;
        opts.split_size = 0;
        let report = Enumeration::new(&g).options(opts).collect().unwrap();
        let mut par = report.bicliques;
        par.sort();
        crate::verify::assert_matches_brute_force(&g, &par);
        assert_eq!(report.stats.emitted, 6);
    }

    #[test]
    fn single_worker_parallel_matches() {
        let g = g0();
        let opts = MbeOptions::new(Algorithm::Imbea).threads(1);
        let (sinks, report) =
            Enumeration::new(&g).options(opts).run_per_worker(|_| CountSink::default()).unwrap();
        let count: u64 = sinks.iter().map(|s| s.count()).sum();
        assert_eq!(count, 6);
        assert!(report.is_complete());
    }

    #[test]
    fn empty_graph_parallel() {
        let g = BipartiteGraph::from_edges(4, 4, &[]).unwrap();
        let report =
            Enumeration::new(&g).options(MbeOptions::new(Algorithm::Mbet).threads(2)).count();
        let report = report.unwrap();
        assert_eq!(report.count(), 0);
        assert!(report.is_complete());
    }

    #[test]
    fn parallel_emit_budget_is_exact() {
        let g = g0();
        for threads in [2, 4] {
            let report = Enumeration::new(&g)
                .options(MbeOptions::new(Algorithm::Mbet).threads(threads))
                .max_bicliques(3)
                .collect()
                .unwrap();
            assert_eq!(report.stop, StopReason::EmitBudget, "threads={threads}");
            assert_eq!(report.bicliques.len(), 3, "threads={threads}");
        }
    }

    #[test]
    fn parallel_pre_cancelled_emits_nothing() {
        let g = g0();
        let control = RunControl::new();
        control.cancel();
        let report = Enumeration::new(&g)
            .options(MbeOptions::new(Algorithm::Mbet).threads(3))
            .control(control)
            .collect()
            .unwrap();
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.bicliques.is_empty());
    }

    /// A panic while building a root task is contained like any task
    /// panic: the pool stops and reports it rather than waiting forever
    /// for the task the panicking worker never finished. The frontier
    /// bypasses `Checkpoint::matches`, which would reject it.
    #[test]
    fn root_build_panic_stops_the_pool() {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let g = g0();
            let frontier = [ResumeTask::Root(g.num_v() + 1)];
            let opts = MbeOptions::new(Algorithm::Mbet).threads(2);
            let out =
                par_run(&g, &opts, &RunControl::new(), Some(&frontier), ObsCtx::noop(), |_| {
                    CountSink::default()
                })
                .map(|par| (par.out.stop, par.out.panic.map(|p| p.task)));
            let _ = tx.send(out);
        });
        // A hang fails here instead of blocking the suite.
        let out = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(!matches!(out, Err(RecvTimeoutError::Timeout)), "the pool hung");
        assert!(run.join().is_ok(), "par_run let the panic escape");
        let (stop, task) = match out {
            Ok(Ok(done)) => done,
            other => panic!("par_run failed: {other:?}"),
        };
        assert_eq!(stop, StopReason::WorkerPanicked);
        assert_eq!(task.as_deref(), Some("root task v=5"));
    }

    fn node(l: usize, p: usize) -> NodeTask {
        NodeTask {
            l: (0..l as u32).collect(),
            r_parent: Vec::new(),
            v: 0,
            p: (0..p as u32).collect(),
            q: Vec::new(),
        }
    }

    fn thresholds(split_height: usize, split_size: usize) -> MbeOptions {
        let mut opts = MbeOptions::new(Algorithm::Mbet);
        opts.split_height = split_height;
        opts.split_size = split_size;
        opts
    }

    #[test]
    fn est_size_uses_saturating_product() {
        // 5 candidates, |L| = 3 ⇒ height 3, size 15; both via the shared
        // saturating helper (whose usize::MAX behavior is unit-tested in
        // `task`).
        let t = node(3, 5);
        assert_eq!(t.est_height(), 3);
        assert_eq!(t.est_size(), 15);
    }

    #[test]
    fn should_split_boundaries() {
        let t = node(5, 10); // est_height = 5, est_size = 50

        // Zero thresholds: any task with a non-trivial estimate splits.
        assert!(t.should_split(&thresholds(0, 0)));
        // Comparisons are strict: estimates equal to a threshold don't split.
        assert!(!t.should_split(&thresholds(5, 0)));
        assert!(!t.should_split(&thresholds(0, 50)));
        assert!(t.should_split(&thresholds(4, 49)));
        // usize::MAX thresholds can never be exceeded (est_size saturates
        // at usize::MAX, and `>` is strict), so splitting is fully off.
        assert!(!t.should_split(&thresholds(usize::MAX, 0)));
        assert!(!t.should_split(&thresholds(0, usize::MAX)));
        assert!(!t.should_split(&thresholds(usize::MAX, usize::MAX)));

        // A task with no candidates estimates zero and never splits, even
        // at zero thresholds.
        let leaf = node(5, 0);
        assert_eq!(leaf.est_size(), 0);
        assert!(!leaf.should_split(&thresholds(0, 0)));
    }
}
