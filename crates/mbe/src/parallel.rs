//! The enumeration driver: a work-stealing pool with load-aware task
//! splitting, whose one-worker case is the serial run.
//!
//! The pool's unit of work is a [`ResumeTask`]: a root (one per right
//! vertex, see [`crate::task`]) or an interior node. The pool takes its
//! **seed** in order: the lazy root sweep of a full run, or a
//! checkpoint's frontier. Roots are bare vertex ids, and the worker that
//! takes one builds its 1-hop/2-hop universe, so that part of the
//! preprocessing parallelizes too. A worker takes its next task from its
//! own deque, then from the injector of split children, then from the
//! seed, then from its peers: children go before new roots, which keeps
//! their queue short.
//!
//! Real bipartite graphs are power-law skewed, so a handful of root
//! tasks can dominate the runtime; following the load-aware scheme of
//! the parallel MBE literature, when the pool has more than one worker a
//! task whose estimated tree height `min(|L|,|P|)` exceeds
//! `opts.split_height` and whose size `min(|L|,|P|)·|P|` exceeds
//! `opts.split_size` is *split*: the worker's engine expands just that
//! node (bound, check, absorb, emit, with all of its bookkeeping) and,
//! instead of recursing, hands back each child it would have expanded as
//! a `Node` task, which the worker enqueues. Splitting recurses until
//! estimates fall under the bounds, so no worker is left holding a
//! monolithic subtree while others idle, and a threaded run searches
//! exactly the one-worker run's tree.
//!
//! **One worker.** With one worker (`threads = 1`, or `0` on a one-core
//! host) the pool runs on the calling thread and never splits: it takes
//! the seed in order and runs each task's whole subtree. That in-order
//! run is the reference the tests and `debug-invariants` compare
//! threaded runs against, and its sink need not be `Send`.
//!
//! Every worker owns a private `task::TaskRunner` (engine scratch reuse)
//! and a private sink; per-worker sinks and [`Stats`] are returned to the
//! caller for merging.
//!
//! **Stopping.** Workers share one `ControlState`: emissions are gated
//! through it (so `max_emitted` budgets are exact at any thread count),
//! and the cancellation flag / deadline are additionally observed in the
//! idle [`Backoff`] loop. Once a stop is recorded, every worker switches
//! to *drain* mode: it moves the queued tasks into the captured frontier,
//! decrementing the pending counter, until the pool is empty, and then
//! the untaken seed, in order. So the pending counter always reaches
//! zero and is asserted ([`crate::invariants::check_drained`]) on every
//! run, stopped or not, and a one-worker run's frontier is its in-flight
//! task's remainder followed by the seed it never took.
//!
//! **Panics.** A panicking task is contained by `catch_unwind` at every
//! thread count: the worker records the first panic, rebuilds its
//! engine, and the pool stops and drains as for any other stop. The
//! panicked task itself is *excluded* from the captured frontier — it
//! may have already emitted part of its subtree, and re-running it could
//! emit duplicates — so a post-panic checkpoint is best-effort, not
//! exhaustive (documented on [`MbeError::WorkerPanic`]). A worker that
//! unwinds outside every task (an observer hook, say) still releases
//! the task it held, so its peers finish and the run fails with
//! [`MbeError::WorkerPanicked`] instead of hanging.

use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::checkpoint::ResumeTask;
use crate::metrics::{RunMetrics, Stats, WorkerMetrics};
use crate::obs::{DriverKind, ObsCtx, RecordingSink, SegmentInfo};
use crate::run::{ControlState, ControlledSink, MbeError, RunControl, StopReason};
use crate::sink::BicliqueSink;
use crate::task::{Roots, TaskRunner};
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

/// What a driver segment produced: the merged stats, the stop reason,
/// for stopped segments the captured unexplored frontier (internal ids),
/// the per-worker telemetry, and the first contained worker panic.
pub(crate) struct RunOutcome {
    pub(crate) stats: Stats,
    pub(crate) stop: StopReason,
    pub(crate) frontier: Vec<ResumeTask>,
    pub(crate) metrics: RunMetrics,
    pub(crate) panic: Option<PanicInfo>,
}

/// A segment's per-worker sinks alongside its [`RunOutcome`].
pub(crate) struct ParOutcome<S> {
    pub(crate) sinks: Vec<S>,
    pub(crate) out: RunOutcome,
}

/// Runs the configured algorithm over `g` on `opts.threads` workers
/// (0 = all available cores) under `control`: one worker on the calling
/// thread ([`run_one`]), or more spawned ones. When `resume` is `Some`,
/// the pool is seeded from the checkpointed frontier (internal ids)
/// instead of the root sweep. `make_sink(worker_index)` builds one sink
/// per worker; the sinks and the segment's [`RunOutcome`] come back in
/// the [`ParOutcome`].
///
/// Emission *order* is nondeterministic across workers, the emitted
/// *set* is not (and under an emission budget the emitted *count* is
/// exact — the budget is a shared atomic token pool).
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
    if threads == 1 {
        let mut sink = make_sink(0);
        let out = run_one(g, opts, control, resume, obs, &mut sink)?;
        return Ok(ParOutcome { sinks: vec![sink], out });
    }

    let (h, perm) = bigraph::order::apply(g, opts.order);
    let (pool, locals) = Pool::seed(&h, opts, control, resume, obs, threads);
    let mut results: Vec<Option<(S, Stats, WorkerMetrics)>> = (0..threads).map(|_| None).collect();

    let (spawn_err, panicked) = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut spawn_err: Option<String> = None;
        for (wid, (local, slot)) in locals.into_iter().zip(results.iter_mut()).enumerate() {
            let (pool, h, perm, make_sink) = (&pool, &h, &perm[..], &make_sink);
            let spawned = scope
                .builder()
                // xtask-allow: hot-alloc-loop (once per worker at spawn)
                .name(format!("mbe-worker-{wid}"))
                .stack_size(64 << 20) // deep R-chains recurse; be generous
                .spawn(move |_| {
                    let mut sink = make_sink(wid);
                    let obs = obs.for_worker(wid);
                    let (stats, wm) = worker_loop(pool, &local, h, perm, opts, &mut sink, obs);
                    *slot = Some((sink, stats, wm));
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Stop the already-running workers (they drain the
                    // queue) and surface the failure to the caller.
                    spawn_err = Some(e.to_string()); // xtask-allow: hot-alloc-loop (spawn-failure path, at most once)
                    pool.state.note_stop(StopReason::Cancelled);
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
    let mut sinks = Vec::with_capacity(threads);
    let mut workers = Vec::with_capacity(threads);
    for r in results {
        let Some((s, stats, wm)) = r else {
            return Err(MbeError::WorkerPanicked);
        };
        sinks.push(s);
        workers.push((stats, wm));
    }
    Ok(ParOutcome { sinks, out: pool.finish(g, opts, workers) })
}

/// The pool's one-worker case: runs the single worker on the calling
/// thread with splitting off, taking the seed in order, so `sink` need
/// not be `Send`. A panic inside a task is contained as on any pool; one
/// outside every task (an observer hook, say) comes back as
/// [`MbeError::WorkerPanicked`], as a spawned worker's join failure does.
pub(crate) fn run_one<S: BicliqueSink>(
    g: &BipartiteGraph,
    opts: &MbeOptions,
    control: &RunControl,
    resume: Option<&[ResumeTask]>,
    obs: ObsCtx<'_>,
    sink: &mut S,
) -> Result<RunOutcome, MbeError> {
    let (h, perm) = bigraph::order::apply(g, opts.order);
    let (pool, locals) = Pool::seed(&h, opts, control, resume, obs, 1);
    let workers = std::panic::catch_unwind(AssertUnwindSafe(|| {
        locals.iter().map(|local| worker_loop(&pool, local, &h, &perm, opts, sink, obs)).collect()
    }))
    .map_err(|_| MbeError::WorkerPanicked)?;
    Ok(pool.finish(g, opts, workers))
}

/// The seed a pool takes in order: the lazy root sweep of a full run, or
/// a checkpoint's frontier.
enum Seed<'a> {
    Roots(Roots<'a>),
    Frontier(std::slice::Iter<'a, ResumeTask>),
}

impl Iterator for Seed<'_> {
    type Item = ResumeTask;

    fn next(&mut self) -> Option<ResumeTask> {
        match self {
            Seed::Roots(roots) => roots.next().map(ResumeTask::Root),
            // Once per checkpointed task; the taken task owns its sets.
            Seed::Frontier(tasks) => tasks.next().cloned(),
        }
    }
}

/// Where a popped task came from — feeds the steal telemetry: only tasks
/// taken from a *peer's* deque count as steals (the seed and the
/// injector are normal distribution, not work stealing).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TaskSource {
    /// The worker's own deque, the seed, or the shared injector.
    Own,
    /// Stolen from another worker's deque.
    Peer,
}

/// One segment's shared state: the ordered seed, the injector of split
/// children, every worker's stealer, the count of queued or running
/// tasks, the run's control state, the captured frontier and the first
/// contained panic, plus what the finish needs to know of the segment.
struct Pool<'a> {
    seed: Mutex<Seed<'a>>,
    injector: Injector<ResumeTask>,
    stealers: Vec<Stealer<ResumeTask>>,
    pending: AtomicU64,
    state: ControlState<'a>,
    frontier: Mutex<Vec<ResumeTask>>,
    panic_slot: Mutex<Option<PanicInfo>>,
    obs: ObsCtx<'a>,
    resumed: bool,
    start: Instant,
}

impl<'a> Pool<'a> {
    /// The one seeding step: a pool of `workers` over the ordered graph
    /// `h`, seeded with `resume` or the root sweep, plus the workers'
    /// own deques. Fires `segment_start`.
    fn seed(
        h: &'a BipartiteGraph,
        opts: &MbeOptions,
        control: &'a RunControl,
        resume: Option<&'a [ResumeTask]>,
        obs: ObsCtx<'a>,
        workers: usize,
    ) -> (Self, Vec<Worker<ResumeTask>>) {
        let seed = match resume {
            Some(tasks) => Seed::Frontier(tasks.iter()),
            None => Seed::Roots(Roots::new(h, opts)),
        };
        if obs.enabled() {
            // The seed count is only computed when someone is listening.
            let seeded_tasks = match &seed {
                Seed::Roots(roots) => roots.clone().count(),
                Seed::Frontier(tasks) => tasks.len(),
            };
            obs.segment_start(&SegmentInfo {
                driver: if workers == 1 { DriverKind::Serial } else { DriverKind::Parallel },
                workers,
                seeded_tasks: seeded_tasks as u64,
                resumed: resume.is_some(),
            });
        }
        let locals: Vec<Worker<ResumeTask>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let pool = Pool {
            seed: Mutex::new(seed),
            injector: Injector::new(),
            stealers: locals.iter().map(Worker::stealer).collect(),
            pending: AtomicU64::new(0),
            state: ControlState::with_obs(control, obs),
            frontier: Mutex::new(Vec::new()),
            panic_slot: Mutex::new(None),
            obs,
            resumed: resume.is_some(),
            start: Instant::now(),
        };
        (pool, locals)
    }

    /// The one finish: merges the workers' stats and telemetry, checks
    /// the run's invariants (a completed threaded run is recounted on
    /// one worker), fires `segment_end` and hands back the outcome.
    fn finish(
        self,
        g: &BipartiteGraph,
        opts: &MbeOptions,
        workers: Vec<(Stats, WorkerMetrics)>,
    ) -> RunOutcome {
        let threaded = workers.len() > 1;
        let mut stats = Stats::default();
        let mut metrics = RunMetrics::default();
        for (st, wm) in workers {
            stats.merge(&st);
            metrics.workers.push(wm);
        }
        let stop = self.state.reason();
        if let Seed::Roots(roots) = self.seed.into_inner().unwrap_or_else(PoisonError::into_inner) {
            stats.batched += roots.batched;
        }
        // Every exit path — completion or drain-after-stop — leaves the
        // pending counter at zero; asserted unconditionally.
        crate::invariants::check_drained(self.pending.load(Ordering::SeqCst));
        if stop.is_complete() {
            // Holds for resumed segments too: every frontier task's
            // subtree ran to completion, and the identity composes.
            crate::invariants::check_counter_identity(&stats);
            if threaded && !self.resumed {
                // The recount compares against a full one-worker run; it
                // is meaningless for a resumed segment.
                crate::invariants::check_parallel_run(g, opts, &stats);
            }
        }
        stats.elapsed = self.start.elapsed();
        self.obs.segment_end(stop, &stats);
        RunOutcome {
            stats,
            stop,
            frontier: self.frontier.into_inner().unwrap_or_else(PoisonError::into_inner),
            metrics,
            panic: self.panic_slot.into_inner().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Pops the next task: the worker's own deque first, then the
    /// injector of split children, then the seed, then peers. Children
    /// go before new roots, so the queue of split children stays short.
    /// `None` means every source was *observed empty*.
    fn next_task(&self, local: &Worker<ResumeTask>) -> Option<(ResumeTask, TaskSource)> {
        if let Some(t) = local.pop() {
            return Some((t, TaskSource::Own));
        }
        if let Steal::Success(t) = self.injector.steal_batch_and_pop(local) {
            return Some((t, TaskSource::Own));
        }
        if let Some(t) = self.take_seed() {
            return Some((t, TaskSource::Own));
        }
        self.steal(local)
    }

    /// The next task of the seed, counted pending before the seed is
    /// unlocked, so no worker sees the seed and the pending count empty
    /// while a peer holds a task.
    fn take_seed(&self) -> Option<ResumeTask> {
        let mut seed = self.seed.lock().unwrap_or_else(PoisonError::into_inner);
        let task = seed.next()?;
        self.pending.fetch_add(1, Ordering::SeqCst);
        Some(task)
    }

    /// Takes a task from the injector (a batch into `local`) or a peer.
    /// Retries while any source reports [`Steal::Retry`] (a racing
    /// steal), so `None` means every source was observed empty.
    fn steal(&self, local: &Worker<ResumeTask>) -> Option<(ResumeTask, TaskSource)> {
        loop {
            let mut retry = false;
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(t) => return Some((t, TaskSource::Own)),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for s in &self.stealers {
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

    /// Post-stop cleanup: moves queued tasks into the frontier
    /// (decrementing the pending counter) until the pool is empty, then
    /// the untaken seed, in order. Peers still finishing a task may push
    /// split children meanwhile; they are drained too, and the loop
    /// terminates because in-flight tasks are finite and no new work is
    /// started once every worker observes the stop.
    fn drain(&self, local: &Worker<ResumeTask>) {
        let backoff = Backoff::new();
        loop {
            while let Some(task) = local.pop().or_else(|| self.steal(local).map(|(t, _)| t)) {
                self.frontier.lock().unwrap_or_else(PoisonError::into_inner).push(task);
                self.pending.fetch_sub(1, Ordering::SeqCst);
                backoff.reset();
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            backoff.snooze();
        }
        let rest: Vec<ResumeTask> =
            self.seed.lock().unwrap_or_else(PoisonError::into_inner).by_ref().collect();
        self.frontier.lock().unwrap_or_else(PoisonError::into_inner).extend(rest);
    }

    /// Records the first contained panic of the run; later ones are
    /// dropped (the pool is already stopping).
    fn note_panic(&self, task: &ResumeTask, payload: &(dyn std::any::Any + Send)) {
        let mut slot = self.panic_slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(PanicInfo { task: describe_task(task), payload: panic_payload(payload) });
        }
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

/// A short human-readable description of a task, built only on panic.
fn describe_task(task: &ResumeTask) -> String {
    match task {
        ResumeTask::Root(v) => format!("root task v={v}"),
        ResumeTask::Node { l, v, p, q, .. } => {
            format!("node task v={v} |L|={} |P|={} |Q|={}", l.len(), p.len(), q.len())
        }
    }
}

/// A taken task's place in the pending count, released on drop.
struct Held<'p>(&'p AtomicU64);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One worker of `pool`, over the ordered graph `h` whose right ids map
/// back through `perm`: runs tasks until the pool is empty or the run
/// stops (then drains), delivering into `sink` in caller ids, and
/// returns the worker's stats and telemetry. Splits only when the pool
/// has more than one worker.
fn worker_loop<S: BicliqueSink>(
    pool: &Pool<'_>,
    local: &Worker<ResumeTask>,
    h: &BipartiteGraph,
    perm: &[u32],
    opts: &MbeOptions,
    sink: &mut S,
    obs: ObsCtx<'_>,
) -> (Stats, WorkerMetrics) {
    let mut runner = TaskRunner::new(h, perm, opts, pool.stealers.len() > 1);
    let mut stats = Stats::default();
    let mut wm = WorkerMetrics::new(obs.worker);
    let backoff = Backoff::new();
    // Fires `on_idle` once per idle *period* (transition into idleness),
    // not per snooze; `wm.idle_wakeups` counts every snooze.
    let mut idle = false;
    // Record a pre-cancelled / pre-expired control or a zero node budget
    // before doing any work.
    let _ = pool.state.note_task(0);
    loop {
        if pool.state.stopped().is_some() {
            pool.drain(local);
            break;
        }
        let Some((task, source)) = pool.next_task(local) else {
            // Every source came up empty. Either the pool is done
            // (`pending` drained) or peers are still expanding nodes
            // that may yet split — back off exponentially (spin, then
            // yield) instead of burning a core on a bare yield loop. The
            // idle loop doubles as the passive cancellation/deadline
            // observation point.
            if pool.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            if !idle {
                idle = true;
                obs.idle();
            }
            wm.idle_wakeups += 1;
            pool.state.check_idle();
            backoff.snooze();
            continue;
        };
        // The task leaves the ledger when this iteration ends, unwinding
        // included: peers never wait on a task a dead worker held.
        let _held = Held(&pool.pending);
        backoff.reset();
        idle = false;
        if source == TaskSource::Peer {
            wm.steals += 1;
            obs.steal();
        }

        let nodes_before = stats.nodes;
        let result = {
            let mut recording = RecordingSink::with_base(&mut *sink, obs, stats.emitted);
            let mut controlled = ControlledSink::new(&pool.state, &mut recording);
            runner.run(&task, &mut controlled, &mut stats, obs, &mut wm)
        };
        let flow = match result {
            Ok(flow) => {
                // A split's children, or a stopped task's remainder.
                let left = runner.take_frontier();
                match flow {
                    ControlFlow::Continue(()) => {
                        if !left.is_empty() {
                            pool.pending.fetch_add(left.len() as u64, Ordering::SeqCst);
                            left.into_iter().for_each(|child| pool.injector.push(child));
                        }
                        // Task-boundary accounting feeds the node budget.
                        pool.state.note_task(stats.nodes - nodes_before)
                    }
                    ControlFlow::Break(r) => {
                        pool.frontier.lock().unwrap_or_else(PoisonError::into_inner).extend(left);
                        ControlFlow::Break(r)
                    }
                }
            }
            // The panicked task is NOT captured: it may have partially
            // emitted, and re-running it would risk duplicates.
            Err(payload) => {
                pool.note_panic(&task, payload.as_ref());
                ControlFlow::Break(StopReason::WorkerPanicked)
            }
        };
        if let ControlFlow::Break(r) = flow {
            pool.state.note_stop(r);
            // The loop top switches to drain mode.
        }
    }
    // A worker's delivered count is exactly its stats delta (engines
    // bump `stats.emitted` only after a full-chain Continue).
    wm.emitted = stats.emitted;
    (stats, wm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use crate::{Algorithm, Enumeration};
    use bigraph::order::VertexOrder;
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
    /// panic, on one worker as on two: the pool stops and reports it
    /// rather than waiting forever for the task the panicking worker
    /// never finished. One worker leaves the seed it never took in the
    /// frontier. The frontier bypasses `Checkpoint::matches`, which
    /// would reject it.
    #[test]
    fn root_build_panic_stops_the_pool() {
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let g = g0();
                let frontier = [ResumeTask::Root(g.num_v() + 1), ResumeTask::Root(0)];
                let opts = MbeOptions::new(Algorithm::Mbet).threads(threads);
                let out =
                    par_run(&g, &opts, &RunControl::new(), Some(&frontier), ObsCtx::noop(), |_| {
                        CountSink::default()
                    })
                    .map(|par| {
                        let tasks = (par.out.metrics.total_tasks(), par.out.stats.tasks);
                        (par.out.stop, par.out.panic.map(|p| p.task), tasks, par.out.frontier)
                    });
                let _ = tx.send(out);
            });
            // A hang fails here instead of blocking the suite.
            let out = rx.recv_timeout(std::time::Duration::from_secs(60));
            assert!(!matches!(out, Err(RecvTimeoutError::Timeout)), "threads={threads}: hung");
            assert!(run.join().is_ok(), "threads={threads}: par_run let the panic escape");
            let (stop, task, (metric_tasks, stats_tasks), frontier) = match out {
                Ok(Ok(done)) => done,
                other => panic!("threads={threads}: par_run failed: {other:?}"),
            };
            assert_eq!(stop, StopReason::WorkerPanicked, "threads={threads}");
            assert_eq!(task.as_deref(), Some("root task v=5"), "threads={threads}");
            // A root that panics while building never opened a task.
            assert_eq!(metric_tasks, stats_tasks, "threads={threads}");
            if threads == 1 {
                assert_eq!(frontier, [ResumeTask::Root(0)]);
            }
        }
    }

    /// A panic outside every task (here in an observer's
    /// `on_task_finish`) fails the run with `MbeError::WorkerPanicked` at
    /// every thread count: the dying worker releases the task it held,
    /// so its peers finish instead of waiting on it forever.
    #[test]
    fn panic_outside_a_task_fails_the_run_without_hanging() {
        struct PanicOnFourthFinish(AtomicU64);
        impl crate::Observer for PanicOnFourthFinish {
            fn on_task_finish(
                &self,
                _worker: usize,
                _task: &crate::obs::TaskInfo,
                _elapsed: std::time::Duration,
                _delta: &crate::obs::TaskDelta,
            ) {
                if self.0.fetch_add(1, Ordering::SeqCst) == 3 {
                    panic!("observer panic");
                }
            }
        }
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let edges: Vec<(u32, u32)> = (0..8)
                    .flat_map(|u| (0..8).filter(move |&v| v != u).map(move |v| (u, v)))
                    .collect();
                let g = BipartiteGraph::from_edges(8, 8, &edges).unwrap();
                let obs = PanicOnFourthFinish(AtomicU64::new(0));
                let out = Enumeration::new(&g).threads(threads).observer(&obs).count();
                let _ = tx.send(out.map(|report| report.stop));
            });
            // A hang fails here instead of blocking the suite.
            let out = rx.recv_timeout(std::time::Duration::from_secs(60));
            assert!(!matches!(out, Err(RecvTimeoutError::Timeout)), "threads={threads}: hung");
            assert_eq!(out.ok(), Some(Err(MbeError::WorkerPanicked)), "threads={threads}");
        }
    }

    /// Forced splitting at 2 threads on the graph of
    /// `mbet::tests::batching_reduces_work_on_duplicated_neighborhoods`:
    /// the root v0 runs its first node on the engine, so its five-way
    /// equivalence group queues one child, and the run searches the
    /// serial run's tree.
    #[test]
    fn forced_split_queues_one_child_per_equivalence_group() {
        let mut edges = vec![(0u32, 0u32), (1, 0), (2, 0)];
        for v in 1..=5 {
            edges.push((0, v));
            edges.push((1, v));
        }
        let g = BipartiteGraph::from_edges(3, 6, &edges).unwrap();
        let opts = MbeOptions::new(Algorithm::Mbet).order(VertexOrder::Natural);
        let serial = Enumeration::new(&g).options(opts.clone()).count().unwrap().stats;
        let mut forced = opts.threads(2);
        forced.split_height = 0;
        forced.split_size = 0;
        let split = Enumeration::new(&g).options(forced).count().unwrap().stats;
        let counters = |s: &Stats| (s.nodes, s.nonmaximal, s.batched, s.emitted);
        assert_eq!(counters(&serial), (3, 1, 8, 2));
        assert_eq!(counters(&split), counters(&serial));
        // The roots v0 and v1, plus the one child v0's group queued.
        assert_eq!(split.tasks, 3);
    }

    /// One worker never splits, even at zero thresholds, and a stop
    /// captures the in-flight task's remainder followed by the roots it
    /// never took, in order.
    #[test]
    fn one_worker_never_splits_and_drains_the_seed_in_order() {
        let g = g0();
        let mut opts = MbeOptions::new(Algorithm::Mbet).order(VertexOrder::Natural);
        opts.split_height = 0;
        opts.split_size = 0;
        let full = Enumeration::new(&g).options(opts.clone()).count().unwrap();
        assert_eq!(full.stats.tasks, u64::from(g.num_v()), "one task per root");
        let stopped = Enumeration::new(&g).options(opts).max_bicliques(1).collect().unwrap();
        let frontier = stopped.checkpoint.expect("a budget stop checkpoints").frontier;
        let roots = frontier.iter().position(|t| matches!(t, ResumeTask::Root(_)));
        let (remainder, untaken) = frontier.split_at(roots.unwrap_or(frontier.len()));
        assert!(remainder.iter().all(|t| matches!(t, ResumeTask::Node { .. })));
        let next = stopped.stats.tasks as u32;
        let want: Vec<ResumeTask> = (next..g.num_v()).map(ResumeTask::Root).collect();
        assert_eq!(untaken, want.as_slice());
    }

    fn thresholds(split_height: usize, split_size: usize) -> MbeOptions {
        let mut opts = MbeOptions::new(Algorithm::Mbet);
        opts.split_height = split_height;
        opts.split_size = split_size;
        opts
    }

    #[test]
    fn est_size_uses_saturating_product() {
        // |L| = 3, 5 candidates ⇒ height 3, size 15; the saturating
        // product is unit-tested in `task`.
        assert_eq!(crate::task::est_tree(3, 5), (3, 15));
    }

    #[test]
    fn should_split_boundaries() {
        let splits = |opts: &MbeOptions| crate::task::splits(opts, 5, 10); // height 5, size 50

        // Zero thresholds: any task with a non-trivial estimate splits.
        assert!(splits(&thresholds(0, 0)));
        // Comparisons are strict: estimates equal to a threshold don't split.
        assert!(!splits(&thresholds(5, 0)));
        assert!(!splits(&thresholds(0, 50)));
        assert!(splits(&thresholds(4, 49)));
        // usize::MAX thresholds can never be exceeded (the size saturates
        // at usize::MAX, and `>` is strict), so splitting is fully off.
        assert!(!splits(&thresholds(usize::MAX, 0)));
        assert!(!splits(&thresholds(0, usize::MAX)));
        assert!(!splits(&thresholds(usize::MAX, usize::MAX)));

        // A task with no candidates estimates zero and never splits, even
        // at zero thresholds.
        assert_eq!(crate::task::est_tree(5, 0), (0, 0));
        assert!(!crate::task::splits(&thresholds(0, 0), 5, 0));
    }
}
