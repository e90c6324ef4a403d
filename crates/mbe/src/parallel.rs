//! Work-stealing parallel driver with load-aware task splitting.
//!
//! The pool's unit of work is a [`ResumeTask`]: a root (one per right
//! vertex, see [`crate::task`]) or an interior node. Roots are queued as
//! bare vertex ids, and the worker that picks one up builds its
//! 1-hop/2-hop universe, so that part of the preprocessing parallelizes
//! too. Real bipartite graphs are power-law skewed, so a handful of root
//! tasks can dominate the runtime; following the load-aware scheme of
//! the parallel MBE literature, a task whose estimated tree height
//! `min(|L|,|P|)` exceeds `opts.split_height` and whose size
//! `min(|L|,|P|)·|P|` exceeds `opts.split_size` is *split*: the worker's
//! engine expands just that node (bound, check, absorb, emit, with all of
//! its bookkeeping) and, instead of recursing, hands back each child it
//! would have expanded as a `Node` task, which the worker enqueues.
//! Splitting recurses until estimates fall under the bounds, so no worker
//! is left holding a monolithic subtree while others idle, and a
//! threaded run searches exactly the serial run's tree.
//!
//! Every worker owns a private `task::TaskRunner` (engine scratch reuse)
//! and a private sink; per-worker sinks and [`Stats`] are returned to the
//! caller for merging.
//!
//! **Stopping.** Workers share one `ControlState`: emissions are gated
//! through it (so `max_emitted` budgets are exact even here), and the
//! cancellation flag / deadline are additionally observed in the idle
//! [`Backoff`] loop. Once a stop is recorded, every worker switches to
//! *drain* mode — it keeps popping queued tasks into the captured
//! frontier, decrementing the pending counter, until the pool is empty —
//! so the pending counter always reaches zero and is asserted
//! ([`crate::invariants::check_drained`]) on every run, stopped or not.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::checkpoint::ResumeTask;
use crate::metrics::{RunMetrics, Stats, WorkerMetrics};
use crate::obs::{DriverKind, ObsCtx, RecordingSink, SegmentInfo};
use crate::run::{ControlState, ControlledSink, MbeError, RunControl, RunOutcome, StopReason};
use crate::sink::BicliqueSink;
use crate::task::{root_reps, Roots, TaskRunner};
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

    let injector: Injector<ResumeTask> = Injector::new();
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
                // Once per checkpointed task at startup, cold; the queued
                // task owns its sets.
                injector.push(t.clone()); // xtask-allow: hot-alloc-loop (startup resume seeding)
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
                injector.push(ResumeTask::Root(v));
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

    let workers: Vec<Worker<ResumeTask>> = (0..threads).map(|_| Worker::new_lifo()).collect();
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
                    let mut wm = WorkerMetrics::new(wid);
                    let pool = Pool { local: &local, injector, stealers, pending };
                    worker_loop(
                        h,
                        perm,
                        opts,
                        &pool,
                        state,
                        &mut sink,
                        &mut stats,
                        frontier,
                        panic_slot,
                        obs.for_worker(wid),
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

/// One worker's view of the task pool: its own deque, the shared
/// injector, the peers' stealers, and the count of queued or running
/// tasks.
struct Pool<'a> {
    local: &'a Worker<ResumeTask>,
    injector: &'a Injector<ResumeTask>,
    stealers: &'a [Stealer<ResumeTask>],
    pending: &'a AtomicU64,
}

impl Pool<'_> {
    /// Pops the next task: local deque first, then the injector, then
    /// peers. Retries while any source reports [`Steal::Retry`] (a racing
    /// steal), so `None` means every source was *observed empty* — same
    /// semantics as the crossbeam `find(!Retry)` idiom this replaces.
    fn next_task(&self) -> Option<(ResumeTask, TaskSource)> {
        if let Some(t) = self.local.pop() {
            return Some((t, TaskSource::Local));
        }
        loop {
            let mut retry = false;
            match self.injector.steal_batch_and_pop(self.local) {
                Steal::Success(t) => return Some((t, TaskSource::Injector)),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for s in self.stealers {
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

    /// Post-stop cleanup: moves queued tasks into the shared `frontier`
    /// (decrementing the pending counter) until the pool is empty — what
    /// used to be discarded is now exactly the checkpointable remainder.
    /// Peers still finishing a task may push split children meanwhile;
    /// they are drained too, and the loop terminates because in-flight
    /// tasks are finite and no new work is started once every worker
    /// observes the stop.
    fn drain_into(&self, frontier: &Mutex<Vec<ResumeTask>>) {
        let backoff = Backoff::new();
        loop {
            while let Some((task, _)) = self.next_task() {
                frontier.lock().unwrap_or_else(PoisonError::into_inner).push(task);
                self.pending.fetch_sub(1, Ordering::SeqCst);
                backoff.reset();
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            backoff.snooze();
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

/// Records the first contained panic of the run; later ones are
/// dropped (the pool is already stopping).
fn note_panic(
    slot: &Mutex<Option<PanicInfo>>,
    task: &ResumeTask,
    payload: &(dyn std::any::Any + Send),
) {
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.is_none() {
        *slot = Some(PanicInfo { task: describe_task(task), payload: panic_payload(payload) });
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

#[allow(clippy::too_many_arguments)]
fn worker_loop<S: BicliqueSink>(
    h: &BipartiteGraph,
    perm: &[u32],
    opts: &MbeOptions,
    pool: &Pool<'_>,
    state: &ControlState<'_>,
    sink: &mut S,
    stats: &mut Stats,
    frontier: &Mutex<Vec<ResumeTask>>,
    panic_slot: &Mutex<Option<PanicInfo>>,
    obs: ObsCtx<'_>,
    wm: &mut WorkerMetrics,
) {
    let mut runner = TaskRunner::new(h, opts, true);
    let backoff = Backoff::new();
    // Fires `on_idle` once per idle *period* (transition into idleness),
    // not per snooze; `wm.idle_wakeups` counts every snooze.
    let mut idle = false;
    // Record a pre-cancelled / pre-expired control before doing any work.
    state.check_idle();
    loop {
        if state.stopped().is_some() {
            pool.drain_into(frontier);
            return;
        }
        let Some((task, source)) = pool.next_task() else {
            // Injector and every stealer came up empty. Either the pool is
            // done (`pending` drained) or peers are still expanding nodes
            // that may yet split — back off exponentially (spin, then
            // yield) instead of burning a core on a bare yield loop. The
            // idle loop doubles as the passive cancellation/deadline
            // observation point.
            if pool.pending.load(Ordering::SeqCst) == 0 {
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

        let nodes_before = stats.nodes;
        let result = {
            let mut mapped = crate::sink::map_right(sink, perm);
            let mut recording = RecordingSink::with_base(&mut mapped, obs, stats.emitted);
            let mut controlled = ControlledSink::new(state, &mut recording);
            runner.run(&task, &mut controlled, stats, obs, wm)
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
                        state.note_task(stats.nodes - nodes_before)
                    }
                    ControlFlow::Break(r) => {
                        frontier.lock().unwrap_or_else(PoisonError::into_inner).extend(left);
                        ControlFlow::Break(r)
                    }
                }
            }
            // The panicked task is NOT captured: it may have partially
            // emitted, and re-running it would risk duplicates.
            Err(payload) => {
                note_panic(panic_slot, &task, payload.as_ref());
                ControlFlow::Break(StopReason::WorkerPanicked)
            }
        };
        pool.pending.fetch_sub(1, Ordering::SeqCst);
        if let ControlFlow::Break(r) = flow {
            state.note_stop(r);
            // The loop top switches to drain mode.
        }
    }
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
                .map(|par| {
                    let tasks = (par.out.metrics.total_tasks(), par.out.stats.tasks);
                    (par.out.stop, par.out.panic.map(|p| p.task), tasks)
                });
            let _ = tx.send(out);
        });
        // A hang fails here instead of blocking the suite.
        let out = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(!matches!(out, Err(RecvTimeoutError::Timeout)), "the pool hung");
        assert!(run.join().is_ok(), "par_run let the panic escape");
        let (stop, task, (metric_tasks, stats_tasks)) = match out {
            Ok(Ok(done)) => done,
            other => panic!("par_run failed: {other:?}"),
        };
        assert_eq!(stop, StopReason::WorkerPanicked);
        assert_eq!(task.as_deref(), Some("root task v=5"));
        // A root that panics while building never opened a task.
        assert_eq!(metric_tasks, stats_tasks);
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
