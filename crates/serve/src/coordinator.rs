//! Coordinator mode: fault-tolerant sharded enumeration across workers.
//!
//! A coordinator is an ordinary `mbe-serve` instance that answers the
//! unchanged client protocol, but executes shardable queries by
//! scatter/gather: the query's root frontier (an
//! [`mbe::checkpoint::initial_checkpoint`]) is [`split`](Checkpoint::split)
//! into size-balanced shards, fanned out to stock workers as
//! `QUERY_SHARD` requests, and the duplicate-free shard replies are
//! merged into one answer carrying a [`DistSummary`].
//!
//! The robustness ladder, in escalation order:
//!
//! 1. **Retry with jittered exponential backoff** — a failed attempt
//!    re-queues its shard; nothing was merged, so re-running the same
//!    checkpoint is exact.
//! 2. **Re-steal** — a worker lost mid-shard (connection died after
//!    dispatch) or answering with a stopped-but-checkpointed reply
//!    (contained panic, shutdown) has its remaining frontier re-queued to
//!    a healthy worker; banked partial output merges with the eventual
//!    completion (the checkpoint contract keeps the union exact).
//! 3. **Quarantine** — workers crossing a consecutive-failure threshold
//!    are sidelined and periodically re-probed with `STATS`.
//! 4. **Speculation** — shards running past a p99-based threshold are
//!    duplicated onto another worker; the first completion wins.
//! 5. **Local fallback** — with every worker quarantined (or a shard's
//!    retry budget exhausted), the remaining frontier is merged and
//!    enumerated locally, and the reply is flagged `degraded`.
//!
//! See DESIGN.md §8c for the full failure matrix.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use bigraph::BipartiteGraph;
use mbe::checkpoint::initial_checkpoint;
use mbe::service::{run_query, QueryParams};
use mbe::{Biclique, Checkpoint, Enumeration, MbeOptions, RunControl, StopReason};

use crate::client::Client;
use crate::health::HealthBoard;
use crate::protocol::{errcode, DistSummary, ShardRequest, TraceContext};
use crate::shard::ShardBoard;
use crate::span::SpanLog;
use crate::telemetry::{ServerMetrics, WorkerStatus};
use crate::ServeError;

/// Main-loop pacing: how often the coordinator rechecks cancellation,
/// deadline, health, and stragglers.
const POLL: Duration = Duration::from_millis(10);

/// Sleep slice for backoff/quarantine waits, so draining stays prompt.
const SLEEP_SLICE: Duration = Duration::from_millis(25);

/// Tunables of a coordinator. [`CoordinatorConfig::new`] applies the
/// defaults; everything is overridable field-by-field.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker addresses (`host:port`) to fan shards out to.
    pub workers: Vec<String>,
    /// Frontier shards cut per worker (more shards = finer re-steal
    /// granularity and better balance, at more per-shard overhead).
    pub shards_per_worker: u32,
    /// Failed attempts a shard may accumulate before it is stranded and
    /// handed to the fallback ladder.
    pub max_attempts: u32,
    /// First retry backoff; doubles per consecutive failure of a worker.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-attempt reply budget: a worker silent for this long loses the
    /// shard (it is re-stolen) even if the connection stays open.
    pub attempt_timeout: Duration,
    /// Straggler threshold multiplier over the p99 shard completion time.
    pub speculate_factor: f64,
    /// Floor of the straggler threshold — never speculate earlier.
    pub speculate_min: Duration,
    /// Reply budget for health probes and load broadcasts.
    pub probe_patience: Duration,
    /// Consecutive failures that quarantine a worker.
    pub quarantine_after: u32,
    /// How long a quarantined worker sits out before re-probing.
    pub quarantine_for: Duration,
    /// When every worker is lost (or a shard strands), enumerate the
    /// remaining frontier locally and flag the reply `degraded` instead
    /// of failing with `no-workers`.
    pub local_fallback: bool,
}

impl CoordinatorConfig {
    /// Defaults sized for a small LAN deployment.
    pub fn new(workers: Vec<String>) -> Self {
        CoordinatorConfig {
            workers,
            shards_per_worker: 4,
            max_attempts: 4,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            attempt_timeout: Duration::from_secs(3600),
            speculate_factor: 3.0,
            speculate_min: Duration::from_secs(2),
            probe_patience: Duration::from_secs(2),
            quarantine_after: 3,
            quarantine_for: Duration::from_secs(5),
            local_fallback: true,
        }
    }
}

/// A distributed query's merged result plus provenance.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Why the distributed run ended.
    pub stop: StopReason,
    /// Merged emission count across shards.
    pub emitted: u64,
    /// Wall-clock of the whole scatter/gather, microseconds.
    pub elapsed_us: u64,
    /// Merged bicliques (duplicate-free by the first-writer rule).
    pub bicliques: Vec<Biclique>,
    /// Serialized merged checkpoint of the unfinished remainder, for
    /// stopped (cancelled/deadline) distributed runs.
    pub checkpoint: Option<Vec<u8>>,
    /// Distribution provenance for the reply.
    pub dist: DistSummary,
}

/// Why a distributed query failed outright (not merely degraded).
#[derive(Debug, Clone)]
pub enum DistError {
    /// Every worker is lost and local fallback is disabled.
    NoWorkers,
    /// An unrecoverable coordinator-side failure.
    Internal(String),
}

impl DistError {
    /// The matching protocol error code.
    pub fn code(&self) -> u8 {
        match self {
            DistError::NoWorkers => errcode::NO_WORKERS,
            DistError::Internal(_) => errcode::INTERNAL,
        }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NoWorkers => {
                f.write_str("all workers lost or quarantined and local fallback is disabled")
            }
            DistError::Internal(m) => write!(f, "distributed query failed: {m}"),
        }
    }
}

/// Long-lived coordinator state: worker health persists across queries,
/// so a worker quarantined by one query stays sidelined for the next.
pub(crate) struct Coordinator {
    cfg: CoordinatorConfig,
    health: HealthBoard,
    /// Graph name → server-side path, recorded at `LOAD` so a worker
    /// answering `unknown-graph` can be brought up to date lazily.
    hints: Mutex<HashMap<String, String>>,
}

impl Coordinator {
    pub(crate) fn new(cfg: CoordinatorConfig) -> Self {
        let health = HealthBoard::new(cfg.workers.len());
        Coordinator { cfg, health, hints: Mutex::new(HashMap::new()) }
    }

    /// Records a successful `LOAD` and broadcasts it to every worker,
    /// best-effort — a worker that misses it is caught up lazily when a
    /// shard bounces with `unknown-graph`. The broadcast runs on a
    /// detached thread: serial probes of dead workers would otherwise
    /// stack `probe_patience` timeouts onto the client's `LOAD` reply.
    pub(crate) fn note_load(&self, name: &str, path: &str) {
        self.hints
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), path.to_string());
        let workers = self.cfg.workers.clone();
        let patience = self.cfg.probe_patience;
        let name = name.to_string();
        let path = path.to_string();
        let _ = std::thread::Builder::new().name("mbe-coord-load".into()).spawn(move || {
            for addr in workers {
                if let Ok(client) = Client::connect(addr.as_str()) {
                    let _ = client.wait(patience).load(&name, &path);
                }
            }
        });
    }

    /// Per-worker health telemetry, index-aligned with
    /// [`CoordinatorConfig::workers`].
    pub(crate) fn worker_status(&self) -> Vec<WorkerStatus> {
        self.health.status()
    }

    /// Executes one shardable query by scatter/gather. `deadline` is the
    /// query's admission-time deadline (`control` carries the matching
    /// cancellation flag). `metrics` receives live shard-attempt
    /// counters; `span` receives the query's distributed span log (both
    /// optional — telemetry never gates enumeration).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        graph: &BipartiteGraph,
        graph_name: &str,
        params: &QueryParams,
        control: &RunControl,
        deadline: Option<Instant>,
        metrics: Option<&ServerMetrics>,
        span: Option<&SpanLog>,
    ) -> Result<DistOutcome, DistError> {
        let started = Instant::now();
        let workers = self.cfg.workers.len() as u32;
        let opts = MbeOptions::new(params.algorithm).order(params.order);
        let whole = initial_checkpoint(graph, &opts);
        if whole.frontier.is_empty() {
            if let Some(s) = span {
                s.coord_start(0, u64::from(workers));
                s.coord_end("completed", 0, 0, 0, false);
            }
            return Ok(DistOutcome {
                stop: StopReason::Completed,
                emitted: 0,
                elapsed_us: started.elapsed().as_micros() as u64,
                bicliques: Vec::new(),
                checkpoint: None,
                dist: DistSummary { workers, ..DistSummary::default() },
            });
        }
        let target = self.cfg.workers.len().max(1) * self.cfg.shards_per_worker.max(1) as usize;
        let parts = whole
            .split(graph, target)
            .map_err(|e| DistError::Internal(format!("frontier split failed: {e}")))?;
        let board = ShardBoard::new(parts, self.cfg.max_attempts);
        let shards = board.shard_count() as u32;
        if let Some(s) = span {
            s.coord_start(u64::from(shards), u64::from(workers));
        }

        let mut stop = StopReason::Completed;
        let mut degraded = false;
        let mut tail: Option<Vec<u8>> = None;
        let mut error: Option<DistError> = None;

        std::thread::scope(|scope| {
            for (widx, addr) in self.cfg.workers.iter().enumerate() {
                let board = &board;
                scope.spawn(move || {
                    self.drive_worker(
                        widx, addr, board, graph_name, params, deadline, metrics, span,
                    );
                });
            }
            loop {
                let seen = board.changes();
                if board.finished() {
                    break;
                }
                if control.is_cancelled() {
                    stop = StopReason::Cancelled;
                    tail = claim_tail(&board);
                    break;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stop = StopReason::Deadline;
                    tail = claim_tail(&board);
                    break;
                }
                let no_workers = self.health.healthy_count() == 0;
                if no_workers || board.has_stranded() {
                    if !self.cfg.local_fallback {
                        error = Some(if no_workers {
                            DistError::NoWorkers
                        } else {
                            DistError::Internal("a shard exhausted its retry budget".into())
                        });
                        break;
                    }
                    match self.run_locally(graph, params, control, &board, metrics, span) {
                        // The trigger resolved itself (e.g. a running
                        // speculative attempt completed the stranded
                        // shard): nothing ran locally, nothing degraded.
                        Ok(LocalRun::NothingPending) => {}
                        Ok(LocalRun::Completed) => degraded = true,
                        Ok(LocalRun::Stopped(local_stop, local_tail)) => {
                            degraded = true;
                            stop = local_stop;
                            tail = local_tail;
                            break;
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                    continue;
                }
                if let Some(p99) = board.p99_duration() {
                    let threshold =
                        self.cfg.speculate_min.max(p99.mul_f64(self.cfg.speculate_factor.max(0.0)));
                    for (idx, epoch) in board.speculate_stragglers(threshold) {
                        if let Some(s) = span {
                            s.speculate(idx as u64, u64::from(epoch));
                        }
                    }
                }
                board.wait_for_change(seen, POLL);
            }
            board.abort();
        });

        if let Some(e) = error {
            if let Some(s) = span {
                s.coord_end("error", 0, 0, 0, false);
            }
            return Err(e);
        }
        let (bicliques, emitted, counters) = board.finish();
        if let Some(s) = span {
            s.coord_end(
                stop.label(),
                u64::from(counters.retries),
                u64::from(counters.resteals),
                u64::from(counters.speculated),
                degraded,
            );
        }
        Ok(DistOutcome {
            stop,
            emitted,
            elapsed_us: started.elapsed().as_micros() as u64,
            bicliques,
            checkpoint: tail,
            dist: DistSummary {
                workers,
                shards,
                retries: counters.retries,
                resteals: counters.resteals,
                speculated: counters.speculated,
                degraded,
            },
        })
    }

    /// Claims the remaining frontier and enumerates it on this thread
    /// (the degradation terminal). Only [`LocalRun::Completed`] and
    /// [`LocalRun::Stopped`] mean local work actually ran — the caller
    /// sets the `degraded` flag on exactly those.
    fn run_locally(
        &self,
        graph: &BipartiteGraph,
        params: &QueryParams,
        control: &RunControl,
        board: &ShardBoard,
        metrics: Option<&ServerMetrics>,
        span: Option<&SpanLog>,
    ) -> Result<LocalRun, DistError> {
        let Some((checkpoints, partials, partial_emitted)) = board.claim_pending() else {
            return Ok(LocalRun::NothingPending);
        };
        if let Some(m) = metrics {
            ServerMetrics::add(&m.shard_stranded_claims, checkpoints.len() as u64);
            ServerMetrics::add(&m.shard_fallbacks, 1);
        }
        if let Some(s) = span {
            s.fallback(checkpoints.len() as u64);
        }
        board.merge_local(partials, partial_emitted);
        let merged = Checkpoint::merge(&checkpoints)
            .map_err(|e| DistError::Internal(format!("cannot merge remaining shards: {e}")))?;
        let run = Enumeration::new(graph).control(control.clone()).resume(merged);
        let report = run_query(run, params)
            .map_err(|e| DistError::Internal(format!("local fallback failed: {e}")))?;
        let stopped = report.stop;
        let ckpt = report.checkpoint.as_ref().map(Checkpoint::to_bytes);
        board.merge_local(report.bicliques, report.stats.emitted);
        if stopped == StopReason::Completed {
            Ok(LocalRun::Completed)
        } else {
            Ok(LocalRun::Stopped(stopped, ckpt))
        }
    }

    /// One worker's driver loop: pop shards, execute them remotely,
    /// classify failures, and sit out quarantine with periodic probes.
    #[allow(clippy::too_many_arguments)]
    fn drive_worker(
        &self,
        widx: usize,
        addr: &str,
        board: &ShardBoard,
        graph_name: &str,
        params: &QueryParams,
        deadline: Option<Instant>,
        metrics: Option<&ServerMetrics>,
        span: Option<&SpanLog>,
    ) {
        let mut consecutive: u32 = 0;
        loop {
            if !self.serve_quarantine(widx, addr, board) {
                return;
            }
            let Some((idx, epoch, started, ckpt)) = board.next() else { return };
            let span_id = span.map(|s| s.dispatch(idx as u64, u64::from(epoch), widx as u64));
            if let Some(m) = metrics {
                ServerMetrics::add(&m.shard_dispatches, 1);
            }
            let trace = span
                .zip(span_id)
                .map(|(s, sid)| TraceContext { trace_id: s.trace_id(), parent_span: sid });
            let outcome = self.attempt(addr, graph_name, params, deadline, board, &ckpt, trace);
            // Health is charged by outcome *kind*, not by what the board
            // does with the result: an aborted attempt in particular
            // charges nothing — the merged result was already decided,
            // and the worker may be perfectly healthy (see DESIGN §8c).
            match health_charge(&outcome) {
                HealthCharge::Success => {
                    consecutive = 0;
                    self.health.record_success(widx);
                }
                HealthCharge::Failure => {
                    consecutive = consecutive.saturating_add(1);
                    self.health.record_failure(
                        widx,
                        self.cfg.quarantine_after,
                        self.cfg.quarantine_for,
                    );
                }
                HealthCharge::Nothing => {
                    if !matches!(outcome, AttemptOutcome::Aborted) {
                        consecutive = consecutive.saturating_add(1);
                    }
                }
            }
            match outcome {
                AttemptOutcome::Completed(bicliques, emitted) => {
                    let accepted = board.complete(idx, epoch, started, bicliques, emitted);
                    if let (Some(s), Some(sid)) = (span, span_id) {
                        if accepted {
                            s.merge(idx as u64, u64::from(epoch), sid, emitted);
                        } else {
                            s.discard(idx as u64, u64::from(epoch), sid);
                        }
                    }
                }
                AttemptOutcome::Stopped(remaining, partial, partial_emitted) => {
                    // The worker answered — it is alive — but lost the
                    // shard (contained panic, shutdown, deadline): bank
                    // the partial and re-steal the remainder.
                    let requeued = board.resteal(idx, epoch, remaining, partial, partial_emitted);
                    if let (Some(s), Some(sid)) = (span, span_id) {
                        if requeued {
                            s.resteal(idx as u64, u64::from(epoch));
                        } else {
                            s.discard(idx as u64, u64::from(epoch), sid);
                        }
                    }
                }
                // Refused: alive but unable to take the shard right now
                // (busy, draining, catching up on graphs).
                AttemptOutcome::Refused { lost_mid_run }
                | AttemptOutcome::Failed { lost_mid_run } => {
                    let disposition = board.fail(idx, epoch, lost_mid_run);
                    if let Some(s) = span {
                        if disposition != crate::shard::FailDisposition::Stale {
                            if lost_mid_run {
                                s.resteal(idx as u64, u64::from(epoch));
                            } else {
                                s.retry(idx as u64, u64::from(epoch));
                            }
                        }
                    }
                    self.sleep_backoff(board, widx, consecutive);
                }
                // The board aborted while this attempt was in flight: the
                // merged result is already decided (completion, cancel,
                // deadline, or fallback), so drain.
                AttemptOutcome::Aborted => {
                    board.fail(idx, epoch, false);
                    return;
                }
            }
        }
    }

    /// While quarantined: sleep out the sentence, then probe with a
    /// `STATS` round trip; success re-admits, failure re-quarantines.
    /// Returns `false` when the board drained while waiting.
    fn serve_quarantine(&self, widx: usize, addr: &str, board: &ShardBoard) -> bool {
        while self.health.is_quarantined(widx) {
            if board.is_aborted() || board.finished() {
                return false;
            }
            let remaining = self.health.quarantine_remaining(widx);
            if remaining > Duration::ZERO {
                std::thread::sleep(remaining.min(SLEEP_SLICE));
                continue;
            }
            let probed =
                Client::connect(addr).and_then(|c| c.wait(self.cfg.probe_patience).stats()).is_ok();
            if probed {
                self.health.record_success(widx);
            } else {
                self.health.record_failure(
                    widx,
                    self.cfg.quarantine_after,
                    self.cfg.quarantine_for,
                );
            }
        }
        !(board.is_aborted() || board.finished())
    }

    /// One remote shard attempt, classified for the driver loop. The
    /// reply wait is abandoned (→ [`AttemptOutcome::Aborted`]) as soon
    /// as the board aborts, so a hung worker cannot pin
    /// [`Coordinator::run`] past the moment the merged result is known.
    /// `trace` is the dispatch's span context, stamped onto the worker's
    /// own run trace so the two logs join by trace id.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        addr: &str,
        graph_name: &str,
        params: &QueryParams,
        deadline: Option<Instant>,
        board: &ShardBoard,
        ckpt: &Checkpoint,
        trace: Option<TraceContext>,
    ) -> AttemptOutcome {
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let wait = remaining.map_or(self.cfg.attempt_timeout, |r| r.min(self.cfg.attempt_timeout));
        let client = match Client::connect(addr) {
            Ok(c) => c.wait(wait),
            Err(_) => return AttemptOutcome::Failed { lost_mid_run: false },
        };
        let mut client = client;
        let request = ShardRequest {
            graph: graph_name.to_string(),
            params: QueryParams { timeout: remaining, ..params.clone() },
            max_return: u32::MAX,
            checkpoint: ckpt.to_bytes(),
            trace,
        };
        match client.query_shard_until(request, &|| board.is_aborted()) {
            // A reply whose advertised total exceeds the bicliques it
            // actually carries was clipped in transit (a worker applying
            // its client-facing `max_return` cap to an internal shard —
            // a contract violation, see DESIGN §8c). Merging it would
            // silently under-count, and a Completed outcome would cache
            // the truncated list; treat the shard as lost instead, so
            // the retry/strand/fallback ladder keeps the result exact.
            Ok(reply) if truncated(&reply) => AttemptOutcome::Refused { lost_mid_run: true },
            Ok(reply) if reply.stop == StopReason::Completed => {
                AttemptOutcome::Completed(reply.bicliques, reply.emitted)
            }
            Ok(reply) => match reply.checkpoint.as_deref().map(Checkpoint::from_bytes) {
                // A contained panic's checkpoint is best-effort — the
                // panicked task itself is excluded (see mbe's fault
                // tests) — so merging against it would under-count.
                // Every other stop's checkpoint is exact by the resume
                // contract.
                Some(Ok(remaining_ckpt)) if reply.stop != StopReason::WorkerPanicked => {
                    AttemptOutcome::Stopped(remaining_ckpt, reply.bicliques, reply.emitted)
                }
                // No usable checkpoint (or an untrustworthy one):
                // nothing was merged, so discarding the partial and
                // re-running the whole shard from our own record stays
                // exact. That re-run *is* the re-steal.
                _ => AttemptOutcome::Refused { lost_mid_run: true },
            },
            Err(ServeError::Busy { .. }) => AttemptOutcome::Refused { lost_mid_run: false },
            Err(ServeError::Aborted) => AttemptOutcome::Aborted,
            Err(ServeError::Remote { code, .. }) => {
                if code == errcode::UNKNOWN_GRAPH {
                    self.push_graph(addr, graph_name);
                }
                AttemptOutcome::Refused { lost_mid_run: false }
            }
            // Connection died or timed out after dispatch: the worker is
            // lost mid-run; the re-run from our shard record re-steals it.
            Err(_) => AttemptOutcome::Failed { lost_mid_run: true },
        }
    }

    /// Lazily forwards a recorded `LOAD` to a worker that answered
    /// `unknown-graph`.
    fn push_graph(&self, addr: &str, graph_name: &str) {
        let hint =
            self.hints.lock().unwrap_or_else(PoisonError::into_inner).get(graph_name).cloned();
        if let Some(path) = hint {
            if let Ok(client) = Client::connect(addr) {
                let _ = client.wait(self.cfg.probe_patience).load(graph_name, &path);
            }
        }
    }

    /// Jittered exponential backoff, sliced so an abort stays prompt.
    fn sleep_backoff(&self, board: &ShardBoard, widx: usize, consecutive: u32) {
        let mut dur = self.cfg.backoff_base;
        for _ in 1..consecutive.min(16) {
            dur = (dur * 2).min(self.cfg.backoff_cap);
        }
        let seed = (widx as u64) << 32 | u64::from(consecutive);
        let mut left = dur.min(self.cfg.backoff_cap).mul_f64(jitter(seed));
        while left > Duration::ZERO {
            if board.is_aborted() || board.finished() {
                return;
            }
            let slice = left.min(SLEEP_SLICE);
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// How an attempt's outcome charges the worker's health record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HealthCharge {
    /// The worker answered usefully: reset its failure streak.
    Success,
    /// The worker was unreachable or dropped the connection: one strike.
    Failure,
    /// No verdict on the worker. Covers refusals (alive, just busy or
    /// behind on graphs) and aborted attempts (the merged result was
    /// already decided; the worker may be perfectly healthy).
    Nothing,
}

/// Maps an attempt outcome to its health charge — the single place the
/// "aborted attempts charge no failure" rule lives (DESIGN §8c).
fn health_charge(outcome: &AttemptOutcome) -> HealthCharge {
    match outcome {
        AttemptOutcome::Completed(..) | AttemptOutcome::Stopped(..) => HealthCharge::Success,
        AttemptOutcome::Failed { .. } => HealthCharge::Failure,
        AttemptOutcome::Refused { .. } | AttemptOutcome::Aborted => HealthCharge::Nothing,
    }
}

/// What one remote attempt amounted to.
enum AttemptOutcome {
    /// The shard ran to completion: its bicliques and emission count.
    Completed(Vec<Biclique>, u64),
    /// Stopped early with a usable remaining-frontier checkpoint plus
    /// the partial output delivered before the stop.
    Stopped(Checkpoint, Vec<Biclique>, u64),
    /// The worker declined or lost the shard without yielding output.
    Refused { lost_mid_run: bool },
    /// The worker could not be reached or the connection broke.
    Failed { lost_mid_run: bool },
    /// The board aborted mid-wait; the driver should drain.
    Aborted,
}

/// How one local-fallback invocation resolved.
enum LocalRun {
    /// Nothing was pending — no local enumeration ran.
    NothingPending,
    /// The claimed remainder completed locally.
    Completed,
    /// The local run itself was stopped (cancel/deadline): the stop
    /// reason and the serialized remaining checkpoint.
    Stopped(StopReason, Option<Vec<u8>>),
}

/// `true` when a shard reply advertises more bicliques than it carries —
/// it was clipped somewhere and must not be merged. (Count-only shards
/// advertise `total = 0` with an empty list, so they never trip this.)
fn truncated(reply: &crate::protocol::QueryReply) -> bool {
    reply.total > reply.bicliques.len() as u64
}

/// Claims the unfinished remainder and serializes its merged checkpoint
/// (for stopped distributed runs); banked partials merge into the board.
fn claim_tail(board: &ShardBoard) -> Option<Vec<u8>> {
    let (checkpoints, partials, partial_emitted) = board.claim_pending()?;
    board.merge_local(partials, partial_emitted);
    Checkpoint::merge(&checkpoints).ok().map(|m| m.to_bytes())
}

/// Deterministic jitter in `[0.5, 1.5)` from a xorshift-mixed seed — no
/// RNG dependency, and reproducible given the same failure sequence.
fn jitter(seed: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    0.5 + (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    fn test_shards(k: usize) -> Vec<Checkpoint> {
        let g = bigraph::BipartiteGraph::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)],
        )
        .unwrap();
        let opts = MbeOptions::new(mbe::Algorithm::Mbet);
        initial_checkpoint(&g, &opts).split(&g, k).unwrap()
    }

    #[test]
    fn quarantined_worker_is_readmitted_by_a_stats_probe() {
        // A real server on a loopback port is the probe target: the
        // re-admission path is a live STATS round trip, not a mock.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        let mut cfg = CoordinatorConfig::new(vec![addr.clone()]);
        cfg.quarantine_after = 3;
        cfg.quarantine_for = Duration::from_millis(10);
        let coord = Coordinator::new(cfg);
        for _ in 0..3 {
            coord.health.record_failure(0, 3, Duration::from_millis(10));
        }
        let before = coord.worker_status();
        assert!(!before[0].healthy, "three strikes quarantine the worker");
        assert_eq!(before[0].quarantines, 1);
        assert_eq!(before[0].readmissions, 0);

        // Pending work keeps serve_quarantine in its probe loop: it
        // sits out the sentence, probes, and re-admits on success.
        let board = ShardBoard::new(test_shards(2), 4);
        assert!(coord.serve_quarantine(0, &addr, &board), "board still has work");
        let after = coord.worker_status();
        assert!(after[0].healthy, "a successful STATS probe re-admits");
        assert_eq!(after[0].readmissions, 1);

        handle.shutdown();
        let _ = join.join();
    }

    #[test]
    fn jitter_is_bounded_and_spread() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..256u64 {
            let j = jitter(seed);
            assert!((0.5..1.5).contains(&j), "jitter {j} out of range");
            distinct.insert((j * 1e6) as u64);
        }
        assert!(distinct.len() > 200, "jitter should spread, got {}", distinct.len());
    }

    #[test]
    fn dist_error_maps_to_protocol_codes() {
        assert_eq!(DistError::NoWorkers.code(), errcode::NO_WORKERS);
        assert_eq!(DistError::Internal("x".into()).code(), errcode::INTERNAL);
    }

    #[test]
    fn health_charge_spares_refused_and_aborted_attempts() {
        assert_eq!(health_charge(&AttemptOutcome::Completed(Vec::new(), 0)), HealthCharge::Success);
        assert_eq!(
            health_charge(&AttemptOutcome::Failed { lost_mid_run: true }),
            HealthCharge::Failure
        );
        // A refusal means the worker answered — busy or behind on
        // graphs, not broken — and an aborted attempt means the merged
        // result was already decided elsewhere. Neither is a strike.
        assert_eq!(
            health_charge(&AttemptOutcome::Refused { lost_mid_run: false }),
            HealthCharge::Nothing
        );
        assert_eq!(health_charge(&AttemptOutcome::Aborted), HealthCharge::Nothing);
    }
}
