//! The TCP server: accept loop, per-connection handlers, and the query
//! pipeline (registry → cache → admission → enumeration → reply).
//!
//! Threading model: one acceptor (the caller of [`Server::run`]), one
//! thread per live connection, and the [`Admission`] worker pool where
//! enumeration actually runs. Connection threads never enumerate. While
//! a query runs on a worker, its connection thread blocks on the job's
//! result channel, so the reply is written the moment the worker hands
//! the result over. Between waits of one [`ServerConfig::poll_interval`]
//! it checks its socket without blocking, which keeps the connection
//! responsive to pipelined `CANCEL`/`SHUTDOWN` frames and disconnects.
//! An idle connection reads its socket with that interval as the read
//! timeout.
//!
//! Shutdown ordering (`SHUTDOWN` request or [`ServerHandle::shutdown`]):
//! the flag flips once, every registered in-flight [`RunControl`] is
//! cancelled, and the acceptor is woken by a loopback connect. Cancelled
//! queries return to their own clients with `stop = cancelled` and a
//! serialized checkpoint, connection threads drain and exit on their
//! next idle poll, and [`Server::run`] joins them before shutting the
//! worker pool down and returning a [`ServerSummary`].

use std::collections::HashMap;
use std::io;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bigraph::general::read_general_edge_list_path_with_limits;
use bigraph::io::{read_edge_list_path_with_limits, ReadLimits};
use bigraph::{BipartiteGraph, GeneralGraph};
use mbe::obs::TaskInfo;
use mbe::service::{cacheable, run_query, CachedResult, QueryParams, ResultCache};
use mbe::{
    CacheCounters, Checkpoint, Enumeration, FanoutObserver, JsonlTraceObserver, MbeError, Observer,
    Report, RunControl, StopReason,
};
use oct::{OctCheckpoint, OctEnumeration, OctError, OctReport};

use crate::admission::{Admission, QueueWait, SubmitError};
use crate::coordinator::{Coordinator, CoordinatorConfig, DistError, DistOutcome};
use crate::protocol::{
    errcode, QueryReply, QueryRequest, Reply, Request, Response, ServerStats, ShardRequest,
    TraceContext,
};
use crate::registry::{GraphData, GraphRegistry};
use crate::span::SpanLog;
use crate::telemetry::{self, render_prometheus, MetricsSnapshot, ServerMetrics};
use crate::wire::{read_frame, write_frame, ReadOutcome};

/// How long a peer may stall in the middle of a frame before the
/// connection is dropped.
const FRAME_PATIENCE: Duration = Duration::from_secs(10);

/// Server tunables. [`ServerConfig::default`] is sized for tests and
/// small deployments; everything is overridable field-by-field.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Enumeration worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Admission queue slots (clamped to ≥ 1); a full queue rejects with
    /// [`Response::Busy`].
    pub queue_capacity: usize,
    /// Result-cache byte budget (see [`ResultCache`]).
    pub cache_bytes: usize,
    /// Deadline applied to queries that do not carry their own. Measured
    /// from admission, so queued time counts.
    pub default_timeout: Option<Duration>,
    /// Idle connections are dropped after this long without a frame.
    pub idle_timeout: Duration,
    /// Hard cap on bicliques returned per reply, regardless of the
    /// request's `max_return`.
    pub max_return: u32,
    /// Largest request frame accepted from a client.
    pub max_frame_bytes: usize,
    /// Parser limits applied to `LOAD`ed edge-list files.
    pub read_limits: ReadLimits,
    /// When set, each query writes a JSONL trace to
    /// `<trace_dir>/req-<pid>-<id>.jsonl` — and a coordinator writes its
    /// distributed span log to `<trace_dir>/coord-<pid>-<id>.jsonl`
    /// (best-effort; trace I/O errors never fail a query).
    pub trace_dir: Option<PathBuf>,
    /// When set, a plain-HTTP responder on this address answers `GET
    /// /metrics` with Prometheus text exposition of the server's
    /// [`MetricsSnapshot`] (the scrape-friendly view of the `METRICS`
    /// wire request).
    pub metrics_addr: Option<SocketAddr>,
    /// The cadence at which connection threads notice pipelined
    /// `CANCEL`/`SHUTDOWN` frames, disconnects, shutdown, and idle
    /// timeouts: the idle socket's read timeout, and the longest a thread
    /// waits on a running query's result before it checks its socket.
    /// Replies do not wait for it: a finished query is answered at once.
    pub poll_interval: Duration,
    /// When set, this server runs coordinator mode: shardable queries
    /// are split and fanned out to the configured workers (see
    /// [`crate::coordinator`]); everything else still runs locally.
    pub coordinator: Option<CoordinatorConfig>,
    /// Scripted faults applied to shard executions — the deterministic
    /// worker-crash vehicle of the coordinator fault harness.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<mbe::faults::FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            cache_bytes: 32 << 20,
            default_timeout: None,
            idle_timeout: Duration::from_secs(300),
            max_return: 100_000,
            max_frame_bytes: 16 << 20,
            read_limits: ReadLimits::default(),
            trace_dir: None,
            metrics_addr: None,
            poll_interval: Duration::from_millis(25),
            coordinator: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

/// Counts enumeration tasks via [`Observer::on_task_start`]; shared by
/// every query so `STATS.tasks_started` moves iff an enumeration ran
/// (the cache-hit test's witness that no new work happened).
#[derive(Default)]
struct TaskCounter {
    started: AtomicU64,
}

impl TaskCounter {
    fn count(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }
}

impl Observer for TaskCounter {
    fn on_task_start(&self, _worker: usize, _task: &TaskInfo) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by the acceptor, connection threads, and workers.
struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    registry: GraphRegistry,
    cache: Mutex<ResultCache>,
    admission: Admission,
    /// Request id → the query's control, for `CANCEL` and shutdown-drain.
    inflight: Mutex<HashMap<u64, RunControl>>,
    /// Present iff this server runs coordinator mode. Long-lived so
    /// worker quarantine persists across queries.
    coord: Option<Coordinator>,
    /// The server-wide telemetry registry (see [`crate::telemetry`]).
    metrics: ServerMetrics,
    task_counter: TaskCounter,
    next_request: AtomicU64,
    queries: AtomicU64,
    busy_rejected: AtomicU64,
    shutdown: AtomicBool,
}

/// A shutdown trigger detached from the blocked [`Server::run`] call.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins graceful shutdown: cancels in-flight queries and wakes the
    /// acceptor. Idempotent.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// `true` once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Counters reported by [`Server::run`] when it returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSummary {
    /// Queries answered (cache hits included).
    pub queries: u64,
    /// Queries rejected with the typed busy response.
    pub busy_rejected: u64,
    /// Graphs registered at exit.
    pub graphs: u64,
    /// Result-cache counters at exit.
    pub cache: CacheCounters,
    /// Admission queue-wait counters at exit (busy-vs-dead telemetry).
    pub queue_wait: QueueWait,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    /// Present iff [`ServerConfig::metrics_addr`] was set: the bound
    /// Prometheus scrape listener, served by a thread [`Server::run`]
    /// spawns.
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the admission worker pool.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match cfg.metrics_addr {
            Some(maddr) => Some(TcpListener::bind(maddr)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.workers, cfg.queue_capacity),
            cache: Mutex::new(ResultCache::new(cfg.cache_bytes)),
            coord: cfg.coordinator.clone().map(Coordinator::new),
            cfg,
            addr,
            registry: GraphRegistry::new(),
            inflight: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::new(),
            task_counter: TaskCounter::default(),
            next_request: AtomicU64::new(1),
            queries: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server { listener, metrics_listener, shared })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound metrics-scrape address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A cloneable handle that can trigger shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Pre-registers a graph before serving (the CLI's `--load` flags).
    pub fn preload(&self, name: &str, graph: BipartiteGraph) -> Result<(), String> {
        self.shared
            .registry
            .insert(name, graph)
            .map(|_| ())
            .map_err(|c| format!("name '{}' already bound to a different graph", c.name))
    }

    /// Serves until shutdown is triggered, then drains and returns the
    /// final counters. Blocks the calling thread.
    pub fn run(self) -> io::Result<ServerSummary> {
        let metrics_thread = self.metrics_listener.and_then(|listener| {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("mbe-serve-metrics".into())
                .spawn(move || serve_metrics_http(&listener, &shared))
                .map_err(|e| eprintln!("mbe-serve: failed to spawn metrics responder: {e}"))
                .ok()
        });
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let mut conn_id: u64 = 0;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break; // the shutdown poke itself
                    }
                    conns.retain(|h| !h.is_finished());
                    conn_id += 1;
                    let shared = Arc::clone(&self.shared);
                    let spawned = std::thread::Builder::new()
                        // xtask-allow: hot-alloc-loop (once per accepted connection)
                        .name(format!("mbe-serve-conn-{conn_id}"))
                        .spawn(move || handle_conn(&shared, stream));
                    match spawned {
                        Ok(handle) => conns.push(handle),
                        Err(e) => eprintln!("mbe-serve: failed to spawn connection: {e}"),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // Transient accept failure (e.g. fd exhaustion):
                    // back off instead of spinning.
                    eprintln!("mbe-serve: accept error: {e}");
                    std::thread::sleep(self.shared.cfg.poll_interval);
                }
            }
        }
        for handle in conns {
            if handle.join().is_err() {
                eprintln!("mbe-serve: connection thread panicked");
            }
        }
        if let Some(handle) = metrics_thread {
            // The responder polls the shutdown flag (set by the time the
            // accept loop breaks), so this join is prompt.
            if handle.join().is_err() {
                eprintln!("mbe-serve: metrics responder panicked");
            }
        }
        self.shared.admission.shutdown();
        let cache = self.shared.cache.lock().unwrap_or_else(PoisonError::into_inner).counters();
        Ok(ServerSummary {
            queries: self.shared.queries.load(Ordering::Relaxed),
            busy_rejected: self.shared.busy_rejected.load(Ordering::Relaxed),
            graphs: self.shared.registry.len() as u64,
            cache,
            queue_wait: self.shared.admission.queue_wait(),
        })
    }
}

/// Flips the shutdown flag (once), cancels every registered in-flight
/// query, and wakes the blocked acceptor with a loopback connect.
fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    {
        let inflight = shared.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for control in inflight.values() {
            control.cancel();
        }
    }
    let _ = TcpStream::connect(shared.addr);
}

/// One connection's read/dispatch/reply loop.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let poll = shared.cfg.poll_interval;
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut idle = Duration::ZERO;
    loop {
        match read_frame(&mut stream, shared.cfg.max_frame_bytes, FRAME_PATIENCE) {
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                idle += poll;
                if idle >= shared.cfg.idle_timeout {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Frame(payload)) => {
                idle = Duration::ZERO;
                for response in dispatch(shared, &mut stream, &payload) {
                    if write_frame(&mut stream, &response.encode()).is_err() {
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// Decodes and executes one request. Returns the responses to send, in
/// order — a query that absorbed a pipelined `SHUTDOWN` answers both.
fn dispatch(shared: &Arc<Shared>, stream: &mut TcpStream, payload: &[u8]) -> Vec<Response> {
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            return vec![Response::Err { code: errcode::BAD_REQUEST, message: e.to_string() }]
        }
    };
    let op = op_slot(&request);
    let started = Instant::now();
    let responses = match request {
        Request::Load { name, path } => vec![handle_load(shared, &name, &path)],
        Request::LoadGeneral { name, path } => vec![handle_load_general(shared, &name, &path)],
        Request::List => {
            let infos = shared.registry.list().iter().map(|e| e.info()).collect();
            vec![Response::Ok(Reply::Graphs(infos))]
        }
        Request::Query(q) => handle_query(shared, stream, &q),
        Request::QueryShard(s) => handle_shard_query(shared, stream, &s),
        // Nothing is in flight on this connection (queries hold the loop
        // until they answer), so an idle CANCEL is a trivial ack.
        Request::Cancel => vec![Response::Ok(Reply::Cancelled)],
        Request::Stats => vec![Response::Ok(Reply::Stats(server_stats(shared)))],
        Request::Metrics => {
            vec![Response::Ok(Reply::Metrics(Box::new(metrics_snapshot(shared))))]
        }
        Request::Shutdown => {
            trigger_shutdown(shared);
            vec![Response::Ok(Reply::ShuttingDown)]
        }
    };
    // An empty response list means the client vanished mid-query: not an
    // error the server produced, so it only counts toward the op total.
    let ok = !matches!(responses.first(), Some(Response::Err { .. }) | Some(Response::Busy { .. }));
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_request(op, elapsed_us, ok);
    responses
}

/// Maps a decoded request to its [`crate::telemetry`] opcode slot.
fn op_slot(request: &Request) -> usize {
    match request {
        Request::Load { .. } => telemetry::OP_LOAD,
        Request::LoadGeneral { .. } => telemetry::OP_LOAD_GENERAL,
        Request::List => telemetry::OP_LIST,
        Request::Query(_) => telemetry::OP_QUERY,
        Request::QueryShard(_) => telemetry::OP_QUERY_SHARD,
        Request::Cancel => telemetry::OP_CANCEL,
        Request::Stats => telemetry::OP_STATS,
        Request::Metrics => telemetry::OP_METRICS,
        Request::Shutdown => telemetry::OP_SHUTDOWN,
    }
}

fn handle_load(shared: &Shared, name: &str, path: &str) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        };
    }
    let graph = match read_edge_list_path_with_limits(path, shared.cfg.read_limits) {
        Ok(g) => g,
        Err(e) => {
            return Response::Err {
                code: errcode::LOAD_FAILED,
                message: format!("cannot load '{path}': {e}"),
            }
        }
    };
    match shared.registry.insert(name, graph) {
        Ok(entry) => {
            // Coordinators remember where the graph came from and push it
            // to workers eagerly (and again lazily on `unknown-graph`).
            if let Some(coord) = &shared.coord {
                coord.note_load(name, path);
            }
            Response::Ok(Reply::Loaded(entry.info()))
        }
        Err(conflict) => Response::Err {
            code: errcode::NAME_CONFLICT,
            message: format!(
                "'{}' is bound to fingerprint {:016x}, refusing {:016x}",
                conflict.name, conflict.existing, conflict.offered
            ),
        },
    }
}

/// `LOAD_GENERAL`: same hardened read-limits and idempotency contract as
/// [`handle_load`], but the file is parsed as a general edge list and
/// queries on the name will route through the OCT driver. The graph is
/// *not* announced to coordinator workers — general queries are never
/// sharded, so workers have no use for it.
fn handle_load_general(shared: &Shared, name: &str, path: &str) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        };
    }
    let graph = match read_general_edge_list_path_with_limits(path, shared.cfg.read_limits) {
        Ok(g) => g,
        Err(e) => {
            return Response::Err {
                code: errcode::LOAD_FAILED,
                message: format!("cannot load '{path}': {e}"),
            }
        }
    };
    match shared.registry.insert_general(name, graph) {
        Ok(entry) => Response::Ok(Reply::LoadedGeneral(entry.info())),
        Err(conflict) => Response::Err {
            code: errcode::NAME_CONFLICT,
            message: format!(
                "'{}' is bound to fingerprint {:016x}, refusing {:016x}",
                conflict.name, conflict.existing, conflict.offered
            ),
        },
    }
}

fn server_stats(shared: &Shared) -> ServerStats {
    let wait = shared.admission.queue_wait();
    ServerStats {
        graphs: shared.registry.len() as u64,
        inflight: shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).len() as u64,
        queued: shared.admission.queued(),
        queue_capacity: u64::from(shared.admission.capacity()),
        workers: shared.admission.workers() as u64,
        queries: shared.queries.load(Ordering::Relaxed),
        busy_rejected: shared.busy_rejected.load(Ordering::Relaxed),
        tasks_started: shared.task_counter.count(),
        cache: shared.cache.lock().unwrap_or_else(PoisonError::into_inner).counters(),
        queue_wait_total_us: wait.total_us,
        queue_wait_max_us: wait.max_us,
        jobs_executed: wait.executed,
        shutting_down: shared.shutdown.load(Ordering::SeqCst),
    }
}

/// Assembles the full typed telemetry snapshot: the `METRICS` reply body
/// and the source the Prometheus responder renders. Worker quarantine /
/// re-admission totals are derived here from the coordinator's health
/// board — the single source of truth — rather than double-booked as
/// registry counters.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    // Guards are taken one statement at a time, in the same
    // inflight-before-cache order as `server_stats` (lock-order rule).
    let inflight = shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).len() as u64;
    let cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner).counters();
    let wait = shared.admission.queue_wait();
    let workers = shared.coord.as_ref().map(Coordinator::worker_status).unwrap_or_default();
    let m = &shared.metrics;
    MetricsSnapshot {
        uptime_us: m.uptime_us(),
        ops: m.ops_snapshot(),
        queued: shared.admission.queued(),
        queue_capacity: u64::from(shared.admission.capacity()),
        pool_workers: shared.admission.workers() as u64,
        queue_wait: shared.admission.queue_wait_histogram(),
        jobs_executed: wait.executed,
        busy_rejected: shared.busy_rejected.load(Ordering::Relaxed),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_insertions: cache.insertions,
        cache_evictions: cache.evictions,
        cache_bytes_used: cache.bytes_used,
        cache_bytes_evicted: cache.bytes_evicted,
        graphs: shared.registry.len() as u64,
        graph_loads: shared.registry.loads(),
        graph_conflicts: shared.registry.conflicts(),
        inflight,
        queries: shared.queries.load(Ordering::Relaxed),
        dist_queries: m.dist_queries.load(Ordering::Relaxed),
        shard_dispatches: m.shard_dispatches.load(Ordering::Relaxed),
        shard_retries: m.shard_retries.load(Ordering::Relaxed),
        shard_resteals: m.shard_resteals.load(Ordering::Relaxed),
        shard_speculated: m.shard_speculated.load(Ordering::Relaxed),
        shard_stranded_claims: m.shard_stranded_claims.load(Ordering::Relaxed),
        shard_fallbacks: m.shard_fallbacks.load(Ordering::Relaxed),
        worker_quarantines: workers.iter().map(|w| w.quarantines).sum(),
        worker_readmissions: workers.iter().map(|w| w.readmissions).sum(),
        workers,
        shutting_down: shared.shutdown.load(Ordering::SeqCst),
    }
}

/// Accept loop of the `--metrics-addr` scrape responder: non-blocking so
/// it notices shutdown within one poll interval.
fn serve_metrics_http(listener: &TcpListener, shared: &Arc<Shared>) {
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("mbe-serve: metrics responder cannot poll: {e}");
        return;
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = answer_metrics_http(stream, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(shared.cfg.poll_interval),
        }
    }
}

/// Answers one scrape connection: a minimal HTTP/1.1 exchange — `GET
/// /metrics` (or `/`) returns Prometheus text exposition 0.0.4, anything
/// else 404/405. One request per connection (`Connection: close`).
fn answer_metrics_http(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(FRAME_PATIENCE))?;
    let mut head = [0u8; 4096];
    let mut filled = 0usize;
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let request_line = String::from_utf8_lossy(&head[..filled]);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", String::from("only GET is supported\n"))
    } else if path == "/metrics" || path == "/" {
        ("200 OK", render_prometheus(&metrics_snapshot(shared)))
    } else {
        ("404 Not Found", String::from("try /metrics\n"))
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Clips a result to the smaller of the request's and the server's cap.
fn clip(bicliques: &[mbe::Biclique], req_max: u32, cfg_max: u32) -> Vec<mbe::Biclique> {
    bicliques.iter().take(req_max.min(cfg_max) as usize).cloned().collect()
}

fn reply_from_cached(hit: &CachedResult, q: &QueryRequest, cfg: &ServerConfig) -> QueryReply {
    let (total, bicliques) = match &hit.bicliques {
        Some(bs) => (bs.len() as u64, clip(bs, q.max_return, cfg.max_return)),
        None => (0, Vec::new()),
    };
    QueryReply {
        stop: StopReason::Completed,
        cached: true,
        emitted: hit.emitted,
        elapsed_us: hit.elapsed.as_micros() as u64,
        total,
        bicliques,
        checkpoint: None,
        dist: None,
    }
}

fn reply_from_report(report: &Report, q: &QueryRequest, cfg: &ServerConfig) -> QueryReply {
    QueryReply {
        stop: report.stop,
        cached: false,
        emitted: report.stats.emitted,
        elapsed_us: report.stats.elapsed.as_micros() as u64,
        total: report.bicliques.len() as u64,
        bicliques: clip(&report.bicliques, q.max_return, cfg.max_return),
        checkpoint: report.checkpoint.as_ref().map(Checkpoint::to_bytes),
        dist: None,
    }
}

/// The reply a coordinator assembles from a merged distributed run — the
/// only reply shape that carries a [`crate::protocol::DistSummary`].
fn reply_from_dist(outcome: &DistOutcome, q: &QueryRequest, cfg: &ServerConfig) -> QueryReply {
    QueryReply {
        stop: outcome.stop,
        cached: false,
        emitted: outcome.emitted,
        elapsed_us: outcome.elapsed_us,
        total: outcome.bicliques.len() as u64,
        bicliques: clip(&outcome.bicliques, q.max_return, cfg.max_return),
        checkpoint: outcome.checkpoint.clone(),
        dist: Some(outcome.dist),
    }
}

/// A worker's reply to one `QUERY_SHARD`. Shards bypass the result cache
/// in both directions: a shard is a fragment of a query, not a canonical
/// query of its own. Only the *request's* `max_return` applies — never
/// this server's `cfg.max_return`: shard replies are coordinator-facing,
/// and a config-clipped reply would silently drop bicliques from the
/// merged distributed result (DESIGN §8c documents this contract).
fn shard_reply(report: &Report, s: &ShardRequest) -> QueryReply {
    QueryReply {
        stop: report.stop,
        cached: false,
        emitted: report.stats.emitted,
        elapsed_us: report.stats.elapsed.as_micros() as u64,
        total: report.bicliques.len() as u64,
        bicliques: clip(&report.bicliques, s.max_return, u32::MAX),
        checkpoint: report.checkpoint.as_ref().map(Checkpoint::to_bytes),
        dist: None,
    }
}

/// The query pipeline: cache lookup, admission, execution on a worker,
/// and a wait loop that keeps servicing this connection's pipelined
/// `CANCEL`/`SHUTDOWN` frames while the worker runs.
fn handle_query(shared: &Arc<Shared>, stream: &mut TcpStream, q: &QueryRequest) -> Vec<Response> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return vec![Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        }];
    }
    let Some(entry) = shared.registry.get(&q.graph) else {
        return vec![Response::Err {
            code: errcode::UNKNOWN_GRAPH,
            message: format!("no graph named '{}' (LOAD it first)", q.graph),
        }];
    };
    let fingerprint = entry.fingerprint;
    let graph = match &entry.data {
        GraphData::Bipartite(g) => Arc::clone(g),
        GraphData::General(g) => {
            return handle_oct_query(shared, stream, q, fingerprint, Arc::clone(g))
        }
    };
    let key = q.params.canonical_key();

    // Cache first: hits are never queued, so they can't be rejected Busy.
    {
        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.lookup(fingerprint, &key) {
            drop(cache);
            shared.queries.fetch_add(1, Ordering::Relaxed);
            return vec![Response::Ok(Reply::Query(reply_from_cached(&hit, q, &shared.cfg)))];
        }
    }

    // The deadline starts at admission, not execution: time spent queued
    // counts against the request's budget. Captured as an instant so the
    // coordinator can hand the same deadline to its shard attempts.
    let deadline =
        q.params.timeout.or(shared.cfg.default_timeout).map(|limit| Instant::now() + limit);
    let mut control = RunControl::new();
    if let Some(at) = deadline {
        control = control.deadline(at);
    }
    let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
    shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).insert(id, control.clone());
    if shared.shutdown.load(Ordering::SeqCst) {
        // Shutdown raced between the top check and registration; its
        // cancel sweep may have missed this control.
        control.cancel();
    }

    // Shardable queries route through the coordinator when one is
    // configured; thresholded / top-k / budgeted queries always run
    // locally (that is policy, not degradation — no `degraded` flag).
    let distribute = shared.coord.is_some() && q.params.shardable();
    let (tx, rx) = sync_channel::<QueryOutcome>(1);
    let job = {
        let shared = Arc::clone(shared);
        let graph = Arc::clone(&graph);
        let graph_name = q.graph.clone();
        let params = q.params.clone();
        let control = control.clone();
        let trace_ctx = q.trace;
        Box::new(move || {
            let result = match shared.coord.as_ref().filter(|_| distribute) {
                Some(coord) => {
                    let span = open_span_log(&shared, id);
                    let dist = coord.run(
                        &graph,
                        &graph_name,
                        &params,
                        &control,
                        deadline,
                        Some(&shared.metrics),
                        span.as_ref(),
                    );
                    // Fold the run's provenance into the registry here —
                    // the one place both exist — so the Prometheus
                    // counters always agree with the `DistSummary` the
                    // client saw. (Dispatches, stranded claims, and
                    // fallbacks are counted live at their event sites.)
                    if let Ok(outcome) = &dist {
                        ServerMetrics::add(&shared.metrics.dist_queries, 1);
                        ServerMetrics::add(
                            &shared.metrics.shard_retries,
                            u64::from(outcome.dist.retries),
                        );
                        ServerMetrics::add(
                            &shared.metrics.shard_resteals,
                            u64::from(outcome.dist.resteals),
                        );
                        ServerMetrics::add(
                            &shared.metrics.shard_speculated,
                            u64::from(outcome.dist.speculated),
                        );
                    }
                    if let Some(e) = span.as_ref().and_then(SpanLog::take_error) {
                        eprintln!("mbe-serve: span log write failed: {e}");
                    }
                    QueryOutcome::Dist(dist)
                }
                None => {
                    QueryOutcome::Local(execute(&shared, &graph, &params, control, id, trace_ctx))
                }
            };
            shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
            let _ = tx.send(result);
        })
    };
    if let Err(err) = shared.admission.submit(job) {
        shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        return vec![reject(shared, err)];
    }

    let Some((result, pipelined)) = wait_for_result(shared, stream, &control, &rx) else {
        return Vec::new();
    };

    shared.queries.fetch_add(1, Ordering::Relaxed);
    let response = match result {
        Some(QueryOutcome::Local(Ok(report))) => {
            if cacheable(&report) {
                // A top-k reply always carries its bicliques, count-only or not.
                let count_only = q.params.count_only && q.params.top_k.is_none();
                let value = CachedResult::from_report(&report, count_only);
                shared.cache.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    fingerprint,
                    key,
                    value,
                );
            }
            Response::Ok(Reply::Query(reply_from_report(&report, q, &shared.cfg)))
        }
        // A contained worker panic still carries the partial report:
        // surface it as a reply (stop = worker-panicked) so the client
        // keeps the checkpoint and partial results.
        Some(QueryOutcome::Local(Err(MbeError::WorkerPanic { report, .. }))) => {
            Response::Ok(Reply::Query(reply_from_report(&report, q, &shared.cfg)))
        }
        Some(QueryOutcome::Local(Err(e))) => {
            Response::Err { code: errcode::INTERNAL, message: e.to_string() }
        }
        Some(QueryOutcome::Dist(Ok(outcome))) => {
            let reply = reply_from_dist(&outcome, q, &shared.cfg);
            // A complete merged result is cacheable under the same key a
            // local run would use; later hits answer with `dist: None`.
            if outcome.stop == StopReason::Completed {
                let value = CachedResult {
                    bicliques: if q.params.count_only {
                        None
                    } else {
                        Some(Arc::new(outcome.bicliques))
                    },
                    emitted: outcome.emitted,
                    elapsed: Duration::from_micros(outcome.elapsed_us),
                };
                shared.cache.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    fingerprint,
                    key,
                    value,
                );
            }
            Response::Ok(Reply::Query(reply))
        }
        Some(QueryOutcome::Dist(Err(e))) => {
            Response::Err { code: e.code(), message: e.to_string() }
        }
        None => Response::Err {
            code: errcode::INTERNAL,
            message: "query worker disappeared without a result".into(),
        },
    };
    let mut out = vec![response];
    out.extend(pipelined);
    out
}

/// How one admitted query job resolved: locally or via the coordinator.
enum QueryOutcome {
    Local(Result<Report, MbeError>),
    Dist(Result<DistOutcome, DistError>),
}

/// The reply for one completed (or stopped) OCT driver run. The reply
/// rides the ordinary `QUERY` tag — the client asked a question about a
/// named graph and gets bicliques back; which engine answered is the
/// server's business.
fn reply_from_oct(report: &OctReport, q: &QueryRequest, cfg: &ServerConfig) -> QueryReply {
    QueryReply {
        stop: report.stop,
        cached: false,
        emitted: report.stats.emitted,
        elapsed_us: report.stats.elapsed.as_micros() as u64,
        total: report.bicliques.len() as u64,
        bicliques: clip(&report.bicliques, q.max_return, cfg.max_return),
        checkpoint: report.checkpoint.as_ref().map(OctCheckpoint::to_bytes),
        dist: None,
    }
}

/// `QUERY` on a general graph: the same cache → admission → execute →
/// reply pipeline as [`handle_query`], with the OCT driver as the
/// engine. Differences, all deliberate:
///
/// - cache keys are prefixed `oct;` so a general result can never be
///   replayed for a bipartite query (or vice versa), even if the two
///   fingerprint digests ever collided;
/// - size thresholds and `top_k` are bipartite-engine features — they
///   answer `WRONG_KIND` instead of being silently ignored;
/// - the query always runs locally: the OCT driver's per-assignment
///   checkpoints are not frontier shards, so coordinator mode does not
///   distribute it (policy, not degradation).
fn handle_oct_query(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    q: &QueryRequest,
    fingerprint: u64,
    graph: Arc<GeneralGraph>,
) -> Vec<Response> {
    if q.params.thresholded() || q.params.top_k.is_some() {
        return vec![Response::Err {
            code: errcode::WRONG_KIND,
            message: format!(
                "'{}' is a general graph; min-left/min-right thresholds and top-k \
                 apply only to bipartite graphs",
                q.graph
            ),
        }];
    }
    let key = format!("oct;{}", q.params.canonical_key());
    {
        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.lookup(fingerprint, &key) {
            drop(cache);
            shared.queries.fetch_add(1, Ordering::Relaxed);
            return vec![Response::Ok(Reply::Query(reply_from_cached(&hit, q, &shared.cfg)))];
        }
    }

    let deadline =
        q.params.timeout.or(shared.cfg.default_timeout).map(|limit| Instant::now() + limit);
    let mut control = RunControl::new();
    if let Some(at) = deadline {
        control = control.deadline(at);
    }
    let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
    shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).insert(id, control.clone());
    if shared.shutdown.load(Ordering::SeqCst) {
        control.cancel();
    }

    let (tx, rx) = sync_channel::<Result<OctReport, OctError>>(1);
    let job = {
        let shared = Arc::clone(shared);
        let params = q.params.clone();
        let control = control.clone();
        let trace_ctx = q.trace;
        Box::new(move || {
            let result = execute_oct(&shared, &graph, &params, control, id, trace_ctx);
            shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
            let _ = tx.send(result);
        })
    };
    if let Err(err) = shared.admission.submit(job) {
        shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        return vec![reject(shared, err)];
    }

    let Some((result, pipelined)) = wait_for_result(shared, stream, &control, &rx) else {
        return Vec::new();
    };

    shared.queries.fetch_add(1, Ordering::Relaxed);
    let response = match result {
        Some(Ok(report)) => {
            if report.stop == StopReason::Completed {
                let value = CachedResult {
                    bicliques: if q.params.count_only {
                        None
                    } else {
                        Some(Arc::new(report.bicliques.clone()))
                    },
                    emitted: report.stats.emitted,
                    elapsed: report.stats.elapsed,
                };
                shared.cache.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    fingerprint,
                    key,
                    value,
                );
            }
            Response::Ok(Reply::Query(reply_from_oct(&report, q, &shared.cfg)))
        }
        Some(Err(e)) => Response::Err { code: errcode::INTERNAL, message: e.to_string() },
        None => Response::Err {
            code: errcode::INTERNAL,
            message: "query worker disappeared without a result".into(),
        },
    };
    let mut out = vec![response];
    out.extend(pipelined);
    out
}

/// Runs one admitted general-graph query on the current (worker) thread
/// through the OCT driver, with the same task-counter and trace plumbing
/// as [`execute`]. A `threads: 0` hint ("all cores") is resolved here —
/// the driver requires an explicit positive count.
fn execute_oct(
    shared: &Shared,
    graph: &GeneralGraph,
    params: &QueryParams,
    control: RunControl,
    id: u64,
    trace_ctx: Option<TraceContext>,
) -> Result<OctReport, OctError> {
    let trace = open_trace(shared, id, trace_ctx);
    let mut fan = FanoutObserver::new();
    fan.push(Box::new(&shared.task_counter));
    if let Some(t) = &trace {
        fan.push(Box::new(t));
    }
    let threads = if params.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        params.threads
    };
    let mut run = OctEnumeration::new(graph)
        .algorithm(params.algorithm)
        .order(params.order)
        .threads(threads)
        .control(control)
        .observer(&fan);
    if let Some(n) = params.max_bicliques {
        run = run.max_bicliques(n);
    }
    let result = if params.count_only { run.count() } else { run.collect() };
    if let Some(t) = &trace {
        let _ = t.flush();
    }
    result
}

/// The typed response for a refused admission.
fn reject(shared: &Shared, err: SubmitError) -> Response {
    match err {
        SubmitError::Busy { queued, capacity } => {
            shared.busy_rejected.fetch_add(1, Ordering::Relaxed);
            Response::Busy { queued, capacity }
        }
        SubmitError::Closed => Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        },
    }
}

/// Blocks on `rx` until the admitted job answers, so a finished result
/// wakes this thread at once. Between waits of one
/// [`ServerConfig::poll_interval`] it checks the socket without blocking
/// and reads a frame only when a byte or EOF is waiting: pipelined
/// `CANCEL`/`SHUTDOWN` frames and client disconnects are noticed within
/// one interval while the job runs. Returns `None` when the client
/// vanished (the work is cancelled and there is no one to answer);
/// otherwise the job's result (`None` inside when the worker died without
/// reporting) plus any responses to append after the query's own.
fn wait_for_result<T>(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    control: &RunControl,
    rx: &Receiver<T>,
) -> Option<(Option<T>, Vec<Response>)> {
    let mut pipelined: Vec<Response> = Vec::new();
    loop {
        match rx.recv_timeout(shared.cfg.poll_interval) {
            Ok(result) => return Some((Some(result), pipelined)),
            Err(RecvTimeoutError::Disconnected) => return Some((None, pipelined)),
            Err(RecvTimeoutError::Timeout) => {}
        }
        match input_waiting(stream) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => {
                control.cancel();
                return None;
            }
        }
        match read_frame(stream, shared.cfg.max_frame_bytes, FRAME_PATIENCE) {
            Ok(ReadOutcome::Idle) => {}
            Ok(ReadOutcome::Frame(payload)) => match Request::decode(&payload) {
                // Absorbed: the query's own reply (stop = cancelled,
                // checkpoint included) is the acknowledgement.
                Ok(Request::Cancel) => control.cancel(),
                Ok(Request::Shutdown) => {
                    trigger_shutdown(shared);
                    pipelined.push(Response::Ok(Reply::ShuttingDown));
                }
                Ok(_) => pipelined.push(Response::Err {
                    code: errcode::BAD_REQUEST,
                    message: "a query is in flight; only CANCEL or SHUTDOWN may be pipelined"
                        .into(),
                }),
                Err(e) => pipelined.push(Response::Err {
                    code: errcode::BAD_REQUEST,
                    message: e.to_string(), // xtask-allow: hot-alloc-loop (malformed-request error path)
                }),
            },
            // Client gone or broken: stop the work, let the worker wind
            // down in the background, answer no one.
            Ok(ReadOutcome::Closed) | Err(_) => {
                control.cancel();
                return None;
            }
        }
    }
}

/// `true` when a byte or EOF is waiting on `stream`. Peeks one byte in
/// non-blocking mode, then restores blocking mode (the read timeout set
/// by [`handle_conn`] is kept).
fn input_waiting(stream: &TcpStream) -> io::Result<bool> {
    stream.set_nonblocking(true)?;
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false)?;
    match peeked {
        Ok(_) => Ok(true),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// The worker half of coordinator mode: validates and resumes one
/// frontier shard. Same admission, cancellation, and shutdown-drain
/// semantics as a full query, but the reply rides the `QUERY_SHARD` tag
/// and the result cache is bypassed in both directions.
fn handle_shard_query(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    s: &ShardRequest,
) -> Vec<Response> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return vec![Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        }];
    }
    let Some(entry) = shared.registry.get(&s.graph) else {
        return vec![Response::Err {
            code: errcode::UNKNOWN_GRAPH,
            message: format!("no graph named '{}' (LOAD it first)", s.graph),
        }];
    };
    // Frontier shards are fragments of the bipartite engine's root set;
    // general graphs run whole through the OCT driver and are never
    // sharded, so a shard aimed at one is a kind error, not a bad shard.
    let Some(graph) = entry.bipartite().map(Arc::clone) else {
        return vec![Response::Err {
            code: errcode::WRONG_KIND,
            message: format!("'{}' is a general graph; shards require a bipartite graph", s.graph),
        }];
    };
    let ckpt = match Checkpoint::from_bytes(&s.checkpoint) {
        Ok(c) => c,
        Err(e) => {
            return vec![Response::Err {
                code: errcode::BAD_SHARD,
                message: format!("malformed shard checkpoint: {e}"),
            }]
        }
    };
    if let Err(e) = ckpt.matches(&graph) {
        return vec![Response::Err {
            code: errcode::BAD_SHARD,
            message: format!("shard does not match graph '{}': {e}", s.graph),
        }];
    }

    let deadline =
        s.params.timeout.or(shared.cfg.default_timeout).map(|limit| Instant::now() + limit);
    let mut control = RunControl::new();
    if let Some(at) = deadline {
        control = control.deadline(at);
    }
    let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
    shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).insert(id, control.clone());
    if shared.shutdown.load(Ordering::SeqCst) {
        control.cancel();
    }

    let (tx, rx) = sync_channel::<Result<Report, MbeError>>(1);
    let job = {
        let shared = Arc::clone(shared);
        let graph = Arc::clone(&graph);
        let params = s.params.clone();
        let control = control.clone();
        let trace_ctx = s.trace;
        Box::new(move || {
            let result = execute_shard(&shared, &graph, &params, ckpt, control, id, trace_ctx);
            shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
            let _ = tx.send(result);
        })
    };
    if let Err(err) = shared.admission.submit(job) {
        shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        return vec![reject(shared, err)];
    }

    let Some((result, pipelined)) = wait_for_result(shared, stream, &control, &rx) else {
        return Vec::new();
    };

    shared.queries.fetch_add(1, Ordering::Relaxed);
    let response = match result {
        Some(Ok(report)) => Response::Ok(Reply::Shard(shard_reply(&report, s))),
        // Same contained-panic contract as QUERY: the partial report and
        // checkpoint go back so the coordinator can re-steal the rest.
        Some(Err(MbeError::WorkerPanic { report, .. })) => {
            Response::Ok(Reply::Shard(shard_reply(&report, s)))
        }
        Some(Err(e)) => Response::Err { code: errcode::INTERNAL, message: e.to_string() },
        None => Response::Err {
            code: errcode::INTERNAL,
            message: "shard worker disappeared without a result".into(),
        },
    };
    let mut out = vec![response];
    out.extend(pipelined);
    out
}

/// Runs one admitted query on the current (worker) thread, composing the
/// server-wide task counter with an optional per-request JSONL trace
/// (stamped with the request's distributed trace context, if it carried
/// one).
fn execute(
    shared: &Shared,
    graph: &BipartiteGraph,
    params: &QueryParams,
    control: RunControl,
    id: u64,
    trace_ctx: Option<TraceContext>,
) -> Result<Report, MbeError> {
    let trace = open_trace(shared, id, trace_ctx);
    let mut fan = FanoutObserver::new();
    fan.push(Box::new(&shared.task_counter));
    if let Some(t) = &trace {
        fan.push(Box::new(t));
    }
    let result = run_query(graph, params, control, Some(&fan));
    drop(fan);
    if let Some(t) = &trace {
        let _ = t.flush();
    }
    result
}

/// Runs one admitted shard on the current (worker) thread: the resume
/// path of [`execute`], plus the scripted-fault hook the coordinator
/// harness uses to stage deterministic worker crashes.
fn execute_shard(
    shared: &Shared,
    graph: &BipartiteGraph,
    params: &QueryParams,
    ckpt: Checkpoint,
    control: RunControl,
    id: u64,
    trace_ctx: Option<TraceContext>,
) -> Result<Report, MbeError> {
    let trace = open_trace(shared, id, trace_ctx);
    let mut fan = FanoutObserver::new();
    fan.push(Box::new(&shared.task_counter));
    if let Some(t) = &trace {
        fan.push(Box::new(t));
    }
    let run = Enumeration::new(graph)
        .threads(params.threads)
        .control(control)
        .resume(ckpt)
        .observer(&fan);
    #[cfg(feature = "fault-injection")]
    let run = match &shared.cfg.fault_plan {
        Some(plan) => run.faults(plan.clone()),
        None => run,
    };
    let result = if params.count_only { run.count() } else { run.collect() };
    if let Some(t) = &trace {
        let _ = t.flush();
    }
    result
}

/// Opens the per-request JSONL trace when tracing is configured
/// (best-effort: trace I/O problems never fail a query). The filename
/// carries this process's pid so workers sharing a `--trace-dir` with
/// their coordinator (or a restarted self) never clobber each other's
/// request ids. A distributed trace context, when present, is stamped
/// onto the trace header so it joins the coordinator's span log.
fn open_trace(
    shared: &Shared,
    id: u64,
    trace_ctx: Option<TraceContext>,
) -> Option<JsonlTraceObserver> {
    shared.cfg.trace_dir.as_ref().and_then(|dir| {
        let path = dir.join(format!("req-{}-{id}.jsonl", std::process::id()));
        match JsonlTraceObserver::create(path.to_string_lossy().as_ref()) {
            Ok(obs) => {
                if let Some(ctx) = trace_ctx {
                    obs.set_trace_context(ctx.trace_id, ctx.parent_span);
                }
                Some(obs)
            }
            Err(e) => {
                eprintln!("mbe-serve: cannot open trace {}: {e}", path.display());
                None
            }
        }
    })
}

/// Opens the coordinator's distributed span log when tracing is
/// configured (best-effort, like [`open_trace`]). The trace id folds the
/// coordinator's pid with the request id, so coordinators sharing a
/// trace dir across restarts never collide on trace ids.
fn open_span_log(shared: &Shared, id: u64) -> Option<SpanLog> {
    shared.cfg.trace_dir.as_ref().and_then(|dir| {
        let pid = u64::from(std::process::id());
        let trace_id = (pid << 32) | (id & 0xFFFF_FFFF);
        let path = dir.join(format!("coord-{pid}-{id}.jsonl"));
        match SpanLog::create(path.to_string_lossy().as_ref(), trace_id) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("mbe-serve: cannot open span log {}: {e}", path.display());
                None
            }
        }
    })
}
