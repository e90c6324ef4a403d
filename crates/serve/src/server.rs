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
use mbe::service::{run_query, CachedResult, QueryParams, ResultCache};
use mbe::{
    Biclique, CacheCounters, Checkpoint, Enumeration, FanoutObserver, JsonlTraceObserver, MbeError,
    Observer, RunControl, StopReason,
};
use oct::{OctCheckpoint, OctEnumeration};

use crate::admission::{Admission, QueueWait, SubmitError};
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::protocol::{
    errcode, DistSummary, QueryReply, QueryRequest, Reply, Request, Response, ServerStats,
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
    coord: Option<Arc<Coordinator>>,
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
            coord: cfg.coordinator.clone().map(|c| Arc::new(Coordinator::new(c))),
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
        Request::Load { name, path } => vec![handle_load(shared, &name, &path, false)],
        Request::LoadGeneral { name, path } => vec![handle_load(shared, &name, &path, true)],
        Request::List => {
            let infos = shared.registry.list().iter().map(|e| e.info()).collect();
            vec![Response::Ok(Reply::Graphs(infos))]
        }
        Request::Query(q) => handle_query(shared, stream, &q, None),
        Request::QueryShard(s) => {
            let q = QueryRequest {
                graph: s.graph,
                params: s.params,
                max_return: s.max_return,
                trace: s.trace,
            };
            handle_query(shared, stream, &q, Some(&s.checkpoint))
        }
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

/// `LOAD` (`general = false`) and `LOAD_GENERAL`: reads `path` under the
/// server's read limits as a bipartite or a general edge list and binds
/// it to `name`. Loading the same graph again is idempotent; a different
/// graph under a bound name is a name conflict. Queries on a general
/// graph route through the OCT driver.
fn handle_load(shared: &Shared, name: &str, path: &str, general: bool) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Err {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        };
    }
    let limits = shared.cfg.read_limits;
    let loaded = if general {
        read_general_edge_list_path_with_limits(path, limits)
            .map(|g| shared.registry.insert_general(name, g))
            .map_err(|e| e.to_string())
    } else {
        read_edge_list_path_with_limits(path, limits)
            .map(|g| shared.registry.insert(name, g))
            .map_err(|e| e.to_string())
    };
    match loaded {
        Err(e) => Response::Err {
            code: errcode::LOAD_FAILED,
            message: format!("cannot load '{path}': {e}"),
        },
        Ok(Err(conflict)) => Response::Err {
            code: errcode::NAME_CONFLICT,
            message: format!(
                "'{}' is bound to fingerprint {:016x}, refusing {:016x}",
                conflict.name, conflict.existing, conflict.offered
            ),
        },
        Ok(Ok(entry)) if general => Response::Ok(Reply::LoadedGeneral(entry.info())),
        Ok(Ok(entry)) => {
            // Coordinators remember where a bipartite graph came from and
            // push it to workers eagerly (and again lazily on
            // `unknown-graph`). General queries are never sharded, so
            // workers have no use for a general graph.
            if let Some(coord) = &shared.coord {
                coord.note_load(name, path);
            }
            Response::Ok(Reply::Loaded(entry.info()))
        }
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
    let workers = shared.coord.as_ref().map(|c| c.worker_status()).unwrap_or_default();
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

/// What an admitted query runs, decided at validation.
enum QueryJob {
    /// A bipartite run on this server; a shard resumes its checkpoint.
    Bipartite { graph: Arc<BipartiteGraph>, resume: Option<Checkpoint> },
    /// A shardable `QUERY` at a coordinator, fanned out to its workers.
    Fanout { coord: Arc<Coordinator>, graph: Arc<BipartiteGraph>, name: String },
    /// A `QUERY` on a general graph, run by the OCT driver.
    General { graph: Arc<GeneralGraph> },
}

/// A query's answer in the one shape every reply is built from: a local
/// run's report, a coordinator's merged outcome, or a cache hit.
struct Answer {
    stop: StopReason,
    cached: bool,
    emitted: u64,
    elapsed_us: u64,
    /// Everything the run returned. A reply clips a copy; the cache
    /// shares this allocation.
    bicliques: Arc<Vec<Biclique>>,
    /// `MBCK` bytes from the bipartite engine or a coordinator, `MBOK`
    /// bytes from the OCT driver.
    checkpoint: Option<Vec<u8>>,
    dist: Option<DistSummary>,
}

impl Answer {
    /// The answer of a run on this server.
    fn local(
        stop: StopReason,
        emitted: u64,
        elapsed: Duration,
        bicliques: Vec<Biclique>,
        checkpoint: Option<Vec<u8>>,
    ) -> Answer {
        Answer {
            stop,
            cached: false,
            emitted,
            elapsed_us: elapsed.as_micros() as u64,
            bicliques: Arc::new(bicliques),
            checkpoint,
            dist: None,
        }
    }
}

/// A typed refusal: an [`errcode`] and its message.
type Refusal = (u8, String);

/// Turns a query into the job it runs and its cache key
/// (`(fingerprint, key)`), or into the refusal it gets. `shard` holds a
/// `QUERY_SHARD`'s checkpoint bytes. A shard gets no key: shards bypass
/// the cache both ways, being fragments of a query rather than queries
/// of their own. A general graph's key is prefixed `oct;`, so a general
/// result can never be replayed for a bipartite query (or vice versa),
/// even if the two fingerprints ever collided.
fn validate(
    shared: &Shared,
    q: &QueryRequest,
    shard: Option<&[u8]>,
) -> Result<(QueryJob, Option<(u64, String)>), Refusal> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err((errcode::SHUTTING_DOWN, "server is shutting down".into()));
    }
    let Some(entry) = shared.registry.get(&q.graph) else {
        let message = format!("no graph named '{}' (LOAD it first)", q.graph);
        return Err((errcode::UNKNOWN_GRAPH, message));
    };
    let key = q.params.canonical_key();
    match (&entry.data, shard) {
        (GraphData::Bipartite(graph), None) => {
            // Shardable queries fan out at a coordinator; bounded and
            // budgeted ones always run locally (that is policy, not
            // degradation — no `degraded` flag).
            let graph = Arc::clone(graph);
            let job = match &shared.coord {
                Some(coord) if q.params.shardable() => {
                    QueryJob::Fanout { coord: Arc::clone(coord), graph, name: q.graph.clone() }
                }
                _ => QueryJob::Bipartite { graph, resume: None },
            };
            Ok((job, Some((entry.fingerprint, key))))
        }
        (GraphData::Bipartite(graph), Some(bytes)) => {
            let ckpt = Checkpoint::from_bytes(bytes)
                .map_err(|e| (errcode::BAD_SHARD, format!("malformed shard checkpoint: {e}")))?;
            ckpt.matches(graph).map_err(|e| {
                let message = format!("shard does not match graph '{}': {e}", q.graph);
                (errcode::BAD_SHARD, message)
            })?;
            Ok((QueryJob::Bipartite { graph: Arc::clone(graph), resume: Some(ckpt) }, None))
        }
        // Frontier shards are fragments of the bipartite engine's root
        // set; general graphs run whole through the OCT driver and are
        // never sharded, so a shard aimed at one is a kind error, not a
        // bad shard.
        (GraphData::General(_), Some(_)) => Err((
            errcode::WRONG_KIND,
            format!("'{}' is a general graph; shards require a bipartite graph", q.graph),
        )),
        // Thresholds and top-k are bipartite-engine bounds: refused
        // rather than silently ignored.
        (GraphData::General(_), None) if q.params.bounded() => Err((
            errcode::WRONG_KIND,
            format!(
                "'{}' is a general graph; min-left/min-right thresholds and top-k \
                 apply only to bipartite graphs",
                q.graph
            ),
        )),
        // The OCT driver's per-assignment checkpoints are not frontier
        // shards, so even a coordinator runs a general query locally.
        (GraphData::General(graph), None) => Ok((
            QueryJob::General { graph: Arc::clone(graph) },
            Some((entry.fingerprint, format!("oct;{key}"))),
        )),
    }
}

/// The one query pipeline, for `QUERY` and `QUERY_SHARD` alike: validate,
/// answer from the cache, admit, execute on a worker, reply. While the
/// worker runs, the connection keeps servicing its pipelined
/// `CANCEL`/`SHUTDOWN` frames.
fn handle_query(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    q: &QueryRequest,
    shard: Option<&[u8]>,
) -> Vec<Response> {
    let (job, key) = match validate(shared, q, shard) {
        Ok(valid) => valid,
        Err((code, message)) => return vec![Response::Err { code, message }],
    };

    // Cache first: hits are never queued, so they can't be rejected Busy.
    if let Some((fingerprint, key)) = &key {
        let hit =
            shared.cache.lock().unwrap_or_else(PoisonError::into_inner).lookup(*fingerprint, key);
        if let Some(hit) = hit {
            shared.queries.fetch_add(1, Ordering::Relaxed);
            let answer = Answer {
                stop: StopReason::Completed,
                cached: true,
                emitted: hit.emitted,
                elapsed_us: hit.elapsed.as_micros() as u64,
                bicliques: hit.bicliques,
                checkpoint: None,
                dist: None,
            };
            return vec![reply(q, shard.is_some(), &shared.cfg, answer)];
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
        // Shutdown raced between validation and registration; its
        // cancel sweep may have missed this control.
        control.cancel();
    }

    let (tx, rx) = sync_channel(1);
    let work = {
        let shared = Arc::clone(shared);
        let params = QueryParams { threads: query_threads(q.params.threads), ..q.params.clone() };
        let control = control.clone();
        let trace_ctx = q.trace;
        Box::new(move || {
            let result = execute(&shared, job, &params, control, deadline, id, trace_ctx);
            shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
            let _ = tx.send(result);
        })
    };
    if let Err(err) = shared.admission.submit(work) {
        shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        return vec![reject(shared, err)];
    }

    let Some((result, pipelined)) = wait_for_result(shared, stream, &control, &rx) else {
        return Vec::new();
    };

    shared.queries.fetch_add(1, Ordering::Relaxed);
    let response = match result {
        Some(Ok(answer)) => {
            // The one cache rule: a completed answer whose job has a key
            // is stored with the bicliques it returned. A stopped run is a
            // prefix of the full answer decided by *when* it stopped, so
            // it is never replayed.
            if let (Some((fingerprint, key)), StopReason::Completed) = (key, answer.stop) {
                let value = CachedResult {
                    bicliques: Arc::clone(&answer.bicliques),
                    emitted: answer.emitted,
                    elapsed: Duration::from_micros(answer.elapsed_us),
                };
                shared.cache.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    fingerprint,
                    key,
                    value,
                );
            }
            reply(q, shard.is_some(), &shared.cfg, answer)
        }
        Some(Err((code, message))) => Response::Err { code, message },
        None => {
            let worker = if shard.is_some() { "shard" } else { "query" };
            let message = format!("{worker} worker disappeared without a result");
            Response::Err { code: errcode::INTERNAL, message }
        }
    };
    let mut out = vec![response];
    out.extend(pipelined);
    out
}

/// A query's `threads`, clamped to the cores of this host before its job
/// is queued. `threads` is an execution hint kept out of the cache key,
/// and `0` already means all cores, so a request for more workers than
/// cores runs on all of them: a pool is never sized by what a client
/// sent.
fn query_threads(requested: usize) -> usize {
    requested.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The one reply builder. A `QUERY` reply is clipped to the smaller of
/// the request's and the server's cap. A `QUERY_SHARD` reply is clipped
/// to the request's cap alone: shard replies are coordinator-facing, and
/// a config-clipped reply would silently drop bicliques from the merged
/// distributed result (DESIGN §8c documents this contract).
fn reply(q: &QueryRequest, shard: bool, cfg: &ServerConfig, answer: Answer) -> Response {
    let cap = if shard { q.max_return } else { q.max_return.min(cfg.max_return) };
    let body = QueryReply {
        stop: answer.stop,
        cached: answer.cached,
        emitted: answer.emitted,
        elapsed_us: answer.elapsed_us,
        total: answer.bicliques.len() as u64,
        bicliques: answer.bicliques.iter().take(cap as usize).cloned().collect(),
        checkpoint: answer.checkpoint,
        dist: answer.dist,
    };
    Response::Ok(if shard { Reply::Shard(body) } else { Reply::Query(body) })
}

/// Runs one admitted job on the current (worker) thread. A local run
/// reports to the server-wide task counter and, when tracing is
/// configured, to a per-request JSONL trace stamped with the request's
/// distributed trace context. A fan-out enumerates nothing here: it
/// writes the coordinator's span log.
fn execute(
    shared: &Shared,
    job: QueryJob,
    params: &QueryParams,
    control: RunControl,
    deadline: Option<Instant>,
    id: u64,
    trace_ctx: Option<TraceContext>,
) -> Result<Answer, Refusal> {
    let trace = match job {
        QueryJob::Fanout { .. } => None,
        _ => open_trace(shared, id, trace_ctx),
    };
    let mut fan = FanoutObserver::new();
    fan.push(Box::new(&shared.task_counter));
    if let Some(t) = &trace {
        fan.push(Box::new(t));
    }
    let answer = match job {
        QueryJob::Bipartite { graph, resume } => {
            let mut run = Enumeration::new(&graph).control(control).observer(&fan);
            if let Some(ckpt) = resume {
                run = run.resume(ckpt);
                // The coordinator fault harness stages deterministic
                // worker crashes on shard executions.
                #[cfg(feature = "fault-injection")]
                if let Some(plan) = &shared.cfg.fault_plan {
                    run = run.faults(plan.clone());
                }
            }
            let report = match run_query(run, params) {
                // A contained worker panic still carries the partial
                // report: answer with it (stop = worker-panicked) so the
                // client keeps the checkpoint and partial results.
                Err(MbeError::WorkerPanic { report, .. }) => Ok(*report),
                result => result,
            };
            report.map_err(|e| (errcode::INTERNAL, e.to_string())).map(|r| {
                let checkpoint = r.checkpoint.as_ref().map(Checkpoint::to_bytes);
                Answer::local(r.stop, r.stats.emitted, r.stats.elapsed, r.bicliques, checkpoint)
            })
        }
        QueryJob::General { graph } => {
            let mut run = OctEnumeration::new(&graph)
                .algorithm(params.algorithm)
                .order(params.order)
                .threads(params.threads)
                .control(control)
                .observer(&fan);
            if let Some(n) = params.max_bicliques {
                run = run.max_bicliques(n);
            }
            let report = if params.count_only { run.count() } else { run.collect() };
            report.map_err(|e| (errcode::INTERNAL, e.to_string())).map(|r| {
                let checkpoint = r.checkpoint.as_ref().map(OctCheckpoint::to_bytes);
                Answer::local(r.stop, r.stats.emitted, r.stats.elapsed, r.bicliques, checkpoint)
            })
        }
        QueryJob::Fanout { coord, graph, name } => {
            let span = open_span_log(shared, id);
            let m = &shared.metrics;
            let dist = coord.run(&graph, &name, params, &control, deadline, Some(m), span.as_ref());
            if let Some(e) = span.as_ref().and_then(SpanLog::take_error) {
                eprintln!("mbe-serve: span log write failed: {e}");
            }
            dist.map_err(|e| (e.code(), e.to_string())).map(|outcome| {
                // Fold the run's provenance into the registry here — the
                // one place both exist — so the Prometheus counters always
                // agree with the `DistSummary` the client saw.
                // (Dispatches, stranded claims, and fallbacks are counted
                // live at their event sites.)
                ServerMetrics::add(&m.dist_queries, 1);
                ServerMetrics::add(&m.shard_retries, u64::from(outcome.dist.retries));
                ServerMetrics::add(&m.shard_resteals, u64::from(outcome.dist.resteals));
                ServerMetrics::add(&m.shard_speculated, u64::from(outcome.dist.speculated));
                Answer {
                    stop: outcome.stop,
                    cached: false,
                    emitted: outcome.emitted,
                    elapsed_us: outcome.elapsed_us,
                    bicliques: Arc::new(outcome.bicliques),
                    checkpoint: outcome.checkpoint,
                    dist: Some(outcome.dist),
                }
            })
        }
    };
    if let Some(e) = trace.as_ref().and_then(JsonlTraceObserver::take_error) {
        eprintln!("mbe-serve: trace write failed: {e}");
    }
    answer
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_threads_are_clamped_to_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(query_threads(u32::MAX as usize), cores);
        assert_eq!(query_threads(usize::MAX), cores);
        assert_eq!(query_threads(cores + 1), cores);
        assert_eq!(query_threads(1), 1);
        // 0 (all cores) is left to the drivers.
        assert_eq!(query_threads(0), 0);
    }
}
