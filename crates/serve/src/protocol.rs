//! Typed protocol messages and their byte codecs.
//!
//! Payload layout (inside a [`crate::wire`] frame):
//!
//! ```text
//! byte 0: protocol version (PROTOCOL_VERSION = 1)
//! byte 1: opcode (requests) or status (responses)
//! rest:   message fields, little-endian, strings/blobs u32-length-prefixed
//! ```
//!
//! Requests: `LOAD`(1), `LIST`(2), `QUERY`(3), `CANCEL`(4), `STATS`(5),
//! `SHUTDOWN`(6), `QUERY_SHARD`(7), `METRICS`(8), `LOAD_GENERAL`(9).
//! Response statuses: `OK`(0) — followed by a reply tag
//! mirroring the request opcode — `ERR`(1) with a code and message, and
//! `BUSY`(2), the typed admission rejection. Unknown versions and opcodes
//! are decode errors, never silent acceptance: the version byte exists so
//! a future v2 can change anything after byte 0.
//!
//! Within version 1, [`PROTOCOL_MINOR`] tracks additive revisions:
//! minor 1 added the `METRICS` opcode and the optional trailing
//! [`TraceContext`] on `QUERY`/`QUERY_SHARD`; minor 2 added the
//! `LOAD_GENERAL` opcode (general graphs served via the OCT driver)
//! and the `WRONG_KIND` error code. Additions must keep every
//! minor-0 payload decoding unchanged (the trace context is encoded
//! only when present, so old and new encoders agree byte-for-byte on
//! trace-less requests — see the decode-compat tests).

use std::time::Duration;

use mbe::histogram::{Histogram, BUCKETS};
use mbe::service::QueryParams;
use mbe::{Algorithm, Biclique, CacheCounters, StopReason};

use bigraph::codec::{self, put_bool, put_bytes, put_str, put_u32, put_u32_list, put_u64, put_u8};
use bigraph::codec::{CodecError, Reader};
use bigraph::order::VertexOrder;

use crate::telemetry::{MetricsSnapshot, OpSnapshot, WorkerStatus};
use crate::wire::WireError;

/// Version byte every payload starts with.
pub const PROTOCOL_VERSION: u8 = 1;

/// Additive revision within [`PROTOCOL_VERSION`] — bumped when a new
/// opcode or optional trailing field is added without breaking old
/// payloads (documentation only; never sent on the wire).
pub const PROTOCOL_MINOR: u8 = 2;

/// Request opcodes (payload byte 1).
pub mod opcode {
    /// Register a server-side edge-list file under a name.
    pub const LOAD: u8 = 1;
    /// List registered graphs.
    pub const LIST: u8 = 2;
    /// Run (or replay from cache) an enumeration query.
    pub const QUERY: u8 = 3;
    /// Cancel the connection's in-flight query.
    pub const CANCEL: u8 = 4;
    /// Fetch server counters.
    pub const STATS: u8 = 5;
    /// Begin graceful shutdown.
    pub const SHUTDOWN: u8 = 6;
    /// Run a shard-scoped query: an enumeration resumed from a serialized
    /// checkpoint frontier, as issued by a coordinator to its workers.
    pub const QUERY_SHARD: u8 = 7;
    /// Fetch the full server telemetry snapshot (per-opcode counters,
    /// latency histograms, shard/health counters).
    pub const METRICS: u8 = 8;
    /// Register a server-side *general* (non-bipartite) edge-list file
    /// under a name; queries on it route through the OCT driver
    /// (protocol minor 2).
    pub const LOAD_GENERAL: u8 = 9;
}

/// Response statuses (payload byte 1).
pub mod status {
    /// Success; a reply tag and body follow.
    pub const OK: u8 = 0;
    /// Typed failure; code byte and message follow.
    pub const ERR: u8 = 1;
    /// Admission queue full — the 429-shaped rejection.
    pub const BUSY: u8 = 2;
}

/// Error codes carried by [`Response::Err`].
pub mod errcode {
    /// Unexpected server-side failure.
    pub const INTERNAL: u8 = 1;
    /// The named graph is not registered.
    pub const UNKNOWN_GRAPH: u8 = 2;
    /// The request was well-framed but semantically invalid.
    pub const BAD_REQUEST: u8 = 3;
    /// The server is draining; no new work is admitted.
    pub const SHUTTING_DOWN: u8 = 4;
    /// The graph file could not be read or parsed.
    pub const LOAD_FAILED: u8 = 5;
    /// The name is registered to a different graph (fingerprint mismatch).
    pub const NAME_CONFLICT: u8 = 6;
    /// A shard-scoped query carried a checkpoint that does not decode,
    /// does not match the named graph, or names a frontier task the
    /// graph cannot hold.
    pub const BAD_SHARD: u8 = 7;
    /// A coordinator exhausted its worker pool (all dead or quarantined)
    /// and local fallback is disabled.
    pub const NO_WORKERS: u8 = 8;
    /// The query's parameters do not apply to the target graph's kind
    /// (e.g. bipartite-only thresholds or top-k on a general graph).
    pub const WRONG_KIND: u8 = 9;

    /// Human-readable label for an error code.
    pub fn label(code: u8) -> &'static str {
        match code {
            INTERNAL => "internal",
            UNKNOWN_GRAPH => "unknown-graph",
            BAD_REQUEST => "bad-request",
            SHUTTING_DOWN => "shutting-down",
            LOAD_FAILED => "load-failed",
            NAME_CONFLICT => "name-conflict",
            BAD_SHARD => "bad-shard",
            NO_WORKERS => "no-workers",
            WRONG_KIND => "wrong-kind",
            _ => "unknown",
        }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register the edge list at server-side `path` under `name`.
    /// Idempotent when the name already maps to the same fingerprint.
    Load {
        /// Registry name to bind.
        name: String,
        /// Server-side path of the edge-list file.
        path: String,
    },
    /// List registered graphs.
    List,
    /// Run a query (or serve it from cache).
    Query(QueryRequest),
    /// Cancel this connection's in-flight query. Sent mid-query it is
    /// absorbed — the query's own response (stop = `cancelled`) is the
    /// acknowledgement; sent idle it gets its own reply.
    Cancel,
    /// Fetch server counters.
    Stats,
    /// Begin graceful shutdown: running queries are cancelled (each
    /// returning its checkpoint to its own client), then the server
    /// drains and exits.
    Shutdown,
    /// Run a shard of a distributed query: resume enumeration from the
    /// carried checkpoint frontier instead of the full root set.
    QueryShard(ShardRequest),
    /// Fetch the full server telemetry snapshot.
    Metrics,
    /// Register the *general* (non-bipartite) edge list at server-side
    /// `path` under `name`. Queries on the graph route through the OCT
    /// driver; [`GraphInfo`] reports `|V|` in `num_u` and 0 in `num_v`.
    LoadGeneral {
        /// Registry name to bind.
        name: String,
        /// Server-side path of the general edge-list file.
        path: String,
    },
}

/// Distributed trace context carried by `QUERY`/`QUERY_SHARD`
/// requests. A worker stamps both ids onto its JSONL run trace so the
/// trace can be joined against the coordinator's span log by trace id
/// (DESIGN §8b). Encoded only when present — trace-less requests are
/// byte-identical to protocol minor 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Query-scoped id shared by the coordinator log and every worker
    /// trace the query touched.
    pub trace_id: u64,
    /// The dispatching span within the coordinator's log (one per
    /// shard attempt).
    pub parent_span: u64,
}

/// The `QUERY` request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Registry name of the graph to query.
    pub graph: String,
    /// Enumeration parameters (canonicalized server-side for the cache).
    pub params: QueryParams,
    /// Cap on bicliques returned in the response (the run itself is not
    /// truncated; `u32::MAX` means "as many as the server allows").
    pub max_return: u32,
    /// Optional distributed trace context (protocol minor 1).
    pub trace: Option<TraceContext>,
}

/// The `QUERY_SHARD` request body: a query scoped to a checkpoint
/// frontier. The worker validates the checkpoint against the named
/// graph — its fingerprint and every frontier task
/// ([`errcode::BAD_SHARD`] when either does not fit) — and resumes from
/// it, so the reply covers exactly the shard's subtrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// Registry name of the graph to query.
    pub graph: String,
    /// Enumeration parameters. Thresholds/budgets must be unset — shards
    /// are only cut from shardable queries.
    pub params: QueryParams,
    /// Cap on bicliques returned in the response.
    pub max_return: u32,
    /// Serialized [`mbe::Checkpoint`] ([`mbe::Checkpoint::to_bytes`])
    /// carrying the frontier this shard must enumerate.
    pub checkpoint: Vec<u8>,
    /// Optional distributed trace context (protocol minor 1).
    pub trace: Option<TraceContext>,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success.
    Ok(Reply),
    /// Typed failure.
    Err {
        /// An [`errcode`] constant.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Admission queue full; retry later. Carries the queue state at
    /// rejection time.
    Busy {
        /// Requests queued when the rejection happened.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
}

/// The success payloads, tagged by the opcode they answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `LOAD` succeeded (or was idempotently replayed).
    Loaded(GraphInfo),
    /// `LIST` result.
    Graphs(Vec<GraphInfo>),
    /// `QUERY` result.
    Query(QueryReply),
    /// `CANCEL` received while no query was in flight.
    Cancelled,
    /// `STATS` result.
    Stats(ServerStats),
    /// `SHUTDOWN` acknowledged; the server is draining.
    ShuttingDown,
    /// `QUERY_SHARD` result — the same body as a `QUERY` reply, under its
    /// own tag so a worker's shard answer can never be confused with a
    /// whole-query answer.
    Shard(QueryReply),
    /// `METRICS` result.
    Metrics(Box<MetricsSnapshot>),
    /// `LOAD_GENERAL` succeeded (or was idempotently replayed). The
    /// info reports `|V|` in `num_u` and 0 in `num_v` — [`GraphInfo`]'s
    /// shape is pinned by the minor-0 compat tests, so the general
    /// kind is signaled by the reply tag, not a new field.
    LoadedGeneral(GraphInfo),
}

/// One registered graph, as reported by `LOAD` and `LIST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// Registry name.
    pub name: String,
    /// FNV-1a fingerprint ([`mbe::checkpoint::graph_fingerprint`]).
    pub fingerprint: u64,
    /// `|U|`.
    pub num_u: u64,
    /// `|V|`.
    pub num_v: u64,
    /// `|E|`.
    pub num_edges: u64,
}

/// The `QUERY` response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Why the run ended ([`StopReason::Completed`] for cache hits).
    pub stop: StopReason,
    /// `true` iff the result came from the result cache.
    pub cached: bool,
    /// Bicliques delivered by the (original) run.
    pub emitted: u64,
    /// Wall-clock of the (original) run, microseconds.
    pub elapsed_us: u64,
    /// Bicliques available server-side before `max_return` truncation
    /// (0 for count-only queries).
    pub total: u64,
    /// The returned bicliques (possibly truncated; empty for count-only).
    pub bicliques: Vec<Biclique>,
    /// A stopped run's serialized checkpoint — present whenever the run
    /// stopped early and was checkpointable, so a cancelled or shut-down
    /// query can be resumed elsewhere. A bipartite run or a coordinator
    /// sends [`mbe::Checkpoint`] bytes (`MBCK`,
    /// [`mbe::Checkpoint::to_bytes`]); a general-graph run sends
    /// [`oct::OctCheckpoint`] bytes (`MBOK`,
    /// [`oct::OctCheckpoint::to_bytes`]).
    pub checkpoint: Option<Vec<u8>>,
    /// How a coordinator distributed the run — present only on replies a
    /// coordinator assembled by scatter/gather (never on worker or
    /// single-server replies, and never on cache hits).
    pub dist: Option<DistSummary>,
}

/// Provenance of a coordinator-assembled query reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistSummary {
    /// Worker addresses the coordinator fanned out to.
    pub workers: u32,
    /// Shards the frontier was cut into.
    pub shards: u32,
    /// Shard attempts retried after connect/IO failure.
    pub retries: u32,
    /// Shards re-stolen from a failed worker and re-run elsewhere
    /// (from the last returned checkpoint when one came back).
    pub resteals: u32,
    /// Straggler shards speculatively duplicated (first writer wins).
    pub speculated: u32,
    /// `true` when every worker was lost and the coordinator fell back
    /// to enumerating the remaining shards locally.
    pub degraded: bool,
}

/// Server counters returned by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Registered graphs.
    pub graphs: u64,
    /// Queries currently executing or queued (registered controls).
    pub inflight: u64,
    /// Requests waiting in the admission queue.
    pub queued: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Queries answered (cache hits included).
    pub queries: u64,
    /// Queries rejected with [`Response::Busy`].
    pub busy_rejected: u64,
    /// Enumeration tasks started, observed via the server's global
    /// observer hook (cache hits start none).
    pub tasks_started: u64,
    /// Result-cache counters.
    pub cache: CacheCounters,
    /// Summed queue wait of executed jobs, microseconds. Together with
    /// `jobs_executed` this lets a health probe tell *busy* (alive, wait
    /// rising) from *dead* (no STATS reply at all).
    pub queue_wait_total_us: u64,
    /// Largest single queue wait observed, microseconds.
    pub queue_wait_max_us: u64,
    /// Jobs admission workers have picked up.
    pub jobs_executed: u64,
    /// `true` once graceful shutdown has begun.
    pub shutting_down: bool,
}

/// A vertex order as the checkpoint codec's tag shifted down by one (the
/// wire's tags are 0-based) plus its seed.
fn put_order(buf: &mut Vec<u8>, o: VertexOrder) {
    let (tag, seed) = codec::order_tag(o);
    put_u8(buf, tag - 1);
    put_u64(buf, seed);
}

fn order_from_reader(r: &mut Reader<'_>) -> Result<VertexOrder, CodecError> {
    let tag = r.u8("order tag")?.wrapping_add(1);
    codec::order_from_tag(tag, r.u64("order seed")?).map_err(|_| CodecError::Invalid("order tag"))
}

/// `Option<u64>` as a presence byte plus the value (0 when absent).
fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    put_bool(buf, v.is_some());
    put_u64(buf, v.unwrap_or(0));
}

fn opt_u64_from_reader(r: &mut Reader<'_>, what: &'static str) -> Result<Option<u64>, CodecError> {
    let present = r.bool(what)?;
    match (present, r.u64(what)?) {
        (true, value) => Ok(Some(value)),
        (false, 0) => Ok(None),
        (false, _) => Err(CodecError::Invalid(what)),
    }
}

/// The optional trailing [`TraceContext`]: nothing at all when absent
/// (so trace-less payloads match protocol minor 0 byte-for-byte), a
/// presence byte plus two u64s when present.
fn put_opt_trace(buf: &mut Vec<u8>, t: Option<TraceContext>) {
    if let Some(t) = t {
        put_u8(buf, 1);
        put_u64(buf, t.trace_id);
        put_u64(buf, t.parent_span);
    }
}

/// Decodes the optional trailing trace context: end-of-payload means
/// absent, otherwise the presence byte must be 1 (no encoder writes an
/// explicit "absent" byte).
fn opt_trace_from_reader(r: &mut Reader<'_>) -> Result<Option<TraceContext>, CodecError> {
    if r.remaining() == 0 {
        return Ok(None);
    }
    match r.u8("trace present")? {
        1 => Ok(Some(TraceContext {
            trace_id: r.u64("trace id")?,
            parent_span: r.u64("parent span")?,
        })),
        _ => Err(CodecError::Invalid("trace present")),
    }
}

fn put_params(buf: &mut Vec<u8>, p: &QueryParams) {
    put_u8(buf, p.algorithm.tag());
    put_order(buf, p.order);
    put_u32(buf, p.threads as u32);
    put_u32(buf, p.min_left as u32);
    put_u32(buf, p.min_right as u32);
    put_opt_u64(buf, p.top_k.map(|k| k as u64));
    put_opt_u64(buf, p.max_bicliques);
    put_opt_u64(buf, p.timeout.map(|d| d.as_millis() as u64));
    put_bool(buf, p.count_only);
}

fn params_from_reader(r: &mut Reader<'_>) -> Result<QueryParams, CodecError> {
    let algorithm = Algorithm::from_tag(r.u8("algorithm")?)?;
    let order = order_from_reader(r)?;
    let threads = r.u32("threads")? as usize;
    let min_left = r.u32("min_left")? as usize;
    let min_right = r.u32("min_right")? as usize;
    let top_k = opt_u64_from_reader(r, "top_k")?.map(|k| k as usize);
    let max_bicliques = opt_u64_from_reader(r, "max_bicliques")?;
    let timeout = opt_u64_from_reader(r, "timeout_ms")?.map(Duration::from_millis);
    let count_only = r.bool("count_only")?;
    Ok(QueryParams {
        algorithm,
        order,
        threads,
        min_left,
        min_right,
        top_k,
        max_bicliques,
        timeout,
        count_only,
    })
}

fn put_graph_info(buf: &mut Vec<u8>, g: &GraphInfo) {
    put_str(buf, &g.name);
    put_u64(buf, g.fingerprint);
    put_u64(buf, g.num_u);
    put_u64(buf, g.num_v);
    put_u64(buf, g.num_edges);
}

fn graph_info_from_reader(r: &mut Reader<'_>) -> Result<GraphInfo, CodecError> {
    Ok(GraphInfo {
        name: r.str("graph name")?.to_string(),
        fingerprint: r.u64("fingerprint")?,
        num_u: r.u64("num_u")?,
        num_v: r.u64("num_v")?,
        num_edges: r.u64("num_edges")?,
    })
}

fn put_biclique(buf: &mut Vec<u8>, b: &Biclique) {
    put_u32_list(buf, &b.left);
    put_u32_list(buf, &b.right);
}

fn biclique_from_reader(r: &mut Reader<'_>) -> Result<Biclique, CodecError> {
    Ok(Biclique { left: r.u32_list("left len")?, right: r.u32_list("right len")? })
}

fn put_stats(buf: &mut Vec<u8>, s: &ServerStats) {
    put_u64(buf, s.graphs);
    put_u64(buf, s.inflight);
    put_u64(buf, s.queued);
    put_u64(buf, s.queue_capacity);
    put_u64(buf, s.workers);
    put_u64(buf, s.queries);
    put_u64(buf, s.busy_rejected);
    put_u64(buf, s.tasks_started);
    put_u64(buf, s.cache.hits);
    put_u64(buf, s.cache.misses);
    put_u64(buf, s.cache.insertions);
    put_u64(buf, s.cache.evictions);
    put_u64(buf, s.cache.bytes_used);
    put_u64(buf, s.cache.bytes_evicted);
    put_u64(buf, s.queue_wait_total_us);
    put_u64(buf, s.queue_wait_max_us);
    put_u64(buf, s.jobs_executed);
    put_bool(buf, s.shutting_down);
}

fn stats_from_reader(r: &mut Reader<'_>) -> Result<ServerStats, CodecError> {
    Ok(ServerStats {
        graphs: r.u64("graphs")?,
        inflight: r.u64("inflight")?,
        queued: r.u64("queued")?,
        queue_capacity: r.u64("queue_capacity")?,
        workers: r.u64("workers")?,
        queries: r.u64("queries")?,
        busy_rejected: r.u64("busy_rejected")?,
        tasks_started: r.u64("tasks_started")?,
        cache: CacheCounters {
            hits: r.u64("cache.hits")?,
            misses: r.u64("cache.misses")?,
            insertions: r.u64("cache.insertions")?,
            evictions: r.u64("cache.evictions")?,
            bytes_used: r.u64("cache.bytes_used")?,
            bytes_evicted: r.u64("cache.bytes_evicted")?,
        },
        queue_wait_total_us: r.u64("queue_wait_total_us")?,
        queue_wait_max_us: r.u64("queue_wait_max_us")?,
        jobs_executed: r.u64("jobs_executed")?,
        shutting_down: r.bool("shutting_down")?,
    })
}

/// A histogram as its value sum plus a length-prefixed bucket array.
fn put_histogram(buf: &mut Vec<u8>, h: &Histogram) {
    put_u64(buf, h.sum());
    put_u32(buf, h.buckets().len() as u32);
    for &c in h.buckets() {
        put_u64(buf, c);
    }
}

fn histogram_from_reader(r: &mut Reader<'_>) -> Result<Histogram, CodecError> {
    let sum = r.u64("histogram sum")?;
    // Every encoder writes all `BUCKETS`; any other count would decode
    // to a histogram that re-encodes differently.
    if r.u32("histogram buckets")? as usize != BUCKETS {
        return Err(CodecError::Invalid("histogram buckets"));
    }
    let mut buckets = [0u64; BUCKETS];
    for slot in &mut buckets {
        *slot = r.u64("histogram bucket")?;
    }
    Ok(Histogram::from_parts(&buckets, sum))
}

fn put_metrics(buf: &mut Vec<u8>, m: &MetricsSnapshot) {
    put_u64(buf, m.uptime_us);
    put_u32(buf, m.ops.len() as u32);
    for op in &m.ops {
        put_u64(buf, op.count);
        put_u64(buf, op.errors);
        put_histogram(buf, &op.latency);
    }
    put_u64(buf, m.queued);
    put_u64(buf, m.queue_capacity);
    put_u64(buf, m.pool_workers);
    put_histogram(buf, &m.queue_wait);
    put_u64(buf, m.jobs_executed);
    put_u64(buf, m.busy_rejected);
    put_u64(buf, m.cache_hits);
    put_u64(buf, m.cache_misses);
    put_u64(buf, m.cache_insertions);
    put_u64(buf, m.cache_evictions);
    put_u64(buf, m.cache_bytes_used);
    put_u64(buf, m.cache_bytes_evicted);
    put_u64(buf, m.graphs);
    put_u64(buf, m.graph_loads);
    put_u64(buf, m.graph_conflicts);
    put_u64(buf, m.inflight);
    put_u64(buf, m.queries);
    put_u64(buf, m.dist_queries);
    put_u64(buf, m.shard_dispatches);
    put_u64(buf, m.shard_retries);
    put_u64(buf, m.shard_resteals);
    put_u64(buf, m.shard_speculated);
    put_u64(buf, m.shard_stranded_claims);
    put_u64(buf, m.shard_fallbacks);
    put_u64(buf, m.worker_quarantines);
    put_u64(buf, m.worker_readmissions);
    put_u32(buf, m.workers.len() as u32);
    for w in &m.workers {
        put_bool(buf, w.healthy);
        put_u64(buf, w.consecutive_failures);
        put_u64(buf, w.successes);
        put_u64(buf, w.failures);
        put_u64(buf, w.quarantines);
        put_u64(buf, w.readmissions);
    }
    put_bool(buf, m.shutting_down);
}

fn metrics_from_reader(r: &mut Reader<'_>) -> Result<MetricsSnapshot, CodecError> {
    let uptime_us = r.u64("uptime_us")?;
    let n_ops = r.u32("op count")? as usize;
    // ≥ 28 wire bytes per op row (two u64s + histogram header).
    if n_ops > r.remaining() / 28 {
        return Err(CodecError::Truncated("op count"));
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let count = r.u64("op.count")?;
        let errors = r.u64("op.errors")?;
        let latency = histogram_from_reader(r)?;
        ops.push(OpSnapshot { count, errors, latency });
    }
    let queued = r.u64("queued")?;
    let queue_capacity = r.u64("queue_capacity")?;
    let pool_workers = r.u64("pool_workers")?;
    let queue_wait = histogram_from_reader(r)?;
    let jobs_executed = r.u64("jobs_executed")?;
    let busy_rejected = r.u64("busy_rejected")?;
    let cache_hits = r.u64("cache_hits")?;
    let cache_misses = r.u64("cache_misses")?;
    let cache_insertions = r.u64("cache_insertions")?;
    let cache_evictions = r.u64("cache_evictions")?;
    let cache_bytes_used = r.u64("cache_bytes_used")?;
    let cache_bytes_evicted = r.u64("cache_bytes_evicted")?;
    let graphs = r.u64("graphs")?;
    let graph_loads = r.u64("graph_loads")?;
    let graph_conflicts = r.u64("graph_conflicts")?;
    let inflight = r.u64("inflight")?;
    let queries = r.u64("queries")?;
    let dist_queries = r.u64("dist_queries")?;
    let shard_dispatches = r.u64("shard_dispatches")?;
    let shard_retries = r.u64("shard_retries")?;
    let shard_resteals = r.u64("shard_resteals")?;
    let shard_speculated = r.u64("shard_speculated")?;
    let shard_stranded_claims = r.u64("shard_stranded_claims")?;
    let shard_fallbacks = r.u64("shard_fallbacks")?;
    let worker_quarantines = r.u64("worker_quarantines")?;
    let worker_readmissions = r.u64("worker_readmissions")?;
    let n_workers = r.u32("worker count")? as usize;
    // ≥ 41 wire bytes per worker row (a flag byte + five u64s).
    if n_workers > r.remaining() / 41 {
        return Err(CodecError::Truncated("worker count"));
    }
    let mut workers = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        workers.push(WorkerStatus {
            healthy: r.bool("worker.healthy")?,
            consecutive_failures: r.u64("worker.consecutive_failures")?,
            successes: r.u64("worker.successes")?,
            failures: r.u64("worker.failures")?,
            quarantines: r.u64("worker.quarantines")?,
            readmissions: r.u64("worker.readmissions")?,
        });
    }
    let shutting_down = r.bool("shutting_down")?;
    Ok(MetricsSnapshot {
        uptime_us,
        ops,
        queued,
        queue_capacity,
        pool_workers,
        queue_wait,
        jobs_executed,
        busy_rejected,
        cache_hits,
        cache_misses,
        cache_insertions,
        cache_evictions,
        cache_bytes_used,
        cache_bytes_evicted,
        graphs,
        graph_loads,
        graph_conflicts,
        inflight,
        queries,
        dist_queries,
        shard_dispatches,
        shard_retries,
        shard_resteals,
        shard_speculated,
        shard_stranded_claims,
        shard_fallbacks,
        worker_quarantines,
        worker_readmissions,
        workers,
        shutting_down,
    })
}

/// The `QUERY`/`QUERY_SHARD` reply body, shared by both reply tags.
fn put_query_reply(buf: &mut Vec<u8>, q: &QueryReply) {
    put_u8(buf, q.stop.encode());
    put_bool(buf, q.cached);
    put_u64(buf, q.emitted);
    put_u64(buf, q.elapsed_us);
    put_u64(buf, q.total);
    put_u32(buf, q.bicliques.len() as u32);
    for b in &q.bicliques {
        put_biclique(buf, b);
    }
    match &q.checkpoint {
        Some(bytes) => {
            put_u8(buf, 1);
            put_bytes(buf, bytes);
        }
        None => put_u8(buf, 0),
    }
    match &q.dist {
        Some(d) => {
            put_u8(buf, 1);
            put_u32(buf, d.workers);
            put_u32(buf, d.shards);
            put_u32(buf, d.retries);
            put_u32(buf, d.resteals);
            put_u32(buf, d.speculated);
            put_bool(buf, d.degraded);
        }
        None => put_u8(buf, 0),
    }
}

fn query_reply_from_reader(r: &mut Reader<'_>) -> Result<QueryReply, WireError> {
    let stop = StopReason::decode(r.u8("stop")?).ok_or(WireError::Malformed("stop reason"))?;
    let cached = r.bool("cached")?;
    let emitted = r.u64("emitted")?;
    let elapsed_us = r.u64("elapsed_us")?;
    let total = r.u64("total")?;
    let n = r.u32("biclique count")? as usize;
    // Capped pre-size (≥ 8 wire bytes per empty biclique) so a hostile
    // count can't reserve gigabytes.
    let mut bicliques = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        bicliques.push(biclique_from_reader(r)?);
    }
    let checkpoint = match r.u8("checkpoint present")? {
        0 => None,
        1 => Some(r.bytes("checkpoint")?.to_vec()),
        _ => return Err(WireError::Malformed("checkpoint present")),
    };
    let dist = match r.u8("dist present")? {
        0 => None,
        1 => Some(DistSummary {
            workers: r.u32("dist.workers")?,
            shards: r.u32("dist.shards")?,
            retries: r.u32("dist.retries")?,
            resteals: r.u32("dist.resteals")?,
            speculated: r.u32("dist.speculated")?,
            degraded: r.bool("dist.degraded")?,
        }),
        _ => return Err(WireError::Malformed("dist present")),
    };
    Ok(QueryReply { stop, cached, emitted, elapsed_us, total, bicliques, checkpoint, dist })
}

impl Request {
    /// Encodes this request as a frame payload (version + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTOCOL_VERSION);
        match self {
            Request::Load { name, path } => {
                put_u8(&mut buf, opcode::LOAD);
                put_str(&mut buf, name);
                put_str(&mut buf, path);
            }
            Request::List => put_u8(&mut buf, opcode::LIST),
            Request::Query(q) => {
                put_u8(&mut buf, opcode::QUERY);
                put_str(&mut buf, &q.graph);
                put_params(&mut buf, &q.params);
                put_u32(&mut buf, q.max_return);
                put_opt_trace(&mut buf, q.trace);
            }
            Request::Cancel => put_u8(&mut buf, opcode::CANCEL),
            Request::Stats => put_u8(&mut buf, opcode::STATS),
            Request::Shutdown => put_u8(&mut buf, opcode::SHUTDOWN),
            Request::QueryShard(s) => {
                put_u8(&mut buf, opcode::QUERY_SHARD);
                put_str(&mut buf, &s.graph);
                put_params(&mut buf, &s.params);
                put_u32(&mut buf, s.max_return);
                put_bytes(&mut buf, &s.checkpoint);
                put_opt_trace(&mut buf, s.trace);
            }
            Request::Metrics => put_u8(&mut buf, opcode::METRICS),
            Request::LoadGeneral { name, path } => {
                put_u8(&mut buf, opcode::LOAD_GENERAL);
                put_str(&mut buf, name);
                put_str(&mut buf, path);
            }
        }
        buf
    }

    /// Decodes a frame payload into a request. Rejects unknown versions,
    /// unknown opcodes, and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let version = r.u8("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version(version));
        }
        let op = r.u8("opcode")?;
        let req = match op {
            opcode::LOAD => Request::Load {
                name: r.str("load name")?.to_string(),
                path: r.str("load path")?.to_string(),
            },
            opcode::LIST => Request::List,
            opcode::QUERY => {
                let graph = r.str("query graph")?.to_string();
                let params = params_from_reader(&mut r)?;
                let max_return = r.u32("max_return")?;
                let trace = opt_trace_from_reader(&mut r)?;
                Request::Query(QueryRequest { graph, params, max_return, trace })
            }
            opcode::CANCEL => Request::Cancel,
            opcode::STATS => Request::Stats,
            opcode::SHUTDOWN => Request::Shutdown,
            opcode::QUERY_SHARD => {
                let graph = r.str("shard graph")?.to_string();
                let params = params_from_reader(&mut r)?;
                let max_return = r.u32("max_return")?;
                let checkpoint = r.bytes("shard checkpoint")?.to_vec();
                let trace = opt_trace_from_reader(&mut r)?;
                Request::QueryShard(ShardRequest { graph, params, max_return, checkpoint, trace })
            }
            opcode::METRICS => Request::Metrics,
            opcode::LOAD_GENERAL => Request::LoadGeneral {
                name: r.str("load-general name")?.to_string(),
                path: r.str("load-general path")?.to_string(),
            },
            _ => return Err(WireError::Malformed("opcode")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as a frame payload (version + status + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTOCOL_VERSION);
        match self {
            Response::Ok(reply) => {
                put_u8(&mut buf, status::OK);
                match reply {
                    Reply::Loaded(info) => {
                        put_u8(&mut buf, opcode::LOAD);
                        put_graph_info(&mut buf, info);
                    }
                    Reply::Graphs(list) => {
                        put_u8(&mut buf, opcode::LIST);
                        put_u32(&mut buf, list.len() as u32);
                        for info in list {
                            put_graph_info(&mut buf, info);
                        }
                    }
                    Reply::Query(q) => {
                        put_u8(&mut buf, opcode::QUERY);
                        put_query_reply(&mut buf, q);
                    }
                    Reply::Cancelled => put_u8(&mut buf, opcode::CANCEL),
                    Reply::Stats(s) => {
                        put_u8(&mut buf, opcode::STATS);
                        put_stats(&mut buf, s);
                    }
                    Reply::ShuttingDown => put_u8(&mut buf, opcode::SHUTDOWN),
                    Reply::Shard(q) => {
                        put_u8(&mut buf, opcode::QUERY_SHARD);
                        put_query_reply(&mut buf, q);
                    }
                    Reply::Metrics(m) => {
                        put_u8(&mut buf, opcode::METRICS);
                        put_metrics(&mut buf, m);
                    }
                    Reply::LoadedGeneral(info) => {
                        put_u8(&mut buf, opcode::LOAD_GENERAL);
                        put_graph_info(&mut buf, info);
                    }
                }
            }
            Response::Err { code, message } => {
                put_u8(&mut buf, status::ERR);
                put_u8(&mut buf, *code);
                put_str(&mut buf, message);
            }
            Response::Busy { queued, capacity } => {
                put_u8(&mut buf, status::BUSY);
                put_u32(&mut buf, *queued);
                put_u32(&mut buf, *capacity);
            }
        }
        buf
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let version = r.u8("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version(version));
        }
        let resp = match r.u8("status")? {
            status::OK => {
                let tag = r.u8("reply tag")?;
                let reply = match tag {
                    opcode::LOAD => Reply::Loaded(graph_info_from_reader(&mut r)?),
                    opcode::LIST => {
                        let n = r.u32("graph count")? as usize;
                        // Pre-size, capped by what the payload could
                        // actually hold (≥ 36 wire bytes per entry) so
                        // a hostile count can't reserve gigabytes.
                        let mut list = Vec::with_capacity(n.min(r.remaining() / 36));
                        for _ in 0..n {
                            list.push(graph_info_from_reader(&mut r)?);
                        }
                        Reply::Graphs(list)
                    }
                    opcode::QUERY => Reply::Query(query_reply_from_reader(&mut r)?),
                    opcode::CANCEL => Reply::Cancelled,
                    opcode::STATS => Reply::Stats(stats_from_reader(&mut r)?),
                    opcode::SHUTDOWN => Reply::ShuttingDown,
                    opcode::QUERY_SHARD => Reply::Shard(query_reply_from_reader(&mut r)?),
                    opcode::METRICS => Reply::Metrics(Box::new(metrics_from_reader(&mut r)?)),
                    opcode::LOAD_GENERAL => Reply::LoadedGeneral(graph_info_from_reader(&mut r)?),
                    _ => return Err(WireError::Malformed("reply tag")),
                };
                Response::Ok(reply)
            }
            status::ERR => {
                let code = r.u8("err code")?;
                let message = r.str("err message")?.to_string();
                Response::Err { code, message }
            }
            status::BUSY => {
                let queued = r.u32("busy queued")?;
                let capacity = r.u32("busy capacity")?;
                Response::Busy { queued, capacity }
            }
            _ => return Err(WireError::Malformed("status")),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(bytes[0], PROTOCOL_VERSION);
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(bytes[0], PROTOCOL_VERSION);
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Load { name: "web".into(), path: "/tmp/web.txt".into() });
        roundtrip_req(Request::LoadGeneral { name: "road".into(), path: "/tmp/road.txt".into() });
        roundtrip_req(Request::List);
        roundtrip_req(Request::Cancel);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Query(QueryRequest {
            graph: "g1".into(),
            params: QueryParams {
                algorithm: Algorithm::Imbea,
                order: VertexOrder::Random(42),
                threads: 4,
                min_left: 2,
                min_right: 3,
                top_k: Some(10),
                max_bicliques: Some(0), // budget 0 is meaningful, not "absent"
                timeout: Some(Duration::from_millis(1500)),
                count_only: true,
            },
            max_return: 100,
            trace: None,
        }));
        // Defaults (all the None paths).
        roundtrip_req(Request::Query(QueryRequest {
            graph: "g2".into(),
            params: QueryParams::default(),
            max_return: u32::MAX,
            trace: None,
        }));
        roundtrip_req(Request::QueryShard(ShardRequest {
            graph: "g3".into(),
            params: QueryParams { threads: 2, ..QueryParams::default() },
            max_return: 50,
            checkpoint: vec![9, 8, 7, 6, 5],
            trace: None,
        }));
        roundtrip_req(Request::Metrics);
        // Trace contexts survive both carrying opcodes.
        roundtrip_req(Request::Query(QueryRequest {
            graph: "g4".into(),
            params: QueryParams::default(),
            max_return: 10,
            trace: Some(TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 7 }),
        }));
        roundtrip_req(Request::QueryShard(ShardRequest {
            graph: "g5".into(),
            params: QueryParams::default(),
            max_return: 10,
            checkpoint: vec![1, 2],
            trace: Some(TraceContext { trace_id: u64::MAX, parent_span: 0 }),
        }));
    }

    /// A minor-0 encoder never wrote the trace tail; a minor-1 decoder
    /// must read those payloads unchanged — and a minor-1 encoder with
    /// no trace must produce the identical bytes, so minor-0 decoders
    /// accept minor-1 trace-less requests too.
    #[test]
    fn trace_less_requests_are_wire_compatible_with_minor_zero() {
        // Hand-build the old QUERY shape: graph, params, max_return,
        // nothing after.
        let mut old = Vec::new();
        put_u8(&mut old, PROTOCOL_VERSION);
        put_u8(&mut old, opcode::QUERY);
        put_str(&mut old, "g");
        put_params(&mut old, &QueryParams::default());
        put_u32(&mut old, 5);
        let decoded = Request::decode(&old).unwrap();
        let expected = Request::Query(QueryRequest {
            graph: "g".into(),
            params: QueryParams::default(),
            max_return: 5,
            trace: None,
        });
        assert_eq!(decoded, expected);
        // Byte-identical in the other direction.
        assert_eq!(expected.encode(), old);

        // Same for QUERY_SHARD.
        let mut old = Vec::new();
        put_u8(&mut old, PROTOCOL_VERSION);
        put_u8(&mut old, opcode::QUERY_SHARD);
        put_str(&mut old, "g");
        put_params(&mut old, &QueryParams::default());
        put_u32(&mut old, 5);
        put_bytes(&mut old, &[3, 4]);
        let decoded = Request::decode(&old).unwrap();
        let expected = Request::QueryShard(ShardRequest {
            graph: "g".into(),
            params: QueryParams::default(),
            max_return: 5,
            checkpoint: vec![3, 4],
            trace: None,
        });
        assert_eq!(decoded, expected);
        assert_eq!(expected.encode(), old);

        // No encoder writes an explicit absent-marker byte (0), so it is
        // rejected like any other bad presence byte rather than skipped.
        for marker in [0, 7] {
            let mut bad = expected.encode();
            bad.push(marker);
            assert!(Request::decode(&bad).is_err(), "marker {marker}");
        }
    }

    /// Decoding is strict: bytes no encoder writes are rejected, so every
    /// accepted payload re-encodes byte-identically.
    #[test]
    fn non_canonical_payloads_are_rejected() {
        let query = Request::Query(QueryRequest {
            graph: "g".into(),
            params: QueryParams::default(),
            max_return: 5,
            trace: None,
        })
        .encode();
        // Layout: version, opcode, "g" (4 + 1), algorithm, order tag,
        // order seed (8), threads, min_left, min_right (4 each), then the
        // three optional u64s (presence byte + 8 value bytes each).
        let seed = 2 + 5 + 2;
        let optionals = seed + 8 + 12;
        let mut patches = vec![seed, seed + 7];
        for field in 0..3 {
            patches.extend([optionals + 9 * field + 1, optionals + 9 * field + 8]);
        }
        for at in patches {
            let mut bytes = query.clone();
            bytes[at] ^= 1;
            assert!(Request::decode(&bytes).is_err(), "byte {at} was accepted");
        }

        // Every bool is 0 or 1: STATS's `shutting_down` is its last byte.
        let stats = Response::Ok(Reply::Stats(ServerStats::default())).encode();
        for byte in 2..=u8::MAX {
            let mut bytes = stats.clone();
            *bytes.last_mut().unwrap() = byte;
            assert!(Response::decode(&bytes).is_err(), "shutting_down = {byte}");
        }

        // A histogram carries exactly `BUCKETS` buckets.
        let mut metrics = Vec::new();
        put_u8(&mut metrics, PROTOCOL_VERSION);
        put_u8(&mut metrics, status::OK);
        put_u8(&mut metrics, opcode::METRICS);
        put_metrics(&mut metrics, &MetricsSnapshot::default());
        assert!(Response::decode(&metrics).is_ok());
        // Header, uptime, no op rows, three u64s, then `queue_wait`'s sum.
        let first_count = 3 + 8 + 4 + 3 * 8 + 8;
        assert_eq!(metrics[first_count..first_count + 4], (BUCKETS as u32).to_le_bytes());
        metrics[first_count] -= 1;
        metrics.truncate(metrics.len() - 8);
        assert!(Response::decode(&metrics).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let info = GraphInfo {
            name: "web".into(),
            fingerprint: 0xFEED_F00D,
            num_u: 10,
            num_v: 20,
            num_edges: 55,
        };
        roundtrip_resp(Response::Ok(Reply::Loaded(info.clone())));
        // A general graph reuses GraphInfo with |V| in num_u and num_v=0;
        // the LOAD_GENERAL reply tag (not a new field) signals the kind.
        roundtrip_resp(Response::Ok(Reply::LoadedGeneral(GraphInfo {
            name: "road".into(),
            fingerprint: 0xC0FF_EE00,
            num_u: 128,
            num_v: 0,
            num_edges: 301,
        })));
        roundtrip_resp(Response::Err {
            code: errcode::WRONG_KIND,
            message: "min-left applies only to bipartite graphs".into(),
        });
        roundtrip_resp(Response::Ok(Reply::Graphs(vec![info.clone(), info])));
        roundtrip_resp(Response::Ok(Reply::Graphs(Vec::new())));
        roundtrip_resp(Response::Ok(Reply::Cancelled));
        roundtrip_resp(Response::Ok(Reply::ShuttingDown));
        roundtrip_resp(Response::Err { code: errcode::UNKNOWN_GRAPH, message: "no web".into() });
        roundtrip_resp(Response::Busy { queued: 8, capacity: 8 });
        roundtrip_resp(Response::Ok(Reply::Stats(ServerStats {
            graphs: 2,
            inflight: 1,
            queued: 3,
            queue_capacity: 8,
            workers: 4,
            queries: 100,
            busy_rejected: 5,
            tasks_started: 64,
            cache: CacheCounters {
                hits: 9,
                misses: 7,
                insertions: 7,
                evictions: 2,
                bytes_used: 4096,
                bytes_evicted: 1024,
            },
            queue_wait_total_us: 123_456,
            queue_wait_max_us: 45_000,
            jobs_executed: 77,
            shutting_down: true,
        })));
        roundtrip_resp(Response::Ok(Reply::Query(QueryReply {
            stop: StopReason::Cancelled,
            cached: false,
            emitted: 12,
            elapsed_us: 34_567,
            total: 12,
            bicliques: vec![
                Biclique::new(vec![3, 1], vec![2]),
                Biclique::new(vec![0], vec![5, 6, 7]),
            ],
            checkpoint: Some(vec![1, 2, 3, 4]),
            dist: None,
        })));
        roundtrip_resp(Response::Ok(Reply::Query(QueryReply {
            stop: StopReason::Completed,
            cached: true,
            emitted: 0,
            elapsed_us: 0,
            total: 0,
            bicliques: Vec::new(),
            checkpoint: None,
            dist: None,
        })));
        // A coordinator-assembled reply with full distribution provenance,
        // under both the QUERY and the QUERY_SHARD tag.
        let distributed = QueryReply {
            stop: StopReason::Completed,
            cached: false,
            emitted: 40,
            elapsed_us: 9_999,
            total: 40,
            bicliques: vec![Biclique::new(vec![1], vec![2])],
            checkpoint: None,
            dist: Some(DistSummary {
                workers: 3,
                shards: 12,
                retries: 2,
                resteals: 1,
                speculated: 1,
                degraded: true,
            }),
        };
        roundtrip_resp(Response::Ok(Reply::Query(distributed.clone())));
        roundtrip_resp(Response::Ok(Reply::Shard(distributed)));
    }

    #[test]
    fn metrics_reply_roundtrips() {
        use crate::telemetry::{OP_COUNT, OP_QUERY};
        // Empty snapshot (fresh server).
        roundtrip_resp(Response::Ok(Reply::Metrics(Box::default())));
        // A populated snapshot with histograms and per-worker rows.
        let mut m = MetricsSnapshot {
            uptime_us: 1_234_567,
            ops: vec![OpSnapshot::default(); OP_COUNT],
            queued: 2,
            queue_capacity: 8,
            pool_workers: 4,
            jobs_executed: 31,
            busy_rejected: 1,
            cache_hits: 5,
            cache_misses: 6,
            cache_insertions: 6,
            cache_evictions: 1,
            cache_bytes_used: 2048,
            cache_bytes_evicted: 512,
            graphs: 2,
            graph_loads: 3,
            graph_conflicts: 1,
            inflight: 1,
            queries: 30,
            dist_queries: 4,
            shard_dispatches: 17,
            shard_retries: 2,
            shard_resteals: 1,
            shard_speculated: 1,
            shard_stranded_claims: 1,
            shard_fallbacks: 1,
            worker_quarantines: 1,
            worker_readmissions: 1,
            workers: vec![
                WorkerStatus {
                    healthy: true,
                    consecutive_failures: 0,
                    successes: 12,
                    failures: 1,
                    quarantines: 0,
                    readmissions: 0,
                },
                WorkerStatus {
                    healthy: false,
                    consecutive_failures: 3,
                    successes: 2,
                    failures: 5,
                    quarantines: 1,
                    readmissions: 1,
                },
            ],
            shutting_down: false,
            ..Default::default()
        };
        m.queue_wait.record(420);
        if let Some(op) = m.ops.get_mut(OP_QUERY) {
            op.count = 30;
            op.errors = 2;
            op.latency.record(15_000);
            op.latency.record(u64::MAX);
        }
        roundtrip_resp(Response::Ok(Reply::Metrics(Box::new(m))));
    }

    #[test]
    fn hostile_metrics_lengths_are_rejected_without_allocation() {
        // An op count far larger than the remaining payload must fail
        // the bounds check, not attempt the allocation.
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTOCOL_VERSION);
        put_u8(&mut buf, status::OK);
        put_u8(&mut buf, opcode::METRICS);
        put_u64(&mut buf, 0); // uptime
        put_u32(&mut buf, u32::MAX); // hostile op count
        assert!(Response::decode(&buf).is_err());

        // Same for a hostile histogram bucket count.
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTOCOL_VERSION);
        put_u8(&mut buf, status::OK);
        put_u8(&mut buf, opcode::METRICS);
        put_u64(&mut buf, 0); // uptime
        put_u32(&mut buf, 1); // one op row...
        put_u64(&mut buf, 0); // count
        put_u64(&mut buf, 0); // errors
        put_u64(&mut buf, 0); // histogram sum
        put_u32(&mut buf, u32::MAX); // ...with 4B buckets
        assert!(Response::decode(&buf).is_err());
    }

    #[test]
    fn shard_reply_tag_is_distinct_from_query() {
        let reply = QueryReply {
            stop: StopReason::Completed,
            cached: false,
            emitted: 1,
            elapsed_us: 1,
            total: 1,
            bicliques: Vec::new(),
            checkpoint: None,
            dist: None,
        };
        let shard = Response::Ok(Reply::Shard(reply.clone())).encode();
        let query = Response::Ok(Reply::Query(reply)).encode();
        assert_ne!(shard, query, "reply tags must distinguish shard from whole-query answers");
        assert_eq!(shard[2], opcode::QUERY_SHARD);
        assert_eq!(query[2], opcode::QUERY);
    }

    #[test]
    fn every_stop_reason_roundtrips() {
        for stop in [
            StopReason::Completed,
            StopReason::Cancelled,
            StopReason::Deadline,
            StopReason::EmitBudget,
            StopReason::NodeBudget,
            StopReason::SinkStopped,
            StopReason::WorkerPanicked,
        ] {
            assert_eq!(StopReason::decode(stop.encode()), Some(stop));
        }
        assert_eq!(StopReason::decode(0), None);
        assert_eq!(StopReason::decode(8), None);
    }

    #[test]
    fn bad_version_opcode_and_trailing_bytes_rejected() {
        let mut bytes = Request::List.encode();
        bytes[0] = 9;
        assert!(matches!(Request::decode(&bytes).unwrap_err(), WireError::Version(9)));

        let mut bytes = Request::List.encode();
        bytes[1] = 200;
        assert!(Request::decode(&bytes).is_err());

        let mut bytes = Request::List.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());

        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[PROTOCOL_VERSION, 77]).is_err());
    }

    #[test]
    fn hostile_biclique_length_is_rejected_without_allocation() {
        // A Query reply claiming 2^32-ish ids with a 10-byte body must
        // fail on the bounds check, not attempt the allocation.
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTOCOL_VERSION);
        put_u8(&mut buf, status::OK);
        put_u8(&mut buf, opcode::QUERY);
        put_u8(&mut buf, 1); // stop = completed
        put_u8(&mut buf, 0); // cached
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 1); // one biclique...
        put_u32(&mut buf, u32::MAX); // ...whose left side claims 4B ids
        assert!(Response::decode(&buf).is_err());
    }
}
