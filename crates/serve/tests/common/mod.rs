//! Fixed protocol values shared by the codec golden table and the
//! decoder fuzz test: every request opcode and every response and reply
//! kind, with each algorithm, vertex order and stop reason on the wire at
//! least once.

use std::time::Duration;

use bigraph::order::VertexOrder;
use mbe::service::QueryParams;
use mbe::{Algorithm, Biclique, CacheCounters, StopReason};
use serve::telemetry::{OP_COUNT, OP_QUERY};
use serve::{
    DistSummary, GraphInfo, MetricsSnapshot, OpSnapshot, QueryReply, QueryRequest, Reply, Request,
    Response, ServerStats, ShardRequest, TraceContext, WorkerStatus,
};

fn query(
    graph: &str,
    params: QueryParams,
    max_return: u32,
    trace: Option<TraceContext>,
) -> Request {
    Request::Query(QueryRequest { graph: graph.to_string(), params, max_return, trace })
}

/// One value of every request opcode; `QUERY` once per order and
/// algorithm, with and without a trace context.
pub fn sample_requests() -> Vec<(&'static str, Request)> {
    let full = QueryParams {
        algorithm: Algorithm::Imbea,
        order: VertexOrder::Random(42),
        threads: 4,
        min_left: 2,
        min_right: 3,
        top_k: Some(10),
        max_bicliques: Some(0),
        timeout: Some(Duration::from_millis(1500)),
        count_only: true,
    };
    let with = |algorithm, order| QueryParams { algorithm, order, ..QueryParams::default() };
    let trace = TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 7 };
    vec![
        ("LOAD", Request::Load { name: "web".into(), path: "/data/web.txt".into() }),
        ("LIST", Request::List),
        ("QUERY default", query("g", QueryParams::default(), u32::MAX, None)),
        ("QUERY every field", query("g1", full, 100, Some(trace))),
        ("QUERY natural", query("g", with(Algorithm::MineLmbc, VertexOrder::Natural), 5, None)),
        ("QUERY desc", query("g", with(Algorithm::Mbea, VertexOrder::DescendingDegree), 5, None)),
        ("QUERY unilateral", query("g", with(Algorithm::Mbet, VertexOrder::Unilateral), 5, None)),
        ("CANCEL", Request::Cancel),
        ("STATS", Request::Stats),
        ("SHUTDOWN", Request::Shutdown),
        (
            "QUERY_SHARD",
            Request::QueryShard(ShardRequest {
                graph: "g3".into(),
                params: QueryParams { threads: 2, ..QueryParams::default() },
                max_return: 50,
                checkpoint: vec![9, 8, 7, 6, 5],
                trace: None,
            }),
        ),
        (
            "QUERY_SHARD traced",
            Request::QueryShard(ShardRequest {
                graph: "g5".into(),
                params: QueryParams::default(),
                max_return: 10,
                checkpoint: vec![1, 2],
                trace: Some(TraceContext { trace_id: u64::MAX, parent_span: 0 }),
            }),
        ),
        ("METRICS", Request::Metrics),
        (
            "LOAD_GENERAL",
            Request::LoadGeneral { name: "road".into(), path: "/data/road.txt".into() },
        ),
    ]
}

fn reply(stop: StopReason, cached: bool) -> QueryReply {
    QueryReply {
        stop,
        cached,
        emitted: 12,
        elapsed_us: 34_567,
        total: 2,
        bicliques: vec![Biclique::new(vec![1, 3], vec![2]), Biclique::new(vec![0], vec![5, 6, 7])],
        checkpoint: None,
        dist: None,
    }
}

fn metrics() -> MetricsSnapshot {
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
        shutting_down: true,
        ..MetricsSnapshot::default()
    };
    m.queue_wait.record(420);
    m.ops[OP_QUERY].count = 30;
    m.ops[OP_QUERY].errors = 2;
    m.ops[OP_QUERY].latency.record(15_000);
    m.ops[OP_QUERY].latency.record(u64::MAX);
    m
}

/// One value of every response status and reply kind; `QUERY` replies
/// once per stop reason.
pub fn sample_responses() -> Vec<(&'static str, Response)> {
    let web = GraphInfo {
        name: "web".into(),
        fingerprint: 0xFEED_F00D,
        num_u: 10,
        num_v: 20,
        num_edges: 55,
    };
    let road = GraphInfo {
        name: "road".into(),
        fingerprint: 0xC0FF_EE00,
        num_u: 128,
        num_v: 0,
        num_edges: 301,
    };
    let stats = ServerStats {
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
    };
    let stopped =
        QueryReply { checkpoint: Some(vec![1, 2, 3, 4]), ..reply(StopReason::Cancelled, false) };
    let distributed = QueryReply {
        dist: Some(DistSummary {
            workers: 3,
            shards: 12,
            retries: 2,
            resteals: 1,
            speculated: 1,
            degraded: true,
        }),
        ..reply(StopReason::Completed, false)
    };
    let ok = Response::Ok;
    vec![
        ("OK LOAD", ok(Reply::Loaded(web.clone()))),
        ("OK LIST", ok(Reply::Graphs(vec![web.clone(), road.clone()]))),
        ("OK LIST empty", ok(Reply::Graphs(Vec::new()))),
        ("OK QUERY completed", ok(Reply::Query(reply(StopReason::Completed, false)))),
        ("OK QUERY cached", ok(Reply::Query(reply(StopReason::Completed, true)))),
        ("OK QUERY cancelled + checkpoint", ok(Reply::Query(stopped))),
        ("OK QUERY deadline", ok(Reply::Query(reply(StopReason::Deadline, false)))),
        ("OK QUERY emit-budget", ok(Reply::Query(reply(StopReason::EmitBudget, false)))),
        ("OK QUERY node-budget", ok(Reply::Query(reply(StopReason::NodeBudget, false)))),
        ("OK QUERY sink-stopped", ok(Reply::Query(reply(StopReason::SinkStopped, false)))),
        ("OK QUERY worker-panic", ok(Reply::Query(reply(StopReason::WorkerPanicked, false)))),
        ("OK QUERY distributed", ok(Reply::Query(distributed.clone()))),
        ("OK CANCEL", ok(Reply::Cancelled)),
        ("OK STATS", ok(Reply::Stats(stats))),
        ("OK STATS idle", ok(Reply::Stats(ServerStats::default()))),
        ("OK SHUTDOWN", ok(Reply::ShuttingDown)),
        ("OK QUERY_SHARD", ok(Reply::Shard(distributed))),
        ("OK METRICS", ok(Reply::Metrics(Box::new(metrics())))),
        ("OK METRICS empty", ok(Reply::Metrics(Box::default()))),
        ("OK LOAD_GENERAL", ok(Reply::LoadedGeneral(road))),
        (
            "ERR",
            Response::Err { code: 9, message: "min-left applies only to bipartite graphs".into() },
        ),
        ("BUSY", Response::Busy { queued: 8, capacity: 8 }),
    ]
}
