//! End-to-end acceptance tests for the serve crate, over real loopback
//! sockets and OS threads:
//!
//! (a) concurrent clients on two graphs get correct, duplicate-free
//!     results matching direct [`Enumeration`];
//! (b) a repeated identical query is served from the cache — the hit
//!     counter moves and no new enumeration tasks start;
//! (c) a query past the admission queue bound gets the typed busy
//!     response instead of blocking;
//! (d) `SHUTDOWN` during a long query returns a checkpoint-bearing
//!     cancelled reply and the server exits cleanly;
//! (e) a finished query is answered at once, not at the connection's
//!     next socket poll, and a client that disconnects mid-query still
//!     cancels its run;
//! (f) a shard whose frontier does not fit the graph is refused with
//!     `BAD_SHARD` before it reaches the pool, which keeps serving;
//! (g) a query or shard asking for `u32::MAX` threads runs on the
//!     server's cores and answers exactly;
//! (h) a shard whose run panics on one thread answers `worker-panicked`
//!     with a checkpoint, and the server's only worker keeps serving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bigraph::general::GeneralGraph;
use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;
use mbe::checkpoint::{graph_fingerprint, initial_checkpoint};
use mbe::service::QueryParams;
use mbe::{Biclique, Checkpoint, Enumeration, MbeOptions, ResumeTask, StopReason};
use oct::OctCheckpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    Client, QueryReply, QueryRequest, Reply, Request, Response, ServeError, Server, ServerConfig,
    ServerHandle, ServerSummary, ShardRequest,
};

/// Crown graph S(n) — K(n,n) minus a perfect matching — with 2^n − 2
/// maximal bicliques: a deterministically long-running query.
fn crown(n: u32) -> BipartiteGraph {
    let mut edges = Vec::with_capacity((n * (n - 1)) as usize);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    BipartiteGraph::from_edges(n, n, &edges).unwrap()
}

fn start(cfg: ServerConfig, preload: &[(&str, &BipartiteGraph)]) -> (ServerHandle, ServerJoin) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    for (name, graph) in preload {
        server.preload(name, (*graph).clone()).unwrap();
    }
    let handle = server.handle();
    (handle, ServerJoin(std::thread::spawn(move || server.run().unwrap())))
}

struct ServerJoin(std::thread::JoinHandle<ServerSummary>);

impl ServerJoin {
    fn join(self) -> ServerSummary {
        self.0.join().expect("server thread panicked")
    }
}

fn request(graph: &str, params: QueryParams) -> QueryRequest {
    QueryRequest { graph: graph.to_string(), params, max_return: u32::MAX, trace: None }
}

fn sorted(mut bicliques: Vec<Biclique>) -> Vec<Biclique> {
    bicliques.sort();
    bicliques
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The job kinds a long query can run as.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `QUERY` on a bipartite graph.
    Bipartite,
    /// `QUERY` on a general graph, answered by the OCT driver.
    General,
    /// `QUERY_SHARD` carrying the whole frontier of a bipartite graph.
    Shard,
}

const KINDS: [Kind; 3] = [Kind::Bipartite, Kind::General, Kind::Shard];

/// A default-config server with a long query of every kind on hand:
/// crown(22) preloaded as `slow`, and crown(18) loaded over the wire as
/// the general graph `slow-general`. A crown has no odd cycle, so the OCT
/// driver runs it as one long inner run, in one unit. Its `MBOK`
/// checkpoint keeps that unit's key for every emitted biclique; at
/// n = 18 even a complete run's keys (about 20 MB) stay under the
/// client's 64 MiB frame cap. Returns the bipartite graph.
fn start_slow() -> (ServerHandle, ServerJoin, BipartiteGraph) {
    static FILES: AtomicU64 = AtomicU64::new(0);
    let slow = crown(22);
    let (handle, join) = start(ServerConfig::default(), &[("slow", &slow)]);
    let file = FILES.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("serve-slow-{}-{file}.txt", std::process::id()));
    bigraph::general::write_general_edge_list_path(&general_crown(), &path).unwrap();
    Client::connect(handle.addr())
        .unwrap()
        .load_general("slow-general", path.to_string_lossy().as_ref())
        .unwrap();
    let _ = std::fs::remove_file(&path);
    (handle, join, slow)
}

/// Crown(18) written as a general graph: left vertices `0..18`, right
/// vertices `18..36`.
fn general_crown() -> GeneralGraph {
    let n = 18;
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, n + v))).collect();
    GeneralGraph::from_edges(2 * n, &edges).unwrap()
}

/// A count-only request of `kind` that runs for seconds on [`start_slow`].
fn long_request(kind: Kind, slow: &BipartiteGraph) -> Request {
    let params = QueryParams { count_only: true, ..QueryParams::default() };
    match kind {
        Kind::Bipartite => Request::Query(request("slow", params)),
        Kind::General => Request::Query(request("slow-general", params)),
        Kind::Shard => {
            let opts = MbeOptions::new(params.algorithm).order(params.order);
            Request::QueryShard(ShardRequest {
                graph: "slow".to_string(),
                params,
                max_return: u32::MAX,
                checkpoint: initial_checkpoint(slow, &opts).to_bytes(),
                trace: None,
            })
        }
    }
}

/// The reply to a [`long_request`], under the tag its kind answers with.
fn long_reply(kind: Kind, response: Response) -> QueryReply {
    match (kind, response) {
        (Kind::Shard, Response::Ok(Reply::Shard(reply))) => reply,
        (Kind::Bipartite | Kind::General, Response::Ok(Reply::Query(reply))) => reply,
        (kind, other) => panic!("{kind:?}: unexpected response {other:?}"),
    }
}

/// A cancelled reply carries the checkpoint its kind writes: `MBOK`
/// bytes with the stopped unit's keys from the OCT driver (the crown
/// has one unit), `MBCK` bytes pinned to `slow` with unexplored
/// frontier otherwise.
fn assert_cancelled_with_checkpoint(kind: Kind, reply: &QueryReply, slow: &BipartiteGraph) {
    assert_eq!(reply.stop, StopReason::Cancelled, "{kind:?}");
    assert!(!reply.cached, "{kind:?}");
    let bytes = reply.checkpoint.as_ref().expect("a drained query must carry its checkpoint");
    match kind {
        Kind::General => {
            let checkpoint = OctCheckpoint::from_bytes(bytes).unwrap();
            assert_eq!(checkpoint.fingerprint, general_crown().fingerprint());
            assert_eq!(checkpoint.emitted, reply.emitted);
            assert_eq!(checkpoint.keys.len() as u64, reply.emitted, "one dedup key per emission");
        }
        Kind::Bipartite | Kind::Shard => {
            let checkpoint = Checkpoint::from_bytes(bytes).unwrap();
            assert_eq!(checkpoint.fingerprint, graph_fingerprint(slow), "pins the queried graph");
            assert_eq!(checkpoint.stop, StopReason::Cancelled);
            assert_eq!(checkpoint.emitted, reply.emitted);
            assert!(!checkpoint.frontier.is_empty(), "mid-run stop leaves unexplored frontier");
        }
    }
}

/// (a): six clients across two graphs — one preloaded, one `LOAD`ed over
/// the wire from a file — all see exactly the direct enumeration.
#[test]
fn concurrent_clients_on_two_graphs_match_direct_enumeration() {
    let mut rng = StdRng::seed_from_u64(11);
    let g1 = gen::er::gnm(&mut rng, 40, 40, 300);
    let g2 = gen::er::gnm(&mut rng, 35, 45, 280);
    let expected1 = sorted(Enumeration::new(&g1).collect().unwrap().bicliques);
    let expected2 = sorted(Enumeration::new(&g2).collect().unwrap().bicliques);

    let path = std::env::temp_dir().join(format!("serve-e2e-{}-g2.txt", std::process::id()));
    bigraph::io::write_edge_list_path(&g2, &path).unwrap();

    let (handle, join) = start(
        ServerConfig { workers: 4, queue_capacity: 16, ..ServerConfig::default() },
        &[("g1", &g1)],
    );
    let addr = handle.addr();

    let mut admin = Client::connect(addr).unwrap();
    let info = admin.load("g2", path.to_string_lossy().as_ref()).unwrap();
    assert_eq!(info.fingerprint, graph_fingerprint(&g2), "file roundtrip preserved the graph");
    let listed = admin.list().unwrap();
    assert_eq!(
        listed.iter().map(|i| i.name.as_str()).collect::<Vec<_>>(),
        ["g1", "g2"],
        "LIST is sorted and complete"
    );
    // Unknown graphs are a typed error, not a hang.
    match admin.query(request("nope", QueryParams::default())) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, serve::protocol::errcode::UNKNOWN_GRAPH)
        }
        other => panic!("expected unknown-graph error, got {other:?}"),
    }

    let queries_run = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for i in 0..6 {
            let (name, expected) = if i % 2 == 0 { ("g1", &expected1) } else { ("g2", &expected2) };
            let queries_run = &queries_run;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Distinct orders defeat the result cache, so every
                // client really enumerates concurrently.
                let params =
                    QueryParams { order: VertexOrder::Random(i), ..QueryParams::default() };
                let reply = client.query(request(name, params)).unwrap();
                assert_eq!(reply.stop, StopReason::Completed);
                assert_eq!(reply.total, expected.len() as u64);
                let got = sorted(reply.bicliques);
                for pair in got.windows(2) {
                    assert!(pair[0] < pair[1], "duplicate biclique in served result");
                }
                assert_eq!(&got, expected, "served result differs from direct enumeration");
                queries_run.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(queries_run.load(Ordering::Relaxed), 6);

    let stats = admin.stats().unwrap();
    assert_eq!(stats.graphs, 2);
    assert_eq!(stats.queries, 6, "six answered queries; the unknown-graph request never ran");

    handle.shutdown();
    let summary = join.join();
    assert_eq!(summary.graphs, 2);
    let _ = std::fs::remove_file(&path);
}

/// (b): the second identical query is a cache hit — flagged as cached,
/// hit counter up, and zero new enumeration tasks started.
#[test]
fn repeated_query_is_served_from_cache_without_new_work() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::er::gnm(&mut rng, 30, 30, 200);
    let (handle, join) = start(ServerConfig::default(), &[("g", &g)]);
    let addr = handle.addr();

    let mut first_client = Client::connect(addr).unwrap();
    let first = first_client.query(request("g", QueryParams::default())).unwrap();
    assert!(!first.cached);
    assert_eq!(first.stop, StopReason::Completed);

    let stats_before = first_client.stats().unwrap();
    assert_eq!(stats_before.cache.misses, 1);
    assert_eq!(stats_before.cache.hits, 0);
    assert_eq!(stats_before.cache.insertions, 1);
    let tasks_before = stats_before.tasks_started;
    assert!(tasks_before > 0, "the first run must have started enumeration tasks");

    // A *different* connection sees the same cache.
    let mut second_client = Client::connect(addr).unwrap();
    let second = second_client.query(request("g", QueryParams::default())).unwrap();
    assert!(second.cached, "identical repeat must hit the cache");
    assert_eq!(second.stop, StopReason::Completed);
    assert_eq!(sorted(second.bicliques), sorted(first.bicliques));
    assert_eq!(second.emitted, first.emitted);

    let stats_after = second_client.stats().unwrap();
    assert_eq!(stats_after.cache.hits, 1, "hit counter increments");
    assert_eq!(stats_after.cache.misses, 1);
    assert_eq!(
        stats_after.tasks_started, tasks_before,
        "a cache hit must not start enumeration tasks"
    );
    assert_eq!(stats_after.queries, 2);

    // Execution hints don't defeat the cache: same query with a different
    // thread count is still a hit.
    let hinted = QueryParams { threads: 3, ..QueryParams::default() };
    let third = second_client.query(request("g", hinted)).unwrap();
    assert!(third.cached);

    handle.shutdown();
    let summary = join.join();
    assert_eq!(summary.cache.hits, 2);
    assert_eq!(summary.queries, 3);
}

/// (b'): a top-k query returns its bicliques even when `count_only` is
/// set, and its cache hit must return the same ones.
#[test]
fn cached_top_k_count_only_query_keeps_its_bicliques() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::er::gnm(&mut rng, 30, 30, 200);
    let (handle, join) = start(ServerConfig::default(), &[("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap();
    let params = QueryParams { top_k: Some(3), count_only: true, ..QueryParams::default() };

    let miss = client.query(request("g", params.clone())).unwrap();
    assert!(!miss.cached);
    assert_eq!(miss.stop, StopReason::Completed);
    assert_eq!(miss.total, 3);
    assert_eq!(miss.bicliques.len(), 3);

    let hit = client.query(request("g", params)).unwrap();
    assert!(hit.cached, "identical repeat must hit the cache");
    assert_eq!(hit.total, miss.total);
    assert_eq!(hit.bicliques, miss.bicliques);

    handle.shutdown();
    join.join();
}

/// (c): with one worker and one queue slot, a third concurrent query is
/// rejected with the typed busy response immediately instead of waiting.
#[test]
fn overflowing_the_admission_queue_returns_typed_busy() {
    let slow = crown(22);
    let cfg = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
    let (handle, join) = start(cfg, &[("slow", &slow)]);
    let addr = handle.addr();
    let count_only = |seed| QueryParams {
        count_only: true,
        order: VertexOrder::Random(seed),
        ..QueryParams::default()
    };

    // Query 1 occupies the only worker.
    let running = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(request("slow", count_only(1))).unwrap()
    });
    let mut probe = Client::connect(addr).unwrap();
    wait_until("query 1 to start executing", || {
        let s = probe.stats().unwrap();
        s.inflight >= 1 && s.queued == 0
    });

    // Query 2 fills the single queue slot.
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(request("slow", count_only(2))).unwrap()
    });
    wait_until("query 2 to be queued", || probe.stats().unwrap().queued >= 1);

    // Query 3 must bounce, fast, with the queue state attached.
    let t0 = Instant::now();
    let mut rejected_client = Client::connect(addr).unwrap();
    match rejected_client.query(request("slow", count_only(3))) {
        Err(ServeError::Busy { queued, capacity }) => {
            assert_eq!(capacity, 1);
            assert!(queued >= 1);
        }
        other => panic!("expected the typed busy rejection, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "busy rejection must not wait behind the running query"
    );
    assert_eq!(probe.stats().unwrap().busy_rejected, 1);

    // Drain: shutdown cancels the running and queued queries; both
    // clients still get well-formed (cancelled) replies.
    handle.shutdown();
    assert_eq!(running.join().unwrap().stop, StopReason::Cancelled);
    assert_eq!(queued.join().unwrap().stop, StopReason::Cancelled);
    let summary = join.join();
    assert_eq!(summary.busy_rejected, 1);
}

/// (d): `SHUTDOWN` mid-query — for every job kind, the long query comes
/// back as a cancelled, checkpoint-bearing reply; the server drains and
/// exits cleanly.
#[test]
fn shutdown_during_long_query_returns_checkpoint_and_exits() {
    for kind in KINDS {
        let (handle, join, slow) = start_slow();
        let addr = handle.addr();

        let request = long_request(kind, &slow);
        let long = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.call(&request).unwrap()
        });
        let mut second = Client::connect(addr).unwrap();
        wait_until("the long query to start", || second.stats().unwrap().inflight >= 1);
        assert!(!handle.is_shutting_down());
        second.shutdown().unwrap();

        let reply = long_reply(kind, long.join().unwrap());
        assert_cancelled_with_checkpoint(kind, &reply, &slow);

        let summary = join.join();
        assert_eq!(summary.queries, 1, "{kind:?}: the drained query was the only one answered");
        // The listener is gone: no new connections are accepted.
        wait_until("the port to close", || Client::connect(addr).is_err());
    }
}

/// Per-connection cancellation: a `CANCEL` injected through a
/// [`serve::Canceller`] stops that connection's in-flight query, whatever
/// its job kind.
#[test]
fn canceller_stops_own_inflight_query() {
    for kind in KINDS {
        let (handle, join, slow) = start_slow();
        let addr = handle.addr();
        let mut probe = Client::connect(addr).unwrap();

        let client = Client::connect(addr).unwrap();
        let mut canceller = client.canceller().unwrap();
        let request = long_request(kind, &slow);
        let worker = std::thread::spawn(move || {
            let mut client = client;
            client.call(&request).unwrap()
        });
        wait_until("the query to start", || probe.stats().unwrap().inflight >= 1);
        canceller.cancel().unwrap();
        let reply = long_reply(kind, worker.join().unwrap());
        assert_cancelled_with_checkpoint(kind, &reply, &slow);

        // The connection (and server) survive a cancelled query.
        let stats = probe.stats().unwrap();
        assert_eq!(stats.queries, 1, "{kind:?}");
        assert_eq!(stats.inflight, 0, "{kind:?}");
        handle.shutdown();
        join.join();
    }
}

/// (e): replies do not wait for the poll. With a 2 s poll interval, a
/// count-only query, a collect query and a `QUERY_SHARD` each come back
/// well inside one interval, and the connection then serves another query.
#[test]
fn finished_queries_are_answered_without_waiting_for_the_poll() {
    // 4094 bicliques: a few milliseconds of work, so the result is never
    // ready by the time the connection thread starts waiting for it.
    let g = crown(12);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);
    let poll = Duration::from_secs(2);
    // No cache: every query below runs on a pool worker.
    let cfg = ServerConfig { poll_interval: poll, cache_bytes: 0, ..ServerConfig::default() };
    let (handle, join) = start(cfg, &[("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap();
    let quick = Duration::from_secs(1);

    let t0 = Instant::now();
    let count = client
        .query(request("g", QueryParams { count_only: true, ..QueryParams::default() }))
        .unwrap();
    assert!(t0.elapsed() < quick, "count-only reply took {:?}", t0.elapsed());
    assert_eq!(count.emitted, expected.len() as u64);

    let t0 = Instant::now();
    let collect = client.query(request("g", QueryParams::default())).unwrap();
    assert!(t0.elapsed() < quick, "collect reply took {:?}", t0.elapsed());
    assert!(!collect.cached);
    assert_eq!(sorted(collect.bicliques), expected);

    let params = QueryParams::default();
    let opts = MbeOptions::new(params.algorithm).order(params.order);
    let shard = ShardRequest {
        graph: "g".to_string(),
        params,
        max_return: u32::MAX,
        checkpoint: initial_checkpoint(&g, &opts).to_bytes(),
        trace: None,
    };
    let t0 = Instant::now();
    let whole = client.query_shard(shard).unwrap();
    assert!(t0.elapsed() < quick, "shard reply took {:?}", t0.elapsed());
    assert_eq!(whole.stop, StopReason::Completed);
    assert_eq!(sorted(whole.bicliques), expected, "the whole frontier is the whole run");

    // The same connection still answers.
    let again = client
        .query(request("g", QueryParams { count_only: true, ..QueryParams::default() }))
        .unwrap();
    assert_eq!(again.emitted, expected.len() as u64);

    handle.shutdown();
    assert_eq!(join.join().queries, 4);
}

/// (e): a query that outlives several socket checks leaves its connection
/// usable, so the non-blocking check restores the socket's blocking mode.
#[test]
fn connection_serves_again_after_a_query_that_outlived_socket_checks() {
    let slow = crown(22);
    let g = crown(12);
    let (handle, join) = start(ServerConfig::default(), &[("slow", &slow), ("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Ten poll intervals of the default config: the connection thread
    // checks its socket several times before the deadline stops the run.
    let timeout = Some(Duration::from_millis(250));
    let stopped = client
        .query(request("slow", QueryParams { count_only: true, timeout, ..QueryParams::default() }))
        .unwrap();
    assert_eq!(stopped.stop, StopReason::Deadline);

    // Idle between queries. On a socket left non-blocking, the idle loop's
    // reads would return at once and run through the whole idle budget,
    // dropping the connection.
    std::thread::sleep(Duration::from_millis(500));
    let reply = client
        .query(request("g", QueryParams { count_only: true, ..QueryParams::default() }))
        .unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    assert_eq!(reply.emitted, (1 << 12) - 2);

    handle.shutdown();
    join.join();
}

/// (e): a client that drops its connection mid-query cancels the run,
/// whatever its job kind; the query leaves the in-flight set instead of
/// running to completion.
#[test]
fn client_disconnect_mid_query_cancels_the_run() {
    for kind in KINDS {
        let (handle, join, slow) = start_slow();
        let addr = handle.addr();
        let mut probe = Client::connect(addr).unwrap();

        let abandon = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                let outcome = client
                    .call_until(&long_request(kind, &slow), &|| abandon.load(Ordering::SeqCst));
                assert!(matches!(outcome, Err(ServeError::Aborted)), "{kind:?}: got {outcome:?}");
                // `client` drops here, closing the connection mid-query.
            });
            wait_until("the query to start", || probe.stats().unwrap().inflight >= 1);
            abandon.store(true, Ordering::SeqCst);
        });
        wait_until("the abandoned query to stop", || probe.stats().unwrap().inflight == 0);
        assert_eq!(probe.stats().unwrap().queries, 0, "{kind:?}: no one was left to answer");

        handle.shutdown();
        join.join();
    }
}

/// (f): a `QUERY_SHARD` naming a root the graph lacks is refused with
/// `BAD_SHARD`, and a valid `QUERY` on the same one-worker server is
/// still answered — the bad shard never reached (and killed) the pool's
/// only worker. Every reply is awaited under a client deadline.
#[test]
fn shard_with_a_frontier_outside_the_graph_is_refused() {
    let g = crown(8);
    let cfg = ServerConfig { workers: 1, cache_bytes: 0, ..ServerConfig::default() };
    let (handle, join) = start(cfg, &[("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap().wait(Duration::from_secs(30));

    let params = QueryParams::default();
    let opts = MbeOptions::new(params.algorithm).order(params.order);
    let hostile =
        Checkpoint { frontier: vec![ResumeTask::Root(99)], ..initial_checkpoint(&g, &opts) };
    let shard = ShardRequest {
        graph: "g".to_string(),
        params,
        max_return: u32::MAX,
        checkpoint: hostile.to_bytes(),
        trace: None,
    };
    match client.query_shard(shard) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, serve::protocol::errcode::BAD_SHARD)
        }
        other => panic!("expected a bad-shard error, got {other:?}"),
    }

    let reply = client
        .query(request("g", QueryParams { count_only: true, ..QueryParams::default() }))
        .unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    assert_eq!(reply.emitted, (1 << 8) - 2);

    handle.shutdown();
    join.join();
}

/// (g): `threads` is clamped to the server's cores before a job is
/// queued, so a `QUERY` or `QUERY_SHARD` asking for `u32::MAX` workers
/// runs on every core and answers the exact count, instead of sizing a
/// worker pool by what the client sent.
#[test]
fn queries_asking_for_u32_max_threads_run_on_the_available_cores() {
    let g = crown(10);
    let (handle, join) = start(ServerConfig::default(), &[("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap().wait(Duration::from_secs(60));
    let params =
        QueryParams { threads: u32::MAX as usize, count_only: true, ..QueryParams::default() };

    let reply = client.query(request("g", params.clone())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    assert_eq!(reply.emitted, (1 << 10) - 2);

    let opts = MbeOptions::new(params.algorithm).order(params.order);
    let shard = ShardRequest {
        graph: "g".to_string(),
        params,
        max_return: 0,
        checkpoint: initial_checkpoint(&g, &opts).to_bytes(),
        trace: None,
    };
    let reply = client.query_shard(shard).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    assert_eq!(reply.emitted, (1 << 10) - 2);

    handle.shutdown();
    join.join();
}

/// (h): a scripted panic in a one-thread shard run is contained like a
/// threaded one. The reply carries `stop = worker-panicked` and a
/// checkpoint, the query leaves the in-flight set, and the one admission
/// worker survives to answer the next query.
#[cfg(feature = "fault-injection")]
#[test]
fn one_thread_shard_panic_is_answered_and_the_worker_survives() {
    use mbe::faults::FaultPlan;

    let g = crown(12);
    let cfg = ServerConfig {
        workers: 1,
        fault_plan: Some(FaultPlan::new().panic_at(40)),
        ..ServerConfig::default()
    };
    let (handle, join) = start(cfg, &[("g", &g)]);
    let mut client = Client::connect(handle.addr()).unwrap().wait(Duration::from_secs(60));

    let params = QueryParams { threads: 1, ..QueryParams::default() };
    let opts = MbeOptions::new(params.algorithm).order(params.order);
    let shard = ShardRequest {
        graph: "g".to_string(),
        params,
        max_return: u32::MAX,
        checkpoint: initial_checkpoint(&g, &opts).to_bytes(),
        trace: None,
    };
    let reply = client.query_shard(shard).unwrap();
    assert_eq!(reply.stop, StopReason::WorkerPanicked);
    assert!(reply.checkpoint.is_some(), "a contained panic still returns a checkpoint");
    assert_eq!(client.stats().unwrap().inflight, 0);

    let reply = client
        .query(request("g", QueryParams { count_only: true, ..QueryParams::default() }))
        .unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    assert_eq!(reply.emitted, (1 << 12) - 2);

    handle.shutdown();
    join.join();
}
