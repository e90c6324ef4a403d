//! Fault-harness acceptance tests for coordinator mode, over real
//! loopback sockets:
//!
//! (a) happy path — a 3-worker coordinator answers exactly the direct
//!     enumeration, with distribution provenance attached;
//! (b) a dead worker address among live ones — retried, quarantined,
//!     and routed around;
//! (c) a hanging worker — the silent shard times out and is re-stolen;
//! (d) every worker dead — graceful degradation to local enumeration,
//!     flagged `degraded`;
//! (e) every worker dead with fallback disabled — the typed
//!     `no-workers` error;
//! (f) straggler speculation — a held shard is duplicated onto a
//!     healthy worker and first-writer-wins keeps the result exact;
//! (g) (with `--features fault-injection`) a scripted mid-shard worker
//!     panic — the partial reply's checkpoint is re-stolen and the
//!     merged result still matches the direct run.
//!
//! Every scenario asserts the bottom line of DESIGN §8c: whatever the
//! failure, the merged result equals a direct single-process run,
//! duplicate-free.

use std::io::Read;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use bigraph::BipartiteGraph;
use mbe::service::QueryParams;
use mbe::{Biclique, Enumeration, StopReason};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::protocol::{errcode, Reply, Request, Response};
use serve::wire::{read_frame, write_frame, ReadOutcome};
use serve::{
    Client, CoordinatorConfig, QueryReply, QueryRequest, ServeError, Server, ServerConfig,
    ServerHandle,
};

fn sorted(mut bicliques: Vec<Biclique>) -> Vec<Biclique> {
    bicliques.sort();
    bicliques
}

fn request(graph: &str, params: QueryParams) -> QueryRequest {
    QueryRequest { graph: graph.to_string(), params, max_return: u32::MAX, trace: None }
}

/// Starts a stock worker preloaded with `graph`; returns its address and
/// shutdown handle (the server thread is joined via the handle at exit).
fn start_worker(name: &str, graph: &BipartiteGraph, cfg: ServerConfig) -> (String, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    server.preload(name, graph.clone()).unwrap();
    let handle = server.handle();
    std::thread::spawn(move || server.run().unwrap());
    (handle.addr().to_string(), handle)
}

/// Coordinator settings tuned for fast tests: tight backoff, quick
/// quarantine, prompt re-probe.
fn coord_cfg(workers: Vec<String>) -> CoordinatorConfig {
    CoordinatorConfig {
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        quarantine_after: 2,
        quarantine_for: Duration::from_millis(200),
        probe_patience: Duration::from_millis(500),
        // Speculation off unless a test opts in.
        speculate_min: Duration::from_secs(120),
        ..CoordinatorConfig::new(workers)
    }
}

fn start_coordinator(
    name: &str,
    graph: &BipartiteGraph,
    coord: CoordinatorConfig,
) -> (ServerHandle, std::thread::JoinHandle<serve::ServerSummary>) {
    let cfg = ServerConfig { coordinator: Some(coord), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    server.preload(name, graph.clone()).unwrap();
    let handle = server.handle();
    (handle, std::thread::spawn(move || server.run().unwrap()))
}

/// Binds and immediately drops a listener: an address that refuses
/// connections (a "crashed" worker).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// A worker that accepts connections and reads requests but never
/// replies — the hang/straggler fixture. Accepted sockets are parked so
/// the peer sees silence, not EOF.
fn hang_server() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut parked = Vec::new();
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let mut reader = stream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
            });
            parked.push(stream);
        }
    });
    addr
}

/// A protocol-breaking worker: every shard request is answered with a
/// "clipped" Completed reply that advertises emissions it does not carry
/// (`total`/`emitted` > `bicliques.len()`) — the shape an out-of-contract
/// worker clipping internal shard replies by its own `max_return` config
/// would produce.
fn clipping_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || loop {
                match read_frame(&mut stream, 64 << 20, Duration::from_secs(5)) {
                    Ok(ReadOutcome::Frame(payload)) => {
                        let response = match Request::decode(&payload) {
                            Ok(Request::QueryShard(_)) => Response::Ok(Reply::Shard(QueryReply {
                                stop: StopReason::Completed,
                                cached: false,
                                emitted: 7,
                                elapsed_us: 1,
                                total: 7,
                                bicliques: Vec::new(),
                                checkpoint: None,
                                dist: None,
                            })),
                            _ => Response::Err {
                                code: errcode::BAD_REQUEST,
                                message: "unsupported".into(),
                            },
                        };
                        if write_frame(&mut stream, &response.encode()).is_err() {
                            return;
                        }
                    }
                    Ok(ReadOutcome::Idle) => {}
                    _ => return,
                }
            });
        }
    });
    addr
}

fn test_graph(seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::er::gnm(&mut rng, 40, 40, 300)
}

/// (a): three live workers; the merged distributed answer is exactly the
/// direct enumeration, and the reply carries distribution provenance.
#[test]
fn three_workers_match_direct_enumeration() {
    let g = test_graph(11);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let workers: Vec<_> = (0..3).map(|_| start_worker("g", &g, ServerConfig::default())).collect();
    let addrs = workers.iter().map(|(a, _)| a.clone()).collect();
    let (handle, join) = start_coordinator("g", &g, coord_cfg(addrs));

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.expect("a coordinator-assembled reply carries a DistSummary");
    assert_eq!(dist.workers, 3);
    assert!(dist.shards > 0, "the frontier was split");
    assert!(!dist.degraded, "no fallback on the happy path");
    assert_eq!(reply.emitted, expected.len() as u64);
    let got = sorted(reply.bicliques);
    for pair in got.windows(2) {
        assert!(pair[0] < pair[1], "duplicate biclique in merged result");
    }
    assert_eq!(got, expected);

    // Satellite telemetry: the coordinator's own admission pool ran the
    // scatter job, and its queue-wait counters moved with it.
    let stats = client.stats().unwrap();
    assert!(stats.jobs_executed >= 1);
    assert!(stats.queue_wait_total_us >= stats.queue_wait_max_us);

    // An identical repeat is a cache hit: no re-scatter, no dist summary.
    let again = client.query(request("g", QueryParams::default())).unwrap();
    assert!(again.cached);
    assert!(again.dist.is_none(), "cache hits carry no distribution provenance");
    assert_eq!(sorted(again.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
    for (_, worker) in workers {
        worker.shutdown();
    }
}

/// (b): one of three worker addresses refuses connections. The
/// coordinator retries, quarantines it, and completes on the live pair.
#[test]
fn dead_worker_is_retried_and_routed_around() {
    let g = test_graph(12);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let live: Vec<_> = (0..2).map(|_| start_worker("g", &g, ServerConfig::default())).collect();
    let mut addrs: Vec<String> = live.iter().map(|(a, _)| a.clone()).collect();
    addrs.insert(1, dead_addr());
    let (handle, join) = start_coordinator("g", &g, coord_cfg(addrs));

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(dist.retries >= 1, "the dead address cost at least one retry: {dist:?}");
    assert!(!dist.degraded, "two healthy workers remain — no fallback");
    assert_eq!(sorted(reply.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
    for (_, worker) in live {
        worker.shutdown();
    }
}

/// (c): a worker that accepts a shard and goes silent. The per-attempt
/// deadline expires, the shard is re-stolen, and the result is exact.
#[test]
fn hung_worker_shard_is_restolen() {
    let g = test_graph(13);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let live: Vec<_> = (0..2).map(|_| start_worker("g", &g, ServerConfig::default())).collect();
    let mut addrs: Vec<String> = live.iter().map(|(a, _)| a.clone()).collect();
    addrs.push(hang_server());
    let mut cfg = coord_cfg(addrs);
    cfg.attempt_timeout = Duration::from_millis(400);
    let (handle, join) = start_coordinator("g", &g, cfg);

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(dist.resteals >= 1, "the hung shard was lost mid-run and re-stolen: {dist:?}");
    assert_eq!(sorted(reply.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
    for (_, worker) in live {
        worker.shutdown();
    }
}

/// (d): every worker is unreachable. The coordinator degrades to local
/// enumeration: same exact answer, `degraded` provenance set.
#[test]
fn all_workers_dead_degrades_to_local_enumeration() {
    let g = test_graph(14);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let mut cfg = coord_cfg(vec![dead_addr(), dead_addr()]);
    cfg.quarantine_for = Duration::from_secs(30); // stay down for the test
    let (handle, join) = start_coordinator("g", &g, cfg);

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(dist.degraded, "local fallback must be flagged: {dist:?}");
    assert_eq!(sorted(reply.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
}

/// (e): same wreckage, fallback disabled — the typed `no-workers` error
/// instead of a silent local run.
#[test]
fn all_workers_dead_without_fallback_is_typed_no_workers() {
    let g = test_graph(15);
    let mut cfg = coord_cfg(vec![dead_addr(), dead_addr()]);
    cfg.quarantine_for = Duration::from_secs(30);
    cfg.local_fallback = false;
    let (handle, join) = start_coordinator("g", &g, cfg);

    let mut client = Client::connect(handle.addr()).unwrap();
    match client.query(request("g", QueryParams::default())) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, serve::protocol::errcode::NO_WORKERS);
        }
        other => panic!("expected the typed no-workers error, got {other:?}"),
    }

    handle.shutdown();
    join.join().unwrap();
}

/// (f): a hung worker holds one shard while a live worker drains the
/// rest; with the straggler threshold floored at zero, the held shard is
/// speculatively duplicated and the first completion wins.
#[test]
fn straggler_shard_is_speculatively_reexecuted() {
    let g = test_graph(16);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let (live_addr, live_handle) = start_worker("g", &g, ServerConfig::default());
    let mut cfg = coord_cfg(vec![live_addr, hang_server()]);
    cfg.speculate_min = Duration::ZERO;
    cfg.speculate_factor = 0.0;
    // Long enough that speculation (immediate once p99 exists) beats the
    // attempt timeout; short enough that the test drains promptly.
    cfg.attempt_timeout = Duration::from_secs(3);
    let (handle, join) = start_coordinator("g", &g, cfg);

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(dist.speculated >= 1, "the held shard was speculated: {dist:?}");
    assert_eq!(sorted(reply.bicliques), expected, "first-writer-wins kept the merge exact");

    handle.shutdown();
    join.join().unwrap();
    live_handle.shutdown();
}

/// (h): workers must not clip shard replies by their own client-facing
/// `max_return` config — only the request's cap applies (DESIGN §8c).
/// Workers capped far below the result size still return full shards,
/// and the merged answer is complete with no fallback.
#[test]
fn worker_max_return_config_does_not_clip_shard_replies() {
    let g = test_graph(19);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);
    assert!(expected.len() > 3, "fixture must exceed the worker cap");

    let small = ServerConfig { max_return: 3, ..ServerConfig::default() };
    let workers: Vec<_> = (0..2).map(|_| start_worker("g", &g, small.clone())).collect();
    let addrs = workers.iter().map(|(a, _)| a.clone()).collect();
    let (handle, join) = start_coordinator("g", &g, coord_cfg(addrs));

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(!dist.degraded, "shard replies ignore the worker's config cap: {dist:?}");
    assert_eq!(reply.emitted, expected.len() as u64);
    assert_eq!(sorted(reply.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
    for (_, worker) in workers {
        worker.shutdown();
    }
}

/// (i): a worker that *does* clip (total > bicliques carried) must never
/// poison the merged result or the cache: the coordinator refuses the
/// truncated reply, strands the shards, and falls back locally — exact,
/// flagged degraded, and the cached repeat is the full list.
#[test]
fn clipped_shard_reply_is_rejected_not_merged() {
    let g = test_graph(18);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    let mut cfg = coord_cfg(vec![clipping_worker()]);
    cfg.max_attempts = 2; // the fake worker never improves; strand fast
    let (handle, join) = start_coordinator("g", &g, cfg);

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);
    let dist = reply.dist.unwrap();
    assert!(dist.degraded, "the clipping worker is useless; fallback must run: {dist:?}");
    assert_eq!(
        reply.emitted,
        expected.len() as u64,
        "advertised-but-absent emissions must never merge"
    );
    assert_eq!(sorted(reply.bicliques), expected);

    // The Completed distributed result entered the cache — as the full
    // list, not a truncation.
    let again = client.query(request("g", QueryParams::default())).unwrap();
    assert!(again.cached);
    assert_eq!(sorted(again.bicliques), expected);

    handle.shutdown();
    join.join().unwrap();
}

/// (j): cancelling a distributed query must not wait out a hung worker's
/// attempt timeout — in-flight shard waits are abandoned as soon as the
/// board aborts, so the reply returns at cancellation speed even with
/// the default hour-scale `attempt_timeout`.
#[test]
fn cancel_returns_promptly_despite_hung_worker() {
    let g = test_graph(20);
    let mut cfg = coord_cfg(vec![hang_server()]);
    cfg.attempt_timeout = Duration::from_secs(600); // would pin run() without abortable waits
    let (handle, join) = start_coordinator("g", &g, cfg);

    let client = Client::connect(handle.addr()).unwrap();
    let mut canceller = client.canceller().unwrap();
    let mut client = client;
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let _ = canceller.cancel();
    });
    let begun = Instant::now();
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Cancelled);
    assert!(
        begun.elapsed() < Duration::from_secs(30),
        "cancel was pinned behind the attempt timeout: {:?}",
        begun.elapsed()
    );
    let dist = reply.dist.unwrap();
    assert!(!dist.degraded, "nothing ran locally on the cancel path");
    assert!(reply.checkpoint.is_some(), "a cancelled distributed run returns the merged tail");

    handle.shutdown();
    join.join().unwrap();
}

/// (g): a scripted panic inside one worker's shard execution, on one
/// thread (the default) and on two. The contained-panic reply carries a
/// checkpoint; the coordinator re-steals the remainder and the merged
/// result still matches the direct run.
#[cfg(feature = "fault-injection")]
#[test]
fn scripted_worker_panic_is_restolen_exactly() {
    use mbe::faults::FaultPlan;

    let g = test_graph(17);
    let expected = sorted(Enumeration::new(&g).collect().unwrap().bicliques);

    for threads in [1, 2] {
        // One worker panics once, after 40 cumulative shard emissions
        // (a fresh plan per round: the count is shared across its runs);
        // its pool contains the panic and replies with a checkpoint.
        let faulty_cfg = ServerConfig {
            fault_plan: Some(FaultPlan::new().panic_at(40)),
            ..ServerConfig::default()
        };
        let workers =
            vec![start_worker("g", &g, faulty_cfg), start_worker("g", &g, ServerConfig::default())];
        let addrs = workers.iter().map(|(a, _)| a.clone()).collect();
        let (handle, join) = start_coordinator("g", &g, coord_cfg(addrs));

        let mut client = Client::connect(handle.addr()).unwrap();
        let params = QueryParams { threads, ..QueryParams::default() };
        let reply = client.query(request("g", params)).unwrap();
        assert_eq!(reply.stop, StopReason::Completed, "threads={threads}");
        let dist = reply.dist.unwrap();
        assert!(
            dist.resteals >= 1,
            "threads={threads}: the panicked shard's checkpoint was re-stolen: {dist:?}"
        );
        assert!(!dist.degraded, "threads={threads}");
        let got = sorted(reply.bicliques);
        for pair in got.windows(2) {
            assert!(pair[0] < pair[1], "threads={threads}: re-steal must not duplicate emissions");
        }
        assert_eq!(got, expected, "threads={threads}");

        handle.shutdown();
        join.join().unwrap();
        for (_, worker) in workers {
            worker.shutdown();
        }
    }
}
