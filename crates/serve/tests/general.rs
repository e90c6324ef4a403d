//! End-to-end tests for the `LOAD_GENERAL` verb and the OCT query
//! route, over real loopback sockets:
//!
//! (a) a general graph loaded over the wire answers `QUERY` with exactly
//!     the bicliques a local [`oct::OctEnumeration`] run produces, the
//!     repeat query is a cache hit, and the `load_general` op counter
//!     moves;
//! (b) bipartite-only parameters (`min_left`/`min_right` > 1, `top_k`)
//!     and `QUERY_SHARD` against a general graph answer `wrong-kind`;
//! (c) the two load verbs share one namespace: a general name cannot be
//!     rebound to a bipartite graph, and an identical general re-load is
//!     idempotent.

use std::collections::BTreeSet;

use gen::near_bipartite::{near_bipartite, NearBipartiteConfig};
use mbe::service::QueryParams;
use mbe::StopReason;
use oct::OctEnumeration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{
    Client, QueryRequest, ServeError, Server, ServerConfig, ServerHandle, ServerSummary,
    ShardRequest,
};

fn start(cfg: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<ServerSummary>) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let handle = server.handle();
    (handle, std::thread::spawn(move || server.run().unwrap()))
}

fn request(graph: &str, params: QueryParams) -> QueryRequest {
    QueryRequest { graph: graph.to_string(), params, max_return: u32::MAX, trace: None }
}

/// Canonical vertex-set keys (sorted `A ∪ B`) of a reply's bicliques —
/// the same identity the OCT driver's checkpoints list.
fn keys(bicliques: &[mbe::Biclique]) -> BTreeSet<Vec<u32>> {
    bicliques
        .iter()
        .map(|b| {
            let mut k: Vec<u32> = b.left.iter().chain(b.right.iter()).copied().collect();
            k.sort_unstable();
            k
        })
        .collect()
}

#[test]
fn load_general_query_matches_local_oct_driver() {
    let mut rng = StdRng::seed_from_u64(31);
    let (g, _plan) = near_bipartite(&mut rng, &NearBipartiteConfig::new(12, 11, 50, 4));
    let expected = {
        let report = OctEnumeration::new(&g).collect().unwrap();
        assert_eq!(report.stop, StopReason::Completed);
        keys(&report.bicliques)
    };
    assert!(!expected.is_empty());

    let path = std::env::temp_dir().join(format!("serve-oct-{}.txt", std::process::id()));
    bigraph::general::write_general_edge_list_path(&g, &path).unwrap();

    let (handle, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(handle.addr()).unwrap();

    let info = client.load_general("road", path.to_string_lossy().as_ref()).unwrap();
    assert_eq!(info.fingerprint, g.fingerprint(), "file roundtrip preserved the graph");
    assert_eq!(info.num_u, g.num_vertices() as u64, "general info carries |V| in num_u");
    assert_eq!(info.num_v, 0);
    assert_eq!(info.num_edges, g.num_edges() as u64);
    let listed = client.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].name, "road");

    let first = client.query(request("road", QueryParams::default())).unwrap();
    assert_eq!(first.stop, StopReason::Completed);
    assert!(!first.cached);
    assert_eq!(keys(&first.bicliques), expected, "served OCT result differs from local driver");
    assert_eq!(first.emitted, expected.len() as u64);

    // The repeat is a cache hit with the same payload.
    let second = client.query(request("road", QueryParams::default())).unwrap();
    assert!(second.cached, "identical repeat must hit the cache");
    assert_eq!(keys(&second.bicliques), expected);

    // Threaded execution is a different canonical key? No — threads are
    // an execution hint, excluded from the key, so this also hits.
    let hinted = QueryParams { threads: 3, ..QueryParams::default() };
    assert!(client.query(request("road", hinted)).unwrap().cached);

    let metrics = client.metrics().unwrap();
    let slot = metrics.ops.get(serve::telemetry::OP_LOAD_GENERAL).unwrap();
    assert_eq!(slot.count, 1, "load_general op slot counts the wire request");
    assert_eq!(slot.errors, 0);

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.queries, 3);
    assert_eq!(summary.cache.hits, 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bipartite_only_params_and_shards_answer_wrong_kind() {
    let mut rng = StdRng::seed_from_u64(32);
    let (g, _plan) = near_bipartite(&mut rng, &NearBipartiteConfig::new(6, 6, 18, 2));
    let path = std::env::temp_dir().join(format!("serve-oct-kind-{}.txt", std::process::id()));
    bigraph::general::write_general_edge_list_path(&g, &path).unwrap();

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_general("g", path.to_string_lossy().as_ref()).unwrap();

    let expect_wrong_kind = |result: Result<_, ServeError>, what: &str| match result {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, serve::protocol::errcode::WRONG_KIND, "{what}")
        }
        other => panic!("{what}: expected wrong-kind, got {other:?}"),
    };

    let thresholded = QueryParams { min_left: 2, ..QueryParams::default() };
    expect_wrong_kind(client.query(request("g", thresholded)), "min_left > 1");
    let top_k = QueryParams { top_k: Some(3), ..QueryParams::default() };
    expect_wrong_kind(client.query(request("g", top_k)), "top_k");

    // The kind check precedes shard-checkpoint decoding, so even a junk
    // checkpoint aimed at a general graph reports the kind error.
    let shard = ShardRequest {
        graph: "g".to_string(),
        params: QueryParams::default(),
        max_return: u32::MAX,
        checkpoint: vec![0xFF; 8],
        trace: None,
    };
    expect_wrong_kind(client.query_shard(shard), "QUERY_SHARD on general graph");

    // Rejected queries never ran: a well-formed query still works.
    let reply = client.query(request("g", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn load_verbs_share_one_namespace() {
    let mut rng = StdRng::seed_from_u64(33);
    let (g, _plan) = near_bipartite(&mut rng, &NearBipartiteConfig::new(5, 5, 14, 2));
    let bip = gen::er::gnm(&mut rng, 6, 6, 14);

    let gpath = std::env::temp_dir().join(format!("serve-oct-ns-g-{}.txt", std::process::id()));
    let bpath = std::env::temp_dir().join(format!("serve-oct-ns-b-{}.txt", std::process::id()));
    bigraph::general::write_general_edge_list_path(&g, &gpath).unwrap();
    bigraph::io::write_edge_list_path(&bip, &bpath).unwrap();

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let gpath_str = gpath.to_string_lossy().to_string();
    let bpath_str = bpath.to_string_lossy().to_string();

    let info = client.load_general("shared", &gpath_str).unwrap();
    // Re-loading the identical general file is idempotent.
    let again = client.load_general("shared", &gpath_str).unwrap();
    assert_eq!(again.fingerprint, info.fingerprint);

    // Binding the taken name to a bipartite graph is a typed conflict.
    match client.load("shared", &bpath_str) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, serve::protocol::errcode::NAME_CONFLICT)
        }
        other => panic!("expected name-conflict, got {other:?}"),
    }
    // ... and the original binding survives: the general query still runs.
    let reply = client.query(request("shared", QueryParams::default())).unwrap();
    assert_eq!(reply.stop, StopReason::Completed);

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(&gpath);
    let _ = std::fs::remove_file(&bpath);
}
