//! Golden reply bytes: one fixed script against a one-worker server with
//! a reply cap of 5, every reply compared with the bytes the server
//! produced when the script was recorded. It pins what each query route
//! answers on the wire (cache misses and hits, the two clipping rules,
//! checkpoint-bearing stops, the general-graph route, shards, and every
//! validation refusal), so a refactor of the query path must reproduce
//! the exact `Response::encode()` bytes.
//!
//! Wall-clock is the only nondeterministic field, so each reply's
//! `elapsed_us` is set to 0 before encoding. The table stores the
//! encoded length and a 64-bit FNV-1a digest of each reply. When a reply
//! changes, the assertion prints the whole actual table.

use gen::near_bipartite::{near_bipartite, NearBipartiteConfig};
use mbe::checkpoint::initial_checkpoint;
use mbe::service::QueryParams;
use mbe::{Checkpoint, MbeOptions, ResumeTask};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Client, QueryRequest, Reply, Request, Response, Server, ServerConfig, ShardRequest};

/// Crown graph S(n): K(n,n) minus a perfect matching, 2^n − 2 maximal
/// bicliques.
fn crown(n: u32) -> bigraph::BipartiteGraph {
    let edges: Vec<(u32, u32)> =
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    bigraph::BipartiteGraph::from_edges(n, n, &edges).unwrap()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The response's wire bytes with the run's wall-clock zeroed.
fn normalized(mut response: Response) -> Vec<u8> {
    if let Response::Ok(Reply::Query(r) | Reply::Shard(r)) = &mut response {
        r.elapsed_us = 0;
    }
    response.encode()
}

fn query(graph: &str, params: QueryParams, max_return: u32) -> Request {
    Request::Query(QueryRequest { graph: graph.to_string(), params, max_return, trace: None })
}

fn shard(graph: &str, checkpoint: Vec<u8>) -> Request {
    Request::QueryShard(ShardRequest {
        graph: graph.to_string(),
        params: QueryParams::default(),
        max_return: u32::MAX,
        checkpoint,
        trace: None,
    })
}

/// `(step, encoded length, FNV-1a digest)` recorded from the server.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("count-only miss", 35, 0xe33a_3c1b_bc6c_966a),
    ("collect miss, max_return 3", 131, 0xc1fa_20b2_4bda_c114),
    ("collect miss, max_return u32::MAX", 195, 0xfc5e_5bc2_26d9_f180),
    ("collect hit", 195, 0x23e8_90cd_4018_67fb),
    ("top-k count-only miss", 131, 0x700c_3d1b_fc1b_b323),
    ("top-k count-only hit", 131, 0x97ce_6b9d_82d3_2068),
    ("budget stop", 708, 0x46fd_78e5_544f_7f62),
    ("load general", 43, 0x9c4d_19ca_c538_d89c),
    ("general miss", 187, 0xa1f0_eef5_92ad_9a46),
    ("general hit", 187, 0x60a6_f120_c8ff_319d),
    ("whole-frontier shard", 2019, 0x73e9_5d7c_7afa_2286),
    ("unknown graph", 47, 0x829c_b037_7631_c309),
    ("thresholds on a general graph", 104, 0x8516_16f0_2f65_9251),
    ("shard on a general graph", 66, 0x9f68_97b9_f40d_ebf2),
    ("shard with bad bytes", 68, 0x6b3c_ff2a_a5c9_cd87),
    ("shard outside the graph", 78, 0x870c_0c95_48c9_45f0),
];

#[test]
fn query_replies_match_the_recorded_bytes() {
    let g = crown(6);
    let mut rng = StdRng::seed_from_u64(41);
    let (general, _plan) = near_bipartite(&mut rng, &NearBipartiteConfig::new(8, 8, 30, 3));
    let path = std::env::temp_dir().join(format!("serve-golden-{}.txt", std::process::id()));
    bigraph::general::write_general_edge_list_path(&general, &path).unwrap();

    let cfg = ServerConfig { workers: 1, max_return: 5, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    server.preload("crown", g.clone()).unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(handle.addr()).unwrap();

    let count_only = QueryParams { count_only: true, ..QueryParams::default() };
    let descending = QueryParams {
        order: bigraph::order::VertexOrder::DescendingDegree,
        ..QueryParams::default()
    };
    let top_k = QueryParams { top_k: Some(3), count_only: true, ..QueryParams::default() };
    let budget = QueryParams { max_bicliques: Some(10), ..QueryParams::default() };
    let thresholded = QueryParams { min_left: 2, ..QueryParams::default() };
    let opts = MbeOptions::default();
    let whole = initial_checkpoint(&g, &opts).to_bytes();
    let outside =
        Checkpoint { frontier: vec![ResumeTask::Root(99)], ..initial_checkpoint(&g, &opts) }
            .to_bytes();
    let general_path = path.to_string_lossy().to_string();

    let script: Vec<(&str, Request)> = vec![
        ("count-only miss", query("crown", count_only, u32::MAX)),
        ("collect miss, max_return 3", query("crown", QueryParams::default(), 3)),
        ("collect miss, max_return u32::MAX", query("crown", descending, u32::MAX)),
        ("collect hit", query("crown", QueryParams::default(), u32::MAX)),
        ("top-k count-only miss", query("crown", top_k.clone(), u32::MAX)),
        ("top-k count-only hit", query("crown", top_k, u32::MAX)),
        ("budget stop", query("crown", budget, u32::MAX)),
        ("load general", Request::LoadGeneral { name: "road".into(), path: general_path }),
        ("general miss", query("road", QueryParams::default(), u32::MAX)),
        ("general hit", query("road", QueryParams::default(), u32::MAX)),
        ("whole-frontier shard", shard("crown", whole)),
        ("unknown graph", query("nowhere", QueryParams::default(), u32::MAX)),
        ("thresholds on a general graph", query("road", thresholded, u32::MAX)),
        ("shard on a general graph", shard("road", vec![0xFF; 8])),
        ("shard with bad bytes", shard("crown", vec![0xFF; 8])),
        ("shard outside the graph", shard("crown", outside)),
    ];
    let actual: Vec<(&str, usize, u64)> = script
        .into_iter()
        .map(|(step, request)| {
            let bytes = normalized(client.call(&request).unwrap());
            (step, bytes.len(), fnv1a(&bytes))
        })
        .collect();

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(actual, GOLDEN, "reply bytes changed; actual table above");
}
