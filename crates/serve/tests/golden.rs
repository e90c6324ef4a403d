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
//!
//! A second table pins the codec alone: the encoding of fixed values of
//! every request opcode and every response and reply kind
//! (`common/mod.rs`), checked the same way.

mod common;

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

/// `(sample, encoded length, FNV-1a digest)` recorded from the encoder
/// for every value in `common::sample_requests` and
/// `common::sample_responses`, in that order.
const CODEC: &[(&str, usize, u64)] = &[
    ("LOAD", 26, 0x6553_cd77_cc8d_ce87),
    ("LIST", 2, 0x082f_2407_b4e8_902a),
    ("QUERY default", 61, 0x703e_bec8_2ced_d0b7),
    ("QUERY every field", 79, 0x179e_d216_16fd_bff2),
    ("QUERY natural", 61, 0x0106_f47d_f850_46d4),
    ("QUERY desc", 61, 0xd9bd_dc69_eb30_7ce5),
    ("QUERY unilateral", 61, 0x1792_73aa_358b_5940),
    ("CANCEL", 2, 0x082f_1e07_b4e8_85f8),
    ("STATS", 2, 0x082f_1f07_b4e8_87ab),
    ("SHUTDOWN", 2, 0x082f_2007_b4e8_895e),
    ("QUERY_SHARD", 71, 0x0e98_7550_2625_9d52),
    ("QUERY_SHARD traced", 85, 0xe5f0_75df_9065_1111),
    ("METRICS", 2, 0x082f_1a07_b4e8_7f2c),
    ("LOAD_GENERAL", 28, 0xaf9f_0ea9_cba2_1925),
    ("OK LOAD", 42, 0x63d5_895d_fd77_27b1),
    ("OK LIST", 86, 0x2aba_aeee_d623_51d1),
    ("OK LIST empty", 7, 0xcb96_64df_5f52_6c92),
    ("OK QUERY completed", 79, 0x0725_599c_dd75_7ae3),
    ("OK QUERY cached", 79, 0x7ecd_7b5c_0c9a_adb4),
    ("OK QUERY cancelled + checkpoint", 87, 0x3b58_b1cd_56bd_2f81),
    ("OK QUERY deadline", 79, 0xac7b_dfd0_9961_aa1d),
    ("OK QUERY emit-budget", 79, 0x90ba_a528_39b5_a6de),
    ("OK QUERY node-budget", 79, 0xad00_d2c6_cb96_ccff),
    ("OK QUERY sink-stopped", 79, 0x3780_08de_b571_b9b8),
    ("OK QUERY worker-panic", 79, 0x599d_5a96_4693_94a9),
    ("OK QUERY distributed", 100, 0xc78f_478f_7cb9_d974),
    ("OK CANCEL", 3, 0xd0a3_9318_6727_2a40),
    ("OK STATS", 140, 0xa4c4_045e_cdeb_01ad),
    ("OK STATS idle", 140, 0x60fa_4105_110a_5709),
    ("OK SHUTDOWN", 3, 0xd0a3_9518_6727_2da6),
    ("OK QUERY_SHARD", 100, 0xf171_548c_c6af_6a28),
    ("OK METRICS", 5766, 0x0e45_845f_cba3_e3dd),
    ("OK METRICS empty", 752, 0x531e_8175_d7d9_e6df),
    ("OK LOAD_GENERAL", 43, 0x5a8d_ece9_315b_021a),
    ("ERR", 48, 0xc4a1_77e3_371c_86a3),
    ("BUSY", 10, 0x8001_b97e_2110_4cea),
];

#[test]
fn every_opcode_and_reply_kind_encodes_to_the_recorded_bytes() {
    let row = |name, bytes: Vec<u8>| (name, bytes.len(), fnv1a(&bytes));
    let actual: Vec<(&str, usize, u64)> = common::sample_requests()
        .into_iter()
        .map(|(name, request)| row(name, request.encode()))
        .chain(
            common::sample_responses()
                .into_iter()
                .map(|(name, response)| row(name, response.encode())),
        )
        .collect();
    assert_eq!(actual, CODEC, "encoded bytes changed; actual table above");
}
