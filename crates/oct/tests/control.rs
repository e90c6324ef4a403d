//! Stop/resume contract tests: budget, cancel, and deadline stops must
//! yield a checkpoint from which the resumed run completes the exact
//! remaining work — `stopped ∪ resumed == complete`, duplicate-free.

use bigraph::general::GeneralGraph;
use mbe::{RunControl, StopReason};
use oct::{OctCheckpoint, OctEnumeration, OctError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn test_graph(seed: u64) -> GeneralGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = gen::NearBipartiteConfig::new(10, 9, 40, 4);
    let (g, _) = gen::near_bipartite(&mut rng, &cfg);
    g
}

fn keys_of(report: &oct::OctReport) -> Vec<Vec<u32>> {
    report
        .bicliques
        .iter()
        .map(|b| {
            let mut k: Vec<u32> = b.left.iter().chain(b.right.iter()).copied().collect();
            k.sort_unstable();
            k
        })
        .collect()
}

#[test]
fn budget_stop_then_resume_matches_complete_run() {
    let g = test_graph(5);
    let complete = OctEnumeration::new(&g).collect().expect("complete run");
    assert!(complete.is_complete());
    let total = complete.stats.emitted;
    assert!(total > 4, "need a non-trivial instance, got {total}");

    // Stop at every possible budget point and resume to the end.
    for budget in 1..total {
        let first = OctEnumeration::new(&g).max_bicliques(budget).collect().expect("first run");
        assert_eq!(first.stop, StopReason::EmitBudget, "budget {budget}");
        assert_eq!(first.stats.emitted, budget);
        let ckpt = first.checkpoint.clone().expect("stopped run must carry a checkpoint");
        assert_eq!(ckpt.emitted, budget);

        let second = OctEnumeration::new(&g).resume(ckpt).collect().expect("resumed run");
        assert!(second.is_complete(), "budget {budget}");
        assert!(second.checkpoint.is_none(), "completed run must not carry a checkpoint");
        assert_eq!(second.stats.emitted, total, "cumulative emitted, budget {budget}");

        let mut union = keys_of(&first);
        union.extend(keys_of(&second));
        let before = union.len();
        union.sort();
        union.dedup();
        assert_eq!(union.len(), before, "duplicates across stop/resume, budget {budget}");
        let mut expect = keys_of(&complete);
        expect.sort();
        assert_eq!(union, expect, "budget {budget}");
    }
}

#[test]
fn chained_resume_through_many_stops() {
    let g = test_graph(6);
    let complete = OctEnumeration::new(&g).collect().expect("complete run");
    let total = complete.stats.emitted;
    assert!(total > 6);

    // Walk the whole enumeration two bicliques at a time.
    let mut all: Vec<Vec<u32>> = Vec::new();
    let mut ckpt: Option<OctCheckpoint> = None;
    loop {
        let mut run = OctEnumeration::new(&g).max_bicliques(2);
        if let Some(c) = ckpt.take() {
            run = run.resume(c);
        }
        let report = run.collect().expect("chained run");
        all.extend(keys_of(&report));
        match report.checkpoint {
            Some(c) => ckpt = Some(c),
            None => {
                assert!(report.is_complete());
                break;
            }
        }
    }
    let before = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), before, "duplicates across chained resumes");
    let mut expect = keys_of(&complete);
    expect.sort();
    assert_eq!(all, expect);
    assert_eq!(before as u64, total);
}

#[test]
fn cancel_before_start_stops_immediately() {
    let g = test_graph(7);
    let control = RunControl::new();
    control.cancel();
    let report = OctEnumeration::new(&g).control(control).collect().expect("cancelled run");
    assert_eq!(report.stop, StopReason::Cancelled);
    assert!(report.bicliques.is_empty());
    let ckpt = report.checkpoint.expect("cancelled run carries a checkpoint");
    assert_eq!(ckpt.emitted, 0);

    // Resuming from the immediate-cancel checkpoint yields the full run.
    let resumed = OctEnumeration::new(&g).resume(ckpt).collect().expect("resume");
    assert!(resumed.is_complete());
    let complete = OctEnumeration::new(&g).collect().expect("complete");
    assert_eq!(resumed.stats.emitted, complete.stats.emitted);
}

#[test]
fn expired_deadline_stops_with_checkpoint() {
    let g = test_graph(8);
    let report = OctEnumeration::new(&g).timeout(Duration::ZERO).collect().expect("deadline run");
    assert_eq!(report.stop, StopReason::Deadline);
    let ckpt = report.checkpoint.clone().expect("deadline stop carries a checkpoint");

    let complete = OctEnumeration::new(&g).collect().expect("complete");
    let resumed = OctEnumeration::new(&g).resume(ckpt).collect().expect("resume");
    assert!(resumed.is_complete());
    let mut union = keys_of(&report);
    union.extend(keys_of(&resumed));
    union.sort();
    union.dedup();
    let mut expect = keys_of(&complete);
    expect.sort();
    assert_eq!(union, expect);
}

#[test]
fn checkpoint_rejects_wrong_graph() {
    let g = test_graph(9);
    let other = test_graph(10);
    let stopped = OctEnumeration::new(&g).max_bicliques(1).collect().expect("run");
    let ckpt = stopped.checkpoint.expect("checkpoint");
    match OctEnumeration::new(&other).resume(ckpt).collect() {
        Err(OctError::Checkpoint(oct::OctCheckpointError::FingerprintMismatch)) => {}
        other => panic!("expected FingerprintMismatch, got {:?}", other.map(|r| r.stop)),
    }
}

#[test]
fn checkpoint_serialization_roundtrip_preserves_resume() {
    let g = test_graph(11);
    let complete = OctEnumeration::new(&g).collect().expect("complete");
    let total = complete.stats.emitted;
    let stopped = OctEnumeration::new(&g).max_bicliques(total / 2).collect().expect("stopped");
    let ckpt = stopped.checkpoint.clone().expect("checkpoint");

    // Through bytes, as the CLI does.
    let bytes = ckpt.to_bytes();
    let restored = OctCheckpoint::from_bytes(&bytes).expect("decode");
    let resumed = OctEnumeration::new(&g).resume(restored).collect().expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.emitted, total);

    let mut union = keys_of(&stopped);
    union.extend(keys_of(&resumed));
    let before = union.len();
    union.sort();
    union.dedup();
    assert_eq!(union.len(), before);
    assert_eq!(union.len() as u64, total);
}

#[test]
fn checkpoint_fixture_reencodes_and_resumes_exactly() {
    // `mbe-cli generate oct-planted 20 20 80 4 --seed 5`, then
    // `mbe-cli oct-enumerate G --order random:7 --max-bicliques 40
    // --checkpoint FIXTURE`: the `MBOK` bytes of a budget-stopped run.
    let bytes = include_bytes!("../../mbe/tests/data/octplanted5_random7_budget40.mbok");
    let ckpt = OctCheckpoint::from_bytes(bytes).expect("fixture decodes");
    assert_eq!(ckpt.to_bytes(), bytes.as_slice(), "one encoding per checkpoint");
    assert_eq!(ckpt.emitted, 40);
    assert_eq!(ckpt.order, bigraph::order::VertexOrder::Random(7));

    let mut rng = StdRng::seed_from_u64(5);
    let (g, _) = gen::near_bipartite(&mut rng, &gen::NearBipartiteConfig::new(20, 20, 80, 4));
    assert!(ckpt.matches(&g));
    let complete = OctEnumeration::new(&g).collect().expect("complete run");
    let resumed = OctEnumeration::new(&g).resume(ckpt).collect().expect("resumed run");
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.emitted, complete.stats.emitted);
}

#[test]
fn invalid_configs_rejected() {
    let g = test_graph(12);
    assert!(matches!(
        OctEnumeration::new(&g).max_oct(15).collect(),
        Err(OctError::InvalidConfig(_))
    ));
}

#[test]
fn zero_threads_means_all_cores() {
    let g = test_graph(12);
    let mut serial = keys_of(&OctEnumeration::new(&g).threads(1).collect().expect("serial run"));
    let mut all_cores =
        keys_of(&OctEnumeration::new(&g).threads(0).collect().expect("threads(0) runs"));
    serial.sort();
    all_cores.sort();
    assert_eq!(all_cores, serial);
}
