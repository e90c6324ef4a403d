//! Fault-injection acceptance suite (requires `--features fault-injection`;
//! run with `debug-invariants` too for the full checkpoint cross-checks).
//!
//! Scripted faults make the failure paths deterministic: a panic at a
//! known emission index exercises the parallel driver's `catch_unwind`
//! containment, and a sink failure at a known index exercises checkpoint
//! capture and exactly-once resume.
#![cfg(feature = "fault-injection")]

use bigraph::BipartiteGraph;
use mbe::faults::FaultPlan;
use mbe::{Biclique, Enumeration, MbeError, StopReason};
use std::collections::HashSet;

/// Crown graph S(n): u_i adjacent to every v_j except j == i; 2^n − 2
/// maximal bicliques.
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

#[test]
fn injected_worker_panic_is_contained() {
    let g = crown(12);
    for threads in [2, 4] {
        let err = Enumeration::new(&g)
            .threads(threads)
            .faults(FaultPlan::new().panic_at(50))
            .collect()
            .unwrap_err();
        let MbeError::WorkerPanic { task, payload, report } = err else {
            panic!("threads={threads}: expected WorkerPanic, got {err:?}");
        };
        assert!(!task.is_empty(), "threads={threads}: the panicked task must be named");
        assert!(payload.contains("injected fault"), "threads={threads}: payload = {payload}");
        assert_eq!(report.stop, StopReason::WorkerPanicked, "threads={threads}");
        // The panicked task was closed in the metrics like any other.
        assert_eq!(report.metrics.total_tasks(), report.stats.tasks, "threads={threads}");
        // The partial report is usable: a duplicate-free set of genuine
        // maximal bicliques, plus a best-effort checkpoint.
        let unique: HashSet<&Biclique> = report.bicliques.iter().collect();
        assert_eq!(unique.len(), report.bicliques.len(), "threads={threads}: duplicate");
        for b in &report.bicliques {
            assert!(
                mbe::verify::is_maximal_biclique(&g, &b.left, &b.right),
                "threads={threads}: non-maximal {b:?}"
            );
        }
        let ckpt = report.checkpoint.as_ref().expect("panic stop still carries a checkpoint");
        assert_eq!(ckpt.stop, StopReason::WorkerPanicked);
        assert_eq!(ckpt.emitted, report.bicliques.len() as u64);
    }
}

#[test]
fn injected_sink_error_checkpoint_resumes_exactly() {
    let g = crown(12);
    let full: HashSet<Biclique> =
        Enumeration::new(&g).collect().unwrap().bicliques.into_iter().collect();
    assert_eq!(full.len(), (1 << 12) - 2);
    for threads in [1, 2] {
        let stopped = Enumeration::new(&g)
            .threads(threads)
            .faults(FaultPlan::new().fail_at(100))
            .collect()
            .unwrap();
        assert_eq!(stopped.stop, StopReason::SinkStopped, "threads={threads}");
        // The failed emission was rejected before delivery; serially that
        // means exactly 100 delivered. Parallel workers may deliver a few
        // later-indexed emissions before observing the stop.
        assert!(stopped.bicliques.len() >= 100, "threads={threads}");
        if threads == 1 {
            assert_eq!(stopped.bicliques.len(), 100);
        }
        let ckpt = stopped.checkpoint.clone().expect("stopped run must carry a checkpoint");
        assert_eq!(ckpt.emitted, stopped.bicliques.len() as u64);

        // Resume from the checkpoint: the union is the complete run,
        // duplicate-free — the injected fault lost nothing.
        let resumed = Enumeration::new(&g).threads(threads).resume(ckpt).collect().unwrap();
        assert!(resumed.is_complete(), "threads={threads}");
        let mut union: HashSet<Biclique> = HashSet::with_capacity(full.len());
        for b in stopped.bicliques.iter().chain(resumed.bicliques.iter()) {
            assert!(union.insert(b.clone()), "threads={threads}: duplicate across segments {b:?}");
        }
        assert_eq!(union, full, "threads={threads}");
    }
}

#[test]
fn injected_panic_checkpoint_is_a_safe_subset() {
    // A post-panic checkpoint is best-effort (the panicked task is
    // excluded), but what it resumes must still be duplicate-free and
    // inside the complete set.
    let g = crown(10);
    let full: HashSet<Biclique> =
        Enumeration::new(&g).collect().unwrap().bicliques.into_iter().collect();
    let err = Enumeration::new(&g)
        .threads(2)
        .faults(FaultPlan::new().panic_at(20))
        .collect()
        .unwrap_err();
    let MbeError::WorkerPanic { report, .. } = err else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    let ckpt = report.checkpoint.clone().expect("checkpoint");
    let resumed = Enumeration::new(&g).threads(2).resume(ckpt).collect().unwrap();
    assert!(resumed.is_complete());
    let mut union: HashSet<Biclique> = HashSet::new();
    for b in report.bicliques.iter().chain(resumed.bicliques.iter()) {
        assert!(union.insert(b.clone()), "duplicate across segments: {b:?}");
    }
    assert!(union.is_subset(&full), "resumed union escaped the complete set");
}
