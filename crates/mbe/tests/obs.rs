//! Observability acceptance suite: event-ordering invariants of the
//! [`mbe::Observer`] hooks, per-worker metrics merge identities, and the
//! JSONL trace writer — across the serial driver and 2/4-thread
//! work-stealing runs.

use bigraph::BipartiteGraph;
use mbe::obs::{RunContext, SegmentInfo, TaskDelta, TaskInfo};
use mbe::{Enumeration, Observer, Stats, StopReason};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Two overlapping blocks plus noise: enough structure for ~dozens of
/// bicliques and several non-trivial root tasks.
fn demo_graph() -> BipartiteGraph {
    let mut edges = Vec::new();
    for u in 0..6u32 {
        for v in 0..4u32 {
            edges.push((u, v));
        }
    }
    for u in 4..10u32 {
        for v in 3..8u32 {
            edges.push((u, v));
        }
    }
    edges.extend([(10, 8), (11, 8), (10, 9)]);
    BipartiteGraph::from_edges(12, 10, &edges).unwrap()
}

/// Crown graph S(n): u_i adjacent to every v_j except j == i; 2^n − 2
/// maximal bicliques — enough work to keep several workers busy.
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

/// Flattened event stream for ordering assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    RunStart,
    RunEnd,
    SegStart { workers: usize },
    SegEnd,
    TaskStart { worker: usize },
    TaskFinish { worker: usize, emitted: u64 },
    Steal,
    Idle,
    Sample,
    Stop,
    Checkpoint,
}

/// Records every hook invocation in arrival order.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Ev>>,
}

impl Recorder {
    fn take(self) -> Vec<Ev> {
        self.events.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
    fn push(&self, ev: Ev) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(ev);
    }
}

impl Observer for Recorder {
    fn on_run_start(&self, _ctx: &RunContext) {
        self.push(Ev::RunStart);
    }
    fn on_run_end(&self, _stop: StopReason, _stats: &Stats) {
        self.push(Ev::RunEnd);
    }
    fn on_segment_start(&self, seg: &SegmentInfo) {
        self.push(Ev::SegStart { workers: seg.workers });
    }
    fn on_segment_end(&self, _stop: StopReason, _stats: &Stats) {
        self.push(Ev::SegEnd);
    }
    fn on_task_start(&self, worker: usize, _task: &TaskInfo) {
        self.push(Ev::TaskStart { worker });
    }
    fn on_task_finish(&self, worker: usize, _task: &TaskInfo, _e: Duration, delta: &TaskDelta) {
        self.push(Ev::TaskFinish { worker, emitted: delta.emitted });
    }
    fn on_steal(&self, _worker: usize) {
        self.push(Ev::Steal);
    }
    fn on_idle(&self, _worker: usize) {
        self.push(Ev::Idle);
    }
    fn on_emit_sample(&self, _worker: usize, _emitted: u64) {
        self.push(Ev::Sample);
    }
    fn on_stop(&self, _reason: StopReason) {
        self.push(Ev::Stop);
    }
    fn on_checkpoint(&self, _tasks: u64, _emitted: u64) {
        self.push(Ev::Checkpoint);
    }
}

/// The ordering contract every run mode must satisfy:
/// run_start strictly first, run_end strictly last, segments bracketed
/// inside the run, and per-worker task start/finish strictly alternating.
fn assert_well_ordered(events: &[Ev], workers_hint: usize) {
    assert!(events.len() >= 4, "expected a non-trivial stream, got {events:?}");
    assert_eq!(events.first(), Some(&Ev::RunStart), "run_start must be first");
    assert_eq!(events.last(), Some(&Ev::RunEnd), "run_end must be last");
    assert_eq!(events.iter().filter(|e| **e == Ev::RunStart).count(), 1);
    assert_eq!(events.iter().filter(|e| **e == Ev::RunEnd).count(), 1);

    let seg_start = events
        .iter()
        .position(|e| matches!(e, Ev::SegStart { .. }))
        .expect("a segment_start event");
    let seg_end = events.iter().rposition(|e| *e == Ev::SegEnd).expect("a segment_end event");
    assert!(seg_start < seg_end, "segment_start must precede segment_end");
    if let Ev::SegStart { workers } = events[seg_start] {
        assert_eq!(workers, workers_hint, "segment must report the resolved worker count");
    }

    // Per worker, starts and finishes strictly alternate (one task in
    // flight at a time) and every start is eventually finished.
    let mut open = [false; 64];
    for ev in events {
        match *ev {
            Ev::TaskStart { worker } => {
                assert!(!open[worker], "worker {worker} started a task while one is open");
                open[worker] = true;
            }
            Ev::TaskFinish { worker, .. } => {
                assert!(open[worker], "worker {worker} finished a task it never started");
                open[worker] = false;
            }
            _ => {}
        }
    }
    assert!(open.iter().all(|o| !o), "every started task must finish on a completed run");
}

#[test]
fn serial_event_stream_is_well_ordered() {
    let g = demo_graph();
    let rec = Recorder::default();
    let report = Enumeration::new(&g).observer(&rec).collect().unwrap();
    assert!(report.is_complete());
    let events = rec.take();
    assert_well_ordered(&events, 1);
    // The serial driver never steals or idles.
    assert!(!events.contains(&Ev::Steal));
    assert!(!events.contains(&Ev::Idle));
    // Per-task emission deltas add up to the run total.
    let sum: u64 = events
        .iter()
        .filter_map(|e| match e {
            Ev::TaskFinish { emitted, .. } => Some(*emitted),
            _ => None,
        })
        .sum();
    assert_eq!(sum, report.stats.emitted, "task deltas must sum to stats.emitted");
}

#[test]
fn parallel_event_stream_is_well_ordered() {
    let g = crown(10);
    for threads in [2usize, 4] {
        let rec = Recorder::default();
        let report = Enumeration::new(&g).threads(threads).observer(&rec).collect().unwrap();
        assert!(report.is_complete(), "threads={threads}");
        let events = rec.take();
        assert_well_ordered(&events, threads);
        let sum: u64 = events
            .iter()
            .filter_map(|e| match e {
                Ev::TaskFinish { emitted, .. } => Some(*emitted),
                _ => None,
            })
            .sum();
        assert_eq!(sum, report.stats.emitted, "threads={threads}");
    }
}

#[test]
fn per_worker_metrics_merge_to_run_totals() {
    let g = crown(10);
    for threads in [1usize, 2, 4] {
        let report = Enumeration::new(&g).threads(threads).collect().unwrap();
        let m = &report.metrics;
        assert!(!m.workers.is_empty(), "threads={threads}: metrics must be populated");
        assert!(m.workers.len() <= threads.max(1), "threads={threads}");
        assert_eq!(m.total_emitted(), report.stats.emitted, "threads={threads}");
        assert_eq!(m.total_tasks(), report.stats.tasks, "threads={threads}");
        // Every task records a latency observation, so the merged
        // histogram holds exactly one count per task.
        assert_eq!(m.task_latency_us().count(), report.stats.tasks, "threads={threads}");
        // Worker ids are distinct and dense-ish.
        let mut ids: Vec<usize> = m.workers.iter().map(|w| w.worker).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), m.workers.len(), "threads={threads}: duplicate worker ids");
    }
}

#[test]
fn observer_runs_do_not_change_results() {
    let g = demo_graph();
    let plain = Enumeration::new(&g).collect().unwrap();
    let rec = Recorder::default();
    let observed = Enumeration::new(&g).observer(&rec).collect().unwrap();
    assert_eq!(plain.bicliques, observed.bicliques);
    assert_eq!(plain.stats.emitted, observed.stats.emitted);
    assert_eq!(plain.stats.nodes, observed.stats.nodes);
}

/// A fresh path under the system temp dir, unique per test name (tests
/// in one binary share a process id).
fn temp_trace(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mbe-obs-{tag}-{}.jsonl", std::process::id()))
}

/// Minimal JSONL shape check shared by the trace tests: every line is a
/// one-level object, `t_us` is non-decreasing, `run_start` is first and
/// `run_end` (carrying `stop`) is last.
fn assert_trace_shape(content: &str, want_stop: &str) {
    let lines: Vec<&str> = content.lines().collect();
    assert!(lines.len() >= 2, "trace must hold at least run_start + run_end:\n{content}");
    assert!(lines[0].contains("\"ev\":\"run_start\""), "first line: {}", lines[0]);
    let last = lines[lines.len() - 1];
    assert!(last.contains("\"ev\":\"run_end\""), "last line: {last}");
    assert!(last.contains(&format!("\"stop\":\"{want_stop}\"")), "last line: {last}");
    let mut prev = 0u64;
    let version_tag = format!("\"v\":{}", mbe::obs::TRACE_SCHEMA_VERSION);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        assert!(line.contains(&version_tag), "unversioned line: {line}");
        let t: u64 = line
            .split("\"t_us\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no t_us in {line}"));
        assert!(t >= prev, "timestamps must be non-decreasing: {line}");
        prev = t;
    }
}

#[test]
fn jsonl_trace_covers_a_parallel_run() {
    let g = crown(10);
    let path = temp_trace("par");
    let trace = mbe::JsonlTraceObserver::create(path.to_str().unwrap()).unwrap();
    let report = Enumeration::new(&g).threads(4).observer(&trace).collect().unwrap();
    assert!(report.is_complete());
    assert!(trace.take_error().is_none(), "trace writes must succeed");
    let content = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_trace_shape(&content, "completed");
    // Task events made it through: one start and one finish per task.
    let starts = content.matches("\"ev\":\"task_start\"").count();
    let finishes = content.matches("\"ev\":\"task_finish\"").count();
    assert_eq!(starts as u64, report.stats.tasks);
    assert_eq!(finishes as u64, report.stats.tasks);
}

/// `line` with the values of its wall-clock fields (`t_us`, `anchor`,
/// `us`) replaced by 0.
fn zero_clock(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"t_us\":", "\"anchor\":", "\"us\":"] {
        if let Some(at) = out.find(key) {
            let start = at + key.len();
            let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(start..start + digits, "0");
        }
    }
    out
}

#[test]
fn run_trace_lines_match_the_recorded_fixture() {
    // A serial budget stop: run, segment, task, sample, stop and
    // checkpoint events in one deterministic trace.
    let path = temp_trace("fixture");
    let trace = mbe::JsonlTraceObserver::create(path.to_str().unwrap()).unwrap();
    let report = Enumeration::new(&demo_graph())
        .sample_every(2)
        .max_bicliques(5)
        .observer(&trace)
        .collect()
        .unwrap();
    assert_eq!(report.stop, StopReason::EmitBudget);
    assert!(trace.take_error().is_none());
    drop(trace);
    let content = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<String> = content.lines().map(zero_clock).collect();
    let expected: Vec<&str> = include_str!("data/demo_budget5.trace.jsonl").lines().collect();
    assert_eq!(lines, expected);
}

/// A trace smaller than the writer's buffer reaches the file only at the
/// run-end flush; a failure there must still be reported.
#[cfg(target_os = "linux")]
#[test]
fn trace_to_a_full_device_reports_the_final_write_error() {
    let trace = mbe::JsonlTraceObserver::create("/dev/full").unwrap();
    let report = Enumeration::new(&demo_graph()).observer(&trace).count().unwrap();
    assert!(report.is_complete());
    assert!(trace.take_error().is_some(), "the run-end flush failed and must be reported");
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use mbe::faults::FaultPlan;
    use mbe::MbeError;

    /// The flush-before-fail contract: an injected worker panic must
    /// still produce a complete, well-terminated trace file whose final
    /// `run_end` records the panic stop reason.
    #[test]
    fn worker_panic_still_flushes_the_trace() {
        let g = crown(12);
        let path = temp_trace("panic");
        let trace = mbe::JsonlTraceObserver::create(path.to_str().unwrap()).unwrap();
        let err = Enumeration::new(&g)
            .threads(4)
            .faults(FaultPlan::new().panic_at(50))
            .observer(&trace)
            .collect()
            .unwrap_err();
        assert!(matches!(err, MbeError::WorkerPanic { .. }), "got {err:?}");
        assert!(trace.take_error().is_none());
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_trace_shape(&content, "worker-panic");
    }
}
