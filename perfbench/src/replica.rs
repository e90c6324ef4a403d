//! The outside-in replica of the serial driver.
//!
//! It repeats what `Enumeration::count()` does on the serial path, one
//! public call at a time, with a span around each call: `order::apply`,
//! `root_representatives`, then per root `TaskBuilder::build` and
//! `MbetEngine::run_task` into a sink that times itself. The engine
//! localizes each root inside `run_task`, out of reach from here, so the
//! replica also calls `LocalGraph::localize` on a localizer of its own
//! with the same inputs and kernel, and takes that time as the engine's
//! localization share. Its count must equal `Enumeration::count()`.

use std::ops::ControlFlow;
use std::time::Instant;

use bigraph::{BipartiteGraph, LocalGraph};
use mbe::mbet::MbetEngine;
use mbe::task::{root_representatives, TaskBuilder};
use mbe::{BicliqueSink, CountSink, Kernel, MbeOptions, Stats, StopReason};

use crate::span::Tracer;

/// Span names, one per layer boundary the replica crosses.
pub const PASS: &str = "replica.pass";
pub const ORDER: &str = "bigraph.order.apply";
pub const REPS: &str = "mbe.task.reps";
pub const BUILD: &str = "mbe.task.build";
pub const LOCALIZE: &str = "bigraph.local.localize";
pub const RUN_TASK: &str = "mbe.mbet.run_task";

/// A sink that does what the serial driver's emission path does (map
/// right ids back to the caller's ids, sort, count) and times itself.
struct TimingSink<'p> {
    inner: CountSink,
    perm: &'p [u32],
    buf: Vec<u32>,
    ns: u64,
}

impl BicliqueSink for TimingSink<'_> {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        let t = Instant::now();
        self.buf.clear();
        self.buf.extend(right.iter().map(|&v| self.perm[v as usize]));
        self.buf.sort_unstable();
        let flow = self.inner.emit(left, &self.buf);
        self.ns += t.elapsed().as_nanos() as u64;
        flow
    }
}

/// What one replica pass over one graph counted.
#[derive(Debug, Clone, Default)]
pub struct PassCounts {
    pub stats: Stats,
    /// Bicliques the sink received (must equal `stats.emitted`).
    pub sink_count: u64,
    pub roots: u64,
    /// Roots whose localization packed bitmap rows.
    pub bits_roots: u64,
    pub peak_trie_nodes: u64,
    /// Nanoseconds spent inside the sink.
    pub sink_ns: u64,
    /// Per-root `run_task` nanoseconds.
    pub root_ns: Vec<u64>,
}

/// One serial pass over `g`, traced into `tracer` under trace id `trace`.
pub fn serial_pass(g: &BipartiteGraph, tracer: &mut Tracer, trace: u64) -> PassCounts {
    let opts = MbeOptions::default();
    let pass = tracer.begin(PASS, trace);
    let (h, perm) = tracer.time(ORDER, trace, || bigraph::order::apply(g, opts.order));
    let reps = tracer.time(REPS, trace, || root_representatives(&h));
    let mut builder = TaskBuilder::new(&h);
    let mut engine = MbetEngine::new(&h, opts.mbet, opts.kernel);
    let mut local = LocalGraph::new(Kernel::Adaptive);
    let mut sink = TimingSink { inner: CountSink::default(), perm: &perm, buf: Vec::new(), ns: 0 };
    let mut out = PassCounts::default();
    let mut rights = Vec::new();
    for v in 0..h.num_v() {
        if !reps[v as usize] {
            out.stats.batched += 1;
            continue;
        }
        let Some(task) = tracer.time(BUILD, trace, || builder.build(v)) else { continue };
        out.stats.tasks += 1;
        out.roots += 1;
        rights.clear();
        rights.extend_from_slice(&task.q0);
        rights.push(task.v);
        rights.extend_from_slice(&task.p0);
        tracer.time(LOCALIZE, trace, || local.localize(&h, &task.l0, &rights));
        out.bits_roots += u64::from(local.has_bits());
        let sink_before = sink.ns;
        let span = tracer.begin(RUN_TASK, trace);
        let t = Instant::now();
        let flow = engine.run_task(&task, &mut sink, &mut out.stats);
        out.root_ns.push(t.elapsed().as_nanos() as u64);
        tracer.end(span);
        tracer.add_child_ns(span, sink.ns - sink_before);
        assert!(flow.is_continue(), "an unbounded count never stops early");
    }
    tracer.end(pass);
    out.sink_count = sink.inner.count();
    out.sink_ns = sink.ns;
    out.peak_trie_nodes = engine.peak_trie_nodes() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn replica_count_equals_enumeration_count() {
        for abbrev in ["WA", "Mti"] {
            let g = inputs::preset(abbrev);
            let mut tracer = Tracer::new();
            let pass = serial_pass(&g, &mut tracer, 0);
            let report = mbe::Enumeration::new(&g).count().expect("valid run");
            assert_eq!(pass.stats.emitted, report.count(), "{abbrev}");
            assert_eq!(pass.sink_count, report.count(), "{abbrev}");
            assert_eq!(pass.stats.nodes, report.stats.nodes, "{abbrev}");
            assert_eq!(pass.stats.batched, report.stats.batched, "{abbrev}");
            assert_eq!(pass.stats.tasks, report.stats.tasks, "{abbrev}");
            assert_eq!(pass.stats.emitted, inputs::expected(abbrev), "{abbrev}");
        }
    }

    #[test]
    fn replica_spans_nest_under_the_pass() {
        let g = inputs::preset("WA");
        let mut tracer = Tracer::new();
        let pass = serial_pass(&g, &mut tracer, 3);
        let totals = tracer.totals();
        assert_eq!(totals[PASS].count, 1);
        assert_eq!(totals[RUN_TASK].count, pass.roots);
        assert_eq!(totals[LOCALIZE].count, pass.roots);
        assert!(tracer.spans()[1..].iter().all(|s| s.parent == Some(0) && s.trace == 3));
        // Self times of the pass's children and the pass add up to it.
        let whole = tracer.spans()[0].dur_ns();
        let summed: u64 = tracer.self_ns().iter().sum::<u64>() + pass.sink_ns;
        assert_eq!(summed, whole);
    }
}
