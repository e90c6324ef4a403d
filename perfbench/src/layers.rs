//! The engine-side half of every traced run.
//!
//! Each round goes once over the workload's graphs. Per graph it times
//! preset generation and the edge-list reader, runs the outside-in
//! replica, then the same count untraced (`Enumeration::count()`), then
//! threaded. Per-layer numbers are per round; the shares of `run_task`
//! (localization, the engine's own recursion, the sink) add up to one,
//! and so do the shares of the blocking path of a pass.

use std::time::{Duration, Instant};

use mbe::{Enumeration, RunMetrics};

use crate::inputs::{self, Input, Rng};
use crate::measure::{ms, Outcome, Window};
use crate::replica::{self, PassCounts, BUILD, LOCALIZE, ORDER, PASS, REPS, RUN_TASK};
use crate::span::Tracer;

pub const GEN: &str = "gen.preset";
pub const IO_READ: &str = "bigraph.io.read";
pub const COUNT: &str = "mbe.enumeration.count";
pub const COUNT_THREADS: &str = "mbe.enumeration.count_threads";

/// Parallel-driver counters of one round, summed over its graphs.
#[derive(Default)]
struct ParallelRound {
    tasks: u64,
    steals: u64,
    idle_wakeups: u64,
    /// Emissions per worker index, summed over the round's graphs.
    emitted: Vec<u64>,
}

impl ParallelRound {
    fn add(&mut self, m: &RunMetrics) {
        self.tasks += m.total_tasks();
        self.steals += m.total_steals();
        self.idle_wakeups += m.total_idle_wakeups();
        for w in &m.workers {
            if self.emitted.len() <= w.worker {
                self.emitted.resize(w.worker + 1, 0);
            }
            self.emitted[w.worker] += w.emitted;
        }
    }

    /// Largest worker's emissions over the mean worker's.
    fn imbalance(&self) -> f64 {
        let n = self.emitted.len().max(1) as f64;
        let mean = self.emitted.iter().sum::<u64>() as f64 / n;
        let max = self.emitted.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

/// Runs rounds over `graphs` for `window` (at least one round), tracing
/// into `tracer`, and returns the engine-side per-layer metrics.
pub fn engine_trace(
    graphs: &[&Input],
    seed: u64,
    threads: usize,
    window: Duration,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let mut passes: Vec<PassCounts> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut parallel: Vec<ParallelRound> = Vec::new();
    let mut w = Window::new(window);
    let mut round = 0u64;
    while w.next() {
        let mut round_ms = 0.0;
        let mut par = ParallelRound::default();
        for (i, input) in graphs.iter().enumerate() {
            let trace = round * graphs.len() as u64 + i as u64;
            tracer.time(GEN, trace, || {
                inputs::relabel(&inputs::preset(input.abbrev), &mut Rng::derive(seed, input.abbrev))
            });
            let read =
                tracer.time(IO_READ, trace, || bigraph::io::read_edge_list_path(&input.path));
            out.check(match read {
                Ok(g) if g.num_edges() == input.graph.num_edges() => Ok(()),
                Ok(_) => Err(format!("{}: reread graph differs", input.abbrev)),
                Err(e) => Err(format!("{}: read failed: {e}", input.abbrev)),
            });

            let pass = replica::serial_pass(&input.graph, tracer, trace);
            let t = Instant::now();
            let serial = tracer.time(COUNT, trace, || Enumeration::new(&input.graph).count());
            round_ms += ms(t.elapsed());
            let threaded = tracer.time(COUNT_THREADS, trace, || {
                Enumeration::new(&input.graph).threads(threads).count()
            });

            let want = input.expected;
            out.check(match (&serial, &threaded) {
                (Ok(s), Ok(p))
                    if pass.stats.emitted == want
                        && pass.sink_count == want
                        && s.count() == want
                        && p.count() == want =>
                {
                    Ok(())
                }
                (Ok(s), Ok(p)) => Err(format!(
                    "{}: replica {} / sink {} / serial {} / threaded {}, want {want}",
                    input.abbrev,
                    pass.stats.emitted,
                    pass.sink_count,
                    s.count(),
                    p.count()
                )),
                (Err(e), _) | (_, Err(e)) => Err(format!("{}: {e}", input.abbrev)),
            });
            if let Ok(p) = &threaded {
                par.add(&p.metrics);
            }
            passes.push(pass);
        }
        untraced_ms.push(round_ms);
        parallel.push(par);
        round += 1;
    }
    summarize(&mut out, tracer, &passes, round, graphs.len(), &untraced_ms, &parallel);
    out
}

fn summarize(
    out: &mut Outcome,
    tracer: &Tracer,
    passes: &[PassCounts],
    rounds: u64,
    graphs: usize,
    untraced_ms: &[f64],
    parallel: &[ParallelRound],
) {
    let totals = tracer.totals();
    let r = rounds as f64;
    let per_round_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / r);
    let sum = |f: &dyn Fn(&PassCounts) -> u64| passes.iter().map(f).sum::<u64>() as f64 / r;

    let order = per_round_ms(ORDER);
    let reps = per_round_ms(REPS);
    let build = per_round_ms(BUILD);
    let localize = per_round_ms(LOCALIZE);
    let run_task = per_round_ms(RUN_TASK);
    let pass = per_round_ms(PASS);
    let sink = sum(&|p| p.sink_ns) / 1e6;
    let mbet_self = run_task - localize - sink;
    // The pass's own time outside every child span: the driver loop.
    let driver = totals.get(PASS).map_or(0.0, |t| t.self_ns as f64 / 1e6 / r);

    out.put("gen.preset_ms", per_round_ms(GEN) / graphs as f64, "ms");
    out.put("bigraph.io.read_ms", per_round_ms(IO_READ) / graphs as f64, "ms");
    out.put("bigraph.order.apply_ms", order, "ms");
    out.put("mbe.task.reps_ms", reps, "ms");
    out.put("mbe.task.build_ms", build, "ms");
    out.put("mbe.task.roots", sum(&|p| p.roots), "count");

    // `run_task` = localization + the engine's own recursion + the sink.
    out.put("bigraph.local.localize_ms", localize, "ms");
    out.put("bigraph.local.localize_share", localize / run_task, "ratio");
    let roots = sum(&|p| p.roots);
    let bits = sum(&|p| p.bits_roots);
    out.put("bigraph.local.bits_roots", bits, "count");
    out.put("bigraph.local.bits_ratio", bits / roots, "ratio");
    out.put("mbe.mbet.run_task_ms", run_task, "ms");
    out.put("mbe.mbet.self_ms", mbet_self, "ms");
    out.put("mbe.mbet.self_share", mbet_self / run_task, "ratio");
    out.put("mbe.sink.emit_ms", sink, "ms");
    out.put("mbe.sink.emit_share", sink / run_task, "ratio");
    out.put("mbe.sink.emits", sum(&|p| p.sink_count), "count");

    let nodes = sum(&|p| p.stats.nodes);
    let emitted = sum(&|p| p.stats.emitted);
    out.put("mbe.mbet.nodes", nodes, "count");
    out.put("mbe.mbet.emitted", emitted, "count");
    out.put("mbe.mbet.nonmaximal", sum(&|p| p.stats.nonmaximal), "count");
    out.put("mbe.mbet.batched", sum(&|p| p.stats.batched), "count");
    out.put("mbe.mbet.absorbed", sum(&|p| p.stats.absorbed), "count");
    out.put("mbe.mbet.useful_ratio", emitted / nodes, "ratio");
    let peak = passes.iter().map(|p| p.peak_trie_nodes).max().unwrap_or(0);
    out.put("mbe.mbet.peak_trie_nodes", peak as f64, "count");
    let mut root_ms: Vec<f64> =
        passes.iter().flat_map(|p| &p.root_ns).map(|&ns| ns as f64 / 1e6).collect();
    root_ms.sort_by(f64::total_cmp);
    let p99 = root_ms[((root_ms.len() * 99).div_ceil(100)).max(1) - 1];
    out.put("mbe.mbet.root_ms_max", root_ms.last().copied().unwrap_or(0.0), "ms");
    out.put("mbe.mbet.root_ms_p99", p99, "ms");

    let par_mean = |f: &dyn Fn(&ParallelRound) -> f64| parallel.iter().map(f).sum::<f64>() / r;
    out.put("mbe.parallel.tasks", par_mean(&|p| p.tasks as f64), "count");
    out.put("mbe.parallel.steals", par_mean(&|p| p.steals as f64), "count");
    out.put("mbe.parallel.idle_wakeups", par_mean(&|p| p.idle_wakeups as f64), "count");
    out.put("mbe.parallel.emit_imbalance", par_mean(&|p| p.imbalance()), "ratio");

    // The blocking path of one pass without the replica's extra
    // localization calls: these shares add up to one.
    let whole = pass - localize;
    for (name, part) in [
        ("bigraph.order.apply", order),
        ("mbe.task.reps", reps),
        ("mbe.task.build", build),
        ("mbe.mbet.run_task", run_task),
        ("driver.loop", driver),
    ] {
        out.put(&format!("path.{name}_share"), part / whole, "ratio");
    }

    // A mean per round, like every other per-round figure here.
    let untraced = untraced_ms.iter().sum::<f64>() / r;
    out.put("replica.pass_ms", pass, "ms");
    out.put("replica.untraced_ms", untraced, "ms");
    out.put("trace.overhead_ms", pass - untraced, "ms");
    out.put("trace.overhead_share", (pass - untraced) / untraced, "ratio");
    out.put("replica.rounds", r, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_add_up() {
        let dir = inputs::WorkDir::create("test-layers").expect("scratch dir");
        let input = inputs::make_input("WA", 5, "WA", &dir).expect("input");
        let mut tracer = Tracer::new();
        let out = engine_trace(&[&input], 5, 2, Duration::ZERO, &mut tracer);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let get = |n: &str| out.get(n).unwrap_or_else(|| panic!("missing {n}"));
        let run_task = get("bigraph.local.localize_share")
            + get("mbe.mbet.self_share")
            + get("mbe.sink.emit_share");
        assert!((run_task - 1.0).abs() < 1e-9, "{run_task}");
        let path: f64 =
            out.metrics.iter().filter(|m| m.name.starts_with("path.")).map(|m| m.value).sum();
        assert!((path - 1.0).abs() < 1e-9, "{path}");
        assert_eq!(get("mbe.mbet.emitted"), inputs::expected("WA") as f64);
        assert_eq!(get("replica.rounds"), 1.0);
    }
}
