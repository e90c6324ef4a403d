//! `coord-shard`: a coordinator over two loopback workers and one client.
//!
//! Every server runs with `cache_bytes: 0`, so each query really runs.
//! The client alternates a count query on BX sent to the coordinator,
//! which cuts the root frontier into shards and fans them out (each
//! worker has one pool worker and runs its shards serially), with the
//! same query sent straight to one worker at `threads = nproc`: the two
//! ways of putting two cores on one query.

use std::time::Instant;

use mbe::checkpoint::initial_checkpoint;
use mbe::{MbeOptions, QueryParams};
use serve::telemetry::OP_QUERY_SHARD;
use serve::{
    Client, CoordinatorConfig, DistSummary, MetricsSnapshot, QueryReply, QueryRequest, ServerConfig,
};

use crate::inputs::{self, Input, WorkDir};
use crate::layers;
use crate::measure::{
    self, at_reference_speed, iqm, median, ms, Outcome, Reference, SetupTimes, Window,
};
use crate::servers::{self, Running};
use crate::span::Tracer;
use crate::RunConfig;

const PRESET: &str = "BX";

struct Env {
    workers: Vec<Running>,
    coordinator: Running,
    input: Input,
    shards: usize,
}

impl Env {
    fn stop(self) -> Result<(), String> {
        self.coordinator.stop()?;
        for w in self.workers {
            w.stop()?;
        }
        Ok(())
    }
}

fn uncached(workers: usize) -> ServerConfig {
    ServerConfig { workers, cache_bytes: 0, ..ServerConfig::default() }
}

fn setup(seed: u64, dir: &WorkDir) -> Result<Env, String> {
    let input =
        inputs::make_input(PRESET, seed, PRESET, dir).map_err(|e| format!("{PRESET}: {e}"))?;
    let path = inputs::abs_path(&input.path)?;
    let workers = vec![Running::start(uncached(1))?, Running::start(uncached(1))?];
    let coord_cfg = CoordinatorConfig::new(workers.iter().map(|w| w.addr.to_string()).collect());
    let shards = (coord_cfg.shards_per_worker as usize) * workers.len();
    let coordinator = Running::start(ServerConfig { coordinator: Some(coord_cfg), ..uncached(1) })?;
    // The coordinator forwards its LOADs to the workers in the
    // background; loading each directly as well makes them ready now.
    for addr in std::iter::once(coordinator.addr).chain(workers.iter().map(|w| w.addr)) {
        let info = Client::connect(addr)
            .and_then(|mut c| c.load(PRESET, &path))
            .map_err(|e| format!("LOAD at {addr}: {e}"))?;
        if info.num_edges != input.graph.num_edges() as u64 {
            return Err(format!("LOAD at {addr}: server read {} edges", info.num_edges));
        }
    }
    Ok(Env { workers, coordinator, input, shards })
}

fn request(threads: usize) -> QueryRequest {
    QueryRequest {
        graph: PRESET.to_string(),
        params: QueryParams { count_only: true, threads, ..QueryParams::default() },
        max_return: 0,
        trace: None,
    }
}

fn check(
    reply: Result<QueryReply, serve::ServeError>,
    want: u64,
    dist: bool,
) -> Result<QueryReply, String> {
    let where_ = if dist { "coordinator" } else { "worker" };
    let r = reply.map_err(|e| format!("{where_}: {e}"))?;
    if !r.stop.is_complete() || r.emitted != want {
        return Err(format!("{where_}: {} bicliques ({:?}), want {want}", r.emitted, r.stop));
    }
    if r.cached {
        return Err(format!("{where_}: answered from a cache that should be off"));
    }
    match (dist, r.dist) {
        (true, None) => Err("coordinator: reply was not distributed".into()),
        (true, Some(d)) if d.degraded => Err("coordinator: reply came back degraded".into()),
        (false, Some(_)) => Err("worker: reply claims distribution".into()),
        _ => Ok(r),
    }
}

fn worker_metrics(env: &Env) -> Result<Vec<MetricsSnapshot>, String> {
    env.workers
        .iter()
        .map(|w| {
            Client::connect(w.addr)
                .and_then(|mut c| c.metrics())
                .map_err(|e| format!("METRICS: {e}"))
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = WorkDir::create("coord-shard").map_err(|e| format!("scratch dir: {e}"))?;
    let mut out = Outcome::default();
    let window = if cfg.trace { cfg.seconds / 2 } else { cfg.seconds };
    let mut setups = SetupTimes::new(window);
    let env = setups.time(|| setup(cfg.seed, &dir))?;

    let want = env.input.expected;
    let mut coord = Client::connect(env.coordinator.addr).map_err(|e| format!("connect: {e}"))?;
    let mut direct = Client::connect(env.workers[0].addr).map_err(|e| format!("connect: {e}"))?;
    let mut tracer = Tracer::new();
    let mut dist_ms = Vec::new();
    let mut direct_ms = Vec::new();
    let mut dist_sum = DistSummary::default();
    let before = worker_metrics(&env)?;
    let mut w = Window::new(window);
    setups.start_window();
    let start = Instant::now();
    let mut trace = 0u64;
    // The peak is read before the first set-up repetition: the run's own
    // servers through set-up and the first queries. Each repetition
    // starts three servers more, and what the allocator keeps of them once
    // they are gone varies with thread timing (14-19 MiB when read at the
    // end of the run).
    let mut peak = None;
    // Both ways of answering keep two cores busy; each round trip is
    // bracketed by readings of the reference job on two threads, as the
    // passes of `dbt-deep` are.
    let mut reference = Reference::new(cfg.threads);
    let mut readings = Vec::new();
    let (mut dist_scaled, mut direct_scaled) = (Vec::new(), Vec::new());
    while w.next() {
        // A set-up repetition (three more servers, torn down again)
        // whenever one is due, between query pairs.
        if setups.due() {
            peak = peak.or_else(measure::peak_rss_mib);
            setups.time(|| setup(cfg.seed, &dir))?.stop()?;
        }
        let r0 = reference.time_ms(cfg.threads);
        let start = Instant::now();
        let reply = check(coord.query(request(1)), want, true);
        let end = Instant::now();
        let r1 = reference.time_ms(cfg.threads);
        tracer.record("serve.coordinator.query", trace, start, end);
        dist_ms.push(ms(end - start));
        dist_scaled.push(at_reference_speed(ms(end - start), (r0 + r1) / 2.0));
        if let Ok(r) = &reply {
            let d = r.dist.unwrap_or_default();
            dist_sum.shards += d.shards;
            dist_sum.retries += d.retries;
            dist_sum.resteals += d.resteals;
            dist_sum.speculated += d.speculated;
        }
        out.check(reply.map(|_| ()));

        let start = Instant::now();
        let reply = check(direct.query(request(cfg.threads)), want, false);
        let end = Instant::now();
        let r2 = reference.time_ms(cfg.threads);
        tracer.record("serve.worker.query", trace, start, end);
        direct_ms.push(ms(end - start));
        direct_scaled.push(at_reference_speed(ms(end - start), (r1 + r2) / 2.0));
        out.check(reply.map(|_| ()));
        readings.extend([r0, r1, r2]);
        trace += 1;
    }
    // Queries per wall second of the window, set-up repetitions and
    // reference readings included, at the reference host speed.
    let reference_p50 = median(&readings);
    let wall_s = at_reference_speed(start.elapsed().as_secs_f64(), reference_p50);
    peak = peak.or_else(measure::peak_rss_mib);
    while setups.missing() {
        setups.time(|| setup(cfg.seed, &dir))?.stop()?;
    }
    let after = worker_metrics(&env)?;
    out.put("setup_s", setups.median_s(), "s");
    if let Some(peak) = peak {
        out.put("peak_rss_mib", peak, "MiB");
    }
    out.put("primary_ms", iqm(&dist_scaled), "ms");
    out.put("secondary_ms", iqm(&direct_scaled), "ms");
    out.put("ops_per_s", (dist_ms.len() + direct_ms.len()) as f64 / wall_s, "1/s");
    out.put_latency("dist_ms", &dist_ms, "ms");
    out.put_latency("direct_ms", &direct_ms, "ms");
    out.put("reference_threads_ms_p50", reference_p50, "ms");

    if cfg.trace {
        let n = dist_ms.len() as f64;
        out.put("serve.coordinator.shards", f64::from(dist_sum.shards) / n, "count");
        out.put("serve.coordinator.retries", f64::from(dist_sum.retries), "count");
        out.put("serve.coordinator.resteals", f64::from(dist_sum.resteals), "count");
        out.put("serve.coordinator.speculated", f64::from(dist_sum.speculated), "count");
        let mut shard_before = mbe::Histogram::new();
        let mut shard_after = mbe::Histogram::new();
        for (b, a) in before.iter().zip(&after) {
            shard_before.merge(&servers::op_latency(b, OP_QUERY_SHARD));
            shard_after.merge(&servers::op_latency(a, OP_QUERY_SHARD));
        }
        out.put(
            "serve.worker.shard_ms_p50",
            servers::p50_lower_bound(&shard_before, &shard_after) / 1e3,
            "ms",
        );
        out.put(
            "serve.worker.shard_ms_mean",
            servers::mean_delta(&shard_before, &shard_after) / 1e3,
            "ms",
        );

        // The coordinator's scatter step, called from outside: the root
        // frontier, cut into as many shards, each serialized.
        let g = &env.input.graph;
        let opts = MbeOptions::default();
        let mut split_ms = Vec::new();
        let mut bytes = 0usize;
        for rep in 0..20u64 {
            let start = Instant::now();
            let pass = tracer.begin("mbe.checkpoint.scatter", rep);
            let ck = tracer.time("mbe.checkpoint.initial", rep, || initial_checkpoint(g, &opts));
            let parts = tracer.time("mbe.checkpoint.split", rep, || ck.split(g, env.shards));
            let parts = parts.map_err(|e| format!("split: {e}"))?;
            bytes = tracer.time("mbe.checkpoint.to_bytes", rep, || {
                parts.iter().map(|p| p.to_bytes().len()).sum()
            });
            tracer.end(pass);
            split_ms.push(ms(start.elapsed()));
        }
        out.put("mbe.checkpoint.split_ms", median(&split_ms), "ms");
        out.put("mbe.checkpoint.shard_bytes", bytes as f64, "bytes");

        out.absorb(layers::engine_trace(
            &[&env.input],
            cfg.seed,
            cfg.threads,
            cfg.seconds / 2,
            &mut tracer,
        ));
        cfg.write_trace(&tracer)?;
    }
    drop((coord, direct));
    env.stop()?;
    Ok(out)
}
