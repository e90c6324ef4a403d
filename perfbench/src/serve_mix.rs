//! `serve-mix`: a loopback server with two pool workers and two client
//! connections in a closed loop.
//!
//! The run is a series of rounds. Each round sets up a fresh server with
//! a catalogue of the eight shallow presets loaded, and each connection
//! works through a fixed, seeded schedule of [`STEPS`] requests against
//! it: `QUERY`s over the catalogue, count-only and collect (with a small
//! `max_return`), and every [`LOAD_EVERY`]th step a freshly relabeled
//! copy of a catalogue graph, `LOAD`ed and queried both ways. The cold
//! cache and the fresh graphs give the misses, and they share the
//! registry and the cache with the readers. A round is a fixed amount of
//! work, so what a server holds (graphs and cached results) does not
//! depend on how fast the host is; rounds repeat until the window has
//! passed. Every reply is checked against the known count, and once a
//! round is over every returned biclique is checked to be maximal.
//!
//! The mix is an assumption, not recorded traffic: nothing in the
//! repository records how served queries are spread. [`ZIPF`],
//! [`LOAD_EVERY`], the even count/collect split and [`MAX_RETURN`] are
//! picked so that reads mostly hit and misses come from new graphs.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use bigraph::BipartiteGraph;
use mbe::verify::is_maximal_biclique;
use mbe::{Biclique, Histogram, QueryParams};
use serve::telemetry::OP_QUERY;
use serve::{Client, MetricsSnapshot, QueryRequest, ServerConfig};

use crate::inputs::{self, Input, Rng, WorkDir, SHALLOW};
use crate::layers;
use crate::measure::{self, iqm, median, Outcome, SetupTimes, Window};
use crate::servers::{self, Running};
use crate::span::Tracer;
use crate::RunConfig;

const CONNECTIONS: usize = 2;
const POOL_WORKERS: usize = 2;
/// Requests one connection sends in one round (a `LOAD` and its two
/// queries count as one).
const STEPS: u64 = 256;
/// Bicliques a collect query asks back (assumed).
const MAX_RETURN: u32 = 16;
/// Every this many steps a connection loads a fresh graph and queries
/// it both ways (assumed): 16 loads per connection and round.
const LOAD_EVERY: u64 = 16;
/// Zipf exponent of the catalogue popularity (assumed).
const ZIPF: f64 = 1.1;

struct Env {
    server: Running,
    catalogue: Vec<Input>,
}

fn setup(seed: u64, dir: &WorkDir) -> Result<Env, String> {
    let catalogue: Vec<Input> = SHALLOW
        .iter()
        .map(|&a| inputs::make_input(a, seed, &format!("cat-{a}"), dir))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("catalogue: {e}"))?;
    let server = Running::start(ServerConfig { workers: POOL_WORKERS, ..ServerConfig::default() })?;
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for input in &catalogue {
        let info = client
            .load(input.abbrev, &inputs::abs_path(&input.path)?)
            .map_err(|e| format!("LOAD {}: {e}", input.abbrev))?;
        if info.num_edges != input.graph.num_edges() as u64 {
            return Err(format!("LOAD {}: server read {} edges", input.abbrev, info.num_edges));
        }
    }
    Ok(Env { server, catalogue })
}

/// What the connections measured.
#[derive(Default)]
struct ConnLog {
    miss_ms: Vec<f64>,
    /// The misses of collect queries (also in `miss_ms`).
    collect_miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    load_ms: Vec<f64>,
    /// Miss round trip minus the run time the server reported.
    reply_wait_ms: Vec<f64>,
    queries: u64,
    /// `(name, trace id, start, end)` of each request.
    spans: Vec<(&'static str, u64, Instant, Instant)>,
    /// The graphs loaded this round, by name.
    fresh: Vec<(String, BipartiteGraph)>,
    /// Collect replies whose bicliques are still to be checked: each is
    /// one operation, counted once the check has run.
    returned: Vec<(String, Vec<Biclique>)>,
    out: Outcome,
}

impl ConnLog {
    fn merge(&mut self, other: ConnLog) {
        self.miss_ms.extend(other.miss_ms);
        self.collect_miss_ms.extend(other.collect_miss_ms);
        self.hit_ms.extend(other.hit_ms);
        self.load_ms.extend(other.load_ms);
        self.reply_wait_ms.extend(other.reply_wait_ms);
        self.queries += other.queries;
        self.spans.extend(other.spans);
        self.fresh.extend(other.fresh);
        self.returned.extend(other.returned);
        self.out.absorb(other.out);
    }

    /// Checks every returned biclique (each distinct one once) against
    /// the graph it came from, then drops the round's graphs and replies.
    fn verify(&mut self, catalogue: &[Input]) {
        {
            let graphs: HashMap<&str, &BipartiteGraph> = catalogue
                .iter()
                .map(|i| (i.abbrev, &i.graph))
                .chain(self.fresh.iter().map(|(name, g)| (name.as_str(), g)))
                .collect();
            let mut maximal: HashSet<(&str, &Biclique)> = HashSet::new();
            for (name, bicliques) in &self.returned {
                let g = graphs[name.as_str()];
                let bad = bicliques.iter().find(|b| {
                    let key = (name.as_str(), *b);
                    let ok = maximal.contains(&key) || is_maximal_biclique(g, &b.left, &b.right);
                    if ok {
                        maximal.insert(key);
                    }
                    !ok
                });
                self.out.check(match bad {
                    None => Ok(()),
                    Some(b) => Err(format!(
                        "QUERY {name}: ({} x {}) is not a maximal biclique",
                        b.left.len(),
                        b.right.len()
                    )),
                });
            }
        }
        self.fresh.clear();
        self.returned.clear();
    }
}

/// Sends one query and checks its count; the bicliques of a collect
/// reply are kept for [`ConnLog::verify`].
fn query(
    client: &mut Client,
    name: &str,
    expected: u64,
    count_only: bool,
    trace: u64,
    log: &mut ConnLog,
) {
    let request = QueryRequest {
        graph: name.to_string(),
        params: QueryParams { count_only, ..QueryParams::default() },
        max_return: MAX_RETURN,
        trace: None,
    };
    let start = Instant::now();
    let reply = client.query(request);
    let end = Instant::now();
    let rt = (end - start).as_secs_f64() * 1e3;
    log.queries += 1;
    let r = match reply {
        Ok(r) => r,
        Err(e) => {
            log.out.check(Err(format!("QUERY {name}: {e}")));
            return;
        }
    };
    if r.cached {
        log.hit_ms.push(rt);
    } else {
        log.miss_ms.push(rt);
        if !count_only {
            log.collect_miss_ms.push(rt);
        }
        log.reply_wait_ms.push(rt - r.elapsed_us as f64 / 1e3);
    }
    let kind = if r.cached { "serve.query.hit" } else { "serve.query.miss" };
    log.spans.push((kind, trace, start, end));
    let want_returned = if count_only { 0 } else { expected.min(u64::from(MAX_RETURN)) };
    if !r.stop.is_complete() || r.emitted != expected {
        log.out.check(Err(format!(
            "QUERY {name}: {} bicliques ({:?}), want {expected}",
            r.emitted, r.stop
        )));
    } else if r.bicliques.len() as u64 != want_returned || (!count_only && r.total != expected) {
        log.out.check(Err(format!(
            "QUERY {name}: returned {} of {} bicliques, want {want_returned} of {expected}",
            r.bicliques.len(),
            r.total
        )));
    } else if count_only {
        log.out.check(Ok(()));
    } else {
        log.returned.push((name.to_string(), r.bicliques));
    }
}

/// Catalogue index by Zipf popularity over catalogue order.
fn zipf_pick(cdf: &[f64], rng: &mut Rng) -> usize {
    let x = rng.unit();
    cdf.iter().position(|&c| x < c).unwrap_or(cdf.len() - 1)
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF)).collect();
    let total: f64 = w.iter().sum();
    w.iter()
        .scan(0.0, |acc, x| {
            *acc += x / total;
            Some(*acc)
        })
        .collect()
}

/// One connection's schedule in one round.
fn connection(
    conn: usize,
    round: usize,
    env: &Env,
    dir: &WorkDir,
    seed: u64,
) -> Result<ConnLog, String> {
    let mut rng = Rng::derive(seed, &format!("conn{conn}-round{round}"));
    let cdf = zipf_cdf(env.catalogue.len());
    let mut client = Client::connect(env.server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ConnLog::default();
    let n = env.catalogue.len();
    // The two connections load different presets at any one time, and
    // each loads every preset equally often.
    let first = (seed as usize + conn * n / CONNECTIONS) % n;
    for step in 1..=STEPS {
        let trace = ((conn as u64) << 48) | ((round as u64) << 32) | step;
        if step.is_multiple_of(LOAD_EVERY) {
            let base = &env.catalogue[(first + (step / LOAD_EVERY) as usize) % n];
            let name = format!("c{conn}-{round}-{step}");
            let fresh = inputs::relabel(&base.graph, &mut rng);
            let path = dir.path(&format!("{name}.txt"));
            bigraph::io::write_edge_list_path(&fresh, &path).map_err(|e| format!("write: {e}"))?;
            let start = Instant::now();
            let loaded = client.load(&name, &inputs::abs_path(&path)?);
            let end = Instant::now();
            log.load_ms.push((end - start).as_secs_f64() * 1e3);
            log.spans.push(("serve.load", trace, start, end));
            log.out.check(match loaded {
                Ok(info) if info.num_edges == fresh.num_edges() as u64 => Ok(()),
                Ok(info) => Err(format!("LOAD {name}: {} edges", info.num_edges)),
                Err(e) => Err(format!("LOAD {name}: {e}")),
            });
            query(&mut client, &name, base.expected, true, trace, &mut log);
            query(&mut client, &name, base.expected, false, trace, &mut log);
            log.fresh.push((name, fresh));
        } else {
            let input = &env.catalogue[zipf_pick(&cdf, &mut rng)];
            let count_only = rng.below(2) == 0;
            query(&mut client, input.abbrev, input.expected, count_only, trace, &mut log);
        }
    }
    Ok(log)
}

/// Runs every connection's schedule for `round`; returns their merged
/// log and the round's wall time in seconds.
fn round(env: &Env, dir: &WorkDir, seed: u64, round: usize) -> Result<(ConnLog, f64), String> {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || connection(conn, round, env, dir, seed)))
            .collect();
        threads.into_iter().map(|t| t.join()).collect::<Vec<_>>()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut merged = ConnLog::default();
    for log in logs {
        merged.merge(log.map_err(|_| "a connection thread panicked")??);
    }
    Ok((merged, elapsed))
}

fn metrics(env: &Env) -> Result<MetricsSnapshot, String> {
    Client::connect(env.server.addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("METRICS: {e}"))
}

/// The servers' own counters, summed over the rounds.
#[derive(Default)]
struct ServerTotals {
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    busy: u64,
    loads: u64,
    queue_wait: Histogram,
    /// Graphs registered and result bytes cached at the end of a round
    /// (the largest over the rounds).
    graphs: u64,
    cache_bytes: u64,
    /// In-memory size of those graphs, estimated from their CSR arrays.
    graph_bytes: u64,
}

impl ServerTotals {
    fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot, graph_bytes: u64) {
        let d = |f: fn(&MetricsSnapshot) -> u64| f(after).saturating_sub(f(before));
        self.hits += d(|m| m.cache_hits);
        self.misses += d(|m| m.cache_misses);
        self.insertions += d(|m| m.cache_insertions);
        self.evictions += d(|m| m.cache_evictions);
        self.busy += d(|m| m.busy_rejected);
        self.loads += d(|m| m.graph_loads);
        self.queue_wait.merge(&servers::histogram_delta(&before.queue_wait, &after.queue_wait));
        self.graphs = self.graphs.max(after.graphs);
        self.cache_bytes = self.cache_bytes.max(after.cache_bytes_used);
        self.graph_bytes = self.graph_bytes.max(graph_bytes);
    }
}

/// Bytes of `g`'s two CSR arrays: offsets and adjacency on each side.
fn csr_bytes(g: &BipartiteGraph) -> u64 {
    let offsets = (u64::from(g.num_u()) + u64::from(g.num_v()) + 2) * 8;
    offsets + 2 * g.num_edges() as u64 * 4
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = WorkDir::create("serve-mix").map_err(|e| format!("scratch dir: {e}"))?;
    let mut out = Outcome::default();
    let window = if cfg.trace { cfg.seconds / 2 } else { cfg.seconds };
    let mut setups = SetupTimes::new(window);
    let mut log = ConnLog::default();
    let mut totals = ServerTotals::default();
    let mut mix_s = 0.0;
    let mut rounds = 0;
    let mut first_round_peak = None;
    let mut env: Option<Env> = None;
    let mut w = Window::new(window);
    while w.next() {
        if let Some(previous) = env.take() {
            previous.server.stop()?;
        }
        let current = setups.time(|| setup(cfg.seed, &dir))?;
        let before = metrics(&current)?;
        let (mut part, secs) = round(&current, &dir, cfg.seed, rounds)?;
        let after = metrics(&current)?;
        let held =
            current.catalogue.iter().map(|i| &i.graph).chain(part.fresh.iter().map(|f| &f.1));
        totals.add(&before, &after, held.map(csr_bytes).sum());
        part.verify(&current.catalogue);
        log.merge(part);
        mix_s += secs;
        rounds += 1;
        // The peak through the first round: one server's whole life on a
        // fixed amount of work. Later rounds add nothing the program
        // holds, only what the allocator keeps of servers already gone,
        // which varies with thread timing.
        if first_round_peak.is_none() {
            first_round_peak = measure::peak_rss_mib();
        }
        env = Some(current);
    }
    let env = env.expect("the window runs at least one round");
    while setups.missing() {
        setups.time(|| setup(cfg.seed, &dir))?.server.stop()?;
    }
    out.put("setup_s", setups.median_s(), "s");
    if let Some(peak) = first_round_peak {
        out.put("peak_rss_mib", peak, "MiB");
    }

    if log.collect_miss_ms.is_empty() || log.hit_ms.is_empty() {
        return Err(format!(
            "the mix needs hits and collect misses: {} hits, {} collect misses",
            log.hit_ms.len(),
            log.collect_miss_ms.len()
        ));
    }
    out.put("primary_ms", iqm(&log.miss_ms), "ms");
    // Hit round trips (tens of microseconds) drift by up to 15% from run
    // to run on a shared 2-vCPU machine, so the gate takes collect misses.
    out.put("secondary_ms", iqm(&log.collect_miss_ms), "ms");
    out.put("ops_per_s", log.queries as f64 / mix_s, "1/s");
    out.put_latency("miss_ms", &log.miss_ms, "ms");
    out.put_latency("collect_miss_ms", &log.collect_miss_ms, "ms");
    out.put_latency("hit_ms", &log.hit_ms, "ms");
    out.put_latency("load_ms", &log.load_ms, "ms");
    out.put("queries_per_s", log.queries as f64 / mix_s, "1/s");
    out.put("rounds", rounds as f64, "count");

    if cfg.trace {
        let mut tracer = Tracer::new();
        for &(name, trace, start, end) in &log.spans {
            tracer.record(name, trace, start, end);
        }
        let t = &totals;
        out.put("serve.server.reply_wait_ms_p50", median(&log.reply_wait_ms), "ms");
        out.put(
            "serve.admission.queue_wait_us_p50",
            servers::p50_lower_bound(&Histogram::new(), &t.queue_wait),
            "us",
        );
        out.put("serve.admission.busy_rejected", t.busy as f64, "count");
        out.put("mbe.service.cache_hit_ratio", t.hits as f64 / (t.hits + t.misses) as f64, "ratio");
        out.put("mbe.service.evictions", t.evictions as f64, "count");
        out.put("mbe.service.insertions", t.insertions as f64, "count");
        out.put("serve.registry.loads", t.loads as f64, "count");
        // What one server holds at the end of a round, against the
        // process's peak.
        let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
        out.put("serve.registry.graphs", t.graphs as f64, "count");
        out.put("serve.registry.graph_mib", mib(t.graph_bytes), "MiB");
        out.put("mbe.service.cache_mib", mib(t.cache_bytes), "MiB");
        if let Some(peak) = first_round_peak {
            out.put("serve.held_share", mib(t.graph_bytes + t.cache_bytes) / peak, "ratio");
        }

        // Server-side time of cache hits alone: a short hits-only phase,
        // after one query per catalogue graph makes sure each is cached.
        let mut hit_log = ConnLog::default();
        let mut client = Client::connect(env.server.addr).map_err(|e| format!("connect: {e}"))?;
        for input in &env.catalogue {
            query(&mut client, input.abbrev, input.expected, true, u64::MAX, &mut hit_log);
        }
        hit_log.miss_ms.clear();
        let hits_before = metrics(&env)?;
        for i in 0..200u64 {
            let input = &env.catalogue[i as usize % env.catalogue.len()];
            query(&mut client, input.abbrev, input.expected, true, u64::MAX - i, &mut hit_log);
        }
        let hits_after = metrics(&env)?;
        if !hit_log.miss_ms.is_empty() {
            return Err("the hits-only phase missed the cache".into());
        }
        let lat = |s: &MetricsSnapshot| servers::op_latency(s, OP_QUERY);
        out.put(
            "serve.server.hit_server_us_p50",
            servers::p50_lower_bound(&lat(&hits_before), &lat(&hits_after)),
            "us",
        );
        out.put(
            "serve.server.hit_server_us_mean",
            servers::mean_delta(&lat(&hits_before), &lat(&hits_after)),
            "us",
        );
        out.absorb(hit_log.out);

        let refs: Vec<&Input> = env.catalogue.iter().collect();
        out.absorb(layers::engine_trace(
            &refs,
            cfg.seed,
            cfg.threads,
            cfg.seconds / 2,
            &mut tracer,
        ));
        cfg.write_trace(&tracer)?;
    }
    out.absorb(log.out);
    env.server.stop()?;
    Ok(out)
}
