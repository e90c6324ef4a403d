//! `mbe-cli`: command-line access to the enumeration library.
//!
//! See [`args::USAGE`] or run `mbe-cli help`.

#![forbid(unsafe_code)]

mod args;
mod interrupt;
mod observe;

use args::{ClientAction, Command, GenModel, RunFlags};
use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;
use mbe::service::run_query;
use mbe::{
    Algorithm, Checkpoint, Enumeration, FanoutObserver, JsonlTraceObserver, QueryParams,
    RunControl, StopReason,
};
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Rust maps SIGPIPE to an Err on stdout writes, which println! turns
    // into a panic when the consumer (`head`, a closed pager) goes away.
    // Dying quietly is the correct CLI behavior; without a libc
    // dependency the portable way is a panic hook that recognizes the
    // broken-pipe payload and exits success. Every other panic only
    // *prints* here and then keeps unwinding: the pool driver catches a
    // task panic at every thread count and converts it to a typed error
    // with partial results, which an exit() in the hook would silently
    // defeat (hooks run before unwinding reaches any catch_unwind).
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Command::Help { error: None } => {
            print!("{}", args::USAGE);
            ExitCode::SUCCESS
        }
        Command::Help { error: Some(e) } => {
            eprintln!("error: {e}\n");
            eprint!("{}", args::USAGE);
            ExitCode::FAILURE
        }
        Command::Presets => {
            println!(
                "{:<6}{:<16}{:>12}{:>12}{:>14}{:>16}",
                "abbr", "name", "|U|(real)", "|V|(real)", "|E|(real)", "B(published)"
            );
            for p in gen::all_presets() {
                println!(
                    "{:<6}{:<16}{:>12}{:>12}{:>14}{:>16}",
                    p.abbrev,
                    p.name,
                    p.real.num_u,
                    p.real.num_v,
                    p.real.num_edges,
                    p.real.max_bicliques
                );
            }
            ExitCode::SUCCESS
        }
        Command::Stats { file } => match bigraph::io::read_edge_list_path(&file) {
            Ok(g) => {
                let s = bigraph::stats::stats(&g);
                println!("file     : {file}");
                println!("|U|      : {}", s.num_u);
                println!("|V|      : {}", s.num_v);
                println!("|E|      : {}", s.num_edges);
                println!("D(U)     : {}", s.max_deg_u);
                println!("D(V)     : {}", s.max_deg_v);
                println!("D2(U)    : {}", s.max_two_hop_u);
                println!("D2(V)    : {}", s.max_two_hop_v);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Butterflies { file } => match bigraph::io::read_edge_list_path(&file) {
            Ok(g) => {
                let t = std::time::Instant::now();
                let n = bigraph::butterfly::count_butterflies(&g);
                println!(
                    "butterflies: {n} (density {:.4} per edge) in {:?}",
                    bigraph::butterfly::butterfly_density(&g),
                    t.elapsed()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Core { file, alpha, beta, output } => {
            match bigraph::io::read_edge_list_path(&file) {
                Ok(g) => {
                    let red = bigraph::core::alpha_beta_core(&g, alpha, beta);
                    println!(
                        "({alpha},{beta})-core: |U| {} -> {}, |V| {} -> {}, |E| {} -> {}",
                        g.num_u(),
                        red.graph.num_u(),
                        g.num_v(),
                        red.graph.num_v(),
                        g.num_edges(),
                        red.graph.num_edges()
                    );
                    if let Some(out) = output {
                        if let Err(e) = bigraph::io::write_edge_list_path(&red.graph, &out) {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("wrote reduced graph to {out} (ids re-labeled densely)");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Enumerate { file, flags } => match bigraph::io::read_edge_list_path(&file) {
            Ok(g) => run_enumerate(&g, &flags),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::OctEnumerate { file, flags } => {
            match bigraph::general::read_general_edge_list_path(&file) {
                Ok(g) => run_oct_enumerate(&g, &flags),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Serve {
            addr,
            workers,
            queue,
            cache_mb,
            default_timeout,
            trace_dir,
            metrics_addr,
            preload,
            coordinator,
            no_fallback,
        } => run_serve(
            &addr,
            workers,
            queue,
            cache_mb,
            default_timeout,
            trace_dir,
            metrics_addr,
            &preload,
            &coordinator,
            no_fallback,
        ),
        Command::Client { addr, action } => run_client(&addr, action),
        Command::Generate {
            model: GenModel::OctPlanted { left, right, edges, oct },
            seed,
            output,
            ..
        } => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cfg = gen::NearBipartiteConfig::new(left, right, edges, oct);
            let (g, plan) = gen::near_bipartite(&mut rng, &cfg);
            match bigraph::general::write_general_edge_list_path(&g, &output) {
                Ok(()) => {
                    println!(
                        "wrote {} (|V|={} |E|={} planted |OCT|={})",
                        output,
                        g.num_vertices(),
                        g.num_edges(),
                        plan.oct.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Generate { model, seed, scale, output } => {
            let g = build_model(&model, seed, scale);
            match bigraph::io::write_edge_list_path(&g, &output) {
                Ok(()) => {
                    println!(
                        "wrote {} (|U|={} |V|={} |E|={})",
                        output,
                        g.num_u(),
                        g.num_v(),
                        g.num_edges()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    addr: &str,
    workers: usize,
    queue: usize,
    cache_mb: usize,
    default_timeout: Option<f64>,
    trace_dir: Option<String>,
    metrics_addr: Option<String>,
    preload: &[(String, String)],
    coordinator: &[String],
    no_fallback: bool,
) -> ExitCode {
    let coordinator_cfg = (!coordinator.is_empty()).then(|| {
        let mut c = serve::CoordinatorConfig::new(coordinator.to_vec());
        c.local_fallback = !no_fallback;
        c
    });
    let metrics_sock = match metrics_addr {
        Some(a) => match a.parse::<std::net::SocketAddr>() {
            Ok(sock) => Some(sock),
            Err(e) => {
                eprintln!("error: bad --metrics-addr {a}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let cfg = serve::ServerConfig {
        workers,
        queue_capacity: queue,
        cache_bytes: cache_mb << 20,
        default_timeout: default_timeout.map(std::time::Duration::from_secs_f64),
        trace_dir: trace_dir.map(std::path::PathBuf::from),
        metrics_addr: metrics_sock,
        coordinator: coordinator_cfg,
        ..serve::ServerConfig::default()
    };
    let server = match serve::Server::bind(addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, file) in preload {
        match bigraph::io::read_edge_list_path(file) {
            Ok(g) => {
                let (nu, nv, ne) = (g.num_u(), g.num_v(), g.num_edges());
                match server.preload(name, g) {
                    Ok(()) => {
                        println!("loaded {name} from {file} (|U|={nu} |V|={nv} |E|={ne})");
                    }
                    Err(e) => {
                        eprintln!("error: cannot register {name}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: cannot load {name} from {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "mbe-serve listening on {} ({workers} workers, queue {queue}, cache {cache_mb} MiB)",
        server.local_addr()
    );
    if let Some(maddr) = server.metrics_addr() {
        println!("metrics exposition on http://{maddr}/metrics");
    }
    if !coordinator.is_empty() {
        println!(
            "coordinator mode: fanning shardable queries out to {} worker(s): {}{}",
            coordinator.len(),
            coordinator.join(", "),
            if no_fallback { " (no local fallback)" } else { "" }
        );
    }
    println!("type `q` + Enter (or send SHUTDOWN) to stop");

    // Bridge the interactive quit watcher onto the server: a RunControl
    // registered with the shared cancel source stands in for a signal
    // handler, and a monitor thread translates its trip into a graceful
    // shutdown. The monitor also exits when a client-issued SHUTDOWN
    // beats it to the flag.
    let quit = RunControl::new();
    interrupt::register(&quit);
    let monitor = server.handle();
    std::thread::Builder::new()
        .name("mbe-serve-quit".into())
        .spawn(move || {
            while !monitor.is_shutting_down() {
                if quit.is_cancelled() {
                    monitor.shutdown();
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        })
        .ok();

    match server.run() {
        Ok(summary) => {
            println!(
                "server stopped: {} queries ({} busy-rejected), {} graphs, \
                 cache {} hits / {} misses",
                summary.queries,
                summary.busy_rejected,
                summary.graphs,
                summary.cache.hits,
                summary.cache.misses
            );
            if summary.queue_wait.executed > 0 {
                println!(
                    "queue wait: {} jobs, max {:?}, mean {:?}",
                    summary.queue_wait.executed,
                    std::time::Duration::from_micros(summary.queue_wait.max_us),
                    std::time::Duration::from_micros(
                        summary.queue_wait.total_us / summary.queue_wait.executed
                    )
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_client(addr: &str, action: ClientAction) -> ExitCode {
    let mut client = match serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match action {
        ClientAction::Load { name, file } => client.load(&name, &file).map(|info| {
            println!(
                "loaded {}: |U|={} |V|={} |E|={} fingerprint={:016x}",
                info.name, info.num_u, info.num_v, info.num_edges, info.fingerprint
            );
        }),
        ClientAction::LoadGeneral { name, file } => client.load_general(&name, &file).map(|info| {
            println!(
                "loaded general {}: |V|={} |E|={} fingerprint={:016x}",
                info.name, info.num_u, info.num_edges, info.fingerprint
            );
        }),
        ClientAction::List => client.list().map(|graphs| {
            if graphs.is_empty() {
                println!("no graphs registered");
            }
            for info in graphs {
                println!(
                    "{:<16} |U|={:<8} |V|={:<8} |E|={:<10} fingerprint={:016x}",
                    info.name, info.num_u, info.num_v, info.num_edges, info.fingerprint
                );
            }
        }),
        ClientAction::Stats { watch: None } => client.stats().map(|s| print_stats(&s)),
        ClientAction::Stats { watch: Some(secs) } => run_client_stats_watch(&mut client, secs),
        ClientAction::Metrics => client.metrics().map(|m| print_metrics(&m)),
        ClientAction::Shutdown => client.shutdown().map(|()| {
            println!("server is shutting down");
        }),
        ClientAction::Query { graph, flags } => {
            // Only fetch what will be printed; the reply's `total` still
            // reports how many the server holds.
            let max_return = u32::try_from(flags.max_print).unwrap_or(u32::MAX);
            let params = flags.params;
            return run_client_query(
                client,
                serve::QueryRequest { graph, params, max_return, trace: None },
            );
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_client_query(mut client: serve::Client, request: serve::QueryRequest) -> ExitCode {
    let reply = match client.query(request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_stop_note(reply.stop);
    let source = if reply.cached { "cache" } else { "server run" };
    println!(
        "{} maximal bicliques from {source} in {:?}",
        reply.emitted,
        std::time::Duration::from_micros(reply.elapsed_us)
    );
    if let Some(d) = reply.dist {
        println!(
            "distributed across {} workers in {} shards ({} retries, {} re-steals, \
             {} speculated)",
            d.workers, d.shards, d.retries, d.resteals, d.speculated
        );
        if d.degraded {
            println!("degraded: local fallback enumerated the remainder after worker loss");
        }
    }
    print_bicliques(&reply.bicliques, reply.total as usize, "L", "R");
    if let Some(bytes) = &reply.checkpoint {
        eprintln!(
            "note: the stopped run returned a {}-byte checkpoint — \
             save it with the library API to resume elsewhere",
            bytes.len()
        );
    }
    ExitCode::SUCCESS
}

/// Renders the admission queue-wait counters in human units, with the
/// mean normalized by executed jobs. Zero executed jobs reads as idle
/// rather than dividing by a guess.
fn format_queue_wait(total_us: u64, max_us: u64, executed: u64) -> String {
    if executed == 0 {
        return "no jobs executed yet".to_string();
    }
    format!(
        "max {:?}, mean {:?} over {executed} jobs",
        std::time::Duration::from_micros(max_us),
        std::time::Duration::from_micros(total_us / executed)
    )
}

fn print_stats(s: &serve::ServerStats) {
    println!("graphs        : {}", s.graphs);
    println!("workers       : {}", s.workers);
    println!("inflight      : {}", s.inflight);
    println!("queued        : {}/{}", s.queued, s.queue_capacity);
    println!("queries       : {}", s.queries);
    println!("busy rejected : {}", s.busy_rejected);
    println!("tasks started : {}", s.tasks_started);
    println!("jobs executed : {}", s.jobs_executed);
    // Busy-vs-dead telemetry: a live-but-backlogged server shows
    // rising queue waits; a dead one answers nothing at all.
    println!(
        "queue wait    : {}",
        format_queue_wait(s.queue_wait_total_us, s.queue_wait_max_us, s.jobs_executed)
    );
    println!("cache hits    : {}", s.cache.hits);
    println!("cache misses  : {}", s.cache.misses);
    println!("cache inserts : {}", s.cache.insertions);
    println!("cache evicted : {}", s.cache.evictions);
    println!("cache bytes   : {}", s.cache.bytes_used);
    println!("shutting down : {}", s.shutting_down);
}

/// Polls `STATS` every `secs` seconds until Ctrl-C (or `q` + Enter),
/// repainting in place so the terminal reads like a dashboard.
fn run_client_stats_watch(client: &mut serve::Client, secs: f64) -> Result<(), serve::ServeError> {
    let quit = RunControl::new();
    interrupt::register(&quit);
    let interval = std::time::Duration::from_secs_f64(secs);
    while !quit.is_cancelled() {
        let stats = client.stats()?;
        // Clear the screen and home the cursor so each refresh paints
        // over the last one.
        print!("\x1b[2J\x1b[H");
        print_stats(&stats);
        println!("(refreshing every {secs}s — Ctrl-C or `q` + Enter stops)");
        // Sleep in short slices so the quit flag stays prompt.
        let mut left = interval;
        while left > std::time::Duration::ZERO && !quit.is_cancelled() {
            let slice = left.min(std::time::Duration::from_millis(100));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
    Ok(())
}

fn print_metrics(m: &serve::MetricsSnapshot) {
    println!("uptime        : {:?}", std::time::Duration::from_micros(m.uptime_us));
    println!(
        "graphs        : {} ({} loads, {} name conflicts)",
        m.graphs, m.graph_loads, m.graph_conflicts
    );
    println!(
        "queries       : {} total, {} distributed, {} busy-rejected, {} inflight",
        m.queries, m.dist_queries, m.busy_rejected, m.inflight
    );
    println!(
        "queue         : {}/{} queued, {} pool workers",
        m.queued, m.queue_capacity, m.pool_workers
    );
    println!(
        "queue wait    : {}",
        format_queue_wait(
            m.queue_wait.sum(),
            m.queue_wait.max_bucket_lower_bound().unwrap_or(0),
            m.jobs_executed
        )
    );
    println!(
        "cache         : {} hits / {} misses, {} inserts, {} evictions, {} bytes held, {} bytes evicted",
        m.cache_hits, m.cache_misses, m.cache_insertions, m.cache_evictions, m.cache_bytes_used, m.cache_bytes_evicted
    );
    println!("requests      :");
    for (name, op) in serve::telemetry::OP_NAMES.iter().zip(m.ops.iter()) {
        if op.count == 0 {
            continue;
        }
        let p50 = op.latency.quantile_lower_bound(0.5).unwrap_or(0);
        let p99 = op.latency.quantile_lower_bound(0.99).unwrap_or(0);
        println!(
            "  {name:<12} {:>8} calls, {:>6} errors, p50 ≥ {:?}, p99 ≥ {:?}",
            op.count,
            op.errors,
            std::time::Duration::from_micros(p50),
            std::time::Duration::from_micros(p99)
        );
    }
    if m.shard_dispatches > 0 || m.dist_queries > 0 {
        println!(
            "shards        : {} dispatched, {} retries, {} re-steals, {} speculated",
            m.shard_dispatches, m.shard_retries, m.shard_resteals, m.shard_speculated
        );
        println!(
            "fallback      : {} stranded shards claimed locally, {} full local fallbacks",
            m.shard_stranded_claims, m.shard_fallbacks
        );
    }
    if !m.workers.is_empty() {
        println!(
            "fleet health  : {} quarantines, {} re-admissions",
            m.worker_quarantines, m.worker_readmissions
        );
        for (i, w) in m.workers.iter().enumerate() {
            println!(
                "  worker {i}: {} ({} ok / {} failed attempts, streak {}, {} quarantines)",
                if w.healthy { "healthy" } else { "quarantined" },
                w.successes,
                w.failures,
                w.consecutive_failures,
                w.quarantines
            );
        }
    }
    println!("shutting down : {}", m.shutting_down);
}

fn run_enumerate(g: &BipartiteGraph, flags: &RunFlags) -> ExitCode {
    let params = &flags.params;
    let control = local_control(params);
    println!(
        "graph: |U|={} |V|={} |E|={}  algorithm={}",
        g.num_u(),
        g.num_v(),
        g.num_edges(),
        params.algorithm.label()
    );
    let Some(observers) = Observers::open(flags) else {
        return ExitCode::FAILURE;
    };
    let fan = observers.fanout();
    let mut run = Enumeration::new(g).control(control);
    if !fan.is_empty() {
        run = run.observer(&fan);
        if observers.progress.is_some() {
            // The progress line is sample-driven; tighten the cadence so
            // it stays live on slow graphs.
            run = run.sample_every(64);
        }
    }
    match load_resume(flags, |path| Checkpoint::load(path), |c| (c.emitted, c.algorithm, c.order)) {
        Ok(Some(ckpt)) => run = run.resume(ckpt),
        Ok(None) => {}
        Err(()) => return ExitCode::FAILURE,
    }

    let mut ok = true;
    let report = match run_query(run, params) {
        Ok(r) => r,
        Err(mbe::MbeError::WorkerPanic { task, payload, report }) => {
            // The driver contained the panic: the partial report (and any
            // checkpoint) is still valid, so print it before failing.
            eprintln!("error: a worker panicked in {task}: {payload}");
            ok = false;
            *report
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    ok &= save_checkpoint(flags, report.stop, report.checkpoint.as_ref(), |c, path| c.save(path));
    let qualifier = if params.thresholded() {
        format!(" with |L|>={} |R|>={}", params.min_left, params.min_right)
    } else {
        String::new()
    };
    if params.top_k.is_some() {
        println!(
            "top {} bicliques by edges{} ({:?}, {} bound-pruned branches):",
            report.bicliques.len(),
            qualifier,
            report.stats.elapsed,
            report.stats.bound_pruned
        );
        for b in report.bicliques.iter().take(flags.max_print) {
            println!(
                "  |L|={} |R|={} edges={}  L={:?} R={:?}",
                b.left.len(),
                b.right.len(),
                b.edges(),
                b.left,
                b.right
            );
        }
    } else {
        println!(
            "{} maximal bicliques{} in {:?} (tasks={} nodes={} nonmaximal={} batched={} \
             excluded_keyed={} excluded_kept={} word_nodes={})",
            report.count(),
            qualifier,
            report.stats.elapsed,
            report.stats.tasks,
            report.stats.nodes,
            report.stats.nonmaximal,
            report.stats.batched,
            report.stats.excluded_keyed,
            report.stats.excluded_kept,
            report.stats.word_nodes
        );
        if !params.count_only {
            let shown = &report.bicliques[..report.bicliques.len().min(flags.max_print)];
            print_bicliques(shown, report.bicliques.len(), "L", "R");
        }
    }
    observers.finish(flags, &report.metrics, ok)
}

/// The general-graph analogue of [`run_enumerate`]: the OCT driver with
/// the same control/observability surface. `--max-bicliques` is passed
/// to the driver (which counts final, maximal emissions) rather than to
/// the control (which would count each inner run's raw candidates).
fn run_oct_enumerate(g: &bigraph::general::GeneralGraph, flags: &RunFlags) -> ExitCode {
    let params = &flags.params;
    let control = local_control(params);
    println!(
        "general graph: |V|={} |E|={}  algorithm={} (OCT driver)",
        g.num_vertices(),
        g.num_edges(),
        params.algorithm.label()
    );
    let Some(observers) = Observers::open(flags) else {
        return ExitCode::FAILURE;
    };
    let fan = observers.fanout();
    let mut run = oct::OctEnumeration::new(g)
        .algorithm(params.algorithm)
        .order(params.order)
        .threads(params.threads)
        .max_oct(flags.max_oct.unwrap_or(oct::DEFAULT_MAX_OCT))
        .control(control);
    if let Some(n) = params.max_bicliques {
        run = run.max_bicliques(n);
    }
    if !fan.is_empty() {
        run = run.observer(&fan);
    }
    match load_resume(
        flags,
        |path| oct::OctCheckpoint::load(path),
        |c| (c.emitted, c.algorithm, c.order),
    ) {
        Ok(Some(ckpt)) => run = run.resume(ckpt),
        Ok(None) => {}
        Err(()) => return ExitCode::FAILURE,
    }

    let report = match if params.count_only { run.count() } else { run.collect() } {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ok =
        save_checkpoint(flags, report.stop, report.checkpoint.as_ref(), |c, path| c.save(path));
    println!(
        "decomposition: |OCT|={} |X|={} |Y|={} ({} valid assignments, {} units, {} inner runs)",
        report.stats.oct_size,
        report.stats.left_size,
        report.stats.right_size,
        report.stats.assignments,
        report.stats.units_run,
        report.stats.inner_runs
    );
    println!(
        "{} maximal induced bicliques in {:?} \
         (candidates={} nonmaximal={})",
        report.stats.emitted,
        report.stats.elapsed,
        report.stats.candidates,
        report.stats.nonmaximal
    );
    if !params.count_only {
        let shown = &report.bicliques[..report.bicliques.len().min(flags.max_print)];
        print_bicliques(shown, report.bicliques.len(), "A", "B");
    }
    observers.finish(flags, &report.metrics, ok)
}

/// The run control of a local run: `--timeout` as a deadline from now,
/// cancelled by `q` + Enter.
fn local_control(params: &QueryParams) -> RunControl {
    let mut control = RunControl::new();
    if let Some(limit) = params.timeout {
        control = control.timeout(limit);
    }
    interrupt::register(&control);
    control
}

/// The observers of a local run: the `--trace` file and the `--progress`
/// line. Built before the run so their borrows outlive it.
struct Observers {
    trace: Option<JsonlTraceObserver>,
    progress: Option<observe::StderrProgress>,
}

impl Observers {
    /// Opens what `flags` ask for; `None` (with the error printed) when
    /// the trace file cannot be created.
    fn open(flags: &RunFlags) -> Option<Observers> {
        let trace = match &flags.trace {
            Some(path) => match JsonlTraceObserver::create(path) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("error: cannot create trace file {path}: {e}");
                    return None;
                }
            },
            None => None,
        };
        let progress = flags.progress.map(|secs| {
            let every = std::time::Duration::from_secs_f64(secs);
            observe::StderrProgress::new(every, flags.params.max_bicliques)
        });
        Some(Observers { trace, progress })
    }

    /// The fan-out that feeds both to the run's one observer slot.
    fn fanout(&self) -> FanoutObserver<'_> {
        let mut fan = FanoutObserver::new();
        if let Some(t) = &self.trace {
            fan.push(Box::new(t));
        }
        if let Some(p) = &self.progress {
            fan.push(Box::new(p));
        }
        fan
    }

    /// The end of a local run: the `--metrics` table, then the trace
    /// note, or its write error. Fails unless `ok` and the trace wrote.
    fn finish(
        &self,
        flags: &RunFlags,
        metrics: &mbe::metrics::RunMetrics,
        mut ok: bool,
    ) -> ExitCode {
        if flags.metrics {
            observe::print_worker_metrics(metrics);
        }
        if let (Some(path), Some(t)) = (&flags.trace, &self.trace) {
            match t.take_error() {
                Some(e) => {
                    eprintln!("error: trace write to {path} failed: {e}");
                    ok = false;
                }
                None => eprintln!("note: trace written to {path}"),
            }
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Loads the `--resume` checkpoint with `load` and notes what it pins
/// (`pins` gives its emitted count, algorithm and order). `Err` (with
/// the error printed) when it cannot be read.
fn load_resume<C, E: std::fmt::Display>(
    flags: &RunFlags,
    load: impl FnOnce(&String) -> Result<C, E>,
    pins: impl FnOnce(&C) -> (u64, Algorithm, VertexOrder),
) -> Result<Option<C>, ()> {
    let Some(path) = &flags.resume else {
        return Ok(None);
    };
    let ckpt = load(path).map_err(|e| eprintln!("error: cannot resume from {path}: {e}"))?;
    let (emitted, algorithm, order) = pins(&ckpt);
    eprintln!("note: resuming from {path} ({emitted} bicliques emitted before the stop)");
    // The checkpoint pins algorithm/order; the run keeps them whatever
    // the flags requested.
    if algorithm != flags.params.algorithm || order != flags.params.order {
        eprintln!(
            "note: the checkpoint pins algorithm={} — \
             --algorithm/--order are ignored on resume",
            algorithm.label()
        );
    }
    Ok(Some(ckpt))
}

/// Notes an early stop, then writes the run's checkpoint to
/// `--checkpoint PATH` with `save`. `false` when the write failed.
fn save_checkpoint<C, E: std::fmt::Display>(
    flags: &RunFlags,
    stop: StopReason,
    checkpoint: Option<&C>,
    save: impl FnOnce(&C, &String) -> Result<(), E>,
) -> bool {
    print_stop_note(stop);
    let Some(path) = &flags.checkpoint else {
        return true;
    };
    match checkpoint.map(|c| save(c, path)) {
        Some(Ok(())) => {
            eprintln!("note: checkpoint written to {path} — continue with `--resume {path}`")
        }
        Some(Err(e)) => {
            eprintln!("error: failed to write checkpoint to {path}: {e}");
            return false;
        }
        None => eprintln!("note: run completed — no checkpoint written to {path}"),
    }
    true
}

/// Prints `shown` with the given side labels, then how many of `total`
/// were left out.
fn print_bicliques(shown: &[mbe::Biclique], total: usize, left: &str, right: &str) {
    for b in shown {
        println!("  {left}={:?} {right}={:?}", b.left, b.right);
    }
    if total > shown.len() {
        println!("  … {} more (raise --max-print)", total - shown.len());
    }
}

/// One line of context when a run stopped early, on stderr so it never
/// contaminates piped output.
fn print_stop_note(stop: StopReason) {
    if !stop.is_complete() {
        eprintln!("note: run stopped early ({}) — results are partial", stop.label());
    }
}

fn build_model(model: &GenModel, seed: u64, scale: f64) -> BipartiteGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match model {
        GenModel::Preset(abbrev) => match gen::presets::by_abbrev(abbrev) {
            Some(p) => p.build_scaled(seed, scale),
            None => {
                eprintln!("unknown preset `{abbrev}` — see `mbe-cli presets`");
                std::process::exit(1);
            }
        },
        GenModel::ChungLu { nu, nv, edges } => {
            let cfg = gen::chung_lu::ChungLuConfig::new(*nu, *nv, *edges);
            gen::chung_lu::generate(&mut rng, &cfg)
        }
        GenModel::Gnm { nu, nv, edges } => gen::er::gnm(&mut rng, *nu, *nv, *edges),
        // Dispatched to the general-graph writer in `main` before
        // reaching the bipartite builder.
        GenModel::OctPlanted { .. } => unreachable!("oct-planted is handled in main"),
    }
}

#[cfg(test)]
mod tests {
    use super::format_queue_wait;

    #[test]
    fn queue_wait_is_normalized_by_executed_jobs() {
        // 900µs over 3 jobs → 300µs mean; max passes through.
        assert_eq!(format_queue_wait(900, 1_200, 3), "max 1.2ms, mean 300µs over 3 jobs");
    }

    #[test]
    fn queue_wait_with_no_jobs_does_not_divide() {
        assert_eq!(format_queue_wait(0, 0, 0), "no jobs executed yet");
        // Stale totals with zero executed still must not panic.
        assert_eq!(format_queue_wait(500, 500, 0), "no jobs executed yet");
    }

    #[test]
    fn queue_wait_uses_human_units_across_scales() {
        assert_eq!(format_queue_wait(2_000_000, 2_000_000, 1), "max 2s, mean 2s over 1 jobs");
        assert_eq!(format_queue_wait(10, 10, 1), "max 10µs, mean 10µs over 1 jobs");
    }
}
