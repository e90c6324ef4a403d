//! Hand-rolled argument parsing (no external dependencies).
//!
//! Grammar:
//!
//! ```text
//! mbe-cli stats <file>
//! mbe-cli enumerate <file> [run flags]
//! mbe-cli oct-enumerate <file> [run flags]
//! mbe-cli generate <preset ABBREV | chung-lu NU NV E | gnm NU NV M>
//!                  [--seed S] [--scale X] --output FILE
//! mbe-cli serve <addr> [--workers N] [--queue N] [--cache-mb MB]
//!                      [--default-timeout SECS] [--trace-dir DIR]
//!                      [--metrics-addr ADDR] [--load NAME=FILE]...
//! mbe-cli client <addr> <load NAME FILE | list | stats [--watch SECS]
//!                        | metrics | shutdown | query GRAPH [run flags]>
//! mbe-cli presets
//!
//! run flags: [--algorithm A] [--order O] [--threads N] [--min-left A]
//!            [--min-right B] [--top-k K] [--count-only] [--max-print M]
//!            [--timeout SECS] [--max-bicliques N] [--max-oct K]
//!            [--checkpoint FILE] [--resume FILE] [--trace FILE]
//!            [--metrics] [--progress SECS]
//! ```
//!
//! One parser reads the run flags of all three commands; each command
//! then refuses the flags that do not apply to it.

use std::time::Duration;

use bigraph::order::VertexOrder;
use mbe::{Algorithm, QueryParams};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `stats <file>`
    Stats { file: String },
    /// `butterflies <file>`
    Butterflies { file: String },
    /// `core <file> <alpha> <beta> [--output FILE]`
    Core { file: String, alpha: usize, beta: usize, output: Option<String> },
    /// `enumerate <file> [run flags]`
    Enumerate { file: String, flags: RunFlags },
    /// `oct-enumerate <file> [run flags]` — maximal induced bicliques of
    /// a *general* graph via odd-cycle-transversal decomposition.
    OctEnumerate { file: String, flags: RunFlags },
    /// `generate ...`
    Generate { model: GenModel, seed: u64, scale: f64, output: String },
    /// `serve <addr> ...`
    Serve {
        addr: String,
        workers: usize,
        queue: usize,
        cache_mb: usize,
        default_timeout: Option<f64>,
        trace_dir: Option<String>,
        /// Prometheus scrape address (`GET /metrics`), when enabled.
        metrics_addr: Option<String>,
        preload: Vec<(String, String)>,
        /// Worker addresses for coordinator mode (empty = plain server).
        coordinator: Vec<String>,
        /// Refuse (typed `no-workers`) instead of falling back to local
        /// enumeration when every worker is lost.
        no_fallback: bool,
    },
    /// `client <addr> <action>`
    Client { addr: String, action: ClientAction },
    /// `presets`
    Presets,
    /// `help` (also on bad input, with the error noted)
    Help { error: Option<String> },
}

/// What `client` should ask the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// `load NAME FILE` — register a server-side edge list.
    Load { name: String, file: String },
    /// `load-general NAME FILE` — register a *general* (non-bipartite)
    /// edge list; queries route through the OCT driver.
    LoadGeneral { name: String, file: String },
    /// `list` — show registered graphs.
    List,
    /// `stats [--watch SECS]` — show server counters, optionally
    /// refreshing in place every SECS seconds until interrupted.
    Stats { watch: Option<f64> },
    /// `metrics` — show the full server telemetry snapshot.
    Metrics,
    /// `shutdown` — graceful server shutdown.
    Shutdown,
    /// `query GRAPH [run flags]` — run (or replay from cache) a query.
    Query { graph: String, flags: RunFlags },
}

/// The run flags shared by `enumerate`, `oct-enumerate` and
/// `client query`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFlags {
    /// What to run: engine, order, threads, bounds, budget, deadline and
    /// `--count-only`. `client query` sends it as is.
    pub params: QueryParams,
    /// `--max-print M`: cap on printed bicliques (default 20).
    pub max_print: usize,
    /// `--max-oct K`; `None` leaves the OCT driver's default.
    pub max_oct: Option<u32>,
    /// `--checkpoint PATH`: where a stopped run writes its checkpoint.
    pub checkpoint: Option<String>,
    /// `--resume PATH`: the checkpoint to continue from.
    pub resume: Option<String>,
    /// `--trace PATH`: the JSONL event trace.
    pub trace: Option<String>,
    /// `--metrics`: print the per-worker metrics table.
    pub metrics: bool,
    /// `--progress SECS`: the live progress line's interval.
    pub progress: Option<f64>,
}

/// What `generate` should produce.
#[derive(Debug, Clone, PartialEq)]
pub enum GenModel {
    Preset(String),
    ChungLu {
        nu: u32,
        nv: u32,
        edges: usize,
    },
    Gnm {
        nu: u32,
        nv: u32,
        edges: usize,
    },
    /// Planted near-bipartite *general* graph (written as a general
    /// edge list, consumable by `oct-enumerate` and `LOAD_GENERAL`).
    OctPlanted {
        left: u32,
        right: u32,
        edges: usize,
        oct: u32,
    },
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Command {
    let Some(cmd) = args.first() else {
        return Command::Help { error: None };
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help { error: None },
        "presets" => Command::Presets,
        "stats" => match args.get(1) {
            Some(f) => Command::Stats { file: f.clone() },
            None => err("stats requires a file argument"),
        },
        "butterflies" => match args.get(1) {
            Some(f) => Command::Butterflies { file: f.clone() },
            None => err("butterflies requires a file argument"),
        },
        "core" => parse_core(&args[1..]),
        "enumerate" | "oct-enumerate" => parse_local_run(cmd, &args[1..]),
        "generate" => parse_generate(&args[1..]),
        "serve" => parse_serve(&args[1..]),
        "client" => parse_client(&args[1..]),
        other => err(&format!("unknown command `{other}`")),
    }
}

fn err(msg: &str) -> Command {
    Command::Help { error: Some(msg.to_string()) }
}

/// `enumerate FILE` or `oct-enumerate FILE`, then the run flags. Each
/// refuses the flags that do not apply to its graph kind.
fn parse_local_run(cmd: &str, args: &[String]) -> Command {
    let Some((file, rest)) = args.split_first() else {
        return err(&format!("{cmd} requires a file argument"));
    };
    let flags = match parse_run_flags(cmd, rest) {
        Ok(flags) => flags,
        Err(msg) => return err(&msg),
    };
    let file = file.clone();
    match cmd {
        "enumerate" if flags.max_oct.is_some() => err("--max-oct applies only to oct-enumerate"),
        "enumerate" => Command::Enumerate { file, flags },
        // Serve's `wrong-kind` rule for general graphs.
        _ if flags.params.bounded() => err("oct-enumerate takes no --min-left/--min-right \
             above 1 or --top-k: those bounds apply only to bipartite graphs"),
        _ => Command::OctEnumerate { file, flags },
    }
}

/// Parses the run flags that follow `cmd`'s positional argument, and
/// refuses `--checkpoint`/`--resume` on a bounded run.
fn parse_run_flags(cmd: &str, args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        params: QueryParams::default(),
        max_print: 20,
        max_oct: None,
        checkpoint: None,
        resume: None,
        trace: None,
        metrics: false,
        progress: None,
    };
    let p = &mut flags.params;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--count-only" => p.count_only = true,
            "--metrics" => flags.metrics = true,
            "--algorithm" => {
                p.algorithm = match it.next().map(String::as_str) {
                    Some("mbet") => Algorithm::Mbet,
                    Some("mbea") => Algorithm::Mbea,
                    Some("imbea") => Algorithm::Imbea,
                    Some("minelmbc") => Algorithm::MineLmbc,
                    other => return Err(format!("bad --algorithm {other:?}")),
                }
            }
            "--order" => {
                p.order = match it.next().map(String::as_str) {
                    Some("asc") => VertexOrder::AscendingDegree,
                    Some("desc") => VertexOrder::DescendingDegree,
                    Some("unilateral") => VertexOrder::Unilateral,
                    Some("natural") => VertexOrder::Natural,
                    Some(s) if s.starts_with("random:") => match s["random:".len()..].parse() {
                        Ok(seed) => VertexOrder::Random(seed),
                        Err(_) => return Err("bad random seed in --order".into()),
                    },
                    other => return Err(format!("bad --order {other:?}")),
                }
            }
            "--threads" => p.threads = next_parsed(&mut it).ok_or("--threads needs a number")?,
            "--min-left" => p.min_left = next_parsed(&mut it).ok_or("--min-left needs a number")?,
            "--min-right" => {
                p.min_right = next_parsed(&mut it).ok_or("--min-right needs a number")?;
            }
            "--top-k" => p.top_k = Some(next_parsed(&mut it).ok_or("--top-k needs a number")?),
            "--max-bicliques" => {
                let n = next_parsed(&mut it).filter(|&n: &u64| n > 0);
                p.max_bicliques = Some(n.ok_or("--max-bicliques needs a positive number")?);
            }
            "--timeout" => {
                let limit = next_secs(&mut it).and_then(|s| Duration::try_from_secs_f64(s).ok());
                p.timeout = Some(limit.ok_or("--timeout needs a positive number of seconds")?);
            }
            "--max-print" => {
                flags.max_print = next_parsed(&mut it).ok_or("--max-print needs a number")?;
            }
            "--max-oct" => {
                let k = next_parsed(&mut it).filter(|&k| k <= oct::MAX_OCT_LIMIT);
                flags.max_oct = Some(k.ok_or("--max-oct needs a number <= 14")?);
            }
            "--checkpoint" => {
                flags.checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?.clone());
            }
            "--resume" => flags.resume = Some(it.next().ok_or("--resume needs a path")?.clone()),
            "--trace" => flags.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--progress" => {
                let secs = next_secs(&mut it);
                flags.progress = Some(secs.ok_or("--progress needs a positive number of seconds")?);
            }
            other => return Err(format!("unknown {cmd} flag `{other}`")),
        }
    }
    if flags.params.bounded() && (flags.checkpoint.is_some() || flags.resume.is_some()) {
        return Err("--checkpoint/--resume do not apply to thresholded (--min-left/--min-right \
             above 1) or --top-k runs, which are not checkpointable"
            .into());
    }
    Ok(flags)
}

/// The next argument, parsed as a `T`.
fn next_parsed<'a, T: std::str::FromStr>(it: &mut impl Iterator<Item = &'a String>) -> Option<T> {
    it.next().and_then(|s| s.parse().ok())
}

/// The next argument as a positive, finite number of seconds.
fn next_secs<'a>(it: &mut impl Iterator<Item = &'a String>) -> Option<f64> {
    next_parsed(it).filter(|secs: &f64| *secs > 0.0 && secs.is_finite())
}

fn parse_core(args: &[String]) -> Command {
    let (Some(file), Some(a), Some(b)) = (args.first(), args.get(1), args.get(2)) else {
        return err("core requires FILE ALPHA BETA");
    };
    let (Ok(alpha), Ok(beta)) = (a.parse(), b.parse()) else {
        return err("core thresholds must be numbers");
    };
    let mut output = None;
    let mut it = args[3..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--output" | "-o" => match it.next() {
                Some(f) => output = Some(f.clone()),
                None => return err("--output needs a path"),
            },
            other => return err(&format!("unknown core flag `{other}`")),
        }
    }
    Command::Core { file: file.clone(), alpha, beta, output }
}

fn parse_generate(args: &[String]) -> Command {
    let mut it = args.iter();
    let model = match it.next().map(String::as_str) {
        Some("preset") => match it.next() {
            Some(abbrev) => GenModel::Preset(abbrev.clone()),
            None => return err("generate preset requires an abbreviation"),
        },
        Some("chung-lu") => match parse_triple(&mut it) {
            Some((nu, nv, e)) => GenModel::ChungLu { nu, nv, edges: e },
            None => return err("generate chung-lu requires NU NV EDGES"),
        },
        Some("gnm") => match parse_triple(&mut it) {
            Some((nu, nv, e)) => GenModel::Gnm { nu, nv, edges: e },
            None => return err("generate gnm requires NU NV EDGES"),
        },
        Some("oct-planted") => {
            let quad = (|| {
                let left = it.next()?.parse().ok()?;
                let right = it.next()?.parse().ok()?;
                let edges = it.next()?.parse().ok()?;
                let oct = it.next()?.parse().ok()?;
                Some((left, right, edges, oct))
            })();
            match quad {
                Some((left, right, edges, oct)) if left > 0 && right > 0 => {
                    GenModel::OctPlanted { left, right, edges, oct }
                }
                _ => {
                    return err(
                        "generate oct-planted requires LEFT RIGHT EDGES OCT (LEFT, RIGHT > 0)",
                    )
                }
            }
        }
        other => return err(&format!("bad generate model {other:?}")),
    };
    let mut seed = 42u64;
    let mut scale = 1.0f64;
    let mut output = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return err("--seed needs a number"),
            },
            "--scale" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => scale = s,
                None => return err("--scale needs a number"),
            },
            "--output" | "-o" => match it.next() {
                Some(f) => output = Some(f.clone()),
                None => return err("--output needs a path"),
            },
            other => return err(&format!("unknown generate flag `{other}`")),
        }
    }
    match output {
        Some(output) => Command::Generate { model, seed, scale, output },
        None => err("generate requires --output FILE"),
    }
}

fn parse_serve(args: &[String]) -> Command {
    let Some(addr) = args.first() else {
        return err("serve requires a listen address (e.g. 127.0.0.1:7771)");
    };
    let mut workers = 2usize;
    let mut queue = 8usize;
    let mut cache_mb = 32usize;
    let mut default_timeout = None;
    let mut trace_dir = None;
    let mut metrics_addr = None;
    let mut preload = Vec::new();
    let mut coordinator = Vec::new();
    let mut no_fallback = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workers" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return err("--workers needs a number >= 1"),
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => queue = n,
                _ => return err("--queue needs a number >= 1"),
            },
            "--cache-mb" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cache_mb = n,
                None => return err("--cache-mb needs a number"),
            },
            "--default-timeout" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 && secs.is_finite() => default_timeout = Some(secs),
                _ => return err("--default-timeout needs a positive number of seconds"),
            },
            "--trace-dir" => match it.next() {
                Some(d) => trace_dir = Some(d.clone()),
                None => return err("--trace-dir needs a path"),
            },
            "--metrics-addr" => match it.next() {
                Some(a) if !a.is_empty() => metrics_addr = Some(a.clone()),
                _ => return err("--metrics-addr needs an address (e.g. 127.0.0.1:9095)"),
            },
            "--load" => match it.next().and_then(|s| s.split_once('=')) {
                Some((name, file)) if !name.is_empty() && !file.is_empty() => {
                    preload.push((name.to_string(), file.to_string()));
                }
                _ => return err("--load needs NAME=FILE"),
            },
            "--coordinator" => match it.next() {
                Some(list) if !list.is_empty() => {
                    let addrs: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(String::from)
                        .collect();
                    if addrs.is_empty() {
                        return err("--coordinator needs ADDR[,ADDR...]");
                    }
                    coordinator.extend(addrs);
                }
                _ => return err("--coordinator needs ADDR[,ADDR...]"),
            },
            "--no-fallback" => no_fallback = true,
            other => return err(&format!("unknown serve flag `{other}`")),
        }
    }
    if no_fallback && coordinator.is_empty() {
        return err("--no-fallback only makes sense with --coordinator");
    }
    Command::Serve {
        addr: addr.clone(),
        workers,
        queue,
        cache_mb,
        default_timeout,
        trace_dir,
        metrics_addr,
        preload,
        coordinator,
        no_fallback,
    }
}

fn parse_client(args: &[String]) -> Command {
    let Some(addr) = args.first() else {
        return err("client requires a server address (e.g. 127.0.0.1:7771)");
    };
    let action = match args.get(1).map(String::as_str) {
        Some("load") => match (args.get(2), args.get(3)) {
            (Some(name), Some(file)) => {
                if let Some(extra) = args.get(4) {
                    return err(&format!("unexpected client load argument `{extra}`"));
                }
                ClientAction::Load { name: name.clone(), file: file.clone() }
            }
            _ => return err("client load requires NAME FILE"),
        },
        Some("load-general") => match (args.get(2), args.get(3)) {
            (Some(name), Some(file)) => {
                if let Some(extra) = args.get(4) {
                    return err(&format!("unexpected client load-general argument `{extra}`"));
                }
                ClientAction::LoadGeneral { name: name.clone(), file: file.clone() }
            }
            _ => return err("client load-general requires NAME FILE"),
        },
        Some("list") => ClientAction::List,
        Some("stats") => match parse_client_stats(&args[2..]) {
            Ok(action) => action,
            Err(msg) => return err(&msg),
        },
        Some("metrics") => ClientAction::Metrics,
        Some("shutdown") => ClientAction::Shutdown,
        Some("query") => {
            let Some(graph) = args.get(2) else {
                return err("client query requires a graph name");
            };
            let flags = match parse_run_flags("client query", &args[3..]) {
                Ok(flags) => flags,
                Err(msg) => return err(&msg),
            };
            // The server runs the query: flags of a local run do not apply.
            if flags.checkpoint.is_some()
                || flags.resume.is_some()
                || flags.trace.is_some()
                || flags.metrics
                || flags.progress.is_some()
                || flags.max_oct.is_some()
            {
                return err("client query takes no --checkpoint, --resume, --trace, --metrics, \
                     --progress or --max-oct: those apply only to a local run");
            }
            ClientAction::Query { graph: graph.clone(), flags }
        }
        other => {
            return err(&format!(
                "client needs an action \
                 (load|load-general|list|stats|metrics|shutdown|query), got {other:?}"
            ))
        }
    };
    Command::Client { addr: addr.clone(), action }
}

fn parse_client_stats(args: &[String]) -> Result<ClientAction, String> {
    let mut watch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--watch" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 && secs.is_finite() => watch = Some(secs),
                _ => return Err("--watch needs a positive number of seconds".to_string()),
            },
            other => return Err(format!("unknown client stats flag `{other}`")),
        }
    }
    Ok(ClientAction::Stats { watch })
}

fn parse_triple<'a>(it: &mut impl Iterator<Item = &'a String>) -> Option<(u32, u32, usize)> {
    let nu = it.next()?.parse().ok()?;
    let nv = it.next()?.parse().ok()?;
    let e = it.next()?.parse().ok()?;
    Some((nu, nv, e))
}

/// The help text.
pub const USAGE: &str = "\
mbe-cli — maximal biclique enumeration toolkit

USAGE:
  mbe-cli stats <file>
      Load a bipartite edge list and print its statistics.

  mbe-cli butterflies <file>
      Count 2x2 bicliques (butterflies) and report the density score.

  mbe-cli core <file> <alpha> <beta> [--output FILE]
      Peel to the (alpha, beta)-core; print the reduction, optionally
      write the reduced graph.

  mbe-cli enumerate <file> [options]
      Enumerate maximal bicliques.
        --algorithm mbet|mbea|imbea|minelmbc   (default mbet)
        --order asc|desc|unilateral|natural|random:SEED
        --threads N        N pool workers (default 1; 0 = all cores)
        --min-left A       only bicliques with |L| >= A (pruned search)
        --min-right B      only bicliques with |R| >= B (pruned search)
        --top-k K          the K largest bicliques by edge count
        --count-only       print only the count and stats
        --max-print M      cap printed bicliques (default 20)
        --timeout SECS     stop after SECS seconds, report partial results
        --max-bicliques N  stop after N bicliques have been emitted
        --checkpoint PATH  if the run stops early, write the unexplored
                           frontier to PATH so it can be resumed later
                           (not with --min-left/--min-right above 1 or
                           --top-k: those runs are not checkpointable)
        --resume PATH      continue a stopped run from a checkpoint
                           written by --checkpoint; the checkpoint pins
                           the original algorithm/order (only --threads,
                           --count-only and --max-bicliques apply)
        --trace PATH       write a JSONL event trace of the run to PATH
                           (schema documented in DESIGN.md §8; validate
                           with `cargo run -p xtask -- trace-check PATH`)
        --metrics          print a per-worker metrics table (tasks,
                           steals, idle wakeups, emitted, latency
                           quantiles) to stderr after the run
        --progress SECS    print a live progress line (emitted, rate,
                           ETA when a budget is set) to stderr every
                           SECS seconds
      These are the run flags; `oct-enumerate` and `client query` parse
      the same ones. `enumerate` refuses --max-oct.
      Interactive runs can be cancelled by typing `q` + Enter (or
      closing stdin); partial results are reported with the stop reason.

  mbe-cli oct-enumerate <file> [options]
      Enumerate maximal *induced* bicliques of a general (non-bipartite)
      graph, read as a general edge list (one `u v` pair per line, no
      side structure). The graph is decomposed into a small odd cycle
      transversal plus a bipartite remainder; each transversal side
      assignment runs the bipartite engine on a compacted instance, and
      results are deduplicated and maximality-filtered globally.
        --algorithm mbet|mbea|imbea|minelmbc   inner engine (default mbet)
        --order asc|desc|unilateral|natural|random:SEED
        --threads N        worker threads for each inner run (0 = all
                           cores)
        --max-oct K        refuse transversals larger than K (default 12,
                           max 14; the sweep is 3^K assignments)
        --count-only       print only the count and stats
        --max-print M      cap printed bicliques (default 20)
        --timeout SECS     stop after SECS seconds, report partial results
        --max-bicliques N  stop after N bicliques have been emitted
        --checkpoint PATH  write a resumable position on an early stop
                           (covers the dedup state: a stopped + resumed
                           pair emits no duplicates)
        --resume PATH      continue from a checkpoint; pins the original
                           algorithm/order
        --trace PATH       JSONL event trace (one bracket per assignment
                           unit)
        --metrics          per-worker metrics folded across assignment
                           units, printed to stderr
        --progress SECS    live progress line on stderr
      Refuses --min-left/--min-right above 1 and --top-k: those bounds
      apply only to bipartite graphs (a server answers `wrong-kind`).
      Interactive runs can be cancelled by typing `q` + Enter; the stop
      lands between assignment units and is checkpointable.

  mbe-cli generate <model> --output FILE [--seed S] [--scale X]
      Write a synthetic bipartite graph as an edge list. Models:
        preset ABBREV      calibrated dataset analogue (see `presets`)
        chung-lu NU NV E   power-law bipartite graph
        gnm NU NV E        uniform random bipartite graph
        oct-planted L R E K  planted near-bipartite *general* graph:
                           an L x R bipartite core with E edges plus K
                           odd-cycle vertices (written as a general edge
                           list for `oct-enumerate`)

  mbe-cli serve <addr> [options]
      Run the multi-client query service on <addr> (e.g. 127.0.0.1:7771).
        --workers N            enumeration worker threads (default 2)
        --queue N              admission queue slots (default 8); overflow
                               is rejected with a typed busy response
        --cache-mb MB          result-cache byte budget (default 32)
        --default-timeout SECS deadline for queries without their own
        --trace-dir DIR        write a JSONL trace per query to DIR; a
                               coordinator also writes one distributed
                               span log per query (join them with
                               `xtask trace-check --distributed DIR`)
        --metrics-addr ADDR    serve Prometheus text exposition over
                               HTTP on ADDR (scrape GET /metrics)
        --load NAME=FILE       register a graph at startup (repeatable)
        --coordinator ADDRS    run as a coordinator: fan shardable
                               queries out to the comma-separated worker
                               addresses, with retry, quarantine, and
                               checkpoint re-steal (repeatable)
        --no-fallback          with --coordinator: answer `no-workers`
                               instead of enumerating locally when every
                               worker is lost
      Interactive servers shut down gracefully on `q` + Enter: running
      queries are cancelled and answer with their checkpoints.

  mbe-cli client <addr> <action>
      Talk to a running server. Actions:
        load NAME FILE         register the server-side edge list FILE
        load-general NAME FILE register a server-side *general* edge
                               list; queries on it route through the
                               OCT driver
        list                   show registered graphs
        stats [--watch SECS]   show server counters (cache hits, queue);
                               --watch refreshes every SECS seconds
                               until q + Enter (or Ctrl-C)
        metrics                show the full telemetry snapshot
                               (per-opcode counters and latency, shard
                               retries/re-steals, worker health)
        shutdown               ask the server to drain and exit
        query GRAPH [flags]    run a query with the run flags of
                               `enumerate` (--algorithm --order --threads
                               --min-left --min-right --top-k --count-only
                               --max-bicliques --timeout --max-print);
                               --checkpoint, --resume, --trace, --metrics,
                               --progress and --max-oct are refused: they
                               apply only to a local run

  mbe-cli presets
      List the calibrated benchmark-dataset analogues.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn p(line: &str) -> Command {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_stats_and_presets() {
        assert_eq!(p("stats g.txt"), Command::Stats { file: "g.txt".into() });
        assert_eq!(p("presets"), Command::Presets);
        assert!(matches!(p("help"), Command::Help { error: None }));
        assert!(matches!(p(""), Command::Help { error: None }));
    }

    #[test]
    fn parses_butterflies_and_core() {
        assert_eq!(p("butterflies g.txt"), Command::Butterflies { file: "g.txt".into() });
        assert_eq!(
            p("core g.txt 3 4"),
            Command::Core { file: "g.txt".into(), alpha: 3, beta: 4, output: None }
        );
        assert_eq!(
            p("core g.txt 3 4 -o red.txt"),
            Command::Core {
                file: "g.txt".into(),
                alpha: 3,
                beta: 4,
                output: Some("red.txt".into())
            }
        );
        assert!(matches!(p("core g.txt"), Command::Help { error: Some(_) }));
        assert!(matches!(p("core g.txt x 4"), Command::Help { error: Some(_) }));
        assert!(matches!(p("butterflies"), Command::Help { error: Some(_) }));
    }

    #[test]
    fn parses_enumerate_defaults_and_flags() {
        match p("enumerate g.txt") {
            Command::Enumerate { file, flags } => {
                assert_eq!(file, "g.txt");
                assert_eq!(flags.params.algorithm, Algorithm::Mbet);
                assert_eq!(flags.params.threads, 1);
                assert!(!flags.params.count_only);
            }
            other => panic!("{other:?}"),
        }
        match p("enumerate g.txt --algorithm imbea --order random:9 --threads 4 \
                 --min-left 3 --min-right 2 --top-k 5 --count-only")
        {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.params.algorithm, Algorithm::Imbea);
                assert_eq!(flags.params.order, VertexOrder::Random(9));
                assert_eq!(flags.params.threads, 4);
                assert_eq!(flags.params.min_left, 3);
                assert_eq!(flags.params.min_right, 2);
                assert_eq!(flags.params.top_k, Some(5));
                assert!(flags.params.count_only);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_run_control_flags() {
        match p("enumerate g.txt --timeout 2.5 --max-bicliques 100") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.params.timeout, Some(Duration::from_secs_f64(2.5)));
                assert_eq!(flags.params.max_bicliques, Some(100));
            }
            other => panic!("{other:?}"),
        }
        match p("enumerate g.txt") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.params.timeout, None);
                assert_eq!(flags.params.max_bicliques, None);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "enumerate g.txt --timeout 0",
            "enumerate g.txt --timeout -1",
            "enumerate g.txt --timeout nope",
            "enumerate g.txt --max-bicliques 0",
            "enumerate g.txt --max-bicliques x",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }

    #[test]
    fn parses_checkpoint_flags() {
        match p("enumerate g.txt --checkpoint c.mbck --resume old.mbck") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.checkpoint, Some("c.mbck".into()));
                assert_eq!(flags.resume, Some("old.mbck".into()));
            }
            other => panic!("{other:?}"),
        }
        match p("enumerate g.txt") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.checkpoint, None);
                assert_eq!(flags.resume, None);
            }
            other => panic!("{other:?}"),
        }
        for bad in ["enumerate g.txt --checkpoint", "enumerate g.txt --resume"] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }

    #[test]
    fn bounded_runs_reject_checkpoint_flags() {
        // Thresholded and top-k runs are not checkpointable: refused at
        // parse time rather than reported as "completed" after a stop.
        for bad in [
            "enumerate g.txt --min-left 2 --checkpoint c.mbck",
            "enumerate g.txt --min-right 2 --checkpoint c.mbck",
            "enumerate g.txt --checkpoint c.mbck --min-left 2 --min-right 2",
            "enumerate g.txt --min-left 3 --resume old.mbck",
            "enumerate g.txt --top-k 5 --checkpoint c.mbck",
            "enumerate g.txt --resume old.mbck --top-k 5",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
        // Thresholds of 1 do not bound the run, so checkpointing stays on.
        match p("enumerate g.txt --min-left 1 --min-right 1 --checkpoint c.mbck") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.checkpoint, Some("c.mbck".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_observability_flags() {
        match p("enumerate g.txt --trace t.jsonl --metrics --progress 0.5") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.trace, Some("t.jsonl".into()));
                assert!(flags.metrics);
                assert_eq!(flags.progress, Some(0.5));
            }
            other => panic!("{other:?}"),
        }
        match p("enumerate g.txt") {
            Command::Enumerate { flags, .. } => {
                assert_eq!(flags.trace, None);
                assert!(!flags.metrics);
                assert_eq!(flags.progress, None);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "enumerate g.txt --trace",
            "enumerate g.txt --progress",
            "enumerate g.txt --progress 0",
            "enumerate g.txt --progress -2",
            "enumerate g.txt --progress soon",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }

    #[test]
    fn parses_oct_enumerate() {
        match p("oct-enumerate g.txt") {
            Command::OctEnumerate { file, flags } => {
                assert_eq!(file, "g.txt");
                assert_eq!(flags.params.algorithm, Algorithm::Mbet);
                assert_eq!(flags.params.threads, 1);
                assert_eq!(flags.max_oct, None, "the driver's default applies");
                assert!(!flags.params.count_only);
            }
            other => panic!("{other:?}"),
        }
        match p("oct-enumerate g.txt --algorithm imbea --order random:9 --threads 4 \
                 --max-oct 10 --count-only --timeout 2.5 --max-bicliques 100 \
                 --checkpoint c.mbok --resume old.mbok --trace t.jsonl --metrics \
                 --progress 0.5 --max-print 3")
        {
            Command::OctEnumerate { flags, .. } => {
                assert_eq!(flags.params.algorithm, Algorithm::Imbea);
                assert_eq!(flags.params.order, VertexOrder::Random(9));
                assert_eq!(flags.params.threads, 4);
                assert_eq!(flags.max_oct, Some(10));
                assert!(flags.params.count_only);
                assert_eq!(flags.params.timeout, Some(Duration::from_secs_f64(2.5)));
                assert_eq!(flags.params.max_bicliques, Some(100));
                assert_eq!(flags.checkpoint, Some("c.mbok".into()));
                assert_eq!(flags.resume, Some("old.mbok".into()));
                assert_eq!(flags.trace, Some("t.jsonl".into()));
                assert!(flags.metrics);
                assert_eq!(flags.progress, Some(0.5));
                assert_eq!(flags.max_print, 3);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "oct-enumerate",
            "oct-enumerate g --max-oct 15",
            "oct-enumerate g --max-oct nope",
            "oct-enumerate g --min-left 2",
            "oct-enumerate g --min-right 2",
            "oct-enumerate g --top-k 3",
            "oct-enumerate g --top-k 3 --count-only",
            "oct-enumerate g --timeout 0",
            "oct-enumerate g --bogus",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }

    #[test]
    fn parses_generate_oct_planted() {
        match p("generate oct-planted 60 60 360 4 --seed 3 -o g.txt") {
            Command::Generate { model, seed, output, .. } => {
                assert_eq!(model, GenModel::OctPlanted { left: 60, right: 60, edges: 360, oct: 4 });
                assert_eq!(seed, 3);
                assert_eq!(output, "g.txt");
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "generate oct-planted 60 60 360 -o g.txt",
            "generate oct-planted 0 60 360 4 -o g.txt",
            "generate oct-planted 60 0 360 4 -o g.txt",
            "generate oct-planted a b c d -o g.txt",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }

    #[test]
    fn parses_client_load_general() {
        assert_eq!(
            p("client :1 load-general web graph.txt"),
            Command::Client {
                addr: ":1".into(),
                action: ClientAction::LoadGeneral { name: "web".into(), file: "graph.txt".into() }
            }
        );
        for bad in ["client :1 load-general onlyname", "client :1 load-general a b extra"] {
            assert!(matches!(p(bad), Command::Help { error: Some(_) }), "`{bad}`");
        }
    }

    #[test]
    fn parses_generate() {
        match p("generate preset BX --seed 7 --scale 0.5 -o out.txt") {
            Command::Generate { model, seed, scale, output } => {
                assert_eq!(model, GenModel::Preset("BX".into()));
                assert_eq!(seed, 7);
                assert!((scale - 0.5).abs() < 1e-9);
                assert_eq!(output, "out.txt");
            }
            other => panic!("{other:?}"),
        }
        match p("generate chung-lu 100 50 400 --output x") {
            Command::Generate { model, .. } => {
                assert_eq!(model, GenModel::ChungLu { nu: 100, nv: 50, edges: 400 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve() {
        match p("serve 127.0.0.1:7771") {
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
            } => {
                assert_eq!(addr, "127.0.0.1:7771");
                assert_eq!(workers, 2);
                assert_eq!(queue, 8);
                assert_eq!(cache_mb, 32);
                assert_eq!(default_timeout, None);
                assert_eq!(trace_dir, None);
                assert_eq!(metrics_addr, None);
                assert!(preload.is_empty());
                assert!(coordinator.is_empty());
                assert!(!no_fallback);
            }
            other => panic!("{other:?}"),
        }
        match p("serve 0.0.0.0:9 --workers 4 --queue 2 --cache-mb 64 \
                 --default-timeout 1.5 --trace-dir /tmp/tr --metrics-addr 127.0.0.1:9095 \
                 --load a=x.txt --load b=y.txt")
        {
            Command::Serve {
                workers,
                queue,
                cache_mb,
                default_timeout,
                trace_dir,
                metrics_addr,
                preload,
                ..
            } => {
                assert_eq!(workers, 4);
                assert_eq!(queue, 2);
                assert_eq!(cache_mb, 64);
                assert_eq!(default_timeout, Some(1.5));
                assert_eq!(trace_dir, Some("/tmp/tr".into()));
                assert_eq!(metrics_addr, Some("127.0.0.1:9095".into()));
                assert_eq!(preload, [("a".into(), "x.txt".into()), ("b".into(), "y.txt".into())]);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "serve",
            "serve :0 --workers 0",
            "serve :0 --queue nope",
            "serve :0 --load broken",
            "serve :0 --load =x",
            "serve :0 --metrics-addr",
            "serve :0 --wat",
        ] {
            assert!(matches!(p(bad), Command::Help { error: Some(_) }), "`{bad}`");
        }
    }

    #[test]
    fn parses_coordinator_flags() {
        // Comma-separated and repeated forms compose.
        match p("serve :0 --coordinator 10.0.0.1:7771,10.0.0.2:7771 \
                 --coordinator 10.0.0.3:7771 --no-fallback")
        {
            Command::Serve { coordinator, no_fallback, .. } => {
                assert_eq!(coordinator, ["10.0.0.1:7771", "10.0.0.2:7771", "10.0.0.3:7771"]);
                assert!(no_fallback);
            }
            other => panic!("{other:?}"),
        }
        for bad in ["serve :0 --coordinator", "serve :0 --coordinator ,", "serve :0 --no-fallback"]
        {
            assert!(matches!(p(bad), Command::Help { error: Some(_) }), "`{bad}`");
        }
    }

    #[test]
    fn parses_client() {
        assert_eq!(
            p("client :1 load web graph.txt"),
            Command::Client {
                addr: ":1".into(),
                action: ClientAction::Load { name: "web".into(), file: "graph.txt".into() }
            }
        );
        assert_eq!(
            p("client :1 list"),
            Command::Client { addr: ":1".into(), action: ClientAction::List }
        );
        assert_eq!(
            p("client :1 stats"),
            Command::Client { addr: ":1".into(), action: ClientAction::Stats { watch: None } }
        );
        assert_eq!(
            p("client :1 stats --watch 0.5"),
            Command::Client { addr: ":1".into(), action: ClientAction::Stats { watch: Some(0.5) } }
        );
        assert_eq!(
            p("client :1 metrics"),
            Command::Client { addr: ":1".into(), action: ClientAction::Metrics }
        );
        assert_eq!(
            p("client :1 shutdown"),
            Command::Client { addr: ":1".into(), action: ClientAction::Shutdown }
        );
        match p("client :1 query web --algorithm imbea --order random:3 --min-left 2 \
                 --count-only --max-bicliques 50 --timeout 2.5 --max-print 5")
        {
            Command::Client { action: ClientAction::Query { graph, flags }, .. } => {
                assert_eq!(graph, "web");
                assert_eq!(flags.params.algorithm, Algorithm::Imbea);
                assert_eq!(flags.params.order, VertexOrder::Random(3));
                assert_eq!(flags.params.min_left, 2);
                assert!(flags.params.count_only);
                assert_eq!(flags.params.max_bicliques, Some(50));
                assert_eq!(flags.params.timeout, Some(Duration::from_secs_f64(2.5)));
                assert_eq!(flags.max_print, 5);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "client",
            "client :1",
            "client :1 load onlyname",
            "client :1 load a b extra",
            "client :1 query",
            "client :1 query g --timeout 0",
            "client :1 query g --checkpoint c.mbck",
            "client :1 query g --resume old.mbck",
            "client :1 query g --trace t.jsonl",
            "client :1 query g --metrics",
            "client :1 query g --progress 1",
            "client :1 query g --max-oct 3",
            "client :1 stats --watch 0",
            "client :1 stats --watch nope",
            "client :1 stats --wat",
            "client :1 poke",
        ] {
            assert!(matches!(p(bad), Command::Help { error: Some(_) }), "`{bad}`");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        for bad in [
            "stats",
            "enumerate",
            "enumerate f --algorithm nope",
            "enumerate f --threads abc",
            "enumerate f --bogus",
            "enumerate f --max-oct 3",
            "enumerate f --timeout 1e300",
            "generate preset BX", // missing --output
            "generate nope -o f",
            "generate chung-lu 1 2 -o f",
            "wat",
        ] {
            assert!(
                matches!(p(bad), Command::Help { error: Some(_) }),
                "`{bad}` should be an error"
            );
        }
    }
}
