//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs made from `--seed`, checks every output,
//! prints every metric it measured as `name = value unit`, and ends with
//! one JSON line: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`. A wrong count, an
//! error reply or a degraded coordinator reply is a failure: the JSON says
//! `"correct": false` and the exit code is 1. See `README.md` here for the
//! workloads and how to read a traced run.

mod coord;
mod enumerate;
mod inputs;
mod layers;
mod measure;
mod replica;
mod serve_mix;
mod servers;
mod span;

use std::time::Duration;

use measure::{json_number, json_string, Outcome};
use span::Tracer;

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, as listed in `BENCHMARK.json`: the ones every
/// workload's traced run measures.
const PER_LAYER: [(&str, &str); 35] = [
    ("gen.preset_ms", "ms"),
    ("bigraph.io.read_ms", "ms"),
    ("bigraph.order.apply_ms", "ms"),
    ("mbe.task.reps_ms", "ms"),
    ("mbe.task.build_ms", "ms"),
    ("mbe.task.roots", "count"),
    ("bigraph.local.localize_ms", "ms"),
    ("bigraph.local.localize_share", "ratio"),
    ("bigraph.local.bits_roots", "count"),
    ("bigraph.local.bits_ratio", "ratio"),
    ("mbe.mbet.run_task_ms", "ms"),
    ("mbe.mbet.self_ms", "ms"),
    ("mbe.mbet.self_share", "ratio"),
    ("mbe.mbet.nodes", "count"),
    ("mbe.mbet.emitted", "count"),
    ("mbe.mbet.nonmaximal", "count"),
    ("mbe.mbet.batched", "count"),
    ("mbe.mbet.absorbed", "count"),
    ("mbe.mbet.useful_ratio", "ratio"),
    ("mbe.mbet.peak_trie_nodes", "count"),
    ("mbe.mbet.root_ms_max", "ms"),
    ("mbe.mbet.root_ms_p99", "ms"),
    ("mbe.sink.emit_ms", "ms"),
    ("mbe.sink.emit_share", "ratio"),
    ("mbe.sink.emits", "count"),
    ("mbe.parallel.tasks", "count"),
    ("mbe.parallel.steals", "count"),
    ("mbe.parallel.idle_wakeups", "count"),
    ("mbe.parallel.emit_imbalance", "ratio"),
    ("path.mbe.mbet.run_task_share", "ratio"),
    ("path.driver.loop_share", "ratio"),
    ("replica.pass_ms", "ms"),
    ("replica.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

const WORKLOADS: [&str; 4] = ["dbt-deep", "shallow-sweep", "serve-mix", "coord-shard"];

const USAGE: &str = "usage: perfbench --workload <dbt-deep|shallow-sweep|serve-mix|coord-shard> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The settings of one run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// `threads = nproc`: the threaded runs use every core.
    pub threads: usize,
}

impl RunConfig {
    fn parse(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad(&"must be 1..=600"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// Writes the run's spans to `out/trace-<workload>-<seed>.jsonl`.
    pub fn write_trace(&self, tracer: &Tracer) -> Result<(), String> {
        let dir = inputs::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans in {}", tracer.spans().len(), path.display());
        Ok(())
    }
}

fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "dbt-deep" => enumerate::run(&["DBT"], "dbt-deep", cfg),
        "shallow-sweep" => enumerate::run(&inputs::SHALLOW, "shallow-sweep", cfg),
        "serve-mix" => serve_mix::run(cfg),
        "coord-shard" => coord::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The closing JSON line over `wanted`; `Err` names a metric the run
/// did not produce.
fn result_line(out: &Outcome, wanted: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = out.get(name).ok_or_else(|| format!("the run did not measure {name}"))?;
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    let cfg = match RunConfig::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace),
        cfg.threads
    );
    let mut out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // The whole run's peak, unless the workload measured its own.
    if out.get("peak_rss_mib").is_none() {
        if let Some(rss) = measure::peak_rss_mib() {
            out.put("peak_rss_mib", rss, "MiB");
        }
    }
    out.put("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    for m in &out.metrics {
        println!("{:<40} = {} {}", m.name, json_number(m.value), m.unit);
    }
    for why in &out.failures {
        println!("FAILED: {why}");
    }
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&out, wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(if out.failed == 0 && out.attempted > 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_command_line() {
        let cfg = RunConfig::parse(args("--workload serve-mix --seed 7 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds.as_secs(), cfg.trace),
            ("serve-mix", 7, 3, true)
        );
        assert!(RunConfig::parse(args("--workload nope --seed 7 --seconds 3 --trace 1")).is_err());
        assert!(
            RunConfig::parse(args("--workload dbt-deep --seed 7 --seconds 3 --trace 2")).is_err()
        );
        assert!(RunConfig::parse(args("--workload dbt-deep --seed 7 --seconds 3")).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"name\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "BENCHMARK.json lacks {name}");
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.put("a", 1.5, "ms");
        assert_eq!(
            result_line(&out, &[("a", "ms")]).expect("present"),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(&out, &[("b", "ms")]).is_err());
    }
}
