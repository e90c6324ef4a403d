//! E9 — Progress over time on the large dataset (analog of the papers'
//! "evaluation on the large dataset" figure: cumulative bicliques
//! emitted vs. wall-clock time on the 19-billion-biclique TVTropes;
//! here, its bounded analogue).
//!
//! Series: MBET, MBET in the bounded-memory MBETM mode (node-budgeted
//! R-trie output store), and iMBEA. Each row is the time to reach a
//! decile of the total output — the streaming view that matters when
//! the full output does not fit anywhere. The samples come from the
//! enumeration's own emission sampling ([`mbe::Observer::on_emit_sample`]
//! every [`mbe::Enumeration::sample_every`] emissions).

use mbe::{Algorithm, CountSink, Enumeration, MbeOptions, Observer, TrieSink};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Records `(emitted, elapsed since creation)` at every emission sample
/// of a serial run.
struct Samples {
    start: Instant,
    taken: Mutex<Vec<(u64, Duration)>>,
}

impl Samples {
    fn new() -> Self {
        Samples { start: Instant::now(), taken: Mutex::new(Vec::new()) }
    }

    /// Times at which each 10% decile of `total` was first reached
    /// (`None` where the sampling grid skipped the decile).
    fn deciles(&self, total: u64) -> Vec<Option<Duration>> {
        let taken = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        (1..=10)
            .map(|i| taken.iter().find(|&&(emitted, _)| emitted >= total * i / 10).map(|s| s.1))
            .collect()
    }
}

impl Observer for Samples {
    fn on_emit_sample(&self, _worker: usize, emitted: u64) {
        let elapsed = self.start.elapsed();
        self.taken.lock().unwrap_or_else(PoisonError::into_inner).push((emitted, elapsed));
    }
}

fn main() {
    bench::header("E9", "progress over time on the large dataset", "large-dataset figure");
    let p = gen::presets::by_abbrev("DBT").expect("TVTropes preset");
    let g = p.build_scaled(bench::seed(), bench::scale());
    println!(
        "TVTropes analogue: |U|={} |V|={} |E|={} (real dataset: 19.6e9 bicliques)",
        g.num_u(),
        g.num_v(),
        g.num_edges()
    );

    // Total output size, once.
    let total = bench::count(&g, &MbeOptions::new(Algorithm::Mbet));
    println!("total maximal bicliques in the analogue: {total}\n");
    let sample_every = (total / 200).max(1);

    struct Row {
        label: &'static str,
        deciles: Vec<Option<Duration>>,
        total_time: Duration,
        evictions: Option<u64>,
    }
    let mut rows: Vec<Row> = Vec::new();

    for (label, alg, budget) in [
        ("MBET", Algorithm::Mbet, None),
        ("MBETM(16k)", Algorithm::Mbet, Some(1usize << 14)),
        ("iMBEA", Algorithm::Imbea, None),
    ] {
        let samples = Samples::new();
        let run = Enumeration::new(&g).algorithm(alg).observer(&samples).sample_every(sample_every);
        let (report, evictions) = match budget {
            None => (run.run(&mut CountSink::default()), None),
            Some(b) => {
                let mut sink = TrieSink::with_node_budget(b);
                (run.run(&mut sink), Some(sink.trie().evictions()))
            }
        };
        let report = report.expect("valid configuration");
        assert_eq!(report.stats.emitted, total, "{label}");
        let deciles = samples.deciles(total);
        rows.push(Row { label, deciles, total_time: report.stats.elapsed, evictions });
    }

    print!("{:<12}", "% emitted");
    for row in &rows {
        print!("{:>14}", row.label);
    }
    println!();
    for decile in 0..10 {
        print!("{:<12}", format!("{}%", (decile + 1) * 10));
        for row in &rows {
            // Deciles the sampler missed (only possible for the last one
            // when `total % sample_every != 0`) fall back to the run's
            // total time.
            let d = row.deciles[decile].unwrap_or(row.total_time);
            print!("{:>12.2}ms", d.as_secs_f64() * 1e3);
        }
        println!();
    }
    for row in &rows {
        match row.evictions {
            Some(e) => println!(
                "{}: total {:?}, {} store evictions (memory stayed bounded)",
                row.label, row.total_time, e
            ),
            None => println!("{}: total {:?}", row.label, row.total_time),
        }
    }
}
