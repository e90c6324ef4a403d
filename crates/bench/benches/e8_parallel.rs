//! E8 — Parallel scalability and load-aware splitting (analog of the
//! papers' parallel-speedup and load-balance figures).
//!
//! For three skewed analogues: MBET on the serial driver, the baseline
//! every speedup is measured against, then on the work-stealing driver
//! at 2, 4, … threads, with load-aware task splitting on (default
//! bounds) and off (bounds = ∞, i.e. whole root subtrees are the
//! scheduling unit). `threads = 1` always runs the serial driver, which
//! never splits, so the 1-thread row is printed once. Splitting matters
//! exactly when root-task sizes are power-law skewed — the
//! load-imbalance phenomenon the papers dedicate a figure to.

use mbe::{Algorithm, MbeOptions};

fn main() {
    bench::header("E8", "parallel speedup and load-aware splitting", "load-balance figures");
    let picks = ["YG", "EE", "BX"];
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16);
    let threads: Vec<usize> = std::iter::successors(Some(2usize), |t| Some(t * 2))
        .take_while(|&t| t <= max_threads)
        .collect();

    println!(
        "{:<10}{:>9}{:>14}{:>12}{:>14}{:>12}",
        "dataset", "threads", "split ON(ms)", "speedup", "split OFF(ms)", "speedup"
    );
    for abbrev in picks {
        let Some(p) = gen::presets::by_abbrev(abbrev) else { continue };
        let g = p.build_scaled(bench::seed(), bench::scale());
        let (b_serial, serial) =
            bench::time_median(|| bench::count(&g, &MbeOptions::new(Algorithm::Mbet)));
        println!(
            "{:<10}{:>9}{:>14.2}{:>11.2}x{:>14}{:>12}",
            abbrev,
            "1 (ser)",
            serial.as_secs_f64() * 1e3,
            1.0,
            "-",
            "-"
        );
        for &t in &threads {
            let opts_on = MbeOptions::new(Algorithm::Mbet).threads(t);
            let mut opts_off = MbeOptions::new(Algorithm::Mbet).threads(t);
            opts_off.split_height = usize::MAX;
            opts_off.split_size = usize::MAX;

            let (b_on, d_on) = bench::time_median(|| bench::count(&g, &opts_on));
            let (b_off, d_off) = bench::time_median(|| bench::count(&g, &opts_off));
            assert_eq!(b_on, b_serial, "{abbrev} t={t}");
            assert_eq!(b_off, b_serial, "{abbrev} t={t}");

            println!(
                "{:<10}{:>9}{:>14.2}{:>11.2}x{:>14.2}{:>11.2}x",
                abbrev,
                t,
                d_on.as_secs_f64() * 1e3,
                serial.as_secs_f64() / d_on.as_secs_f64(),
                d_off.as_secs_f64() * 1e3,
                serial.as_secs_f64() / d_off.as_secs_f64()
            );
        }
    }
}
