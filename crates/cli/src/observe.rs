//! CLI-side observers: the `--progress` live stderr line and the
//! `--metrics` per-worker table.
//!
//! Both are built on the library's [`mbe::Observer`] hooks.

use mbe::metrics::RunMetrics;
use mbe::obs::Observer;
use mbe::Histogram;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Prints a `progress: …` line to stderr at most once per `every`,
/// driven by the run's emission samples. With an emission budget the
/// line includes an ETA at the mean rate observed so far.
pub struct StderrProgress {
    every: Duration,
    budget: Option<u64>,
    state: Mutex<State>,
}

struct State {
    start: Instant,
    last_print: Instant,
    /// Last sampled cumulative emitted count per worker; the live total
    /// is their sum (each worker samples independently).
    per_worker: Vec<u64>,
    printed: bool,
}

impl StderrProgress {
    /// A progress line every `every` (first line after one interval).
    pub fn new(every: Duration, budget: Option<u64>) -> Self {
        let now = Instant::now();
        StderrProgress {
            every,
            budget,
            state: Mutex::new(State {
                start: now,
                last_print: now,
                per_worker: Vec::new(),
                printed: false,
            }),
        }
    }
}

impl Observer for StderrProgress {
    fn on_emit_sample(&self, worker: usize, emitted: u64) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.per_worker.len() <= worker {
            st.per_worker.resize(worker + 1, 0);
        }
        st.per_worker[worker] = emitted;
        if st.last_print.elapsed() < self.every {
            return;
        }
        st.last_print = Instant::now();
        st.printed = true;
        let total: u64 = st.per_worker.iter().sum();
        let elapsed = st.start.elapsed();
        let rate = rate_per_sec(total, elapsed);
        match self.budget.and_then(|b| eta(total, b, elapsed)) {
            Some(eta) => eprintln!("progress: {total} bicliques, {rate:.0}/s, eta {eta:.0?}"),
            None => eprintln!("progress: {total} bicliques, {rate:.0}/s"),
        }
    }

    fn on_run_end(&self, _stop: mbe::StopReason, stats: &mbe::Stats) {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.printed {
            // Close the stream of interim lines with the exact final count
            // (interim totals are sample-grained, so they lag slightly).
            eprintln!("progress: done — {} bicliques in {:?}", stats.emitted, st.start.elapsed());
        }
    }
}

/// Elapsed times below this (one microsecond) are treated as "no time has
/// passed yet": rates computed over them would be dominated by timer
/// granularity, not by the run.
const MIN_ELAPSED_SECS: f64 = 1e-6;

/// Mean emission rate over `elapsed`, per second (`0.0` before any
/// measurable time — at least [`MIN_ELAPSED_SECS`] — has passed, so a
/// first sample taken immediately after start never reports an absurd
/// rate).
fn rate_per_sec(emitted: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs < MIN_ELAPSED_SECS {
        0.0
    } else {
        emitted as f64 / secs
    }
}

/// Estimated time remaining to reach `total` emissions at the mean rate
/// observed so far. `None` when the rate is zero (nothing emitted, or no
/// measurable time elapsed yet), when the total has been reached, or when
/// the estimate is not representable as a [`Duration`] — never an
/// infinite/NaN estimate and never a panic, however extreme the inputs.
fn eta(emitted: u64, total: u64, elapsed: Duration) -> Option<Duration> {
    let rate = rate_per_sec(emitted, elapsed);
    if rate <= 0.0 || emitted >= total {
        return None;
    }
    let secs = (total - emitted) as f64 / rate;
    if !secs.is_finite() {
        return None;
    }
    Duration::try_from_secs_f64(secs).ok()
}

/// Prints the per-worker metrics table (`--metrics`) to stderr: task,
/// steal, and idle-wakeup counts, delivered emissions, task-latency
/// quantiles, and the deepest recursion each worker reached.
pub fn print_worker_metrics(m: &RunMetrics) {
    if m.workers.is_empty() {
        eprintln!("metrics: none recorded for this run mode");
        return;
    }
    eprintln!(
        "{:>5} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9} {:>6}",
        "w", "tasks", "steals", "idle", "emitted", "p50_us", "p99_us", "depth"
    );
    for wm in &m.workers {
        eprintln!(
            "{:>5} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9} {:>6}",
            wm.worker,
            wm.tasks,
            wm.steals,
            wm.idle_wakeups,
            wm.emitted,
            quantile(&wm.task_latency_us, 0.50),
            quantile(&wm.task_latency_us, 0.99),
            wm.peak_depth,
        );
    }
    if m.workers.len() > 1 {
        let merged = m.task_latency_us();
        eprintln!(
            "{:>5} {:>9} {:>8} {:>9} {:>10} {:>9} {:>9} {:>6}",
            "total",
            m.total_tasks(),
            m.total_steals(),
            m.total_idle_wakeups(),
            m.total_emitted(),
            quantile(&merged, 0.50),
            quantile(&merged, 0.99),
            m.peak_depth(),
        );
    }
}

/// Formats a histogram quantile as its power-of-two lower bound
/// (`≥N`), or `-` when the histogram is empty.
fn quantile(h: &Histogram, q: f64) -> String {
    match h.quantile_lower_bound(q) {
        Some(v) => format!("\u{2265}{v}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_eta_math() {
        let dt = Duration::from_secs(2);
        assert!((rate_per_sec(100, dt) - 50.0).abs() < 1e-9);
        assert_eq!(rate_per_sec(100, Duration::ZERO), 0.0);
        // 100 done of 200 in 2 s at 50/s → 2 s to go.
        let e = eta(100, 200, dt).expect("rate is positive");
        assert!((e.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(eta(200, 200, dt), None, "already reached");
        assert_eq!(eta(0, 10, Duration::ZERO), None, "no rate yet");
    }

    #[test]
    fn rate_guards_near_zero_elapsed() {
        // Below the 1 µs floor the rate is reported as zero, not as an
        // astronomically inflated emissions/s figure.
        assert_eq!(rate_per_sec(1_000_000, Duration::from_nanos(1)), 0.0);
        assert_eq!(rate_per_sec(1_000_000, Duration::from_nanos(999)), 0.0);
        // Exactly at the floor the rate becomes finite and meaningful.
        let at_floor = rate_per_sec(10, Duration::from_micros(1));
        assert!((at_floor - 1e7).abs() < 1.0, "rate at floor = {at_floor}");
        assert_eq!(rate_per_sec(0, Duration::from_secs(5)), 0.0, "nothing emitted");
    }

    #[test]
    fn eta_boundaries_never_panic_or_go_infinite() {
        // Near-zero elapsed → zero rate → no estimate.
        assert_eq!(eta(5, 10, Duration::from_nanos(1)), None);
        // Zero emissions in real time → zero rate → no estimate.
        assert_eq!(eta(0, 10, Duration::from_secs(3)), None);
        // A remaining count so large the estimate exceeds what a Duration
        // can hold: previously a `Duration::from_secs_f64` panic, now None.
        assert_eq!(eta(1, u64::MAX, Duration::from_secs(3600)), None);
        // Same guard one step in from the extreme: ~1.8e13 s still fits.
        assert!(eta(1, 1 << 44, Duration::from_secs(1)).is_some());
        // emitted > total (caller raced the counter) is "reached".
        assert_eq!(eta(11, 10, Duration::from_secs(1)), None);
        // ETA of the last item at a slow rate stays finite and sane.
        let e = eta(1, 2, Duration::from_secs(1000)).expect("finite estimate");
        assert!((e.as_secs_f64() - 1000.0).abs() < 1e-6);
    }
}
