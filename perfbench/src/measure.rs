//! Sample statistics, the metric record every workload returns, and the
//! process-level readings (peak memory).

use std::time::{Duration, Instant};

/// Set-up repetitions per run.
const SETUPS: usize = 9;

/// Set-up timings spread over a run. Set-up takes milliseconds, and on
/// a shared machine such short spans drift by tens of percent over
/// seconds; repetitions spread over the whole window, and their median,
/// repeat from run to run where a burst of repetitions at the start
/// does not. The first repetition builds what the run measures; repetition
/// `k` is due once `k / SETUPS` of the window has passed, and the rest are
/// made up at the end. The extra ones are thrown away.
pub struct SetupTimes {
    start: Instant,
    window: Duration,
    secs: Vec<f64>,
}

impl SetupTimes {
    pub fn new(window: Duration) -> Self {
        SetupTimes { start: Instant::now(), window, secs: Vec::new() }
    }

    /// Marks the start of the measurement window.
    pub fn start_window(&mut self) {
        self.start = Instant::now();
    }

    /// `true` when the next repetition is due.
    pub fn due(&self) -> bool {
        let k = self.secs.len();
        k < SETUPS && self.start.elapsed() >= self.window.mul_f64(k as f64 / SETUPS as f64)
    }

    /// `true` until every repetition has run.
    pub fn missing(&self) -> bool {
        self.secs.len() < SETUPS
    }

    /// Times one repetition.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.secs.push(t.elapsed().as_secs_f64());
        out
    }

    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }
}

/// One measured value, printed by name with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run produced: its metrics and how many of its
/// operations were attempted and failed. Failures carry a short reason
/// each (wrong count, error reply, busy, degraded).
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Counts one operation; `Err` marks it failed and keeps the reason
    /// (the first few reasons only, so a broken run stays readable).
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Folds the counts of another outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Reports `samples` as `<name>_p50` and, when the samples allow one,
    /// `<name>_tail` with its percentile and sample count.
    pub fn put_latency(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.put(&format!("{name}_n"), samples.len() as f64, "count");
        if samples.is_empty() {
            return;
        }
        self.put(&format!("{name}_p50"), median(samples), unit);
        if let Some(t) = tail(samples) {
            self.put(&format!("{name}_tail"), t.value, unit);
            self.put(&format!("{name}_tail_pct"), t.pct, "percentile");
        }
    }
}

/// The median (mean of the middle two for an even count). Panics on an
/// empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The interquartile mean: the mean of the middle half of the samples
/// (all of them below four). Like the median it ignores the slowest and
/// fastest quarter; unlike the median it moves smoothly when round trips
/// land on a coarse grid, such as a server's 25 ms reply poll, where the
/// median jumps a whole step at a time.
pub fn iqm(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A tail percentile and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
}

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent so the nearest rank is exact integer arithmetic.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest of [`TAIL_PERMILLE`] that still has at least ten samples
/// beyond it (nearest rank), or `None` when even the median has fewer.
/// A tail read off the last few samples is noise; ten beyond keeps it
/// repeatable.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERMILLE.iter().find_map(|&permille| {
        let rank = (permille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10)
            .then(|| Tail { pct: permille as f64 / 10.0, value: v[rank - 1] })
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is not available.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What [`Reference::time_ms`] reads on the reference machine (2 shared
/// vCPUs) while its host is quiet. Only a scale: it turns a ratio to the
/// reference job back into milliseconds at that speed.
pub const REFERENCE_QUIET_MS: f64 = 14.0;

/// `ms` measured while the reference job read `reference_ms`, scaled to
/// the reference host speed.
pub fn at_reference_speed(ms: f64, reference_ms: f64) -> f64 {
    ms * REFERENCE_QUIET_MS / reference_ms
}

/// Integers in each buffer of the reference job (256 KiB).
const REFERENCE_LEN: usize = 1 << 16;
/// Times each thread of the reference job refills and sorts its buffer.
const REFERENCE_ROUNDS: usize = 12;

/// A fixed reference job: each of its threads refills a buffer with the
/// same seeded integers and sorts it, a few times over. It shares no code
/// with the program, so its time reads how fast the host runs code right
/// now. On a shared machine that speed moves by tens of percent over
/// seconds and minutes, and pass times move with it. The buffers are
/// allocated once and small, so the job adds a fixed 256 KiB per thread to
/// the peak memory.
pub struct Reference {
    buffers: Vec<Vec<u32>>,
}

impl Reference {
    pub fn new(threads: usize) -> Self {
        Reference { buffers: vec![vec![0; REFERENCE_LEN]; threads] }
    }

    /// Wall time, in ms, of the job on `threads` threads at once.
    pub fn time_ms(&mut self, threads: usize) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for buffer in self.buffers.iter_mut().take(threads) {
                s.spawn(move || {
                    let mut rng = crate::inputs::Rng::derive(0, "reference");
                    for _ in 0..REFERENCE_ROUNDS {
                        buffer.iter_mut().for_each(|x| *x = rng.next_u64() as u32);
                        buffer.sort_unstable();
                    }
                    std::hint::black_box(buffer);
                });
            }
        });
        ms(start.elapsed())
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The measurement window of one run: rounds keep starting until it has
/// elapsed, and the first round always runs.
pub struct Window {
    start: Instant,
    length: Duration,
    started: bool,
}

impl Window {
    pub fn new(length: Duration) -> Self {
        Window { start: Instant::now(), length, started: false }
    }

    /// `true` while another round should start.
    pub fn next(&mut self) -> bool {
        let go = !self.started || self.start.elapsed() < self.length;
        self.started = true;
        go
    }
}

/// `value` as a JSON number: shortest round-trip digits, never NaN or
/// infinite (those become 0, which no gated metric can read).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0]), 3.0);
        // Samples on a 25 ms grid: the median jumps from 50 to 75 when one
        // more sample crosses over, the interquartile mean moves by 25/6.
        let below = [50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 75.0, 75.0, 75.0, 75.0, 75.0, 75.0];
        let mut above = below;
        above[5] = 75.0;
        assert_eq!((median(&below), median(&above)), (62.5, 75.0));
        assert!((iqm(&above) - iqm(&below) - 25.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th, with exactly ten beyond it.
        assert_eq!(tail(&ramp(1000)), Some(Tail { pct: 99.0, value: 990.0 }));
        // 999: p99 has rank 990 and only nine beyond, so p95 is reported.
        assert_eq!(tail(&ramp(999)), Some(Tail { pct: 95.0, value: 950.0 }));
        // 10_000: p99.9 has rank 9990 and ten beyond.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.pct), Some(99.9));
        // 40 samples: p75 is rank 30 with ten beyond.
        assert_eq!(tail(&ramp(40)), Some(Tail { pct: 75.0, value: 30.0 }));
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail(&ramp(20)), Some(Tail { pct: 50.0, value: 10.0 }));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), Some(Tail { pct: 95.0, value: 190.0 }));
    }

    #[test]
    fn json_formatting() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
