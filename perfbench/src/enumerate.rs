//! `dbt-deep` and `shallow-sweep`: full counts through the library,
//! serial and at `threads = nproc`, alternating pass by pass.
//!
//! The gated times are taken at the reference host speed. A pass is
//! bracketed by two readings of a fixed reference job on as many threads
//! ([`Reference`]), and its time is scaled by the job's quiet time over
//! the mean of the two readings. On a shared machine whose speed drifts by
//! tens of percent, over seconds and over whole batches of runs, the
//! scaled times repeat where the raw ones do not. The raw medians are
//! printed as well.

use std::time::Instant;

use mbe::Enumeration;

use crate::inputs::{self, Input, WorkDir};
use crate::layers;
use crate::measure::{at_reference_speed, iqm, median, ms, Outcome, Reference, SetupTimes, Window};
use crate::span::Tracer;
use crate::RunConfig;

/// Generates, writes and rereads every preset of the workload.
fn setup(presets: &[&'static str], seed: u64, dir: &WorkDir) -> Result<Vec<Input>, String> {
    presets
        .iter()
        .map(|&a| inputs::make_input(a, seed, a, dir).map_err(|e| format!("{a}: {e}")))
        .collect()
}

/// The samples of one kind of pass.
#[derive(Default)]
struct Passes {
    /// Wall time of each pass, in ms.
    raw_ms: Vec<f64>,
    /// The mean reference reading around each pass, in ms.
    reference_ms: Vec<f64>,
}

impl Passes {
    /// Runs one pass over `graphs` at `threads` between two reference
    /// readings.
    fn run(&mut self, graphs: &[Input], threads: usize, r: &mut Reference, out: &mut Outcome) {
        let before = r.time_ms(threads);
        let mut total = 0.0;
        for input in graphs {
            let t = Instant::now();
            let report = Enumeration::new(&input.graph).threads(threads).count();
            total += ms(t.elapsed());
            out.check(match report {
                Ok(r) if r.is_complete() && r.count() == input.expected => Ok(()),
                Ok(r) => Err(format!(
                    "{} at {threads} threads: {} bicliques ({:?}), want {}",
                    input.abbrev,
                    r.count(),
                    r.stop,
                    input.expected
                )),
                Err(e) => Err(format!("{} at {threads} threads: {e}", input.abbrev)),
            });
        }
        let after = r.time_ms(threads);
        self.raw_ms.push(total);
        self.reference_ms.push((before + after) / 2.0);
    }

    /// Each pass's time at the reference host speed.
    fn scaled_ms(&self) -> Vec<f64> {
        self.raw_ms
            .iter()
            .zip(&self.reference_ms)
            .map(|(&t, &r)| at_reference_speed(t, r))
            .collect()
    }
}

pub fn run(presets: &[&'static str], label: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = WorkDir::create(label).map_err(|e| format!("scratch dir: {e}"))?;
    let mut out = Outcome::default();
    let mut setups = SetupTimes::new(cfg.seconds);
    let graphs = setups.time(|| setup(presets, cfg.seed, &dir))?;

    if cfg.trace {
        while setups.missing() {
            setups.time(|| setup(presets, cfg.seed, &dir))?;
        }
        out.put("setup_s", setups.median_s(), "s");
        let mut tracer = Tracer::new();
        let refs: Vec<&Input> = graphs.iter().collect();
        out.absorb(layers::engine_trace(&refs, cfg.seed, cfg.threads, cfg.seconds, &mut tracer));
        cfg.write_trace(&tracer)?;
        return Ok(out);
    }

    let mut serial = Passes::default();
    let mut threaded = Passes::default();
    let mut reference = Reference::new(cfg.threads);
    let mut w = Window::new(cfg.seconds);
    setups.start_window();
    while w.next() {
        serial.run(&graphs, 1, &mut reference, &mut out);
        threaded.run(&graphs, cfg.threads, &mut reference, &mut out);
        if setups.due() {
            setups.time(|| setup(presets, cfg.seed, &dir))?;
        }
    }
    while setups.missing() {
        setups.time(|| setup(presets, cfg.seed, &dir))?;
    }
    let (serial_scaled, threaded_scaled) = (serial.scaled_ms(), threaded.scaled_ms());
    let scaled_s = serial_scaled.iter().chain(&threaded_scaled).sum::<f64>() / 1e3;
    let serial_s = median(&serial.raw_ms) / 1e3;
    let threaded_s = median(&threaded.raw_ms) / 1e3;
    out.put("setup_s", setups.median_s(), "s");
    out.put("primary_ms", iqm(&serial_scaled), "ms");
    out.put("secondary_ms", iqm(&threaded_scaled), "ms");
    out.put("ops_per_s", out.attempted as f64 / scaled_s, "1/s");
    out.put("enum_serial_s", serial_s, "s");
    out.put("enum_threads_s", threaded_s, "s");
    out.put("enum_passes", serial.raw_ms.len() as f64, "count");
    out.put("speedup", serial_s / threaded_s, "ratio");
    out.put("reference_ms_p50", median(&serial.reference_ms), "ms");
    out.put("reference_threads_ms_p50", median(&threaded.reference_ms), "ms");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::REFERENCE_QUIET_MS;

    #[test]
    fn scaling_takes_out_the_host_speed() {
        // The second pass ran while the host was 1.5x slower.
        let passes = Passes {
            raw_ms: vec![100.0, 150.0],
            reference_ms: vec![REFERENCE_QUIET_MS, 1.5 * REFERENCE_QUIET_MS],
        };
        assert_eq!(passes.scaled_ms(), vec![100.0, 100.0]);
    }

    #[test]
    fn reference_job_takes_time() {
        let mut r = Reference::new(2);
        assert!(r.time_ms(1) > 0.0 && r.time_ms(2) > 0.0);
    }
}
