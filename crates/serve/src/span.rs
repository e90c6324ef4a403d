//! Coordinator span log: the distributed half of a query's trace.
//!
//! A worker's `JsonlTraceObserver` records one process's enumeration;
//! this module records the *coordinator's* side of a distributed query
//! — which shard attempts were dispatched where, retried, re-stolen,
//! speculated, merged, or discarded — as the same hand-rolled JSONL
//! shape, written by the same [`mbe::obs::JsonLines`] writer (schema
//! [`mbe::obs::TRACE_SCHEMA_VERSION`], flat objects, unsigned ints and
//! escape-free strings, monotone `t_us`).
//!
//! Every dispatched attempt is assigned a **span id**, carried to the
//! worker inside the request's [`crate::protocol::TraceContext`]; the
//! worker stamps `trace`/`parent` onto its own run trace's header, so
//! `xtask trace-check --distributed DIR` can join each accepted shard
//! span to exactly one worker run trace. The first line is always
//! `coord_start` (with the trace id and a wall-clock `anchor`), the
//! last `coord_end`.

use std::sync::atomic::{AtomicU64, Ordering};

use mbe::obs::{field_str, field_u64, JsonLines};

/// A JSONL span log for one distributed query.
pub(crate) struct SpanLog {
    trace_id: u64,
    next_span: AtomicU64,
    lines: JsonLines,
}

impl SpanLog {
    /// Creates (truncating) `path` and writes nothing yet; the caller
    /// opens the log with [`SpanLog::coord_start`].
    pub(crate) fn create(path: &str, trace_id: u64) -> std::io::Result<Self> {
        Ok(SpanLog { trace_id, next_span: AtomicU64::new(1), lines: JsonLines::create(path)? })
    }

    /// The query-scoped trace id every event (and every worker trace)
    /// is keyed by.
    pub(crate) fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Takes the first write error encountered, if any.
    pub(crate) fn take_error(&self) -> Option<std::io::Error> {
        self.lines.take_error()
    }

    /// Header line: trace id, wall-clock anchor, fan-out shape.
    pub(crate) fn coord_start(&self, shards: u64, workers: u64) {
        self.lines.event("coord_start", |b| {
            field_u64(b, "trace", self.trace_id);
            field_u64(b, "anchor", self.lines.anchor_us());
            field_u64(b, "shards", shards);
            field_u64(b, "workers", workers);
        });
    }

    /// A shard attempt was handed to worker `worker`; returns the fresh
    /// span id carried to that worker as its parent span.
    pub(crate) fn dispatch(&self, shard: u64, epoch: u64, worker: u64) -> u64 {
        let span = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.lines.event("dispatch", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
            field_u64(b, "worker", worker);
            field_u64(b, "span", span);
        });
        span
    }

    /// A completed remote attempt's result was accepted into the board.
    pub(crate) fn merge(&self, shard: u64, epoch: u64, span: u64, emitted: u64) {
        self.lines.event("merge", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
            field_u64(b, "span", span);
            field_u64(b, "emitted", emitted);
        });
    }

    /// A remote result arrived too late (stale epoch or already done)
    /// and was discarded.
    pub(crate) fn discard(&self, shard: u64, epoch: u64, span: u64) {
        self.lines.event("discard", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
            field_u64(b, "span", span);
        });
    }

    /// A failed attempt was re-queued for another try (same epoch).
    pub(crate) fn retry(&self, shard: u64, epoch: u64) {
        self.lines.event("retry", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
        });
    }

    /// A partial result advanced the shard's checkpoint and re-queued
    /// the remainder under a bumped epoch.
    pub(crate) fn resteal(&self, shard: u64, epoch: u64) {
        self.lines.event("resteal", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
        });
    }

    /// A straggler shard was re-queued for speculative duplication.
    pub(crate) fn speculate(&self, shard: u64, epoch: u64) {
        self.lines.event("speculate", |b| {
            field_u64(b, "shard", shard);
            field_u64(b, "epoch", epoch);
        });
    }

    /// The coordinator claimed `claimed` unfinished shards and ran their
    /// merged remainder locally (no worker trace backs that work).
    pub(crate) fn fallback(&self, claimed: u64) {
        self.lines.event("fallback", |b| field_u64(b, "claimed", claimed));
    }

    /// Footer line: outcome and fan-out counters; flushes the file.
    pub(crate) fn coord_end(
        &self,
        stop: &str,
        retries: u64,
        resteals: u64,
        speculated: u64,
        degraded: bool,
    ) {
        self.lines.event("coord_end", |b| {
            field_str(b, "stop", stop);
            field_u64(b, "retries", retries);
            field_u64(b, "resteals", resteals);
            field_u64(b, "speculated", speculated);
            field_u64(b, "degraded", u64::from(degraded));
        });
        self.lines.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbe::obs::TRACE_SCHEMA_VERSION;

    #[test]
    fn span_log_shape_is_versioned_monotone_and_bounded() {
        let path = std::env::temp_dir()
            .join(format!("mbe-span-unit-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let log = SpanLog::create(&path, 42).unwrap();
        assert_eq!(log.trace_id(), 42);
        log.coord_start(3, 2);
        let s1 = log.dispatch(0, 0, 0);
        let s2 = log.dispatch(1, 0, 1);
        assert_ne!(s1, s2, "span ids are unique per attempt");
        log.retry(1, 0);
        log.resteal(1, 1);
        let s3 = log.dispatch(1, 1, 0);
        log.merge(0, 0, s1, 10);
        log.merge(1, 1, s3, 5);
        log.speculate(2, 0);
        let s4 = log.dispatch(2, 0, 1);
        log.discard(2, 0, s4);
        log.fallback(1);
        log.coord_end("completed", 1, 1, 1, true);
        assert!(log.take_error().is_none());
        drop(log);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"ev\":\"coord_start\""), "{}", lines[0]);
        assert!(lines[0].contains("\"trace\":42"), "{}", lines[0]);
        assert!(lines[0].contains("\"anchor\":"), "{}", lines[0]);
        assert!(lines.last().unwrap().contains("\"ev\":\"coord_end\""));
        let mut last = 0u64;
        for l in &lines {
            assert!(l.starts_with(&format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"t_us\":")), "{l}");
            let t: u64 = l
                .split("\"t_us\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!(t >= last);
            last = t;
        }
        // The fallback claim is recorded, and merges carry their spans.
        assert!(text.contains("\"ev\":\"fallback\",\"claimed\":1"));
        assert!(text.contains(&format!("\"span\":{s1}")));
    }

    /// `line` with the values of its wall-clock fields (`t_us`,
    /// `anchor`) replaced by 0.
    fn zero_clock(line: &str) -> String {
        let mut out = line.to_string();
        for key in ["\"t_us\":", "\"anchor\":"] {
            if let Some(at) = out.find(key) {
                let start = at + key.len();
                let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
                out.replace_range(start..start + digits, "0");
            }
        }
        out
    }

    #[test]
    fn span_log_lines_match_the_recorded_fixture() {
        let path = std::env::temp_dir()
            .join(format!("mbe-span-fixture-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let log = SpanLog::create(&path, 42).unwrap();
        log.coord_start(3, 2);
        let s1 = log.dispatch(0, 0, 0);
        let s2 = log.dispatch(1, 0, 1);
        log.retry(1, 0);
        log.resteal(1, 1);
        let s3 = log.dispatch(1, 1, 0);
        log.merge(0, 0, s1, 10);
        log.merge(1, 1, s3, 5);
        log.discard(1, 0, s2);
        log.speculate(2, 0);
        let s4 = log.dispatch(2, 0, 1);
        log.discard(2, 0, s4);
        log.fallback(1);
        log.coord_end("completed", 1, 1, 1, true);
        assert!(log.take_error().is_none());
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<String> = text.lines().map(zero_clock).collect();
        let expected: Vec<&str> = include_str!("../tests/data/coord_span.jsonl").lines().collect();
        assert_eq!(lines, expected);
    }
}
