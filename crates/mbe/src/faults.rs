//! Deterministic fault injection, compiled in by the `fault-injection`
//! cargo feature.
//!
//! The checkpoint/resume and panic-containment machinery only matters
//! when something goes wrong, and "something goes wrong" is hard to
//! produce on demand with real workloads. This module scripts it exactly:
//! a [`FaultPlan`] names the global emission index at which to panic
//! (exercising the pool's `catch_unwind` containment) or to
//! return a sink failure (exercising checkpoint capture), and a
//! [`FaultySink`] wrapped around any real sink carries the plan out.
//!
//! The plan's counter is shared across clones, so per-worker sinks in the
//! pool count emissions *globally* — the fault fires exactly
//! once per run, on whichever worker reaches the scripted index first.
//! That makes fault scripts deterministic in *count* (always exactly one
//! fault after N delivered emissions) even though the parallel emission
//! order is not.
//!
//! Wired into a run via [`crate::Enumeration::faults`]; exercised by
//! `tests/faults.rs`. Never compiled into production builds.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::run::StopReason;
use crate::sink::BicliqueSink;

/// A scripted fault: panic and/or fail the sink at exact emission indices.
///
/// Clones share the underlying counter, so one plan distributed across
/// parallel workers still fires each fault exactly once, at the scripted
/// global index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    counter: Arc<AtomicU64>,
    panic_at: Option<u64>,
    fail_at: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panics inside the sink at emission index `n` (0-based).
    pub fn panic_at(mut self, n: u64) -> Self {
        self.panic_at = Some(n);
        self
    }

    /// Returns a sink-stop verdict at emission index `n` (0-based); the
    /// emission is rejected *before* delivery, so a resumed run delivers
    /// it exactly once.
    pub fn fail_at(mut self, n: u64) -> Self {
        self.fail_at = Some(n);
        self
    }

    /// Claims the next global emission index and carries out any fault
    /// scripted for it.
    fn check(&self) -> ControlFlow<StopReason> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        if self.panic_at == Some(n) {
            panic!("injected fault: scripted panic at emission {n}");
        }
        if self.fail_at == Some(n) {
            return ControlFlow::Break(StopReason::SinkStopped);
        }
        ControlFlow::Continue(())
    }
}

/// A sink wrapper that executes a [`FaultPlan`] before forwarding each
/// emission to `inner`.
#[derive(Debug)]
pub struct FaultySink<S> {
    plan: Option<FaultPlan>,
    inner: S,
}

impl<S> FaultySink<S> {
    /// Wraps `inner`; a `None` plan forwards everything untouched.
    pub fn new(plan: Option<FaultPlan>, inner: S) -> Self {
        FaultySink { plan, inner }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: BicliqueSink> BicliqueSink for FaultySink<S> {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        if let Some(plan) = &self.plan {
            // Faults fire BEFORE the inner sink sees the emission, so a
            // scripted failure leaves the emission undelivered — exactly
            // the contract checkpoint capture relies on.
            plan.check()?;
        }
        self.inner.emit(left, right)
    }

    fn reads_ids(&self) -> bool {
        self.inner.reads_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;

    #[test]
    fn empty_plan_forwards_everything() {
        let mut sink = FaultySink::new(None, CollectSink::new());
        assert!(sink.emit(&[0], &[1]).is_continue());
        assert_eq!(sink.into_inner().into_vec().len(), 1);
    }

    #[test]
    fn fail_at_rejects_before_delivery() {
        let mut sink = FaultySink::new(Some(FaultPlan::new().fail_at(1)), CollectSink::new());
        assert!(sink.emit(&[0], &[0]).is_continue());
        assert_eq!(sink.emit(&[0], &[1]), ControlFlow::Break(StopReason::SinkStopped));
        // The failed emission was never delivered.
        assert_eq!(sink.into_inner().into_vec().len(), 1);
    }

    #[test]
    fn clones_share_the_counter() {
        let plan = FaultPlan::new().fail_at(2);
        let mut a = FaultySink::new(Some(plan.clone()), CollectSink::new());
        let mut b = FaultySink::new(Some(plan), CollectSink::new());
        assert!(a.emit(&[0], &[0]).is_continue()); // index 0
        assert!(b.emit(&[0], &[1]).is_continue()); // index 1
        assert!(a.emit(&[0], &[2]).is_break()); // index 2: fault
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_at_panics() {
        let mut sink = FaultySink::new(Some(FaultPlan::new().panic_at(0)), CollectSink::new());
        let _ = sink.emit(&[0], &[0]);
    }
}
