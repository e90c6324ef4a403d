//! Biclique consumers.
//!
//! Engines hand each maximal biclique to a [`BicliqueSink`] as a pair of
//! sorted id slices — no allocation per emission. Sinks decide what to
//! keep: everything ([`CollectSink`]), a count ([`CountSink`]), a
//! compressed prefix-tree store ([`TrieSink`], the MBET/MBETM output
//! representation), or a user callback ([`FnSink`]).

use std::ops::ControlFlow;

use ptree::RTrie;

use crate::run::StopReason;

/// Sink verdict: keep enumerating.
pub const CONTINUE: ControlFlow<StopReason> = ControlFlow::Continue(());

/// Sink verdict: stop the run; the report will say
/// [`StopReason::SinkStopped`].
pub const STOP: ControlFlow<StopReason> = ControlFlow::Break(StopReason::SinkStopped);

/// One maximal biclique, with both sides sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Biclique {
    /// The `U`-side vertices.
    pub left: Vec<u32>,
    /// The `V`-side vertices.
    pub right: Vec<u32>,
}

impl Biclique {
    /// Builds a biclique from unsorted id lists.
    pub fn new(mut left: Vec<u32>, mut right: Vec<u32>) -> Self {
        left.sort_unstable();
        right.sort_unstable();
        Biclique { left, right }
    }

    /// `|L| + |R|`.
    pub fn size(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Number of edges covered, `|L| · |R|`.
    pub fn edges(&self) -> usize {
        self.left.len() * self.right.len()
    }
}

/// Receives maximal bicliques as they are found.
///
/// # Contract
///
/// - **Exactly once.** For a run that completes, `emit` is called exactly
///   once per maximal biclique `(L, R)` of the graph with both sides
///   non-empty. A stopped run calls it for a duplicate-free subset —
///   never twice for the same biclique, at any thread count.
/// - **Input-id space.** Both slices are sorted ascending and use the
///   caller's original vertex ids: the engines un-apply any internal
///   [`VertexOrder`] permutation as they build the slices. (An engine
///   built directly with `MbetEngine::new` or `BaselineEngine::new`
///   emits the ids of the graph it was given.)
/// - **Ids only when read.** A sink whose [`reads_ids`] returns `false`
///   is handed two empty slices per biclique: the engines skip building
///   them. It still gets exactly one call per biclique, with the same
///   verdict semantics.
/// - **Stop semantics.** Returning `ControlFlow::Break(reason)` requests
///   a stop; the driver records the *first* break as the run's
///   [`StopReason`] and the emission that returned it is **not** counted
///   in `Stats::emitted`. A one-worker run stops before any further
///   emission; threaded workers observe the stop at their next emission
///   or idle check. Either way the remaining tasks are drained into the
///   checkpoint without running them. User sinks should break with [`StopReason::SinkStopped`] (the
///   [`STOP`] constant); [`TrieSink::with_node_limit`] breaks with
///   [`StopReason::NodeBudget`].
/// - **Break verdicts are undelivered.** An emission whose `emit` call
///   returned `Break` is treated as *not delivered*: it is excluded from
///   `Stats::emitted`, and the enumeration node that produced it is
///   captured in the run's [`Checkpoint`], so a resumed run re-delivers
///   exactly that biclique (and everything after it) exactly once. A
///   sink that does real work on a `Break`-returning call must make that
///   work idempotent.
/// - **Borrowed slices.** The slices are only valid for the duration of
///   the call; copy what you keep.
///
/// [`Checkpoint`]: crate::Checkpoint
/// [`VertexOrder`]: bigraph::order::VertexOrder
/// [`reads_ids`]: BicliqueSink::reads_ids
pub trait BicliqueSink {
    /// Called once per maximal biclique. Both slices are sorted
    /// ascending. Return [`CONTINUE`] to keep enumerating or
    /// `ControlFlow::Break(reason)` to stop the run.
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason>;

    /// Whether [`emit`](Self::emit) reads the vertex ids it is handed.
    /// `false` lets the engines skip translating and sorting them, and
    /// pass empty slices instead. The engines ask once per task, so the
    /// answer must not change during a run. A sink that wraps another
    /// forwards its answer. Defaults to `true`.
    fn reads_ids(&self) -> bool {
        true
    }
}

/// Collects every biclique into a vector.
#[derive(Default)]
pub struct CollectSink {
    items: Vec<Biclique>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected bicliques, in emission order.
    pub fn into_vec(self) -> Vec<Biclique> {
        self.items
    }

    /// Number collected so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl BicliqueSink for CollectSink {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        self.items.push(Biclique { left: left.to_vec(), right: right.to_vec() });
        CONTINUE
    }
}

/// Counts bicliques without storing them.
#[derive(Default)]
pub struct CountSink {
    n: u64,
}

impl CountSink {
    /// Number of bicliques seen.
    pub fn count(&self) -> u64 {
        self.n
    }
}

impl BicliqueSink for CountSink {
    fn emit(&mut self, _left: &[u32], _right: &[u32]) -> ControlFlow<StopReason> {
        self.n += 1;
        CONTINUE
    }

    /// A count needs no ids.
    fn reads_ids(&self) -> bool {
        false
    }
}

/// Stores the `R`-sets of emitted bicliques in a prefix tree — the
/// compressed output representation behind MBET's space bound.
///
/// Three modes:
/// - [`TrieSink::unbounded`]: plain MBET store, never stops the run.
/// - [`TrieSink::with_node_budget`]: MBETM mode — the trie *evicts* to
///   stay within the budget (counts stay accurate, membership becomes
///   best-effort) and the run continues.
/// - [`TrieSink::with_node_limit`]: strict mode — once the trie exceeds
///   the limit the sink stops the run with [`StopReason::NodeBudget`],
///   folding the trie budget into the run-control vocabulary.
pub struct TrieSink {
    trie: RTrie,
    duplicates: u64,
    node_limit: Option<usize>,
}

impl TrieSink {
    /// Unbounded store (MBET mode).
    pub fn unbounded() -> Self {
        TrieSink { trie: RTrie::new(), duplicates: 0, node_limit: None }
    }

    /// Node-budgeted store (MBETM mode): evicts to stay within
    /// `max_nodes`, never stops the run.
    pub fn with_node_budget(max_nodes: usize) -> Self {
        TrieSink { trie: RTrie::with_node_budget(max_nodes), duplicates: 0, node_limit: None }
    }

    /// Strict node-limited store: stops the run with
    /// [`StopReason::NodeBudget`] at the first emission after the trie
    /// exceeds `max_nodes` (the overflowing set itself is stored, so
    /// `Stats::emitted` always equals the number of sets stored).
    pub fn with_node_limit(max_nodes: usize) -> Self {
        TrieSink { trie: RTrie::new(), duplicates: 0, node_limit: Some(max_nodes) }
    }

    /// The underlying trie.
    pub fn trie(&self) -> &RTrie {
        &self.trie
    }

    /// Consumes the sink, returning the trie.
    pub fn into_trie(self) -> RTrie {
        self.trie
    }

    /// Emissions whose `R`-set was already present. Always 0 for a
    /// correct engine with an unbounded trie — asserted in tests.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

impl BicliqueSink for TrieSink {
    fn emit(&mut self, _left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        if let Some(limit) = self.node_limit {
            if self.trie.node_count() > limit {
                return ControlFlow::Break(StopReason::NodeBudget);
            }
        }
        if self.trie.insert(right) == ptree::rtrie::Insert::Duplicate {
            self.duplicates += 1;
        }
        CONTINUE
    }
}

/// Adapts a closure into a sink. Return [`CONTINUE`] to keep going,
/// [`STOP`] (or any `ControlFlow::Break(reason)`) to stop the run.
pub struct FnSink<F: FnMut(&[u32], &[u32]) -> ControlFlow<StopReason>>(pub F);

impl<F: FnMut(&[u32], &[u32]) -> ControlFlow<StopReason>> BicliqueSink for FnSink<F> {
    fn emit(&mut self, left: &[u32], right: &[u32]) -> ControlFlow<StopReason> {
        (self.0)(left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biclique_new_sorts() {
        let b = Biclique::new(vec![3, 1], vec![9, 2, 5]);
        assert_eq!(b.left, [1, 3]);
        assert_eq!(b.right, [2, 5, 9]);
        assert_eq!(b.size(), 5);
        assert_eq!(b.edges(), 6);
    }

    #[test]
    fn collect_and_count() {
        let mut c = CollectSink::new();
        assert!(c.emit(&[0], &[1, 2]).is_continue());
        assert!(c.emit(&[1], &[2]).is_continue());
        assert_eq!(c.len(), 2);
        let v = c.into_vec();
        assert_eq!(v[0].right, [1, 2]);

        let mut n = CountSink::default();
        assert!(n.emit(&[0], &[0]).is_continue());
        assert!(n.emit(&[0], &[1]).is_continue());
        assert_eq!(n.count(), 2);
    }

    #[test]
    fn trie_sink_detects_duplicates() {
        let mut t = TrieSink::unbounded();
        assert!(t.emit(&[0], &[1, 2]).is_continue());
        assert!(t.emit(&[0], &[1, 3]).is_continue());
        assert_eq!(t.duplicates(), 0);
        assert!(t.emit(&[9], &[1, 2]).is_continue());
        assert_eq!(t.duplicates(), 1);
        assert_eq!(t.trie().len(), 2);
    }

    #[test]
    fn trie_sink_node_limit_stops_with_node_budget() {
        let mut t = TrieSink::with_node_limit(2);
        assert!(t.emit(&[0], &[1, 2]).is_continue());
        // The trie now holds 2 nodes; the next emission may still be
        // admitted or may break, depending on the overshoot — pile on
        // until it breaks and check the reason.
        let mut stopped = None;
        for r in 3..20u32 {
            if let ControlFlow::Break(reason) = t.emit(&[0], &[1, r]) {
                stopped = Some(reason);
                break;
            }
        }
        assert_eq!(stopped, Some(StopReason::NodeBudget));
        assert!(!t.trie().is_empty());
    }

    #[test]
    fn trie_sink_evicting_budget_never_stops() {
        let mut t = TrieSink::with_node_budget(2);
        for r in 0..20u32 {
            assert!(t.emit(&[0], &[r, r + 100]).is_continue());
        }
        assert_eq!(t.trie().total_new(), 20);
    }

    #[test]
    fn fn_sink_stop_propagates() {
        let mut count = 0;
        let mut s = FnSink(|_l: &[u32], _r: &[u32]| {
            count += 1;
            if count < 2 {
                CONTINUE
            } else {
                STOP
            }
        });
        assert!(s.emit(&[], &[]).is_continue());
        assert_eq!(s.emit(&[], &[]), ControlFlow::Break(StopReason::SinkStopped));
    }

    #[test]
    fn only_a_count_reads_no_ids() {
        assert!(!CountSink::default().reads_ids());
        assert!(CollectSink::new().reads_ids());
        assert!(TrieSink::unbounded().reads_ids());
        assert!(FnSink(|_: &[u32], _: &[u32]| CONTINUE).reads_ids());
        let theta = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        assert!(crate::extremal::TopKSink::new(3, theta).reads_ids());
    }

    #[test]
    fn adapters_forward_reads_ids_and_the_stop_verdict() {
        let control = crate::RunControl::new();
        let state = crate::run::ControlState::with_obs(&control, crate::obs::ObsCtx::noop());
        let mut count = CountSink::default();
        let mut rec = crate::obs::RecordingSink::new(&mut count, crate::obs::ObsCtx::noop());
        assert!(!rec.reads_ids());
        let ctl = crate::run::ControlledSink::new(&state, &mut rec);
        assert!(!ctl.reads_ids());

        let mut stop = FnSink(|_: &[u32], _: &[u32]| STOP);
        let mut rec = crate::obs::RecordingSink::new(&mut stop, crate::obs::ObsCtx::noop());
        assert!(rec.reads_ids());
        let mut ctl = crate::run::ControlledSink::new(&state, &mut rec);
        assert!(ctl.reads_ids());
        assert_eq!(ctl.emit(&[0], &[1]), ControlFlow::Break(StopReason::SinkStopped));
        assert_eq!(state.stopped(), Some(StopReason::SinkStopped));
    }
}
