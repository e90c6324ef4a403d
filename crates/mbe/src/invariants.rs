//! Runtime invariant verifier, compiled in by the `debug-invariants`
//! cargo feature.
//!
//! The enumeration engines lean on structural invariants that ordinary
//! unit tests only probe pointwise: every node's `L` is the exact common
//! neighborhood of its `R'`, trie keys are strictly increasing local-id
//! subsets of their node's `L`, every per-root localization relabels
//! consistently (sorted id maps, rows matching the global
//! intersections), every word-mode key
//! equals the key its localized row gives, the `Scratch` arenas hand
//! out non-overlapping spans, every excluded key a full-body node drops
//! is contained in one it keeps, the counter identity
//! `nodes = emitted + nonmaximal + undersized` closes for every engine,
//! the pool drains its `pending` ledger, a threaded run searches exactly
//! the one-worker run's tree, and a stopped (cancelled / budgeted /
//! expired) run's collected output is a duplicate-free subset of the
//! complete run's. With the feature enabled, each of those is
//! asserted *during* every run — on every node, every key, every drain.
//! Without it, every function here is an empty `#[inline(always)]` stub
//! and the hot paths compile exactly as before.
//!
//! Run the full suite under the verifier with:
//!
//! ```text
//! cargo test -p mbe --features debug-invariants
//! ```
//!
//! The checks deliberately trade speed for strength (the per-node `L`
//! re-derivation is `O(Σ_{r∈R'} deg(r))`, and every threaded run is
//! re-counted on one worker); the feature is a correctness instrument,
//! never a production default.

use crate::metrics::Stats;
use bigraph::BipartiteGraph;

/// `true` iff the verifier is compiled in.
pub const ENABLED: bool = cfg!(feature = "debug-invariants");

/// Asserts the defining node invariant at an emission point: `l` is
/// non-empty, strictly increasing (sorted + deduped), and equals the
/// common neighborhood `∩_{r ∈ r_new} N(r)` of the node's `R'`.
#[cfg(feature = "debug-invariants")]
pub fn check_node(g: &BipartiteGraph, l: &[u32], r_new: &[u32]) {
    assert!(!l.is_empty(), "invariant: node emitted with empty L");
    assert!(setops::is_strictly_increasing(l), "invariant: L not sorted/deduped: {l:?}");
    assert!(setops::is_strictly_increasing(r_new), "invariant: R' not sorted/deduped: {r_new:?}");
    let (&r0, rest) = r_new.split_first().expect("R' contains at least the traversed vertex");
    let mut acc: Vec<u32> = g.nbr_v(r0).to_vec();
    let mut tmp = Vec::new();
    for &r in rest {
        setops::intersect_into(&acc, g.nbr_v(r), &mut tmp);
        std::mem::swap(&mut acc, &mut tmp);
    }
    assert_eq!(acc, l, "invariant: L is not the common neighborhood of R' (R' = {r_new:?})");
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_node(_g: &BipartiteGraph, _l: &[u32], _r_new: &[u32]) {}

/// Asserts that a trie key is a strictly increasing sequence of local
/// left ids drawn from the node's `L` (itself a sorted local-id set):
/// every key the localized MBET engine builds must be a subset of the
/// `L` it was keyed against.
#[cfg(feature = "debug-invariants")]
pub fn check_local_key(key: &[u32], l_new: &[u32]) {
    assert!(
        setops::is_strictly_increasing(key),
        "invariant: local key not strictly increasing: {key:?}"
    );
    assert!(
        setops::is_subset(key, l_new),
        "invariant: local key {key:?} escapes the node's L {l_new:?}"
    );
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_local_key(_key: &[u32], _l_new: &[u32]) {}

/// Asserts that the word-mode keys of a node's entries are their
/// row-derived keys: `table` (a word root's `L'` in local left ids, at
/// most 64 of them, strictly increasing) gives bit `i` the vertex
/// `table[i]`, `l` (the node's `L'`) is a non-empty mask inside it, and
/// for every `(v, key)`, `key & l` holds exactly the positions `i ∈ l`
/// with `table[i] ∈ N(v)`, looked up in `v`'s localized row by binary
/// search (independent of the word root's keying).
#[cfg(feature = "debug-invariants")]
pub fn check_word_keys(
    local: &bigraph::LocalGraph,
    table: &[u32],
    l: u64,
    keys: impl IntoIterator<Item = (u32, u64)>,
) {
    assert!(table.len() <= 64, "invariant: word root with {} > 64 positions", table.len());
    assert!(setops::is_strictly_increasing(table), "invariant: word table not sorted: {table:?}");
    let inside = if table.len() == 64 { u64::MAX } else { (1u64 << table.len()) - 1 };
    assert!(l != 0 && l & !inside == 0, "invariant: word L {l:#x} escapes its table {table:?}");
    for (v, key) in keys {
        let row = local.row(v);
        let want = (0..table.len())
            .filter(|&i| l >> i & 1 == 1 && row.binary_search(&table[i]).is_ok())
            .fold(0u64, |m, i| m | 1 << i);
        assert_eq!(
            key & l,
            want,
            "invariant: word key of right vertex {v} is {:#x} under L {l:#x}, its row gives {want:#x}",
            key & l
        );
    }
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_word_keys(
    _local: &bigraph::LocalGraph,
    _table: &[u32],
    _l: u64,
    _keys: impl IntoIterator<Item = (u32, u64)>,
) {
}

/// Asserts the relabeling invariants of a freshly built
/// [`bigraph::LocalGraph`]: sorted id maps, rows strictly increasing
/// inside the left universe, each row equal to a naive oracle of the
/// global intersection it localizes (a binary search of every left
/// vertex in `N(w)`, independent of the scatter that built the row),
/// and the scatter's tag table reset. Called once per localization.
#[cfg(feature = "debug-invariants")]
pub fn check_localization(g: &BipartiteGraph, local: &bigraph::LocalGraph) {
    local.check_consistency(g);
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_localization(_g: &BipartiteGraph, _local: &bigraph::LocalGraph) {}

/// Asserts `Scratch` arena span discipline: every `(start, end)` span is
/// well-formed and in-bounds for an arena of `arena_len` symbols, and two
/// distinct spans never partially overlap (spans may be *identical* —
/// ablation mode shares one key span across a group's singletons — but
/// must otherwise be disjoint).
#[cfg(feature = "debug-invariants")]
pub fn check_spans<I: IntoIterator<Item = (u32, u32)>>(arena_len: usize, spans: I) {
    let mut all: Vec<(u32, u32)> = spans.into_iter().collect();
    for &(s, e) in &all {
        assert!(s <= e, "invariant: inverted span ({s}, {e})");
        assert!(
            e as usize <= arena_len,
            "invariant: span ({s}, {e}) exceeds arena length {arena_len}"
        );
    }
    all.sort_unstable();
    all.dedup();
    for w in all.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            a.1 <= b.0,
            "invariant: distinct arena spans overlap: ({}, {}) vs ({}, {})",
            a.0,
            a.1,
            b.0,
            b.1
        );
    }
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_spans<I: IntoIterator<Item = (u32, u32)>>(_arena_len: usize, _spans: I) {}

/// Asserts that a node's excluded antichain (trie path or word mode)
/// never changes a maximality decision: every dropped key is a subset of
/// some kept key (equality counts), and no kept key is a subset of
/// another, so the kept keys are exactly the maximal distinct ones.
#[cfg(feature = "debug-invariants")]
pub fn check_excluded_antichain<'a>(
    kept: impl IntoIterator<Item = &'a [u32]>,
    dropped: impl IntoIterator<Item = &'a [u32]>,
) {
    let kept: Vec<&[u32]> = kept.into_iter().collect();
    for (i, a) in kept.iter().enumerate() {
        for (j, b) in kept.iter().enumerate() {
            assert!(
                i == j || !setops::is_subset(a, b),
                "invariant: kept excluded key {a:?} is contained in kept key {b:?}"
            );
        }
    }
    for d in dropped {
        assert!(
            kept.iter().any(|k| setops::is_subset(d, k)),
            "invariant: dropped excluded key {d:?} is contained in no kept key"
        );
    }
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_excluded_antichain<'a>(
    _kept: impl IntoIterator<Item = &'a [u32]>,
    _dropped: impl IntoIterator<Item = &'a [u32]>,
) {
}

/// Asserts the cross-engine counter identity `nodes = emitted +
/// nonmaximal + undersized`: every expanded enumeration node either dies
/// at its maximality check, emits exactly one maximal biclique, or (in a
/// thresholded run) holds one whose `R'` is too short to emit. Holds for
/// every engine after any *completed* run (a sink-requested stop leaves
/// one node in flight, so stopped runs are not checked).
#[cfg(feature = "debug-invariants")]
pub fn check_counter_identity(stats: &Stats) {
    assert_eq!(
        stats.nodes,
        stats.emitted + stats.nonmaximal + stats.undersized,
        "invariant: counter identity violated \
         (nodes = {}, emitted = {}, nonmaximal = {}, undersized = {})",
        stats.nodes,
        stats.emitted,
        stats.nonmaximal,
        stats.undersized
    );
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_counter_identity(_stats: &Stats) {}

/// Asserts the pool drained its work ledger: `pending` must be zero once
/// every worker has exited, whether the run stopped or not.
#[cfg(feature = "debug-invariants")]
pub fn check_drained(pending: u64) {
    assert_eq!(pending, 0, "invariant: pool drained with {pending} tasks still pending");
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_drained(_pending: u64) {}

/// The reference run of `opts` over `g`: the pool's one worker, in seed
/// order and unsplit, with no control limits and no observer, replaying
/// `resume` (a checkpoint's frontier) or the root sweep into `sink`.
#[cfg(feature = "debug-invariants")]
fn reference_run<S: crate::BicliqueSink>(
    g: &BipartiteGraph,
    opts: &crate::MbeOptions,
    resume: Option<&[crate::ResumeTask]>,
    sink: &mut S,
) -> crate::parallel::RunOutcome {
    let control = crate::run::RunControl::new();
    let obs = crate::obs::ObsCtx::noop();
    match crate::parallel::run_one(g, opts, &control, resume, obs, sink) {
        Ok(out) => out,
        Err(e) => panic!("invariant: the reference run failed: {e}"),
    }
}

/// End-of-run verification for a completed, threaded, non-resumed run:
/// re-counts the graph on one worker with the same options and asserts
/// the search counters agree — the threaded/one-worker equivalence
/// gate: split or not, a threaded run searches exactly the one-worker
/// run's tree. A top-k run skips the recount: what its bound prunes
/// depends on the order the workers found their incumbents in.
#[cfg(feature = "debug-invariants")]
pub fn check_parallel_run(g: &BipartiteGraph, opts: &crate::MbeOptions, merged: &Stats) {
    if opts.bound.is_top_k() {
        return;
    }
    let one_worker = reference_run(g, opts, None, &mut crate::sink::CountSink::default()).stats;
    let counters = |s: &Stats| {
        let search = [s.nodes, s.nonmaximal, s.emitted, s.batched, s.absorbed];
        (search, [s.word_nodes, s.excluded_keyed, s.excluded_kept, s.undersized])
    };
    assert_eq!(
        counters(merged),
        counters(&one_worker),
        "invariant: a threaded run's search counters ([nodes, nonmaximal, emitted, batched, \
         absorbed], [word_nodes, excluded_keyed, excluded_kept, undersized]) differ from the \
         one-worker run's"
    );
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_parallel_run(_g: &BipartiteGraph, _opts: &crate::MbeOptions, _merged: &Stats) {}

/// Asserts the partial-result guarantee of the run-control plane: a
/// *stopped* run's collected output is a duplicate-free subset of the
/// complete run's output (re-derived on one worker with the same options —
/// the builder's, which carry no bound — and no control limits; a
/// thresholded run's reference is that unbounded run, post-filtered, so
/// the bound is never checked against itself). Completed runs are
/// skipped here — their full equality is
/// covered by the engine differential tests.
///
/// When `checkpoint` is `Some` (a first, non-resumed segment's
/// checkpoint), additionally asserts the resume-union invariant: running
/// the checkpoint's frontier to completion yields a set *disjoint* from
/// `emitted` whose union *equals* the complete run — i.e. the checkpoint
/// loses nothing and duplicates nothing. Post-panic checkpoints
/// (`StopReason::WorkerPanicked`) are exempt: the panicked task is
/// deliberately excluded from the frontier, so the union is a subset.
#[cfg(feature = "debug-invariants")]
pub fn check_stopped_collect(
    g: &BipartiteGraph,
    opts: &crate::MbeOptions,
    thresholds: Option<crate::SizeThresholds>,
    emitted: &[crate::Biclique],
    stop: crate::StopReason,
    checkpoint: Option<&crate::Checkpoint>,
) {
    use std::collections::HashSet;
    if stop.is_complete() {
        return;
    }
    let mut seen: HashSet<&crate::Biclique> = HashSet::with_capacity(emitted.len());
    for b in emitted {
        assert!(seen.insert(b), "invariant: stopped run emitted a duplicate biclique: {b:?}");
    }
    let mut full = crate::sink::CollectSink::new();
    reference_run(g, opts, None, &mut full);
    let complete: HashSet<crate::Biclique> = full
        .into_vec()
        .into_iter()
        .filter(|b| thresholds.is_none_or(|t| b.left.len() >= t.min_l && b.right.len() >= t.min_r))
        .collect();
    for b in emitted {
        assert!(
            complete.contains(b),
            "invariant: stopped run emitted a biclique absent from the complete run: {b:?}"
        );
    }
    let Some(ckpt) = checkpoint else {
        return;
    };
    if ckpt.stop == crate::StopReason::WorkerPanicked {
        return;
    }
    // Resume-union: frontier ∪ emitted = complete, disjointly.
    let mut rest = crate::sink::CollectSink::new();
    let out = reference_run(g, opts, Some(&ckpt.frontier), &mut rest);
    assert!(
        out.stop.is_complete(),
        "invariant: uncontrolled frontier replay stopped ({:?})",
        out.stop
    );
    let mut union: HashSet<crate::Biclique> = HashSet::with_capacity(complete.len());
    for b in emitted.iter().cloned().chain(rest.into_vec()) {
        assert!(
            union.insert(b.clone()),
            "invariant: resume-union duplicate — biclique in both the stopped segment and \
             the frontier replay: {b:?}"
        );
    }
    assert!(
        union.iter().all(|b| complete.contains(b)),
        "invariant: resume-union contains a biclique absent from the complete run"
    );
    assert_eq!(
        union.len(),
        complete.len(),
        "invariant: resume-union misses {} of the complete run's bicliques",
        complete.len() - union.len()
    );
}

/// No-op stub (enable `debug-invariants` for the real check).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn check_stopped_collect(
    _g: &BipartiteGraph,
    _opts: &crate::MbeOptions,
    _thresholds: Option<crate::SizeThresholds>,
    _emitted: &[crate::Biclique],
    _stop: crate::StopReason,
    _checkpoint: Option<&crate::Checkpoint>,
) {
}

#[cfg(all(test, feature = "debug-invariants"))]
mod tests {
    use super::*;

    fn g0() -> BipartiteGraph {
        BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap()
    }

    #[test]
    fn check_node_accepts_true_nodes() {
        // ({u0,u1}, {v0,v1}) is a maximal biclique of g0.
        check_node(&g0(), &[0, 1], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "common neighborhood")]
    fn check_node_rejects_wrong_l() {
        check_node(&g0(), &[0], &[0, 1]); // true L is {u0, u1}
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn check_node_rejects_unsorted_l() {
        check_node(&g0(), &[1, 0], &[0, 1]);
    }

    #[test]
    fn check_local_key_accepts_subsets() {
        check_local_key(&[0, 2, 3], &[0, 1, 2, 3]);
        check_local_key(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn check_local_key_rejects_duplicates() {
        check_local_key(&[1, 1], &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "escapes")]
    fn check_local_key_rejects_non_subset() {
        check_local_key(&[0, 4], &[0, 1, 2, 3]);
    }

    #[test]
    fn check_localization_accepts_fresh_build() {
        let g = g0();
        let mut local = bigraph::LocalGraph::new(setops::Kernel::Adaptive);
        local.localize(&g, g.nbr_v(0), &[0, 1]);
        check_localization(&g, &local);
    }

    #[test]
    fn check_spans_accepts_disjoint_and_identical() {
        check_spans(10, [(0, 3), (3, 5), (5, 10), (0, 3)]);
        check_spans(0, std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn check_spans_rejects_partial_overlap() {
        check_spans(10, [(0, 4), (2, 6)]);
    }

    #[test]
    #[should_panic(expected = "exceeds arena")]
    fn check_spans_rejects_out_of_bounds() {
        check_spans(4, [(2, 6)]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn check_spans_rejects_inverted() {
        check_spans(10, [(4, 2)]);
    }

    #[test]
    fn excluded_antichain_accepts_maximal_keys() {
        let kept: [&[u32]; 2] = [&[0, 1, 2], &[2, 3]];
        let dropped: [&[u32]; 3] = [&[0, 1], &[3], &[0, 1, 2]];
        check_excluded_antichain(kept, dropped);
        check_excluded_antichain(std::iter::empty(), std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "contained in no kept key")]
    fn excluded_antichain_rejects_undominated_drop() {
        let kept: [&[u32]; 1] = [&[0, 1]];
        let dropped: [&[u32]; 1] = [&[1, 2]];
        check_excluded_antichain(kept, dropped);
    }

    #[test]
    #[should_panic(expected = "is contained in kept key")]
    fn excluded_antichain_rejects_nested_kept_keys() {
        let kept: [&[u32]; 2] = [&[1], &[0, 1]];
        check_excluded_antichain(kept, std::iter::empty());
    }

    #[test]
    fn counter_identity_accepts_closed_books() {
        let s = Stats { nodes: 10, emitted: 7, nonmaximal: 3, ..Default::default() };
        check_counter_identity(&s);
    }

    #[test]
    #[should_panic(expected = "counter identity")]
    fn counter_identity_rejects_leak() {
        let s = Stats { nodes: 11, emitted: 7, nonmaximal: 3, ..Default::default() };
        check_counter_identity(&s);
    }

    #[test]
    #[should_panic(expected = "still pending")]
    fn drained_rejects_leftover_pending() {
        check_drained(3);
    }

    #[test]
    fn stopped_collect_accepts_true_subset() {
        let g = g0();
        // ({u0,u1}, {v0,v1}) is a genuine maximal biclique of g0.
        let partial = vec![crate::Biclique { left: vec![0, 1], right: vec![0, 1] }];
        check_stopped_collect(
            &g,
            &crate::MbeOptions::default(),
            None,
            &partial,
            crate::StopReason::EmitBudget,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn stopped_collect_rejects_duplicates() {
        let g = g0();
        let b = crate::Biclique { left: vec![0, 1], right: vec![0, 1] };
        check_stopped_collect(
            &g,
            &crate::MbeOptions::default(),
            None,
            &[b.clone(), b],
            crate::StopReason::Cancelled,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "absent from the complete run")]
    fn stopped_collect_rejects_foreign_biclique() {
        let g = g0();
        // {u0} × {v2} is not even an edge of g0.
        let partial = vec![crate::Biclique { left: vec![0], right: vec![2] }];
        check_stopped_collect(
            &g,
            &crate::MbeOptions::default(),
            None,
            &partial,
            crate::StopReason::Deadline,
            None,
        );
    }

    #[test]
    fn stopped_collect_skips_completed_runs() {
        // A "foreign" biclique passes when the run completed: the check
        // only applies to stopped runs.
        let g = g0();
        let partial = vec![crate::Biclique { left: vec![0], right: vec![2] }];
        check_stopped_collect(
            &g,
            &crate::MbeOptions::default(),
            None,
            &partial,
            crate::StopReason::Completed,
            None,
        );
    }
}
