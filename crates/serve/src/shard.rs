//! Shard lifecycle bookkeeping for the coordinator's scatter/gather.
//!
//! A [`ShardBoard`] tracks one distributed query: each shard is a
//! checkpoint frontier cut from the whole run, and moves through
//! pending → running → done with retries, re-steals, and speculative
//! duplicates in between. Correctness rests on two rules, both enforced
//! under the board's single lock:
//!
//! - **Epochs.** Every shard carries an epoch, bumped whenever its
//!   checkpoint advances (a re-steal merged a partial result and kept the
//!   returned remaining-frontier checkpoint). An attempt records the
//!   epoch it popped; any outcome reported under a stale epoch is
//!   discarded, because the shard's accumulated partial already covers
//!   (at least) what that attempt started from.
//! - **First writer wins.** The first accepted completion marks the shard
//!   done; later completions of speculative duplicates are discarded
//!   whole, so the merged result is duplicate-free by construction.
//!
//! Merging a shard's accumulated partial with its completing attempt's
//! output is exact, not heuristic: a stopped run's output and its
//! checkpoint-resumed remainder are disjoint and together equal the
//! shard's complete output (the checkpoint contract, property-tested in
//! `mbe/tests/shard.rs`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mbe::{Biclique, Checkpoint};

/// One shard's state.
struct Slot {
    /// The frontier this shard still has to enumerate.
    checkpoint: Checkpoint,
    /// Bumped on every checkpoint advance; stale attempts are discarded.
    epoch: u32,
    /// Failed attempts so far (exhaustion strands the shard).
    attempts: u32,
    /// Attempts currently in flight (speculation allows more than one).
    running: u32,
    /// Results merged from earlier partial (re-stolen) attempts.
    partial: Vec<Biclique>,
    /// Emission count of the accumulated partial.
    partial_emitted: u64,
    /// Set once a completion (or a local-fallback claim) was accepted.
    done: bool,
    /// When the most recent attempt started (speculation straggler scan).
    started: Option<Instant>,
    /// Epoch already speculatively duplicated, to cap duplication at one.
    speculated_epoch: Option<u32>,
}

/// Counters the coordinator reports as distribution provenance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BoardCounters {
    pub(crate) retries: u32,
    pub(crate) resteals: u32,
    pub(crate) speculated: u32,
}

struct BoardState {
    slots: Vec<Slot>,
    /// FIFO of (shard index, epoch) entries ready to run.
    ready: VecDeque<(usize, u32)>,
    /// Shards that exhausted their attempt budget, awaiting fallback.
    stranded: Vec<usize>,
    done_count: usize,
    aborted: bool,
    /// Merged output of accepted completions.
    bicliques: Vec<Biclique>,
    emitted: u64,
    counters: BoardCounters,
    /// Wall-clock of accepted completions, for the straggler threshold.
    durations: Vec<Duration>,
    /// Bumped with every wake-up, so the main loop can tell whether the
    /// board moved since it last looked (see [`ShardBoard::changes`]).
    changes: u64,
}

/// What became of a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailDisposition {
    /// Re-queued for another attempt.
    Requeued,
    /// Attempt budget exhausted; parked for fallback.
    Stranded,
    /// The shard advanced (or finished) since this attempt started.
    Stale,
}

/// Shared state of one distributed query's shards.
pub(crate) struct ShardBoard {
    state: Mutex<BoardState>,
    cv: Condvar,
    max_attempts: u32,
}

impl ShardBoard {
    pub(crate) fn new(shards: Vec<Checkpoint>, max_attempts: u32) -> Self {
        let ready = (0..shards.len()).map(|i| (i, 0)).collect();
        let slots = shards
            .into_iter()
            .map(|checkpoint| Slot {
                checkpoint,
                epoch: 0,
                attempts: 0,
                running: 0,
                partial: Vec::new(),
                partial_emitted: 0,
                done: false,
                started: None,
                speculated_epoch: None,
            })
            .collect();
        ShardBoard {
            state: Mutex::new(BoardState {
                slots,
                ready,
                stranded: Vec::new(),
                done_count: 0,
                aborted: false,
                bicliques: Vec::new(),
                emitted: 0,
                counters: BoardCounters::default(),
                durations: Vec::new(),
                changes: 0,
            }),
            cv: Condvar::new(),
            max_attempts: max_attempts.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a change and wakes every waiter. Called under the lock.
    fn notify(&self, st: &mut BoardState) {
        st.changes += 1;
        self.cv.notify_all();
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.lock().slots.len()
    }

    /// Blocks until a shard is ready, the board finishes, or it aborts.
    /// Returns the shard's index, the epoch this attempt runs under, the
    /// attempt's own start time (thread it back through
    /// [`ShardBoard::complete`] so the recorded shard duration is the
    /// accepted attempt's, not the latest dispatch's), and a clone of
    /// the shard's current checkpoint.
    pub(crate) fn next(&self) -> Option<(usize, u32, Instant, Checkpoint)> {
        let mut st = self.lock();
        loop {
            if st.aborted || st.done_count == st.slots.len() {
                return None;
            }
            while let Some((idx, epoch)) = st.ready.pop_front() {
                let stale = {
                    let slot = &st.slots[idx];
                    slot.done || slot.epoch != epoch
                };
                if stale {
                    continue;
                }
                let started = Instant::now();
                let slot = &mut st.slots[idx];
                slot.running += 1;
                slot.started = Some(started);
                // xtask-allow: hot-alloc-loop (one clone per shard dispatch, then returns)
                return Some((idx, epoch, started, slot.checkpoint.clone()));
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// An attempt finished its whole shard. Accepted only if the shard is
    /// not already done and the epoch still matches (first writer wins);
    /// an accepted completion merges the shard's accumulated partial.
    /// `started` is the accepting attempt's own dispatch time from
    /// [`ShardBoard::next`] — a speculative duplicate resets the slot's
    /// `started`, so measuring from the slot would clock the latest
    /// attempt, skew the p99 low, and over-trigger speculation.
    pub(crate) fn complete(
        &self,
        idx: usize,
        epoch: u32,
        started: Instant,
        bicliques: Vec<Biclique>,
        emitted: u64,
    ) -> bool {
        let mut st = self.lock();
        let accepted = {
            let slot = &mut st.slots[idx];
            slot.running = slot.running.saturating_sub(1);
            if slot.done || slot.epoch != epoch {
                false
            } else {
                slot.done = true;
                true
            }
        };
        if accepted {
            let (partial, partial_emitted) = {
                let slot = &mut st.slots[idx];
                (std::mem::take(&mut slot.partial), std::mem::take(&mut slot.partial_emitted))
            };
            st.bicliques.extend(partial);
            st.bicliques.extend(bicliques);
            st.emitted += partial_emitted + emitted;
            st.durations.push(started.elapsed());
            st.done_count += 1;
            // A straggler that strands on its own failures can still be
            // completed by a running speculative duplicate; a completed
            // shard must not trip the degraded fallback.
            st.stranded.retain(|&i| i != idx);
        }
        self.notify(&mut st);
        accepted
    }

    /// An attempt came back stopped-but-checkpointed (worker panicked or
    /// was shut down mid-shard): bank its partial output, advance the
    /// shard to the returned remaining-frontier checkpoint, bump the
    /// epoch, and re-queue — the re-steal. Returns `false` (and merges
    /// nothing) for stale or already-done shards.
    pub(crate) fn resteal(
        &self,
        idx: usize,
        epoch: u32,
        remaining: Checkpoint,
        partial: Vec<Biclique>,
        partial_emitted: u64,
    ) -> bool {
        let mut st = self.lock();
        let slot = &mut st.slots[idx];
        slot.running = slot.running.saturating_sub(1);
        if slot.done || slot.epoch != epoch {
            self.notify(&mut st);
            return false;
        }
        slot.partial.extend(partial);
        slot.partial_emitted += partial_emitted;
        slot.checkpoint = remaining;
        slot.epoch += 1;
        let entry = (idx, slot.epoch);
        st.ready.push_back(entry);
        st.counters.resteals += 1;
        // The shard is pending again with an advanced checkpoint — it is
        // no longer waiting on the fallback ladder.
        st.stranded.retain(|&i| i != idx);
        self.notify(&mut st);
        true
    }

    /// An attempt failed without yielding anything (connect refused, I/O
    /// error, busy rejection). The shard's record is untouched — nothing
    /// was merged, so re-running the same checkpoint is duplicate-free.
    /// `lost_mid_run` distinguishes a worker lost after the shard was
    /// dispatched (counted as a re-steal) from one never reached
    /// (counted as a retry).
    pub(crate) fn fail(&self, idx: usize, epoch: u32, lost_mid_run: bool) -> FailDisposition {
        let mut st = self.lock();
        let disposition = {
            let slot = &mut st.slots[idx];
            slot.running = slot.running.saturating_sub(1);
            if slot.done || slot.epoch != epoch {
                FailDisposition::Stale
            } else {
                slot.attempts += 1;
                if slot.attempts >= self.max_attempts {
                    FailDisposition::Stranded
                } else {
                    FailDisposition::Requeued
                }
            }
        };
        match disposition {
            FailDisposition::Stale => {}
            FailDisposition::Stranded => {
                st.stranded.push(idx);
                bump_fail_counter(&mut st.counters, lost_mid_run);
            }
            FailDisposition::Requeued => {
                st.ready.push_back((idx, epoch));
                bump_fail_counter(&mut st.counters, lost_mid_run);
            }
        }
        self.notify(&mut st);
        disposition
    }

    /// Aborts the board: `next` returns `None` and driver threads drain.
    pub(crate) fn abort(&self) {
        let mut st = self.lock();
        st.aborted = true;
        self.notify(&mut st);
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.lock().aborted
    }

    /// `true` once every shard is done (completed or claimed).
    pub(crate) fn finished(&self) -> bool {
        let st = self.lock();
        st.done_count == st.slots.len()
    }

    pub(crate) fn has_stranded(&self) -> bool {
        !self.lock().stranded.is_empty()
    }

    /// The change counter: read it before inspecting the board, then
    /// hand it to [`ShardBoard::wait_for_change`].
    pub(crate) fn changes(&self) -> u64 {
        self.lock().changes
    }

    /// Waits up to `dur` for board activity (a completion, failure, or
    /// abort) after the counter read `seen` — the main loop's pacing
    /// primitive. Returns at once if the board already moved, so a change
    /// that lands between the caller's checks and this wait is not lost.
    pub(crate) fn wait_for_change(&self, seen: u64, dur: Duration) {
        let st = self.lock();
        let _ = self.cv.wait_timeout_while(st, dur, |st| st.changes == seen);
    }

    /// Claims every not-yet-done shard for local execution: bumps epochs
    /// (stale-ing any in-flight attempt), marks them done, and returns
    /// their checkpoints plus banked partials. Returns `None` when
    /// nothing is pending. In-flight attempts finishing later are
    /// harmless: their shard is done and their epoch stale, so their
    /// output is discarded whole.
    pub(crate) fn claim_pending(&self) -> Option<(Vec<Checkpoint>, Vec<Biclique>, u64)> {
        let mut st = self.lock();
        let pending: Vec<usize> = (0..st.slots.len()).filter(|&i| !st.slots[i].done).collect();
        if pending.is_empty() {
            return None;
        }
        let mut checkpoints = Vec::with_capacity(pending.len());
        let mut partials = Vec::new();
        let mut partial_emitted = 0;
        for i in pending {
            let slot = &mut st.slots[i];
            slot.epoch += 1;
            slot.done = true;
            st.done_count += 1;
            // xtask-allow: hot-alloc-loop (once per claimed shard, on the fallback path)
            checkpoints.push(st.slots[i].checkpoint.clone());
            partials.extend(std::mem::take(&mut st.slots[i].partial));
            partial_emitted += std::mem::take(&mut st.slots[i].partial_emitted);
        }
        st.ready.clear();
        st.stranded.clear();
        self.notify(&mut st);
        Some((checkpoints, partials, partial_emitted))
    }

    /// Merges a locally-executed remainder into the board's accumulators.
    pub(crate) fn merge_local(&self, bicliques: Vec<Biclique>, emitted: u64) {
        let mut st = self.lock();
        st.bicliques.extend(bicliques);
        st.emitted += emitted;
    }

    /// The straggler threshold's base: the p99 completion time, available
    /// once at least five shards have completed.
    pub(crate) fn p99_duration(&self) -> Option<Duration> {
        let st = self.lock();
        if st.durations.len() < 5 {
            return None;
        }
        let mut sorted = st.durations.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() * 99) / 100;
        sorted.get(idx.min(sorted.len() - 1)).copied()
    }

    /// Duplicates running shards whose current attempt has exceeded
    /// `threshold` (at most one duplicate per epoch). Returns the
    /// `(shard index, epoch)` pairs speculated this scan, so the caller
    /// can log them.
    pub(crate) fn speculate_stragglers(&self, threshold: Duration) -> Vec<(usize, u32)> {
        let mut st = self.lock();
        let mut launched = Vec::new();
        for i in 0..st.slots.len() {
            let entry = {
                let slot = &st.slots[i];
                let overdue =
                    slot.started.is_some_and(|t| t.elapsed() > threshold) && slot.running > 0;
                if slot.done || !overdue || slot.speculated_epoch == Some(slot.epoch) {
                    None
                } else {
                    Some((i, slot.epoch))
                }
            };
            if let Some((idx, epoch)) = entry {
                st.slots[idx].speculated_epoch = Some(epoch);
                st.ready.push_back((idx, epoch));
                st.counters.speculated += 1;
                // xtask-allow: hot-alloc-loop (speculation is rare; the common empty scan never allocates)
                launched.push((idx, epoch));
            }
        }
        if !launched.is_empty() {
            self.notify(&mut st);
        }
        launched
    }

    /// Consumes the board, returning the merged output and counters.
    pub(crate) fn finish(self) -> (Vec<Biclique>, u64, BoardCounters) {
        let st = self.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        (st.bicliques, st.emitted, st.counters)
    }
}

fn bump_fail_counter(counters: &mut BoardCounters, lost_mid_run: bool) {
    if lost_mid_run {
        counters.resteals += 1;
    } else {
        counters.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbe::checkpoint::initial_checkpoint;
    use mbe::{Algorithm, MbeOptions};

    fn shards(k: usize) -> Vec<Checkpoint> {
        let g = bigraph::BipartiteGraph::from_edges(
            6,
            6,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)],
        )
        .unwrap();
        initial_checkpoint(&g, &MbeOptions::new(Algorithm::Mbet)).split(&g, k).unwrap()
    }

    fn b(u: u32, v: u32) -> Biclique {
        Biclique::new(vec![u], vec![v])
    }

    #[test]
    fn first_writer_wins_and_stale_epochs_are_discarded() {
        let board = ShardBoard::new(shards(2), 4);
        let (i0, e0, t0, _c) = board.next().unwrap();
        assert!(board.complete(i0, e0, t0, vec![b(0, 0)], 1));
        assert!(!board.complete(i0, e0, t0, vec![b(9, 9)], 1), "duplicate completion discarded");

        let (i1, e1, t1, _c) = board.next().unwrap();
        // A re-steal advances the epoch; the pre-steal attempt is stale.
        let (_, _, remaining) = {
            let st = board.lock();
            (0, 0, st.slots[i1].checkpoint.clone())
        };
        assert!(board.resteal(i1, e1, remaining, vec![b(1, 1)], 1));
        assert!(!board.complete(i1, e1, t1, vec![b(2, 2)], 1), "stale attempt rejected");
        let (i1b, e1b, t1b, _c) = board.next().unwrap();
        assert_eq!(i1b, i1);
        assert!(board.complete(i1b, e1b, t1b, vec![b(3, 3)], 1));
        assert!(board.finished());

        let (bicliques, emitted, counters) = board.finish();
        assert_eq!(emitted, 3, "partial + completing attempt both counted");
        assert_eq!(bicliques.len(), 3);
        assert!(bicliques.contains(&b(1, 1)), "re-stolen partial banked");
        assert!(!bicliques.contains(&b(2, 2)), "stale output never merged");
        assert_eq!(counters.resteals, 1);
    }

    #[test]
    fn failures_requeue_then_strand_and_claim_collects_the_rest() {
        let board = ShardBoard::new(shards(3), 2);
        let (i, e, _t, _c) = board.next().unwrap();
        assert_eq!(board.fail(i, e, false), FailDisposition::Requeued);
        // The requeued entry comes back (possibly after the other shards).
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (idx, ep, _t, _c) = board.next().unwrap();
            seen.push((idx, ep));
        }
        let again = seen.iter().find(|(idx, _)| *idx == i).expect("requeued shard reappears");
        assert_eq!(board.fail(again.0, again.1, true), FailDisposition::Stranded);
        assert!(board.has_stranded());

        let (ckpts, partials, partial_emitted) = board.claim_pending().unwrap();
        assert_eq!(ckpts.len(), 3, "all shards still pending were claimed");
        assert!(partials.is_empty());
        assert_eq!(partial_emitted, 0);
        assert!(board.finished(), "claim marks shards done");
        assert!(board.next().is_none());

        board.merge_local(vec![b(7, 7)], 1);
        let (bicliques, emitted, counters) = board.finish();
        assert_eq!(bicliques, vec![b(7, 7)]);
        assert_eq!(emitted, 1);
        assert_eq!(counters.retries, 1);
        assert_eq!(counters.resteals, 1, "mid-run loss counted as a re-steal");
    }

    #[test]
    fn speculation_duplicates_a_straggler_once_per_epoch() {
        let board = ShardBoard::new(shards(1), 4);
        let (i, e, t, _c) = board.next().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(board.speculate_stragglers(Duration::ZERO), vec![(i, e)]);
        assert!(board.speculate_stragglers(Duration::ZERO).is_empty(), "once per epoch");
        let (i2, e2, t2, _c) = board.next().unwrap();
        assert_eq!((i2, e2), (i, e), "duplicate runs the same epoch");
        assert!(board.complete(i, e, t, vec![b(0, 0)], 1));
        assert!(!board.complete(i2, e2, t2, vec![b(0, 0)], 1), "loser discarded");
        let (bicliques, _, counters) = board.finish();
        assert_eq!(bicliques.len(), 1, "no duplicates from speculation");
        assert_eq!(counters.speculated, 1);
    }

    #[test]
    fn completion_duration_is_the_accepted_attempts_own() {
        let board = ShardBoard::new(shards(1), 4);
        let (i, e, t, _c) = board.next().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // A speculative duplicate resets the slot's latest-dispatch time…
        assert_eq!(board.speculate_stragglers(Duration::ZERO).len(), 1);
        let (_i2, _e2, t2, _c) = board.next().unwrap();
        assert!(t2 > t);
        // …but the first attempt completes, and the recorded duration is
        // measured from *its* start, not the duplicate's.
        assert!(board.complete(i, e, t, vec![b(0, 0)], 1));
        let recorded = board.lock().durations[0];
        assert!(
            recorded >= Duration::from_millis(20),
            "duration must cover the accepted attempt's full run, got {recorded:?}"
        );
    }

    #[test]
    fn completion_and_resteal_unstrand_a_shard() {
        let board = ShardBoard::new(shards(1), 1);
        let (i, e, t, _c) = board.next().unwrap();
        // The only attempt budget is spent: the shard strands while a
        // speculative duplicate (same epoch) is still out.
        assert_eq!(board.fail(i, e, false), FailDisposition::Stranded);
        assert!(board.has_stranded());
        assert!(board.complete(i, e, t, vec![b(0, 0)], 1));
        assert!(!board.has_stranded(), "a completed shard must not trip the fallback ladder");
        assert!(board.finished());

        // Same shape, but the straggling duplicate comes back with a
        // checkpointed partial: the re-steal re-queues the shard, so it
        // is pending again — not stranded.
        let board = ShardBoard::new(shards(1), 1);
        let (i, e, _t, c) = board.next().unwrap();
        assert_eq!(board.fail(i, e, false), FailDisposition::Stranded);
        assert!(board.has_stranded());
        assert!(board.resteal(i, e, c, vec![b(1, 1)], 1));
        assert!(!board.has_stranded(), "a re-queued shard is pending, not stranded");
    }

    #[test]
    fn wait_for_change_sees_a_change_made_before_it_waits() {
        let board = ShardBoard::new(shards(1), 4);
        let (i, e, t, _c) = board.next().unwrap();
        let seen = board.changes();
        assert!(board.complete(i, e, t, vec![b(0, 0)], 1));
        let waited = Instant::now();
        board.wait_for_change(seen, Duration::from_secs(5));
        assert!(
            waited.elapsed() < Duration::from_secs(1),
            "a completion before the wait must not be slept through, waited {:?}",
            waited.elapsed()
        );
    }

    #[test]
    fn abort_drains_next() {
        let board = ShardBoard::new(shards(2), 4);
        board.abort();
        assert!(board.next().is_none());
        assert!(board.is_aborted());
    }
}
