//! Checkpoint/resume for stopped enumeration runs.
//!
//! When a run ends with a non-[`StopReason::Completed`] reason, the
//! [`crate::Report`] carries a [`Checkpoint`]: the unexplored task
//! frontier (the serial driver's remaining DFS work, or the parallel
//! driver's drained work-stealing deques), the total emitted count so
//! far, and a fingerprint of the input graph. Feeding the checkpoint back
//! through [`crate::Enumeration::resume`] continues the run so that
//!
//! > *resumed output ∪ previously-emitted output = the complete run's
//! > output, duplicate-free*
//!
//! — the invariant asserted continuously under the `debug-invariants`
//! feature and property-tested in `tests/differential.rs`.
//!
//! # On-disk format
//!
//! Checkpoints serialize to a versioned, checksummed byte format with no
//! external dependencies. All integers are little-endian:
//!
//! ```text
//! magic      4 bytes   b"MBCK"
//! version    u32       currently 1
//! fingerprint u64      graph fingerprint (FNV-1a over the CSR edges)
//! algorithm  u8        Algorithm encoding (1..=4)
//! order      u8 + u64  VertexOrder tag + seed (seed 0 unless Random)
//! mbet       u8        MbetConfig bitfield (batching|maximality|absorption)
//! emitted    u64       bicliques delivered before the stop (cumulative)
//! stop       u8        StopReason encoding
//! n_tasks    u64       frontier length, then per task:
//!   tag u8             0 = Root, 1 = Node
//!   Root: v u32
//!   Node: v u32, then l / r_parent / p / q as (u32 len, u32 items…)
//! checksum   u64       FNV-1a over every preceding byte
//! ```
//!
//! The magic, the body and the checksum are the shared envelope of
//! [`bigraph::codec`] (`seal`/`open`: the magic is checked before the
//! checksum); the order tag is its `order_tag` codec.
//!
//! Frontier tasks are expressed in the *internal ordered* id space; this
//! is sound because [`bigraph::order::apply`] is deterministic for a
//! fixed `(graph, order)` pair — which is why a checkpoint pins the
//! algorithm, order, and MBET toggles, and why resuming validates the
//! graph fingerprint. Thread count and splitting thresholds are *not*
//! pinned: they redistribute work without changing the emitted set.
//!
//! Corrupted input — truncation, bit flips, a foreign magic, an unknown
//! version, a fingerprint mismatch, or a frontier task that does not fit
//! the graph ([`Checkpoint::matches`]) — is rejected with a typed
//! [`CheckpointError`], never a panic.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use bigraph::codec::{self, put_u32, put_u32_list, put_u64, put_u8, CodecError, Fnv};
use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;

use crate::run::StopReason;
use crate::task::{est_tree, root_reps, Roots, TaskBuilder};
use crate::{Algorithm, MbeOptions, MbetConfig};

/// Format magic (`b"MBCK"`).
const MAGIC: [u8; 4] = *b"MBCK";
/// Current serialization version.
const VERSION: u32 = 1;

/// One unit of unexplored work captured at a stop, in the internal
/// ordered id space of the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeTask {
    /// A whole root task (per right vertex); the resuming driver rebuilds
    /// its 1-hop/2-hop universe itself.
    Root(u32),
    /// An interior enumeration node, in the same shape the parallel
    /// driver ships between workers.
    Node {
        /// `L` of the node (already intersected with `N(v)`).
        l: Vec<u32>,
        /// `R` of the parent (the node's own `R` adds `v` + absorptions).
        r_parent: Vec<u32>,
        /// The vertex whose traversal created this node.
        v: u32,
        /// Remaining candidates.
        p: Vec<u32>,
        /// Excluded vertices relevant to this node.
        q: Vec<u32>,
    },
}

/// The resumable state of a stopped enumeration run.
///
/// Produced by the [`crate::Enumeration`] terminals on every
/// non-`Completed` stop (except thresholded and top-k runs, which are
/// not checkpointable); consumed by [`crate::Enumeration::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the graph the run was stopped on; resuming against
    /// a different graph is rejected with
    /// [`CheckpointError::GraphMismatch`].
    pub fingerprint: u64,
    /// The stopped run's engine — pinned, because the frontier encoding
    /// is only meaningful under the same enumeration strategy.
    pub algorithm: Algorithm,
    /// The stopped run's vertex order — pinned, because frontier ids live
    /// in the ordered id space it induces.
    pub order: VertexOrder,
    /// The stopped run's MBET toggles — pinned with the algorithm.
    pub mbet: MbetConfig,
    /// Bicliques delivered across the original run and every prior
    /// resume (checkpoints chain: resuming a resumed run accumulates).
    pub emitted: u64,
    /// Why the checkpointed run stopped.
    pub stop: StopReason,
    /// The unexplored task frontier, in internal ordered ids.
    pub frontier: Vec<ResumeTask>,
}

/// Why checkpoint bytes (or a resume attempt) were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input does not start with the checkpoint magic.
    BadMagic,
    /// The input declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The input ended before the declared content did.
    Truncated,
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (message says which field).
    Malformed(&'static str),
    /// The checkpoint was taken on a different graph.
    GraphMismatch {
        /// Fingerprint stored in the checkpoint.
        expected: u64,
        /// Fingerprint of the graph the resume was attempted on.
        found: u64,
    },
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated => f.write_str("checkpoint truncated"),
            CheckpointError::ChecksumMismatch => f.write_str("checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on a different graph \
                 (fingerprint {expected:#018x}, this graph is {found:#018x})"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(_) => CheckpointError::Truncated,
            CodecError::Invalid(what) => CheckpointError::Malformed(what),
            CodecError::Trailing => CheckpointError::Malformed("trailing bytes"),
            CodecError::BadMagic => CheckpointError::BadMagic,
            CodecError::ChecksumMismatch => CheckpointError::ChecksumMismatch,
        }
    }
}

/// Order-independent fingerprint of a graph's structure: FNV-1a over the
/// side sizes and the full `V`-side adjacency in id order. Two graphs
/// with equal edge sets (same input ids) fingerprint equal; resuming a
/// checkpoint validates this before trusting the frontier ids.
pub fn graph_fingerprint(g: &BipartiteGraph) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(g.num_u() as u64);
    h.write_u64(g.num_v() as u64);
    for v in 0..g.num_v() {
        let nbrs = g.nbr_v(v);
        h.write_u64(nbrs.len() as u64);
        for &u in nbrs {
            h.write_u32(u);
        }
    }
    h.finish()
}

impl Checkpoint {
    /// Serializes to the versioned, checksummed byte format documented at
    /// the module level.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::seal(&MAGIC, 64 + self.frontier.len() * 32, |out| {
            put_u32(out, VERSION);
            put_u64(out, self.fingerprint);
            put_u8(out, self.algorithm.tag());
            let (order_tag, order_seed) = codec::order_tag(self.order);
            put_u8(out, order_tag);
            put_u64(out, order_seed);
            put_u8(out, encode_mbet(self.mbet));
            put_u64(out, self.emitted);
            put_u8(out, self.stop.encode());
            put_u64(out, self.frontier.len() as u64);
            for task in &self.frontier {
                match task {
                    ResumeTask::Root(v) => {
                        put_u8(out, 0);
                        put_u32(out, *v);
                    }
                    ResumeTask::Node { l, r_parent, v, p, q } => {
                        put_u8(out, 1);
                        put_u32(out, *v);
                        for list in [l, r_parent, p, q] {
                            put_u32_list(out, list);
                        }
                    }
                }
            }
        })
    }

    /// Deserializes and validates bytes produced by
    /// [`Checkpoint::to_bytes`]. Every malformation — truncation, bit
    /// flips, unknown versions — comes back as a typed
    /// [`CheckpointError`]; this function never panics on hostile input,
    /// and whatever it accepts re-encodes to the same bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        // The checksum covers everything, so any corruption — including
        // of the version field — surfaces as exactly one of BadMagic
        // (wrong file type), Truncated, or ChecksumMismatch.
        let mut r = codec::open(&MAGIC, bytes)?;
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let fingerprint = r.u64("fingerprint")?;
        let algorithm = Algorithm::from_tag(r.u8("algorithm")?)?;
        let order = codec::order_from_tag(r.u8("order")?, r.u64("order seed")?)?;
        let mbet = decode_mbet(r.u8("mbet config")?)?;
        let emitted = r.u64("emitted")?;
        let stop = StopReason::decode(r.u8("stop reason")?)
            .ok_or(CheckpointError::Malformed("stop reason"))?;
        if stop.is_complete() {
            return Err(CheckpointError::Malformed("checkpoint for a completed run"));
        }
        let n_tasks = r.u64("frontier length")?;
        // Each task costs at least 5 bytes; a length prefix promising more
        // than the remaining input is hostile, not just truncated.
        if n_tasks > (r.remaining() / 5) as u64 {
            return Err(CheckpointError::Malformed("frontier length"));
        }
        let mut frontier = Vec::with_capacity(n_tasks as usize);
        for _ in 0..n_tasks {
            match r.u8("task tag")? {
                0 => frontier.push(ResumeTask::Root(r.u32("root")?)),
                1 => {
                    let v = r.u32("node")?;
                    let l = r.u32_list("l")?;
                    let r_parent = r.u32_list("r_parent")?;
                    let p = r.u32_list("p")?;
                    let q = r.u32_list("q")?;
                    frontier.push(ResumeTask::Node { l, r_parent, v, p, q });
                }
                _ => return Err(CheckpointError::Malformed("task tag")),
            }
        }
        r.finish()?;
        Ok(Checkpoint { fingerprint, algorithm, order, mbet, emitted, stop, frontier })
    }

    /// Writes the serialized checkpoint to `path` (atomically enough for
    /// a single writer: whole-buffer write, no partial formats).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        let mut f = std::fs::File::create(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        f.write_all(&bytes).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
        let mut f = std::fs::File::open(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Validates that this checkpoint was taken on `g` and that every
    /// frontier task fits it, so resuming can neither index outside the
    /// graph nor feed an engine an unsorted set.
    ///
    /// A task fits when its ids lie inside `g`'s sides (the ordered graph
    /// a resume runs on has the same sizes), its `l` is non-empty, and
    /// its `l`, `r_parent`, `p` and `q` are strictly increasing. iMBEA
    /// records `p` and `q` in its branching order (fewest local
    /// neighbours first), so under that algorithm they need only be free
    /// of repeats. The fingerprint is checked first; a task that does not
    /// fit is `Malformed("frontier task")`.
    pub fn matches(&self, g: &BipartiteGraph) -> Result<(), CheckpointError> {
        let found = graph_fingerprint(g);
        if found != self.fingerprint {
            return Err(CheckpointError::GraphMismatch { expected: self.fingerprint, found });
        }
        let (nu, nv) = (g.num_u(), g.num_v());
        let fits = |task: &ResumeTask| match task {
            ResumeTask::Root(v) => *v < nv,
            ResumeTask::Node { l, r_parent, v, p, q } => {
                let candidates = |s: &[u32]| match self.algorithm {
                    Algorithm::Imbea => distinct_below(s, nv),
                    _ => ascending_below(s, nv),
                };
                !l.is_empty()
                    && ascending_below(l, nu)
                    && ascending_below(r_parent, nv)
                    && *v < nv
                    && candidates(p)
                    && candidates(q)
            }
        };
        if !self.frontier.iter().all(fits) {
            return Err(CheckpointError::Malformed("frontier task"));
        }
        Ok(())
    }

    /// Partitions the frontier into at most `k` independent shards.
    ///
    /// Each shard is a self-contained checkpoint over a disjoint subset
    /// of this frontier, sharing the header (fingerprint, pinned
    /// options, stop reason) but starting its own emission count at
    /// zero. Because frontier tasks are disjoint subtrees of the
    /// enumeration tree, resuming every shard independently and
    /// unioning the outputs reproduces exactly what resuming `self`
    /// would emit, duplicate-free — the invariant the coordinator's
    /// scatter/gather relies on and `tests/shard.rs` property-tests.
    ///
    /// Cuts are balanced by the saturating `height × candidates` tree-size
    /// estimate over a task's `|L|` and `|P|` that the parallel driver
    /// splits on (LPT greedy: heaviest task into the lightest shard).
    /// Empty shards are not returned, so fewer than `k` checkpoints come
    /// back when the frontier has fewer tasks. `k == 0` is malformed, and `g` must
    /// fingerprint-match (task weights are read off the ordered graph).
    pub fn split(&self, g: &BipartiteGraph, k: usize) -> Result<Vec<Checkpoint>, CheckpointError> {
        if k == 0 {
            return Err(CheckpointError::Malformed("split into zero shards"));
        }
        self.matches(g)?;
        // Weights live in the ordered id space, like the frontier itself.
        let (h, _perm) = bigraph::order::apply(g, self.order);
        let mut builder = TaskBuilder::new(&h);
        let weights: Vec<usize> = self
            .frontier
            .iter()
            .map(|task| {
                let (l_len, p_len) = match task {
                    // An isolated root would be skipped on resume; weight 1
                    // keeps the assignment total and the estimate monotone.
                    ResumeTask::Root(v) => {
                        builder.build(*v).map_or((0, 0), |t| (t.l0.len(), t.p0.len()))
                    }
                    ResumeTask::Node { l, p, .. } => (l.len(), p.len()),
                };
                est_tree(l_len, p_len).1.max(1)
            })
            .collect();
        let mut order: Vec<usize> = (0..self.frontier.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((weights[i], std::cmp::Reverse(i))));
        let mut loads = vec![0usize; k];
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); k];
        for i in order {
            let lightest = (0..k).min_by_key(|&b| loads[b]).unwrap_or(0);
            loads[lightest] = loads[lightest].saturating_add(weights[i]);
            bins[lightest].push(i);
        }
        Ok(bins
            .into_iter()
            .filter(|idxs| !idxs.is_empty())
            .map(|mut idxs| {
                // Deterministic shard contents: frontier order within a
                // shard follows the original checkpoint, not LPT order.
                idxs.sort_unstable();
                let tasks = idxs.into_iter().map(|i| self.frontier[i].clone()).collect();
                Checkpoint { emitted: 0, frontier: tasks, ..self.clone() }
            })
            .collect())
    }

    /// Recombines shards produced by [`Checkpoint::split`] (or any
    /// checkpoints of the same run) into one checkpoint: the union of
    /// the frontiers, the sum of the emission counts.
    ///
    /// All parts must agree on the header — fingerprint, algorithm,
    /// order, and MBET toggles — otherwise the frontiers live in
    /// different id spaces and concatenating them would be garbage;
    /// that and an empty `parts` are rejected as malformed. The merged
    /// stop reason is the first part's.
    pub fn merge(parts: &[Checkpoint]) -> Result<Checkpoint, CheckpointError> {
        let Some(first) = parts.first() else {
            return Err(CheckpointError::Malformed("merge of zero shards"));
        };
        let mut merged = first.clone();
        for part in &parts[1..] {
            if part.fingerprint != first.fingerprint
                || part.algorithm != first.algorithm
                || part.order != first.order
                || part.mbet != first.mbet
            {
                return Err(CheckpointError::Malformed("shard header mismatch"));
            }
            merged.emitted += part.emitted;
            merged.frontier.extend(part.frontier.iter().cloned());
        }
        Ok(merged)
    }
}

/// `true` iff `ids` is strictly increasing and every id is below `n`.
fn ascending_below(ids: &[u32], n: u32) -> bool {
    setops::is_strictly_increasing(ids) && ids.last().is_none_or(|&x| x < n)
}

/// `true` iff `ids` holds no repeat and every id is below `n`.
fn distinct_below(ids: &[u32], n: u32) -> bool {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    ascending_below(&sorted, n)
}

/// The checkpoint a run of `opts` over `g` would produce if stopped
/// before doing any work: the complete root frontier, zero emissions.
///
/// This is the seed of the coordinator's scatter phase — [`Checkpoint::split`]
/// cuts it into shards and each shard resumes on a worker. The frontier
/// honors root-level batching exactly as the drivers do (only MBET with
/// batching enabled skips non-representative roots), so the shard union
/// equals the direct run without duplicates.
pub fn initial_checkpoint(g: &BipartiteGraph, opts: &MbeOptions) -> Checkpoint {
    let (h, _perm) = bigraph::order::apply(g, opts.order);
    let reps = root_reps(&h, opts);
    let frontier = Roots::new(&h, reps.as_deref()).map(ResumeTask::Root).collect();
    Checkpoint {
        fingerprint: graph_fingerprint(g),
        algorithm: opts.algorithm,
        order: opts.order,
        mbet: opts.mbet,
        emitted: 0,
        // Non-`Completed` so the checkpoint round-trips through the wire
        // codec (a completed run has nothing to resume).
        stop: StopReason::Cancelled,
        frontier,
    }
}

// ---------------------------------------------------------------------------
// Field codecs.

fn encode_mbet(cfg: MbetConfig) -> u8 {
    (cfg.batching as u8) | (cfg.trie_maximality as u8) << 1 | (cfg.trie_absorption as u8) << 2
}

fn decode_mbet(word: u8) -> Result<MbetConfig, CheckpointError> {
    if word > 0b111 {
        return Err(CheckpointError::Malformed("mbet config"));
    }
    Ok(MbetConfig {
        batching: word & 1 != 0,
        trie_maximality: word & 2 != 0,
        trie_absorption: word & 4 != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            algorithm: Algorithm::Mbet,
            order: VertexOrder::Random(42),
            mbet: MbetConfig { batching: true, trie_maximality: false, trie_absorption: true },
            emitted: 123,
            stop: StopReason::Deadline,
            frontier: vec![
                ResumeTask::Root(7),
                ResumeTask::Node {
                    l: vec![0, 2, 5],
                    r_parent: vec![1],
                    v: 3,
                    p: vec![4, 6],
                    q: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn roundtrip_all_orders_and_algorithms() {
        for order in [
            VertexOrder::Natural,
            VertexOrder::AscendingDegree,
            VertexOrder::DescendingDegree,
            VertexOrder::Unilateral,
            VertexOrder::Random(u64::MAX),
        ] {
            for alg in Algorithm::all() {
                let ckpt = Checkpoint { order, algorithm: alg, ..sample() };
                assert_eq!(Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap(), ckpt);
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    Checkpoint::from_bytes(&corrupted).is_err(),
                    "flip byte {i} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn foreign_magic_is_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadMagic));
        assert_eq!(Checkpoint::from_bytes(b"PK\x03\x04zipfile"), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected_with_checksum_repaired() {
        // A well-formed file from a future version: valid checksum, higher
        // version field.
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let len = bytes.len();
        let sum = codec::fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::UnsupportedVersion(99)));
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        // A frontier length promising 2^60 tasks must be rejected without
        // attempting the allocation.
        let mut ckpt = sample();
        ckpt.frontier.clear();
        let mut bytes = ckpt.to_bytes();
        let n_tasks_at = bytes.len() - 8 - 8; // before checksum, the u64 count
        bytes[n_tasks_at..n_tasks_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let len = bytes.len();
        let sum = codec::fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed("frontier length"))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_graphs() {
        let g1 = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let g2 = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let g1_again = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g1_again));
    }

    #[test]
    fn matches_rejects_wrong_graph() {
        let g1 = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let g2 = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        // `sample()`'s frontier names vertices a 2×2 graph lacks.
        let ckpt = Checkpoint {
            fingerprint: graph_fingerprint(&g1),
            frontier: vec![ResumeTask::Root(1)],
            ..sample()
        };
        assert!(ckpt.matches(&g1).is_ok());
        assert!(matches!(ckpt.matches(&g2), Err(CheckpointError::GraphMismatch { .. })));
    }

    #[test]
    fn matches_rejects_frontier_tasks_that_do_not_fit_the_graph() {
        let g = BipartiteGraph::from_edges(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap();
        let node = |l: Vec<u32>, r_parent: Vec<u32>, v: u32, p: Vec<u32>, q: Vec<u32>| {
            ResumeTask::Node { l, r_parent, v, p, q }
        };
        let with = |algorithm: Algorithm, task: ResumeTask| Checkpoint {
            fingerprint: graph_fingerprint(&g),
            algorithm,
            frontier: vec![ResumeTask::Root(0), task],
            ..sample()
        };
        let fine = node(vec![0, 3], vec![1], 0, vec![2, 3], vec![1]);
        assert!(with(Algorithm::Mbet, fine).matches(&g).is_ok());
        let bad = [
            ResumeTask::Root(4),
            node(vec![], vec![], 0, vec![], vec![]),
            node(vec![0, 4], vec![], 0, vec![], vec![]),
            node(vec![1, 0], vec![], 0, vec![], vec![]),
            node(vec![0], vec![2, 2], 0, vec![], vec![]),
            node(vec![0], vec![], 4, vec![], vec![]),
            node(vec![0], vec![], 0, vec![1, 4], vec![]),
            node(vec![0], vec![], 0, vec![], vec![9]),
            node(vec![0], vec![], 0, vec![3, 1], vec![]),
            node(vec![0], vec![], 0, vec![], vec![2, 2]),
        ];
        for task in bad {
            for alg in [Algorithm::Mbet, Algorithm::Mbea, Algorithm::MineLmbc] {
                assert_eq!(
                    with(alg, task.clone()).matches(&g),
                    Err(CheckpointError::Malformed("frontier task")),
                    "{alg:?} {task:?}"
                );
            }
        }
        // iMBEA keeps `p`/`q` in branching order: unsorted is fine,
        // repeats and out-of-range ids are not.
        let imbea =
            |p: Vec<u32>, q: Vec<u32>| with(Algorithm::Imbea, node(vec![0], vec![], 0, p, q));
        assert!(imbea(vec![3, 1], vec![2, 0]).matches(&g).is_ok());
        assert!(imbea(vec![3, 3], vec![]).matches(&g).is_err());
        assert!(imbea(vec![], vec![1, 4]).matches(&g).is_err());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("mbe-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Checkpoint::load("/nonexistent/definitely/missing.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn initial_checkpoint_seeds_the_batched_root_frontier() {
        // v0 and v1 share a neighborhood; v3 is isolated.
        let g =
            BipartiteGraph::from_edges(2, 4, &[(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)]).unwrap();
        let opts = crate::MbeOptions::new(Algorithm::Mbet);
        let ckpt = initial_checkpoint(&g, &opts);
        assert_eq!(ckpt.fingerprint, graph_fingerprint(&g));
        assert_eq!(ckpt.emitted, 0);
        assert!(!ckpt.stop.is_complete());
        // Batching drops the duplicate root, isolation drops v3: 2 roots
        // remain (in ordered ids, so only the count is asserted).
        assert_eq!(ckpt.frontier.len(), 2);
        // Baselines batch nothing: every non-isolated root is seeded.
        let mbea = initial_checkpoint(&g, &crate::MbeOptions::new(Algorithm::Mbea));
        assert_eq!(mbea.frontier.len(), 3);
        // And the whole thing survives the wire format.
        assert_eq!(Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap(), ckpt);
    }

    #[test]
    fn split_partitions_disjointly_and_merge_reassembles() {
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)],
        )
        .unwrap();
        let opts = crate::MbeOptions::new(Algorithm::Mbet);
        let whole = initial_checkpoint(&g, &opts);
        for k in 1..=6 {
            let shards = whole.split(&g, k).unwrap();
            assert!(shards.len() <= k);
            assert!(shards.iter().all(|s| !s.frontier.is_empty()));
            assert!(shards.iter().all(|s| s.emitted == 0));
            let mut union: Vec<ResumeTask> =
                shards.iter().flat_map(|s| s.frontier.iter().cloned()).collect();
            assert_eq!(union.len(), whole.frontier.len(), "k={k}: disjoint and total");
            union.sort_by_key(|t| match t {
                ResumeTask::Root(v) => *v,
                ResumeTask::Node { v, .. } => *v,
            });
            let mut expected = whole.frontier.clone();
            expected.sort_by_key(|t| match t {
                ResumeTask::Root(v) => *v,
                ResumeTask::Node { v, .. } => *v,
            });
            assert_eq!(union, expected, "k={k}");
            let merged = Checkpoint::merge(&shards).unwrap();
            assert_eq!(merged.frontier.len(), whole.frontier.len());
            assert_eq!(merged.fingerprint, whole.fingerprint);
        }
    }

    #[test]
    fn split_rejects_zero_shards_and_foreign_graphs() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let other = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let ckpt = initial_checkpoint(&g, &crate::MbeOptions::default());
        assert!(matches!(ckpt.split(&g, 0), Err(CheckpointError::Malformed(_))));
        assert!(matches!(ckpt.split(&other, 2), Err(CheckpointError::GraphMismatch { .. })));
    }

    #[test]
    fn merge_rejects_empty_and_mismatched_headers() {
        assert!(matches!(Checkpoint::merge(&[]), Err(CheckpointError::Malformed(_))));
        let a = sample();
        let mut b = sample();
        b.fingerprint ^= 1;
        assert!(matches!(
            Checkpoint::merge(&[a.clone(), b]),
            Err(CheckpointError::Malformed("shard header mismatch"))
        ));
        let mut c = sample();
        c.order = VertexOrder::Natural;
        assert!(Checkpoint::merge(&[a.clone(), c]).is_err());
        // Matching headers sum emissions and concatenate frontiers.
        let merged = Checkpoint::merge(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(merged.emitted, 2 * a.emitted);
        assert_eq!(merged.frontier.len(), 2 * a.frontier.len());
    }

    #[test]
    fn errors_display_informatively() {
        let msgs = [
            CheckpointError::BadMagic.to_string(),
            CheckpointError::UnsupportedVersion(7).to_string(),
            CheckpointError::Truncated.to_string(),
            CheckpointError::ChecksumMismatch.to_string(),
            CheckpointError::Malformed("stop reason").to_string(),
            CheckpointError::GraphMismatch { expected: 1, found: 2 }.to_string(),
            CheckpointError::Io("denied".into()).to_string(),
        ];
        let unique: std::collections::HashSet<_> = msgs.iter().collect();
        assert_eq!(unique.len(), msgs.len());
        assert!(msgs[1].contains('7'));
    }
}
