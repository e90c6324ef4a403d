//! Decoder fuzzing: `Request::decode`, `Response::decode`,
//! `Checkpoint::from_bytes` (`MBCK`) and `OctCheckpoint::from_bytes`
//! (`MBOK`) are fed valid encodings mutated by bit flips, truncation,
//! splicing two encodings together, and length prefixes inflated to
//! `u32::MAX`/`u64::MAX`. None may panic or abort, and each must accept
//! only canonical bytes: whatever decodes re-encodes byte-identically.
//!
//! Checkpoint mutations are run twice, as is and with the FNV-1a trailer
//! recomputed, so they reach the body behind the checksum. Every sample
//! of at most 2 KiB gets every single-bit flip, truncation and inflated
//! length; all samples, the two checkpoint fixtures and the populated
//! `METRICS` reply included, get random compositions of the mutations.

mod common;

use bigraph::order::VertexOrder;
use mbe::{Algorithm, Checkpoint, MbetConfig, ResumeTask, StopReason};
use oct::OctCheckpoint;
use proptest::prelude::*;
use serve::{Request, Response};
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy)]
enum Target {
    Request,
    Response,
    Mbck,
    Mbok,
}

const TARGETS: [Target; 4] = [Target::Request, Target::Response, Target::Mbck, Target::Mbok];

impl Target {
    /// `true` for the formats sealed by an FNV-1a trailer.
    fn sealed(self) -> bool {
        matches!(self, Target::Mbck | Target::Mbok)
    }

    /// Valid encodings to mutate.
    fn corpus(self) -> Vec<Vec<u8>> {
        match self {
            Target::Request => {
                common::sample_requests().into_iter().map(|(_, r)| r.encode()).collect()
            }
            Target::Response => {
                common::sample_responses().into_iter().map(|(_, r)| r.encode()).collect()
            }
            Target::Mbck => {
                let node = ResumeTask::Node {
                    l: vec![0, 2, 5],
                    r_parent: vec![1],
                    v: 3,
                    p: vec![4, 6],
                    q: vec![7],
                };
                let sample = Checkpoint {
                    fingerprint: 0xdead_beef_cafe_f00d,
                    algorithm: Algorithm::Mbet,
                    order: VertexOrder::Random(42),
                    mbet: MbetConfig {
                        batching: true,
                        trie_maximality: false,
                        trie_absorption: true,
                    },
                    emitted: 123,
                    stop: StopReason::Deadline,
                    frontier: vec![ResumeTask::Root(7), node],
                };
                let natural = Checkpoint {
                    algorithm: Algorithm::Imbea,
                    order: VertexOrder::Natural,
                    stop: StopReason::Cancelled,
                    frontier: vec![ResumeTask::Root(0), ResumeTask::Root(3)],
                    ..sample.clone()
                };
                let fixture = include_bytes!("../../mbe/tests/data/structured77_budget924.mbck");
                vec![sample.to_bytes(), natural.to_bytes(), fixture.to_vec()]
            }
            Target::Mbok => {
                let sample = OctCheckpoint {
                    fingerprint: 0xdead_beef_1234_5678,
                    algorithm: Algorithm::Mbet,
                    order: VertexOrder::Random(42),
                    next_code: 17,
                    next_kind: 1,
                    emitted: 9,
                    keys: vec![vec![0, 3, 7], vec![1, 2], vec![]],
                };
                let natural = OctCheckpoint {
                    algorithm: Algorithm::MineLmbc,
                    order: VertexOrder::Natural,
                    next_kind: 0,
                    keys: vec![vec![4, 5]],
                    ..sample.clone()
                };
                let fixture =
                    include_bytes!("../../mbe/tests/data/octplanted5_random7_budget40.mbok");
                vec![sample.to_bytes(), natural.to_bytes(), fixture.to_vec()]
            }
        }
    }

    /// Decodes `bytes` and re-encodes whatever was accepted.
    fn reencode(self, bytes: &[u8]) -> Option<Vec<u8>> {
        match self {
            Target::Request => Request::decode(bytes).ok().map(|r| r.encode()),
            Target::Response => Response::decode(bytes).ok().map(|r| r.encode()),
            Target::Mbck => Checkpoint::from_bytes(bytes).ok().map(|c| c.to_bytes()),
            Target::Mbok => OctCheckpoint::from_bytes(bytes).ok().map(|c| c.to_bytes()),
        }
    }

    /// Decodes `bytes` (and, for a sealed format, `bytes` with its
    /// trailer recomputed) and asserts that anything accepted is
    /// canonical.
    fn check(self, bytes: &[u8], how: &str) {
        let resealed = self.sealed().then(|| reseal(bytes));
        for input in std::iter::once(bytes).chain(resealed.as_deref()) {
            if let Some(again) = self.reencode(input) {
                assert_eq!(again, input, "{self:?} accepted non-canonical bytes ({how})");
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `bytes` with its trailing 8-byte FNV-1a checksum recomputed.
fn reseal(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(body) = out.len().checked_sub(8) {
        let sum = fnv1a(&out[..body]);
        out[body..].copy_from_slice(&sum.to_le_bytes());
    }
    out
}

/// `bytes` with `value` written over the bytes from `at` on (clipped to
/// the input).
fn overwrite(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for (slot, &b) in out.iter_mut().skip(at).zip(value) {
        *slot = b;
    }
    out
}

#[test]
fn every_flip_truncation_and_inflated_length_decodes_canonically_or_not_at_all() {
    for target in TARGETS {
        for (i, bytes) in target.corpus().iter().enumerate().filter(|(_, b)| b.len() <= 2048) {
            target.check(bytes, &format!("sample {i} unchanged"));
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    target.check(&flipped, &format!("sample {i}, byte {at} bit {bit} flipped"));
                }
                target.check(&bytes[..at], &format!("sample {i} cut at {at}"));
                let wide = u32::MAX.to_le_bytes();
                target
                    .check(&overwrite(bytes, at, &wide), &format!("sample {i}, u32::MAX at {at}"));
                let wider = u64::MAX.to_le_bytes();
                target
                    .check(&overwrite(bytes, at, &wider), &format!("sample {i}, u64::MAX at {at}"));
            }
        }
    }
}

/// Each target's corpus, built once.
fn corpora() -> &'static [Vec<Vec<u8>>; 4] {
    static CORPORA: OnceLock<[Vec<Vec<u8>>; 4]> = OnceLock::new();
    CORPORA.get_or_init(|| TARGETS.map(Target::corpus))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random compositions of the same mutations, plus splices of two
    /// encodings (the head of one, the tail of another).
    #[test]
    fn mutated_encodings_decode_canonically_or_not_at_all(
        pick in (0usize..64, 0usize..64),
        cut in (0u64..u64::MAX, 0u64..u64::MAX),
        flips in proptest::collection::vec((0u64..u64::MAX, 0u8..8), 0..4),
        inflate in (0u8..3, 0u64..u64::MAX),
    ) {
        for (target, corpus) in TARGETS.into_iter().zip(corpora()) {
            let head = &corpus[pick.0 % corpus.len()];
            let tail = &corpus[pick.1 % corpus.len()];
            let split = |x: u64, len: usize| (x % (len as u64 + 1)) as usize;
            let mut bytes = head[..split(cut.0, head.len())].to_vec();
            bytes.extend_from_slice(&tail[split(cut.1, tail.len())..]);
            for &(at, bit) in &flips {
                if !bytes.is_empty() {
                    let at = (at % bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << bit;
                }
            }
            let at = split(inflate.1, bytes.len());
            bytes = match inflate.0 {
                0 => bytes,
                1 => overwrite(&bytes, at, &u32::MAX.to_le_bytes()),
                _ => overwrite(&bytes, at, &u64::MAX.to_le_bytes()),
            };
            target.check(&bytes, &format!("{pick:?} {cut:?} {flips:?} {inflate:?}"));
        }
    }
}
