//! Resumable positions for the OCT enumeration driver.
//!
//! An [`OctCheckpoint`] pins the graph (fingerprint), the inner-engine
//! configuration (algorithm + order), the next *enumeration unit* to
//! run (an assignment code plus the unit kind within it), and the keys
//! of the candidates that unit handled before the stop. Each candidate
//! has one owner unit ([`crate::driver`]), so a resume re-runs that one
//! unit, skipping the keyed candidates, and then every later unit in
//! full: `stopped ∪ resumed` equals the complete run
//! **duplicate-free**, at any inner thread count. The keys are only
//! that unit's, so the bytes grow with one unit's output, not the
//! run's. A stop inside the resumed unit keeps the carried keys and
//! adds its own, because a partial re-run need not reach them all; a
//! stop in any later unit, a cancel before it runs included, starts
//! afresh.
//!
//! The bytes are `MBOK`, a `u8` version, then the fields below, sealed
//! in the envelope `mbe::checkpoint` also uses ([`bigraph::codec::seal`]:
//! the magic is checked before the FNV-1a trailer). Hostile length
//! prefixes are rejected before any allocation is sized by them, and
//! decoding is strict: whatever decodes re-encodes to the same bytes.
//! Errors are [`mbe::CheckpointError`], as for `MBCK`.
//!
//! ```text
//! version    u8        currently 1
//! fingerprint u64      GeneralGraph::fingerprint
//! algorithm  u8        Algorithm::tag
//! order      u8 + u64  bigraph::codec::order_tag (seed 0 unless random)
//! next_code  u64, next_kind u8 (0 or 1), emitted u64
//! n_keys     u64, then per key a u32-length-prefixed u32 list
//! ```

use bigraph::codec::{self, put_u32_list, put_u64, put_u8};
use bigraph::general::GeneralGraph;
use bigraph::order::VertexOrder;
use mbe::{Algorithm, CheckpointError};
use std::path::Path;

const MAGIC: [u8; 4] = *b"MBOK";
const VERSION: u8 = 1;

/// A resumable position of the OCT driver. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OctCheckpoint {
    /// Fingerprint of the general graph the run was enumerating.
    pub fingerprint: u64,
    /// Pinned inner-engine algorithm (resume re-applies it).
    pub algorithm: Algorithm,
    /// Pinned vertex order.
    pub order: VertexOrder,
    /// The ternary assignment code of the next unit to run.
    pub next_code: u64,
    /// Unit kind within that code: `0` = crossing, `1` = same-side.
    pub next_kind: u8,
    /// Cumulative bicliques emitted across all runs so far.
    pub emitted: u64,
    /// The sorted `A ∪ B` vertex set of every candidate the unit
    /// `(next_code, next_kind)` handled before the stop, in this run or
    /// the runs it resumed, emitted and maximality-rejected alike; a
    /// resume skips these in that unit. Files from builds that kept a
    /// run-long key log also carry earlier units' keys, which never
    /// recur.
    pub keys: Vec<Vec<u32>>,
}

impl OctCheckpoint {
    /// Serializes to the `MBOK` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let keys = self.keys.iter().map(|k| 4 + 4 * k.len()).sum::<usize>();
        codec::seal(&MAGIC, 48 + keys, |out| {
            put_u8(out, VERSION);
            put_u64(out, self.fingerprint);
            put_u8(out, self.algorithm.tag());
            let (order_tag, seed) = codec::order_tag(self.order);
            put_u8(out, order_tag);
            put_u64(out, seed);
            put_u64(out, self.next_code);
            put_u8(out, self.next_kind);
            put_u64(out, self.emitted);
            put_u64(out, self.keys.len() as u64);
            for key in &self.keys {
                put_u32_list(out, key);
            }
        })
    }

    /// Decodes and verifies a serialized checkpoint. Hostile length
    /// prefixes are rejected before any allocation is sized by them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = codec::open(&MAGIC, bytes)?;
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version.into()));
        }
        let fingerprint = r.u64("fingerprint")?;
        let algorithm = Algorithm::from_tag(r.u8("algorithm")?)?;
        let order = codec::order_from_tag(r.u8("order")?, r.u64("order seed")?)?;
        let next_code = r.u64("next code")?;
        let next_kind = r.u8("next kind")?;
        if next_kind > 1 {
            return Err(CheckpointError::Malformed("unit kind out of range"));
        }
        let emitted = r.u64("emitted")?;
        let n_keys = r.u64("key count")?;
        // Each key costs at least 4 bytes (its length prefix); a count
        // larger than the payload could carry is hostile.
        if n_keys > (r.remaining() / 4) as u64 {
            return Err(CheckpointError::Malformed("key count exceeds payload"));
        }
        let mut keys = Vec::with_capacity(n_keys as usize);
        for _ in 0..n_keys {
            let key = r.u32_list("key")?;
            if !key.windows(2).all(|w| w[0] < w[1]) {
                return Err(CheckpointError::Malformed("key not strictly increasing"));
            }
            keys.push(key);
        }
        r.finish()?;
        Ok(OctCheckpoint { fingerprint, algorithm, order, next_code, next_kind, emitted, keys })
    }

    /// Checks that this checkpoint was taken on (a structural twin of)
    /// `g`: [`CheckpointError::GraphMismatch`] otherwise.
    pub fn matches(&self, g: &GeneralGraph) -> Result<(), CheckpointError> {
        let found = g.fingerprint();
        if found != self.fingerprint {
            return Err(CheckpointError::GraphMismatch { expected: self.fingerprint, found });
        }
        Ok(())
    }

    /// Writes the checkpoint to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Reads and verifies a checkpoint from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OctCheckpoint {
        OctCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            algorithm: Algorithm::Mbet,
            order: VertexOrder::Random(42),
            next_code: 17,
            next_kind: 1,
            emitted: 9,
            keys: vec![vec![0, 3, 7], vec![1, 2], vec![]],
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let bytes = c.to_bytes();
        assert_eq!(OctCheckpoint::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn corruption_detected() {
        let c = sample();
        let mut bytes = c.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            OctCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 5, 12, bytes.len() - 1] {
            assert!(OctCheckpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_key_count_rejected() {
        // Hand-craft a payload declaring u64::MAX keys with a valid
        // checksum; the count must be rejected before allocation.
        let mut c = sample();
        c.keys.clear();
        let mut bytes = c.to_bytes();
        bytes.truncate(bytes.len() - 8); // drop checksum
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes()); // n_keys
        let sum = codec::fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            OctCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed("key count exceeds payload"))
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        let n = bytes.len();
        let sum = codec::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(OctCheckpoint::from_bytes(&bytes), Err(CheckpointError::BadMagic)));
        // The magic is checked before the checksum: a foreign file is bad
        // magic, whatever its trailer.
        assert!(matches!(OctCheckpoint::from_bytes(&[b'A'; 64]), Err(CheckpointError::BadMagic)));

        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        let n = bytes.len();
        let sum = codec::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            OctCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn seed_on_a_non_random_order_is_corrupt() {
        // It would decode as the seedless order and re-encode differently,
        // so it is refused even behind a valid checksum.
        let mut bytes = OctCheckpoint { order: VertexOrder::Natural, ..sample() }.to_bytes();
        bytes[15] = 7; // the order seed's low byte
        let n = bytes.len();
        let sum = codec::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            OctCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed("vertex order"))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("oct-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.mbok");
        let c = sample();
        c.save(&path).unwrap();
        assert_eq!(OctCheckpoint::load(&path).unwrap(), c);
        std::fs::remove_dir_all(&dir).ok();
    }
}
