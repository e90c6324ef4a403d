//! Resumable positions for the OCT enumeration driver.
//!
//! An [`OctCheckpoint`] pins the graph (fingerprint), the inner-engine
//! configuration (algorithm + order), the next *enumeration unit* to
//! run (an assignment code plus the unit kind within it), and the full
//! set of dedup keys inserted so far. Carrying the dedup state is what
//! makes `stopped ∪ resumed` equal the complete run **duplicate-free**:
//! a candidate discovered under an early assignment and re-discovered
//! under a later one after resume is recognized and suppressed, even
//! though the two discoveries happened in different processes.
//!
//! The bytes are `MBOK`, a `u8` version, then the fields below, sealed
//! in the envelope `mbe::checkpoint` also uses ([`bigraph::codec::seal`]:
//! the magic is checked before the FNV-1a trailer). Hostile length
//! prefixes are rejected before any allocation is sized by them, and
//! decoding is strict: whatever decodes re-encodes to the same bytes.
//!
//! ```text
//! version    u8        currently 1
//! fingerprint u64      GeneralGraph::fingerprint
//! algorithm  u8        Algorithm::tag
//! order      u8 + u64  bigraph::codec::order_tag (seed 0 unless random)
//! next_code  u64, next_kind u8 (0 or 1), emitted u64
//! n_keys     u64, then per key a u32-length-prefixed u32 list
//! ```

use bigraph::codec::{self, put_u32_list, put_u64, put_u8, CodecError};
use bigraph::general::GeneralGraph;
use bigraph::order::VertexOrder;
use mbe::Algorithm;
use std::path::Path;

const MAGIC: [u8; 4] = *b"MBOK";
const VERSION: u8 = 1;

/// Why a checkpoint could not be decoded, validated, or applied.
#[derive(Debug)]
pub enum OctCheckpointError {
    /// Payload ends before a fixed-size field.
    Truncated,
    /// The magic bytes are not `MBOK`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// A structural rule was violated (hostile length prefix, unknown
    /// enum tag, unsorted key, ...).
    Corrupt(&'static str),
    /// The trailer checksum does not match the payload.
    ChecksumMismatch,
    /// The checkpoint was taken on a different graph.
    FingerprintMismatch,
    /// Underlying I/O failure while loading or saving.
    Io(std::io::Error),
}

impl std::fmt::Display for OctCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OctCheckpointError::Truncated => write!(f, "checkpoint truncated"),
            OctCheckpointError::BadMagic => write!(f, "not an OCT checkpoint (bad magic)"),
            OctCheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            OctCheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            OctCheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            OctCheckpointError::FingerprintMismatch => {
                write!(f, "checkpoint was taken on a different graph")
            }
            OctCheckpointError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for OctCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OctCheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OctCheckpointError {
    fn from(e: std::io::Error) -> Self {
        OctCheckpointError::Io(e)
    }
}

impl From<CodecError> for OctCheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(_) => OctCheckpointError::Truncated,
            CodecError::Invalid(what) => OctCheckpointError::Corrupt(what),
            CodecError::Trailing => OctCheckpointError::Corrupt("trailing bytes"),
            CodecError::BadMagic => OctCheckpointError::BadMagic,
            CodecError::ChecksumMismatch => OctCheckpointError::ChecksumMismatch,
        }
    }
}

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
    /// Every dedup key (sorted `A ∪ B` vertex set) inserted so far —
    /// emitted, duplicate-suppressed, and maximality-rejected alike.
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
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, OctCheckpointError> {
        let mut r = codec::open(&MAGIC, bytes)?;
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(OctCheckpointError::BadVersion(version));
        }
        let fingerprint = r.u64("fingerprint")?;
        let algorithm = Algorithm::from_tag(r.u8("algorithm")?)?;
        let order = codec::order_from_tag(r.u8("order")?, r.u64("order seed")?)?;
        let next_code = r.u64("next code")?;
        let next_kind = r.u8("next kind")?;
        if next_kind > 1 {
            return Err(OctCheckpointError::Corrupt("unit kind out of range"));
        }
        let emitted = r.u64("emitted")?;
        let n_keys = r.u64("key count")?;
        // Each key costs at least 4 bytes (its length prefix); a count
        // larger than the payload could carry is hostile.
        if n_keys > (r.remaining() / 4) as u64 {
            return Err(OctCheckpointError::Corrupt("key count exceeds payload"));
        }
        let mut keys = Vec::with_capacity(n_keys as usize);
        for _ in 0..n_keys {
            let key = r.u32_list("key")?;
            if !key.windows(2).all(|w| w[0] < w[1]) {
                return Err(OctCheckpointError::Corrupt("key not strictly increasing"));
            }
            keys.push(key);
        }
        r.finish()?;
        Ok(OctCheckpoint { fingerprint, algorithm, order, next_code, next_kind, emitted, keys })
    }

    /// `true` iff this checkpoint was taken on (a structural twin of)
    /// `g`.
    pub fn matches(&self, g: &GeneralGraph) -> bool {
        self.fingerprint == g.fingerprint()
    }

    /// Writes the checkpoint to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), OctCheckpointError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and verifies a checkpoint from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, OctCheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
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
            Err(OctCheckpointError::ChecksumMismatch)
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
            Err(OctCheckpointError::Corrupt("key count exceeds payload"))
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        let n = bytes.len();
        let sum = codec::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(OctCheckpoint::from_bytes(&bytes), Err(OctCheckpointError::BadMagic)));
        // The magic is checked before the checksum: a foreign file is bad
        // magic, whatever its trailer.
        assert!(matches!(
            OctCheckpoint::from_bytes(&[b'A'; 64]),
            Err(OctCheckpointError::BadMagic)
        ));

        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        let n = bytes.len();
        let sum = codec::fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            OctCheckpoint::from_bytes(&bytes),
            Err(OctCheckpointError::BadVersion(99))
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
            Err(OctCheckpointError::Corrupt("vertex order"))
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
