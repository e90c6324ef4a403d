//! Length-prefixed frame transport and primitive codecs.
//!
//! Every protocol message travels as one *frame*: a little-endian `u32`
//! byte length followed by that many payload bytes. The payload's first
//! byte is the protocol version, its second the opcode/status — see
//! [`crate::protocol`]. This module owns framing; the integer, string
//! and blob primitives inside a payload are [`bigraph::codec`]'s, whose
//! errors map to [`WireError::Malformed`].
//!
//! Reads are written against sockets with a short read timeout (the
//! server's poll loop): a timeout with *zero* bytes read is a normal
//! [`ReadOutcome::Idle`], while a timeout in the middle of a frame is
//! tolerated only up to a patience budget, then reported as
//! [`WireError::Timeout`] — a peer that stalls mid-frame cannot pin a
//! connection handler forever.

use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use bigraph::codec::CodecError;

/// Hard upper bound any frame reader should accept (callers usually
/// configure less). Keeps a hostile length prefix from allocating wildly.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Errors of the frame and primitive layer.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A frame stalled mid-read past the patience budget.
    Timeout(&'static str),
    /// The peer closed the connection in the middle of a frame.
    TruncatedFrame,
    /// The length prefix exceeds the configured cap.
    FrameTooLarge {
        /// The advertised payload length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The payload bytes do not decode as a protocol message.
    Malformed(&'static str),
    /// The payload's version byte is not ours.
    Version(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Timeout(stage) => write!(f, "timed out mid-frame ({stage})"),
            WireError::TruncatedFrame => f.write_str("connection closed mid-frame"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Version(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Every payload decode failure is `Malformed`, naming the field.
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(what) | CodecError::Invalid(what) => WireError::Malformed(what),
            CodecError::Trailing => WireError::Malformed("trailing bytes after message"),
            CodecError::BadMagic | CodecError::ChecksumMismatch => WireError::Malformed("envelope"),
        }
    }
}

/// What a bounded frame read produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read timed out before any byte arrived — the connection is
    /// merely quiet, not broken. Poll again.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Closed,
}

/// `true` for the error kinds a socket read timeout produces.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Fills `buf` completely, tolerating read-timeout interruptions until
/// `deadline`. Returns `TruncatedFrame` on EOF, `Timeout(stage)` when the
/// patience budget runs out.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    mut filled: usize,
    deadline: Instant,
    stage: &'static str,
) -> Result<(), WireError> {
    while filled < buf.len() {
        let window = buf.get_mut(filled..).unwrap_or(&mut []);
        match r.read(window) {
            Ok(0) => return Err(WireError::TruncatedFrame),
            Ok(n) => {
                filled += n;
                // Partial progress consumes the same budget a timeout
                // does: the deadline is absolute, so each successful
                // read re-arms only the *remaining* patience. Without
                // this check a peer dribbling one byte per poll
                // interval always "makes progress" and never hits the
                // timeout arm — pinning the handler indefinitely.
                if filled < buf.len() && Instant::now() >= deadline {
                    return Err(WireError::Timeout(stage));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(WireError::Timeout(stage));
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame. A timeout before the first byte yields
/// [`ReadOutcome::Idle`]; once a frame has started, the reader keeps
/// retrying timed-out reads for `patience` before giving up. `max_frame`
/// caps the accepted payload length.
pub fn read_frame<R: Read>(
    r: &mut R,
    max_frame: usize,
    patience: Duration,
) -> Result<ReadOutcome, WireError> {
    let mut len_buf = [0u8; 4];
    let first = loop {
        match r.read(&mut len_buf) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
            Err(e) => return Err(WireError::Io(e)),
        }
    };
    let deadline = Instant::now() + patience;
    read_full(r, &mut len_buf, first, deadline, "length prefix")?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame.min(MAX_FRAME_BYTES) {
        return Err(WireError::FrameTooLarge { len, max: max_frame.min(MAX_FRAME_BYTES) });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, 0, deadline, "payload")?;
    Ok(ReadOutcome::Frame(payload))
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| WireError::FrameTooLarge { len: payload.len(), max: u32::MAX as usize })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::codec::{put_bytes, put_str, put_u32, put_u64, put_u8, Reader};

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.str("d").unwrap(), "héllo");
        assert_eq!(r.bytes("e").unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let malformed = |e: CodecError| matches!(WireError::from(e), WireError::Malformed(_));
        let mut buf = Vec::new();
        put_u32(&mut buf, 100); // blob claims 100 bytes, none follow
        let mut r = Reader::new(&buf);
        assert!(malformed(r.bytes("blob").unwrap_err()));

        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8("x").unwrap(), 1);
        assert!(malformed(r.finish().unwrap_err()));

        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]); // 4 GiB string
        assert!(malformed(r.str("s").unwrap_err()));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"abc").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut cursor = &pipe[..];
        match read_frame(&mut cursor, 1024, Duration::from_millis(10)).unwrap() {
            ReadOutcome::Frame(p) => assert_eq!(p, b"abc"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor, 1024, Duration::from_millis(10)).unwrap() {
            ReadOutcome::Frame(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor, 1024, Duration::from_millis(10)).unwrap() {
            ReadOutcome::Closed => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(1_000_000u32).to_le_bytes());
        pipe.extend_from_slice(&[0u8; 16]);
        let mut cursor = &pipe[..];
        match read_frame(&mut cursor, 1024, Duration::from_millis(10)).unwrap_err() {
            WireError::FrameTooLarge { len, max } => {
                assert_eq!(len, 1_000_000);
                assert_eq!(max, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn closed_mid_frame_is_truncation_not_idle() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(10u32).to_le_bytes());
        pipe.extend_from_slice(b"abc"); // 3 of 10 promised bytes
        let mut cursor = &pipe[..];
        assert!(matches!(
            read_frame(&mut cursor, 1024, Duration::from_millis(10)).unwrap_err(),
            WireError::TruncatedFrame
        ));
    }

    /// A reader that yields timeouts between scripted chunks, emulating a
    /// socket with a short read timeout.
    struct Stutter {
        chunks: Vec<Option<Vec<u8>>>, // None = one timeout
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.chunks.is_empty() {
                return Ok(0);
            }
            match self.chunks.remove(0) {
                None => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
                Some(mut bytes) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.chunks.insert(0, Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn idle_before_frame_but_patience_inside_frame() {
        // Timeout before any byte: Idle.
        let mut quiet = Stutter { chunks: vec![None] };
        assert!(matches!(
            read_frame(&mut quiet, 1024, Duration::from_millis(50)).unwrap(),
            ReadOutcome::Idle
        ));

        // Frame split across timeouts within patience: reassembled.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"hello").unwrap();
        let (head, tail) = frame.split_at(3);
        let mut stutter = Stutter { chunks: vec![Some(head.to_vec()), None, Some(tail.to_vec())] };
        match read_frame(&mut stutter, 1024, Duration::from_secs(5)).unwrap() {
            ReadOutcome::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("unexpected {other:?}"),
        }

        // Stalled forever mid-frame: patience expires with a Timeout.
        let mut stalled =
            Stutter { chunks: vec![Some(head.to_vec()), None, None, None, None, None, None] };
        assert!(matches!(
            read_frame(&mut stalled, 1024, Duration::from_millis(0)).unwrap_err(),
            WireError::Timeout(_)
        ));
    }

    #[test]
    fn byte_dribbling_cannot_outlive_the_patience_budget() {
        // A peer that delivers exactly one byte per read never takes the
        // timeout arm, yet must still hit the deadline: partial progress
        // consumes the remaining budget rather than re-arming a full one.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"dribble").unwrap();
        let chunks: Vec<Option<Vec<u8>>> = frame.iter().map(|&b| Some(vec![b])).collect();
        let mut dribbler = Stutter { chunks };
        assert!(matches!(
            read_frame(&mut dribbler, 1024, Duration::from_millis(0)).unwrap_err(),
            WireError::Timeout(_)
        ));

        // The same dribble inside a generous budget still reassembles —
        // the check only fires when the deadline has truly passed.
        let chunks: Vec<Option<Vec<u8>>> = frame.iter().map(|&b| Some(vec![b])).collect();
        let mut dribbler = Stutter { chunks };
        match read_frame(&mut dribbler, 1024, Duration::from_secs(5)).unwrap() {
            ReadOutcome::Frame(p) => assert_eq!(p, b"dribble"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
