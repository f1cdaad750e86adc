//! The wire layer: length-prefixed framing and the binary primitives
//! messages are built from.
//!
//! Everything is hand-rolled on `std` (the container has no crates.io;
//! the workspace-wide no-serde decision is documented in
//! `chimera-persist`). A frame is
//!
//! ```text
//! [u32 LE payload length][payload bytes]
//! ```
//!
//! with the payload's first byte a message tag (see [`crate::proto`]).
//! All integers are little-endian; strings are `u32` length + UTF-8
//! bytes; vectors are `u32` count + elements. The frame length is
//! bounded ([`MAX_FRAME`] by default, configurable at both endpoints),
//! so a hostile or corrupt length prefix cannot drive an unbounded
//! allocation, and every decode path returns a typed [`WireError`] —
//! never a panic — on truncated, trailing, or garbage input
//! (property-tested in `tests/wire_roundtrip.rs`).

use std::fmt;
use std::io::{self, Read, Write};

/// Version announced in `Hello`/`HelloAck`.
///
/// Extension rule: any change to a message's layout, and any new
/// message or variant tag, bumps this number, and the server refuses a
/// `Hello` carrying any other version with a typed `Response::Error`.
/// No peer the server talks to can therefore send an earlier layout, so
/// every decoder knows exactly one layout per message — no optional
/// trailing fields, no version branches.
pub const PROTOCOL_VERSION: u32 = 7;

/// Default upper bound on one frame's payload (16 MiB) — comfortably
/// above a 256-event block, far below an allocation attack.
pub const MAX_FRAME: usize = 1 << 24;

/// Everything that can go wrong on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket error (message form; `io::Error` isn't `Clone`).
    Io(String),
    /// A frame announced a payload longer than the configured bound.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The configured bound it exceeded.
        max: usize,
    },
    /// A frame announced a zero-length payload (no tag byte).
    EmptyFrame,
    /// The payload ended in the middle of a field.
    Truncated,
    /// A message decoded completely but left bytes unread.
    Trailing {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// An unknown message or variant tag.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A semantically invalid message (version mismatch, bad handshake,
    /// a response where a request was expected, ...).
    Protocol(String),
    /// A socket deadline expired mid-read or mid-write. Kept distinct
    /// from [`WireError::Io`] so endpoints can tell "the peer went
    /// quiet" (reap / reconnect) from "the transport broke".
    TimedOut,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            WireError::TimedOut => write!(f, "socket deadline expired"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            // both kinds appear for expired socket deadlines, platform-
            // dependent (unix reports WouldBlock, windows TimedOut)
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::TimedOut,
            _ => WireError::Io(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------- framing

/// Write one frame: length prefix + payload. The caller enforces its own
/// size policy at encode time; this only refuses payloads the length
/// prefix cannot represent.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| WireError::FrameTooLarge { len: payload.len(), max: u32::MAX as usize })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` is a clean close: the peer shut
/// the stream down *between* frames. EOF inside a frame — header or
/// payload — is [`WireError::Truncated`]. A length over `max` is
/// rejected before any payload allocation.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::from(e)
        }
    })?;
    Ok(Some(payload))
}

// --------------------------------------------------------------- encoding

/// Append primitives to a payload buffer.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}
pub(crate) fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v.as_bytes());
}

// --------------------------------------------------------------- decoding

/// A bounds-checked cursor over one payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// An element count, validated against the bytes actually present:
    /// `min_elem` is the smallest possible encoding of one element, so
    /// any count the remaining payload cannot hold fails as `Truncated`
    /// up front. This also bounds the decoder's `Vec::with_capacity`
    /// by the frame size — a lying count cannot provoke an allocation
    /// larger than the (already bounded) frame itself.
    pub(crate) fn count_of(&mut self, min_elem: usize) -> Result<usize, WireError> {
        debug_assert!(min_elem > 0, "elements occupy at least one byte");
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Assert full consumption — every decoder's final step.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}
