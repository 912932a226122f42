//! Frame layout and stream reassembly.
//!
//! Every management-plane message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x51 0x57  ("QW")
//! 2       1     protocol version (currently 1)
//! 3       1     message kind (see WireMsg::kind)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload (message body, kind-specific)
//! ```
//!
//! The header is checked before the payload is touched: wrong magic,
//! unknown version, unknown kind, and over-limit lengths are each a
//! distinct [`WireError`], and the payload must be consumed *exactly* —
//! a length/body mismatch is corruption, not slack.

use std::io::{self, Read};
use std::sync::Arc;

use crate::codec::{WireReader, WireWriter};
use crate::error::WireError;
use crate::messages::WireMsg;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [0x51, 0x57];

/// Protocol version this build speaks. Bump on any layout change; a
/// receiver hard-rejects versions it does not know rather than guessing.
pub const VERSION: u8 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame payload. Nothing legitimate approaches this
/// (the largest real message is a policy push of a few KiB); it exists so
/// a corrupt length prefix cannot make the reassembly buffer balloon.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

impl WireMsg {
    /// Encode this message as a complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Append this message's frame to `out` — the allocation-free twin
    /// of [`WireMsg::encode_frame`] for senders that reuse one buffer.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::from_vec(std::mem::take(out));
        let start = w.len();
        w.put_raw(&MAGIC);
        w.put_u8(VERSION);
        w.put_u8(self.kind());
        w.put_u32(0); // length, patched below
        let body_start = w.len();
        self.encode_body(&mut w);
        let body_len = (w.len() - body_start) as u32;
        w.patch_u32(start + 4, body_len);
        *out = w.into_vec();
    }

    /// Decode one complete frame. Rejects bad magic, unknown versions and
    /// kinds, over-limit and mis-sized payloads, and any bytes beyond the
    /// frame. Never panics on untrusted input.
    pub fn decode_frame(buf: &[u8]) -> Result<WireMsg, WireError> {
        let (kind, payload) = split_frame(buf)?;
        if buf.len() != HEADER_LEN + payload.len() {
            return Err(WireError::TrailingBytes(
                buf.len() - HEADER_LEN - payload.len(),
            ));
        }
        let mut r = WireReader::new(payload);
        let msg = WireMsg::decode_body(kind, &mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Validate the header of `buf` and return `(kind, payload)` for the
/// first frame, without decoding the payload. Errors if `buf` is shorter
/// than the frame it announces.
pub(crate) fn split_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != VERSION {
        return Err(WireError::UnsupportedVersion(buf[2]));
    }
    let kind = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    Ok((kind, &buf[HEADER_LEN..total]))
}

/// An encoded frame held behind an [`Arc`] so the simulator can clone it
/// cheaply — the fault layer duplicates messages, and a control frame may
/// be tens of KiB of compiled policies.
#[derive(Debug, Clone)]
pub struct WireBytes(Arc<[u8]>);

impl WireBytes {
    /// Wrap an encoded frame.
    pub fn new(frame: Vec<u8>) -> Self {
        WireBytes(frame.into())
    }

    /// Encode `msg` into a shareable frame.
    pub fn encode(msg: &WireMsg) -> Self {
        WireBytes::new(msg.encode_frame())
    }

    /// Decode the frame back into a message.
    pub fn decode(&self) -> Result<WireMsg, WireError> {
        WireMsg::decode_frame(&self.0)
    }

    /// Encoded length in bytes — what the simulated network charges for
    /// this message in `Measured` wire mode.
    pub fn len_bytes(&self) -> u32 {
        self.0.len() as u32
    }

    /// The raw frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

/// Reassembles frames from a byte stream (TCP / Unix-domain socket reads
/// arrive in arbitrary chunks). Feed it bytes; pull complete frames.
///
/// Consumed frames only advance a read offset; the buffer is compacted
/// when new bytes need the room, so popping a frame never shifts the
/// bytes behind it.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    head: usize,
    /// End of the valid bytes (`buf` past it is spare, zeroed room).
    end: usize,
}

impl FrameBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` of at most `max` bytes straight into the
    /// buffer (no intermediate copy). Returns what `read` returned.
    pub fn read_from<R: Read>(&mut self, r: &mut R, max: usize) -> io::Result<usize> {
        self.reserve(max);
        let n = r.read(&mut self.buf[self.end..self.end + max])?;
        self.end += n;
        Ok(n)
    }

    /// Make room for `n` more bytes after `end`: reclaim consumed space
    /// first, grow only when that is not enough.
    fn reserve(&mut self, n: usize) {
        if self.buf.len() - self.end >= n {
            return;
        }
        if self.head > 0 {
            self.buf.copy_within(self.head..self.end, 0);
            self.end -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.end < n {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// Bytes currently buffered (complete or partial frames).
    pub fn len(&self) -> usize {
        self.end - self.head
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.end
    }

    /// Pop the next complete frame as a borrow of the buffer (header
    /// included), validating only the header. `Ok(None)` means more
    /// bytes are needed; an error means the stream is corrupt and the
    /// connection should be dropped (there is no way to resynchronise a
    /// length-prefixed stream after a bad header).
    pub fn next_raw_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        match split_frame(&self.buf[self.head..self.end]) {
            Ok((_, payload)) => {
                let at = self.head;
                self.head += HEADER_LEN + payload.len();
                if self.head == self.end {
                    // Drained: the next read starts at the front again.
                    let frame = at..self.head;
                    self.head = 0;
                    self.end = 0;
                    return Ok(Some(&self.buf[frame]));
                }
                Ok(Some(&self.buf[at..self.head]))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Pop and fully decode the next complete frame. `Ok(None)` means
    /// more bytes are needed. (Not an `Iterator`: it is fallible and
    /// `None` means "not yet", not "exhausted".)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireMsg>, WireError> {
        match self.next_raw_ref()? {
            Some(frame) => Ok(Some(WireMsg::decode_frame(frame)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::AdaptMsg;

    fn sample() -> WireMsg {
        WireMsg::Adapt(AdaptMsg {
            actuator: "decoder".into(),
            command: "set-quality".into(),
            value: 0.65,
        })
    }

    #[test]
    fn frame_roundtrip() {
        let msg = sample();
        let frame = msg.encode_frame();
        assert_eq!(frame[0..2], MAGIC);
        assert_eq!(frame[2], VERSION);
        assert_eq!(frame[3], msg.kind());
        assert_eq!(WireMsg::decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = sample().encode_frame();
        frame[0] = 0xff;
        assert!(matches!(
            WireMsg::decode_frame(&frame),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut frame = sample().encode_frame();
        frame[2] = VERSION + 1;
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut frame = sample().encode_frame();
        frame[3] = 200;
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::UnknownKind(200))
        );
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = sample().encode_frame();
        for cut in 0..frame.len() {
            let err = WireMsg::decode_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversize_length_rejected() {
        let mut frame = sample().encode_frame();
        frame[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn length_body_mismatch_rejected() {
        // Claim a shorter payload than the body: decode stops early and
        // the frame has trailing bytes.
        let mut frame = sample().encode_frame();
        let real = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        frame[4..8].copy_from_slice(&(real - 1).to_le_bytes());
        assert!(WireMsg::decode_frame(&frame).is_err());
    }

    #[test]
    fn buffer_reassembles_split_frames() {
        let a = sample().encode_frame();
        let b = WireMsg::Bye.encode_frame();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);

        let mut fb = FrameBuffer::new();
        for chunk in stream.chunks(3) {
            fb.extend(chunk);
        }
        assert_eq!(fb.next().unwrap(), Some(sample()));
        assert_eq!(fb.next().unwrap(), Some(WireMsg::Bye));
        assert_eq!(fb.next().unwrap(), None);
        assert!(fb.is_empty());
    }

    #[test]
    fn buffer_reads_in_place_and_reuses_consumed_room() {
        let a = sample().encode_frame();
        let b = WireMsg::Bye.encode_frame();
        let mut stream: Vec<u8> = Vec::new();
        for _ in 0..20 {
            stream.extend_from_slice(&a);
            stream.extend_from_slice(&b);
        }
        let mut src = stream.as_slice();
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        // Odd-sized reads split frames everywhere; popping between reads
        // lets the buffer compact instead of growing.
        while fb.read_from(&mut src, 7).unwrap() > 0 {
            while let Some(f) = fb.next_raw_ref().unwrap() {
                got.extend_from_slice(f);
            }
        }
        assert_eq!(got, stream);
        assert!(fb.is_empty());
        assert!(fb.buf.len() <= 2 * a.len(), "consumed room is reused");
    }

    #[test]
    fn buffer_corruption_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]);
        assert!(fb.next().is_err());
    }
}
