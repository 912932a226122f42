//! The IO half of one peer turn, shared by both epoll drivers (the
//! reactor's worker pool and the manager thread's own loop): write a
//! peer's queued frames until the socket would block, and read up to a
//! byte budget into its [`PeerReader`], handing each complete frame to
//! the caller as a borrow of the reassembly buffer.
//!
//! Both functions expect a non-blocking socket and never block.

use std::io::{self, Write};

use crate::peer::{PeerOutQueue, PeerReader};
use crate::sock::SockStream;

/// Bytes asked of one `read` call. Small enough that a thousand idle
/// peers' reassembly buffers stay small, large enough that a firehose
/// peer needs few syscalls per turn.
const READ_CHUNK: usize = 8 * 1024;

/// How a write pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteEnd {
    /// Everything queued was handed to the OS.
    Drained,
    /// The socket would block with bytes still queued: wait for
    /// EPOLLOUT.
    Blocked,
    /// The peer is gone.
    Closed,
}

/// How a read pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEnd {
    /// The socket has no more bytes for now.
    Idle,
    /// The byte budget ran out with bytes possibly left: give other
    /// peers a turn, then come back.
    More,
    /// The peer closed or the socket failed.
    Closed,
    /// The stream is corrupt beyond reframing; the peer must be
    /// dropped.
    Corrupt,
}

/// Write `out`'s queued frames to `stream` until the queue is empty or
/// the socket would block. Chaos point `net.write.wouldblock` treats a
/// write as blocked, forcing the EPOLLOUT path (lossless).
pub fn write_turn(stream: &mut SockStream, out: &mut PeerOutQueue) -> WriteEnd {
    while let Some(chunk) = out.write_chunk() {
        if qos_buggify::buggify!("net.write.wouldblock") {
            return WriteEnd::Blocked;
        }
        match stream.write(chunk) {
            Ok(0) => return WriteEnd::Closed,
            Ok(n) => out.advance(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteEnd::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return WriteEnd::Closed,
        }
    }
    WriteEnd::Drained
}

/// Read up to `budget` bytes from `stream` into `reader`, calling
/// `on_frame` with every frame completed along the way, in stream
/// order. A short read ends the pass as [`ReadEnd::Idle`] without a
/// second `read` to see `WouldBlock`: both drivers re-check readiness
/// (level-triggered) before the peer's next turn, so bytes that arrive
/// later are not missed.
pub fn read_turn(
    stream: &mut SockStream,
    reader: &mut PeerReader,
    budget: usize,
    mut on_frame: impl FnMut(&[u8]),
) -> ReadEnd {
    let mut left = budget;
    loop {
        if left == 0 {
            return ReadEnd::More;
        }
        let want = left.min(READ_CHUNK);
        match reader.read_from(stream, want) {
            Ok(0) => return ReadEnd::Closed,
            Ok(n) => {
                left = left.saturating_sub(n);
                loop {
                    match reader.next_frame_ref() {
                        Ok(Some(frame)) => on_frame(frame),
                        Ok(None) => break,
                        Err(_) => return ReadEnd::Corrupt,
                    }
                }
                if n < want {
                    return ReadEnd::Idle;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadEnd::Idle,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadEnd::Closed,
        }
    }
}
