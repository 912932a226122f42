//! The accepted-peer half of the protocol: pure state machines the
//! drivers feed bytes and drain bytes from.
//!
//! * [`PeerReader`] — reassembles the inbound byte stream into raw,
//!   header-validated frames (decode happens centrally in the manager
//!   thread so malformed frames are counted in one place).
//! * [`PeerOutQueue`] — the outbound side: a bounded, *classed* queue.
//!   Control frames (sync acks) report `Full` under pressure so the
//!   sender can retry; telemetry frames are lossy by contract and evict
//!   the oldest pending telemetry batch instead of growing without
//!   bound — the reactor twin of the manager's per-subscriber
//!   drop-oldest queue.
//!
//! Neither type performs IO: [`crate::turn`] wraps both around
//! non-blocking reads and writes for the two epoll drivers, and tests
//! drive them with plain slices.

use std::collections::VecDeque;
use std::io::{self, Read};

use qos_wire::{FrameBuffer, WireError};

/// Reassembles one peer's inbound byte stream into raw frames.
#[derive(Default)]
pub struct PeerReader {
    fb: FrameBuffer,
    frames: u64,
}

impl PeerReader {
    /// An empty reader.
    pub fn new() -> Self {
        PeerReader::default()
    }

    /// Feed bytes as they arrive from the driver.
    pub fn on_bytes(&mut self, chunk: &[u8]) {
        self.fb.extend(chunk);
    }

    /// One `read` of at most `max` bytes from `r` straight into the
    /// reassembly buffer.
    pub fn read_from<R: Read>(&mut self, r: &mut R, max: usize) -> io::Result<usize> {
        self.fb.read_from(r, max)
    }

    /// The next complete raw frame (header validated, payload not yet
    /// decoded), if one is buffered. An `Err` means the stream is
    /// corrupt beyond reframing — the driver must drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// [`PeerReader::next_frame`] borrowed from the reassembly buffer:
    /// a driver that handles each frame where it is read copies nothing.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let r = self.fb.next_raw_ref();
        if let Ok(Some(_)) = r {
            self.frames += 1;
        }
        r
    }

    /// Complete frames produced so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes buffered but not yet framed.
    pub fn pending_bytes(&self) -> usize {
        self.fb.len()
    }
}

/// Which outbound lane a frame travels in — the queue's backpressure
/// decision differs per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendClass {
    /// Protocol replies (sync acks): never silently dropped; the queue
    /// reports `Full` and the sender retries.
    Control,
    /// Telemetry batches: lossy by contract; oldest pending batch is
    /// evicted under pressure (drop-oldest, like the manager's
    /// subscriber queues).
    Telemetry,
}

/// Bounds for one peer's outbound queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutQueueConfig {
    /// Total queued bytes across both classes before control sends
    /// report `Full` (and telemetry sends are dropped).
    pub max_bytes: usize,
    /// Pending telemetry frames before drop-oldest eviction kicks in.
    pub max_telemetry_frames: usize,
}

impl Default for OutQueueConfig {
    fn default() -> Self {
        OutQueueConfig {
            max_bytes: 256 * 1024,
            max_telemetry_frames: 64,
        }
    }
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Frame queued.
    Queued,
    /// Control lane: no room — keep the frame and retry later.
    Full,
    /// Telemetry lane: queued after evicting the oldest pending
    /// telemetry frame (eviction is counted in
    /// [`PeerOutQueue::dropped_telemetry`]).
    DroppedOldest,
    /// Telemetry lane: the *new* frame was dropped — every evictable
    /// slot is held by an in-flight (partially written) frame.
    DroppedNew,
}

/// One peer's bounded outbound queue with partial-write tracking.
pub struct PeerOutQueue {
    cfg: OutQueueConfig,
    q: VecDeque<(SendClass, Vec<u8>)>,
    /// Bytes of the front frame already handed to the OS.
    head_off: usize,
    bytes: usize,
    telemetry_frames: usize,
    dropped_telemetry: u64,
}

impl PeerOutQueue {
    /// An empty queue with the given bounds.
    pub fn new(cfg: OutQueueConfig) -> Self {
        PeerOutQueue {
            cfg,
            q: VecDeque::new(),
            head_off: 0,
            bytes: 0,
            telemetry_frames: 0,
            dropped_telemetry: 0,
        }
    }

    /// Queue a frame for writing.
    pub fn enqueue(&mut self, class: SendClass, frame: &[u8]) -> Enqueue {
        match class {
            SendClass::Control => {
                if self.bytes + frame.len() > self.cfg.max_bytes {
                    return Enqueue::Full;
                }
                self.push(class, frame);
                Enqueue::Queued
            }
            SendClass::Telemetry => {
                let mut evicted = false;
                while self.telemetry_frames >= self.cfg.max_telemetry_frames {
                    if !self.evict_oldest_telemetry() {
                        break;
                    }
                    evicted = true;
                }
                if self.telemetry_frames >= self.cfg.max_telemetry_frames
                    || self.bytes + frame.len() > self.cfg.max_bytes
                {
                    self.dropped_telemetry += 1;
                    return Enqueue::DroppedNew;
                }
                self.push(class, frame);
                if evicted {
                    Enqueue::DroppedOldest
                } else {
                    Enqueue::Queued
                }
            }
        }
    }

    fn push(&mut self, class: SendClass, frame: &[u8]) {
        self.bytes += frame.len();
        if class == SendClass::Telemetry {
            self.telemetry_frames += 1;
        }
        self.q.push_back((class, frame.to_vec()));
    }

    /// Remove the oldest telemetry frame that is *not* partially
    /// written (a frame already half-handed to the OS must finish or
    /// the stream corrupts). `false` if nothing was evictable.
    fn evict_oldest_telemetry(&mut self) -> bool {
        let start = usize::from(self.head_off > 0);
        let Some(ix) = self
            .q
            .iter()
            .enumerate()
            .skip(start)
            .find(|(_, (c, _))| *c == SendClass::Telemetry)
            .map(|(i, _)| i)
        else {
            return false;
        };
        let (_, frame) = self.q.remove(ix).expect("index in range");
        self.bytes -= frame.len();
        self.telemetry_frames -= 1;
        self.dropped_telemetry += 1;
        true
    }

    /// The unwritten remainder of the front frame, if any — hand this
    /// to the OS, then [`PeerOutQueue::advance`] by what was accepted.
    pub fn write_chunk(&self) -> Option<&[u8]> {
        self.q.front().map(|(_, f)| &f[self.head_off..])
    }

    /// Record that the OS accepted `n` bytes of the front frame(s).
    pub fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let Some((class, front)) = self.q.front() else {
                debug_assert!(false, "advance past queue end");
                return;
            };
            let rem = front.len() - self.head_off;
            if n >= rem {
                n -= rem;
                self.bytes -= front.len();
                if *class == SendClass::Telemetry {
                    self.telemetry_frames -= 1;
                }
                self.q.pop_front();
                self.head_off = 0;
            } else {
                self.head_off += n;
                n = 0;
            }
        }
    }

    /// Anything still waiting to be written?
    pub fn has_pending(&self) -> bool {
        !self.q.is_empty()
    }

    /// Total unwritten bytes queued.
    pub fn pending_bytes(&self) -> usize {
        self.bytes - self.head_off
    }

    /// Telemetry frames evicted or refused under pressure so far.
    pub fn dropped_telemetry(&self) -> u64 {
        self.dropped_telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_wire::WireMsg;

    fn frame(token: u64) -> Vec<u8> {
        WireMsg::SyncReq { token }.encode_frame()
    }

    #[test]
    fn reader_reassembles_across_chunk_boundaries() {
        let mut r = PeerReader::new();
        let a = frame(1);
        let b = frame(2);
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b);
        // Feed in awkward splits: mid-header and mid-payload.
        for chunk in bytes.chunks(3) {
            r.on_bytes(chunk);
        }
        assert_eq!(r.next_frame().unwrap().unwrap(), a);
        assert_eq!(r.next_frame().unwrap().unwrap(), b);
        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.frames(), 2);
    }

    #[test]
    fn reader_reports_corruption_as_error() {
        let mut r = PeerReader::new();
        let mut bad = frame(1);
        bad[0] ^= 0xff;
        r.on_bytes(&bad);
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn out_queue_preserves_order_across_partial_writes() {
        let mut q = PeerOutQueue::new(OutQueueConfig::default());
        let a = frame(1);
        let b = frame(2);
        assert_eq!(q.enqueue(SendClass::Control, &a), Enqueue::Queued);
        assert_eq!(q.enqueue(SendClass::Telemetry, &b), Enqueue::Queued);
        // The OS accepts the first frame one byte at a time.
        let mut written = Vec::new();
        while let Some(chunk) = q.write_chunk() {
            written.push(chunk[0]);
            q.advance(1);
        }
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        assert_eq!(written, expect, "byte stream must be frame-ordered");
        assert!(!q.has_pending());
        assert_eq!(q.pending_bytes(), 0);
    }

    #[test]
    fn telemetry_evicts_oldest_never_control() {
        let mut q = PeerOutQueue::new(OutQueueConfig {
            max_bytes: 1 << 20,
            max_telemetry_frames: 2,
        });
        let ctrl = frame(100);
        assert_eq!(q.enqueue(SendClass::Control, &ctrl), Enqueue::Queued);
        assert_eq!(q.enqueue(SendClass::Telemetry, &frame(1)), Enqueue::Queued);
        assert_eq!(q.enqueue(SendClass::Telemetry, &frame(2)), Enqueue::Queued);
        // Third telemetry frame evicts frame(1), not the control frame.
        assert_eq!(
            q.enqueue(SendClass::Telemetry, &frame(3)),
            Enqueue::DroppedOldest
        );
        assert_eq!(q.dropped_telemetry(), 1);
        let mut drained = Vec::new();
        while let Some(chunk) = q.write_chunk() {
            let n = chunk.len();
            drained.extend_from_slice(chunk);
            q.advance(n);
        }
        let mut expect = ctrl.clone();
        expect.extend_from_slice(&frame(2));
        expect.extend_from_slice(&frame(3));
        assert_eq!(drained, expect);
    }

    #[test]
    fn partially_written_front_is_never_evicted() {
        let mut q = PeerOutQueue::new(OutQueueConfig {
            max_bytes: 1 << 20,
            max_telemetry_frames: 1,
        });
        let a = frame(1);
        assert_eq!(q.enqueue(SendClass::Telemetry, &a), Enqueue::Queued);
        q.advance(1); // one byte already on the wire
                      // The only evictable slot is in flight: the new frame loses.
        assert_eq!(
            q.enqueue(SendClass::Telemetry, &frame(2)),
            Enqueue::DroppedNew
        );
        // The in-flight frame still drains intact.
        let mut drained = vec![a[0]];
        while let Some(chunk) = q.write_chunk() {
            let n = chunk.len();
            drained.extend_from_slice(chunk);
            q.advance(n);
        }
        assert_eq!(drained, a);
    }

    #[test]
    fn control_reports_full_at_byte_cap() {
        let a = frame(1);
        let mut q = PeerOutQueue::new(OutQueueConfig {
            max_bytes: a.len(),
            max_telemetry_frames: 4,
        });
        assert_eq!(q.enqueue(SendClass::Control, &a), Enqueue::Queued);
        assert_eq!(q.enqueue(SendClass::Control, &a), Enqueue::Full);
        // Draining frees the budget again.
        let n = q.write_chunk().unwrap().len();
        q.advance(n);
        assert_eq!(q.enqueue(SendClass::Control, &a), Enqueue::Queued);
    }
}
