//! The single-threaded epoll driver: the owning thread's own loop over
//! a listener, every accepted peer and a wake pipe (Linux only).
//!
//! Where the [`reactor`](crate::reactor) hands each frame to a worker
//! pool and on through a queue, [`InlineNet`] runs on the thread that
//! consumes the frames: [`InlineNet::poll`] waits for readiness, reads
//! each ready peer up to a byte budget and calls the owner's
//! [`FrameHandler`] with every complete frame *as a borrow of the
//! peer's reassembly buffer*, before reading on. No frame is copied,
//! queued or handed to another thread. Replies go into the peer's
//! bounded [`PeerOutQueue`] and are written at once; a socket that
//! would block parks the bytes with EPOLLOUT armed until it drains.
//!
//! Other threads with input for the owner (a channel, say) publish it
//! and call [`Waker::wake`](crate::wake::Waker::wake); `poll` only
//! blocks after re-checking that input (see [`crate::wake`]).
//!
//! Epoll is level-triggered here: a peer left with unread bytes when
//! its budget ran out is simply reported again by the next wait.

use std::collections::HashMap;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
use crate::reactor::{NetStats, TOKEN_LISTENER, TOKEN_WAKE};
use crate::sock::{SockListener, SockStream};
use crate::sys::{set_send_buffer, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::turn::{read_turn, write_turn, ReadEnd, WriteEnd};
use crate::wake::{WakeRx, Waker};

/// Max bytes read from one peer per [`InlineNet::poll`]. Fairness: a
/// firehose peer waits for the next poll while the others get a turn.
/// Smaller than the reactor's budget because the frames are handled
/// inside the turn: the replies and telemetry a turn produces go out
/// before the next one, in bursts a subscriber can keep pace with.
pub const READ_BUDGET: usize = 16 * 1024;

/// How long [`InlineNet::poll`] keeps polling before it blocks.
const SPIN: Duration = Duration::from_micros(50);

/// Kernel send buffer asked for a peer's socket once it carries
/// telemetry: a subscriber that falls behind for a few milliseconds
/// backs up into the kernel rather than into the manager's heap or the
/// drop-oldest lane.
pub const TELEMETRY_SNDBUF: usize = 1 << 20;

/// Where [`InlineNet::poll`] delivers peer input, on the polling
/// thread.
pub trait FrameHandler {
    /// One complete raw frame (header validated, payload not decoded)
    /// from `peer`; replies go into `out`, which is written right after
    /// the peer's read.
    fn on_frame(&mut self, peer: u64, frame: &[u8], out: &mut PeerOutQueue);

    /// A peer's stream was corrupt beyond reframing; it is being
    /// closed.
    fn on_corrupt(&mut self);
}

struct Peer {
    fd: RawFd,
    stream: SockStream,
    reader: PeerReader,
    out: PeerOutQueue,
    /// EPOLLOUT is armed (the socket would block with bytes queued).
    out_armed: bool,
    /// On the flush list.
    dirty: bool,
    /// The socket's send buffer was deepened for telemetry.
    deep: bool,
}

/// One thread's epoll loop over its socket peers.
pub struct InlineNet {
    epoll: Epoll,
    listener: Option<SockListener>,
    wake: WakeRx,
    peers: HashMap<u64, Peer>,
    next_id: u64,
    /// Peers sent to since the last flush.
    dirty: Vec<u64>,
    events: Vec<EpollEvent>,
    out_cfg: OutQueueConfig,
    stats: Arc<NetStats>,
}

impl InlineNet {
    /// A loop over `listener` (if any) and a fresh wake pipe; returns
    /// the waker other threads use to interrupt [`InlineNet::poll`].
    pub fn new(listener: Option<SockListener>, out: OutQueueConfig) -> io::Result<(Self, Waker)> {
        let epoll = Epoll::create()?;
        let (wake, waker) = WakeRx::pair()?;
        epoll.add(wake.fd(), EPOLLIN, TOKEN_WAKE)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        }
        let net = InlineNet {
            epoll,
            listener,
            wake,
            peers: HashMap::new(),
            next_id: 0,
            dirty: Vec::new(),
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
            out_cfg: out,
            stats: Arc::new(NetStats::default()),
        };
        Ok((net, waker))
    }

    /// Live counters (`wakeups` counts waits that returned events).
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Queue a frame for `peer`, to be written on the next
    /// [`InlineNet::flush`] or poll. `None` if the peer is gone.
    /// Telemetry evictions are counted in [`NetStats::telemetry_dropped`].
    pub fn send(&mut self, peer: u64, class: SendClass, frame: &[u8]) -> Option<Enqueue> {
        let p = self.peers.get_mut(&peer)?;
        if class == SendClass::Telemetry && !p.deep {
            p.deep = true;
            // Best effort: a refusal leaves the default buffer.
            let _ = set_send_buffer(p.fd, TELEMETRY_SNDBUF);
        }
        let r = p.out.enqueue(class, frame);
        if matches!(r, Enqueue::DroppedOldest | Enqueue::DroppedNew) {
            self.stats.telemetry_dropped.fetch_add(1, Ordering::Relaxed);
        }
        if !p.dirty {
            p.dirty = true;
            self.dirty.push(peer);
        }
        Some(r)
    }

    /// Write what [`InlineNet::send`] queued, as far as each socket
    /// takes it; the rest waits for EPOLLOUT.
    pub fn flush(&mut self) {
        for id in std::mem::take(&mut self.dirty) {
            let Some(p) = self.peers.get_mut(&id) else {
                continue;
            };
            p.dirty = false;
            // An armed peer is already waiting for EPOLLOUT.
            if !p.out_armed {
                self.write(id);
            }
        }
    }

    /// Wait up to `timeout` for readiness — not at all if `pending`
    /// reports input waiting elsewhere — then accept new peers and run
    /// one turn for every ready peer, delivering frames to `h`.
    pub fn poll(
        &mut self,
        timeout: Duration,
        mut pending: impl FnMut() -> bool,
        h: &mut impl FrameHandler,
    ) -> io::Result<()> {
        self.flush();
        let mut n = self.epoll.wait(&mut self.events, 0)?;
        if n == 0 && !timeout.is_zero() {
            // Keep polling for a moment before sleeping: a peer that
            // answers within microseconds (a reporter woken by its ack)
            // then finds the loop still running on its own core, instead
            // of paying a sleep/wake pair and the migration it invites.
            // `pending` is not called again once it reports input.
            let spin_until = Instant::now() + SPIN;
            let mut input = pending();
            while n == 0 && !input && Instant::now() < spin_until {
                std::thread::yield_now();
                n = self.epoll.wait(&mut self.events, 0)?;
                input = n == 0 && pending();
            }
            if n == 0 && !input && self.wake.prepare_block(pending) {
                let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
                let r = self.epoll.wait(&mut self.events, ms);
                self.wake.woke();
                n = r?;
            }
        }
        if n > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        for i in 0..n {
            let ev = self.events[i];
            let (bits, token) = (ev.events, ev.data);
            match token {
                TOKEN_WAKE => self.wake.drain(),
                TOKEN_LISTENER => self.accept_burst(),
                id => self.turn(id, bits, h),
            }
        }
        Ok(())
    }

    fn accept_burst(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        // WouldBlock ends the burst; other accept failures (a peer that
        // reset first, fd exhaustion) leave the rest for the next poll.
        while let Ok(stream) = listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            let fd = stream.as_raw_fd();
            if self.epoll.add(fd, EPOLLIN, id).is_err() {
                continue;
            }
            self.peers.insert(
                id,
                Peer {
                    fd,
                    stream,
                    reader: PeerReader::new(),
                    out: PeerOutQueue::new(self.out_cfg),
                    out_armed: false,
                    dirty: false,
                    deep: false,
                },
            );
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            self.stats.peers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One peer turn: finish parked writes, read up to the budget
    /// handing each frame to `h`, then write the replies.
    fn turn(&mut self, id: u64, bits: u32, h: &mut impl FrameHandler) {
        if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 && !self.write(id) {
            return;
        }
        let Some(p) = self.peers.get_mut(&id) else {
            return;
        };
        if bits & (EPOLLIN | EPOLLERR | EPOLLHUP) == 0 {
            return;
        }
        let Peer {
            stream,
            reader,
            out,
            ..
        } = p;
        let before = reader.frames();
        let end = read_turn(stream, reader, READ_BUDGET, |f| h.on_frame(id, f, out));
        self.stats
            .frames_in
            .fetch_add(reader.frames() - before, Ordering::Relaxed);
        match end {
            ReadEnd::Idle | ReadEnd::More => {
                self.write(id);
            }
            ReadEnd::Closed => {
                // A peer that only shut its write side still gets the
                // replies to its last frames.
                self.write(id);
                self.close(id);
            }
            ReadEnd::Corrupt => {
                h.on_corrupt();
                self.close(id);
            }
        }
    }

    /// Write `id`'s queue and arm EPOLLOUT exactly while bytes remain.
    /// Returns `false` if the peer is gone (closed here or before).
    fn write(&mut self, id: u64) -> bool {
        let Some(p) = self.peers.get_mut(&id) else {
            return false;
        };
        match write_turn(&mut p.stream, &mut p.out) {
            WriteEnd::Closed => {
                self.close(id);
                return false;
            }
            WriteEnd::Blocked => {
                self.stats
                    .backpressure_stalls
                    .fetch_add(1, Ordering::Relaxed);
            }
            WriteEnd::Drained => {}
        }
        let want = p.out.has_pending();
        if want != p.out_armed {
            let interest = EPOLLIN | if want { EPOLLOUT } else { 0 };
            let _ = self.epoll.modify(p.fd, interest, id);
            p.out_armed = want;
        }
        true
    }

    fn close(&mut self, id: u64) {
        if let Some(p) = self.peers.remove(&id) {
            let _ = self.epoll.del(p.fd);
            p.stream.shutdown();
            self.stats.peers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::SockAddr;
    use qos_wire::WireMsg;
    use std::io::{Read, Write};

    /// Echoes every frame back on the control lane.
    #[derive(Default)]
    struct Echo {
        frames: Vec<(u64, Vec<u8>)>,
        corrupt: u64,
    }

    impl FrameHandler for Echo {
        fn on_frame(&mut self, peer: u64, frame: &[u8], out: &mut PeerOutQueue) {
            self.frames.push((peer, frame.to_vec()));
            assert_eq!(out.enqueue(SendClass::Control, frame), Enqueue::Queued);
        }
        fn on_corrupt(&mut self) {
            self.corrupt += 1;
        }
    }

    fn uds_addr(name: &str) -> SockAddr {
        let dir = std::env::temp_dir().join(format!("qos-net-inline-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let addr = SockAddr::Uds(dir.join(name));
        if let SockAddr::Uds(p) = &addr {
            let _ = std::fs::remove_file(p);
        }
        addr
    }

    #[test]
    fn frames_are_handled_in_order_and_replies_written() {
        let addr = uds_addr("echo.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let (mut net, _waker) = InlineNet::new(Some(listener), OutQueueConfig::default()).unwrap();
        let mut h = Echo::default();
        let mut a = SockStream::connect(&addr).unwrap();
        let mut sent = Vec::new();
        for token in 0..5 {
            let f = WireMsg::SyncReq { token }.encode_frame();
            a.write_all(&f).unwrap();
            sent.push(f);
        }
        while h.frames.len() < 5 {
            net.poll(Duration::from_secs(5), || false, &mut h).unwrap();
        }
        let got: Vec<Vec<u8>> = h.frames.iter().map(|(_, f)| f.clone()).collect();
        assert_eq!(got, sent, "one peer's frames arrive in stream order");
        let mut back = vec![0u8; sent.concat().len()];
        a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        a.read_exact(&mut back).unwrap();
        assert_eq!(back, sent.concat(), "replies written back in order");
        let stats = net.stats();
        assert_eq!(stats.accepted.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_in.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn corrupt_and_closed_peers_are_dropped() {
        let addr = uds_addr("corrupt.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let (mut net, _waker) = InlineNet::new(Some(listener), OutQueueConfig::default()).unwrap();
        let mut h = Echo::default();
        let mut bad = SockStream::connect(&addr).unwrap();
        bad.write_all(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4])
            .unwrap();
        let quiet = SockStream::connect(&addr).unwrap();
        let stats = net.stats();
        while h.corrupt == 0 || stats.accepted.load(Ordering::Relaxed) < 2 {
            net.poll(Duration::from_secs(5), || false, &mut h).unwrap();
        }
        assert_eq!(stats.peers.load(Ordering::Relaxed), 1);
        drop(quiet);
        while stats.peers.load(Ordering::Relaxed) > 0 {
            net.poll(Duration::from_secs(5), || false, &mut h).unwrap();
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        use std::sync::atomic::AtomicBool;
        let (mut net, waker) = InlineNet::new(None, OutQueueConfig::default()).unwrap();
        let input = Arc::new(AtomicBool::new(false));
        let sent = Arc::clone(&input);
        let t = std::thread::spawn(move || {
            // Give the poll time to block first (either order must work).
            std::thread::sleep(Duration::from_millis(20));
            sent.store(true, Ordering::SeqCst);
            waker.wake();
        });
        let t0 = std::time::Instant::now();
        while !input.load(Ordering::SeqCst) {
            net.poll(
                Duration::from_secs(30),
                || input.load(Ordering::SeqCst),
                &mut Echo::default(),
            )
            .unwrap();
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "wake was lost");
        t.join().unwrap();
    }
}
