//! The hand-rolled epoll reactor: every accepted peer multiplexed onto
//! a small worker pool (Linux only, no tokio — raw epoll via [`crate::sys`]).
//!
//! Shape:
//!
//! * one **poller** thread owns the epoll instance and the listener:
//!   `epoll_wait` → accept bursts, drain the wake pipe, and push ready
//!   peer ids onto a shared ready list;
//! * `workers` **worker** threads pop peer ids and run one bounded
//!   *turn* each: drain the peer's write queue (until `WouldBlock` —
//!   EPOLLOUT interest is armed only while writes are pending), then
//!   read up to a byte budget, reassemble frames through
//!   [`PeerReader`](crate::peer::PeerReader) and hand them to the
//!   [`EventSink`]. A peer with work left over is re-queued at the
//!   tail, so one firehose peer cannot starve a thousand quiet ones;
//! * a `scheduled` flag per peer keeps a peer on the ready list at most
//!   once (turns never run concurrently for one peer), and a `kicked`
//!   flag re-schedules peers that received outbound frames mid-turn —
//!   the classic lost-wakeup guard;
//! * **backpressure**: each peer's outbound queue is bounded
//!   ([`OutQueueConfig`]); control frames report `Full`, telemetry
//!   batches evict oldest-first. A `WouldBlock` write parks the peer on
//!   EPOLLOUT instead of spinning;
//! * **one-shot arming**: peer fds are registered `EPOLLONESHOT`, so a
//!   peer with a turn queued (or running) generates no further poller
//!   wakeups; the turn re-arms the fd — with EPOLLOUT while writes are
//!   pending — only when the peer goes idle. Without this, level-
//!   triggered epoll re-reports every scheduled-but-unread peer on
//!   every `epoll_wait`, and the poller burns the CPU the workers need;
//! * **deterministic shutdown**: `shutdown()` sets the stop flag, wakes
//!   the poller and every worker, joins them all, then closes every
//!   peer socket.
//!
//! Chaos points (no-ops in release / `buggify-off`):
//! `net.epoll.spurious` (schedule a peer with no real readiness),
//! `net.accept.burst` (cut an accept burst short — level-triggered
//! epoll re-reports the rest), `net.write.wouldblock` (treat a write as
//! `WouldBlock`, forcing the EPOLLOUT path). All three are lossless.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread::JoinHandle;
use std::{io, thread};

use parking_lot::Mutex;
use qos_telemetry::{Counter, Gauge, Telemetry};

use crate::peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
use crate::sock::{SockListener, SockStream};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use crate::turn::{read_turn, write_turn, ReadEnd, WriteEnd};

/// Registration token for the wake pipe's read end.
pub(crate) const TOKEN_WAKE: u64 = u64::MAX;
/// Registration token for the listener.
pub(crate) const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Where the reactor delivers protocol input. Implementations must be
/// cheap to call from worker threads; blocking (e.g. on a bounded
/// manager queue) is allowed and is how ingest backpressure propagates
/// to the socket.
pub trait EventSink: Send + Sync + 'static {
    /// One complete raw frame from a peer. Return `false` to ask the
    /// reactor to close this peer.
    fn on_frame(&self, frame: Vec<u8>, peer: &PeerSender) -> bool;

    /// A peer's byte stream was corrupt beyond reframing; the reactor
    /// is closing it.
    fn on_corrupt(&self);
}

/// Outcome of a [`PeerSender`] delivery attempt — mirrors the manager's
/// sink contract: `Full` means retry the same frame later, `Gone` means
/// forget the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerSend {
    /// Queued for writing (possibly after evicting older telemetry).
    Sent,
    /// The peer's control lane has no room right now.
    Full,
    /// The peer is closed; drop the sender.
    Gone,
}

/// Reactor tunables.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker threads running peer turns (the C10k budget is ≤ 4).
    pub workers: usize,
    /// Max bytes one peer may read per turn before being re-queued at
    /// the tail (fairness under a firehose peer).
    pub read_budget: usize,
    /// Per-peer outbound queue bounds.
    pub out: OutQueueConfig,
    /// Metrics sink for the `net.*` gauges/counters (`None` = no-op).
    pub telemetry: Option<Telemetry>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            read_budget: 64 * 1024,
            out: OutQueueConfig::default(),
            telemetry: None,
        }
    }
}

/// Live counters for the reactor (plain atomics; also mirrored to
/// `net.*` telemetry series when a [`Telemetry`] was configured).
#[derive(Default)]
pub struct NetStats {
    /// Connections accepted over the reactor's lifetime.
    pub accepted: AtomicU64,
    /// Currently connected peers.
    pub peers: AtomicU64,
    /// Complete frames read from peers.
    pub frames_in: AtomicU64,
    /// `epoll_wait` returns that reported at least one event.
    pub wakeups: AtomicU64,
    /// Writes that hit `WouldBlock` (peer parked on EPOLLOUT).
    pub backpressure_stalls: AtomicU64,
    /// Telemetry frames evicted or refused by bounded peer queues.
    pub telemetry_dropped: AtomicU64,
    /// Chaos-injected spurious schedules (`net.epoll.spurious`).
    pub spurious: AtomicU64,
    /// High-water mark of the ready-list depth.
    pub ready_high_water: AtomicU64,
}

struct Gauges {
    peers: Gauge,
    ready_depth: Gauge,
    wakeups: Counter,
    stalls: Counter,
    spurious: Counter,
    telemetry_dropped: Counter,
}

impl Gauges {
    fn new(t: Option<&Telemetry>) -> Gauges {
        match t {
            Some(t) => Gauges {
                peers: t.gauge("net.peers", "reactor"),
                ready_depth: t.gauge("net.ready_depth", "reactor"),
                wakeups: t.counter("net.wakeups", "reactor"),
                stalls: t.counter("net.backpressure_stalls", "reactor"),
                spurious: t.counter("net.spurious", "reactor"),
                telemetry_dropped: t.counter("net.telemetry_dropped", "reactor"),
            },
            None => Gauges {
                peers: Gauge::noop(),
                ready_depth: Gauge::noop(),
                wakeups: Counter::noop(),
                stalls: Counter::noop(),
                spurious: Counter::noop(),
                telemetry_dropped: Counter::noop(),
            },
        }
    }
}

struct Slot {
    id: u64,
    fd: RawFd,
    stream: Mutex<SockStream>,
    reader: Mutex<PeerReader>,
    out: Mutex<PeerOutQueue>,
    /// On the ready list or mid-turn (keeps each peer queued at most
    /// once; turns for one peer never run concurrently).
    scheduled: AtomicBool,
    /// Outbound frames arrived mid-turn; re-schedule when the turn ends.
    kicked: AtomicBool,
    closed: AtomicBool,
}

struct Ready {
    queue: StdMutex<VecDeque<u64>>,
    cv: Condvar,
}

struct Shared {
    epoll: Epoll,
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    ready: Ready,
    kicks: Mutex<Vec<u64>>,
    wake_tx: Mutex<UnixStream>,
    stop: AtomicBool,
    next_id: AtomicU64,
    stats: Arc<NetStats>,
    sink: Arc<dyn EventSink>,
    cfg: ReactorConfig,
    gauges: Gauges,
}

impl Shared {
    fn wake(&self) {
        // One pending byte is enough; WouldBlock means a wake is
        // already queued.
        let _ = self.wake_tx.lock().write(&[1u8]);
    }

    /// Put a peer on the ready list (idempotent while scheduled).
    fn schedule(&self, id: u64) {
        self.schedule_batch(std::slice::from_ref(&id));
    }

    /// Put many peers on the ready list under one lock pass — the
    /// poller calls this once per `epoll_wait` batch.
    fn schedule_batch(&self, ids: &[u64]) {
        let mut fresh: Vec<u64> = Vec::with_capacity(ids.len());
        {
            let slots = self.slots.lock();
            for &id in ids {
                let Some(slot) = slots.get(&id) else {
                    continue;
                };
                if slot.closed.load(Ordering::Acquire) {
                    continue;
                }
                if !slot.scheduled.swap(true, Ordering::AcqRel) {
                    fresh.push(id);
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let depth = {
            let mut q = self.ready.queue.lock().expect("ready lock");
            q.extend(fresh.iter().copied());
            q.len() as u64
        };
        self.stats
            .ready_high_water
            .fetch_max(depth, Ordering::Relaxed);
        self.gauges.ready_depth.set(depth as f64);
        if fresh.len() == 1 {
            self.ready.cv.notify_one();
        } else {
            self.ready.cv.notify_all();
        }
    }

    /// A sender delivered frames to a peer: make sure a turn runs soon.
    fn kick(&self, slot: &Slot) {
        if slot.kicked.swap(true, Ordering::AcqRel) {
            return;
        }
        self.kicks.lock().push(slot.id);
        self.wake();
    }

    fn close_peer(&self, slot: &Slot) {
        if slot.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = self.epoll.del(slot.fd);
        slot.stream.lock().shutdown();
        self.slots.lock().remove(&slot.id);
        let n = self.stats.peers.fetch_sub(1, Ordering::Relaxed) - 1;
        self.gauges.peers.set(n as f64);
    }
}

/// A cloneable handle the manager uses to push frames to one reactor
/// peer (the reactor twin of the blocking driver's shared write half).
#[derive(Clone)]
pub struct PeerSender {
    slot: Weak<Slot>,
    shared: Weak<Shared>,
}

impl PeerSender {
    fn send(&self, class: SendClass, frame: &[u8]) -> PeerSend {
        let (Some(slot), Some(shared)) = (self.slot.upgrade(), self.shared.upgrade()) else {
            return PeerSend::Gone;
        };
        if slot.closed.load(Ordering::Acquire) {
            return PeerSend::Gone;
        }
        let r = slot.out.lock().enqueue(class, frame);
        match r {
            Enqueue::Queued | Enqueue::DroppedOldest | Enqueue::DroppedNew => {
                if matches!(r, Enqueue::DroppedOldest | Enqueue::DroppedNew) {
                    shared
                        .stats
                        .telemetry_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    shared.gauges.telemetry_dropped.inc();
                }
                shared.kick(&slot);
                PeerSend::Sent
            }
            Enqueue::Full => PeerSend::Full,
        }
    }

    /// Queue a protocol reply (sync ack). `Full` asks the caller to
    /// retry later.
    pub fn send_control(&self, frame: &[u8]) -> PeerSend {
        self.send(SendClass::Control, frame)
    }

    /// Queue a telemetry batch (lossy lane: drop-oldest under
    /// pressure — a drop still reports `Sent`, and is counted in
    /// [`NetStats::telemetry_dropped`]).
    pub fn send_telemetry(&self, frame: &[u8]) -> PeerSend {
        self.send(SendClass::Telemetry, frame)
    }

    /// The reactor-assigned peer id.
    pub fn peer_id(&self) -> Option<u64> {
        self.slot.upgrade().map(|s| s.id)
    }
}

/// A running reactor; dropping without [`ReactorHandle::shutdown`]
/// leaks the threads, so the owner must call it.
pub struct ReactorHandle {
    shared: Arc<Shared>,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Start a reactor on an already-bound listener. Frames are
    /// delivered to `sink` from worker threads.
    pub fn spawn(
        listener: SockListener,
        sink: Arc<dyn EventSink>,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::create()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;

        let gauges = Gauges::new(cfg.telemetry.as_ref());
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            epoll,
            slots: Mutex::new(HashMap::new()),
            ready: Ready {
                queue: StdMutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            kicks: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            stats: Arc::new(NetStats::default()),
            sink,
            cfg,
            gauges,
        });

        // Reactor threads inherit the spawner's buggify schedule so
        // chaos tests can arm net.* points deterministically.
        let chaos = qos_buggify::config();

        let poller = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("qos-net-poller".into())
                .spawn(move || {
                    if let Some(c) = chaos {
                        qos_buggify::adopt(c);
                    }
                    poller_loop(&shared, listener, wake_rx);
                })
                .map_err(|e| io::Error::other(format!("spawn poller: {e}")))?
        };

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let shared = Arc::clone(&shared);
            let h = thread::Builder::new()
                .name(format!("qos-net-worker-{i}"))
                .spawn(move || {
                    if let Some(c) = chaos {
                        qos_buggify::adopt(c);
                    }
                    worker_loop(&shared);
                })
                .map_err(|e| io::Error::other(format!("spawn worker: {e}")))?;
            workers.push(h);
        }

        Ok(ReactorHandle {
            shared,
            poller: Some(poller),
            workers,
        })
    }

    /// Live reactor counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stop the reactor deterministically: stop flag → wake poller and
    /// workers → join all threads → close every peer socket.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake();
        self.shared.ready.cv.notify_all();
        if let Some(p) = self.poller.take() {
            let _ = p.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let slots: Vec<Arc<Slot>> = self.shared.slots.lock().values().cloned().collect();
        for slot in slots {
            self.shared.close_peer(&slot);
        }
    }
}

fn poller_loop(shared: &Arc<Shared>, listener: SockListener, mut wake_rx: UnixStream) {
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut drain = [0u8; 64];
    while !shared.stop.load(Ordering::Acquire) {
        // The wake pipe bounds the wait; 250 ms is a safety net against
        // a lost wake, not the scheduling latency.
        let n = match shared.epoll.wait(&mut events, 250) {
            Ok(n) => n,
            Err(_) => break,
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if n > 0 {
            shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            shared.gauges.wakeups.inc();
        }
        let mut batch: Vec<u64> = Vec::with_capacity(n);
        for ev in &events[..n] {
            let e = *ev;
            let (bits, token) = (e.events, e.data);
            match token {
                TOKEN_WAKE => while wake_rx.read(&mut drain).is_ok_and(|r| r > 0) {},
                TOKEN_LISTENER => accept_burst(shared, &listener),
                id => {
                    if qos_buggify::buggify!("net.epoll.spurious") {
                        // Chaos: wake a peer with no real readiness —
                        // its turn reads WouldBlock and must be a
                        // harmless no-op. Copy the id out first: holding
                        // the slots guard across `schedule` (which locks
                        // slots again) would self-deadlock the poller.
                        let other = shared.slots.lock().keys().next().copied();
                        if let Some(other) = other {
                            shared.stats.spurious.fetch_add(1, Ordering::Relaxed);
                            shared.gauges.spurious.inc();
                            shared.schedule(other);
                        }
                    }
                    let _ = bits & (EPOLLIN | EPOLLOUT | EPOLLERR | EPOLLHUP);
                    batch.push(id);
                }
            }
        }
        // Kicks arrive from sender threads (manager pushing acks or
        // telemetry); drain them every pass regardless of what woke us.
        batch.extend(std::mem::take(&mut *shared.kicks.lock()));
        // One lock pass and at most one condvar notify per epoll batch.
        shared.schedule_batch(&batch);
    }
}

fn accept_burst(shared: &Arc<Shared>, listener: &SockListener) {
    loop {
        match listener.accept() {
            Ok(stream) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let fd = stream.as_raw_fd();
                let slot = Arc::new(Slot {
                    id,
                    fd,
                    stream: Mutex::new(stream),
                    reader: Mutex::new(PeerReader::new()),
                    out: Mutex::new(PeerOutQueue::new(shared.cfg.out)),
                    scheduled: AtomicBool::new(false),
                    kicked: AtomicBool::new(false),
                    closed: AtomicBool::new(false),
                });
                shared.slots.lock().insert(id, Arc::clone(&slot));
                if shared.epoll.add(fd, EPOLLIN | EPOLLONESHOT, id).is_err() {
                    shared.slots.lock().remove(&id);
                    continue;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let peers = shared.stats.peers.fetch_add(1, Ordering::Relaxed) + 1;
                shared.gauges.peers.set(peers as f64);
                if qos_buggify::buggify!("net.accept.burst") {
                    // Chaos: cut the burst short. Level-triggered epoll
                    // re-reports the listener, so pending connections
                    // are delayed, never lost.
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut q = shared.ready.queue.lock().expect("ready lock");
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                q = shared.ready.cv.wait(q).expect("ready wait");
            }
        };
        let slot = shared.slots.lock().get(&id).cloned();
        if let Some(slot) = slot {
            run_turn(shared, &slot);
        }
    }
}

/// One bounded unit of work for one peer: drain writes, then read up to
/// the budget. Exactly one worker runs a given peer's turn at a time
/// (the `scheduled` flag).
fn run_turn(shared: &Arc<Shared>, slot: &Arc<Slot>) {
    if slot.closed.load(Ordering::Acquire) {
        slot.scheduled.store(false, Ordering::Release);
        return;
    }
    let mut closed = false;
    let mut corrupt = false;
    let mut more = false;

    // --- write drain: until empty or WouldBlock ----------------------
    let written = {
        let mut out = slot.out.lock();
        let mut stream = slot.stream.lock();
        write_turn(&mut stream, &mut out)
    };
    match written {
        WriteEnd::Drained => {}
        WriteEnd::Blocked => {
            shared
                .stats
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
            shared.gauges.stalls.inc();
        }
        WriteEnd::Closed => closed = true,
    }

    // --- read up to the fairness budget ------------------------------
    let mut frames: Vec<Vec<u8>> = Vec::new();
    if !closed {
        let mut reader = slot.reader.lock();
        let mut stream = slot.stream.lock();
        match read_turn(&mut stream, &mut reader, shared.cfg.read_budget, |f| {
            frames.push(f.to_vec())
        }) {
            ReadEnd::Idle => {}
            ReadEnd::More => more = true,
            ReadEnd::Closed => closed = true,
            ReadEnd::Corrupt => {
                corrupt = true;
                closed = true;
            }
        }
    }

    // --- deliver frames with no slot locks held (the sink may block
    // on the manager's bounded queue; senders only need the out lock,
    // so backpressure propagates without deadlock) -------------------
    if !frames.is_empty() {
        shared
            .stats
            .frames_in
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        let sender = PeerSender {
            slot: Arc::downgrade(slot),
            shared: Arc::downgrade(shared),
        };
        for f in frames {
            if !shared.sink.on_frame(f, &sender) {
                closed = true;
                break;
            }
        }
    }
    if corrupt {
        shared.sink.on_corrupt();
    }

    if closed {
        shared.close_peer(slot);
        slot.scheduled.store(false, Ordering::Release);
        return;
    }

    // --- hand the slot back. The fd is EPOLLONESHOT-disarmed while the
    // peer is scheduled; clear `scheduled` first (so a racing kick can
    // re-queue), then either re-queue at the tail (work left over) or
    // re-arm the fd — with EPOLLOUT only while writes are pending.
    // `epoll_ctl(MOD)` re-checks level-triggered readiness, so bytes
    // that arrived between our last read and the re-arm fire instantly.
    slot.scheduled.store(false, Ordering::Release);
    if more | slot.kicked.swap(false, Ordering::AcqRel) {
        shared.schedule(slot.id);
    } else {
        let want = EPOLLIN
            | EPOLLONESHOT
            | if slot.out.lock().has_pending() {
                EPOLLOUT
            } else {
                0
            };
        let _ = shared.epoll.modify(slot.fd, want, slot.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::SockAddr;
    use qos_wire::WireMsg;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    struct CountSink {
        frames: AtomicU64,
        corrupt: AtomicU64,
        echo: bool,
    }

    impl EventSink for CountSink {
        fn on_frame(&self, frame: Vec<u8>, peer: &PeerSender) -> bool {
            self.frames.fetch_add(1, Ordering::Relaxed);
            if self.echo {
                // Echo the frame back as a control reply.
                let _ = peer.send_control(&frame);
            }
            true
        }
        fn on_corrupt(&self) {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn uds_addr(name: &str) -> SockAddr {
        let dir = std::env::temp_dir().join(format!("qos-net-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        SockAddr::Uds(dir.join(name))
    }

    fn wait_until(d: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + d;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        f()
    }

    #[test]
    fn reactor_echoes_frames_across_many_peers() {
        let addr = uds_addr("echo.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: true,
        });
        let h = ReactorHandle::spawn(
            listener,
            sink.clone(),
            ReactorConfig {
                workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();

        let mut streams = Vec::new();
        for i in 0..8u64 {
            let mut s = SockStream::connect(&addr).unwrap();
            let f = WireMsg::SyncReq { token: i }.encode_frame();
            s.write_all(&f).unwrap();
            streams.push((s, f));
        }
        // Every peer gets its own frame echoed back.
        for (s, f) in &mut streams {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut got = vec![0u8; f.len()];
            s.read_exact(&mut got).unwrap();
            assert_eq!(&got, f);
        }
        assert_eq!(sink.frames.load(Ordering::Relaxed), 8);
        let stats = h.stats();
        assert_eq!(stats.accepted.load(Ordering::Relaxed), 8);
        assert_eq!(stats.peers.load(Ordering::Relaxed), 8);
        drop(streams);
        assert!(
            wait_until(Duration::from_secs(5), || stats
                .peers
                .load(Ordering::Relaxed)
                == 0),
            "closed peers must be reaped"
        );
        h.shutdown();
    }

    #[test]
    fn corrupt_stream_closes_peer_and_reports() {
        let addr = uds_addr("corrupt.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(listener, sink.clone(), ReactorConfig::default()).unwrap();
        let mut s = SockStream::connect(&addr).unwrap();
        let mut bad = WireMsg::Bye.encode_frame();
        bad[0] ^= 0xff;
        s.write_all(&bad).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || sink
                .corrupt
                .load(Ordering::Relaxed)
                == 1),
            "corruption must be reported"
        );
        let stats = h.stats();
        assert!(wait_until(Duration::from_secs(5), || stats
            .peers
            .load(Ordering::Relaxed)
            == 0));
        h.shutdown();
    }

    #[test]
    fn shutdown_joins_threads_deterministically() {
        let addr = uds_addr("shutdown.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(listener, sink, ReactorConfig::default()).unwrap();
        let _s = SockStream::connect(&addr).unwrap();
        let t0 = Instant::now();
        h.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must not hang on the 250ms poll tick"
        );
    }

    #[test]
    fn telemetry_lane_drops_oldest_under_backpressure() {
        let addr = uds_addr("pressure.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(
            listener,
            sink,
            ReactorConfig {
                out: OutQueueConfig {
                    max_bytes: 1 << 20,
                    max_telemetry_frames: 4,
                },
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut s = SockStream::connect(&addr).unwrap();
        s.write_all(&WireMsg::Bye.encode_frame()).unwrap();
        let stats = h.stats();
        assert!(wait_until(Duration::from_secs(5), || stats
            .frames_in
            .load(Ordering::Relaxed)
            == 1));
        // The peer never reads; flood its telemetry lane with frames
        // far larger than the kernel socket buffer so writes park on
        // EPOLLOUT and the 4-frame cap forces drop-oldest eviction.
        // (The queue does not validate frame bytes, and this peer never
        // decodes them.)
        let slot = h.shared.slots.lock().values().next().cloned().unwrap();
        let sender = PeerSender {
            slot: Arc::downgrade(&slot),
            shared: Arc::downgrade(&h.shared),
        };
        let big = vec![0u8; 32 * 1024];
        // Keep flooding until both effects are observed: the worker's
        // write parks on a full kernel buffer (stall), and the bounded
        // queue evicts oldest-first behind it.
        assert!(
            wait_until(Duration::from_secs(10), || {
                assert_eq!(sender.send_telemetry(&big), PeerSend::Sent);
                stats.telemetry_dropped.load(Ordering::Relaxed) > 0
                    && stats.backpressure_stalls.load(Ordering::Relaxed) > 0
            }),
            "flooding a non-reading peer must stall on EPOLLOUT and evict oldest"
        );
        h.shutdown();
        assert_eq!(sender.send_telemetry(&big), PeerSend::Gone);
    }
}
