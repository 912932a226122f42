//! Pluggable transports for the management plane.
//!
//! One protocol ([`qos_wire`]), three carriers:
//!
//! * **Simulator** — [`send_ctrl`]/[`decode_ctrl`] move encoded frames
//!   through `qos_sim` messages, charging the network the *real* encoded
//!   byte length of each control message (see [`WireMode`]).
//! * **In-proc channel** — [`ChannelTransport`] feeds a
//!   [`LiveHostManager`](crate::live::LiveHostManager) thread over a
//!   bounded crossbeam channel, as before, but carrying encoded frames.
//! * **Real sockets** — [`SocketTransport`] speaks the same frames over
//!   TCP or a Unix-domain socket, so the manager and its instrumented
//!   processes can be separate OS processes. It survives peer death with
//!   the PR-1 handshake/backoff idiom: doubling reconnect backoff, and a
//!   stored greeting (the registration frame) replayed after every
//!   reconnect so a restarted manager re-learns the process.
//!
//! The protocol logic behind the socket carrier — *when* to redial,
//! *what* to replay, *when* to flush, *what* to count — lives in the
//! sans-io [`qos_net::ClientConn`] state machine; [`SocketTransport`]
//! is the blocking driver around it. The socket primitives
//! ([`SockAddr`], [`SockStream`], [`SockListener`]), the jittered
//! [`Backoff`] envelope, and the [`FlushPolicy`]/[`ReconnectPolicy`]
//! knobs are re-exported from `qos-net`, where the epoll reactor driver
//! shares them.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender, TrySendError};
use qos_net::{ClientConn, Waker};
use qos_sim::{Ctx, Endpoint, Message, Port};
use qos_wire::messages::{BatchMsg, TelemetryBatchMsg, TelemetrySubscribeMsg};
use qos_wire::{FrameBuffer, WireBytes, WireError, WireMsg};

pub use qos_net::{Backoff, FlushPolicy, ReconnectPolicy, SockAddr, SockListener, SockStream};

use crate::messages::CTRL_MSG_BYTES;

// ---------------------------------------------------------------------
// Simulator backend
// ---------------------------------------------------------------------

/// How control messages are represented and charged inside the simulator.
///
/// `Typed` is the pre-wire-protocol behaviour (struct payloads, nominal
/// [`CTRL_MSG_BYTES`] size); `EncodedFixed` runs the full encode/decode
/// path while keeping the nominal size. The two must produce identical
/// traces — that equivalence is what certifies the codec refactor — and
/// `Measured` then swaps in the real encoded length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Typed struct payloads, nominal `CTRL_MSG_BYTES` network charge
    /// (the legacy path, kept for differential testing).
    Typed,
    /// Encoded frames on the wire, nominal `CTRL_MSG_BYTES` charge
    /// (isolates the codec from the byte-accounting change).
    EncodedFixed,
    /// Encoded frames charged their real encoded length (the default).
    Measured,
}

thread_local! {
    // Thread-local, not global: experiment harnesses run worlds on
    // parallel threads (`parallel_map`), and each world must pick its
    // mode without racing the others. Every scenario builds and runs its
    // world on one thread, so a thread-local is exactly world-scoped.
    static WIRE_MODE: std::cell::Cell<WireMode> = const { std::cell::Cell::new(WireMode::Measured) };
}

/// Set the control-plane wire mode for worlds run on this thread.
pub fn set_wire_mode(mode: WireMode) {
    WIRE_MODE.with(|m| m.set(mode));
}

/// The current thread's control-plane wire mode.
pub fn wire_mode() -> WireMode {
    WIRE_MODE.with(|m| m.get())
}

/// Send a management-plane message through the simulated network,
/// represented and charged according to the thread's [`WireMode`].
pub fn send_ctrl(ctx: &mut Ctx<'_>, dst: Endpoint, src_port: Port, msg: WireMsg) {
    match wire_mode() {
        WireMode::Typed => match msg {
            WireMsg::Violation(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::Register(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::AgentRequest(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::AgentReply(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::DomainAlert(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::StatsQuery(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::StatsReply(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::AdjustRequest(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::Adapt(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            WireMsg::RuleUpdate(m) => ctx.send(dst, src_port, CTRL_MSG_BYTES, m),
            // Live-mode-only kinds have no typed legacy form; carry the
            // frame (they never occur inside simulated worlds).
            other => {
                let b = WireBytes::encode(&other);
                ctx.send(dst, src_port, CTRL_MSG_BYTES, b);
            }
        },
        WireMode::EncodedFixed => {
            let b = WireBytes::encode(&msg);
            ctx.send(dst, src_port, CTRL_MSG_BYTES, b);
        }
        WireMode::Measured => {
            let b = WireBytes::encode(&msg);
            let n = b.len_bytes();
            ctx.send(dst, src_port, n, b);
        }
    }
}

/// Send several management-plane messages coalesced into one
/// [`WireMsg::Batch`] frame — one simulated hop and one manager wake-up
/// instead of N. In `Measured` mode the network is charged the real
/// batch frame length, which is where coalescing pays: N−1 frame
/// headers disappear from the wire. `Typed` mode has no legacy batch
/// form, so it falls back to per-message sends (the two modes still
/// deliver the same messages in the same order, which is what the
/// equivalence suite pins).
pub fn send_ctrl_batch(ctx: &mut Ctx<'_>, dst: Endpoint, src_port: Port, msgs: Vec<WireMsg>) {
    if msgs.is_empty() {
        return;
    }
    match wire_mode() {
        WireMode::Typed => {
            for m in msgs {
                send_ctrl(ctx, dst, src_port, m);
            }
        }
        WireMode::EncodedFixed | WireMode::Measured => {
            send_ctrl(ctx, dst, src_port, WireMsg::Batch(BatchMsg { msgs }));
        }
    }
}

/// Interpret a simulated message as a management-plane message.
///
/// `Ok(Some(..))` — a control message (decoded frame or legacy typed
/// struct). `Ok(None)` — not a control message (application payloads such
/// as video frames pass through untouched). `Err(..)` — the payload was a
/// wire frame but corrupt; the caller should count it, not panic.
pub fn decode_ctrl(msg: &Message) -> Result<Option<WireMsg>, WireError> {
    if let Some(b) = msg.payload.get::<WireBytes>() {
        return b.decode().map(Some);
    }
    macro_rules! typed {
        ($($ty:ident => $variant:ident),* $(,)?) => {
            $(if let Some(m) = msg.payload.get::<crate::messages::$ty>() {
                return Ok(Some(WireMsg::$variant(m.clone())));
            })*
        };
    }
    typed! {
        ViolationMsg => Violation,
        RegisterMsg => Register,
        AgentRequest => AgentRequest,
        AgentReply => AgentReply,
        DomainAlertMsg => DomainAlert,
        StatsQueryMsg => StatsQuery,
        StatsReplyMsg => StatsReply,
        AdjustRequestMsg => AdjustRequest,
        AdaptMsg => Adapt,
        RuleUpdateMsg => RuleUpdate,
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Live backends: what the manager thread consumes
// ---------------------------------------------------------------------

/// Where a live manager writes reply frames (sync acks, telemetry
/// batches) for a peer whose frames reach it through the inbound queue.
/// (Socket peers served on the manager thread itself are answered
/// through their own outbound queue, not through a sink.)
#[derive(Clone)]
pub enum ReplySink {
    /// In-proc peer: a bounded channel.
    Chan(Sender<Vec<u8>>),
    /// Socket peer (epoll reactor driver): frames enter the peer's
    /// bounded, classed outbound queue and a reactor worker writes them
    /// on readiness.
    #[cfg(target_os = "linux")]
    Net(qos_net::PeerSender),
}

/// Outcome of a non-blocking delivery attempt on a [`ReplySink`] —
/// `Full` and `Gone` are different decisions for the sender: retry the
/// same frame later versus forget the peer entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkSend {
    /// Delivered (or queued for the peer's socket).
    Sent,
    /// The peer's queue has no room right now; keep the frame and retry.
    Full,
    /// The peer is gone for good; drop the sink.
    Gone,
}

impl ReplySink {
    /// Best-effort frame delivery; a dead peer is the peer's problem.
    pub fn send(&self, frame: &[u8]) -> bool {
        match self {
            ReplySink::Chan(tx) => tx.try_send(frame.to_vec()).is_ok(),
            // Control lane: a full queue is a drop here (sync acks are
            // re-requested by the peer's next barrier, never queued
            // indefinitely by the manager).
            #[cfg(target_os = "linux")]
            ReplySink::Net(p) => matches!(p.send_control(frame), qos_net::PeerSend::Sent),
        }
    }

    /// Non-blocking delivery with a typed outcome, for senders that keep
    /// per-peer queues (the manager's telemetry publisher).
    pub fn try_send_frame(&self, frame: &[u8]) -> SinkSend {
        match self {
            ReplySink::Chan(tx) => match tx.try_send(frame.to_vec()) {
                Ok(()) => SinkSend::Sent,
                Err(TrySendError::Full(_)) => SinkSend::Full,
                Err(TrySendError::Disconnected(_)) => SinkSend::Gone,
            },
            // Telemetry lane: the reactor's bounded queue absorbs the
            // batch (evicting oldest under pressure — lossy by the
            // same contract as the manager's subscriber queues).
            #[cfg(target_os = "linux")]
            ReplySink::Net(p) => match p.send_telemetry(frame) {
                qos_net::PeerSend::Sent => SinkSend::Sent,
                qos_net::PeerSend::Full => SinkSend::Full,
                qos_net::PeerSend::Gone => SinkSend::Gone,
            },
        }
    }
}

/// What arrives on a live manager's inbound queue from in-proc peers
/// (and from reactor workers): complete frames whose *decode* happens
/// in the manager thread, so malformed frames are counted in one place.
pub enum Inbound {
    /// One complete frame (header validated, payload not yet decoded).
    Frame {
        /// The raw frame bytes.
        bytes: Vec<u8>,
        /// Where acks for this peer go, if the carrier supports replies.
        reply: Option<ReplySink>,
    },
    /// A connection's byte stream was corrupt beyond reframing (bad
    /// header); the connection was dropped.
    StreamCorrupt,
    /// Stop the manager thread. Only the owning handle sends this — a
    /// socket peer cannot shut the manager down.
    Shutdown,
}

/// The sending side of a live manager's inbound queue: every push also
/// wakes the manager loop if it is about to block in `epoll_wait`.
#[derive(Clone)]
pub struct Inlet {
    tx: Sender<Inbound>,
    waker: Waker,
}

impl Inlet {
    /// A queue sender plus the waker of the loop that drains it.
    pub fn new(tx: Sender<Inbound>, waker: Waker) -> Self {
        Inlet { tx, waker }
    }

    /// Push without blocking; `false` if the queue is full or closed.
    pub fn try_send(&self, m: Inbound) -> bool {
        let ok = self.tx.try_send(m).is_ok();
        if ok {
            self.waker.wake();
        }
        ok
    }

    /// Push, blocking while the queue is full; `false` if it is closed.
    pub fn send(&self, m: Inbound) -> bool {
        // (A loop never blocks while the queue holds anything, so a full
        // queue needs no wake to drain.)
        let ok = self.tx.send(m).is_ok();
        if ok {
            self.waker.wake();
        }
        ok
    }
}

/// A bare queue sender (its consumer blocks on the queue itself).
impl From<Sender<Inbound>> for Inlet {
    fn from(tx: Sender<Inbound>) -> Self {
        Inlet::new(tx, Waker::default())
    }
}

/// A client-side carrier for management-plane frames. Implementations
/// must not block the instrumented process on a slow or dead manager:
/// `try_send` drops rather than waits.
pub trait WireTransport: Send {
    /// Best-effort frame delivery. `false` = dropped (queue full, peer
    /// down, connection refused) — the caller counts it and moves on.
    fn try_send(&mut self, frame: &[u8]) -> bool;

    /// Barrier: deliver a `SyncReq` and wait for the matching ack,
    /// bounded by `timeout`. `true` once everything sent before this call
    /// has been processed by the manager.
    fn sync(&mut self, timeout: Duration) -> bool;

    /// Push any buffered frames to the carrier now. Unbuffered carriers
    /// (the default) have nothing to do; a buffering carrier reports
    /// `false` if the buffered bytes had to be dropped.
    fn flush(&mut self) -> bool {
        true
    }

    /// Install the frame to replay after a reconnect (the registration
    /// greeting). Carriers without reconnect ignore it.
    fn set_greeting(&mut self, frame: Vec<u8>) {
        let _ = frame;
    }

    /// Successful reconnects after a lost connection. Carriers without
    /// reconnect report zero.
    fn reconnects(&self) -> u64 {
        0
    }
}

/// In-proc carrier: frames over a bounded crossbeam channel into the
/// manager thread (the original live-mode transport, now frame-typed).
pub struct ChannelTransport {
    inlet: Inlet,
    next_token: u64,
}

impl ChannelTransport {
    /// Wrap a manager inbound queue.
    pub fn new(inlet: impl Into<Inlet>) -> Self {
        ChannelTransport {
            inlet: inlet.into(),
            next_token: 1,
        }
    }
}

impl WireTransport for ChannelTransport {
    fn try_send(&mut self, frame: &[u8]) -> bool {
        self.inlet.try_send(Inbound::Frame {
            bytes: frame.to_vec(),
            reply: None,
        })
    }

    fn sync(&mut self, timeout: Duration) -> bool {
        let token = self.next_token;
        self.next_token += 1;
        let (ack_tx, ack_rx) = bounded(1);
        let req = WireMsg::SyncReq { token }.encode_frame();
        if !self.inlet.send(Inbound::Frame {
            bytes: req,
            reply: Some(ReplySink::Chan(ack_tx)),
        }) {
            return false;
        }
        match ack_rx.recv_timeout(timeout) {
            Ok(frame) => matches!(
                WireMsg::decode_frame(&frame),
                Ok(WireMsg::SyncAck { token: t }) if t == token
            ),
            Err(_) => false,
        }
    }
}

// ---------------------------------------------------------------------
// Socket backend: the blocking driver over qos-net's ClientConn machine
// ---------------------------------------------------------------------

/// Builds a [`SocketTransport`]: the dial address plus the
/// [`ReconnectPolicy`] and optional [`FlushPolicy`] in one place,
/// replacing the scattered `with_*` setters.
///
/// ```no_run
/// use qos_manager::transport::{ReconnectPolicy, SocketTransport};
/// use qos_manager::SockAddr;
/// let t = SocketTransport::builder(SockAddr::Tcp("127.0.0.1:7401".into()))
///     .reconnect(ReconnectPolicy::seeded(7))
///     .connect();
/// ```
#[derive(Debug, Clone)]
pub struct SocketTransportBuilder {
    addr: SockAddr,
    reconnect: ReconnectPolicy,
    flush: Option<FlushPolicy>,
}

impl SocketTransportBuilder {
    /// Replace the reconnect/backoff configuration (default: 50 ms → 2 s
    /// doubling envelope, jitter seeded per process).
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Buffer writes and flush on the given size/deadline policy instead
    /// of one syscall per frame.
    pub fn flush(mut self, policy: FlushPolicy) -> Self {
        self.flush = Some(policy);
        self
    }

    fn build(self, stream: SockStream) -> SocketTransport {
        let mut conn = ClientConn::connected(&self.reconnect);
        conn.set_flush_policy(self.flush);
        SocketTransport {
            addr: self.addr,
            stream: Some(stream),
            conn,
        }
    }

    /// Connect now; error if the manager is unreachable.
    pub fn connect(self) -> io::Result<SocketTransport> {
        let stream = SockStream::connect(&self.addr)?;
        Ok(self.build(stream))
    }

    /// Connect, retrying with short sleeps until `deadline` elapses —
    /// for processes racing a manager that is still binding its socket.
    pub fn connect_retry(self, deadline: Duration) -> io::Result<SocketTransport> {
        let give_up = Instant::now() + deadline;
        loop {
            match SockStream::connect(&self.addr) {
                Ok(stream) => return Ok(self.build(stream)),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Socket carrier: the manager is another OS process. Failed sends drop
/// the connection and arm a doubling-backoff reconnect; the greeting
/// frame (registration) is replayed after every successful reconnect so
/// a restarted manager re-learns this process — the same
/// handshake/backoff shape the robustness PR gave in-sim registration.
///
/// With a [`FlushPolicy`] installed the transport buffers frames and
/// writes them in one syscall when the size or deadline trigger fires —
/// the socket-side twin of [`BatchBuilder`](qos_wire::BatchBuilder)
/// coalescing. Frames are only reported dropped at flush time (the
/// buffer itself never refuses a frame).
///
/// All of those decisions live in the sans-io [`ClientConn`] machine;
/// this type is the blocking driver: it owns the socket, performs the
/// writes the machine asks for, and reports outcomes back.
pub struct SocketTransport {
    addr: SockAddr,
    stream: Option<SockStream>,
    conn: ClientConn,
}

impl SocketTransport {
    /// Start building a transport for `addr` (reconnect and flush
    /// policies default as documented on [`SocketTransportBuilder`]).
    pub fn builder(addr: SockAddr) -> SocketTransportBuilder {
        SocketTransportBuilder {
            addr,
            reconnect: ReconnectPolicy::default(),
            flush: None,
        }
    }

    /// Connect now with default policies; error if the manager is
    /// unreachable. Shorthand for `builder(addr).connect()`.
    pub fn connect(addr: SockAddr) -> io::Result<SocketTransport> {
        SocketTransport::builder(addr).connect()
    }

    /// Connect with default policies, retrying until `deadline` elapses.
    /// Shorthand for `builder(addr).connect_retry(deadline)`.
    pub fn connect_retry(addr: SockAddr, deadline: Duration) -> io::Result<SocketTransport> {
        SocketTransport::builder(addr).connect_retry(deadline)
    }

    /// Buffer writes and flush on the given size/deadline policy instead
    /// of one syscall per frame.
    #[deprecated(note = "use SocketTransport::builder(addr).flush(policy)")]
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.conn.set_flush_policy(Some(policy));
        self
    }

    /// Re-seed the reconnect jitter (deterministic tests).
    #[deprecated(
        note = "use SocketTransport::builder(addr).reconnect(ReconnectPolicy::seeded(seed))"
    )]
    pub fn with_backoff_seed(self, seed: u64) -> Self {
        // Rebuild the machine with a pinned seed; only valid in builder
        // position (before any greeting or buffered traffic exists).
        let mut conn = ClientConn::connected(&ReconnectPolicy::seeded(seed));
        conn.set_flush_policy(self.conn.flush_policy());
        SocketTransport { conn, ..self }
    }

    /// The peer address.
    pub fn addr(&self) -> &SockAddr {
        &self.addr
    }

    /// Whether a connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Successful reconnects after a lost connection (the initial
    /// connect does not count).
    pub fn reconnect_count(&self) -> u64 {
        self.conn.reconnects()
    }

    /// Frames currently sitting in the write buffer.
    pub fn buffered_frames(&self) -> u64 {
        self.conn.buffered_frames()
    }

    /// Completed flushes (buffered mode only).
    pub fn flush_count(&self) -> u64 {
        self.conn.flushes()
    }

    /// Flushes forced by the deadline trigger rather than the size one.
    pub fn deadline_flushes(&self) -> u64 {
        self.conn.deadline_flushes()
    }

    /// Frames dropped because a flush failed (connection down and the
    /// buffer discarded).
    pub fn dropped_frames(&self) -> u64 {
        self.conn.dropped_frames()
    }

    /// Whether the deadline trigger has fired for the oldest buffered
    /// frame — callers with their own tick loop use this to decide when
    /// to [`SocketTransport::flush`] during send lulls.
    pub fn flush_due(&self) -> bool {
        self.conn.flush_due(Instant::now())
    }

    /// Write all buffered frames now. Returns `false` if they had to be
    /// dropped (the connection was down and stayed down); the buffer is
    /// empty afterwards either way, so a dead manager costs the reports,
    /// never the sensor loop.
    pub fn flush(&mut self) -> bool {
        if !self.conn.has_buffered() {
            return true;
        }
        if !self.ensure_connected() {
            self.conn.drop_buffered();
            return false;
        }
        let Some(batch) = self.conn.begin_flush(Instant::now()) else {
            return true;
        };
        let buf = batch.bytes();
        let ok = if buf.len() > 1 && qos_buggify::buggify!("sock.write.split_batch") {
            // Chaos: the kernel (or a preemption) splits the coalesced
            // write in two. Frames must survive — the peer's
            // FrameBuffer reassembles across write boundaries.
            let mid = buf.len() / 2;
            let (lo, hi) = (buf[..mid].to_vec(), buf[mid..].to_vec());
            self.write_frame(&lo) && self.write_frame(&hi)
        } else {
            let whole = buf.to_vec();
            self.write_frame(&whole)
        };
        self.conn.finish_flush(batch, ok);
        ok
    }

    fn disconnect(&mut self) {
        if let Some(s) = self.stream.take() {
            s.shutdown();
        }
        self.conn.on_disconnect(Instant::now());
    }

    fn ensure_connected(&mut self) -> bool {
        if self.stream.is_some() {
            return true;
        }
        let now = Instant::now();
        if !self.conn.connect_due(now) {
            return false;
        }
        match SockStream::connect(&self.addr) {
            Ok(s) => {
                self.stream = Some(s);
                if let Some(g) = self.conn.on_connected(Instant::now()) {
                    // Replayed registration: restores the manager's view
                    // of this process after either side restarted.
                    self.write_frame(&g);
                }
                true
            }
            Err(_) => {
                self.conn.on_connect_failed(now);
                false
            }
        }
    }

    fn write_frame(&mut self, frame: &[u8]) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        if frame.len() > 1 && qos_buggify::buggify!("sock.write.tear") {
            // Chaos: the process dies (or is preempted forever) halfway
            // through a write. The connection stays up, so the peer's
            // next read sees a misaligned stream — exactly the torn
            // frame a crash between two write() calls produces.
            let _ = stream.write_all(&frame[..frame.len() / 2]);
            return true;
        }
        if qos_buggify::buggify!("sock.write.corrupt") {
            // Chaos: the frame arrives bit-flipped (bad magic) — the
            // peer must fail it as a typed error and drop us, never
            // panic.
            let mut bad = frame.to_vec();
            bad[0] ^= 0xff;
            let _ = stream.write_all(&bad);
            return true;
        }
        if stream.write_all(frame).is_ok() {
            true
        } else {
            self.disconnect();
            false
        }
    }
}

impl WireTransport for SocketTransport {
    fn try_send(&mut self, frame: &[u8]) -> bool {
        if self.conn.flush_policy().is_none() {
            return self.ensure_connected() && self.write_frame(frame);
        }
        // Buffered mode: accepting into the buffer always succeeds;
        // drops are only discovered (and counted) at flush time.
        if self.conn.buffer_frame(frame, Instant::now()) {
            self.flush();
        }
        true
    }

    fn flush(&mut self) -> bool {
        SocketTransport::flush(self)
    }

    fn sync(&mut self, timeout: Duration) -> bool {
        // A barrier covers everything sent before it: push buffered
        // frames out first so the ack really means "processed".
        SocketTransport::flush(self);
        if !self.ensure_connected() {
            return false;
        }
        let token = self.conn.next_sync_token();
        let req = WireMsg::SyncReq { token }.encode_frame();
        if !self.write_frame(&req) {
            return false;
        }
        let Some(stream) = self.stream.as_ref() else {
            return false;
        };
        let Ok(mut reader) = stream.try_clone() else {
            return false;
        };
        let deadline = Instant::now() + timeout;
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        loop {
            loop {
                match fb.next() {
                    Ok(Some(WireMsg::SyncAck { token: t })) if t == token => return true,
                    Ok(Some(_)) => continue, // stale ack or push; skip
                    Ok(None) => break,
                    Err(_) => {
                        self.disconnect();
                        return false;
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if reader.set_read_timeout(Some(deadline - now)).is_err() {
                return false;
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    self.disconnect();
                    return false;
                }
                Ok(n) => fb.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return false;
                }
                Err(_) => {
                    self.disconnect();
                    return false;
                }
            }
        }
    }

    fn set_greeting(&mut self, frame: Vec<u8>) {
        self.conn.set_greeting(frame);
    }

    fn reconnects(&self) -> u64 {
        self.conn.reconnects()
    }
}

// ---------------------------------------------------------------------
// Telemetry tap: the read side of the manager's live stream
// ---------------------------------------------------------------------

/// A subscriber's end of the manager's telemetry stream: dial the
/// manager, subscribe, then pull decoded [`TelemetryBatchMsg`]es as they
/// are published. Used by `qosctl tail` / `record`; deliberately
/// pull-based and bounded so a slow consumer backs up into the
/// manager's drop-oldest queue instead of into unbounded memory here.
pub struct TelemetryTap {
    stream: SockStream,
    fb: FrameBuffer,
    /// Batches that arrived before the subscribe handshake finished.
    early: VecDeque<TelemetryBatchMsg>,
}

/// Sync token of the subscribe handshake (one per connection).
const SUBSCRIBE_TOKEN: u64 = 1;

/// Bytes asked of one tap `read`: a whole subscriber batch (a few KiB
/// to a few tens of KiB) usually arrives in one call.
const TAP_READ_CHUNK: usize = 64 * 1024;

impl TelemetryTap {
    /// Connect and subscribe. Returns once the manager has acknowledged
    /// the subscription: the `TelemetrySubscribe` is followed by a
    /// `SyncReq` on the same connection, and the manager handles one
    /// connection's frames in order, so the `SyncAck` proves every event
    /// from then on reaches this tap. Errors with `TimedOut` if no ack
    /// arrives within [`SYNC_TIMEOUT`](crate::live::SYNC_TIMEOUT).
    pub fn connect(
        addr: &SockAddr,
        subscriber: &str,
        want_events: bool,
        want_metrics: bool,
    ) -> io::Result<TelemetryTap> {
        let mut stream = SockStream::connect(addr)?;
        let mut hello = WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
            subscriber: subscriber.to_string(),
            want_events,
            want_metrics,
        })
        .encode_frame();
        WireMsg::SyncReq {
            token: SUBSCRIBE_TOKEN,
        }
        .encode_frame_into(&mut hello);
        stream.write_all(&hello)?;
        let mut tap = TelemetryTap {
            stream,
            fb: FrameBuffer::new(),
            early: VecDeque::new(),
        };
        let deadline = Instant::now() + crate::live::SYNC_TIMEOUT;
        loop {
            match tap.next_msg(deadline)? {
                Some(WireMsg::SyncAck {
                    token: SUBSCRIBE_TOKEN,
                }) => return Ok(tap),
                Some(WireMsg::TelemetryBatch(b)) => tap.early.push_back(b),
                Some(_) => {}
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "manager never acknowledged the subscription",
                    ))
                }
            }
        }
    }

    /// The next batch, waiting at most `timeout`. `Ok(None)` means
    /// nothing arrived in time (the stream is still healthy); `Err`
    /// means the manager closed the connection or the stream corrupted.
    pub fn next_batch(&mut self, timeout: Duration) -> io::Result<Option<TelemetryBatchMsg>> {
        if let Some(b) = self.early.pop_front() {
            return Ok(Some(b));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.next_msg(deadline)? {
                Some(WireMsg::TelemetryBatch(b)) => return Ok(Some(b)),
                // Acks and other push kinds may share the stream.
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }

    /// The next message of any kind, or `None` once `deadline` passes.
    fn next_msg(&mut self, deadline: Instant) -> io::Result<Option<WireMsg>> {
        loop {
            if let Some(m) = self
                .fb
                .next()
                .map_err(|e| io::Error::other(format!("stream corrupt: {e}")))?
            {
                return Ok(Some(m));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            match self.fb.read_from(&mut self.stream, TAP_READ_CHUNK) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::AdaptMsg;

    #[test]
    fn channel_transport_delivers_frames() {
        let (tx, rx) = bounded(4);
        let mut t = ChannelTransport::new(tx);
        let frame = WireMsg::Bye.encode_frame();
        assert!(t.try_send(&frame));
        match rx.recv().unwrap() {
            Inbound::Frame { bytes, reply } => {
                assert!(reply.is_none());
                assert_eq!(WireMsg::decode_frame(&bytes).unwrap(), WireMsg::Bye);
            }
            _ => panic!("expected frame"),
        }
    }

    #[test]
    fn channel_sync_acks_through_reply_sink() {
        let (tx, rx) = bounded(4);
        let h = std::thread::spawn(move || {
            // Minimal manager loop: ack the sync.
            if let Ok(Inbound::Frame { bytes, reply }) = rx.recv() {
                if let Ok(WireMsg::SyncReq { token }) = WireMsg::decode_frame(&bytes) {
                    let ack = WireMsg::SyncAck { token }.encode_frame();
                    assert!(reply.unwrap().send(&ack));
                }
            }
        });
        let mut t = ChannelTransport::new(tx);
        assert!(t.sync(Duration::from_secs(5)));
        h.join().unwrap();
    }

    #[test]
    fn channel_sync_fails_when_manager_gone() {
        let (tx, rx) = bounded(4);
        drop(rx);
        let mut t = ChannelTransport::new(tx);
        assert!(!t.sync(Duration::from_millis(50)));
    }

    #[test]
    fn socket_transport_reconnects_with_greeting() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("reconnect.sock");
        let addr = SockAddr::Uds(path.clone());

        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::connect(addr.clone()).unwrap();
        let greeting = WireMsg::Adapt(AdaptMsg {
            actuator: "a".into(),
            command: "greet".into(),
            value: 1.0,
        })
        .encode_frame();
        t.set_greeting(greeting.clone());

        // First connection: accept, then kill it server-side.
        let first = listener.accept().unwrap();
        first.shutdown();
        drop(first);

        // The next sends hit the dead connection, then reconnect (after
        // backoff) and replay the greeting.
        let frame = WireMsg::Bye.encode_frame();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !t.try_send(&frame) {
            assert!(Instant::now() < deadline, "reconnect never succeeded");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut second = listener.accept().unwrap();
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 1024];
        let got_greeting = loop {
            let n = second.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed before greeting");
            fb.extend(&chunk[..n]);
            if let Some(msg) = fb.next().unwrap() {
                break msg;
            }
        };
        assert!(
            matches!(got_greeting, WireMsg::Adapt(ref m) if m.command == "greet"),
            "greeting must be replayed first after reconnect, got {got_greeting:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_transport_coalesces_and_flushes() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("buffered.sock");
        let addr = SockAddr::Uds(path.clone());

        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::builder(addr)
            .flush(FlushPolicy {
                max_bytes: 1 << 20, // size trigger never fires here
                max_delay: Duration::from_secs(60),
            })
            .connect()
            .unwrap();
        let mut peer = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        for token in 0..4 {
            assert!(t.try_send(&WireMsg::SyncReq { token }.encode_frame()));
        }
        assert_eq!(t.buffered_frames(), 4, "frames must coalesce, not write");
        assert!(SocketTransport::flush(&mut t));
        assert_eq!(t.buffered_frames(), 0);
        assert_eq!(t.flush_count(), 1);
        assert_eq!(t.dropped_frames(), 0);

        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        while got.len() < 4 {
            let n = peer.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed early");
            fb.extend(&chunk[..n]);
            while let Some(msg) = fb.next().unwrap() {
                got.push(msg);
            }
        }
        let tokens: Vec<u64> = got
            .iter()
            .map(|m| match m {
                WireMsg::SyncReq { token } => *token,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tokens, vec![0, 1, 2, 3], "order must be preserved");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_flush_counts_drops_when_manager_gone() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("buffered-drop.sock");
        let addr = SockAddr::Uds(path.clone());

        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::builder(addr)
            .flush(FlushPolicy {
                max_bytes: 1 << 20,
                max_delay: Duration::from_secs(60),
            })
            .connect()
            .unwrap();
        let first = listener.accept().unwrap();
        first.shutdown();
        drop(first);
        drop(listener);
        let _ = std::fs::remove_file(&path);

        // Buffer still accepts; the loss is discovered at flush time.
        for token in 0..3 {
            assert!(t.try_send(&WireMsg::SyncReq { token }.encode_frame()));
        }
        // First flush may still slip into the dead socket's send buffer;
        // keep flushing fresh frames until the failure is observed.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut token = 3;
        while t.dropped_frames() == 0 {
            assert!(Instant::now() < deadline, "drop never observed");
            let _ = SocketTransport::flush(&mut t);
            assert!(t.buffered_frames() == 0, "flush must empty the buffer");
            t.try_send(&WireMsg::SyncReq { token }.encode_frame());
            token += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(t.dropped_frames() > 0);
    }

    #[test]
    fn socket_connect_refused_is_error_not_panic() {
        let addr = SockAddr::Uds(std::path::PathBuf::from("/nonexistent/qos-no-such.sock"));
        assert!(SocketTransport::connect(addr).is_err());
    }

    // The Backoff envelope's own tests moved with it into qos-net; what
    // this crate pins is that the builder threads the policy through to
    // the driver's reconnect schedule.
    #[test]
    fn builder_reconnect_policy_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("seeded.sock");
        let addr = SockAddr::Uds(path.clone());
        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::builder(addr)
            .reconnect(ReconnectPolicy::seeded(7))
            .connect()
            .unwrap();
        let first = listener.accept().unwrap();
        first.shutdown();
        drop(first);
        drop(listener);
        let _ = std::fs::remove_file(&path);
        // Two failed sends: the first discovers the dead stream and arms
        // the seeded backoff window; inside the window no dial happens.
        let frame = WireMsg::Bye.encode_frame();
        while t.is_connected() {
            let _ = t.try_send(&frame);
        }
        assert!(!t.try_send(&frame), "listener is gone; dial must fail");
        assert_eq!(t.reconnect_count(), 0);
    }
}
