//! Live deployment: the instrumentation and management plane on real
//! threads with real clocks — the configuration used to reproduce the
//! paper's Section 7 overhead measurements (an instrumented process needs
//! ≈400 µs extra to initialise and register; one pass through the
//! instrumentation code when QoS is met costs ≈11 µs).
//!
//! The exact same `qos-instrument` components run here as inside the
//! simulation; only the clock and the carrier differ. All live traffic is
//! `qos_wire` frames over a [`WireTransport`]: the in-proc channel
//! backend keeps everything in one address space, and the socket backend
//! (TCP or Unix-domain) puts the manager and its instrumented processes
//! in separate OS processes. Frames are decoded centrally in the manager
//! thread, so a malformed frame is a counted statistic
//! ([`LiveManagerStats::decode_errors`], mirrored to telemetry as
//! `live.decode_errors`), never a panic.
//!
//! Socket peers are served by one of two interchangeable [`Driver`]s
//! over the same `qos-net` protocol machines: [`Driver::Inline`] (the
//! default: the manager thread runs its own epoll loop over the
//! listener and every peer, and handles each frame where it reads it —
//! no reader thread, no queue hop) or [`Driver::Reactor`] (the
//! hand-rolled epoll reactor: every peer multiplexed onto a small
//! worker pool that feeds the manager's inbound queue, the C10k
//! configuration). Both are Linux only. Rule firing traces are
//! driver-independent. Construction goes through
//! [`LiveHostManager::builder`]:
//!
//! ```no_run
//! use qos_manager::live::{Driver, ListenSpec, LiveHostManager};
//! use qos_manager::SockAddr;
//! let mgr = LiveHostManager::builder()
//!     .listen(ListenSpec::Sock(SockAddr::Tcp("127.0.0.1:0".into())))
//!     .driver(Driver::Reactor)
//!     .workers(4)
//!     .spawn()
//!     .expect("spawn manager");
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
use crossbeam::channel::RecvTimeoutError;
#[cfg(target_os = "linux")]
use crossbeam::channel::TryRecvError;
use crossbeam::channel::{bounded, Receiver, Sender};
use qos_inference::prelude::*;
use qos_instrument::prelude::*;
#[cfg(target_os = "linux")]
use qos_net::{
    Enqueue, EventSink, FrameHandler, InlineNet, NetStats, OutQueueConfig, PeerOutQueue,
    PeerSender, ReactorConfig, ReactorHandle, SendClass,
};
use qos_repository::prelude::*;
use qos_telemetry::{Counter, Histogram, Stage, Telemetry, TraceEvent};
use qos_wire::messages::{LiveRegisterMsg, TelemetryBatchMsg, TelemetrySubscribeMsg};
use qos_wire::{BatchBuilder, LiveViolationMsgRef, WireMsg, WireMsgRef};

use crate::rules::{host_base_facts, host_rules_fair};
use crate::transport::{
    ChannelTransport, FlushPolicy, Inbound, Inlet, ReplySink, SinkSend, SockAddr, SockListener,
    WireTransport,
};

/// Capacity of the manager's message queue. Bounded so a violation storm
/// back-pressures into [`LiveProcess::reports_dropped`] instead of
/// growing the queue (and the manager's lag) without limit.
pub const LIVE_QUEUE_CAPACITY: usize = 1024;

/// How long [`LiveHostManager::sync`] and transport syncs wait for the
/// manager to drain (it never legitimately takes longer).
pub const SYNC_TIMEOUT: Duration = Duration::from_secs(5);

/// How often the manager flushes staged events to telemetry subscribers
/// (also the idle tick of the manager loop).
pub const TELEMETRY_PUBLISH_INTERVAL: Duration = Duration::from_millis(100);

/// Minimum spacing of metrics snapshots in the published stream —
/// snapshots cost a full registry walk, so they ride a slower cadence
/// than event batches.
pub const TELEMETRY_METRICS_INTERVAL: Duration = Duration::from_millis(500);

/// Per-subscriber pending-batch budget. A subscriber that stops reading
/// loses its *oldest* batches first (`live.telemetry_dropped` counts
/// them); the manager's memory stays bounded either way.
pub const SUBSCRIBER_QUEUE_CAPACITY: usize = 64;

/// Staged-event threshold that forces a publish before the interval
/// elapses, bounding batch size under a violation storm.
const BATCH_MAX_EVENTS: usize = 256;

/// High bit marking lifecycle correlation ids minted by the manager (for
/// reports that arrive with corr 0), keeping them disjoint from
/// process-minted ids when both appear in one merged stream.
const MGR_CORR_BIT: u64 = 1 << 63;

/// Failure starting or reaching the live management plane.
#[derive(Debug)]
pub enum LiveError {
    /// The manager is not reachable (queue disconnected, socket refused).
    ManagerUnavailable,
    /// The built-in rule base failed to parse.
    BadRules(String),
    /// The OS refused to spawn the manager thread.
    ThreadSpawn(std::io::Error),
    /// The OS refused the listening socket.
    Listen(std::io::Error),
    /// Socket peers were requested on a platform without epoll (both
    /// [`Driver`]s are Linux only; in-proc managers run anywhere).
    ReactorUnsupported,
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::ManagerUnavailable => write!(f, "live host manager is not reachable"),
            LiveError::BadRules(e) => write!(f, "built-in rule base failed to parse: {e}"),
            LiveError::ThreadSpawn(e) => write!(f, "could not spawn manager thread: {e}"),
            LiveError::Listen(e) => write!(f, "could not bind manager socket: {e}"),
            LiveError::ReactorUnsupported => {
                write!(
                    f,
                    "socket peers need epoll, which is only available on Linux"
                )
            }
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::ThreadSpawn(e) | LiveError::Listen(e) => Some(e),
            _ => None,
        }
    }
}

/// Wall-clock microseconds since an origin.
#[derive(Debug, Clone, Copy)]
pub struct LiveClock {
    t0: Instant,
}

impl LiveClock {
    /// Clock starting now.
    pub fn new() -> Self {
        LiveClock { t0: Instant::now() }
    }

    /// Microseconds since the clock started.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}

impl Default for LiveClock {
    fn default() -> Self {
        Self::new()
    }
}

/// When a batching [`LiveProcess`] flushes its coalesced reports:
/// whichever of the two triggers fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportBatchPolicy {
    /// Flush once this many reports are coalesced.
    pub max_msgs: usize,
    /// Flush once the oldest coalesced report has waited this long. The
    /// deadline is checked on the next report or instrumentation pass
    /// (the process owns no timer thread); callers with long send lulls
    /// use [`LiveProcess::poll_flush`].
    pub max_delay: Duration,
}

impl Default for ReportBatchPolicy {
    fn default() -> Self {
        ReportBatchPolicy {
            max_msgs: 16,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Coalescing state of a batching [`LiveProcess`].
struct ReportBatch {
    builder: BatchBuilder,
    policy: ReportBatchPolicy,
    oldest: Option<Instant>,
}

/// An instrumented process in live mode: sensors + coordinator + a
/// transport to the host manager, as created by process initialisation.
pub struct LiveProcess {
    /// The process's sensors.
    pub sensors: SensorSet,
    /// The process's coordinator.
    pub coordinator: Coordinator,
    clock: LiveClock,
    transport: Box<dyn WireTransport>,
    batch: Option<ReportBatch>,
    /// Reusable frame buffer: the send paths allocate nothing for the
    /// frame in steady state.
    frame_buf: Vec<u8>,
    reports_sent: u64,
    reports_dropped: u64,
    flush_deadline_hits: u64,
    /// Registry mirrors of the two counters above (noop until
    /// [`LiveProcess::set_telemetry`]). Uncontended relaxed atomics: the
    /// mirror adds nanoseconds to a path that already crossed a channel.
    sent_counter: Counter,
    dropped_counter: Counter,
    reconnect_counter: Counter,
    deadline_counter: Counter,
    reconnects_mirrored: u64,
}

impl LiveProcess {
    /// Full instrumented-process initialisation (the path measured by
    /// experiment E2): register with the Policy Agent, receive and load
    /// the applicable policies, configure sensor thresholds, and announce
    /// to the host manager over `transport`. The registration frame is
    /// installed as the transport's greeting, so a socket transport
    /// re-announces after every reconnect. Fails (instead of panicking)
    /// when the manager is not reachable — the caller decides whether to
    /// run unmanaged.
    pub fn start(
        registration: &Registration,
        repo: &Repository,
        agent: &mut PolicyAgent,
        mut transport: Box<dyn WireTransport>,
    ) -> Result<Self, LiveError> {
        let resolution = agent.register(repo, registration);
        let mut coordinator = Coordinator::new(registration.process.clone());
        for p in resolution.policies {
            coordinator.load_policy(p);
        }
        let sensors = SensorSet::video_standard();
        sensors.configure(coordinator.global_conditions());
        let hello = WireMsg::LiveRegister(LiveRegisterMsg {
            process: registration.process.clone(),
        })
        .encode_frame();
        transport.set_greeting(hello.clone());
        if !transport.try_send(&hello) {
            return Err(LiveError::ManagerUnavailable);
        }
        Ok(LiveProcess {
            sensors,
            coordinator,
            clock: LiveClock::new(),
            transport,
            batch: None,
            frame_buf: Vec::new(),
            reports_sent: 0,
            reports_dropped: 0,
            flush_deadline_hits: 0,
            sent_counter: Counter::noop(),
            dropped_counter: Counter::noop(),
            reconnect_counter: Counter::noop(),
            deadline_counter: Counter::noop(),
            reconnects_mirrored: 0,
        })
    }

    /// Coalesce violation reports into batch frames: up to
    /// `policy.max_msgs` reports travel as one [`WireMsg::Batch`] frame
    /// and one transport send. Off by default (one frame per report, the
    /// original behaviour); under a violation storm batching trades up
    /// to `policy.max_delay` of added report latency for an N-fold cut
    /// in sends and manager wake-ups.
    pub fn enable_report_batching(&mut self, policy: ReportBatchPolicy) {
        self.batch = Some(ReportBatch {
            builder: BatchBuilder::new(),
            policy,
            oldest: None,
        });
    }

    /// Mirror the report counters into a telemetry registry as
    /// `live.reports_sent` / `live.reports_dropped`, labelled with the
    /// process identity. Call once after `start`; existing counts are
    /// carried over.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        let label = self.coordinator.process().to_string();
        self.sent_counter = t.counter("live.reports_sent", &label);
        self.dropped_counter = t.counter("live.reports_dropped", &label);
        self.reconnect_counter = t.counter("live.reconnects", &label);
        self.deadline_counter = t.counter("live.flush.deadline_hits", &label);
        self.sent_counter.add(self.reports_sent);
        self.dropped_counter.add(self.reports_dropped);
        self.deadline_counter.add(self.flush_deadline_hits);
        self.reconnects_mirrored = 0;
        self.mirror_reconnects();
    }

    /// Push transport reconnects accumulated since the last mirror into
    /// the `live.reconnects` counter. Called from the send paths; cheap
    /// (two u64 reads) when nothing changed.
    fn mirror_reconnects(&mut self) {
        let now = self.transport.reconnects();
        if now > self.reconnects_mirrored {
            self.reconnect_counter.add(now - self.reconnects_mirrored);
            self.reconnects_mirrored = now;
        }
    }

    /// Best-effort violation delivery: a full queue (manager lagging) or
    /// a dead manager drops the report and counts it, rather than
    /// blocking or killing the instrumented process. Violations are
    /// re-detected on the next pass, so a drop costs latency, not
    /// correctness.
    pub fn report(&mut self, report: ViolationReport) {
        let msg = WireMsg::LiveViolation(report.into_wire());
        if let Some(b) = self.batch.as_mut() {
            if b.builder.is_empty() {
                b.oldest = Some(Instant::now());
            }
            b.builder.push(&msg);
            let full = b.builder.len() >= b.policy.max_msgs;
            let due = b.oldest.is_some_and(|t| t.elapsed() >= b.policy.max_delay);
            if full || due {
                self.flush_inner(due && !full);
            }
        } else {
            self.frame_buf.clear();
            msg.encode_frame_into(&mut self.frame_buf);
            if self.transport.try_send(&self.frame_buf) {
                self.reports_sent += 1;
                self.sent_counter.inc();
            } else {
                self.reports_dropped += 1;
                self.dropped_counter.inc();
            }
        }
        self.mirror_reconnects();
    }

    /// Push coalesced reports to the transport now as one batch frame.
    /// No-op when batching is off or nothing is pending.
    pub fn flush_reports(&mut self) {
        self.flush_inner(false);
    }

    /// Flush coalesced reports whose deadline has passed — for callers
    /// with their own tick loop and long send lulls (the instrumentation
    /// passes and [`LiveProcess::sync`] already check).
    pub fn poll_flush(&mut self) {
        let due = self.batch.as_ref().is_some_and(|b| {
            !b.builder.is_empty() && b.oldest.is_some_and(|t| t.elapsed() >= b.policy.max_delay)
        });
        if due {
            self.flush_inner(true);
        }
    }

    fn flush_inner(&mut self, deadline_hit: bool) {
        let Some(b) = self.batch.as_mut() else {
            return;
        };
        if b.builder.is_empty() {
            return;
        }
        let n = b.builder.len() as u64;
        self.frame_buf.clear();
        b.builder.append_frame_to(&mut self.frame_buf);
        b.oldest = None;
        if deadline_hit {
            self.flush_deadline_hits += 1;
            self.deadline_counter.inc();
        }
        // The whole batch stands or falls with its one frame — the same
        // all-or-nothing the wire format promises on the decode side.
        if self.transport.try_send(&self.frame_buf) {
            self.reports_sent += n;
            self.sent_counter.add(n);
        } else {
            self.reports_dropped += n;
            self.dropped_counter.add(n);
        }
    }

    /// Reports coalesced but not yet flushed (zero with batching off).
    pub fn pending_reports(&self) -> usize {
        self.batch.as_ref().map_or(0, |b| b.builder.len())
    }

    /// Batch flushes forced by the deadline trigger rather than the
    /// size one (mirrored as `live.flush.deadline_hits`).
    pub fn flush_deadline_hits(&self) -> u64 {
        self.flush_deadline_hits
    }

    /// One pass through the instrumentation after a frame is displayed
    /// (the path measured by experiment E3): fps + jitter probes, alarm
    /// routing, and — only on a violation edge — action execution and a
    /// notification to the host manager. Returns the number of reports
    /// sent (0 on the happy path).
    pub fn frame_pass(&mut self) -> usize {
        let now = self.clock.now_us();
        let mut generated = 0;
        let mut alarms = Vec::new();
        if let Some(f) = self.sensors.fps() {
            alarms.extend(f.frame_displayed(now));
        }
        if let Some(j) = self.sensors.jitter() {
            alarms.extend(j.frame_displayed(now));
        }
        for alarm in &alarms {
            for pix in self.coordinator.on_alarm(alarm) {
                if let Some(report) = self.coordinator.execute_actions(pix, &self.sensors, now) {
                    self.report(report);
                    generated += 1;
                }
            }
        }
        self.poll_flush();
        generated
    }

    /// Sample the communication buffer (Example 5's probe).
    pub fn buffer_pass(&mut self, buffer_bytes: u64) -> usize {
        let now = self.clock.now_us();
        let mut generated = 0;
        if let Some(b) = self.sensors.buffer() {
            for alarm in b.sample(buffer_bytes as f64, now) {
                for pix in self.coordinator.on_alarm(&alarm) {
                    if let Some(report) = self.coordinator.execute_actions(pix, &self.sensors, now)
                    {
                        self.report(report);
                        generated += 1;
                    }
                }
            }
        }
        self.poll_flush();
        generated
    }

    /// Barrier through this process's own transport: `true` once the
    /// manager has processed everything this process sent before the
    /// call.
    pub fn sync(&mut self) -> bool {
        // The barrier covers everything reported before it: flush any
        // coalesced reports first so the ack really means "processed".
        self.flush_reports();
        let ok = self.transport.sync(SYNC_TIMEOUT);
        self.mirror_reconnects();
        ok
    }

    /// Successful transport reconnects after a lost connection (zero for
    /// the in-proc channel carrier).
    pub fn reconnects(&self) -> u64 {
        self.transport.reconnects()
    }

    /// Reports delivered to the manager so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Reports dropped because the manager's queue was full or the
    /// manager was gone (backpressure counter).
    pub fn reports_dropped(&self) -> u64 {
        self.reports_dropped
    }
}

/// Counters exposed by the live host manager.
#[derive(Debug, Default)]
pub struct LiveManagerStats {
    /// Distinct processes registered (re-registration is idempotent).
    pub registrations: AtomicU64,
    /// Violations received.
    pub violations: AtomicU64,
    /// Rules fired across all violations.
    pub rules_fired: AtomicU64,
    /// Net CPU-boost level decided (sum of adjust minus relax steps) —
    /// stands in for priocntl in live mode, where we will not actually
    /// renice the benchmark process.
    pub boost_level: AtomicI64,
    /// Frames received (any kind, before decode).
    pub frames: AtomicU64,
    /// Batch frames received (each carrying N coalesced messages).
    /// Mirrored as `wire.batch.frames`; the per-frame message counts
    /// land in the `wire.batch.msgs_per_frame` histogram.
    pub batch_frames: AtomicU64,
    /// Total frame bytes received.
    pub wire_bytes: AtomicU64,
    /// Frames that failed to decode, plus connections dropped for
    /// unreframeable streams. Mirrored to telemetry as
    /// `live.decode_errors`.
    pub decode_errors: AtomicU64,
    /// Telemetry subscribers currently attached (gone peers are pruned
    /// on the next publish that notices them).
    pub subscribers: AtomicU64,
    /// Telemetry batches queued to subscribers.
    pub telemetry_batches: AtomicU64,
    /// Telemetry batches lost to backpressure (drop-oldest on a slow
    /// subscriber) or chaos. Mirrored as `live.telemetry_dropped`.
    pub telemetry_dropped: AtomicU64,
    /// Publish ticks that were skipped outright because no subscriber
    /// was attached — the manager encoded nothing and allocated nothing.
    /// Mirrored as `live.telemetry.skipped_flushes`.
    pub skipped_flushes: AtomicU64,
}

/// Where a [`LiveHostManager`] accepts peers.
#[derive(Debug, Clone, Default)]
pub enum ListenSpec {
    /// In-proc only: peers connect with [`LiveHostManager::connect`].
    #[default]
    InProc,
    /// Also accept socket peers (TCP or Unix-domain) on this address.
    /// In-proc connects still work.
    Sock(SockAddr),
}

/// Which machinery serves socket peers of a [`LiveHostManager`]. Both
/// drivers run the same `qos-net` protocol machines and the same
/// manager core, so rule firing is driver-independent; they differ only
/// in how peer I/O is multiplexed onto OS threads. Both are Linux only
/// (epoll); in-proc managers run anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Driver {
    /// The manager thread's own epoll loop over the listener and every
    /// peer: each ready peer is read up to a byte budget and every
    /// complete frame is decoded and handled in place, with replies
    /// queued on the peer's bounded outbound queue. One thread, no
    /// hand-off between reading a report and acting on it.
    #[default]
    Inline,
    /// The hand-rolled epoll reactor: every peer multiplexed onto a
    /// small worker pool with bounded per-peer write queues, frames
    /// handed to the manager thread through its inbound queue. Holds
    /// thousands of peers on ≤ 4 threads.
    Reactor,
}

/// Builder for a [`LiveHostManager`] — the one construction path for
/// every live-mode configuration (in-proc, the inline loop, or the
/// epoll reactor). Obtained from [`LiveHostManager::builder`].
#[derive(Debug, Clone, Default)]
pub struct LiveBuilder {
    listen: ListenSpec,
    driver: Driver,
    workers: usize,
    telemetry: Option<Telemetry>,
    report_batch: Option<ReportBatchPolicy>,
    flush: Option<FlushPolicy>,
}

impl LiveBuilder {
    /// Where the manager accepts peers (default: in-proc only).
    pub fn listen(mut self, spec: ListenSpec) -> Self {
        self.listen = spec;
        self
    }

    /// How socket peers are served (default: [`Driver::Inline`]).
    /// Ignored for [`ListenSpec::InProc`], where there is no socket I/O
    /// to drive.
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Worker threads for [`Driver::Reactor`] (default 4, the C10k
    /// budget; clamped to ≥ 1). Meaningless for the inline loop.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Telemetry registry for the manager's own counters (mirrors
    /// `live.frames` / `live.wire_bytes` / `live.decode_errors` /
    /// `live.telemetry_dropped`, labelled `host-manager`, plus the
    /// reactor's `net.*` series under [`Driver::Reactor`]; lifecycle
    /// events land in the registry's event buffer and any attached
    /// flight recorder).
    pub fn telemetry(mut self, t: &Telemetry) -> Self {
        self.telemetry = Some(t.clone());
        self
    }

    /// Retune the manager's publish cadence from a report-batch shape:
    /// subscriber batches flush every `max_delay`, metrics snapshots at
    /// 5× that, and a staged-event pile of `max_msgs` forces an early
    /// cut. Default: the `TELEMETRY_*_INTERVAL` constants.
    pub fn report_batch(mut self, policy: ReportBatchPolicy) -> Self {
        self.report_batch = Some(policy);
        self
    }

    /// Bound each socket peer's outbound queue from a flush shape: the
    /// queue holds roughly 16 flush batches (`16 × max_bytes`) before
    /// back-pressuring. Default: [`qos_net::OutQueueConfig::default`].
    pub fn flush(mut self, policy: FlushPolicy) -> Self {
        self.flush = Some(policy);
        self
    }

    /// Spawn the manager thread (and the reactor, if that driver
    /// serves the socket). The rule base is parsed and the socket bound
    /// before any thread starts, so a bad build fails here, in the
    /// caller, rather than panicking a detached thread.
    pub fn spawn(self) -> Result<LiveHostManager, LiveError> {
        let rules = parse_program(&host_rules_fair()).map_err(|e| LiveError::BadRules(e.0))?;
        let base = parse_program(&host_base_facts()).map_err(|e| LiveError::BadRules(e.0))?;
        let (tx, rx): (Sender<Inbound>, Receiver<Inbound>) = bounded(LIVE_QUEUE_CAPACITY);
        let stats = Arc::new(LiveManagerStats::default());
        let core_cfg = match self.report_batch {
            None => CoreConfig::default(),
            Some(p) => CoreConfig {
                publish: p.max_delay,
                metrics: p.max_delay * 5,
                batch_max_events: p.max_msgs.max(1),
            },
        };
        let core = ManagerCore::new(
            Arc::clone(&stats),
            self.telemetry.clone().unwrap_or_default(),
            rules,
            base,
            core_cfg,
        );
        let (listener, bound) = match &self.listen {
            ListenSpec::InProc => (None, None),
            ListenSpec::Sock(addr) => {
                let listener = SockListener::bind(addr).map_err(LiveError::Listen)?;
                let bound = listener.local_addr().map_err(LiveError::Listen)?;
                (Some(listener), Some(bound))
            }
        };
        #[cfg(target_os = "linux")]
        {
            let mut out = OutQueueConfig::default();
            if let Some(f) = self.flush {
                out.max_bytes = f.max_bytes.saturating_mul(16).max(out.max_bytes);
            }
            let (inline_listener, reactor_listener) = match self.driver {
                Driver::Inline => (listener, None),
                Driver::Reactor => (None, listener),
            };
            let (net, waker) = InlineNet::new(inline_listener, out).map_err(LiveError::Listen)?;
            let inlet = Inlet::new(tx, waker);
            let mut net_stats = bound.as_ref().map(|_| net.stats());
            let mut reactor = None;
            if let Some(listener) = reactor_listener {
                let cfg = ReactorConfig {
                    workers: self.workers.max(1),
                    out,
                    telemetry: self.telemetry.clone(),
                    ..ReactorConfig::default()
                };
                let sink = Arc::new(MgrSink {
                    inlet: inlet.clone(),
                });
                let r = ReactorHandle::spawn(listener, sink, cfg).map_err(LiveError::Listen)?;
                net_stats = Some(r.stats());
                reactor = Some(r);
            }
            let handle = match spawn_manager(move || core.run(rx, net)) {
                Ok(h) => h,
                Err(e) => {
                    if let Some(r) = reactor {
                        r.shutdown();
                    }
                    return Err(e);
                }
            };
            Ok(LiveHostManager {
                stats,
                handle: Some(handle),
                inlet,
                bound,
                net_stats,
                reactor,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            if listener.is_some() {
                return Err(LiveError::ReactorUnsupported);
            }
            let handle = spawn_manager(move || core.run(rx))?;
            Ok(LiveHostManager {
                stats,
                handle: Some(handle),
                inlet: Inlet::from(tx),
                bound,
            })
        }
    }
}

/// Start the manager thread. Buggify state is thread-local: carry the
/// spawner's config into the thread so chaos runs fault the live plane
/// too.
fn spawn_manager(
    run: impl FnOnce() + Send + 'static,
) -> Result<std::thread::JoinHandle<()>, LiveError> {
    let chaos = qos_buggify::config();
    std::thread::Builder::new()
        .name("qos-host-manager".into())
        .spawn(move || {
            if let Some(cfg) = chaos {
                qos_buggify::adopt(cfg);
            }
            run()
        })
        .map_err(LiveError::ThreadSpawn)
}

/// A QoS Host Manager on its own thread. Peers attach over the in-proc
/// channel ([`LiveHostManager::connect`]) or, when built with
/// [`ListenSpec::Sock`], over a real socket from another OS process —
/// served by whichever [`Driver`] the builder picked.
pub struct LiveHostManager {
    /// Shared counters.
    pub stats: Arc<LiveManagerStats>,
    handle: Option<std::thread::JoinHandle<()>>,
    inlet: Inlet,
    bound: Option<SockAddr>,
    #[cfg(target_os = "linux")]
    net_stats: Option<Arc<NetStats>>,
    #[cfg(target_os = "linux")]
    reactor: Option<ReactorHandle>,
}

impl LiveHostManager {
    /// Start building a manager: pick a listen spec, a [`Driver`], and
    /// optional telemetry/cadence knobs, then [`LiveBuilder::spawn`].
    pub fn builder() -> LiveBuilder {
        LiveBuilder {
            workers: 4,
            ..LiveBuilder::default()
        }
    }

    /// Spawn the manager thread with the default host rules, in-proc
    /// only.
    #[deprecated(since = "0.1.0", note = "use LiveHostManager::builder().spawn()")]
    pub fn spawn() -> Result<Self, LiveError> {
        Self::builder().spawn()
    }

    /// Spawn with an explicit listen spec and optional telemetry
    /// registry.
    #[deprecated(
        since = "0.1.0",
        note = "use LiveHostManager::builder().listen(spec).telemetry(t).spawn()"
    )]
    pub fn spawn_with(spec: ListenSpec, telemetry: Option<&Telemetry>) -> Result<Self, LiveError> {
        let mut b = Self::builder().listen(spec);
        if let Some(t) = telemetry {
            b = b.telemetry(t);
        }
        b.spawn()
    }

    /// The socket driver's shared `net.*` counters (`None` for in-proc
    /// managers). Under [`Driver::Inline`], `wakeups` counts the manager
    /// loop's `epoll_wait` returns.
    #[cfg(target_os = "linux")]
    pub fn net_stats(&self) -> Option<Arc<NetStats>> {
        self.net_stats.clone()
    }

    /// An in-proc transport into this manager, for [`LiveProcess::start`]
    /// (and anything else that wants to inject frames).
    pub fn connect(&self) -> Box<dyn WireTransport> {
        Box::new(ChannelTransport::new(self.inlet.clone()))
    }

    /// Subscribe to this manager's telemetry stream in-proc: encoded
    /// `TelemetryBatch` frames arrive on the returned channel (decode
    /// with [`WireMsg::decode_frame`]). A receiver that stops draining
    /// backs up into the manager's bounded drop-oldest queue —
    /// `live.telemetry_dropped` counts what it missed — and a dropped
    /// receiver is pruned on the next publish.
    pub fn subscribe(
        &self,
        subscriber: &str,
        want_events: bool,
        want_metrics: bool,
    ) -> Receiver<Vec<u8>> {
        let (btx, brx) = bounded(SUBSCRIBER_QUEUE_CAPACITY);
        let frame = WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
            subscriber: subscriber.to_string(),
            want_events,
            want_metrics,
        })
        .encode_frame();
        self.inlet.send(Inbound::Frame {
            bytes: frame,
            reply: Some(ReplySink::Chan(btx)),
        });
        brx
    }

    /// The socket address peers should dial, if listening (resolves TCP
    /// port 0 to the real port).
    pub fn local_addr(&self) -> Option<SockAddr> {
        self.bound.clone()
    }

    /// Wait until everything queued so far has been processed. Returns
    /// `false` if the manager thread is gone or takes more than
    /// [`SYNC_TIMEOUT`] (it never legitimately does).
    pub fn sync(&self) -> bool {
        ChannelTransport::new(self.inlet.clone()).sync(SYNC_TIMEOUT)
    }

    /// Idempotent stop: the first call delivers Shutdown and joins; any
    /// repeat (including the Drop after an explicit `shutdown`) is a
    /// no-op because the handle is already gone. The manager thread
    /// closes every socket peer as it exits.
    fn stop(&mut self) {
        // The reactor goes down before the manager thread: a worker
        // blocked on the manager's full inbound queue only drains while
        // the manager still consumes.
        #[cfg(target_os = "linux")]
        if let Some(r) = self.reactor.take() {
            r.shutdown();
        }
        if let Some(h) = self.handle.take() {
            self.inlet.send(Inbound::Shutdown);
            let _ = h.join();
        }
        if let Some(SockAddr::Uds(p)) = self.bound.take() {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Stop the thread and wait for it.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for LiveHostManager {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a subscriber's batches go.
enum SubSink {
    /// An in-proc channel or a reactor peer.
    Sink(ReplySink),
    /// A socket peer of the manager thread's own loop, by id.
    #[cfg(target_os = "linux")]
    Peer(u64),
}

/// One attached telemetry subscriber: its sink, its filter, and its
/// bounded queue of encoded batches awaiting delivery.
struct Subscriber {
    sink: SubSink,
    want_events: bool,
    want_metrics: bool,
    pending: VecDeque<Vec<u8>>,
    seq: u64,
    gone: bool,
}

/// Queue a batch on a subscriber, dropping its *oldest* pending batch
/// when the budget is exceeded. Returns `true` when something was
/// dropped — the caller counts it; the subscriber sees a gap in `seq`.
fn enqueue_batch(sub: &mut Subscriber, frame: Vec<u8>) -> bool {
    let dropped = sub.pending.len() >= SUBSCRIBER_QUEUE_CAPACITY;
    if dropped {
        sub.pending.pop_front();
    }
    sub.pending.push_back(frame);
    dropped
}

/// The manager loop's socket peers, as the telemetry publisher sees
/// them.
trait PeerOut {
    /// Queue a telemetry batch for `peer`: `None` if the peer is gone,
    /// else whether a batch was lost to make room (drop-oldest lane).
    fn send_telemetry(&mut self, peer: u64, frame: &[u8]) -> Option<bool>;
}

#[cfg(target_os = "linux")]
impl PeerOut for InlineNet {
    fn send_telemetry(&mut self, peer: u64, frame: &[u8]) -> Option<bool> {
        self.send(peer, SendClass::Telemetry, frame)
            .map(|e| e != Enqueue::Queued)
    }
}

/// No socket peers (the in-proc-only loop).
impl PeerOut for () {
    fn send_telemetry(&mut self, _: u64, _: &[u8]) -> Option<bool> {
        None
    }
}

/// Where replies to the frame being handled go.
enum Reply<'a> {
    /// Nowhere: fire-and-forget carriers and chaos redeliveries.
    None,
    /// Through the sink that came with an inbound-queue frame.
    Sink(&'a ReplySink),
    /// Into the socket peer's own outbound queue (the inline loop).
    #[cfg(target_os = "linux")]
    Peer(u64, &'a mut PeerOutQueue),
}

/// Publish-cadence knobs of the manager loop, derived by the builder
/// from its defaults or a [`ReportBatchPolicy`] override.
#[derive(Debug, Clone, Copy)]
struct CoreConfig {
    /// Subscriber-batch publish interval (also the idle tick).
    publish: Duration,
    /// Minimum spacing of metrics snapshots.
    metrics: Duration,
    /// Staged-event count that forces an early publish.
    batch_max_events: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            publish: TELEMETRY_PUBLISH_INTERVAL,
            metrics: TELEMETRY_METRICS_INTERVAL,
            batch_max_events: BATCH_MAX_EVENTS,
        }
    }
}

/// The manager thread's state: decode frames centrally (so malformed
/// input is one counted statistic), run the rule engine on violations,
/// ack syncs, and publish lifecycle events + metrics snapshots to
/// telemetry subscribers on a fixed cadence.
struct ManagerCore {
    stats: Arc<LiveManagerStats>,
    telemetry: Telemetry,
    cfg: CoreConfig,
    clock: LiveClock,
    frames_c: Counter,
    batch_frames_c: Counter,
    batch_hist: Histogram,
    bytes_c: Counter,
    decode_c: Counter,
    tdropped_c: Counter,
    skipped_c: Counter,
    engine: Engine,
    /// Registered process ids, each with its `pid` fact value built
    /// once (a violation fact then costs a refcount bump, not a copy).
    registered: HashMap<String, Value>,
    subs: Vec<Subscriber>,
    staged: Vec<TraceEvent>,
    next_corr: u64,
    last_publish: Instant,
    last_metrics: Option<Instant>,
}

impl ManagerCore {
    fn new(
        stats: Arc<LiveManagerStats>,
        telemetry: Telemetry,
        rules: qos_inference::clips::Program,
        base: qos_inference::clips::Program,
        cfg: CoreConfig,
    ) -> Self {
        let mut engine = Engine::new();
        for r in rules.rules {
            engine.add_rule(r);
        }
        for f in base.facts {
            engine.assert_fact(f);
        }
        let frames_c = telemetry.counter("live.frames", "host-manager");
        let batch_frames_c = telemetry.counter("wire.batch.frames", "host-manager");
        let batch_hist = telemetry.histogram("wire.batch.msgs_per_frame", "host-manager");
        let bytes_c = telemetry.counter("live.wire_bytes", "host-manager");
        let decode_c = telemetry.counter("live.decode_errors", "host-manager");
        let tdropped_c = telemetry.counter("live.telemetry_dropped", "host-manager");
        let skipped_c = telemetry.counter("live.telemetry.skipped_flushes", "host-manager");
        ManagerCore {
            stats,
            telemetry,
            cfg,
            clock: LiveClock::new(),
            frames_c,
            batch_frames_c,
            batch_hist,
            bytes_c,
            decode_c,
            tdropped_c,
            skipped_c,
            engine,
            registered: HashMap::new(),
            subs: Vec::new(),
            staged: Vec::new(),
            next_corr: 0,
            last_publish: Instant::now(),
            last_metrics: None,
        }
    }

    /// The manager loop: drain the inbound queue (in-proc peers,
    /// reactor workers), run the publish cadence, then poll the socket
    /// peers — blocking only when the queue is empty, until the next
    /// publish is due or a sender wakes the loop.
    #[cfg(target_os = "linux")]
    fn run(mut self, rx: Receiver<Inbound>, mut net: InlineNet) {
        // An item the pre-block check took off the queue.
        let mut early: Option<Inbound> = None;
        loop {
            // Bounded, so socket peers still get their turn under an
            // in-proc flood.
            for _ in 0..LIVE_QUEUE_CAPACITY {
                let m = match early.take().map_or_else(|| rx.try_recv(), Ok) {
                    Ok(m) => m,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                };
                if !self.on_inbound(m) {
                    return;
                }
            }
            self.pump(&mut net);
            let idle = self.idle_timeout();
            let queued = || match rx.try_recv() {
                Ok(m) => {
                    early = Some(m);
                    true
                }
                Err(TryRecvError::Empty) => false,
                Err(TryRecvError::Disconnected) => true,
            };
            if net.poll(idle, queued, &mut self).is_err() {
                return;
            }
        }
    }

    /// The in-proc-only loop of platforms without epoll.
    #[cfg(not(target_os = "linux"))]
    fn run(mut self, rx: Receiver<Inbound>) {
        loop {
            match rx.recv_timeout(self.idle_timeout()) {
                Ok(m) => {
                    if !self.on_inbound(m) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.pump(&mut ());
        }
    }

    /// Handle one inbound-queue item; `false` on Shutdown.
    fn on_inbound(&mut self, m: Inbound) -> bool {
        match m {
            Inbound::Shutdown => return false,
            Inbound::StreamCorrupt => self.count_decode_error(),
            Inbound::Frame { bytes, reply } => {
                let mut reply = match &reply {
                    Some(s) => Reply::Sink(s),
                    None => Reply::None,
                };
                self.handle_frame(&bytes, &mut reply);
            }
        }
        true
    }

    /// How long the loop may block before the publish cadence needs it.
    fn idle_timeout(&self) -> Duration {
        let publish = self.cfg.publish.saturating_sub(self.last_publish.elapsed());
        if !publish.is_zero() {
            return publish;
        }
        // The interval is due but there was nothing to publish: wait
        // for input, or for the next metrics snapshot.
        match self.last_metrics {
            Some(t) if self.subs.iter().any(|s| s.want_metrics) => {
                self.cfg.metrics.saturating_sub(t.elapsed())
            }
            _ => self.cfg.publish,
        }
    }

    fn count_decode_error(&mut self) {
        self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.decode_c.inc();
    }

    /// Decode one frame in place — a borrowed view, nothing copied out
    /// of `bytes` unless a lifecycle event keeps it — and handle it.
    fn handle_frame(&mut self, bytes: &[u8], reply: &mut Reply<'_>) {
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        self.stats
            .wire_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.frames_c.inc();
        self.bytes_c.add(bytes.len() as u64);
        match WireMsgRef::decode_frame(bytes) {
            Err(_) => self.count_decode_error(),
            Ok(WireMsgRef::Batch(batch)) => {
                self.stats.batch_frames.fetch_add(1, Ordering::Relaxed);
                self.batch_frames_c.inc();
                self.batch_hist.record(batch.len() as u64);
                for m in &batch {
                    // Chaos: redeliver a coalesced message, as a
                    // retrying peer's resent batch would.
                    if qos_buggify::buggify!("live.mgr.dup_frame") {
                        self.handle_msg(&m, &mut Reply::None);
                    }
                    self.handle_msg(&m, reply);
                }
            }
            Ok(view) => {
                // Chaos: redeliver the frame to the handler, as a
                // retrying peer would. Registration must stay
                // idempotent and sync acks harmless under this.
                if qos_buggify::buggify!("live.mgr.dup_frame") {
                    self.handle_msg(&view, &mut Reply::None);
                }
                self.handle_msg(&view, reply)
            }
        }
        // Bound batch size under a storm: cut now rather than at the
        // next publish tick (delivery waits for the next pump).
        if self.staged.len() >= self.cfg.batch_max_events {
            self.publish();
        }
    }

    /// Record a lifecycle event in the manager's own telemetry (event
    /// buffer + attached recorder) and stage it for subscribers. The
    /// event is built only when one of them will keep it: with an inert
    /// telemetry handle and nobody subscribed, a report costs no event
    /// construction at all.
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.subs.is_empty() {
            self.telemetry.event(make);
        } else {
            let ev = make();
            self.telemetry.event(|| ev.clone());
            self.staged.push(ev);
        }
    }

    /// A correlation id for a report that arrived without one (the
    /// common case: the process side ran without telemetry). The high
    /// bit keeps manager-minted ids disjoint from process-minted ones.
    fn mint_corr(&mut self) -> u64 {
        self.next_corr += 1;
        MGR_CORR_BIT | self.next_corr
    }

    fn handle_msg(&mut self, msg: &WireMsgRef<'_>, reply: &mut Reply<'_>) {
        let msg = match msg {
            WireMsgRef::LiveViolation(v) => return self.on_violation(v),
            WireMsgRef::Owned(m) => m,
            // Other borrowed kinds are sim-plane traffic; batches do
            // not nest.
            _ => return,
        };
        match msg {
            // At-least-once registration (retries, reconnect greetings):
            // only the first sighting of a process id counts.
            WireMsg::LiveRegister(LiveRegisterMsg { process })
                if !self.registered.contains_key(process) =>
            {
                self.registered.insert(process.clone(), Value::str(process));
                self.stats.registrations.fetch_add(1, Ordering::Relaxed);
                self.telemetry.counter("live.registered", process).inc();
                let at_us = self.clock.now_us();
                self.emit(|| TraceEvent {
                    at_us,
                    corr: 0,
                    stage: Stage::Mark,
                    component: process.clone(),
                    name: "live-register".into(),
                    fields: Vec::new(),
                });
            }
            WireMsg::TelemetrySubscribe(sub) => {
                // A subscription needs a way back to the peer; the
                // chaos-duplicated redelivery arrives with no reply
                // route and is ignored, keeping subscription effectively
                // idempotent under at-least-once delivery.
                let sink = match reply {
                    Reply::None => return,
                    Reply::Sink(s) => SubSink::Sink((*s).clone()),
                    #[cfg(target_os = "linux")]
                    Reply::Peer(id, _) => SubSink::Peer(*id),
                };
                let at_us = self.clock.now_us();
                self.telemetry.event(|| TraceEvent {
                    at_us,
                    corr: 0,
                    stage: Stage::Mark,
                    component: sub.subscriber.clone(),
                    name: "telemetry-subscribe".into(),
                    fields: Vec::new(),
                });
                self.subs.push(Subscriber {
                    sink,
                    want_events: sub.want_events,
                    want_metrics: sub.want_metrics,
                    pending: VecDeque::new(),
                    seq: 0,
                    gone: false,
                });
                self.stats
                    .subscribers
                    .store(self.subs.len() as u64, Ordering::Relaxed);
                // Snapshot promptly for the newcomer instead of
                // waiting out the metrics cadence.
                self.last_metrics = None;
            }
            WireMsg::SyncReq { token } => {
                // Everything this peer sent before this frame has been
                // handled by now (one peer's frames are handled in
                // order): ack it. A full control lane drops the ack; the
                // peer's barrier times out and asks again.
                let ack = WireMsg::SyncAck { token: *token }.encode_frame();
                match reply {
                    Reply::None => {}
                    Reply::Sink(s) => {
                        s.send(&ack);
                    }
                    #[cfg(target_os = "linux")]
                    Reply::Peer(_, out) => {
                        out.enqueue(SendClass::Control, &ack);
                    }
                }
            }
            // A polite goodbye needs no action; anything else the sim
            // plane speaks is not meaningful to the live manager and is
            // ignored (forward compatibility: new peers may send kinds
            // we act on later).
            _ => {}
        }
    }

    fn on_violation(&mut self, v: &LiveViolationMsgRef<'_>) {
        self.stats.violations.fetch_add(1, Ordering::Relaxed);
        // Timestamps are the *manager's* clock throughout: the reporting
        // process's clock has a different origin, so its `at_us` would
        // scramble per-stage latencies.
        let corr = if v.corr != 0 {
            v.corr
        } else {
            self.mint_corr()
        };
        let now = self.clock.now_us();
        self.emit(|| TraceEvent {
            at_us: now,
            corr,
            stage: Stage::Detect,
            component: v.process.into(),
            name: v.policy.into(),
            fields: v.readings.to_vec(),
        });
        self.emit(|| TraceEvent {
            at_us: now,
            corr,
            stage: Stage::Report,
            component: v.process.into(),
            name: v.policy.into(),
            fields: Vec::new(),
        });
        let fps = v.readings.iter().next().map_or(0.0, |(_, x)| x);
        let buffer = v
            .readings
            .iter()
            .find(|&(a, _)| a == "buffer_size")
            .map_or(0.0, |(_, x)| x);
        let pid = match self.registered.get(v.process) {
            Some(pid) => pid.clone(),
            None => Value::str(v.process),
        };
        self.engine.assert_fact(
            Fact::new("violation")
                .with("pid", pid)
                .with("fps", fps)
                .with("lo", 23.0)
                .with("hi", 27.0)
                .with("buffer", buffer)
                .with("weight", 1.0)
                .with("has-upstream", false),
        );
        let run = self.engine.run(100);
        self.stats
            .rules_fired
            .fetch_add(run.fired, Ordering::Relaxed);
        let at_us = self.clock.now_us();
        self.emit(|| TraceEvent {
            at_us,
            corr,
            stage: Stage::Diagnose,
            component: "host-manager".into(),
            name: v.policy.into(),
            fields: vec![("fired".into(), run.fired as f64)],
        });
        for inv in self.engine.take_invocations() {
            let step: i64 = match inv.command.as_str() {
                "adjust-cpu" => 10,
                "relax-cpu" => -5,
                _ => 0,
            };
            if step != 0 {
                self.stats.boost_level.fetch_add(step, Ordering::Relaxed);
            }
            let at_us = self.clock.now_us();
            self.emit(|| TraceEvent {
                at_us,
                corr,
                stage: Stage::Adapt,
                component: "host-manager".into(),
                name: inv.command,
                fields: vec![("step".into(), step as f64)],
            });
        }
    }

    /// Deliver what's deliverable and, when the cadence says so, cut a
    /// new batch for every subscriber.
    fn pump(&mut self, peers: &mut impl PeerOut) {
        self.flush_subs(peers);
        if self.subs.is_empty() {
            // Nobody listening: staging anything would only grow a
            // buffer no one drains, and encoding a batch would be pure
            // allocation churn. Count the publish tick we skipped so
            // `qosctl tail`-shaped workloads are observable as cheap.
            self.staged.clear();
            if self.last_publish.elapsed() >= self.cfg.publish {
                self.last_publish = Instant::now();
                self.stats.skipped_flushes.fetch_add(1, Ordering::Relaxed);
                self.skipped_c.inc();
            }
            return;
        }
        let interval_due = self.last_publish.elapsed() >= self.cfg.publish;
        if interval_due && (!self.staged.is_empty() || self.metrics_due()) {
            self.publish();
            self.flush_subs(peers);
        }
    }

    fn metrics_due(&self) -> bool {
        let stale = self
            .last_metrics
            .is_none_or(|t| t.elapsed() >= self.cfg.metrics);
        stale && self.subs.iter().any(|s| s.want_metrics)
    }

    /// Cut one batch per subscriber from the staged events (plus a
    /// metrics snapshot when due) onto its pending queue.
    fn publish(&mut self) {
        self.last_publish = Instant::now();
        let events = std::mem::take(&mut self.staged);
        let metrics = if self.metrics_due() {
            self.last_metrics = Some(Instant::now());
            Some((self.clock.now_us(), self.telemetry.snapshot()))
        } else {
            None
        };
        // The last subscriber that wants events takes them; only the
        // others pay for a copy.
        let mut events = Some(events);
        let last = self.subs.iter().rposition(|s| s.want_events);
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let evs: Vec<TraceEvent> = match (sub.want_events, Some(i) == last) {
                (false, _) => Vec::new(),
                (true, true) => events.take().unwrap_or_default(),
                (true, false) => events.clone().unwrap_or_default(),
            };
            let met = if sub.want_metrics {
                metrics.clone()
            } else {
                None
            };
            if evs.is_empty() && met.is_none() {
                continue;
            }
            sub.seq += 1;
            let frame = WireMsg::TelemetryBatch(TelemetryBatchMsg {
                seq: sub.seq,
                source: "host-manager".into(),
                events: evs,
                metrics: met,
            })
            .encode_frame();
            // Chaos: the publisher loses a whole batch — subscribers
            // must survive seq gaps, and the loss must be counted.
            let chaos_drop = qos_buggify::buggify!("live.telemetry.drop_batch");
            let dropped = if chaos_drop {
                true
            } else {
                let overflowed = enqueue_batch(sub, frame);
                self.stats.telemetry_batches.fetch_add(1, Ordering::Relaxed);
                overflowed
            };
            if dropped {
                self.stats.telemetry_dropped.fetch_add(1, Ordering::Relaxed);
                self.tdropped_c.inc();
            }
        }
    }

    /// Drain each subscriber's pending queue as far as its sink allows;
    /// forget peers whose sink is gone for good.
    fn flush_subs(&mut self, peers: &mut impl PeerOut) {
        let mut lost = false;
        for sub in &mut self.subs {
            while let Some(front) = sub.pending.front() {
                let sent = match &sub.sink {
                    SubSink::Sink(s) => s.try_send_frame(front),
                    #[cfg(target_os = "linux")]
                    SubSink::Peer(id) => match peers.send_telemetry(*id, front) {
                        None => SinkSend::Gone,
                        Some(evicted) => {
                            if evicted {
                                self.stats.telemetry_dropped.fetch_add(1, Ordering::Relaxed);
                                self.tdropped_c.inc();
                            }
                            SinkSend::Sent
                        }
                    },
                };
                match sent {
                    SinkSend::Sent => {
                        sub.pending.pop_front();
                    }
                    SinkSend::Full => break,
                    SinkSend::Gone => {
                        sub.gone = true;
                        lost = true;
                        break;
                    }
                }
            }
        }
        if lost {
            self.subs.retain(|s| !s.gone);
            self.stats
                .subscribers
                .store(self.subs.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Socket peers of the inline loop: each frame is handled right where
/// the loop read it, replies going into the peer's outbound queue.
#[cfg(target_os = "linux")]
impl FrameHandler for ManagerCore {
    fn on_frame(&mut self, peer: u64, frame: &[u8], out: &mut PeerOutQueue) {
        self.handle_frame(frame, &mut Reply::Peer(peer, out));
    }

    fn on_corrupt(&mut self) {
        self.count_decode_error();
    }
}

/// The reactor's delivery target: every complete frame from every peer
/// lands on the manager's inbound queue, tagged with a [`PeerSender`]
/// reply sink so sync acks and telemetry batches ride back through the
/// reactor's bounded write queues. The blocking `send` is deliberate —
/// a full manager queue back-pressures the reactor worker (and through
/// it the peer's socket) instead of dropping frames.
#[cfg(target_os = "linux")]
struct MgrSink {
    inlet: Inlet,
}

#[cfg(target_os = "linux")]
impl EventSink for MgrSink {
    fn on_frame(&self, bytes: Vec<u8>, peer: &PeerSender) -> bool {
        self.inlet.send(Inbound::Frame {
            bytes,
            reply: Some(ReplySink::Net(peer.clone())),
        })
    }

    fn on_corrupt(&self) {
        self.inlet.send(Inbound::StreamCorrupt);
    }
}

/// Build the standard video repository + agent used by live tests and the
/// overhead benchmarks: the information model plus the paper's Example 1
/// policy.
pub fn standard_live_repo() -> (Repository, PolicyAgent) {
    let (model, _, _) = qos_policy::model::video_example_model();
    let mut repo = Repository::new();
    repo.store_model(&model).expect("fresh repository");
    repo.store_policy(&StoredPolicy {
        name: "NotifyQoSViolation".into(),
        application: "VideoPlayback".into(),
        executable: "VideoApplication".into(),
        role: "*".into(),
        source: "oblig NotifyQoSViolation { \
                 subject (...)/VideoApplication/qosl_coordinator \
                 target fps_sensor, jitter_sensor, buffer_sensor, (...)QoSHostManager \
                 on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25) \
                 do fps_sensor->read(out frame_rate); \
                    jitter_sensor->read(out jitter_rate); \
                    buffer_sensor->read(out buffer_size); \
                    (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size); }"
            .into(),
        enabled: true,
    })
    .expect("fresh repository");
    (repo, PolicyAgent::new())
}

/// Everything a live-mode embedder needs, in one import: the manager
/// builder and its knobs, the process-side instrumentation entry point,
/// the transport surface (socket, channel, tap), and the wire-level
/// policies that shape batching, flushing, and reconnects.
///
/// ```no_run
/// use qos_manager::live::prelude::*;
/// let mgr = LiveHostManager::builder()
///     .listen(ListenSpec::Sock(SockAddr::Tcp("127.0.0.1:0".into())))
///     .driver(Driver::Reactor)
///     .spawn()
///     .expect("spawn manager");
/// let transport = SocketTransport::builder(mgr.local_addr().unwrap())
///     .flush(FlushPolicy::default())
///     .reconnect(ReconnectPolicy::default())
///     .connect()
///     .expect("dial manager");
/// # drop(transport);
/// ```
pub mod prelude {
    pub use super::{
        standard_live_repo, Driver, ListenSpec, LiveBuilder, LiveClock, LiveError, LiveHostManager,
        LiveManagerStats, LiveProcess, ReportBatchPolicy, SUBSCRIBER_QUEUE_CAPACITY, SYNC_TIMEOUT,
        TELEMETRY_METRICS_INTERVAL, TELEMETRY_PUBLISH_INTERVAL,
    };
    pub use crate::transport::{
        ChannelTransport, FlushPolicy, ReconnectPolicy, SockAddr, SocketTransport,
        SocketTransportBuilder, TelemetryTap, WireTransport,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{SockStream, SocketTransport, TelemetryTap};

    fn registration() -> Registration {
        Registration {
            process: "live:p1".into(),
            executable: "VideoApplication".into(),
            application: "VideoPlayback".into(),
            role: "*".into(),
        }
    }

    fn force_violation_reports(p: &mut LiveProcess) -> usize {
        // Drive the fps sensor below 23 with manual timestamps: frames
        // 200 ms apart -> 5 fps.
        let fps = p.sensors.fps().unwrap();
        let mut now = 0u64;
        let mut alarms = Vec::new();
        for _ in 0..20 {
            now += 200_000;
            alarms.extend(fps.frame_displayed(now));
        }
        let mut generated = 0;
        for a in &alarms {
            for pix in p.coordinator.on_alarm(a) {
                if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now) {
                    p.report(r);
                    generated += 1;
                }
            }
        }
        generated
    }

    fn temp_sock(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("qos-live-{}-{name}.sock", std::process::id()))
    }

    #[test]
    fn live_init_registers_and_loads_policies() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        assert_eq!(p.coordinator.policy_count(), 1);
        assert_eq!(p.coordinator.global_conditions().len(), 3);
        assert!(mgr.sync(), "manager drains its queue");
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
        assert!(mgr.stats.frames.load(Ordering::Relaxed) >= 1);
        assert!(mgr.stats.wire_bytes.load(Ordering::Relaxed) > 0);
        mgr.shutdown();
    }

    #[test]
    fn registration_is_idempotent() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        // The same process id registering repeatedly (at-least-once
        // delivery, or a restart-and-re-register) counts once.
        let _p1 = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect()).unwrap();
        let _p2 = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect()).unwrap();
        let hello = WireMsg::LiveRegister(LiveRegisterMsg {
            process: "live:p1".into(),
        })
        .encode_frame();
        assert!(mgr.connect().try_send(&hello));
        assert!(mgr.sync());
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
        mgr.shutdown();
    }

    #[test]
    fn start_fails_cleanly_when_manager_is_gone() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let t = mgr.connect();
        mgr.shutdown();
        let err = LiveProcess::start(&registration(), &repo, &mut agent, t);
        assert!(matches!(err, Err(LiveError::ManagerUnavailable)));
    }

    #[test]
    fn happy_path_sends_no_reports() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        // Prime the fps window at a healthy rate using manual timestamps
        // via the sensor directly (the live pass uses wall time, which is
        // effectively instantaneous here — the fps will look enormous,
        // exceeding the 27 upper bound, so pre-check with buffer only).
        for _ in 0..5 {
            assert_eq!(p.buffer_pass(100), 0, "healthy buffer, no reports");
        }
        assert_eq!(p.reports_sent(), 0);
        assert_eq!(p.reports_dropped(), 0);
        mgr.shutdown();
    }

    #[test]
    fn violation_reaches_manager_and_fires_rules() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        let reports = force_violation_reports(&mut p);
        assert!(reports >= 1, "fps collapse must notify");
        assert!(mgr.sync(), "manager drains its queue");
        assert!(mgr.stats.violations.load(Ordering::Relaxed) >= 1);
        assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= 1);
        mgr.shutdown();
    }

    #[test]
    fn batched_reports_coalesce_and_reach_manager_once() {
        let (repo, mut agent) = standard_live_repo();
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder().telemetry(&t).spawn().unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        p.enable_report_batching(ReportBatchPolicy {
            max_msgs: 64, // size trigger never fires in this test
            max_delay: Duration::from_secs(60),
        });
        let generated = force_violation_reports(&mut p) as u64;
        assert!(generated >= 1);
        assert_eq!(
            p.pending_reports() as u64,
            generated,
            "reports must coalesce, not send eagerly"
        );
        assert_eq!(p.reports_sent(), 0);
        // sync() flushes the coalesced batch before the barrier.
        assert!(p.sync());
        assert_eq!(p.pending_reports(), 0);
        assert_eq!(p.reports_sent(), generated);
        assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), generated);
        assert_eq!(mgr.stats.batch_frames.load(Ordering::Relaxed), 1);
        if t.is_enabled() {
            assert_eq!(t.counter_value("wire.batch.frames", "host-manager"), 1);
        }
        mgr.shutdown();
    }

    #[test]
    fn batch_deadline_flush_is_counted() {
        let (repo, mut agent) = standard_live_repo();
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        if t.is_enabled() {
            p.set_telemetry(&t);
        }
        p.enable_report_batching(ReportBatchPolicy {
            max_msgs: 1024,
            max_delay: Duration::from_millis(1),
        });
        let generated = force_violation_reports(&mut p) as u64;
        assert!(generated >= 1);
        std::thread::sleep(Duration::from_millis(5));
        p.poll_flush();
        assert_eq!(p.pending_reports(), 0, "deadline must flush");
        assert_eq!(p.flush_deadline_hits(), 1);
        assert_eq!(p.reports_sent(), generated);
        if t.is_enabled() {
            assert_eq!(t.counter_value("live.flush.deadline_hits", "live:p1"), 1);
        }
        assert!(mgr.sync());
        assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), generated);
        mgr.shutdown();
    }

    #[test]
    fn dropped_reports_are_counted_not_fatal() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        mgr.shutdown();
        // Manager gone: a violation pass must neither panic nor hang.
        let generated = force_violation_reports(&mut p);
        assert!(generated >= 1);
        assert_eq!(p.reports_sent(), 0);
        assert_eq!(p.reports_dropped(), generated as u64);
    }

    #[test]
    fn dropped_reports_mirror_into_registry() {
        let (repo, mut agent) = standard_live_repo();
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        let t = Telemetry::enabled();
        if !t.is_enabled() {
            // telemetry-off build: nothing to mirror, by design.
            mgr.shutdown();
            return;
        }
        p.set_telemetry(&t);
        mgr.shutdown();
        let generated = force_violation_reports(&mut p);
        assert!(generated >= 1);
        assert!(p.reports_dropped() >= 1);
        assert_eq!(
            t.counter_value("live.reports_dropped", "live:p1"),
            p.reports_dropped()
        );
        assert_eq!(t.counter_value("live.reports_sent", "live:p1"), 0);
    }

    #[test]
    fn shutdown_is_idempotent_with_drop() {
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let mut t = mgr.connect();
        // `shutdown` consumes self and Drop runs right after it — the
        // second stop() must be a no-op, not a hang or double-join.
        mgr.shutdown();
        assert!(
            !t.try_send(&WireMsg::Bye.encode_frame()),
            "thread gone, channel disconnected"
        );
    }

    #[test]
    fn malformed_frames_count_as_decode_errors_not_panics() {
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder().telemetry(&t).spawn().unwrap();
        // A frame whose header is valid but whose body is garbage for
        // its kind: mangle a real frame's payload.
        let mut frame = WireMsg::LiveRegister(LiveRegisterMsg {
            process: "x".into(),
        })
        .encode_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        frame[8] = 0xff; // string length now nonsense
        assert!(mgr.connect().try_send(&frame));
        assert!(mgr.sync());
        assert_eq!(mgr.stats.decode_errors.load(Ordering::Relaxed), 1);
        if t.is_enabled() {
            assert_eq!(t.counter_value("live.decode_errors", "host-manager"), 1);
        }
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 0);
        mgr.shutdown();
    }

    #[test]
    fn socket_mode_round_trip_over_uds() {
        let path = temp_sock("roundtrip");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .spawn()
            .expect("spawn socket manager");
        let addr = mgr.local_addr().expect("bound");

        let (repo, mut agent) = standard_live_repo();
        let sock = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, Box::new(sock))
            .expect("manager reachable over UDS");
        let reports = force_violation_reports(&mut p);
        assert!(reports >= 1);
        assert!(p.sync(), "socket sync barrier");
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
        assert!(mgr.stats.violations.load(Ordering::Relaxed) >= 1);
        assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= 1);
        mgr.shutdown();
        assert!(!path.exists(), "socket file cleaned up on shutdown");
    }

    #[test]
    fn socket_mode_works_over_tcp_too() {
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Tcp("127.0.0.1:0".into())))
            .spawn()
            .expect("spawn tcp manager");
        let addr = mgr.local_addr().expect("bound");
        assert!(matches!(addr, SockAddr::Tcp(ref a) if !a.ends_with(":0")));

        let (repo, mut agent) = standard_live_repo();
        let sock = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, Box::new(sock))
            .expect("manager reachable over TCP");
        assert!(p.sync());
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
        mgr.shutdown();
    }

    #[test]
    fn subscriber_streams_lifecycle_events_and_metrics() {
        let (repo, mut agent) = standard_live_repo();
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder().telemetry(&t).spawn().unwrap();
        let rx = mgr.subscribe("test-tap", true, true);
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        assert!(force_violation_reports(&mut p) >= 1);
        assert!(mgr.sync());

        let want = [Stage::Detect, Stage::Report, Stage::Diagnose, Stage::Adapt];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut events = Vec::new();
        let mut saw_metrics = false;
        let mut last_seq = 0;
        while Instant::now() < deadline {
            if let Ok(frame) = rx.recv_timeout(Duration::from_millis(200)) {
                let msg = WireMsg::decode_frame(&frame).expect("well-formed batch");
                let WireMsg::TelemetryBatch(b) = msg else {
                    panic!("subscriber channel carries only batches");
                };
                assert!(b.seq > last_seq, "per-subscriber seq must increase");
                last_seq = b.seq;
                assert_eq!(b.source, "host-manager");
                saw_metrics |= b.metrics.is_some();
                events.extend(b.events);
            }
            let all = want.iter().all(|s| events.iter().any(|e| e.stage == *s));
            if all && saw_metrics {
                break;
            }
        }
        for s in want {
            assert!(
                events.iter().any(|e| e.stage == s),
                "stream never carried stage {s:?}"
            );
        }
        assert!(saw_metrics, "stream never carried a metrics snapshot");
        // The stages of one violation share a manager-minted corr (the
        // process side ran without telemetry, so reports carried 0).
        let corr = events
            .iter()
            .find(|e| e.stage == Stage::Detect)
            .unwrap()
            .corr;
        assert_ne!(corr, 0);
        assert!(events
            .iter()
            .any(|e| e.stage == Stage::Adapt && e.corr == corr));
        assert!(mgr.stats.telemetry_batches.load(Ordering::Relaxed) >= 1);
        if t.is_enabled() {
            // The manager's own telemetry saw the same lifecycle stages.
            let local = t.events();
            for s in want {
                assert!(local.iter().any(|e| e.stage == s));
            }
        }
        mgr.shutdown();
    }

    #[test]
    fn departed_subscriber_is_pruned() {
        let mgr = LiveHostManager::builder().spawn().expect("spawn manager");
        let rx = mgr.subscribe("short-lived", true, true);
        assert!(mgr.sync());
        assert_eq!(mgr.stats.subscribers.load(Ordering::Relaxed), 1);
        drop(rx);
        // The next metrics publish hits the dead channel and prunes it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while mgr.stats.subscribers.load(Ordering::Relaxed) != 0 {
            assert!(Instant::now() < deadline, "dead subscriber never pruned");
            std::thread::sleep(Duration::from_millis(20));
        }
        mgr.shutdown();
    }

    #[test]
    fn backpressure_drops_oldest_batch() {
        // Unit-level: the drop-oldest queue itself (driving >128 real
        // batches through the publish cadence would take minutes).
        let (btx, _brx) = bounded(1);
        let mut sub = Subscriber {
            sink: SubSink::Sink(ReplySink::Chan(btx)),
            want_events: true,
            want_metrics: false,
            pending: VecDeque::new(),
            seq: 0,
            gone: false,
        };
        for i in 0..SUBSCRIBER_QUEUE_CAPACITY {
            assert!(
                !enqueue_batch(&mut sub, vec![i as u8]),
                "budget not yet hit"
            );
        }
        assert!(enqueue_batch(&mut sub, vec![0xff]), "overflow must drop");
        assert_eq!(sub.pending.len(), SUBSCRIBER_QUEUE_CAPACITY);
        assert_eq!(
            sub.pending.front().map(|f| f[0]),
            Some(1),
            "the oldest batch goes first"
        );
        assert_eq!(sub.pending.back().map(|f| f[0]), Some(0xff));
    }

    #[test]
    fn socket_tap_streams_over_uds() {
        let path = temp_sock("tap");
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .telemetry(&t)
            .spawn()
            .expect("spawn socket manager");
        let addr = mgr.local_addr().expect("bound");
        let mut tap = TelemetryTap::connect(&addr, "test-tap", true, true).expect("tap connects");
        // The subscribe handshake: connect returns once the
        // subscription is live.
        assert_eq!(mgr.stats.subscribers.load(Ordering::Relaxed), 1);

        let (repo, mut agent) = standard_live_repo();
        let sock = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, Box::new(sock))
            .expect("manager reachable over UDS");
        assert!(force_violation_reports(&mut p) >= 1);
        assert!(p.sync());

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got_detect = false;
        let mut got_metrics = false;
        while !(got_detect && got_metrics) && Instant::now() < deadline {
            if let Some(b) = tap
                .next_batch(Duration::from_millis(250))
                .expect("stream stays healthy")
            {
                got_detect |= b.events.iter().any(|e| e.stage == Stage::Detect);
                got_metrics |= b.metrics.is_some();
            }
        }
        assert!(got_detect, "tap never saw the Detect stage");
        assert!(got_metrics, "tap never saw a metrics snapshot");
        mgr.shutdown();
    }

    #[test]
    fn socket_garbage_drops_connection_and_counts() {
        use std::io::Write;
        let path = temp_sock("garbage");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .spawn()
            .expect("spawn socket manager");
        let addr = mgr.local_addr().expect("bound");
        let mut raw = SockStream::connect(&addr).unwrap();
        raw.write_all(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4])
            .unwrap();
        // The reader drops the connection on the unreframeable stream and
        // reports it; poll the counter rather than sleeping a fixed time.
        let deadline = Instant::now() + Duration::from_secs(5);
        while mgr.stats.decode_errors.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "corruption never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        mgr.shutdown();
    }

    #[test]
    fn zero_subscriber_publish_is_skipped_and_counted() {
        let (repo, mut agent) = standard_live_repo();
        let t = Telemetry::enabled();
        // A tight publish cadence so the skip ticks accumulate fast.
        let mgr = LiveHostManager::builder()
            .telemetry(&t)
            .report_batch(ReportBatchPolicy {
                max_msgs: 256,
                max_delay: Duration::from_millis(10),
            })
            .spawn()
            .unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, mgr.connect())
            .expect("manager running");
        assert!(force_violation_reports(&mut p) >= 1);
        assert!(mgr.sync());
        // With zero subscribers attached, publish ticks must skip (no
        // batch encoded, nothing queued) and the skips must be counted.
        let deadline = Instant::now() + Duration::from_secs(5);
        while mgr.stats.skipped_flushes.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "skipped flush never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            mgr.stats.telemetry_batches.load(Ordering::Relaxed),
            0,
            "no subscriber, so no batch may ever be encoded or queued"
        );
        if t.is_enabled() {
            assert!(
                t.counter_value("live.telemetry.skipped_flushes", "host-manager") >= 1,
                "skip counter must mirror into the registry"
            );
        }
        mgr.shutdown();
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_spawn_shims_still_work() {
        // The pre-builder constructors stay behaviourally identical: both
        // shims route through the builder with default knobs.
        let mgr = LiveHostManager::spawn().expect("spawn shim");
        assert!(mgr.sync());
        mgr.shutdown();
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::spawn_with(ListenSpec::InProc, Some(&t)).expect("spawn_with");
        assert!(mgr.sync());
        mgr.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_round_trip_over_uds() {
        let path = temp_sock("reactor-rt");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .driver(Driver::Reactor)
            .workers(2)
            .spawn()
            .expect("spawn reactor manager");
        let addr = mgr.local_addr().expect("bound");

        let (repo, mut agent) = standard_live_repo();
        let sock = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, Box::new(sock))
            .expect("manager reachable through the reactor");
        let reports = force_violation_reports(&mut p);
        assert!(reports >= 1);
        assert!(p.sync(), "sync barrier through the reactor");
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
        assert!(mgr.stats.violations.load(Ordering::Relaxed) >= 1);
        assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= 1);
        let net = mgr.net_stats().expect("reactor manager exposes net stats");
        assert!(net.accepted.load(Ordering::Relaxed) >= 1);
        assert!(net.frames_in.load(Ordering::Relaxed) >= reports as u64);
        mgr.shutdown();
        assert!(!path.exists(), "socket file cleaned up on shutdown");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_serves_telemetry_tap() {
        let path = temp_sock("reactor-tap");
        let t = Telemetry::enabled();
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .driver(Driver::Reactor)
            .workers(2)
            .telemetry(&t)
            .spawn()
            .expect("spawn reactor manager");
        let addr = mgr.local_addr().expect("bound");
        let mut tap = TelemetryTap::connect(&addr, "reactor-tap", true, true).expect("tap dials");
        assert_eq!(mgr.stats.subscribers.load(Ordering::Relaxed), 1);

        let (repo, mut agent) = standard_live_repo();
        let sock = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let mut p = LiveProcess::start(&registration(), &repo, &mut agent, Box::new(sock))
            .expect("manager reachable through the reactor");
        assert!(force_violation_reports(&mut p) >= 1);
        assert!(p.sync());

        // Batches ride back through the reactor's telemetry write lane.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got_detect = false;
        while !got_detect && Instant::now() < deadline {
            if let Some(b) = tap
                .next_batch(Duration::from_millis(250))
                .expect("stream stays healthy")
            {
                got_detect |= b.events.iter().any(|e| e.stage == Stage::Detect);
            }
        }
        assert!(got_detect, "tap never saw the Detect stage via the reactor");
        mgr.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_counts_corrupt_streams() {
        use std::io::Write;
        let path = temp_sock("reactor-garbage");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .driver(Driver::Reactor)
            .spawn()
            .expect("spawn reactor manager");
        let addr = mgr.local_addr().expect("bound");
        let mut raw = SockStream::connect(&addr).unwrap();
        raw.write_all(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while mgr.stats.decode_errors.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "corruption never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        mgr.shutdown();
    }

    fn violation_frame(process: &str, corr: u64) -> Vec<u8> {
        WireMsg::LiveViolation(qos_wire::messages::LiveViolationMsg {
            policy: "NotifyQoSViolation".into(),
            process: process.into(),
            at_us: corr,
            corr,
            readings: vec![
                ("frame_rate".into(), 15.0),
                ("buffer_size".into(), 50_000.0),
            ],
        })
        .encode_frame()
    }

    fn register_frame(process: &str) -> Vec<u8> {
        WireMsg::LiveRegister(LiveRegisterMsg {
            process: process.into(),
        })
        .encode_frame()
    }

    /// A socket peer of `mgr` that has registered as `name`.
    fn socket_peer(mgr: &LiveHostManager, name: &str) -> SocketTransport {
        let addr = mgr.local_addr().expect("bound");
        let mut t = SocketTransport::connect_retry(addr, Duration::from_secs(5)).unwrap();
        assert!(t.try_send(&register_frame(name)));
        t
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stalled_subscriber_loses_batches_without_stalling_ingest() {
        let path = temp_sock("stalled-tap");
        let t = Telemetry::enabled();
        // One batch per report, so the tap's lane fills report by report.
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path)))
            .telemetry(&t)
            .report_batch(ReportBatchPolicy {
                max_msgs: 1,
                max_delay: Duration::from_millis(1),
            })
            .spawn()
            .expect("spawn socket manager");
        let addr = mgr.local_addr().expect("bound");
        let mut tap = TelemetryTap::connect(&addr, "stalled", true, false).expect("tap connects");
        let mut peer = socket_peer(&mgr, "live:flood");
        // The tap reads nothing until the manager reports a loss; every
        // barrier meanwhile must still be acknowledged.
        let mut sent = 0u64;
        while mgr.stats.telemetry_dropped.load(Ordering::Relaxed) == 0 {
            assert!(sent < 200_000, "the stalled tap never overflowed");
            for _ in 0..64 {
                sent += 1;
                assert!(peer.try_send(&violation_frame("live:flood", sent)));
            }
            assert!(peer.sync(SYNC_TIMEOUT), "ingest stalled behind the tap");
        }
        assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), sent);
        if t.is_enabled() {
            assert!(t.counter_value("live.telemetry_dropped", "host-manager") >= 1);
        }
        // Reading again, the tap sees the loss as a gap in `seq`.
        let mut last = 0;
        loop {
            let b = tap
                .next_batch(SYNC_TIMEOUT)
                .expect("stream stays healthy")
                .expect("batches keep arriving until the gap");
            if b.seq != last + 1 {
                break;
            }
            last = b.seq;
        }
        mgr.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn inproc_and_socket_syncs_alternate_without_lost_wakeups() {
        let path = temp_sock("alternate");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path)))
            .spawn()
            .expect("spawn socket manager");
        let mut inproc = mgr.connect();
        let mut sock = socket_peer(&mgr, "live:sock");
        assert!(inproc.try_send(&register_frame("live:inproc")));
        for i in 0..1000u64 {
            // Each barrier finds the loop idle, blocked in epoll_wait: an
            // in-proc sync only completes if its wake-up is delivered.
            let ok = if i % 2 == 0 {
                inproc.try_send(&violation_frame("live:inproc", i + 1)) && inproc.sync(SYNC_TIMEOUT)
            } else {
                sock.try_send(&violation_frame("live:sock", i + 1)) && sock.sync(SYNC_TIMEOUT)
            };
            assert!(ok, "sync {i} was never acknowledged");
        }
        assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), 1000);
        assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 2);
        mgr.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sync_ack_covers_every_earlier_report_of_its_peer() {
        let path = temp_sock("interleaved");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path)))
            .spawn()
            .expect("spawn socket manager");
        let mut a = socket_peer(&mgr, "live:a");
        let mut b = socket_peer(&mgr, "live:b");
        let (mut a_sent, mut b_sent, mut b_acked) = (0u64, 0u64, 0u64);
        for round in 0..20u64 {
            // Interleave the two peers' writes frame by frame, A heavier.
            for k in 0..50 {
                a_sent += 1;
                assert!(a.try_send(&violation_frame("live:a", a_sent)));
                if k % 5 == 0 {
                    b_sent += 1;
                    assert!(b.try_send(&violation_frame("live:b", b_sent)));
                }
            }
            assert!(a.sync(SYNC_TIMEOUT), "round {round}: A's barrier");
            let seen = mgr.stats.violations.load(Ordering::Relaxed);
            assert!(
                seen >= a_sent + b_acked,
                "round {round}: A's ack arrived before its reports were handled"
            );
            assert!(b.sync(SYNC_TIMEOUT), "round {round}: B's barrier");
            b_acked = b_sent;
            assert_eq!(
                mgr.stats.violations.load(Ordering::Relaxed),
                a_sent + b_sent
            );
        }
        mgr.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shutdown_is_prompt_with_idle_peers_connected() {
        use std::io::Read;
        let path = temp_sock("idle-peers");
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path)))
            .spawn()
            .expect("spawn socket manager");
        let addr = mgr.local_addr().expect("bound");
        let mut idle: Vec<SockStream> = (0..8)
            .map(|_| SockStream::connect(&addr).expect("dial"))
            .collect();
        let _tap = TelemetryTap::connect(&addr, "idle-tap", true, true).expect("tap connects");
        // The tap's handshake went through the loop after every dial, so
        // every idle peer is accepted by now.
        assert!(mgr.net_stats().unwrap().peers.load(Ordering::Relaxed) >= 9);
        let t0 = Instant::now();
        mgr.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown waited on idle peers"
        );
        // The manager closed them on its way out.
        for s in &mut idle {
            s.set_read_timeout(Some(SYNC_TIMEOUT)).unwrap();
            assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0, "peer not closed");
        }
    }
}
