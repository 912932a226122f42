//! The live workloads: a `LiveHostManager` built with the builder's
//! defaults plus a Unix-domain listen address, fed over real sockets by
//! `LiveProcess` reporters that one generator thread drives.
//!
//! Each run sets the plane up, runs three phases on it, and sets up
//! further planes on a side socket between closed-loop chunks (the
//! lower quartile of all set-ups is `setup_s`, see [`SETUP_CHUNKS`]):
//!
//! * closed loop — reports flat out, a sync barrier on every reporter
//!   every [`BARRIER_REPORTS`] reports; the manager's own violation
//!   count per second over all segments of [`SEGMENT_BARRIERS`]
//!   barriers gives `ingest_msgs_s`. The segment count is fixed from
//!   the phase's time budget and [`CLOSED_NOMINAL_RATE`];
//! * light open loop — [`LIGHT_RATE`] reports/s, a sync probe after
//!   every report;
//! * heavy open loop — [`HEAVY_RATE`] reports/s, a probe after every
//!   Nth report of a reporter, N chosen so probes are [`PROBE_SPAN_US`]
//!   of schedule apart.
//!
//! A report's latency runs from its due time to the ack of the probe
//! that follows it on its own connection; the manager's inbound queue
//! is FIFO, so that ack means the report's rule has fired.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qos_core::manager::live::prelude::*;
use qos_core::repository::{PolicyAgent, Registration, Repository};
use qos_core::telemetry::Stage;

use crate::gen::{Gen, Mix};
use crate::replay::{self, ReplayShape};
use crate::trace::{SpanLog, ROOT};
use crate::util::{median, peak_rss_mb, quantile, secs_since, wait_until, Outcome};

/// Reports between closed-loop sync barriers.
pub const BARRIER_REPORTS: usize = 512;
/// Barriers per closed-loop throughput segment.
pub const SEGMENT_BARRIERS: usize = 8;
/// Light open-loop rate: the edge-triggered report rate of a few dozen
/// video processes.
pub const LIGHT_RATE: f64 = 2_000.0;
/// Heavy open-loop rate: about half the closed-loop capacity.
pub const HEAVY_RATE: f64 = 40_000.0;
/// Schedule time between two probes on one connection in the heavy
/// phase.
pub const PROBE_SPAN_US: f64 = 400.0;
/// A report acknowledged within this limit meets the latency target.
pub const SLO_US: f64 = 1_000.0;
/// Closed-loop chunks of the untraced pass, with [`SETUPS_PER_CHUNK`]
/// extra set-ups after each: the set-ups are spread over the run, so
/// `setup_s` samples the host over the whole run rather than one moment
/// at its start.
///
/// `setup_s` is the lower quartile of the set-ups. The threads driver's
/// acceptor sleeps 5 ms whenever `accept` would block, so a set-up whose
/// connect lands in that sleep waits up to 5 ms more. Which set-ups do
/// depends on how the new threads are scheduled: the share ran from 4%
/// to 27% between runs on one 2-vCPU host, and the median moved with
/// it. The lower quartile sits in the set-ups that did not wait while
/// that share stays below three quarters; the mean and the share are
/// printed beside it.
pub const SETUP_CHUNKS: usize = 10;
pub const SETUPS_PER_CHUNK: usize = 20;
/// Poll interval while waiting for the manager to count a subscriber.
const SUBSCRIBE_POLL: Duration = Duration::from_micros(20);
/// Closed-loop reports per second the seed sustains on two cores. A
/// phase budgeted `t` seconds sends a fixed `t ×` this many reports, so
/// every run of a workload does the same work and the memory it leaves
/// behind is comparable between runs; a slower program takes longer.
pub const CLOSED_NOMINAL_RATE: f64 = 70_000.0;

/// The shape of one live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub reporters: usize,
    /// Reporters coalesce with `ReportBatchPolicy::default()`.
    pub batching: bool,
    /// A `TelemetryTap` subscribes to events and metrics.
    pub tap: bool,
}

pub const LIVE_REPORT: LiveSpec = LiveSpec {
    reporters: 2,
    batching: false,
    tap: false,
};

pub const LIVE_BATCH_TAP: LiveSpec = LiveSpec {
    reporters: 1,
    batching: true,
    tap: true,
};

/// What the tap thread saw.
#[derive(Debug, Default)]
struct TapLog {
    /// `(corr, arrival)` of the delivered Detect events whose corr lies
    /// in the recording window (the heavy phase's reports).
    detects: Vec<(u64, Instant)>,
    /// Detect events whose corr no report sent so far carries.
    unknown_corr: u64,
    /// Lifecycle events (Detect/Report/Diagnose/Adapt) delivered.
    events: u64,
    batches: u64,
    /// Batches missing from the `seq` sequence.
    seq_gaps: u64,
    /// Events carried per event-bearing batch.
    events_per_batch: Vec<f64>,
    stream_error: bool,
}

/// State the generator shares with the tap thread.
#[derive(Default)]
struct TapShared {
    stop: AtomicBool,
    /// Lifecycle events delivered so far.
    events: AtomicU64,
    /// Highest corr handed to a reporter so far.
    sent_max: AtomicU64,
    /// Detect arrivals are recorded for corr in `record_lo..record_hi`.
    record_lo: AtomicU64,
    record_hi: AtomicU64,
}

struct Tap {
    handle: JoinHandle<TapLog>,
    shared: Arc<TapShared>,
}

/// One set-up live plane.
struct Plane {
    mgr: LiveHostManager,
    procs: Vec<LiveProcess>,
    names: Vec<String>,
    tap: Option<Tap>,
}

fn registration(name: &str) -> Registration {
    Registration {
        process: name.into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    }
}

fn tap_loop(mut tap: TelemetryTap, shared: Arc<TapShared>) -> TapLog {
    let mut log = TapLog::default();
    let mut last_seq = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        match tap.next_batch(Duration::from_millis(20)) {
            Ok(Some(b)) => {
                let at = Instant::now();
                log.batches += 1;
                log.seq_gaps += b.seq.saturating_sub(last_seq + 1);
                last_seq = b.seq;
                let mut n = 0u64;
                for ev in &b.events {
                    match ev.stage {
                        Stage::Detect => {
                            let lo = shared.record_lo.load(Ordering::Acquire);
                            let hi = shared.record_hi.load(Ordering::Acquire);
                            if (lo..hi).contains(&ev.corr) {
                                log.detects.push((ev.corr, at));
                            }
                            if ev.corr == 0 || ev.corr > shared.sent_max.load(Ordering::Acquire) {
                                log.unknown_corr += 1;
                            }
                            n += 1;
                        }
                        Stage::Report | Stage::Diagnose | Stage::Adapt => n += 1,
                        _ => {}
                    }
                }
                if !b.events.is_empty() {
                    log.events_per_batch.push(b.events.len() as f64);
                }
                log.events += n;
                shared.events.fetch_add(n, Ordering::Release);
            }
            Ok(None) => {}
            Err(_) => {
                log.stream_error = true;
                break;
            }
        }
    }
    log
}

/// Build the plane: manager spawn, connects, registrations, the tap's
/// subscription (until the manager reports one subscriber), and a first
/// sync on every reporter. Returns the plane and its set-up seconds.
fn setup(
    spec: LiveSpec,
    sock: &PathBuf,
    repo: &Repository,
    agent: &mut PolicyAgent,
) -> Result<(Plane, f64), String> {
    let _ = std::fs::remove_file(sock);
    let t0 = Instant::now();
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(sock.clone())))
        .spawn()
        .map_err(|e| format!("spawn manager: {e}"))?;
    let addr = mgr.local_addr().ok_or("manager has no listen address")?;
    let mut procs = Vec::with_capacity(spec.reporters);
    let mut names = Vec::with_capacity(spec.reporters);
    for r in 0..spec.reporters {
        let name = format!("perfbench:r{r}");
        let transport = SocketTransport::connect_retry(addr.clone(), Duration::from_secs(5))
            .map_err(|e| format!("connect reporter: {e}"))?;
        let mut p = LiveProcess::start(&registration(&name), repo, agent, Box::new(transport))
            .map_err(|e| format!("start reporter: {e}"))?;
        if spec.batching {
            p.enable_report_batching(ReportBatchPolicy::default());
        }
        procs.push(p);
        names.push(name);
    }
    let tap = if spec.tap {
        let t = TelemetryTap::connect(&addr, "perfbench-tap", true, true)
            .map_err(|e| format!("connect tap: {e}"))?;
        let shared = Arc::new(TapShared::default());
        let s2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("perfbench-tap".into())
            .spawn(move || tap_loop(t, s2))
            .map_err(|e| format!("spawn tap thread: {e}"))?;
        // The subscription is in effect once the manager counts it; the
        // wait is part of set-up, so a real handshake would show here.
        // Poll with short sleeps: a spinning waiter would take one of the
        // two cores from the threads doing the set-up.
        let give_up = Instant::now() + Duration::from_secs(5);
        while mgr.stats.subscribers.load(Ordering::Acquire) < 1 {
            if Instant::now() > give_up {
                return Err("tap subscription never registered".into());
            }
            std::thread::sleep(SUBSCRIBE_POLL);
        }
        Some(Tap { handle, shared })
    } else {
        None
    };
    for p in &mut procs {
        if !p.sync() {
            return Err("first sync not acknowledged".into());
        }
    }
    let secs = secs_since(t0);
    Ok((
        Plane {
            mgr,
            procs,
            names,
            tap,
        },
        secs,
    ))
}

/// Stop the tap (after it saw `expect_events`, or a grace period) and
/// the manager. Returns what the tap saw.
fn teardown(plane: Plane, expect_events: u64) -> Option<TapLog> {
    let Plane {
        mgr, procs, tap, ..
    } = plane;
    let log = tap.map(|t| {
        let give_up = Instant::now() + Duration::from_secs(3);
        while t.shared.events.load(Ordering::Acquire) < expect_events && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
        t.shared.stop.store(true, Ordering::Release);
        t.handle.join().unwrap_or_default()
    });
    drop(procs);
    mgr.shutdown();
    log
}

/// Manager counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    violations: u64,
    rules_fired: u64,
    boost: i64,
    frames: u64,
    decode_errors: u64,
    telemetry_dropped: u64,
}

fn snap(mgr: &LiveHostManager) -> Snap {
    let s = &mgr.stats;
    Snap {
        violations: s.violations.load(Ordering::Acquire),
        rules_fired: s.rules_fired.load(Ordering::Acquire),
        boost: s.boost_level.load(Ordering::Acquire),
        frames: s.frames.load(Ordering::Acquire),
        decode_errors: s.decode_errors.load(Ordering::Acquire),
        telemetry_dropped: s.telemetry_dropped.load(Ordering::Acquire),
    }
}

/// The generator: hands out seeded reports with unique correlation ids.
struct Feed {
    gen: Gen,
    next_corr: u64,
    origin: Instant,
}

impl Feed {
    fn new(seed: u64) -> Self {
        Feed {
            gen: Gen::new(seed),
            next_corr: 1,
            origin: Instant::now(),
        }
    }

    /// Generate the next report and hand it to reporter `p`; returns its
    /// correlation id.
    fn send(&mut self, plane: &mut Plane, p: usize, spans: &mut Option<&mut SpanLog>) -> u64 {
        let corr = self.next_corr;
        self.next_corr += 1;
        let g = self.gen.next_report();
        if let Some(t) = &plane.tap {
            t.shared.sent_max.store(corr, Ordering::Release);
        }
        let report = g.to_report(
            &plane.names[p],
            self.origin.elapsed().as_micros() as u64,
            corr,
        );
        match spans {
            Some(log) => {
                let s = log.open("client.report", corr, ROOT);
                plane.procs[p].report(report);
                log.close(s);
            }
            None => plane.procs[p].report(report),
        }
        corr
    }

    fn mix(&self) -> Mix {
        self.gen.mix()
    }
}

fn sync(plane: &mut Plane, p: usize, corr: u64, spans: &mut Option<&mut SpanLog>) -> bool {
    match spans {
        Some(log) => {
            let s = log.open("client.sync", corr, ROOT);
            let ok = plane.procs[p].sync();
            log.close(s);
            ok
        }
        None => plane.procs[p].sync(),
    }
}

#[derive(Debug, Default)]
struct Closed {
    /// Per-segment ingest rates, for the diagnostics.
    rates: Vec<f64>,
    /// Violations the manager counted, and seconds spent, over all
    /// segments.
    counted: u64,
    secs: f64,
    reports: u64,
    probes: u64,
    unacked: u64,
}

impl Closed {
    fn absorb(&mut self, other: Closed) {
        self.rates.extend(other.rates);
        self.counted += other.counted;
        self.secs += other.secs;
        self.reports += other.reports;
        self.probes += other.probes;
        self.unacked += other.unacked;
    }
}

/// Measures extra set-ups of the workload's plane on a side socket while
/// the measured plane sits idle between closed-loop chunks.
struct SetupSampler<'a> {
    spec: LiveSpec,
    sock: PathBuf,
    repo: &'a Repository,
    agent: PolicyAgent,
    times: Vec<f64>,
    error: Option<String>,
}

impl SetupSampler<'_> {
    fn sample(&mut self, n: usize) {
        for _ in 0..n {
            match setup(self.spec, &self.sock, self.repo, &mut self.agent) {
                Ok((p, secs)) => {
                    self.times.push(secs);
                    teardown(p, 0);
                }
                Err(e) => self.error = Some(e),
            }
        }
    }
}

/// Closed-loop segments that fill `secs` at [`CLOSED_NOMINAL_RATE`].
fn segments_for(secs: f64) -> usize {
    let per_segment = (SEGMENT_BARRIERS * BARRIER_REPORTS) as f64;
    ((secs * CLOSED_NOMINAL_RATE / per_segment).round() as usize).max(1)
}

/// Closed loop over `segments` segments: returns the per-segment ingest
/// rates.
fn closed_loop(
    plane: &mut Plane,
    feed: &mut Feed,
    segments: usize,
    mut spans: Option<&mut SpanLog>,
) -> Closed {
    let n = plane.procs.len();
    let mut out = Closed::default();
    for _ in 0..segments {
        let t0 = Instant::now();
        let v0 = plane.mgr.stats.violations.load(Ordering::Acquire);
        for _ in 0..SEGMENT_BARRIERS {
            let mut last = 0;
            for k in 0..BARRIER_REPORTS {
                last = feed.send(plane, k % n, &mut spans);
            }
            out.reports += BARRIER_REPORTS as u64;
            for p in 0..n {
                out.probes += 1;
                if !sync(plane, p, last, &mut spans) {
                    out.unacked += 1;
                }
            }
        }
        let dt = secs_since(t0);
        let v1 = plane.mgr.stats.violations.load(Ordering::Acquire);
        out.rates.push((v1 - v0) as f64 / dt);
        out.counted += v1 - v0;
        out.secs += dt;
    }
    out
}

impl Closed {
    /// Violations counted per second over all segments. Segment rates
    /// swing between two levels within a run (with how the scheduler
    /// places the threads on the two cores), so their median jumps
    /// from one level to the other between runs; the overall rate
    /// weighs both by the time spent in each.
    fn ingest(&self) -> f64 {
        self.counted as f64 / self.secs
    }
}

#[derive(Debug, Default)]
struct Open {
    /// Per attempted report, µs from due to ack (`INFINITY` if the
    /// probe went unacknowledged).
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    reports: u64,
    probes: u64,
    unacked: u64,
    dropped: u64,
    /// Span-log index range of this phase's spans.
    span_range: (usize, usize),
}

impl Open {
    fn slo_frac(&self) -> f64 {
        let hits = self.latency_us.iter().filter(|&&l| l <= SLO_US).count() as u64;
        hits.saturating_sub(self.dropped) as f64 / self.reports.max(1) as f64
    }
}

/// Open loop at `rate` reports/s for about `secs`. `sent_at`, when
/// given, receives each report's send instant by correlation id.
fn open_loop(
    plane: &mut Plane,
    feed: &mut Feed,
    rate: f64,
    secs: f64,
    mut spans: Option<&mut SpanLog>,
    mut sent_at: Option<&mut Vec<(u64, Instant)>>,
) -> Open {
    let n = plane.procs.len();
    let per_probe = ((rate / n as f64) * PROBE_SPAN_US * 1e-6).round().max(1.0) as usize;
    let total = (rate * secs).max(1.0) as u64;
    let span_lo = spans.as_ref().map_or(0, |s| s.len());
    let dropped0: u64 = plane.procs.iter().map(|p| p.reports_dropped()).sum();
    let mut out = Open::default();
    let mut pending: Vec<Vec<Instant>> = vec![Vec::with_capacity(per_probe); n];
    let mut last_corr = vec![0u64; n];
    let start = Instant::now() + Duration::from_millis(2);
    let probe = |plane: &mut Plane,
                 p: usize,
                 corr: u64,
                 pending: &mut Vec<Instant>,
                 out: &mut Open,
                 spans: &mut Option<&mut SpanLog>| {
        let ok = sync(plane, p, corr, spans);
        let acked = Instant::now();
        out.probes += 1;
        if !ok {
            out.unacked += 1;
        }
        for due in pending.drain(..) {
            out.latency_us.push(if ok {
                acked.saturating_duration_since(due).as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
    };
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        wait_until(due);
        let now = Instant::now();
        out.lateness_us
            .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
        let p = (i as usize) % n;
        let corr = feed.send(plane, p, &mut spans);
        if let Some(v) = sent_at.as_mut() {
            v.push((corr, now));
        }
        out.reports += 1;
        last_corr[p] = corr;
        pending[p].push(due);
        if pending[p].len() >= per_probe {
            probe(plane, p, corr, &mut pending[p], &mut out, &mut spans);
        }
    }
    for p in 0..n {
        if !pending[p].is_empty() {
            probe(
                plane,
                p,
                last_corr[p],
                &mut pending[p],
                &mut out,
                &mut spans,
            );
        }
    }
    let dropped1: u64 = plane.procs.iter().map(|p| p.reports_dropped()).sum();
    out.dropped = dropped1 - dropped0;
    out.span_range = (span_lo, spans.as_ref().map_or(0, |s| s.len()));
    out
}

/// The three phases of one pass over the plane.
struct Pass {
    closed: Closed,
    light: Open,
    heavy: Open,
    heavy_sent: Vec<(u64, Instant)>,
}

fn run_pass(
    plane: &mut Plane,
    feed: &mut Feed,
    secs: (f64, f64, f64),
    mut spans: Option<&mut SpanLog>,
    mut setups: Option<&mut SetupSampler>,
) -> Pass {
    let segments = segments_for(secs.0);
    let chunks = if setups.is_some() { SETUP_CHUNKS } else { 1 };
    let mut closed = Closed::default();
    for c in 0..chunks {
        let n = segments * (c + 1) / chunks - segments * c / chunks;
        closed.absorb(closed_loop(plane, feed, n, spans.as_deref_mut()));
        if let Some(s) = setups.as_deref_mut() {
            s.sample(SETUPS_PER_CHUNK);
        }
    }
    let light = open_loop(plane, feed, LIGHT_RATE, secs.1, spans.as_deref_mut(), None);
    // The tap's lag is taken over the heavy phase: record its reports'
    // send instants, and have the tap record their Detect arrivals.
    let mut heavy_sent = Vec::new();
    let window = plane.tap.as_ref().map(|t| Arc::clone(&t.shared));
    if let Some(w) = &window {
        w.record_hi.store(u64::MAX, Ordering::Release);
        w.record_lo.store(feed.next_corr, Ordering::Release);
    }
    let heavy = open_loop(
        plane,
        feed,
        HEAVY_RATE,
        secs.2,
        spans,
        window.is_some().then_some(&mut heavy_sent),
    );
    if let Some(w) = &window {
        w.record_hi.store(feed.next_corr, Ordering::Release);
    }
    Pass {
        closed,
        light,
        heavy,
        heavy_sent,
    }
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.closed.reports + self.light.reports + self.heavy.reports
    }

    fn unacked(&self) -> u64 {
        self.closed.unacked + self.light.unacked + self.heavy.unacked
    }

    fn probes(&self) -> u64 {
        self.closed.probes + self.light.probes + self.heavy.probes
    }

    fn ingest(&self) -> f64 {
        self.closed.ingest()
    }

    /// The pass's end-to-end latency metrics, plus diagnostics.
    fn latency_metrics(&self, out: &mut Outcome, traced: bool, tag: &str) {
        for (phase, o) in [("light", &self.light), ("heavy", &self.heavy)] {
            let p50 = quantile(&o.latency_us, 0.5);
            let slo = o.slo_frac();
            let record = if traced {
                Outcome::e2e_traced
            } else {
                Outcome::e2e
            };
            record(out, &format!("report_p50_us.{phase}"), p50, "us");
            record(out, &format!("report_slo_frac.{phase}"), slo, "frac");
            out.note(
                &format!("{tag}{phase}.report_p99_us"),
                format!("{:.1}", quantile(&o.latency_us, 0.99)),
            );
            out.note(&format!("{tag}{phase}.samples"), o.latency_us.len());
            out.note(
                &format!("{tag}{phase}.lateness_us_p50_max"),
                format!(
                    "{:.1} / {:.1}",
                    quantile(&o.lateness_us, 0.5),
                    quantile(&o.lateness_us, 1.0)
                ),
            );
            out.note(&format!("{tag}{phase}.probes"), o.probes);
        }
    }
}

/// Tap lag (ms) from each heavy-phase report's send to its Detect
/// event's arrival at the tap.
fn tap_lags_ms(log: &TapLog, sent: &[(u64, Instant)]) -> Vec<f64> {
    let (Some(&(lo, _)), Some(&(hi, _))) = (sent.first(), sent.last()) else {
        return Vec::new();
    };
    log.detects
        .iter()
        .filter(|(c, _)| (lo..=hi).contains(c))
        .map(|&(c, at)| {
            let (_, sent_at) = sent[(c - lo) as usize];
            at.saturating_duration_since(sent_at).as_secs_f64() * 1e3
        })
        .collect()
}

/// Workload-wide time split, as fractions of `--seconds`.
struct Budget {
    warm: f64,
    untraced: (f64, f64, f64),
    traced: Option<(f64, f64, f64)>,
    replay: f64,
    inproc: f64,
}

impl Budget {
    /// At the nominal rates the phases fill about four fifths of
    /// `seconds`, which leaves room for a slower program.
    fn new(seconds: f64, trace: bool) -> Self {
        if trace {
            Budget {
                warm: 0.03 * seconds,
                untraced: (0.18 * seconds, 0.05 * seconds, 0.05 * seconds),
                traced: Some((0.18 * seconds, 0.05 * seconds, 0.05 * seconds)),
                replay: 0.12 * seconds,
                inproc: 0.10 * seconds,
            }
        } else {
            Budget {
                warm: 0.04 * seconds,
                untraced: (0.60 * seconds, 0.08 * seconds, 0.08 * seconds),
                traced: None,
                replay: 0.0,
                inproc: 0.0,
            }
        }
    }
}

/// Closed-loop ingest through `LiveHostManager::connect()`: the same
/// stream and manager core, no socket and no driver. Returns the ingest
/// rate and whether every report was counted.
fn inproc_ingest(spec: LiveSpec, seed: u64, secs: f64, repo: &Repository) -> (f64, bool) {
    let mut agent = PolicyAgent::new();
    let Ok(mgr) = LiveHostManager::builder().spawn() else {
        return (f64::NAN, false);
    };
    let mut procs = Vec::new();
    let mut names = Vec::new();
    for r in 0..spec.reporters {
        let name = format!("perfbench:inproc{r}");
        let Ok(mut p) = LiveProcess::start(&registration(&name), repo, &mut agent, mgr.connect())
        else {
            return (f64::NAN, false);
        };
        if spec.batching {
            p.enable_report_batching(ReportBatchPolicy::default());
        }
        procs.push(p);
        names.push(name);
    }
    // The tap workload's manager also publishes to a subscriber here,
    // drained by a second thread as the socket tap is.
    let sub = spec.tap.then(|| {
        let rx = mgr.subscribe("perfbench-inproc", true, true);
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            while !s2.load(Ordering::Acquire) {
                let _ = rx.recv_timeout(Duration::from_millis(20));
            }
        });
        while mgr.stats.subscribers.load(Ordering::Acquire) < 1 {
            std::thread::sleep(SUBSCRIBE_POLL);
        }
        (h, stop)
    });
    let mut plane = Plane {
        mgr,
        procs,
        names,
        tap: None,
    };
    let mut feed = Feed::new(seed);
    let v0 = plane.mgr.stats.violations.load(Ordering::Acquire);
    closed_loop(&mut plane, &mut feed, segments_for(secs * 0.2), None);
    let c = closed_loop(&mut plane, &mut feed, segments_for(secs * 0.8), None);
    let counted = plane.mgr.stats.violations.load(Ordering::Acquire) - v0;
    let dropped: u64 = plane.procs.iter().map(|p| p.reports_dropped()).sum();
    let ok = c.unacked == 0 && dropped == 0 && counted == feed.mix().total();
    if let Some((h, stop)) = sub {
        stop.store(true, Ordering::Release);
        let _ = h.join();
    }
    teardown(plane, 0);
    (c.ingest(), ok)
}

/// The replay's layer metrics; the batch encode only where the workload
/// has a subscriber.
fn push_replay_layers(out: &mut Outcome, rep: &replay::ReplayResult, shape: ReplayShape) {
    out.layer("wire.encode_ns", rep.encode_ns, "ns");
    out.layer("wire.decode_ns", rep.decode_ns, "ns");
    out.layer("wire.bytes_per_report", rep.bytes_per_report, "B");
    out.layer("net.reassemble_ns", rep.reassemble_ns, "ns");
    out.layer("engine.assert_ns", rep.assert_ns, "ns");
    out.layer("engine.run_ns", rep.run_ns, "ns");
    out.layer("engine.match_ns", rep.match_ns, "ns");
    out.layer("engine.agenda_ns", rep.agenda_ns, "ns");
    out.layer("engine.fire_ns", rep.fire_ns, "ns");
    out.layer(
        "engine.join_work_per_violation",
        rep.join_work_per_violation,
        "count",
    );
    out.layer("telemetry.emit_ns", rep.emit_ns, "ns");
    if shape.batch_events.is_some() {
        out.layer("telemetry.batch_encode_ns", rep.batch_encode_ns, "ns");
    }
    out.note("replay.reports", rep.reports);
    out.note("replay.harness_ns", format!("{:.1}", rep.harness_ns));
    out.note(
        "replay.events_per_report",
        format!("{:.2}", rep.events_per_report),
    );
    out.note(
        "replay.fired_per_report",
        format!("{:.3}", rep.fired_per_report),
    );
}

/// Run one live workload.
pub fn run(
    spec: LiveSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    span_sink: &mut Vec<(String, SpanLog)>,
) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::new(seconds, trace);
    let (repo, _) = standard_live_repo();
    let mut agent = PolicyAgent::new();
    let sock = PathBuf::from(format!(".perfbench-{}.sock", std::process::id()));

    // --- set-up: the measured plane first, more during the run ---------
    let (mut plane, first_setup) = match setup(spec, &sock, &repo, &mut agent) {
        Ok(p) => p,
        Err(e) => {
            out.check(format!("set-up: {e}"), false);
            return out;
        }
    };
    let mut sampler = SetupSampler {
        spec,
        sock: PathBuf::from(format!(".perfbench-{}-setup.sock", std::process::id())),
        repo: &repo,
        agent: PolicyAgent::new(),
        times: vec![first_setup],
        error: None,
    };
    let driver = if plane.mgr.net_stats().is_some() {
        "reactor"
    } else {
        "threads"
    };
    out.note("param.driver", driver);
    out.note("param.reporters", spec.reporters);
    out.note("param.batching", spec.batching);
    out.note("param.tap", spec.tap);
    out.note(
        "param.nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let base = snap(&plane.mgr);
    let mut feed = Feed::new(seed);
    // Warm-up: lazy set-up and caches, not measured.
    let warm = closed_loop(&mut plane, &mut feed, segments_for(budget.warm), None);

    let untraced = run_pass(
        &mut plane,
        &mut feed,
        budget.untraced,
        None,
        Some(&mut sampler),
    );
    let mut client_spans = SpanLog::new(feed.origin);
    let traced_frames0 = snap(&plane.mgr).frames;
    let traced = budget
        .traced
        .map(|secs| run_pass(&mut plane, &mut feed, secs, Some(&mut client_spans), None));
    let traced_frames = snap(&plane.mgr).frames - traced_frames0;

    let end = snap(&plane.mgr);
    let mix = feed.mix();
    let dropped: u64 = plane.procs.iter().map(|p| p.reports_dropped()).sum();
    let sent: u64 = plane.procs.iter().map(|p| p.reports_sent()).sum();
    let counted = end.violations - base.violations;
    let attempted = mix.total();
    let unacked = warm.unacked + untraced.unacked() + traced.as_ref().map_or(0, |t| t.unacked());
    let probes = warm.probes + untraced.probes() + traced.as_ref().map_or(0, |t| t.probes());
    let expect_events = 4 * end.violations;
    let tap_log = teardown(plane, if spec.tap { expect_events } else { 0 });

    // --- output checks -------------------------------------------------
    out.check(
        "reports sent = reports attempted - dropped",
        sent + dropped == attempted,
    );
    out.check("manager violations delta = reports sent", counted == sent);
    out.check(
        "rules_fired delta = violations delta",
        end.rules_fired - base.rules_fired == counted,
    );
    out.check(
        "boost_level delta = +10 x adjust-cpu - 5 x relax-cpu of the mix",
        end.boost - base.boost == mix.expected_boost(),
    );
    out.check("decode_errors = 0", end.decode_errors == 0);
    out.check("every probe acked", unacked == 0);
    if let Some(log) = &tap_log {
        out.check(
            "every tap Detect corr matches a sent report",
            log.unknown_corr == 0,
        );
        out.check("tap stream stayed healthy", !log.stream_error);
    }
    out.note("mix", mix.shares());
    out.attempted = attempted;
    out.failed = dropped + unacked + sent.saturating_sub(counted);

    // --- end-to-end metrics --------------------------------------------
    if let Some(e) = &sampler.error {
        out.check(format!("set-up during the run: {e}"), false);
    }
    let setups = sampler.times;
    out.note("setup_s.samples", setups.len());
    let setup_s = quantile(&setups, 0.25);
    let rss = peak_rss_mb();
    let failed_frac = out.failed as f64 / attempted.max(1) as f64;
    out.e2e("setup_s", setup_s, "s");
    out.e2e("ingest_msgs_s", untraced.ingest(), "1/s");
    untraced.latency_metrics(&mut out, false, "");
    out.e2e("failed_frac", failed_frac, "frac");
    if let Some(log) = &tap_log {
        let lags = tap_lags_ms(log, &untraced.heavy_sent);
        out.e2e("tap_lag_p50_ms", quantile(&lags, 0.5), "ms");
        out.note("tap_lag.p99_ms", format!("{:.3}", quantile(&lags, 0.99)));
        out.note("tap_lag.samples", lags.len());
        out.e2e(
            "tap_delivered_frac",
            log.events as f64 / expect_events.max(1) as f64,
            "frac",
        );
        out.note("tap.seq_gaps", log.seq_gaps);
        out.note("tap.batches", log.batches);
    }
    out.e2e("peak_rss_mb", rss, "MB");
    out.note(
        "setup_s.mean_and_share_over_3ms",
        format!(
            "{:.6} / {:.3}",
            setups.iter().sum::<f64>() / setups.len() as f64,
            setups.iter().filter(|&&t| t > 0.003).count() as f64 / setups.len() as f64
        ),
    );
    out.note(
        "setup_s.min_q1_q3_max",
        format!(
            "{:.6} / {:.6} / {:.6} / {:.6}",
            quantile(&setups, 0.0),
            quantile(&setups, 0.25),
            quantile(&setups, 0.75),
            quantile(&setups, 1.0)
        ),
    );
    out.note("ingest.segments", untraced.closed.rates.len());
    let rates = &untraced.closed.rates;
    out.note(
        "ingest.segments_min_q1_q3_max",
        format!(
            "{:.0} / {:.0} / {:.0} / {:.0}",
            quantile(rates, 0.0),
            quantile(rates, 0.25),
            quantile(rates, 0.75),
            quantile(rates, 1.0)
        ),
    );
    out.note("probes", probes);

    let Some(traced) = traced else {
        return out;
    };

    // --- traced pass: end-to-end next to the untraced one ----------------
    out.e2e_traced("ingest_msgs_s", traced.ingest(), "1/s");
    traced.latency_metrics(&mut out, true, "traced.");
    if let Some(log) = &tap_log {
        let lags = tap_lags_ms(log, &traced.heavy_sent);
        out.e2e_traced("tap_lag_p50_ms", quantile(&lags, 0.5), "ms");
    }

    // --- per-layer -------------------------------------------------------
    let report_ns = median(&client_spans.durations("client.report"));
    let (lo, hi) = traced.light.span_range;
    let light_sync: Vec<f64> = client_spans.durations_in("client.sync", lo, hi);
    out.layer("client.report_ns", report_ns, "ns");
    out.layer("client.sync_rtt_us", median(&light_sync) / 1e3, "us");
    out.layer("client.reports_dropped", dropped as f64, "count");
    // Report frames the manager counted in the traced pass: every frame
    // but the sync probes.
    let report_frames = traced_frames.saturating_sub(traced.probes()).max(1) as f64;
    out.layer(
        "client.frames_per_report",
        report_frames / traced.attempted().max(1) as f64,
        "count",
    );
    out.layer(
        "wire.msgs_per_frame",
        traced.attempted() as f64 / report_frames,
        "count",
    );
    // Lifecycle events per subscriber batch, as the tap received them.
    let tap_batch = tap_log.as_ref().map(|log| median(&log.events_per_batch));
    if let Some(n) = tap_batch {
        out.layer("telemetry.events_per_batch", n, "count");
    }

    let shape = ReplayShape {
        per_frame: if spec.batching {
            ReportBatchPolicy::default().max_msgs
        } else {
            1
        },
        batch_events: tap_batch.map(|n| (n.round() as usize).max(1)),
    };
    let mut replay_spans = SpanLog::new(Instant::now());
    let (rep, rep_ok) = replay::run(
        seed,
        shape,
        replay::reports_for(budget.replay),
        &mut replay_spans,
    );
    out.check("replay: every report decoded and fired one rule", rep_ok);
    push_replay_layers(&mut out, &rep, shape);

    out.note("net.driver", driver);
    for name in [
        "net.wakeups_per_frame",
        "net.backpressure_stalls",
        "net.ready_high_water",
        "net.telemetry_dropped",
    ] {
        out.note(
            name,
            format!("n/a (driver={driver}: NetStats exist only under the reactor)"),
        );
    }

    let (inproc, inproc_ok) = inproc_ingest(spec, seed, budget.inproc, &repo);
    out.check("in-proc: every report counted, none dropped", inproc_ok);
    let ingest = untraced.ingest();
    out.layer("mgr.inproc_msgs_s", inproc, "1/s");
    out.layer("mgr.socket_overhead_ns", 1e9 / ingest - 1e9 / inproc, "ns");
    out.layer(
        "mgr.rules_fired_per_violation",
        (end.rules_fired - base.rules_fired) as f64 / counted.max(1) as f64,
        "count",
    );
    out.layer("mgr.decode_errors", end.decode_errors as f64, "count");
    out.layer(
        "telemetry.dropped",
        (end.telemetry_dropped - base.telemetry_dropped) as f64,
        "count",
    );

    // --- the ledger -------------------------------------------------------
    // The manager thread is the one every report passes through, so its
    // layers are set against the per-report wall; the client encode and
    // the reassembly run on other threads and are printed beside it.
    let wall_ns = 1e9 / ingest;
    let sum = rep.manager_sum_ns();
    out.layer("ledger.unattributed_ns", wall_ns - sum, "ns");
    out.note(
        "ledger",
        format!(
            "manager thread: decode {:.0} + assert {:.0} + run {:.0} + emit {:.0}{} = {sum:.0} ns; \
             + unattributed {:.0} ns = per-report wall {wall_ns:.0} ns at saturation \
             (other threads: client encode {:.0}, reassemble {:.0} ns)",
            rep.decode_ns,
            rep.assert_ns,
            rep.run_ns,
            rep.emit_ns,
            if shape.batch_events.is_some() {
                format!(" + publish {:.0}", rep.publish_ns())
            } else {
                String::new()
            },
            wall_ns - sum,
            rep.encode_ns,
            rep.reassemble_ns,
        ),
    );
    span_sink.push(("client".into(), client_spans));
    span_sink.push(("replay".into(), replay_spans));
    out
}
