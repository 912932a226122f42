//! C10k soak of the live plane's epoll reactor driver: a four-digit
//! peer count served on a ≤ 4-thread worker pool, with an *exact*
//! message ledger (everything a peer sent or knowingly dropped is
//! accounted for — nothing vanishes untracked), fps-violation recovery
//! under a buggify chaos schedule, and an inline-vs-reactor rule-firing
//! trace-equality gate at a smaller peer count.
//!
//! Linux-only: both socket drivers are raw epoll.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qos_core::prelude::*;
use qos_core::repository::agent::Registration;
use qos_telemetry::{Stage, Telemetry};
use qos_wire::messages::{LiveRegisterMsg, LiveViolationMsg};
use qos_wire::WireMsg;

/// Concurrent reactor peers in the soak (the acceptance floor is 1000).
const PEERS: usize = 1024;
/// Client threads carrying those peers (each drives PEERS/THREADS
/// connections — the *client* side may multiplex over threads; the
/// point is that the server side must not).
const CLIENT_THREADS: usize = 8;
/// Violation reports per peer. Modest on purpose: the ledger is about
/// exactness under fan-in, not raw throughput (BENCH_c10k covers that).
const VIOLATIONS_PER_PEER: u64 = 4;

fn temp_sock(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qos-c10k-{}-{name}.sock", std::process::id()))
}

fn register_frame(process: &str) -> Vec<u8> {
    WireMsg::LiveRegister(LiveRegisterMsg {
        process: process.into(),
    })
    .encode_frame()
}

fn violation_frame(process: &str, corr: u64) -> Vec<u8> {
    WireMsg::LiveViolation(LiveViolationMsg {
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

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// The tentpole gate: 1024 simultaneously-connected UDS peers against
/// one reactor-driven manager on a 4-thread worker pool, every peer
/// registering and reporting, and the ledger closing exactly —
/// `Σ sent == violations counted`, `Σ sent + Σ dropped == generated`,
/// zero decode errors.
#[test]
fn reactor_holds_1024_uds_peers_with_an_exact_ledger() {
    let path = temp_sock("soak");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .driver(Driver::Reactor)
        .workers(4)
        .spawn()
        .expect("spawn reactor manager");
    let addr = mgr.local_addr().expect("bound");
    let net = mgr.net_stats().expect("reactor manager exposes net stats");

    let sent = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let synced = Arc::new(AtomicU64::new(0));
    // All client threads hold at this barrier with every connection
    // open, so the main thread can observe the full peer count live.
    let connected = Arc::new(Barrier::new(CLIENT_THREADS + 1));
    let verified = Arc::new(Barrier::new(CLIENT_THREADS + 1));

    let per_thread = PEERS / CLIENT_THREADS;
    std::thread::scope(|s| {
        for tid in 0..CLIENT_THREADS {
            let addr = addr.clone();
            let (sent, dropped, synced) =
                (Arc::clone(&sent), Arc::clone(&dropped), Arc::clone(&synced));
            let (connected, verified) = (Arc::clone(&connected), Arc::clone(&verified));
            s.spawn(move || {
                let mut conns = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let name = format!("c10k:{tid}:{i}");
                    let mut tr =
                        SocketTransport::connect_retry(addr.clone(), Duration::from_secs(30))
                            .expect("reactor accepts the peer");
                    if tr.try_send(&register_frame(&name)) {
                        conns.push((name, tr));
                    } else {
                        panic!("registration write refused for {name}");
                    }
                }
                connected.wait();
                verified.wait();
                for (name, tr) in conns.iter_mut() {
                    for k in 0..VIOLATIONS_PER_PEER {
                        if tr.try_send(&violation_frame(name, 0)) {
                            sent.fetch_add(1, Ordering::Relaxed);
                        } else {
                            dropped.fetch_add(1, Ordering::Relaxed);
                            let _ = k;
                        }
                    }
                }
                // Per-peer barrier: the ack proves every frame this peer
                // sent has been *processed* (not merely buffered
                // somewhere between the socket and the rule engine).
                for (_, tr) in conns.iter_mut() {
                    if tr.sync(Duration::from_secs(60)) {
                        synced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        connected.wait();
        // Every peer is connected right now — the reactor must report
        // all of them live on its ≤ 4 workers.
        assert!(
            wait_until(Duration::from_secs(30), || {
                net.peers.load(Ordering::Relaxed) >= PEERS as u64
            }),
            "reactor never reached {PEERS} concurrent peers (at {})",
            net.peers.load(Ordering::Relaxed)
        );
        verified.wait();
    });

    let sent = sent.load(Ordering::Relaxed);
    let dropped = dropped.load(Ordering::Relaxed);
    assert_eq!(
        sent + dropped,
        (PEERS as u64) * VIOLATIONS_PER_PEER,
        "every generated report must be either sent or knowingly dropped"
    );
    assert_eq!(
        synced.load(Ordering::Relaxed),
        PEERS as u64,
        "every peer's sync barrier must ack through the reactor"
    );
    assert_eq!(
        mgr.stats.violations.load(Ordering::Relaxed),
        sent,
        "the manager must count exactly what the peers delivered"
    );
    assert_eq!(
        mgr.stats.registrations.load(Ordering::Relaxed),
        PEERS as u64,
        "every distinct peer registered exactly once"
    );
    assert_eq!(mgr.stats.decode_errors.load(Ordering::Relaxed), 0);
    assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= sent);
    assert!(net.accepted.load(Ordering::Relaxed) >= PEERS as u64);
    assert!(net.frames_in.load(Ordering::Relaxed) >= sent + PEERS as u64);
    mgr.shutdown();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

/// Chaos gate: with the reactor's own fault points armed (spurious
/// wakeups, accept bursts, `WouldBlock` tears on the write path) plus
/// the client-side write chaos, real fps-instrumented processes must
/// keep reporting — reconnecting as needed — and once client chaos
/// quiets, a full round must land and sync.
#[test]
fn fps_reporting_recovers_under_a_reactor_chaos_schedule() {
    if !qos_buggify::compiled_in() {
        return; // release / buggify-off build: nothing to arm
    }
    // Armed before spawn so the manager thread and the reactor's poller
    // and worker threads all adopt the schedule. The reactor points are
    // lossless perf-chaos, so leaving them armed for the whole test
    // must not cost a single frame.
    qos_buggify::enable_with(0xC10C, 0.2);
    let t = Telemetry::enabled();
    let path = temp_sock("chaos");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .driver(Driver::Reactor)
        .workers(2)
        .telemetry(&t)
        .spawn()
        .expect("spawn reactor manager");
    let addr = mgr.local_addr().expect("bound");

    const CHAOS_PEERS: usize = 8;
    let (repo, mut agent) = standard_live_repo();
    let mut procs = Vec::new();
    for i in 0..CHAOS_PEERS {
        let reg = Registration {
            process: format!("chaos:{i}"),
            executable: "VideoApplication".into(),
            application: "VideoPlayback".into(),
            role: "*".into(),
        };
        let tr = SocketTransport::builder(addr.clone())
            .reconnect(ReconnectPolicy::seeded(i as u64 + 1))
            .connect_retry(Duration::from_secs(10))
            .expect("reactor accepts the peer");
        procs.push(
            LiveProcess::start(&reg, &repo, &mut agent, Box::new(tr))
                .expect("manager reachable through the chaotic reactor"),
        );
    }

    // Chaos phase: drive the fps sensors below spec repeatedly. The
    // client-side tear/corrupt points will wreck some streams; the
    // reactor must drop those connections cleanly (counted) and accept
    // the reconnects, greeting replay included.
    let mut now_us = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut chaos_rounds = 0u32;
    while chaos_rounds < 20 && Instant::now() < deadline {
        now_us += 60_000_000;
        for p in procs.iter_mut() {
            if chaos_rounds == 0 {
                // First round: a real fps collapse through the sensor.
                let fps = p.sensors.fps().unwrap();
                let mut ts = now_us;
                let mut alarms = Vec::new();
                for _ in 0..20 {
                    ts += 200_000;
                    alarms.extend(fps.frame_displayed(ts));
                }
                for a in &alarms {
                    for pix in p.coordinator.on_alarm(a) {
                        if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, ts) {
                            p.report(r);
                        }
                    }
                }
            } else {
                // Later rounds: re-notification of the standing violation.
                for pix in p.coordinator.poll(now_us) {
                    if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now_us) {
                        p.report(r);
                    }
                }
            }
        }
        chaos_rounds += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    // Quiet the *client-side* chaos (thread-local). The reactor threads
    // stay armed — their points are lossless by contract.
    qos_buggify::disable();

    // Recovery: keep re-notifying until a full round lands and syncs on
    // every peer.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        now_us += 60_000_000;
        let before = mgr.stats.violations.load(Ordering::Relaxed);
        let mut round = 0u64;
        for p in procs.iter_mut() {
            for pix in p.coordinator.poll(now_us) {
                if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now_us) {
                    p.report(r);
                    round += 1;
                }
            }
        }
        assert!(round >= 1, "the fps policies must still be in violation");
        if procs.iter_mut().all(|p| p.sync()) {
            // dup-frame chaos in the manager can only inflate the count,
            // never shrink it: a full round is >= what was sent.
            if mgr.stats.violations.load(Ordering::Relaxed) >= before + round {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "fps reporting never recovered after the chaos schedule"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Greeting replay keeps registration idempotent across every
    // chaos-induced reconnect.
    assert_eq!(
        mgr.stats.registrations.load(Ordering::Relaxed),
        CHAOS_PEERS as u64
    );
    let sent: u64 = procs.iter().map(|p| p.reports_sent()).sum();
    assert!(sent >= 1, "chaos must not have silenced every report");
    mgr.shutdown();
}

/// Run `peers` raw socket peers through an identical serialized
/// workload and capture the rule-firing trace: (violations, rules
/// fired, sorted per-correlation lifecycle stage chains).
fn run_trace(driver: Driver, peers: usize) -> (u64, u64, Vec<(String, Vec<Stage>)>) {
    let t = Telemetry::enabled();
    let path = temp_sock(match driver {
        Driver::Inline => "trace-inline",
        Driver::Reactor => "trace-reactor",
    });
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .driver(driver)
        .workers(2)
        .telemetry(&t)
        .spawn()
        .expect("spawn manager");
    let addr = mgr.local_addr().expect("bound");

    let mut conns: Vec<(String, SocketTransport)> = (0..peers)
        .map(|i| {
            let name = format!("trace:{i}");
            let mut tr = SocketTransport::connect_retry(addr.clone(), Duration::from_secs(10))
                .expect("manager accepts the peer");
            assert!(tr.try_send(&register_frame(&name)));
            (name, tr)
        })
        .collect();
    // Serialize the workload peer-by-peer (sync between peers), so both
    // drivers present the manager the exact same total order — the
    // equality gate is about the *drivers*, not about scheduling luck.
    for (i, (name, tr)) in conns.iter_mut().enumerate() {
        for k in 0..3u64 {
            let corr = (i as u64) * 8 + k + 1;
            assert!(tr.try_send(&violation_frame(name, corr)));
        }
        assert!(tr.sync(Duration::from_secs(30)), "per-peer barrier");
    }

    let violations = mgr.stats.violations.load(Ordering::Relaxed);
    let fired = mgr.stats.rules_fired.load(Ordering::Relaxed);
    let mut chains: Vec<(String, Vec<Stage>)> = t
        .lifecycles()
        .iter()
        .map(|lc| {
            (
                lc.policy.clone(),
                lc.stages.iter().map(|&(s, _)| s).collect(),
            )
        })
        .collect();
    chains.sort();
    mgr.shutdown();
    (violations, fired, chains)
}

/// The drivers are interchangeable by construction — same sans-io
/// machines, same manager core — so at equal workloads they must
/// produce identical traces, stage for stage.
#[test]
fn inline_and_reactor_drivers_produce_identical_traces() {
    let inline = run_trace(Driver::Inline, 16);
    let reactor = run_trace(Driver::Reactor, 16);
    assert_eq!(inline.0, reactor.0, "violation counts diverged");
    assert_eq!(inline.1, reactor.1, "rule firings diverged");
    assert_eq!(inline.2, reactor.2, "lifecycle chains diverged");
    if Telemetry::enabled().is_enabled() {
        assert!(!reactor.2.is_empty(), "lifecycles must be observed");
    }
}
