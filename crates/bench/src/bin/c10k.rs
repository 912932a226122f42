//! E17 / C10k live-mode driver comparison: the thread-per-peer driver
//! and the epoll reactor serving the same UDS violation-report workload
//! from the same sans-io protocol machines. Three runs — threads at a
//! thread-friendly peer count, the reactor at the same count, and the
//! reactor alone at a four-digit count the blocking driver cannot hold —
//! each measuring:
//!
//! * **connection ramp** — connects + registrations per second until
//!   every peer is live;
//! * **sustained violation throughput** — violation messages per second
//!   actually counted by the manager core (not merely written to a
//!   socket) with every peer reporting concurrently;
//! * **p95 ingest RTT** — violation write → sync ack round trip, the
//!   end-to-end "my report was processed" latency a peer observes;
//! * **wakeups/msg** — reactor only: epoll wakeups per inbound frame,
//!   the batching figure of merit for the poller.
//!
//! Flags: `--smoke` (fewer peers/rounds for CI), `--json <path>`
//! (result rows; written only when a path is given), `--assert-budget
//! <msgs/s>` (fail unless the largest reactor run sustains the given
//! violation rate).

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("the c10k bench needs the epoll reactor driver (linux-only); skipping");
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use qos_bench::{bench_rows_to_json, BenchRow};
    use qos_core::prelude::*;
    use qos_core::wire::messages::{LiveRegisterMsg, LiveViolationMsg};
    use qos_core::wire::WireMsg;

    /// Client threads multiplexing the peer connections (the client may
    /// pool; the server side under test must hold every peer at once).
    const CLIENT_THREADS: usize = 8;

    fn temp_sock(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qos-bench-c10k-{}-{name}.sock", std::process::id()))
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

    struct RunResult {
        driver: &'static str,
        peers: usize,
        ramp_conns_per_sec: f64,
        violation_mps: f64,
        delivered: u64,
        p95_rtt_us: f64,
        wakeups_per_msg: f64,
    }

    /// One full measurement: ramp `peers` connections, drive `rounds`
    /// violations per peer flat out, then sample sync round trips.
    fn run(driver: Driver, peers: usize, rounds: u64) -> RunResult {
        let label = match driver {
            Driver::Threads => "threads",
            Driver::Reactor => "reactor",
        };
        let path = temp_sock(&format!("{label}-{peers}"));
        let _ = std::fs::remove_file(&path);
        let mgr = LiveHostManager::builder()
            .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
            .driver(driver)
            .workers(4)
            .spawn()
            .expect("spawn live manager");
        let addr = mgr.local_addr().expect("bound");
        let net = mgr.net_stats();
        let frames_before = net
            .as_ref()
            .map_or(0, |n| n.frames_in.load(Ordering::Relaxed));
        let wakeups_before = net
            .as_ref()
            .map_or(0, |n| n.wakeups.load(Ordering::Relaxed));

        // --- ramp: connect + register every peer --------------------
        let per_thread = peers / CLIENT_THREADS;
        let t0 = Instant::now();
        let mut conns: Vec<(String, SocketTransport)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENT_THREADS)
                .map(|tid| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let mut conns = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let name = format!("bench:{tid}:{i}");
                            let mut tr = SocketTransport::connect_retry(
                                addr.clone(),
                                Duration::from_secs(30),
                            )
                            .expect("manager accepts the peer");
                            assert!(tr.try_send(&register_frame(&name)), "registration refused");
                            conns.push((name, tr));
                        }
                        conns
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let ramp_deadline = Instant::now() + Duration::from_secs(60);
        while mgr.stats.registrations.load(Ordering::Relaxed) < conns.len() as u64 {
            assert!(Instant::now() < ramp_deadline, "registrations never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let ramp_secs = t0.elapsed().as_secs_f64();

        // --- sustained violation throughput -------------------------
        let delivered_before = mgr.stats.violations.load(Ordering::Relaxed);
        let sent = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for chunk in conns.chunks_mut(per_thread.max(1)) {
                let sent = Arc::clone(&sent);
                s.spawn(move || {
                    for (name, tr) in chunk.iter_mut() {
                        for k in 0..rounds {
                            if tr.try_send(&violation_frame(name, k + 1)) {
                                sent.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // The sync barrier makes the clock honest: stop only
                    // when the manager has *processed* the backlog.
                    for (_, tr) in chunk.iter_mut() {
                        assert!(tr.sync(Duration::from_secs(120)), "sync barrier");
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let delivered = mgr.stats.violations.load(Ordering::Relaxed) - delivered_before;
        assert!(
            delivered >= sent.load(Ordering::Relaxed),
            "manager lost delivered reports"
        );
        let violation_mps = delivered as f64 / elapsed;

        // --- p95 ingest RTT over a peer sample ----------------------
        let sample = conns.len().min(64);
        let mut rtts_us: Vec<f64> = Vec::with_capacity(sample);
        for (name, tr) in conns.iter_mut().take(sample) {
            let t0 = Instant::now();
            assert!(tr.try_send(&violation_frame(name, 0)));
            assert!(tr.sync(Duration::from_secs(30)), "rtt sync");
            rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        rtts_us.sort_by(|a, b| a.total_cmp(b));
        let p95_rtt_us = rtts_us[(rtts_us.len() * 95 / 100).min(rtts_us.len() - 1)];

        let frames = net
            .as_ref()
            .map_or(0, |n| n.frames_in.load(Ordering::Relaxed))
            - frames_before;
        let wakeups = net
            .as_ref()
            .map_or(0, |n| n.wakeups.load(Ordering::Relaxed))
            - wakeups_before;
        let wakeups_per_msg = if frames > 0 {
            wakeups as f64 / frames as f64
        } else {
            0.0
        };
        drop(conns);
        mgr.shutdown();
        RunResult {
            driver: label,
            peers,
            ramp_conns_per_sec: peers as f64 / ramp_secs,
            violation_mps,
            delivered,
            p95_rtt_us,
            wakeups_per_msg,
        }
    }

    /// Best-of-`reps` (same practice as the recorder bench's min-of-3):
    /// client and server share one core here, so a single run carries
    /// ±10 % scheduler noise.
    fn run_best(driver: Driver, peers: usize, rounds: u64, reps: u32) -> RunResult {
        (0..reps)
            .map(|_| run(driver, peers, rounds))
            .max_by(|a, b| a.violation_mps.total_cmp(&b.violation_mps))
            .expect("at least one rep")
    }

    pub fn main() {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let budget_mps = arg_value("--assert-budget").and_then(|v| v.parse::<f64>().ok());
        // Small-count head-to-head, then the reactor's headline count.
        let (small, big, rounds, reps) = if smoke {
            (16, 256, 8, 1)
        } else {
            (64, 1024, 64, 3)
        };
        eprintln!(
            "c10k live-mode drivers: threads@{small}, reactor@{small}, reactor@{big} \
             ({rounds} violations per peer, best of {reps})..."
        );

        let results = [
            run_best(Driver::Threads, small, rounds, reps),
            run_best(Driver::Reactor, small, rounds, reps),
            run_best(Driver::Reactor, big, rounds, reps),
        ];

        let mut t = Table::new(&[
            "driver",
            "peers",
            "ramp (conns/s)",
            "violations (msgs/s)",
            "p95 ingest RTT",
            "wakeups/msg",
        ]);
        let mut rows = Vec::new();
        for r in &results {
            t.row(&[
                r.driver.into(),
                format!("{}", r.peers),
                format!("{:.0}", r.ramp_conns_per_sec),
                format!("{:.0}", r.violation_mps),
                format!("{:.0} us", r.p95_rtt_us),
                if r.wakeups_per_msg > 0.0 {
                    format!("{:.3}", r.wakeups_per_msg)
                } else {
                    "-".into()
                },
            ]);
            rows.push(
                BenchRow::new("c10k")
                    .param("driver", r.driver)
                    .param("peers", r.peers)
                    .param("rounds", rounds)
                    .metric("ramp_conns_per_sec", r.ramp_conns_per_sec)
                    .metric("violation_msgs_per_sec", r.violation_mps)
                    .metric("violations_delivered", r.delivered as f64)
                    .metric("p95_ingest_rtt_us", r.p95_rtt_us)
                    .metric("wakeups_per_msg", r.wakeups_per_msg),
            );
        }
        println!("C10k live mode: thread-per-peer vs epoll reactor (UDS, 4 workers)");
        println!("{}", t.render());

        let big_run = &results[2];
        println!(
            "headline: the reactor held {} concurrent peers at {:.0} violation msgs/s \
             ({:.3} epoll wakeups per inbound frame)",
            big_run.peers, big_run.violation_mps, big_run.wakeups_per_msg
        );
        if let Some(budget) = budget_mps {
            assert!(
                big_run.violation_mps >= budget,
                "reactor@{} sustained {:.0} msgs/s, below the {budget:.0} msgs/s budget",
                big_run.peers,
                big_run.violation_mps
            );
            println!(
                "budget check: {:.0} msgs/s >= {budget:.0} msgs/s",
                big_run.violation_mps
            );
        }

        if let Some(path) = arg_value("--json") {
            std::fs::write(&path, bench_rows_to_json(&rows)).expect("write benchmark rows");
            eprintln!("benchmark rows written to {path}");
        }
    }
}
