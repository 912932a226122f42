//! Wire-codec throughput: how many management-plane messages per second
//! the hand-rolled `qos-wire` codec encodes and decodes. The paper's
//! management plane lives or dies on the marshalling cost of its
//! violation reports, so the headline row is a representative
//! `ViolationMsg` (readings, bounds and upstream attribution all
//! populated); `RegisterMsg` and the live-mode `LiveViolationMsg` ride
//! along for comparison.
//!
//! Each message is measured two ways:
//!
//! * **unbatched** — one message per frame, the owned decoder and the
//!   zero-copy borrowed decoder side by side;
//! * **batched** — 64 messages coalesced into one `Batch` frame via
//!   [`BatchBuilder`] (the encode path reuses one builder and one output
//!   buffer, as the live report path does) and walked back out with the
//!   borrowed [`WireMsgRef`] views, allocating nothing per message.
//!
//! Flags: `--smoke` (fewer iterations for CI), `--json <path>` (result
//! rows; written only when a path is given), `--assert-budget <msgs/s>`
//! (fail unless the batched `ViolationMsg` round trip reaches the given
//! rate).

use std::hint::black_box;
use std::time::Instant;

use qos_bench::{bench_rows_to_json, BenchRow};
use qos_core::prelude::*;
use qos_core::telemetry::MetricSnapshot;
use qos_core::wire::messages::{LiveViolationMsg, TelemetryBatchMsg};
use qos_core::wire::{BatchBuilder, WireMsgRef};

/// Messages coalesced per frame in the batched measurements — the
/// default `ReportBatchPolicy` ceiling is 16; 64 shows the asymptote.
const BATCH: usize = 64;

fn violation() -> WireMsg {
    WireMsg::Violation(ViolationMsg {
        pid: Pid {
            host: HostId(3),
            local: 17,
        },
        proc_name: "VideoApplication".into(),
        policy: "NotifyQoSViolation".into(),
        corr: 123_456_789,
        readings: vec![
            ("frame_rate".into(), 15.0),
            ("buffer_size".into(), 50_000.0),
        ],
        bounds: Some(("frame_rate".into(), 23.0, 27.0)),
        upstream: Some(Upstream {
            host: HostId(1),
            pid: Pid {
                host: HostId(1),
                local: 4,
            },
        }),
    })
}

fn register() -> WireMsg {
    WireMsg::Register(RegisterMsg {
        pid: Pid {
            host: HostId(3),
            local: 17,
        },
        control_port: 100,
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
        weight: 1.0,
        heartbeat: Some(Dur::from_secs(5)),
    })
}

fn live_violation() -> WireMsg {
    WireMsg::LiveViolation(LiveViolationMsg {
        policy: "NotifyQoSViolation".into(),
        process: "video:0".into(),
        at_us: 42_000_000,
        corr: 7,
        readings: vec![
            ("frame_rate".into(), 15.0),
            ("buffer_size".into(), 50_000.0),
        ],
    })
}

/// A representative live-telemetry batch: the frame the manager
/// publishes to `qosctl` subscribers every publish tick — four lifecycle
/// events plus a small metrics snapshot.
fn telemetry_batch() -> WireMsg {
    let ev = |at_us: u64, stage: Stage| TraceEvent {
        at_us,
        corr: 9,
        stage,
        component: "host-manager".into(),
        name: "example1".into(),
        fields: vec![("frame_rate".into(), 15.0)],
    };
    WireMsg::TelemetryBatch(TelemetryBatchMsg {
        seq: 42,
        source: "host-manager".into(),
        events: vec![
            ev(1_000, Stage::Detect),
            ev(1_050, Stage::Report),
            ev(1_200, Stage::Diagnose),
            ev(1_250, Stage::Adapt),
        ],
        metrics: Some((
            2_000,
            vec![MetricSnapshot {
                family: "live.frames".into(),
                label: "host-manager".into(),
                value: MetricValue::Counter(1234),
            }],
        )),
    })
}

struct Row {
    kind: &'static str,
    mode: &'static str,
    batch: usize,
    frame_bytes: usize,
    encode_mps: f64,
    decode_mps: f64,
    borrowed_mps: f64,
    roundtrip_mps: f64,
}

/// msgs/sec over `iters` runs of `f`.
fn rate(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

/// A cheap per-message read so the borrowed walk cannot be optimized
/// away without materializing anything.
fn borrowed_probe(m: &WireMsgRef<'_>) -> u64 {
    match m {
        WireMsgRef::Violation(v) => v.corr,
        WireMsgRef::LiveViolation(v) => v.corr,
        WireMsgRef::Register(r) => r.control_port as u64,
        WireMsgRef::TelemetryBatch(b) => b.seq,
        _ => 0,
    }
}

fn measure(kind: &'static str, msg: &WireMsg, iters: u64) -> Row {
    let frame = msg.encode_frame();
    assert_eq!(&WireMsg::decode_frame(&frame).expect("valid frame"), msg);
    assert_eq!(
        &WireMsgRef::decode_frame(&frame)
            .expect("valid frame (borrowed)")
            .to_owned_msg(),
        msg
    );
    // Warm up caches and branch predictors before timing.
    for _ in 0..iters / 10 {
        black_box(WireMsg::decode_frame(black_box(&frame)).unwrap());
    }
    let encode_mps = rate(iters, || {
        black_box(black_box(msg).encode_frame());
    });
    let decode_mps = rate(iters, || {
        black_box(WireMsg::decode_frame(black_box(&frame)).unwrap());
    });
    let borrowed_mps = rate(iters, || {
        let v = WireMsgRef::decode_frame(black_box(&frame)).unwrap();
        black_box(borrowed_probe(&v));
    });
    let roundtrip_mps = rate(iters, || {
        let f = black_box(msg).encode_frame();
        black_box(WireMsg::decode_frame(&f).unwrap());
    });
    Row {
        kind,
        mode: "unbatched",
        batch: 1,
        frame_bytes: frame.len(),
        encode_mps,
        decode_mps,
        borrowed_mps,
        roundtrip_mps,
    }
}

/// Batched measurement: `BATCH` copies of `msg` coalesced into one
/// frame. Rates are per *message*, not per frame. Encode reuses one
/// builder and one output buffer; decode walks the borrowed views.
fn measure_batch(kind: &'static str, msg: &WireMsg, iters: u64) -> Row {
    let mut b = BatchBuilder::new();
    for _ in 0..BATCH {
        b.push(msg);
    }
    let frame = b.finish();
    match WireMsgRef::decode_frame(&frame).expect("valid batch frame") {
        WireMsgRef::Batch(batch) => {
            assert_eq!(batch.len(), BATCH);
            for m in &batch {
                assert_eq!(&m.to_owned_msg(), msg);
            }
        }
        _ => panic!("batch frame must decode as a batch"),
    }
    for _ in 0..iters / 10 {
        black_box(WireMsgRef::decode_frame(black_box(&frame)).unwrap());
    }

    let mut builder = BatchBuilder::new();
    let mut out = Vec::with_capacity(frame.len());
    let encode_mps = rate(iters, || {
        builder.clear();
        for _ in 0..BATCH {
            builder.push(black_box(msg));
        }
        out.clear();
        builder.append_frame_to(&mut out);
        black_box(out.as_slice());
    }) * BATCH as f64;
    // Owned decode of the whole batch (allocates per message)...
    let decode_mps = rate(iters, || {
        black_box(WireMsg::decode_frame(black_box(&frame)).unwrap());
    }) * BATCH as f64;
    // ...vs the borrowed walk, which allocates nothing.
    let borrowed_mps = rate(iters, || {
        let WireMsgRef::Batch(batch) = WireMsgRef::decode_frame(black_box(&frame)).unwrap() else {
            unreachable!("batch frame");
        };
        let mut sink = 0u64;
        for m in &batch {
            sink ^= borrowed_probe(&m);
        }
        black_box(sink);
    }) * BATCH as f64;
    let roundtrip_mps = rate(iters, || {
        builder.clear();
        for _ in 0..BATCH {
            builder.push(black_box(msg));
        }
        out.clear();
        builder.append_frame_to(&mut out);
        let WireMsgRef::Batch(batch) = WireMsgRef::decode_frame(black_box(&out)).unwrap() else {
            unreachable!("batch frame");
        };
        let mut sink = 0u64;
        for m in &batch {
            sink ^= borrowed_probe(&m);
        }
        black_box(sink);
    }) * BATCH as f64;
    Row {
        kind,
        mode: "batched",
        batch: BATCH,
        frame_bytes: frame.len(),
        encode_mps,
        decode_mps,
        borrowed_mps,
        roundtrip_mps,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget_mps = arg_value("--assert-budget").and_then(|v| v.parse::<f64>().ok());
    let iters: u64 = if smoke { 20_000 } else { 1_000_000 };
    eprintln!("timing the qos-wire codec ({iters} iterations per measurement)...");

    let results = [
        measure("ViolationMsg", &violation(), iters),
        measure("RegisterMsg", &register(), iters),
        measure("LiveViolationMsg", &live_violation(), iters),
        measure("TelemetryBatchMsg", &telemetry_batch(), iters),
        measure_batch("ViolationMsg", &violation(), iters / 16),
        measure_batch("LiveViolationMsg", &live_violation(), iters / 16),
    ];

    let mut t = Table::new(&[
        "message",
        "mode",
        "frame bytes",
        "encode (msgs/s)",
        "decode (msgs/s)",
        "borrowed decode (msgs/s)",
        "round trip (msgs/s)",
    ]);
    let mut rows = Vec::new();
    for r in &results {
        t.row(&[
            r.kind.into(),
            if r.batch > 1 {
                format!("{} x{}", r.mode, r.batch)
            } else {
                r.mode.into()
            },
            format!("{}", r.frame_bytes),
            format!("{:.0}", r.encode_mps),
            format!("{:.0}", r.decode_mps),
            format!("{:.0}", r.borrowed_mps),
            format!("{:.0}", r.roundtrip_mps),
        ]);
        rows.push(
            BenchRow::new("wire")
                .param("message", r.kind)
                .param("mode", r.mode)
                .param("batch", r.batch)
                .param("iters", iters)
                .metric("frame_bytes", r.frame_bytes as f64)
                .metric("encode_msgs_per_sec", r.encode_mps)
                .metric("decode_msgs_per_sec", r.decode_mps)
                .metric("borrowed_decode_msgs_per_sec", r.borrowed_mps)
                .metric("roundtrip_msgs_per_sec", r.roundtrip_mps),
        );
    }
    println!(
        "qos-wire codec throughput (version {}, 8-byte frame header)",
        qos_core::wire::VERSION
    );
    println!("{}", t.render());

    // A violation report must marshal far faster than the paper's ~11 us
    // steady-state instrumentation pass, or live mode's reporting cost
    // would be codec-bound.
    let v = &results[0];
    assert!(
        v.roundtrip_mps > 100_000.0,
        "ViolationMsg round trip too slow: {:.0} msgs/s",
        v.roundtrip_mps
    );
    let vb = results
        .iter()
        .find(|r| r.kind == "ViolationMsg" && r.mode == "batched")
        .expect("batched ViolationMsg row");
    println!(
        "batched ViolationMsg round trip: {:.2}M msgs/s ({:.1}x the unbatched framed path)",
        vb.roundtrip_mps / 1e6,
        vb.roundtrip_mps / v.roundtrip_mps
    );
    if let Some(budget) = budget_mps {
        assert!(
            vb.roundtrip_mps >= budget,
            "batched ViolationMsg round trip {:.0} msgs/s below budget {budget:.0}",
            vb.roundtrip_mps
        );
    }

    if let Some(path) = arg_value("--json") {
        std::fs::write(&path, bench_rows_to_json(&rows)).expect("write benchmark rows");
        eprintln!("benchmark rows written to {path}");
    }

    if telemetry_requested() {
        // Mirror the rows into a telemetry handle: one Mark event per
        // message kind (fields carry the rates) and headline counters.
        let t = Telemetry::enabled();
        for (i, r) in results.iter().enumerate() {
            let label = if r.batch > 1 {
                format!("{}/{}", r.kind, r.mode)
            } else {
                r.kind.to_string()
            };
            t.stage(i as u64, 0, Stage::Mark, "wire-bench", &label, || {
                vec![
                    ("frame_bytes".into(), r.frame_bytes as f64),
                    ("encode_msgs_per_sec".into(), r.encode_mps),
                    ("decode_msgs_per_sec".into(), r.decode_mps),
                    ("borrowed_decode_msgs_per_sec".into(), r.borrowed_mps),
                    ("roundtrip_msgs_per_sec".into(), r.roundtrip_mps),
                ]
            });
            t.counter("wire.frame_bytes", &label)
                .add(r.frame_bytes as u64);
            t.counter("wire.roundtrip_msgs_per_sec", &label)
                .add(r.roundtrip_mps as u64);
        }
        emit_telemetry_outputs(&t).expect("write telemetry artifacts");
    }
}
