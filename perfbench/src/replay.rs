//! The single-thread layer replay of the traced run: the workload's
//! generated report stream goes, on one thread, through the same public
//! calls the live path makes —
//!
//! `encode_frame` (or `BatchBuilder`) → `PeerReader::on_bytes` /
//! `next_frame` → `WireMsgRef::decode_frame` + `to_owned_msg` →
//! `Engine::assert_fact` / `run` / `take_invocations` (shipped
//! `host_rules_fair` + `host_base_facts`) → lifecycle-event emit →
//! `TelemetryBatch` encode (only when the workload has a subscriber)
//!
//! — with a span around each call, so each layer's self time per report
//! can be set against the live plane's wall time per report. A second
//! pass over the same stream, without spans, reads the engine's
//! `PhaseProfile` for the match / agenda / fire split (the profiler's
//! own clock reads stay out of the first pass's self times).

use qos_core::inference::prelude::*;
use qos_core::manager::rules::{host_base_facts, host_rules_fair};
use qos_core::telemetry::{Stage, Telemetry, TraceEvent};
use qos_core::wire::messages::{LiveViolationMsg, TelemetryBatchMsg};
use qos_core::wire::{BatchBuilder, WireMsg, WireMsgRef};
use qos_net::PeerReader;

use crate::gen::Gen;
use crate::trace::{SpanLog, ROOT};

/// The process name every replayed report carries.
const PROCESS: &str = "perfbench:replay";

/// How the replay mirrors its workload.
#[derive(Debug, Clone, Copy)]
pub struct ReplayShape {
    /// Reports per wire frame: 1, or the reporter's batch size.
    pub per_frame: usize,
    /// Lifecycle events per subscriber batch, when the workload has a
    /// telemetry subscriber: the manager then clones its events into a
    /// staging buffer and encodes subscriber batches on its own thread.
    /// The live workload passes the batch size its tap actually saw.
    pub batch_events: Option<usize>,
}

/// Per-report self times (ns) and ratios measured by the replay.
#[derive(Debug, Default, Clone)]
pub struct ReplayResult {
    pub reports: u64,
    pub encode_ns: f64,
    pub reassemble_ns: f64,
    pub decode_ns: f64,
    pub assert_ns: f64,
    pub run_ns: f64,
    pub emit_ns: f64,
    /// `TelemetryBatch` encode time per event encoded (0 without a
    /// subscriber: nothing is encoded).
    pub batch_encode_ns: f64,
    pub events_per_report: f64,
    /// Time inside the replay's per-frame span that no layer span
    /// covers: report construction and the harness loop.
    pub harness_ns: f64,
    pub bytes_per_report: f64,
    /// Candidate facts the matcher examined per report, at assert and
    /// run alike (`Engine::join_work_total`).
    pub join_work_per_violation: f64,
    /// The engine's `PhaseProfile` split of assert + run time: the
    /// incremental matcher already matches and fills the agenda when a
    /// fact is asserted, so these overlap `assert_ns` as well as `run_ns`.
    pub match_ns: f64,
    pub agenda_ns: f64,
    pub fire_ns: f64,
    /// Rules fired per report (1 when every report takes one path).
    pub fired_per_report: f64,
}

impl ReplayResult {
    /// Subscriber batch encode time per report.
    pub fn publish_ns(&self) -> f64 {
        self.batch_encode_ns * self.events_per_report
    }

    /// Σ self time per report of the layers the live manager's own
    /// thread runs: decode, assert, run, emit and publish. The client's
    /// encode runs on the generator thread and the reassembly on the
    /// driver's reader thread or workers, so neither is on this path.
    pub fn manager_sum_ns(&self) -> f64 {
        self.decode_ns + self.assert_ns + self.run_ns + self.emit_ns + self.publish_ns()
    }
}

fn host_engine() -> Engine {
    let rules = parse_program(&host_rules_fair()).expect("shipped host rules parse");
    let base = parse_program(&host_base_facts()).expect("shipped base facts parse");
    let mut engine = Engine::new();
    for r in rules.rules {
        engine.add_rule(r);
    }
    for f in base.facts {
        engine.assert_fact(f);
    }
    engine
}

/// The fact the live manager asserts for a violation report.
fn violation_fact(process: &str, readings: &[(String, f64)]) -> Fact {
    let fps = readings.first().map(|&(_, v)| v).unwrap_or(0.0);
    let buffer = readings
        .iter()
        .find(|(a, _)| a == "buffer_size")
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    Fact::new("violation")
        .with("pid", Value::str(process))
        .with("fps", fps)
        .with("lo", 23.0)
        .with("hi", 27.0)
        .with("buffer", buffer)
        .with("weight", 1.0)
        .with("has-upstream", false)
}

/// The Detect and Report events the live manager builds on arrival.
fn arrival_events(at_us: u64, corr: u64, m: &LiveViolationMsg) -> [TraceEvent; 2] {
    [
        TraceEvent {
            at_us,
            corr,
            stage: Stage::Detect,
            component: m.process.clone(),
            name: m.policy.clone(),
            fields: m.readings.clone(),
        },
        TraceEvent {
            at_us,
            corr,
            stage: Stage::Report,
            component: m.process.clone(),
            name: m.policy.clone(),
            fields: Vec::new(),
        },
    ]
}

/// The Diagnose event and one Adapt event per invocation, as the live
/// manager builds them after the engine ran.
fn outcome_events(
    at_us: u64,
    corr: u64,
    policy: &str,
    fired: u64,
    invocations: &[(String, i64)],
) -> Vec<TraceEvent> {
    let mut evs = Vec::with_capacity(1 + invocations.len());
    evs.push(TraceEvent {
        at_us,
        corr,
        stage: Stage::Diagnose,
        component: "host-manager".into(),
        name: policy.to_string(),
        fields: vec![("fired".into(), fired as f64)],
    });
    for (command, step) in invocations {
        evs.push(TraceEvent {
            at_us,
            corr,
            stage: Stage::Adapt,
            component: "host-manager".into(),
            name: command.clone(),
            fields: vec![("step".into(), *step as f64)],
        });
    }
    evs
}

fn step_of(command: &str) -> i64 {
    match command {
        "adjust-cpu" => 10,
        "relax-cpu" => -5,
        _ => 0,
    }
}

/// Reports the seed replays per second; a replay budgeted `t` seconds
/// replays a fixed `t ×` this many reports.
pub const REPLAY_NOMINAL_RATE: f64 = 60_000.0;

/// Reports that fill `secs` at [`REPLAY_NOMINAL_RATE`] (at least 4096).
pub fn reports_for(secs: f64) -> u64 {
    ((secs * REPLAY_NOMINAL_RATE) as u64).max(4096)
}

/// Replay the first `count` reports of the seeded stream (rounded up to
/// whole frames), recording spans into `spans`. Returns the per-report
/// figures and whether every replayed report decoded and fired exactly
/// one rule.
pub fn run(seed: u64, shape: ReplayShape, count: u64, spans: &mut SpanLog) -> (ReplayResult, bool) {
    let mut gen = Gen::new(seed);
    let mut engine = host_engine();
    let mut reader = PeerReader::new();
    // The live builder's default: no registry, so `event` builds nothing.
    let telemetry = Telemetry::default();
    let mut builder = BatchBuilder::new();
    let mut staged: Vec<TraceEvent> = Vec::new();
    let mut ok = true;
    let (mut reports, mut bytes, mut fired) = (0u64, 0u64, 0u64);
    let (mut batches, mut events_encoded, mut events_made) = (0u64, 0u64, 0u64);
    let join0 = engine.join_work_total();
    let mut seq = 0u64;
    while reports < count {
        let frame_span = spans.open("replay.frame", reports + 1, ROOT);
        // Client side: the coordinator's reports, then their wire form.
        let group: Vec<_> = (0..shape.per_frame)
            .map(|k| {
                let corr = reports + 1 + k as u64;
                gen.next_report().to_report(PROCESS, corr, corr)
            })
            .collect();
        let s = spans.open("wire.encode", reports + 1, frame_span);
        let frame = if shape.per_frame == 1 {
            WireMsg::LiveViolation(group[0].to_wire()).encode_frame()
        } else {
            for r in &group {
                builder.push(&WireMsg::LiveViolation(r.to_wire()));
            }
            let mut buf = Vec::new();
            builder.append_frame_to(&mut buf);
            buf
        };
        spans.close(s);
        bytes += frame.len() as u64;

        // Driver side: reassemble the byte stream into a raw frame.
        let s = spans.open("net.reassemble", reports + 1, frame_span);
        reader.on_bytes(&frame);
        let raw = reader.next_frame();
        spans.close(s);
        let Ok(Some(raw)) = raw else {
            ok = false;
            break;
        };

        // Manager: borrowed decode, then materialise what is handled.
        let s = spans.open("wire.decode", reports + 1, frame_span);
        let msgs: Vec<WireMsg> = match WireMsgRef::decode_frame(&raw) {
            Ok(WireMsgRef::Batch(b)) => (&b).into_iter().map(|m| m.to_owned_msg()).collect(),
            Ok(view) => vec![view.to_owned_msg()],
            Err(_) => Vec::new(),
        };
        spans.close(s);
        if msgs.len() != shape.per_frame {
            ok = false;
            break;
        }

        for msg in msgs {
            let WireMsg::LiveViolation(m) = msg else {
                ok = false;
                continue;
            };
            reports += 1;
            let corr = m.corr;
            let at_us = m.at_us;

            let s = spans.open("telemetry.emit", corr, frame_span);
            let arrival = arrival_events(at_us, corr, &m);
            let n_arrival = arrival.len();
            if shape.batch_events.is_some() {
                for ev in arrival {
                    telemetry.event(|| ev.clone());
                    staged.push(ev);
                }
            } else {
                for ev in arrival {
                    telemetry.event(|| ev);
                }
            }
            spans.close(s);

            let s = spans.open("engine.assert", corr, frame_span);
            engine.assert_fact(violation_fact(&m.process, &m.readings));
            spans.close(s);

            let s = spans.open("engine.run", corr, frame_span);
            let run = engine.run(100);
            let invs: Vec<(String, i64)> = engine
                .take_invocations()
                .into_iter()
                .map(|inv| {
                    let step = step_of(&inv.command);
                    (inv.command, step)
                })
                .collect();
            spans.close(s);
            fired += run.fired;
            if run.fired != 1 || invs.len() != 1 {
                ok = false;
            }

            let s = spans.open("telemetry.emit", corr, frame_span);
            let outcome = outcome_events(at_us, corr, &m.policy, run.fired, &invs);
            let n_outcome = outcome.len();
            if shape.batch_events.is_some() {
                for ev in outcome {
                    telemetry.event(|| ev.clone());
                    staged.push(ev);
                }
            } else {
                for ev in outcome {
                    telemetry.event(|| ev);
                }
            }
            spans.close(s);
            events_made += (n_arrival + n_outcome) as u64;

            if shape.batch_events.is_some_and(|n| staged.len() >= n) {
                let events = std::mem::take(&mut staged);
                seq += 1;
                let s = spans.open("telemetry.batch_encode", corr, frame_span);
                let frame = WireMsg::TelemetryBatch(TelemetryBatchMsg {
                    seq,
                    source: "host-manager".into(),
                    events: events.clone(),
                    metrics: None,
                })
                .encode_frame();
                spans.close(s);
                std::hint::black_box(frame);
                batches += 1;
                events_encoded += events.len() as u64;
            }
        }
        spans.close(frame_span);
    }

    let st = spans.self_times();
    let per = |name: &str| st.get(name).map_or(0.0, |&(ns, _)| ns as f64) / reports.max(1) as f64;
    let mut res = ReplayResult {
        reports,
        encode_ns: per("wire.encode"),
        reassemble_ns: per("net.reassemble"),
        decode_ns: per("wire.decode"),
        assert_ns: per("engine.assert"),
        run_ns: per("engine.run"),
        emit_ns: per("telemetry.emit"),
        batch_encode_ns: st
            .get("telemetry.batch_encode")
            .map_or(0.0, |&(ns, _)| ns as f64)
            / events_encoded.max(1) as f64,
        events_per_report: events_made as f64 / reports.max(1) as f64,
        harness_ns: per("replay.frame"),
        bytes_per_report: bytes as f64 / reports.max(1) as f64,
        join_work_per_violation: (engine.join_work_total() - join0) as f64 / reports.max(1) as f64,
        fired_per_report: fired as f64 / reports.max(1) as f64,
        ..ReplayResult::default()
    };
    ok &= (shape.batch_events.is_none() || batches > 0) && fired == reports;

    // Second pass: the same reports, engine only, phase profile on.
    let mut gen = Gen::new(seed);
    let mut engine = host_engine();
    engine.enable_phase_profile(true);
    for i in 0..reports {
        let r = gen.next_report().to_report(PROCESS, i + 1, i + 1);
        engine.assert_fact(violation_fact(&r.process, &r.readings));
        engine.run(100);
        std::hint::black_box(engine.take_invocations());
    }
    let prof = engine.take_phase_profile();
    let n = reports.max(1) as f64;
    res.match_ns = prof.match_ns as f64 / n;
    res.agenda_ns = prof.agenda_ns as f64 / n;
    res.fire_ns = prof.fire_ns as f64 / n;
    (res, ok)
}
