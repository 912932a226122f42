//! The `sim-storm` workload: the simulated plane only. Eight hosts × 64
//! storm reporters (the `scale` bin's largest point, with the overload
//! rules loaded) fire seeded violations at real `QosHostManager`s every
//! storm round. No socket, reactor or live manager core takes part, so
//! `qos-inference`, `host` and `qos-sim` do nearly all the work.
//!
//! A run builds and storms a fixed number of fresh worlds, sized from
//! `--seconds` by [`WORLDS_NOMINAL_RATE`]:
//! `setup_s` is the median world build, `ingest_msgs_s` (printed also as
//! `sim_violations_s`) the violations diagnosed per wall-clock second
//! over all stormed worlds. The same world storms at rates that swing
//! by a third within one run, in spells of seconds, so the median
//! world jumps with the spell a run lands in; the overall rate weighs
//! every spell by its time.

use std::time::Instant;

use qos_core::prelude::*;

use crate::gen::{Gen, GenReport, Mix, POLICY};
use crate::util::{median, peak_rss_mb, quantile, secs_since, Outcome};

pub const HOSTS: usize = 8;
pub const REPORTERS: usize = 64;
/// Storm rounds per world.
pub const ROUNDS: usize = 20;
const INTERVAL_MS: u64 = 200;
const REPORTER_PORT_BASE: Port = 100;
const TAG_STORM: u64 = 1;

/// Rules that consume a violation fact: each violation is diagnosed by
/// exactly one of them.
const DIAGNOSIS_RULES: [&str; 7] = [
    "local-cpu-starvation",
    "remote-cause",
    "local-fallback",
    "response-time-slow",
    "over-achieving",
    "unhandled-violation",
    "overload-adapt-application",
];

/// A storm reporter: registers at start, then sends the next seeded
/// violation of its schedule every storm round; every reporter on every
/// host fires at the same instant.
struct StormReporter {
    hm: Endpoint,
    schedule: Vec<GenReport>,
    sent: usize,
    corr_base: u64,
    port: Port,
}

impl ProcessLogic for StormReporter {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                send_ctrl(
                    ctx,
                    self.hm,
                    self.port,
                    WireMsg::Register(RegisterMsg {
                        pid: ctx.pid(),
                        control_port: self.port,
                        executable: "StormReporter".into(),
                        application: "PerfBench".into(),
                        role: "*".into(),
                        weight: 1.0,
                        heartbeat: None,
                    }),
                );
                ctx.set_timer(Dur::from_millis(INTERVAL_MS), TAG_STORM);
            }
            ProcEvent::Timer(TAG_STORM) => {
                let Some(g) = self.schedule.get(self.sent).copied() else {
                    return;
                };
                self.sent += 1;
                // A distinct corr per report: the managers' duplicate
                // filter must never fold two storm rounds into one.
                let corr = self.corr_base + self.sent as u64;
                send_ctrl(
                    ctx,
                    self.hm,
                    self.port,
                    WireMsg::Violation(ViolationMsg {
                        pid: ctx.pid(),
                        proc_name: "StormReporter".into(),
                        policy: POLICY.into(),
                        corr,
                        readings: vec![
                            ("frame_rate".into(), g.fps),
                            ("jitter_rate".into(), g.jitter),
                            ("buffer_size".into(), g.buffer),
                        ],
                        bounds: Some(("frame_rate".into(), 23.0, 27.0)),
                        upstream: None,
                    }),
                );
                ctx.set_timer(Dur::from_millis(INTERVAL_MS), TAG_STORM);
            }
            ProcEvent::Readable(port) => while ctx.recv(port).is_some() {},
            _ => {}
        }
    }
}

/// The seeded storm schedules of world `w`: one per reporter.
fn schedules(
    seed: u64,
    w: u64,
    hosts: usize,
    reporters: usize,
    rounds: usize,
) -> (Vec<Vec<GenReport>>, Mix) {
    let mut gen = Gen::new(seed ^ w.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let s = (0..hosts * reporters)
        .map(|_| (0..rounds).map(|_| gen.next_report()).collect())
        .collect();
    (s, gen.mix())
}

struct Storm {
    world: World,
    hms: Vec<Pid>,
}

fn build(
    seed: u64,
    hosts: usize,
    reporters: usize,
    sched: Vec<Vec<GenReport>>,
    naive: bool,
    profile: bool,
) -> Storm {
    let mut world = World::new(seed);
    let mut sched = sched.into_iter();
    let mut hms = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let host = world.add_host(format!("host-{h}"), 1 << 16);
        let mut hm = QosHostManager::new(None);
        hm.load_rules(overload_rules());
        hm.use_naive_matcher(naive);
        hm.set_engine_trace_capacity(1 << 20);
        hm.enable_engine_phase_profile(profile);
        hms.push(
            world.spawn(
                host,
                ProcConfig::new("QoSHostManager")
                    .class(SchedClass::RealTime {
                        rtpri: 50,
                        budget: None,
                    })
                    .port(HOST_MANAGER_PORT, 1 << 20),
                hm,
            ),
        );
        for p in 0..reporters {
            let port = REPORTER_PORT_BASE + p as Port;
            world.spawn(
                host,
                ProcConfig::new("StormReporter").port(port, 1 << 14),
                StormReporter {
                    hm: Endpoint::new(host, HOST_MANAGER_PORT),
                    schedule: sched.next().unwrap_or_default(),
                    sent: 0,
                    corr_base: ((h * reporters + p) as u64) << 20,
                    port,
                },
            );
        }
    }
    Storm { world, hms }
}

/// What one stormed world produced.
#[derive(Debug, Default)]
struct WorldOut {
    violations: u64,
    diagnosed: u64,
    join_work: u64,
    match_ns: u64,
    agenda_ns: u64,
    fire_ns: u64,
    events: u64,
    wall_s: f64,
    traces: Vec<Vec<String>>,
}

/// Storm `s` for `rounds` rounds. The firing traces are counted, and
/// kept only when `keep_traces` is set (the oracle compares them).
fn storm(s: &mut Storm, rounds: usize, keep_traces: bool) -> WorldOut {
    let t0 = Instant::now();
    s.world
        .run_for(Dur::from_millis(INTERVAL_MS * (rounds as u64 + 3)));
    let mut out = WorldOut {
        wall_s: secs_since(t0),
        events: s.world.events_processed(),
        ..WorldOut::default()
    };
    for &pid in &s.hms {
        let hm: &mut QosHostManager = s.world.logic_mut(pid).expect("host manager logic");
        out.violations += hm.stats.violations;
        out.join_work += hm.engine_join_work();
        let prof = hm.take_engine_phase_profile();
        out.match_ns += prof.match_ns;
        out.agenda_ns += prof.agenda_ns;
        out.fire_ns += prof.fire_ns;
        let trace = hm.take_engine_trace();
        out.diagnosed += trace
            .iter()
            .filter(|r| DIAGNOSIS_RULES.contains(&r.as_str()))
            .count() as u64;
        if keep_traces {
            out.traces.push(trace);
        }
    }
    out
}

/// Worlds the seed builds and storms per second. A phase budgeted `t`
/// seconds storms a fixed `t ×` this many worlds (at least 3), so every
/// run does the same work; a slower program takes longer.
pub const WORLDS_NOMINAL_RATE: f64 = 4.0;

fn worlds_for(secs: f64) -> u64 {
    ((secs * WORLDS_NOMINAL_RATE).round() as u64).max(3)
}

/// Build and storm worlds `first..first + count`; returns per-world
/// outcomes and build times.
fn storm_worlds(
    seed: u64,
    first: u64,
    count: u64,
    profile: bool,
    mix: &mut Mix,
) -> (Vec<WorldOut>, Vec<f64>) {
    let (mut outs, mut builds) = (Vec::new(), Vec::new());
    for w in first..first + count {
        let (sched, m) = schedules(seed, w, HOSTS, REPORTERS, ROUNDS);
        mix.merge(m);
        let t0 = Instant::now();
        let mut s = build(
            seed.wrapping_add(w),
            HOSTS,
            REPORTERS,
            sched,
            false,
            profile,
        );
        builds.push(secs_since(t0));
        outs.push(storm(&mut s, ROUNDS, false));
    }
    (outs, builds)
}

/// Violations per wall-clock second over `worlds`.
fn overall_rate(worlds: &[WorldOut]) -> f64 {
    let v: u64 = worlds.iter().map(|w| w.violations).sum();
    v as f64 / worlds.iter().map(|w| w.wall_s).sum::<f64>()
}

/// Run `sim-storm`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.note("param.hosts", HOSTS);
    out.note("param.reporters_per_host", REPORTERS);
    out.note("param.rounds", ROUNDS);

    // Differential oracle on a small configuration: the incremental
    // matcher must fire exactly the naive matcher's sequence.
    let (sched, _) = schedules(seed, u64::MAX, 2, 8, 4);
    let naive = storm(&mut build(seed, 2, 8, sched.clone(), true, false), 4, true);
    let rete = storm(&mut build(seed, 2, 8, sched, false, false), 4, true);
    out.check(
        "sim: 2x8x4 firing trace equals the naive-matcher oracle's",
        naive.traces == rete.traces && naive.violations == 64,
    );

    let (untraced_s, traced_s) = if trace {
        (0.40 * seconds, 0.40 * seconds)
    } else {
        (0.80 * seconds, 0.0)
    };
    let mut mix = Mix::default();
    let n = worlds_for(untraced_s);
    let (worlds, builds) = storm_worlds(seed, 0, n, false, &mut mix);
    let traced = trace.then(|| storm_worlds(seed, n, worlds_for(traced_s), true, &mut mix));

    let per_world = (HOSTS * REPORTERS * ROUNDS) as u64;
    let all: Vec<&WorldOut> = worlds
        .iter()
        .chain(traced.iter().flat_map(|(w, _)| w.iter()))
        .collect();
    let generated = per_world * all.len() as u64;
    let violations: u64 = all.iter().map(|w| w.violations).sum();
    let diagnosed: u64 = all.iter().map(|w| w.diagnosed).sum();
    out.check(
        "sim: violations = hosts x reporters x rounds in every world",
        all.iter().all(|w| w.violations == per_world),
    );
    out.check(
        "sim: every violation diagnosed by exactly one rule",
        diagnosed == violations,
    );
    out.note("mix", mix.shares());
    out.note("worlds", all.len());
    out.attempted = generated;
    out.failed = generated.saturating_sub(diagnosed);

    let rates: Vec<f64> = worlds
        .iter()
        .map(|w| w.violations as f64 / w.wall_s)
        .collect();
    let ingest = overall_rate(&worlds);
    out.e2e("setup_s", median(&builds), "s");
    out.e2e("ingest_msgs_s", ingest, "1/s");
    out.e2e("sim_violations_s", ingest, "1/s");
    out.e2e(
        "failed_frac",
        out.failed as f64 / generated.max(1) as f64,
        "frac",
    );
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.note(
        "sim_violations_s.min_max",
        format!(
            "{:.0} / {:.0}",
            quantile(&rates, 0.0),
            quantile(&rates, 1.0)
        ),
    );
    out.note("setup_s.builds", builds.len());

    let Some((tworlds, _)) = traced else {
        return out;
    };
    for name in ["ingest_msgs_s", "sim_violations_s"] {
        out.e2e_traced(name, overall_rate(&tworlds), "1/s");
    }

    // Host managers' engine phases and the kernel's share, per violation.
    // The engine layer runs inside the host managers here, so its phase
    // metrics are the host managers' ones.
    let v: u64 = tworlds.iter().map(|w| w.violations).sum::<u64>().max(1);
    let sum = |f: fn(&WorldOut) -> u64| tworlds.iter().map(f).sum::<u64>() as f64 / v as f64;
    let (m, a, f) = (
        sum(|w| w.match_ns),
        sum(|w| w.agenda_ns),
        sum(|w| w.fire_ns),
    );
    let join = sum(|w| w.join_work);
    let wall_ns = tworlds.iter().map(|w| w.wall_s).sum::<f64>() * 1e9 / v as f64;
    let kernel_ns = wall_ns - (m + a + f);
    for (layer, value, unit) in [
        ("match_ns", m, "ns"),
        ("agenda_ns", a, "ns"),
        ("fire_ns", f, "ns"),
        ("join_work_per_violation", join, "count"),
    ] {
        out.layer(&format!("hm.{layer}"), value, unit);
        out.layer(&format!("engine.{layer}"), value, unit);
    }
    out.layer("sim.events_per_violation", sum(|w| w.events), "count");
    out.layer("sim.kernel_ns", kernel_ns, "ns");
    // On this workload the ledger's unattributed time is the sim kernel
    // and host-manager logic outside the engine phases, per violation.
    out.layer("ledger.unattributed_ns", kernel_ns, "ns");
    out.note(
        "engine.assert_ns, engine.run_ns",
        "n/a (the host manager's assert and run are not separable from outside)",
    );
    out.note(
        "ledger",
        format!(
            "match {m:.0} + agenda {a:.0} + fire {f:.0} ns; + unattributed (sim kernel and \
             host-manager logic) {kernel_ns:.0} ns = per-violation wall {wall_ns:.0} ns"
        ),
    );
    out
}
