//! The softqos management-plane benchmark.
//!
//! ```text
//! perfbench --workload <live-report|live-batch-tap|sim-storm> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <results.json>] [--spans <spans.csv>]
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics.
//! With `--trace 1` it measures them again without and with spans (so
//! the tracing overhead shows), replays a live workload's report stream
//! through each layer on one thread (`sim-storm` reads its host
//! managers' engine profiles instead), and prints every per-layer
//! metric plus the ledger row. Every layer is measured from outside: by
//! timing calls into its public functions and reading its public
//! counters.
//!
//! The run prints its metrics by name and unit, its output checks and
//! its diagnostics, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics`
//! holds the metrics listed in `BENCHMARK.json` (end-to-end ones with
//! `--trace 0`, per-layer ones with `--trace 1`). It exits non-zero
//! when any output check fails. Results and spans are written only to
//! the paths given with `--out` and `--spans`.

mod gen;
mod live;
mod replay;
mod sim;
mod trace;
mod util;

use std::io::Write;

use trace::SpanLog;
use util::{json_metrics, json_num, json_str, Metric, Outcome};

/// End-to-end metrics that every workload measures: the ones
/// `BENCHMARK.json` lists and the final JSON line carries.
const E2E_LISTED: [&str; 3] = ["setup_s", "ingest_msgs_s", "peak_rss_mb"];

/// Per-layer metrics that every workload's traced run measures: the
/// engine's phases and join work (the live workloads replay their
/// stream through the engine, `sim-storm` reads its host managers'
/// engines) and the ledger's unattributed time. Layers that run on some
/// workloads only are printed there, but not listed.
const LAYERS_LISTED: [&str; 5] = [
    "engine.match_ns",
    "engine.agenda_ns",
    "engine.fire_ns",
    "engine.join_work_per_violation",
    "ledger.unattributed_ns",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut spans) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(value()?),
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
        spans,
    })
}

fn print_table(title: &str, rows: &[Metric], traced: &[Metric]) {
    println!("{title}:");
    for m in rows {
        let beside = traced
            .iter()
            .find(|t| t.name == m.name)
            .map(|t| format!("   traced: {}", t.value))
            .unwrap_or_default();
        println!(
            "  {:<34} {:>16} {:<6}{beside}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
}

fn results_json(a: &Args, o: &Outcome) -> String {
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(what, ok)| format!("{{\"check\": {}, \"ok\": {ok}}}", json_str(what)))
        .collect();
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"end_to_end_traced\": {}, \
         \"per_layer\": {}, \"checks\": [{}], \"notes\": {{{}}}}}\n",
        json_str(&a.workload),
        a.seed,
        json_num(a.seconds),
        a.trace as u8,
        o.correct(),
        o.attempted,
        o.failed,
        json_metrics(o.e2e.iter()),
        json_metrics(o.e2e_traced.iter()),
        json_metrics(o.layers.iter()),
        checks.join(", "),
        notes.join(", ")
    )
}

fn write_spans(path: &str, logs: &[(String, SpanLog)]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "pass,name,start_ns,end_ns,parent,report")?;
    for (pass, log) in logs {
        log.write_csv(pass, &mut f)?;
    }
    f.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut spans = Vec::new();
    let mut out = match args.workload.as_str() {
        "live-report" => live::run(
            live::LIVE_REPORT,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
        "live-batch-tap" => live::run(
            live::LIVE_BATCH_TAP,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
        "sim-storm" => sim::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    // The final line carries exactly the metrics BENCHMARK.json lists.
    let (listed, pool): (&[&str], &[Metric]) = if args.trace {
        (&LAYERS_LISTED, &out.layers)
    } else {
        (&E2E_LISTED, &out.e2e)
    };
    let carried: Vec<Metric> = listed
        .iter()
        .filter_map(|name| pool.iter().find(|m| m.name == *name).cloned())
        .collect();
    let complete = carried.len() == listed.len() && carried.iter().all(|m| m.value.is_finite());
    out.check("every listed metric measured and finite", complete);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print_table("end-to-end", &out.e2e, &out.e2e_traced);
    if args.trace {
        print_table("per-layer", &out.layers, &[]);
    }
    println!("checks:");
    for (what, ok) in &out.checks {
        println!("  [{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!("diagnostics:");
    for (k, v) in &out.notes {
        println!("  {k} = {v}");
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, results_json(&args, &out)) {
            eprintln!("perfbench: writing {path}: {e}");
            out.check("results written", false);
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = write_spans(path, &spans) {
            eprintln!("perfbench: writing {path}: {e}");
            out.check("spans written", false);
        }
    }

    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(carried.iter())
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics the final line carries are the ones BENCHMARK.json
    /// lists, and no others.
    #[test]
    fn listed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().expect("quoted name").to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), E2E_LISTED);
        assert_eq!(section("per_layer"), LAYERS_LISTED);
        assert_eq!(
            section("workloads"),
            ["live-report", "live-batch-tap", "sim-storm"]
        );
    }
}
