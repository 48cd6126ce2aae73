//! `planbench`: end-to-end and per-layer benchmark of the uavdc planners.
//!
//! ```text
//! planbench --workload <fine-grid|warm-service> --seed <n>
//!           --seconds <s> --trace <0|1> [--record <file.jsonl>]
//! planbench compare <base.jsonl> <new.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name with its unit, then, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--record` appends the result, tagged with workload, seed and
//! trace flag, to a JSON-lines file that `compare` reads. See README.md.

mod compare;
mod run;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: planbench --workload <fine-grid|warm-service> --seed <n> \
--seconds <s> --trace <0|1> [--record <file.jsonl>]\n       planbench compare <base.jsonl> <new.jsonl> [--spec BENCHMARK.json]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--record" => record = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

/// The result object, the run's last line of output.
fn result_json(rep: &run::Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.correct,
        rep.attempted,
        rep.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut rep) = run::run(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "planbench: unknown workload {:?}; workloads: {}",
            args.workload,
            run::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    for (name, v, _) in &mut rep.metrics {
        if !v.is_finite() {
            rep.notes
                .push(format!("FAILED: metric {name} is not finite"));
            rep.correct = false;
            *v = 0.0;
        }
    }
    for note in &rep.notes {
        println!("# {note}");
    }
    for (name, v, unit) in &rep.metrics {
        println!("{} {name} = {v} {unit}", args.workload);
    }
    let result = result_json(&rep);
    if let Some(path) = &args.record {
        let line = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("planbench: cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
