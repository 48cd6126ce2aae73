//! `planbench compare`: two result sets side by side, judged against the
//! bounds in `BENCHMARK.json`.
//!
//! A result set is a JSON-lines file of runs recorded with `--record`.
//! For every workload and end-to-end metric the report gives each side's
//! median and quartiles, the spread (quartile distance over median) of
//! each side, and the change of the median in the metric's worse
//! direction. A metric fails when that change exceeds its bound, and
//! passes unresolved when either side spread wider than the bound; a run
//! that reported `correct: false` fails its workload.

use std::collections::BTreeMap;
use std::process::ExitCode;

use uavdc_bench::json::{parse, Json};

use crate::stats::{median, quartiles};

/// `(name, unit, lower_is_better, bound)` of each end-to-end metric.
type Spec = Vec<(String, String, bool, f64)>;

fn read_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("{path}: metric without {k}"))
            };
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                field("unit")?.as_str().unwrap_or_default().to_string(),
                field("better")?.as_str() == Some("lower"),
                field("bound")?.as_f64().unwrap_or(0.0),
            ))
        })
        .collect()
}

/// Per workload: metric values across runs, and whether every run was
/// correct.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect: BTreeMap<String, usize>,
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if rec.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?
            .to_string();
        let result = rec.get("result");
        if result
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            != Some(true)
        {
            *side.incorrect.entry(workload.clone()).or_default() += 1;
        }
        let metrics = match result.and_then(|r| r.get("metrics")) {
            Some(Json::Obj(m)) => m,
            _ => return Err(format!("{path}:{}: no metrics", n + 1)),
        };
        let entry = side.values.entry(workload).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}]", median(values)),
        None => format!("{:.4}", median(values)),
    }
}

/// Quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// Runs the comparison; exit code 1 when any metric or run fails, 2 on
/// unreadable input.
pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec_path = p.clone(),
                None => {
                    eprintln!("planbench compare: --spec needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(a.clone());
        }
    }
    if files.len() != 2 {
        eprintln!("usage: planbench compare <base.jsonl> <new.jsonl> [--spec BENCHMARK.json]");
        return ExitCode::from(2);
    }
    let loaded = read_spec(&spec_path)
        .and_then(|spec| Ok((spec, read_side(&files[0])?, read_side(&files[1])?)));
    let (spec, base, new) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("planbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0;
    println!("| workload | metric | base median [q1, q3] | new median [q1, q3] | spread base / new | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    let workloads: Vec<&String> = base.values.keys().chain(new.values.keys()).collect();
    let mut seen = Vec::new();
    for w in workloads {
        if seen.contains(&w) {
            continue;
        }
        seen.push(w);
        for (name, unit, lower, bound) in &spec {
            let get = |side: &Side| {
                side.values
                    .get(w)
                    .and_then(|m| m.get(name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (get(&base), get(&new));
            if a.is_empty() || b.is_empty() {
                failures += 1;
                println!(
                    "| {w} | {name} ({unit}) | {} runs | {} runs | | | {bound} | FAIL (missing) |",
                    a.len(),
                    b.len()
                );
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let worse = if *lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let pass = worse <= *bound;
            failures += usize::from(!pass);
            let (sa, sb) = (spread(&a), spread(&b));
            let verdict = match (pass, sa.max(sb) > *bound) {
                (false, _) => "FAIL",
                // Runs spread wider than the bound cannot show "unchanged".
                (true, true) => "pass (unresolved: spread above bound)",
                (true, false) => "pass",
            };
            println!(
                "| {w} | {name} ({unit}) | {} | {} | {sa:.4} / {sb:.4} | {:+.2}% | {:.0}% | {verdict} |",
                summary(&a),
                summary(&b),
                worse * 100.0,
                bound * 100.0,
            );
        }
        for (label, side) in [("base", &base), ("new", &new)] {
            if let Some(&n) = side.incorrect.get(w) {
                failures += 1;
                println!(
                    "| {w} | correct | {label}: {n} runs reported correct=false | | | | | FAIL |"
                );
            }
        }
    }
    if failures > 0 {
        println!("\n{failures} failing rows");
        ExitCode::from(1)
    } else {
        println!("\nall rows pass");
        ExitCode::SUCCESS
    }
}
