//! `roundbench compare BASE.jsonl NEW.jsonl`: one row per workload ×
//! end-to-end metric with both medians, their ratio, the bound from
//! `BENCHMARK.json` and a verdict. The inputs are run-set files written by
//! `--out` (one JSON line per run; repeat a run to add samples).

use crate::measure::median;
use crate::metrics::{Better, END_TO_END};
use fedsu_xtask::benchcheck::{parse_json, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(map) => map.get(key),
        _ => None,
    }
}

fn num(json: &Json) -> Option<f64> {
    match json {
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn text(json: &Json) -> Option<&str> {
    match json {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Samples of every end-to-end metric of one workload, plus the checksums
/// seen per seed.
#[derive(Debug, Default)]
struct Samples {
    values: BTreeMap<String, Vec<f64>>,
    checksums: BTreeMap<u64, BTreeSet<String>>,
    incorrect: usize,
}

/// Reads a run-set file: untraced lines only, grouped by workload.
fn read_run_set(path: &str) -> Result<BTreeMap<String, Samples>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sets: BTreeMap<String, Samples> = BTreeMap::new();
    for (i, line) in content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if get(&doc, "trace").and_then(num) != Some(0.0) {
            continue;
        }
        let workload = get(&doc, "workload")
            .and_then(text)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let set = sets.entry(workload.to_string()).or_default();
        if let (Some(seed), Some(sum)) = (
            get(&doc, "seed").and_then(num),
            get(&doc, "checksum").and_then(text),
        ) {
            set.checksums
                .entry(seed as u64)
                .or_default()
                .insert(sum.to_string());
        }
        let result = get(&doc, "result").ok_or(format!("{path}:{}: no result", i + 1))?;
        if get(result, "correct") != Some(&Json::Bool(true)) {
            set.incorrect += 1;
        }
        if let Some(Json::Obj(metrics)) = get(result, "metrics") {
            for (name, metric) in metrics {
                if let Some(v) = get(metric, "value").and_then(num) {
                    set.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(sets)
}

/// Distance between the quartiles as a share of the median (0 below four
/// samples, where quartiles are not defined).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The "exclusive" method of Python's statistics.quantiles(n=4).
    let at = |q: f64| {
        let pos = (q * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

/// Regression bounds by metric name, from `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse_json(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(list)) = get(&doc, "end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                get(m, "name").and_then(text)?.to_string(),
                get(m, "bound").and_then(num)?,
            ))
        })
        .collect())
}

/// Entry point of the subcommand.
pub fn main(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let (Some(base_path), Some(new_path)) = (argv.next(), argv.next()) else {
        eprintln!("usage: roundbench compare BASE.jsonl NEW.jsonl [--benchmark-json FILE]");
        return ExitCode::from(2);
    };
    let bounds_path = match (argv.next().as_deref(), argv.next()) {
        (Some("--benchmark-json"), Some(p)) => p,
        (None, _) => "BENCHMARK.json".to_string(),
        _ => {
            eprintln!("usage: roundbench compare BASE.jsonl NEW.jsonl [--benchmark-json FILE]");
            return ExitCode::from(2);
        }
    };
    let loaded = read_run_set(&base_path)
        .and_then(|b| Ok((b, read_run_set(&new_path)?, read_bounds(&bounds_path)?)));
    let (base, new, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<21} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound", "spread"
    );
    let mut worse = 0usize;
    for (workload, b) in &base {
        let Some(n) = new.get(workload) else {
            println!("{workload:<13} missing from {new_path}");
            worse += 1;
            continue;
        };
        for def in END_TO_END {
            let (Some(bv), Some(nv)) = (b.values.get(def.name), n.values.get(def.name)) else {
                continue;
            };
            let (bm, nm) = (median(bv), median(nv));
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let noise = spread(bv).max(spread(nv));
            // Positive = worse, as a share of the base median.
            let change = match def.better {
                Better::Lower => (nm - bm) / bm.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (bm - nm) / bm.abs().max(f64::MIN_POSITIVE),
            };
            let verdict = if noise > bound && change.abs() <= noise && change != 0.0 {
                "unresolved"
            } else if change > bound {
                worse += 1;
                "worse"
            } else if change < -noise.max(f64::EPSILON) {
                "better"
            } else {
                "within"
            };
            println!(
                "{workload:<13} {:<21} {bm:>14.4} {nm:>14.4} {:>8.4} {bound:>6.2} {noise:>8.4}  {verdict}",
                def.name,
                nm / bm.abs().max(f64::MIN_POSITIVE),
            );
        }
        // Outputs are exact. One seed with two checksums inside a run-set is
        // nondeterminism; a seed whose checksum differs between the sets is a
        // behaviour change, which a change may intend, so it is only noted.
        for (seed, sums) in b.checksums.iter().chain(&n.checksums) {
            if sums.len() > 1 {
                println!(
                    "{workload:<13} seed {seed} gave {} different checksums within one run-set",
                    sums.len()
                );
                worse += 1;
            }
        }
        for (seed, sums) in &b.checksums {
            if n.checksums.get(seed).is_some_and(|other| other != sums) {
                println!("{workload:<13} outputs at seed {seed} differ between the run-sets");
            }
        }
        if b.incorrect + n.incorrect > 0 {
            println!(
                "{workload:<13} {} run(s) failed verification",
                b.incorrect + n.incorrect
            );
            worse += 1;
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
