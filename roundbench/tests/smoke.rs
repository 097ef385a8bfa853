//! Functional check of the benchmark itself: every workload at toy size
//! through the same code path as a measuring run. Catches API drift in any
//! layer the benchmark wraps, a metric added to the program but not to
//! `BENCHMARK.json` (or the reverse), and outputs that stop repeating.

// Tests may unwrap: a panic here IS the failure report.
#![allow(clippy::unwrap_used)]

use fedsu_xtask::benchcheck::{parse_json, Json};
use std::collections::BTreeSet;
use std::process::Command;

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

/// Names listed under `key` in `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> BTreeSet<String> {
    let Json::Arr(list) = field(doc, key) else {
        panic!("{key} is not a list")
    };
    list.iter()
        .map(|m| match field(m, "name") {
            Json::Str(s) => s.clone(),
            other => panic!("name is not a string: {other:?}"),
        })
        .collect()
}

/// One toy run: returns the printed checksum and the result object.
fn smoke_run(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_roundbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let checksum = stdout
        .lines()
        .find(|l| l.starts_with("workload "))
        .and_then(|l| l.rsplit(' ').next())
        .unwrap()
        .to_string();
    let result = parse_json(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        field(&result, "correct"),
        &Json::Bool(true),
        "{workload} trace {trace}:\n{stdout}"
    );
    assert_eq!(field(&result, "failed"), &Json::Num(0.0));
    (checksum, result)
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    let Json::Obj(metrics) = field(result, "metrics") else {
        panic!("metrics is not an object")
    };
    for (name, m) in metrics {
        assert!(
            matches!(field(m, "value"), Json::Num(v) if v.is_finite()),
            "{name} has no finite value"
        );
        assert!(
            matches!(field(m, "unit"), Json::Str(_)),
            "{name} has no unit"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_runs_repeats_and_reports_the_declared_metrics() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for workload in declared(&doc, "workloads") {
        let (first, untraced) = smoke_run(&workload, "0");
        let (second, _) = smoke_run(&workload, "0");
        let (third, traced) = smoke_run(&workload, "1");
        assert_eq!(first, second, "{workload}: two runs of one seed disagree");
        assert_eq!(
            first, third,
            "{workload}: traced and untraced runs disagree"
        );
        assert_eq!(
            metric_names(&untraced),
            end_to_end,
            "{workload}: end-to-end names"
        );
        assert_eq!(
            metric_names(&traced),
            per_layer,
            "{workload}: per-layer names"
        );
    }
}
