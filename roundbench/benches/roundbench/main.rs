//! `roundbench`: the end-to-end round benchmark of the FedSU workspace.
//!
//! One invocation builds one workload from `--seed`, measures it for
//! `--seconds`, verifies its outputs and prints every metric by name with
//! its unit; the last line of standard output is the machine-readable
//! result. See `../../README.md` for the metric glossary, the workloads and
//! how to read the trace.

// This program's whole purpose is to measure real wall time; the
// disallowed-methods ban on Instant::now protects sim code, not this file.
#![allow(clippy::disallowed_methods)]

mod affinity;
mod compare;
mod experiment;
mod heap;
mod manager_sync;
mod measure;
mod metrics;
mod probe;
mod sizes;
mod trace;
mod wire_clean;

use measure::{json_num, json_str, median, peak_rss_mib, percentile, SetupTimer};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

/// The four workloads, in the order an all-workloads run visits them.
const WORKLOADS: [&str; 4] = ["train_cnn", "fleet_fedsgd", "manager_sync", "wire_clean"];

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run; `None` runs all four, each in its own process.
    pub workload: Option<String>,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of measuring after the fixed prefix.
    pub seconds: f64,
    /// Run the traced leg and report per-layer metrics.
    pub traced: bool,
    /// Toy sizes through the same code path.
    pub smoke: bool,
    /// Append the result as one JSON line to this file.
    pub out: Option<String>,
    /// Write the merged spans as JSON lines to this file.
    pub trace_out: Option<String>,
}

/// Metric values by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    workload: &'static str,
    /// Rounds attempted, over every leg of the run.
    pub attempted: u64,
    /// Rounds that errored or failed verification.
    pub failed: u64,
    /// Checksum over the fixed prefix's outputs.
    pub checksum: u64,
    /// Measured metrics by name.
    pub metrics: Metrics,
    /// Wall time of every timed round of the untraced leg, for `--out`.
    timed_ms: Vec<f64>,
    /// The probe samples before and after each of those rounds.
    probe_us: Vec<[f64; 2]>,
    /// Every set-up sample of the untraced leg, for `--out`.
    setup_s: Vec<f64>,
    /// The probe samples before and after each of those set-ups.
    setup_probe_us: Vec<[f64; 2]>,
    problems: Vec<String>,
}

impl Outcome {
    fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            checksum: 0,
            metrics: Metrics::default(),
            timed_ms: Vec::new(),
            probe_us: Vec::new(),
            setup_s: Vec::new(),
            setup_probe_us: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Records a failed verification; the run then counts every round as
    /// failed.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Fills in the end-to-end metrics from the untraced leg. The three
    /// timing metrics and `setup_s` are taken after the disturbance the
    /// probe showed around each round and each set-up has been taken out
    /// (see `probe.rs`).
    pub fn end_to_end(
        &mut self,
        timed_ms: &[f64],
        around_us: &[[f64; 2]],
        setup: &SetupTimer,
        kappa: &sizes::Kappa,
        wire_bytes_per_round: f64,
    ) {
        self.timed_ms = timed_ms.to_vec();
        self.probe_us = around_us.to_vec();
        self.setup_s = setup.samples_s().to_vec();
        self.setup_probe_us = setup.around_us().to_vec();
        let undisturbed_us = probe::undisturbed_us(
            around_us
                .iter()
                .chain(setup.around_us())
                .flat_map(|pair| pair.iter().copied()),
        );
        let round_ms = probe::corrected(timed_ms, around_us, undisturbed_us, kappa.round);
        let setup_s = probe::corrected(
            setup.samples_s(),
            setup.around_us(),
            undisturbed_us,
            kappa.setup,
        );
        let total_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
        let m = &mut self.metrics;
        m.set("round_ms_p50", median(&round_ms));
        m.set("round_ms_p90", percentile(&round_ms, 0.9));
        m.set("rounds_per_s", round_ms.len() as f64 / total_s.max(1e-9));
        m.set("setup_s", median(&setup_s));
        m.set("peak_rss_mb", peak_rss_mib());
        m.set("wire_bytes_per_round", wire_bytes_per_round);
        println!(
            "rounds {} count (samples behind every percentile)",
            round_ms.len()
        );
        println!(
            "probe {} us undisturbed, {} us median (raw: round_ms_p50 {} ms, setup_s {} s)",
            json_num(undisturbed_us),
            json_num(median(
                &around_us.iter().map(|pair| pair[1]).collect::<Vec<_>>()
            )),
            json_num(median(timed_ms)),
            json_num(setup.median_s()),
        );
    }
}

impl Outcome {
    /// Closes a traced run: how much tracing cost (traced over untraced
    /// median round, each leg a pair of round times and the probe samples
    /// around them, both corrected for disturbance as the end-to-end metrics
    /// are), how much was recorded, and the spans to `--trace-out`.
    pub fn trace_summary(
        &mut self,
        spans: &[trace::Span],
        traced: (&[f64], &[[f64; 2]]),
        plain: (&[f64], &[[f64; 2]]),
        kappa: &sizes::Kappa,
        args: &RunArgs,
    ) {
        let undisturbed_us = probe::undisturbed_us(
            traced
                .1
                .iter()
                .chain(plain.1)
                .flat_map(|pair| pair.iter().copied()),
        );
        let traced_ms = probe::corrected(traced.0, traced.1, undisturbed_us, kappa.round);
        let plain_ms = probe::corrected(plain.0, plain.1, undisturbed_us, kappa.round);
        let rounds = spans
            .iter()
            .map(|s| s.round as usize + 1)
            .max()
            .unwrap_or(1);
        let m = &mut self.metrics;
        m.set(
            "trace.overhead_pct",
            (median(&traced_ms) / median(&plain_ms).max(1e-9) - 1.0) * 100.0,
        );
        m.set("trace.rounds", traced_ms.len() as f64);
        m.set("trace.spans_per_round", spans.len() as f64 / rounds as f64);
        if let Some(path) = &args.trace_out {
            if let Err(e) = trace::write_jsonl(path, spans) {
                self.fail(format!("{path}: cannot write trace: {e}"));
            }
        }
    }
}

const USAGE: &str = "usage:
  roundbench --seed N [--workload NAME] [--seconds S] [--trace 0|1 | --traced]
             [--smoke] [--out FILE] [--trace-out FILE]
  roundbench compare BASE.jsonl NEW.jsonl [--benchmark-json FILE]
workloads: train_cnn fleet_fedsgd manager_sync wire_clean";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: None,
        seed: 42,
        seconds: 25.0,
        traced: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value("0 or 1")? == "1",
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            "--trace-out" => args.trace_out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// The elements of a JSON array of numbers.
fn json_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| json_num(*v))
        .collect::<Vec<_>>()
        .join(",")
}

/// First line of a helper command's output, `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken, as a JSON object.
fn env_block(args: &RunArgs) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut fedsu_vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FEDSU_"))
        .collect();
    fedsu_vars.sort();
    let vars: Vec<String> = fedsu_vars
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"heap_kept\":{},\"simd_level\":{},\"kernel_threads\":{},\"fedsu_env\":{{{}}},\"rustc\":{},\"git_commit\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\"warmup_rounds\":{},\"sizes\":{}}}",
        heap::keep_freed_memory(),
        json_str(fedsu_tensor::simd_level().name()),
        fedsu_tensor::kernel_threads(),
        vars.join(","),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        args.seed,
        json_num(args.seconds),
        args.smoke,
        sizes::WARMUP_ROUNDS,
        json_str(&format!(
            "{:?} {:?} {:?} {:?} {:?}",
            sizes::TRAIN_CNN,
            sizes::FLEET_DIMS,
            sizes::FLEET_FEDSGD,
            sizes::MANAGER_SYNC,
            sizes::WIRE_CLEAN
        )),
    )
}

fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    use experiment::Model;
    let pick = |full, toy| if args.smoke { toy } else { full };
    match name {
        "train_cnn" => experiment::run(
            "train_cnn",
            Model::Cnn,
            pick(&sizes::TRAIN_CNN, &sizes::TRAIN_CNN_SMOKE),
            args,
        ),
        "fleet_fedsgd" => experiment::run(
            "fleet_fedsgd",
            Model::Mlp(if args.smoke {
                sizes::FLEET_DIMS_SMOKE
            } else {
                sizes::FLEET_DIMS
            }),
            pick(&sizes::FLEET_FEDSGD, &sizes::FLEET_FEDSGD_SMOKE),
            args,
        ),
        "manager_sync" => manager_sync::run(
            if args.smoke {
                &sizes::MANAGER_SYNC_SMOKE
            } else {
                &sizes::MANAGER_SYNC
            },
            args,
        ),
        _ => wire_clean::run(
            if args.smoke {
                &sizes::WIRE_CLEAN_SMOKE
            } else {
                &sizes::WIRE_CLEAN
            },
            args,
        ),
    }
}

/// Prints the outcome; the last line is the result object. Returns whether
/// the run verified.
fn report(mut outcome: Outcome, args: &RunArgs) -> bool {
    let catalogue: &[MetricDef] = if args.traced { PER_LAYER } else { END_TO_END };
    if args.traced {
        let level = fedsu_tensor::simd_level() as u8;
        outcome.metrics.set("tensor.simd_level", f64::from(level));
        outcome.metrics.set(
            "tensor.kernel_threads",
            fedsu_tensor::kernel_threads() as f64,
        );
    } else {
        for def in END_TO_END {
            if !outcome.metrics.0.contains_key(def.name) {
                outcome.fail(format!("end-to-end metric {} was not measured", def.name));
            }
        }
    }
    let correct = outcome.problems.is_empty();
    if !correct {
        outcome.failed = outcome.attempted.max(1);
    }
    let attempted = outcome.attempted.max(1);
    if args.traced {
        outcome.metrics.set(
            "fl.rounds_ok",
            (attempted - outcome.failed.min(attempted)) as f64,
        );
    }
    for p in &outcome.problems {
        println!("verification failed: {p}");
    }
    println!(
        "workload {} seed {} trace {} checksum {:016x}",
        outcome.workload,
        args.seed,
        u8::from(args.traced),
        outcome.checksum
    );
    let mut fields = Vec::with_capacity(catalogue.len());
    for def in catalogue {
        let value = outcome.metrics.0.get(def.name).copied().unwrap_or(0.0);
        println!("{} {} {}", def.name, json_num(value), def.unit);
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(def.name),
            json_num(value),
            json_str(def.unit)
        ));
    }
    let env = env_block(args);
    println!("env {env}");
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed,
        fields.join(",")
    );
    if let Some(path) = &args.out {
        let line = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"checksum\":\"{:016x}\",\"env\":{env},\"result\":{result},\"timed_ms\":[{}],\"probe_us\":[{}],\"setup_s\":[{}],\"setup_probe_us\":[{}]}}\n",
            json_str(outcome.workload),
            args.seed,
            u8::from(args.traced),
            outcome.checksum,
            json_list(&outcome.timed_ms),
            json_list(outcome.probe_us.as_flattened()),
            json_list(&outcome.setup_s),
            json_list(outcome.setup_probe_us.as_flattened())
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: {path}: cannot append result: {e}");
        }
    }
    println!("{result}");
    correct
}

/// Runs every workload in a process of its own, so each one's resident-set
/// high-water mark is its own.
fn run_all(args: &RunArgs) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot find this executable to start the workloads");
        return ExitCode::from(2);
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        if let Some(trace_out) = &args.trace_out {
            cmd.args(["--trace-out", &format!("{trace_out}.{name}")]);
        }
        all_ok &= cmd.status().is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        return compare::main(argv.skip(1));
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("error: roundbench measures release builds only (use --release, or --smoke for a functional check)");
        return ExitCode::from(2);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => {
            // Before the first large allocation and the first thread.
            heap::keep_freed_memory();
            let outcome = run_workload(name, &args);
            if report(outcome, &args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
