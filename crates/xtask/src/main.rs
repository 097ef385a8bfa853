//! CLI entry point:
//! `cargo run -p fedsu-xtask -- bench-check --current FILE [--baseline FILE]
//! [--tolerance PCT] [--fix]`.
//!
//! Exit codes: `0` no regression, `1` gate failure (a regression or a
//! diverging run), `2` usage or I/O error.

use fedsu_xtask::benchcheck;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-check") => bench_check_command(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo run -p fedsu-xtask -- bench-check --current FILE\n\
         \x20                                       [--baseline FILE] [--tolerance PCT] [--fix]"
    );
    eprintln!("Perf ratchet for the kernel bench: compares within-run GFLOP/s ratios");
    eprintln!("(vs serial_reference) against {BENCH_BASELINE_FILE}; >PCT% drop fails.");
    eprintln!("--fix replaces the checked-in baseline with the current run.");
}

/// Checked-in kernel-bench baseline, relative to the workspace root.
const BENCH_BASELINE_FILE: &str = "BENCH_kernels.json";

fn bench_check_command(raw_args: &[String]) -> ExitCode {
    let mut current_path: Option<PathBuf> = None;
    let mut baseline_override: Option<PathBuf> = None;
    let mut tolerance = benchcheck::DEFAULT_TOLERANCE;
    let mut fix = false;
    let mut it = raw_args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--current" => match it.next() {
                Some(p) => current_path = Some(PathBuf::from(p)),
                None => return usage_error("--current requires a file argument"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_override = Some(PathBuf::from(p)),
                None => return usage_error("--baseline requires a file argument"),
            },
            "--tolerance" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(pct)) if (0.0..100.0).contains(&pct) => tolerance = pct / 100.0,
                _ => return usage_error("--tolerance requires a percentage in [0, 100)"),
            },
            "--fix" => fix = true,
            other => return usage_error(&format!("unknown bench-check argument `{other}`")),
        }
    }
    let Some(current_path) = current_path else {
        return usage_error(
            "bench-check needs --current FILE (run the kernels bench with \
             FEDSU_BENCH_OUT=FILE first)",
        );
    };

    // `cargo run -p` sets the cwd to the invocation dir; fall back to the
    // manifest dir baked in at compile time so the binary also works when
    // invoked from outside the workspace.
    let start = std::env::current_dir()
        .ok()
        .or_else(|| option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from));
    let Some(root) = start.as_deref().and_then(find_root) else {
        eprintln!("error: no workspace root (Cargo.toml with [workspace]) above cwd");
        return ExitCode::from(2);
    };
    let baseline_path = baseline_override.unwrap_or_else(|| root.join(BENCH_BASELINE_FILE));

    let (current_text, current) = match load(&current_path, "current run") {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };

    if fix {
        // Refuse to enshrine a diverging run even when asked to fix.
        if !current.all_bit_identical {
            eprintln!("error: refusing --fix: current run is not bit-identical");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&baseline_path, &current_text) {
            eprintln!("error: {}: cannot write baseline: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "fedsu-xtask bench-check: baseline regenerated from {} at {}",
            current_path.display(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match load(&baseline_path, "baseline") {
        Ok((_, report)) => report,
        Err(code) => return code,
    };

    match benchcheck::check(&baseline, &current, tolerance) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!(
                "fedsu-xtask bench-check: {} configuration(s) compared (current simd \
                 level: {}), {} skipped (simd level differs from baseline), \
                 {} regression(s), tolerance {:.0}%",
                outcome.compared,
                current.simd_level,
                outcome.skipped_simd_mismatch,
                outcome.regressions.len(),
                tolerance * 100.0
            );
            for r in &outcome.regressions {
                eprintln!("error[bench-regression]: {r}");
            }
            if outcome.regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads and distills a bench JSON file; `what` names it in the error.
fn load(path: &Path, what: &str) -> Result<(String, benchcheck::BenchReport), ExitCode> {
    let failed = |msg: String| {
        eprintln!("error: {}: {msg}", path.display());
        ExitCode::from(2)
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {what}: {e}")))?;
    let report =
        benchcheck::parse_json(&text).and_then(|d| benchcheck::distill(&d)).map_err(failed)?;
    Ok((text, report))
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    print_usage();
    ExitCode::from(2)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
