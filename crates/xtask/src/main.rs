//! CLI entry point:
//! `cargo run -p fedsu-xtask -- lint [--format text|sarif] [--explain RULE]
//! [PATH...]`.
//!
//! Exit codes: `0` clean (no findings), `1` gate failure (any finding),
//! `2` usage or I/O error.

use fedsu_xtask::rules::{Diagnostic, RULE_IDS};
use fedsu_xtask::workspace::{self, SourceFile};
use fedsu_xtask::{benchcheck, explain, lint_files, sarif};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
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
        "usage: cargo run -p fedsu-xtask -- lint [--format text|sarif] [--explain RULE] [PATH...]"
    );
    eprintln!();
    eprintln!("Lints workspace .rs sources for determinism/safety hazards; any finding fails.");
    eprintln!("With no PATH arguments, walks the whole workspace.");
    eprintln!("--format sarif emits SARIF 2.1.0 on stdout for CI annotation.");
    eprintln!("--explain RULE prints a rule's rationale, example, and waiver policy.");
    eprintln!();
    eprintln!(
        "       cargo run -p fedsu-xtask -- bench-check --current FILE\n\
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

    let start = std::env::current_dir()
        .ok()
        .or_else(|| option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from));
    let Some(root) = start.as_deref().and_then(workspace::find_root) else {
        eprintln!("error: no workspace root (Cargo.toml with [workspace]) above cwd");
        return ExitCode::from(2);
    };
    let baseline_path = baseline_override.unwrap_or_else(|| root.join(BENCH_BASELINE_FILE));

    let current_text = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: cannot read current run: {e}", current_path.display());
            return ExitCode::from(2);
        }
    };
    let current = match benchcheck::parse_json(&current_text).and_then(|d| benchcheck::distill(&d))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", current_path.display());
            return ExitCode::from(2);
        }
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

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: cannot read baseline: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let baseline =
        match benchcheck::parse_json(&baseline_text).and_then(|d| benchcheck::distill(&d)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
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

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    print_usage();
    ExitCode::from(2)
}

/// Parsed `lint` flags.
struct LintArgs {
    format: OutputFormat,
    explain: Option<String>,
    paths: Vec<PathBuf>,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum OutputFormat {
    Text,
    Sarif,
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut out = LintArgs { format: OutputFormat::Text, explain: None, paths: Vec::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => out.format = OutputFormat::Text,
                Some("sarif") => out.format = OutputFormat::Sarif,
                Some(other) => return Err(format!("unknown format `{other}` (text|sarif)")),
                None => return Err("--format requires text|sarif".to_string()),
            },
            "--explain" => {
                let r = it.next().ok_or("--explain requires a rule name")?;
                out.explain = Some(r.clone());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            p => out.paths.push(PathBuf::from(p)),
        }
    }
    Ok(out)
}

fn lint_command(raw_args: &[String]) -> ExitCode {
    let args = match parse_lint_args(raw_args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &args.explain {
        return match explain::explain(rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown rule `{rule}`; known rules: {}", RULE_IDS.join(", "));
                ExitCode::from(2)
            }
        };
    }

    // `cargo run -p` sets the cwd to the invocation dir; fall back to the
    // manifest dir baked in at compile time so the binary also works when
    // invoked from outside the workspace.
    let start = std::env::current_dir()
        .ok()
        .or_else(|| option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from));
    let Some(root) = start.as_deref().and_then(workspace::find_root) else {
        eprintln!("error: no workspace root (Cargo.toml with [workspace]) above cwd");
        return ExitCode::from(2);
    };

    let files = if args.paths.is_empty() {
        match workspace::collect_sources(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: walking workspace sources: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match explicit_files(&root, &args.paths) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let report = match lint_files(&files) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.format == OutputFormat::Sarif {
        println!("{}", sarif::render(&report));
    } else {
        report.violations.iter().for_each(print_violation);
        println!(
            "fedsu-xtask lint: {} file(s), {} violation(s)",
            report.files_scanned,
            report.violations.len()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_violation(d: &Diagnostic) {
    println!("{}:{}: error[{}]: {}", d.path, d.line, d.rule, d.message);
    println!("    | {}", d.snippet);
}

/// Resolves explicitly-passed paths (files or directories) into lintable
/// sources, classified by their workspace-relative location.
fn explicit_files(root: &Path, paths: &[PathBuf]) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() { p.clone() } else { root.join(p) };
        if abs.is_dir() {
            collect_dir(&abs, root, &mut out)?;
        } else if abs.is_file() {
            out.push(to_source(root, &abs));
        } else {
            return Err(format!("{}: no such file or directory", p.display()));
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Recursive `.rs` collection for an explicit directory argument.
fn collect_dir(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: cannot read: {e}", dir.display()))?.path();
        if path.is_dir() {
            collect_dir(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(to_source(root, &path));
        }
    }
    Ok(())
}

/// Builds a [`SourceFile`] for an explicit path, classifying it by its
/// location relative to the workspace root (paths outside the root are
/// treated as library code — the strictest interpretation).
fn to_source(root: &Path, abs: &Path) -> SourceFile {
    let rel = abs
        .strip_prefix(root)
        .unwrap_or(abs)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let kind = if rel.split('/').any(|seg| seg == "tests" || seg == "benches") {
        workspace::SourceKind::TestOrBench
    } else {
        workspace::SourceKind::Library
    };
    SourceFile { abs: abs.to_path_buf(), rel, kind }
}
