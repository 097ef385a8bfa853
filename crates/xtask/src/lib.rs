//! Static-analysis pass for the FedSU reproduction workspace.
//!
//! `cargo run -p fedsu-xtask -- lint` lexes every workspace `.rs` source
//! ([`lexer`]), parses a lightweight item tree ([`ast`]), resolves `use`
//! aliases and local type hints ([`resolve`]), builds a name-based call
//! graph ([`callgraph`]), and runs the four token-level rules ([`rules`]):
//! panics on hot experiment paths, unchecked wire-byte/sim-time arithmetic,
//! and lock and channel discipline. What clippy or a test already checks is
//! left to them: truncating casts to `clippy::cast_possible_truncation` in
//! the accounting crates, round-loop allocations to the exact per-round
//! pins of `tests/alloc_budget.rs`.
//!
//! Findings are gated by one ratchet that tolerates pre-existing findings
//! while rejecting new ones and stale entries: the baseline
//! (`lint-baseline.toml`, [`baseline`]). There is no waiver file: a finding
//! is fixed or it is ratcheted. `--format sarif` ([`sarif`]) emits SARIF
//! 2.1.0 for CI annotation.
//!
//! Deliberately std-only: the gate must build in seconds on an offline CI
//! runner.

pub mod ast;
pub mod baseline;
pub mod benchcheck;
pub mod callgraph;
pub mod dataflow;
pub mod explain;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod workspace;

use callgraph::CallGraph;
use dataflow::WorkspaceFlow;
use rules::Diagnostic;
use std::collections::BTreeSet;
use std::path::Path;
use workspace::{SourceFile, SourceKind};

/// Result of a full lint run.
#[derive(Debug)]
pub struct LintReport {
    /// New findings: not in the baseline (fail the run).
    pub violations: Vec<Diagnostic>,
    /// Findings matched by a `lint-baseline.toml` entry (tolerated).
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries in scanned files that matched nothing (fail the run:
    /// the ratchet must shrink when findings are fixed).
    pub stale_baseline: Vec<baseline::BaselineEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the gate should pass.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale_baseline.is_empty()
    }
}

/// Lints `files` applying ratchet entries from `baseline_text`.
///
/// # Errors
/// Returns a message when a file cannot be read or the baseline is
/// malformed.
pub fn lint_files(files: &[SourceFile], baseline_text: &str) -> Result<LintReport, String> {
    let baseline_entries = baseline::parse(baseline_text).map_err(|e| e.to_string())?;

    // Phase 1: lex + parse every lintable file (the call graph needs the
    // whole workspace before any rule can run).
    let mut prepared: Vec<(&SourceFile, scan::PreparedSource)> = Vec::new();
    for f in files {
        if f.kind == SourceKind::TestOrBench {
            continue;
        }
        let text = std::fs::read_to_string(&f.abs)
            .map_err(|e| format!("{}: cannot read: {e}", f.rel))?;
        prepared.push((f, scan::prepare(&text)));
    }
    let graph_input: Vec<(String, &ast::ParsedFile)> =
        prepared.iter().map(|(f, p)| (f.rel.clone(), &p.file)).collect();
    let graph = CallGraph::build(&graph_input);
    let flow = WorkspaceFlow::build(&graph_input);

    // Phase 2: run the rules per file against the shared graph and flow.
    let mut diags = Vec::new();
    for (f, p) in &prepared {
        diags.extend(check_prepared(&f.rel, f.kind, p, &graph, &flow));
    }

    let scanned: BTreeSet<String> = files.iter().map(|f| f.rel.clone()).collect();
    let (violations, baselined, stale_baseline) =
        baseline::apply(diags, &baseline_entries, &scanned);
    Ok(LintReport { violations, baselined, stale_baseline, files_scanned: files.len() })
}

/// Rule pass for one prepared file, with the target-kind policy applied:
/// library code gets the full set; examples skip `panic-path` (nothing
/// reaches a demo from the round loop); tests and benches are exempt
/// entirely (rules already skip `#[cfg(test)]` spans inside library files —
/// this extends the same policy to whole test targets).
fn check_prepared(
    rel: &str,
    kind: SourceKind,
    p: &scan::PreparedSource,
    graph: &CallGraph,
    flow: &WorkspaceFlow,
) -> Vec<Diagnostic> {
    let mut diags = rules::check_all(rel, p, graph, flow);
    if kind == SourceKind::Example {
        diags.retain(|d| d.rule != "panic-path");
    }
    diags
}

/// Lints one source text in isolation (fixture tests and single-file use).
/// The call graph and dataflow facts are built from this file alone, so
/// `panic-path` only fires when the file itself contains a hot-path root and
/// cross-function lock cycles only form within the file.
pub fn lint_source(rel: &str, kind: SourceKind, text: &str) -> Vec<Diagnostic> {
    if kind == SourceKind::TestOrBench {
        return Vec::new();
    }
    let p = scan::prepare(text);
    let graph_input = vec![(rel.to_string(), &p.file)];
    let graph = CallGraph::build(&graph_input);
    let flow = WorkspaceFlow::build(&graph_input);
    check_prepared(rel, kind, &p, &graph, &flow)
}

/// Reads the baseline file, treating a missing file as empty.
///
/// # Errors
/// Returns a message for I/O errors other than "not found".
pub fn read_gate_file(path: &Path) -> Result<String, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("{}: cannot read: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_targets_are_exempt() {
        let src = "fn helper() { total_bytes += chunk; }\n";
        assert!(lint_source("crates/nn/tests/x.rs", SourceKind::TestOrBench, src).is_empty());
        assert_eq!(lint_source("crates/nn/src/x.rs", SourceKind::Library, src).len(), 1);
    }

    #[test]
    fn examples_skip_only_the_panic_rules() {
        let src = "pub fn run() { let x = plan[0]; total_bytes += x; }\n";
        let rules_of = |diags: Vec<Diagnostic>| diags.iter().map(|d| d.rule).collect::<Vec<_>>();
        let root = "crates/fl/src/experiment.rs";
        let library = rules_of(lint_source(root, SourceKind::Library, src));
        assert_eq!(library, vec!["panic-path", "unchecked-arith"]);
        let example = rules_of(lint_source(root, SourceKind::Example, src));
        assert_eq!(example, vec!["unchecked-arith"]);
    }

    #[test]
    fn panic_path_activates_when_root_file_is_linted() {
        let src = "pub fn run() { let x = plan[0]; }\n";
        let diags = lint_source("crates/fl/src/experiment.rs", SourceKind::Library, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-path");
        // The same body in a non-root file has no hot path.
        assert!(lint_source("crates/fl/src/other.rs", SourceKind::Library, src).is_empty());
    }
}
