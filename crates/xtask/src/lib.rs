//! Static-analysis pass for the FedSU reproduction workspace.
//!
//! `cargo run -p fedsu-xtask -- lint` lexes every workspace `.rs` source
//! ([`lexer`]), parses a lightweight item tree ([`ast`]), resolves `use`
//! aliases and local type hints ([`resolve`]), builds a name-based call
//! graph of pool-worker and pool-dispatch reachability ([`callgraph`]), and
//! runs the three token-level rules ([`rules`]): unchecked wire-byte/sim-time
//! arithmetic, and lock and channel discipline. What clippy or a test
//! already checks is left to them: panics in library code to the
//! `indexing_slicing` / `expect_used` / `panic` / `unreachable` denials in
//! every library crate, truncating casts to `clippy::cast_possible_truncation`
//! in the accounting crates, round-loop allocations to the exact per-round
//! pins of `tests/alloc_budget.rs`.
//!
//! Any finding fails the run: there is no baseline and no waiver file.
//! `--format sarif` ([`sarif`]) emits SARIF 2.1.0 for CI annotation.
//!
//! Deliberately std-only: the gate must build in seconds on an offline CI
//! runner.

pub mod ast;
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
use workspace::{SourceFile, SourceKind};

/// Result of a full lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Every finding (each fails the run).
    pub violations: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the gate should pass.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints `files`.
///
/// # Errors
/// Returns a message when a file cannot be read.
pub fn lint_files(files: &[SourceFile]) -> Result<LintReport, String> {
    // Phase 1: lex + parse every lintable file (the call graph needs the
    // whole workspace before any rule can run). Tests and benches are
    // exempt entirely (rules already skip `#[cfg(test)]` spans inside
    // library files — this extends the same policy to whole test targets).
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
    let mut violations = Vec::new();
    for (f, p) in &prepared {
        violations.extend(rules::check_all(&f.rel, p, &graph, &flow));
    }
    Ok(LintReport { violations, files_scanned: files.len() })
}

/// Lints one source text in isolation (fixture tests and single-file use).
/// The call graph and dataflow facts are built from this file alone, so
/// worker and dispatch reachability only exist when the file itself holds
/// a root, and cross-function lock cycles only form within the file.
pub fn lint_source(rel: &str, kind: SourceKind, text: &str) -> Vec<Diagnostic> {
    if kind == SourceKind::TestOrBench {
        return Vec::new();
    }
    let p = scan::prepare(text);
    let graph_input = vec![(rel.to_string(), &p.file)];
    let graph = CallGraph::build(&graph_input);
    let flow = WorkspaceFlow::build(&graph_input);
    rules::check_all(rel, &p, &graph, &flow)
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
}
