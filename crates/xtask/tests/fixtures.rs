//! End-to-end tests of the lint rules against the seeded fixture files in
//! `crates/xtask/fixtures/`: each rule fires exactly once on its fixture
//! (at the exact file:line the fixture documents) and the adversarial lexer
//! fixtures yield zero diagnostics.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_xtask::workspace::SourceKind;
use fedsu_xtask::{lint_source, rules::Diagnostic};
use std::path::PathBuf;

/// Reads a fixture's text from disk.
fn fixture_text(name: &str) -> String {
    let dir = option_env!("CARGO_MANIFEST_DIR").unwrap_or("crates/xtask");
    let path = PathBuf::from(dir).join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must be readable: {e}", path.display()))
}

/// Lints a fixture under an arbitrary workspace-relative path — the
/// `lock-order` and `channel-discipline` rules key off the path (dispatch
/// and worker roots), so their fixtures are linted as if they lived at the
/// path whose policy they exercise.
fn lint_fixture_as(name: &str, rel: &str) -> Vec<Diagnostic> {
    lint_source(rel, SourceKind::Library, &fixture_text(name))
}

/// Reads a fixture and lints it as library code (fixtures model `src/`
/// files; their location under `fixtures/` is irrelevant to most rules).
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_fixture_as(name, &format!("crates/xtask/fixtures/{name}"))
}

#[test]
fn raw_strings_hide_hazard_text_from_every_rule() {
    let diags = lint_fixture("lexer_raw_string.rs");
    assert!(diags.is_empty(), "hazards inside raw strings are data, not code: {diags:?}");
}

#[test]
fn nested_block_comments_hide_hazard_text_from_every_rule() {
    let diags = lint_fixture("lexer_nested_comment.rs");
    assert!(diags.is_empty(), "hazards inside nested comments are prose, not code: {diags:?}");
}

#[test]
fn doc_comments_hide_hazard_text_from_every_rule() {
    let diags = lint_fixture("lexer_doc_comment.rs");
    assert!(diags.is_empty(), "hazards inside doc comments are prose, not code: {diags:?}");
}

#[test]
fn cfg_test_spans_are_exempt_in_library_files() {
    let diags = lint_fixture("lexer_cfg_test.rs");
    assert!(diags.is_empty(), "test-gated code follows the test policy: {diags:?}");
}

#[test]
fn use_alias_is_resolved_to_the_hazardous_type() {
    // Linted as the pool file so `run_chunks` is the dispatch entry.
    let diags = lint_fixture_as("use_alias.rs", "crates/tensor/src/par.rs");
    assert_eq!(sorted_findings(&diags), vec![("lock-order", 14)], "{diags:?}");
    assert!(
        diags[0].message.contains("guard `guard` of lock `table`"),
        "the write guard exists only through the alias: {:?}",
        diags[0]
    );
    assert!(lint_fixture("use_alias.rs").is_empty(), "no dispatch entry, no finding");
}

#[test]
fn unchecked_arith_fires_exactly_once_on_the_bare_accumulation() {
    let diags = lint_fixture("unchecked_arith.rs");
    let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(
        got,
        vec![("unchecked-arith", 8)],
        "only the bare `+=` over `*_bytes` may fire: {diags:?}"
    );
    assert!(
        diags[0].snippet.contains("total_bytes += retry_bytes"),
        "should point at the accumulation: {:?}",
        diags[0]
    );
}

/// The fixture's diagnostics as `(rule, line)` pairs, sorted so tests
/// don't depend on rule-execution order.
fn sorted_findings(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    let mut got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    got.sort_unstable();
    got
}

#[test]
fn lock_order_cycle_fires_on_both_inner_acquisitions() {
    let diags = lint_fixture("lock_order_cycle.rs");
    assert_eq!(
        sorted_findings(&diags),
        vec![("lock-order", 9), ("lock-order", 15)],
        "the ABBA pair must fire once per inner acquisition, and the \
         consistent-order `audit` must stay silent: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.message.contains("cyclic lock order")),
        "both findings come from the cycle family: {diags:?}"
    );
}

#[test]
fn lock_order_fires_when_the_outer_guard_spans_a_send() {
    let diags = lint_fixture("lock_guard_across_channel.rs");
    assert_eq!(
        sorted_findings(&diags),
        vec![("lock-order", 13)],
        "only the send under the still-live OUTER guard may fire: {diags:?}"
    );
    assert!(
        diags[0].message.contains("guard `state` of lock `outer`"),
        "the finding must name the outer guard, not the dead inner one: {:?}",
        diags[0]
    );
}

#[test]
fn lock_order_fires_on_catch_unwind_under_a_guard() {
    let diags = lint_fixture("lock_catch_unwind.rs");
    assert_eq!(sorted_findings(&diags), vec![("lock-order", 8)], "{diags:?}");
    assert!(
        diags[0].message.contains("catch_unwind"),
        "the finding should explain the poison-leak hazard: {:?}",
        diags[0]
    );
}

#[test]
fn lock_order_is_silent_on_dropped_and_shadowed_guards() {
    let diags = lint_fixture("lock_order_negative.rs");
    assert!(
        diags.is_empty(),
        "drop() and shadowing end guard liveness before the sends: {diags:?}"
    );
}

#[test]
fn channel_discipline_fires_on_blocking_recv_reachable_from_a_worker() {
    // Linted as the real pool file so `worker_loop` seeds the worker set.
    let diags = lint_fixture_as("channel_worker_recv.rs", "crates/tensor/src/par.rs");
    assert_eq!(
        sorted_findings(&diags),
        vec![("channel-discipline", 15)],
        "only the recv one hop below `worker_loop` may fire; the identical \
         shape in `offline_poll` is not worker-reachable: {diags:?}"
    );
    assert!(
        diags[0].message.contains("fetch_job"),
        "the finding should name the worker-reachable function: {:?}",
        diags[0]
    );
}

#[test]
fn channel_discipline_fires_on_send_after_close() {
    let diags = lint_fixture("channel_send_after_close.rs");
    assert_eq!(
        sorted_findings(&diags),
        vec![("channel-discipline", 9)],
        "dropping a DIFFERENT endpoint (`handoff`) must not fire: {diags:?}"
    );
    assert!(
        diags[0].message.contains("drop(tx)"),
        "the finding should point at the closed endpoint: {:?}",
        diags[0]
    );
}

#[test]
fn channel_discipline_fires_on_an_unbounded_send_loop() {
    let diags = lint_fixture("channel_unbounded_loop.rs");
    assert_eq!(sorted_findings(&diags), vec![("channel-discipline", 9)], "{diags:?}");
    assert!(
        diags[0].message.contains("grow without bound"),
        "the finding should explain the growth hazard: {:?}",
        diags[0]
    );
}

#[test]
fn channel_discipline_is_silent_on_disciplined_shapes() {
    // Linted as the pool file: try_recv drains, a same-named #[cfg(test)]
    // double, a draining relay loop, and a bounded `for` broadcast are all
    // within discipline.
    let diags = lint_fixture_as("channel_negative.rs", "crates/tensor/src/par.rs");
    assert!(diags.is_empty(), "no disciplined shape may fire: {diags:?}");
}

#[test]
fn every_registered_rule_explains_itself() {
    for rule in fedsu_xtask::rules::RULE_IDS {
        let text = fedsu_xtask::explain::explain(rule)
            .unwrap_or_else(|| panic!("rule `{rule}` has no --explain text"));
        assert!(
            text.contains(rule),
            "`--explain {rule}` should restate the rule id:\n{text}"
        );
        for section in ["why", "example", "waiver policy"] {
            assert!(
                text.contains(section),
                "`--explain {rule}` is missing its `{section}` section:\n{text}"
            );
        }
    }
    assert!(
        fedsu_xtask::explain::explain("no-such-rule").is_none(),
        "unknown rules must be rejected, not given empty text"
    );
}

#[test]
fn removed_ratchet_flags_are_unknown_arguments() {
    // Every finding fails the lint: there is no baseline to point at or
    // regenerate, so the old ratchet flags are usage errors.
    for flag in ["--fix-baseline", "--baseline"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fedsu-xtask"))
            .args(["lint", flag])
            .output()
            .unwrap();
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {said}");
        assert!(said.contains(&format!("unknown flag `{flag}`")), "{flag}: {said}");
    }
}
