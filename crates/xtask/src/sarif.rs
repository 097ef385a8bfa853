//! SARIF 2.1.0 output for `lint --format sarif`.
//!
//! Hand-rolled JSON (the gate stays std-only); the shape follows the SARIF
//! 2.1.0 schema closely enough for GitHub code-scanning ingestion and the CI
//! artifact step: one `run` with `tool.driver.rules` describing every rule
//! id, and one `result` per finding with a `physicalLocation`.

use crate::rules::{Diagnostic, RULE_IDS};
use crate::LintReport;

/// One-line description per rule id, for `tool.driver.rules`.
fn rule_summary(id: &str) -> &'static str {
    match id {
        "unchecked-arith" => "bare +/* on wire-byte or sim-time accounting values can wrap",
        "lock-order" => {
            "lock guard held across a channel op, pool dispatch, or catch_unwind; or cyclic lock order"
        }
        "channel-discipline" => {
            "blocking recv on a pool-worker path, send after close, or unbounded send loop"
        }
        _ => "fedsu-xtask lint rule",
    }
}

/// Escapes a string for a JSON double-quoted value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one SARIF `result` object.
fn result_json(d: &Diagnostic) -> String {
    format!(
        "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\",\
         \"uriBaseId\":\"SRCROOT\"}},\"region\":{{\"startLine\":{},\"snippet\":{{\"text\":\"{}\"}}}}}}}}]}}",
        json_escape(d.rule),
        json_escape(&d.message),
        json_escape(&d.path),
        d.line,
        json_escape(&d.snippet)
    )
}

/// Renders a full SARIF 2.1.0 log for a lint report, one result per
/// finding.
pub fn render(report: &LintReport) -> String {
    let rules: Vec<String> = RULE_IDS
        .iter()
        .map(|id| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
                 \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
                json_escape(id),
                json_escape(rule_summary(id))
            )
        })
        .collect();
    let results: Vec<String> = report.violations.iter().map(result_json).collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"fedsu-xtask\",\"informationUri\":\
         \"https://example.invalid/fedsu/crates/xtask\",\"version\":\"0.1.0\",\
         \"rules\":[{}]}}}},\"columnKind\":\"utf16CodeUnits\",\
         \"originalUriBaseIds\":{{\"SRCROOT\":{{\"uri\":\"file:///\"}}}},\
         \"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintReport;

    fn diag(rule: &'static str, path: &str, line: usize, snippet: &str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message: format!("message with \"quotes\" and a\ttab for {rule}"),
            snippet: snippet.to_string(),
        }
    }

    fn report(violations: Vec<Diagnostic>) -> LintReport {
        LintReport { violations, files_scanned: 1 }
    }

    /// Minimal structural JSON validator: balanced delimiters outside
    /// strings, every string closed, no raw control chars. Catches the
    /// escaping bugs hand-rolled emitters actually have.
    fn assert_valid_json(s: &str) {
        let mut stack = Vec::new();
        let mut chars = s.chars().peekable();
        let mut in_str = false;
        while let Some(c) = chars.next() {
            if in_str {
                match c {
                    '\\' => {
                        let _ = chars.next();
                    }
                    '"' => in_str = false,
                    c if (c as u32) < 0x20 => panic!("raw control char inside JSON string"),
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => stack.push(c),
                '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced }}"),
                ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ]"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(stack.is_empty(), "unclosed delimiters: {stack:?}");
    }

    #[test]
    fn sarif_is_structurally_valid_json_with_escapes() {
        let r = report(vec![
            diag(
                "unchecked-arith",
                "crates/fl/src/a.rs",
                3,
                "log(\"why \\\" here\", total_bytes + b);",
            ),
            diag("lock-order", "crates/tensor/src/par.rs", 4, "tx.send(job)"),
        ]);
        let s = render(&r);
        assert_valid_json(&s);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"unchecked-arith\""));
        assert!(s.contains("\"startLine\":3"));
        assert!(s.contains("\"ruleId\":\"lock-order\""));
        assert!(!s.contains("suppressions"), "every finding is a failure, none is suppressed");
    }

    #[test]
    fn every_rule_id_is_described() {
        let s = render(&report(Vec::new()));
        for id in RULE_IDS {
            assert!(s.contains(&format!("\"id\":\"{id}\"")), "rule {id} missing from driver");
            assert_ne!(rule_summary(id), "fedsu-xtask lint rule", "rule {id} needs a summary");
        }
        assert_valid_json(&s);
    }

    #[test]
    fn empty_report_has_empty_results_array() {
        let s = render(&report(Vec::new()));
        assert!(s.contains("\"results\":[]"));
    }
}
