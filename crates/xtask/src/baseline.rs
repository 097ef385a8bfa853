//! The findings ratchet: `crates/xtask/lint-baseline.toml`.
//!
//! Pre-existing findings are recorded in a checked-in baseline. A lint run
//! then fails on (a) any finding *not* in the baseline — new debt is
//! rejected — and (b) any baseline entry that no longer matches a finding in
//! a scanned file — fixing a finding requires deleting its entry, so the
//! ratchet only turns one way and the file never silently over-waives.
//!
//! Matching is exact on `(rule, path, line, snippet)`: moving code
//! invalidates its entries on purpose (rerun `lint --fix-baseline`, review
//! the diff). Regeneration is deterministic — sorted by path, line, rule —
//! so the file never produces noisy diffs.
//!
//! Every rule family ratchets through this one file, and the direction is
//! a property of the one command that rewrites it: `lint --fix-baseline`
//! refuses to write a file in which any rule has more entries than the file
//! it replaces ([`grown_rules`]). New debt can enter only by a hand edit of
//! the TOML, which is a reviewed diff.

use crate::rules::Diagnostic;
use std::collections::BTreeSet;

/// Default location of the baseline, relative to the workspace root.
pub const BASELINE_FILE: &str = "crates/xtask/lint-baseline.toml";

/// One `[[finding]]` entry of the baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id (one of [`crate::rules::RULE_IDS`]).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Trimmed source line at the finding (exact-match anchor).
    pub snippet: String,
}

/// Parse failure with a 1-based line number into the baseline file.
#[derive(Debug, PartialEq, Eq)]
pub struct BaselineParseError {
    /// Line in `lint-baseline.toml` where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BaselineParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint-baseline.toml:{}: {}", self.line, self.message)
    }
}

/// Escapes a string for a double-quoted TOML value.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Unescapes a double-quoted TOML value body.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses the baseline text into entries.
///
/// # Errors
/// Returns a [`BaselineParseError`] for malformed lines, unknown keys, or
/// entries naming unknown rules.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, BaselineParseError> {
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut current: Option<BaselineEntry> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[finding]]" {
            if let Some(done) = current.take() {
                entries.push(validate(done, lineno)?);
            }
            current = Some(BaselineEntry::default());
            continue;
        }
        if line.starts_with('[') {
            return Err(BaselineParseError {
                line: lineno,
                message: format!("unexpected table `{line}`; only [[finding]] is supported"),
            });
        }
        let Some(eq) = line.find('=') else {
            return Err(BaselineParseError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        let Some(entry) = current.as_mut() else {
            return Err(BaselineParseError {
                line: lineno,
                message: "key outside any [[finding]] table".to_string(),
            });
        };
        if key == "line" {
            entry.line = value.parse().map_err(|_| BaselineParseError {
                line: lineno,
                message: format!("`line` must be a positive integer, got `{value}`"),
            })?;
            continue;
        }
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| BaselineParseError {
                line: lineno,
                message: format!("value for `{key}` must be a double-quoted string"),
            })?;
        let value = unescape(value);
        match key {
            "rule" => entry.rule = value,
            "path" => entry.path = value,
            "snippet" => entry.snippet = value,
            other => {
                return Err(BaselineParseError {
                    line: lineno,
                    message: format!("unknown key `{other}` (expected rule/path/line/snippet)"),
                });
            }
        }
    }
    let last_line = text.lines().count();
    if let Some(done) = current.take() {
        entries.push(validate(done, last_line)?);
    }
    Ok(entries)
}

/// Rejects entries missing required keys or naming unknown rules.
fn validate(entry: BaselineEntry, line: usize) -> Result<BaselineEntry, BaselineParseError> {
    if entry.rule.is_empty() || entry.path.is_empty() || entry.line == 0 {
        return Err(BaselineParseError {
            line,
            message: "every [[finding]] needs non-empty rule, path, and a 1-based line"
                .to_string(),
        });
    }
    if !crate::rules::RULE_IDS.contains(&entry.rule.as_str()) {
        return Err(BaselineParseError {
            line,
            message: format!(
                "unknown rule `{}` (known: {})",
                entry.rule,
                crate::rules::RULE_IDS.join(", ")
            ),
        });
    }
    Ok(entry)
}

/// Splits diagnostics against the baseline: `(new, baselined, stale)`.
///
/// `scanned` holds the workspace-relative paths of this run's files; entries
/// pointing at files *outside* the scanned set are left alone (a
/// single-file lint must not declare the rest of the baseline stale).
pub fn apply(
    diags: Vec<Diagnostic>,
    entries: &[BaselineEntry],
    scanned: &BTreeSet<String>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<BaselineEntry>) {
    let mut new = Vec::new();
    let mut baselined = Vec::new();
    let mut used = vec![false; entries.len()];
    for d in diags {
        let hit = entries.iter().position(|e| {
            e.rule == d.rule && e.path == d.path && e.line == d.line && e.snippet == d.snippet
        });
        match hit {
            Some(idx) => {
                used[idx] = true;
                baselined.push(d);
            }
            None => new.push(d),
        }
    }
    let stale: Vec<BaselineEntry> = entries
        .iter()
        .zip(used.iter())
        .filter(|(e, u)| !**u && scanned.contains(&e.path))
        .map(|(e, _)| e.clone())
        .collect();
    (new, baselined, stale)
}

/// The entries `diags` would render to: `(path, line, rule, snippet)`
/// sorted, duplicates collapsed.
fn entry_keys(diags: &[Diagnostic]) -> Vec<(&str, usize, &'static str, &str)> {
    let mut keys: Vec<_> =
        diags.iter().map(|d| (d.path.as_str(), d.line, d.rule, d.snippet.as_str())).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The ratchet's direction check: every rule that would have more entries
/// in a baseline rendered from `new` than it has in `old`, as `(rule, old
/// count, new count)` in [`crate::rules::RULE_IDS`] order. Entries may move
/// or be swapped freely within a rule; a rule absent from `old` counts 0.
pub fn grown_rules(
    old: &[BaselineEntry],
    new: &[Diagnostic],
) -> Vec<(&'static str, usize, usize)> {
    let keys = entry_keys(new);
    crate::rules::RULE_IDS
        .iter()
        .filter_map(|&rule| {
            let was = old.iter().filter(|e| e.rule == rule).count();
            let now = keys.iter().filter(|&&(_, _, r, _)| r == rule).count();
            (now > was).then_some((rule, was, now))
        })
        .collect()
}

/// Renders a deterministic baseline for `diags`: sorted by path, then line,
/// then rule, then snippet; duplicates collapsed.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str(
        "# fedsu-xtask lint baseline — pre-existing findings the ratchet tolerates,\n\
         # every rule family in one file. Regenerate with `cargo run -p fedsu-xtask --\n\
         # lint --fix-baseline` after fixing or moving a finding and commit the result;\n\
         # the command refuses to write a file in which any rule has more entries than\n\
         # before. New findings are NOT added here — fix them instead.\n",
    );
    for (path, line, rule, snippet) in entry_keys(diags) {
        out.push_str("\n[[finding]]\n");
        out.push_str(&format!("rule = \"{}\"\n", escape(rule)));
        out.push_str(&format!("path = \"{}\"\n", escape(path)));
        out.push_str(&format!("line = {line}\n"));
        out.push_str(&format!("snippet = \"{}\"\n", escape(snippet)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str, line: usize, snippet: &str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message: String::new(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn render_then_parse_round_trips() {
        let diags = vec![
            diag("panic-path", "crates/fl/src/a.rs", 3, "x.unwrap(); // \"quoted\" \\ slash"),
            diag("panic-path", "crates/core/src/b.rs", 9, "let v = tbl[i];"),
        ];
        let text = render(&diags);
        let entries = parse(&text).expect("rendered baseline must re-parse");
        assert_eq!(entries.len(), 2);
        // Sorted by path: core before fl.
        assert_eq!(entries[0].path, "crates/core/src/b.rs");
        assert_eq!(entries[1].snippet, "x.unwrap(); // \"quoted\" \\ slash");
        assert_eq!(entries[1].line, 3);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let a = vec![
            diag("panic-path", "b.rs", 2, "s2"),
            diag("panic-path", "a.rs", 7, "s1"),
        ];
        let b = vec![
            diag("panic-path", "a.rs", 7, "s1"),
            diag("panic-path", "b.rs", 2, "s2"),
        ];
        assert_eq!(render(&a), render(&b));
        let text = render(&a);
        assert!(text.find("a.rs").expect("a.rs present") < text.find("b.rs").expect("b.rs present"));
    }

    #[test]
    fn apply_classifies_new_baselined_stale() {
        let entries = parse(&render(&[
            diag("panic-path", "a.rs", 1, "old finding"),
            diag("panic-path", "gone.rs", 5, "fixed finding"),
            diag("panic-path", "unscanned.rs", 2, "other target"),
        ]))
        .expect("baseline parses");
        let scanned: BTreeSet<String> = ["a.rs".to_string(), "gone.rs".to_string()].into();
        let diags = vec![
            diag("panic-path", "a.rs", 1, "old finding"),
            diag("panic-path", "a.rs", 9, "brand new"),
        ];
        let (new, baselined, stale) = apply(diags, &entries, &scanned);
        assert_eq!(new.len(), 1, "unbaselined finding is new");
        assert_eq!(new[0].line, 9);
        assert_eq!(baselined.len(), 1);
        assert_eq!(stale.len(), 1, "fixed finding's entry is stale");
        assert_eq!(stale[0].path, "gone.rs");
    }

    #[test]
    fn line_shift_invalidates_entry() {
        let entries =
            parse(&render(&[diag("panic-path", "a.rs", 4, "x.unwrap();")])).expect("parses");
        let scanned: BTreeSet<String> = ["a.rs".to_string()].into();
        let diags = vec![diag("panic-path", "a.rs", 5, "x.unwrap();")];
        let (new, baselined, stale) = apply(diags, &entries, &scanned);
        assert_eq!(new.len(), 1, "moved finding counts as new");
        assert!(baselined.is_empty());
        assert_eq!(stale.len(), 1, "old position is stale — rerun --fix-baseline");
    }

    #[test]
    fn grown_rules_compares_per_rule_counts() {
        let old = parse(&render(&[
            diag("panic-path", "a.rs", 1, "t[i]"),
            diag("panic-path", "a.rs", 2, "t[j]"),
            diag("unchecked-arith", "a.rs", 3, "n_bytes += k;"),
        ]))
        .expect("parses");
        // Shrink: one panic-path site fixed, nothing grew.
        let shrunk = [
            diag("panic-path", "a.rs", 1, "t[i]"),
            diag("unchecked-arith", "a.rs", 3, "n_bytes += k;"),
        ];
        assert!(grown_rules(&old, &shrunk).is_empty());
        // Swap within a rule: sites moved or were traded, counts equal.
        let swapped = [
            diag("panic-path", "b.rs", 9, "u[k]"),
            diag("panic-path", "a.rs", 5, "t[i]"),
            diag("unchecked-arith", "c.rs", 1, "m_bytes += k;"),
        ];
        assert!(grown_rules(&old, &swapped).is_empty());
        // Grow: a third panic-path site, and a rule that had no entries. A
        // shrinking rule does not pay for a growing one, and a finding
        // reported twice is one entry.
        let grown = [
            diag("panic-path", "a.rs", 1, "t[i]"),
            diag("panic-path", "a.rs", 2, "t[j]"),
            diag("panic-path", "a.rs", 7, "t[k]"),
            diag("panic-path", "a.rs", 7, "t[k]"),
            diag("lock-order", "a.rs", 8, "tx.send(1)"),
        ];
        assert_eq!(grown_rules(&old, &grown), vec![("panic-path", 2, 3), ("lock-order", 0, 1)]);
        assert!(grown_rules(&old, &[]).is_empty());
    }

    #[test]
    fn unknown_rule_rejected() {
        let text = "[[finding]]\nrule = \"bogus\"\npath = \"a.rs\"\nline = 1\nsnippet = \"s\"\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn empty_baseline_parses() {
        assert!(parse("# no findings\n").expect("comment-only file parses").is_empty());
        assert!(parse("").expect("empty file parses").is_empty());
    }
}
