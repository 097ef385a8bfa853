//! `lint --explain <RULE>`: the long-form rationale behind each rule.
//!
//! The text answers the three questions a developer hitting a finding
//! actually has — *why is this a hazard in this workspace*, *what does a
//! finding look like*, and *what are my options when the code is right
//! anyway* (waiver policy: there is neither a waiver file nor a baseline —
//! the finding is fixed).

use crate::rules::RULE_IDS;

/// Full explanation for one rule id, or `None` for an unknown id.
pub fn explain(rule: &str) -> Option<String> {
    let (rationale, example) = match rule {
        "unchecked-arith" => (
            "Wire-byte conservation and sim-time monotonicity are paper-level \
             invariants. Bare +/* on accounting identifiers (bytes, *_bytes, \
             *_ms, sim_time*) can wrap silently in release builds; use \
             saturating_* (the armed wire-conservation invariant catches a \
             saturated total) or checked_* with the error propagated.",
            "total_bytes += chunk_len;   // flagged; total_bytes.saturating_add(chunk_len) passes",
        ),
        "lock-order" => (
            "Deadlock and poison hazards found by the guard-liveness dataflow \
             pass. A Mutex/RwLock guard held across an mpsc send/recv can park \
             the holder while workers starve; holding one across a call that \
             reaches the worker-pool dispatch path (run_chunks) can deadlock \
             dispatcher against workers; holding one across catch_unwind can \
             swallow a panic and leave the lock poisoned for every later \
             acquirer. Acquiring locks in different orders in different \
             functions (a cyclic edge in the cross-function acquisition graph) \
             is the classic ABBA deadlock. Fix by shrinking the critical \
             section: collect what you need under the lock, drop the guard, \
             then send/call.",
            "let g = state.lock(); inner.send_bytes(b)?;   // flagged: guard held across send",
        ),
        "channel-discipline" => (
            "mpsc usage patterns that wedge the pool or leak memory. A blocking \
             recv/recv_timeout in a function reachable from a pool-worker body \
             parks the worker on an empty channel and wedges dispatch (use a \
             Condvar-guarded queue or a bounded drain). A send after an explicit \
             drop of the same endpoint always errors at runtime. A send inside \
             an unbounded loop/while with no drain on the same path (no recv, no \
             call to a receiving function) grows the queue without bound.",
            "loop { tx.send(job); }   // flagged: unbounded send loop with no drain",
        ),
        _ => return None,
    };
    Some(format!(
        "rule: {rule}\n\nwhy\n  {}\n\nexample\n  {}\n\nwaiver policy\n  \
         There is no waiver file and no baseline: every finding fails the \
         lint, so restructure the code until the rule no longer fires.\n",
        wrap(rationale, 74),
        example
    ))
}

/// Every rule has explain text by construction; this keeps the two lists in
/// sync at test time.
pub fn all_explained() -> bool {
    RULE_IDS.iter().all(|id| explain(id).is_some_and(|t| !t.trim().is_empty()))
}

/// Greedy line wrap at `width`, indenting continuations to match the lead.
fn wrap(text: &str, width: usize) -> String {
    let mut out = String::new();
    let mut col = 0usize;
    for w in text.split_whitespace() {
        if col > 0 && col + 1 + w.len() > width {
            out.push_str("\n  ");
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(w);
        col += w.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_rule_has_explain_text() {
        assert!(all_explained());
        for id in RULE_IDS {
            let text = explain(id).expect("registered rule must have explain text");
            assert!(text.contains("waiver policy"), "{id}: missing waiver section");
            assert!(text.contains("example"), "{id}: missing example section");
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("no-such-rule").is_none());
        assert!(explain("").is_none());
    }

    #[test]
    fn wrap_keeps_words_whole() {
        let w = wrap("one two three four five six seven eight", 12);
        for line in w.lines() {
            assert!(line.trim().len() <= 13, "{line:?}");
        }
        assert_eq!(w.split_whitespace().count(), 8);
    }
}
