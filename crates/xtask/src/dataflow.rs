//! Intra-procedural dataflow over function bodies: lock-guard liveness and a
//! cross-function lock-acquisition graph.
//!
//! Everything here is token-level and deliberately approximate, in the same
//! spirit as the rest of the analyzer: over-approximate toward *flagging*
//! (a false positive fails the lint, so the code is restructured until it
//! reads as safe to the analyzer too) and keep the machinery simple enough
//! to audit by hand.
//!
//! Two engines live here, consumed by the `lock-order` and
//! `channel-discipline` rules in [`crate::rules`]:
//!
//! * [`fn_guards`] — which lock guards (`let g = x.lock()` and friends) are
//!   live over which token ranges, with `drop(g)` and shadowing re-`let`s
//!   ending a guard early;
//! * [`WorkspaceFlow`] — the cross-file pass: a lock-acquisition graph
//!   (edges "lock A held while acquiring lock B", including one-level
//!   acquisition through calls) with cycle detection, plus the function-name
//!   set used for one-level call inlining of channel drains.

use crate::ast::ParsedFile;
use crate::lexer::{Token, TokenKind};
use crate::resolve::{SymbolTable, TypeHint};
use crate::rules::{left_chain_idents, statement_span};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that put bytes/values onto a channel (blocking or not, they grow
/// the queue).
pub const SEND_METHODS: [&str; 3] = ["send", "send_bytes", "send_bytes_to"];

/// Methods that block on a channel until data (or timeout) arrives.
pub const RECV_METHODS: [&str; 3] = ["recv", "recv_timeout", "recv_bytes"];

/// A lock guard binding live over a token range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Guard {
    /// The bound variable name.
    pub name: String,
    /// Identity of the lock it guards (nearest receiver identifier of the
    /// acquisition call — name-based, like the call graph).
    pub lock: String,
    /// Token index after which the guard is live (end of its `let`
    /// statement's scanned span).
    pub start: usize,
    /// Last token index at which the guard is live (enclosing block close,
    /// or an earlier `drop(name)` / shadowing `let name`).
    pub end: usize,
    /// 1-based line of the binding, for diagnostics.
    pub line: usize,
}

/// Clamps a `(start, end)` body range to the token stream.
fn clamp(body: (usize, usize), len: usize) -> (usize, usize) {
    (body.0.min(len.saturating_sub(1)), body.1.min(len.saturating_sub(1)))
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn block_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Lock acquisition at token `i` (must be the `.` of `.lock()` /
/// `.read()` / `.write()` with an empty argument list): returns the lock's
/// name-based identity. `.read()`/`.write()` only count when the receiver
/// has a [`TypeHint::Lock`] hint, so `file.write()`-style I/O stays quiet.
pub fn acquisition_at(toks: &[Token], symbols: &SymbolTable, i: usize) -> Option<String> {
    if !toks[i].is_punct(".") {
        return None;
    }
    let m = toks.get(i + 1)?;
    if !(toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(")")))
    {
        return None;
    }
    let is_lock = m.is_ident("lock");
    let is_rw = m.is_ident("read") || m.is_ident("write");
    if !is_lock && !is_rw {
        return None;
    }
    let (s, _) = statement_span(toks, i);
    let chain = left_chain_idents(toks, i, s.saturating_sub(1));
    let receiver = chain.first().cloned();
    if is_rw && receiver.as_deref().map(|r| symbols.hint(r)) != Some(Some(TypeHint::Lock)) {
        return None;
    }
    Some(receiver.unwrap_or_else(|| "<lock>".to_string()))
}

/// Channel operation at token `i` (the `.` of `.send*()` / `.recv*()`):
/// returns `("send" | "recv", method name)`. `try_*` variants are
/// non-blocking and bounded, and are deliberately not matched.
pub fn channel_op_at(toks: &[Token], i: usize) -> Option<(&'static str, String)> {
    if !toks[i].is_punct(".") {
        return None;
    }
    let m = toks.get(i + 1)?;
    if m.kind != TokenKind::Ident || !toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let name = m.text.as_str();
    if SEND_METHODS.contains(&name) {
        Some(("send", m.text.clone()))
    } else if RECV_METHODS.contains(&name) {
        Some(("recv", m.text.clone()))
    } else {
        None
    }
}

/// Computes the lock guards bound inside `body` with their live token
/// ranges. A binding counts as a guard when the scanned span of its
/// initializer (which stops at the first `{`, so acquisitions inside nested
/// blocks belong to the inner `let`) contains a lock acquisition. Liveness
/// runs to the close of the innermost enclosing block, ended early by
/// `drop(name)` or a shadowing `let name`.
pub fn fn_guards(toks: &[Token], symbols: &SymbolTable, body: (usize, usize)) -> Vec<Guard> {
    if toks.is_empty() {
        return Vec::new();
    }
    let (bs, be) = clamp(body, toks.len());
    let mut blocks: Vec<usize> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    for i in bs..=be {
        let t = &toks[i];
        if t.is_punct("{") {
            blocks.push(i);
        } else if t.is_punct("}") {
            blocks.pop();
        } else if t.is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(nt) = toks.get(k) else { continue };
            // Only plain-identifier patterns can bind a guard; `let Ok(g)`
            // and tuple patterns are skipped (known imprecision).
            if nt.kind != TokenKind::Ident
                || toks.get(k + 1).is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
            {
                continue;
            }
            let (_, e) = statement_span(toks, i);
            let Some(eq) = (k + 1..=e).find(|&j| toks[j].is_punct("=")) else { continue };
            let acq = (eq + 1..=e).find_map(|j| acquisition_at(toks, symbols, j));
            if let Some(lock) = acq {
                let scope_end = blocks.last().map_or(be, |&o| block_close(toks, o).min(be));
                guards.push(Guard {
                    name: nt.text.clone(),
                    lock,
                    start: e,
                    end: scope_end,
                    line: nt.line,
                });
            }
        }
    }
    for g in &mut guards {
        for j in (g.start + 1)..g.end {
            let ended = (toks[j].is_ident("drop")
                && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(j + 2).is_some_and(|t| t.is_ident(&g.name))
                && toks.get(j + 3).is_some_and(|t| t.is_punct(")")))
                || (toks[j].is_ident("let") && {
                    let mut k = j + 1;
                    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                        k += 1;
                    }
                    toks.get(k).is_some_and(|t| t.is_ident(&g.name))
                });
            if ended {
                g.end = j;
                break;
            }
        }
    }
    guards
}

/// One site where holding `held` and acquiring `acquired` participates in a
/// lock-order cycle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdgeSite {
    /// Workspace-relative path of the acquiring file.
    pub path: String,
    /// 1-based line of the acquisition (or the call that acquires).
    pub line: usize,
    /// Lock already held.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
}

/// Cross-file dataflow facts shared by the rule pass: lock-order cycle
/// sites, and the function-name set used for one-level call inlining.
#[derive(Debug, Default)]
pub struct WorkspaceFlow {
    /// Acquisition sites on a cyclic lock-order edge.
    pub cycle_edges: Vec<LockEdgeSite>,
    /// Functions whose body performs a blocking channel receive; a call to
    /// one of these names counts as a drain on the path.
    pub drain_fns: BTreeSet<String>,
}

/// Rust keywords that look like calls at the token level.
const CALLISH_KEYWORDS: [&str; 10] =
    ["if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as"];

impl WorkspaceFlow {
    /// Builds the cross-file pass over `files` (same input shape as
    /// [`crate::callgraph::CallGraph::build`]).
    pub fn build(files: &[(String, &ParsedFile)]) -> Self {
        // Per function name: locks acquired directly, and names it calls.
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        // Acquisitions under a held guard, and calls under a held guard.
        let mut local_edges: Vec<LockEdgeSite> = Vec::new();
        let mut guarded_calls: Vec<(String, String, String, usize)> = Vec::new();
        let mut drain_fns = BTreeSet::new();

        for (rel, pf) in files {
            let symbols = SymbolTable::build(pf);
            let toks = &pf.tokens;
            for f in &pf.fns {
                if f.in_test {
                    continue;
                }
                let Some(body) = f.body else { continue };
                let (bs, be) = clamp(body, toks.len());
                let guards = fn_guards(toks, &symbols, body);
                let held_at = |i: usize| -> Vec<&Guard> {
                    guards.iter().filter(|g| i > g.start && i <= g.end).collect()
                };
                for i in bs..=be {
                    if let Some(lock) = acquisition_at(toks, &symbols, i) {
                        direct.entry(f.name.clone()).or_default().insert(lock.clone());
                        for g in held_at(i) {
                            if g.lock != lock {
                                local_edges.push(LockEdgeSite {
                                    path: rel.clone(),
                                    line: toks[i].line,
                                    held: g.lock.clone(),
                                    acquired: lock.clone(),
                                });
                            }
                        }
                    }
                    if matches!(channel_op_at(toks, i), Some(("recv", _))) {
                        drain_fns.insert(f.name.clone());
                    }
                    if toks[i].kind == TokenKind::Ident
                        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                        && !CALLISH_KEYWORDS.contains(&toks[i].text.as_str())
                        && !(i > 0 && toks[i - 1].is_ident("fn"))
                    {
                        calls.entry(f.name.clone()).or_default().insert(toks[i].text.clone());
                        for g in held_at(i) {
                            guarded_calls.push((
                                toks[i].text.clone(),
                                g.lock.clone(),
                                rel.clone(),
                                toks[i].line,
                            ));
                        }
                    }
                }
            }
        }

        // Transitive lock sets per function name (fixpoint over the
        // name-based call relation; the workspace call depth is tiny, so a
        // bounded number of rounds always converges).
        let mut trans = direct.clone();
        for _ in 0..32 {
            let mut changed = false;
            let snapshot = trans.clone();
            for (name, callees) in &calls {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for c in callees {
                    if let Some(locks) = snapshot.get(c) {
                        add.extend(locks.iter().cloned());
                    }
                }
                if !add.is_empty() {
                    let entry = trans.entry(name.clone()).or_default();
                    let before = entry.len();
                    entry.extend(add);
                    changed |= entry.len() != before;
                }
            }
            if !changed {
                break;
            }
        }

        let mut edges = local_edges;
        for (callee, held, path, line) in guarded_calls {
            if let Some(locks) = trans.get(&callee) {
                for lock in locks {
                    if *lock != held {
                        edges.push(LockEdgeSite {
                            path: path.clone(),
                            line,
                            held: held.clone(),
                            acquired: lock.clone(),
                        });
                    }
                }
            }
        }

        // Keep only edges on a cycle: `held -> acquired` is cyclic when
        // `acquired` can reach `held` through the edge relation.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &edges {
            adj.entry(e.held.as_str()).or_default().insert(e.acquired.as_str());
        }
        let cycle_edges: BTreeSet<LockEdgeSite> = edges
            .iter()
            .filter(|e| reachable(&adj, &e.acquired, &e.held))
            .cloned()
            .collect();

        WorkspaceFlow { cycle_edges: cycle_edges.into_iter().collect(), drain_fns }
    }
}

/// DFS reachability over the lock edge relation.
fn reachable(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn prepared(src: &str) -> (ParsedFile, SymbolTable) {
        let pf = parse(lex(src));
        let symbols = SymbolTable::build(&pf);
        (pf, symbols)
    }

    fn guards_of(src: &str) -> Vec<Guard> {
        let (pf, symbols) = prepared(src);
        let body = pf.fns[0].body.expect("fixture fn has a body");
        fn_guards(&pf.tokens, &symbols, body)
    }

    #[test]
    fn plain_lock_binding_is_a_guard() {
        let g = guards_of("fn f() { let g = state.lock(); g.push(1); }");
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].name, "g");
        assert_eq!(g[0].lock, "state");
    }

    #[test]
    fn match_wrapped_acquisition_is_a_guard() {
        let g = guards_of(
            "fn f() { let sender = match pool.jobs.lock() { Ok(g) => g, Err(p) => p.into_inner() }; }",
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].lock, "jobs");
    }

    #[test]
    fn drop_ends_the_guard_early() {
        let src = "fn f() { let g = state.lock(); drop(g); tx.send(1); }";
        let (pf, symbols) = prepared(src);
        let g = guards_of(src);
        let send_dot = pf.tokens.iter().position(|t| t.is_ident("send")).expect("send") - 1;
        assert!(g[0].end < send_dot, "guard must end at drop, before the send");
        let _ = symbols;
    }

    #[test]
    fn shadowing_let_ends_the_previous_guard() {
        let src = "fn f() { let g = a.lock(); let g = b.lock(); g.recv(); }";
        let g = guards_of(src);
        assert_eq!(g.len(), 2);
        assert!(g[0].end <= g[1].start, "first guard ends at the shadowing let");
    }

    #[test]
    fn inner_block_scopes_the_guard() {
        // The binding inside `{ … }` must not leak liveness past the block.
        let src = "fn f() { let next = { let g = jobs.lock(); g.recv() }; other.send(next); }";
        let (pf, _) = prepared(src);
        let g = guards_of(src);
        assert_eq!(g.len(), 1, "only the inner binding is a guard: {g:?}");
        let send_dot = pf.tokens.iter().position(|t| t.is_ident("send")).expect("send") - 1;
        assert!(g[0].end < send_dot, "guard dies at the inner block close");
        // …but the recv inside the block is covered.
        let recv_dot = pf.tokens.iter().position(|t| t.is_ident("recv")).expect("recv") - 1;
        assert!(recv_dot > g[0].start && recv_dot <= g[0].end);
    }

    #[test]
    fn rw_acquisitions_need_a_lock_hint() {
        // `file.write()` is I/O, not a lock acquisition…
        let g = guards_of("fn f() { let h = file.write(); }");
        assert!(g.is_empty(), "{g:?}");
        // …but a RwLock-hinted receiver is.
        let g = guards_of("fn f(table: &RwLock<u32>) { let h = table.write(); }");
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].lock, "table");
    }

    #[test]
    fn cycle_detection_across_functions() {
        let src = "fn ab() { let a = x.lock(); let b = y.lock(); }\n\
                   fn ba() { let b = y.lock(); let a = x.lock(); }";
        let (pf, _) = prepared(src);
        let files = vec![("crates/a/src/l.rs".to_string(), &pf)];
        let flow = WorkspaceFlow::build(&files);
        assert_eq!(flow.cycle_edges.len(), 2, "both orders are on the cycle: {flow:?}");
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "fn ab() { let a = x.lock(); let b = y.lock(); }\n\
                   fn ab2() { let a = x.lock(); let b = y.lock(); }";
        let (pf, _) = prepared(src);
        let files = vec![("crates/a/src/l.rs".to_string(), &pf)];
        let flow = WorkspaceFlow::build(&files);
        assert!(flow.cycle_edges.is_empty(), "{flow:?}");
    }

    #[test]
    fn cycle_through_a_callee() {
        // f holds X and calls g (which takes Y); h holds Y and calls k
        // (which takes X): X→Y and Y→X through one call level each.
        let src = "fn f() { let a = x.lock(); g(); }\nfn g() { let b = y.lock(); }\n\
                   fn h() { let b = y.lock(); k(); }\nfn k() { let a = x.lock(); }";
        let (pf, _) = prepared(src);
        let files = vec![("crates/a/src/l.rs".to_string(), &pf)];
        let flow = WorkspaceFlow::build(&files);
        assert!(!flow.cycle_edges.is_empty(), "call-level edges close the cycle");
    }
}
