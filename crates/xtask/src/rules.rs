//! The lint rules: each scans a [`PreparedSource`] token stream and reports
//! reproducibility or safety hazards with `file:line` positions.
//!
//! All rules skip test code (`#[cfg(test)]` items, `#[test]` functions)
//! because the hazards they guard against — wrapping arithmetic, lock and
//! channel misuse — only threaten the *emulation and its results*, not
//! assertions inside tests. (Hash collections, wall-clock reads, `unwrap`,
//! panics and truncating casts are clippy's: `clippy.toml`,
//! `[workspace.lints]` and the crate-level `indexing_slicing` /
//! `expect_used` / `panic` / `unreachable` and `cast_possible_truncation`
//! denials; allocations are measured by `tests/alloc_budget.rs`.)
//!
//! Rules operate on tokens, never on raw text: a `lock()` inside a string
//! literal or comment does not exist at this layer, and `use … as` aliases
//! are resolved through the per-file [`crate::resolve::SymbolTable`].

use crate::callgraph::CallGraph;
use crate::dataflow::{self, WorkspaceFlow};
use crate::lexer::{Token, TokenKind};
use crate::resolve::TypeHint;
use crate::scan::PreparedSource;
use std::collections::BTreeSet;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line (trimmed).
    pub snippet: String,
}

impl Diagnostic {
    pub(crate) fn at(
        src: &PreparedSource,
        path: &str,
        line: usize,
        rule: &'static str,
        message: String,
    ) -> Self {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
            snippet: src.snippet(line).to_string(),
        }
    }
}

/// Stable identifiers of every rule, in reporting order.
pub const RULE_IDS: [&str; 3] = ["unchecked-arith", "lock-order", "channel-discipline"];

/// Runs every rule over one prepared source file. `graph` supplies worker
/// and dispatch reachability; `flow` supplies the cross-file lock-acquisition
/// graph and the drain function-name set (both built over all files in the
/// run).
pub fn check_all(
    path: &str,
    src: &PreparedSource,
    graph: &CallGraph,
    flow: &WorkspaceFlow,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(check_unchecked_arith(path, src));
    out.extend(check_lock_order(path, src, graph, flow));
    out.extend(check_channel_discipline(path, src, graph, flow));
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Token range of the statement containing token `i`: bounded by the nearest
/// `;`/`{`/`}` on each side (exclusive). Coarse, but statements in this
/// workspace don't nest blocks inside accounting expressions.
pub(crate) fn statement_span(toks: &[Token], i: usize) -> (usize, usize) {
    let mut s = i;
    while s > 0 && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
        s -= 1;
    }
    let mut e = i;
    while e + 1 < toks.len() && !matches!(toks[e + 1].text.as_str(), ";" | "{" | "}") {
        e += 1;
    }
    (s, e)
}

/// `true` when `name` matches the wire-byte / sim-time naming contract.
fn matches_accounting_contract(name: &str) -> bool {
    name == "bytes"
        || name.ends_with("_bytes")
        || name.ends_with("_ms")
        || name.starts_with("sim_time")
}

/// Skips backward over one balanced `(…)`/`[…]` group ending at `j`
/// (which holds a `)` or `]`), returning the opener's index.
fn skip_group_back(toks: &[Token], j: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut k = j;
    loop {
        if toks[k].is_punct(close) {
            depth += 1;
        } else if toks[k].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        if k == 0 {
            return 0;
        }
        k -= 1;
    }
}

/// Identifiers in the operand chain immediately left of token `i`.
pub(crate) fn left_chain_idents(toks: &[Token], i: usize, stop: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = i;
    while j > stop {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(")") {
            j = skip_group_back(toks, j, "(", ")");
        } else if t.is_punct("]") {
            j = skip_group_back(toks, j, "[", "]");
        } else if t.kind == TokenKind::Ident {
            out.push(t.text.clone());
        } else if !(t.is_punct(".") || t.is_punct("::") || matches!(t.kind, TokenKind::Int)) {
            break;
        }
    }
    out
}

/// Identifiers in the operand chain immediately right of token `i`.
fn right_chain_idents(toks: &[Token], i: usize, stop: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = i + 1;
    while j <= stop && j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") {
            let mut depth = 0usize;
            while j <= stop && j < toks.len() {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
        } else if t.kind == TokenKind::Ident {
            out.push(t.text.clone());
        } else if !(t.is_punct(".") || t.is_punct("::") || matches!(t.kind, TokenKind::Int)) {
            break;
        }
        j += 1;
    }
    out
}

/// `true` when token `i` sits inside the argument list of a
/// `checked_*`/`saturating_*`/`wrapping_*` call within the statement.
fn inside_checked_call(toks: &[Token], stmt_start: usize, i: usize) -> bool {
    let mut depth = 0usize;
    let mut j = i;
    while j > stmt_start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            if depth == 0 {
                if j > 0 && toks[j - 1].kind == TokenKind::Ident {
                    let n = toks[j - 1].text.as_str();
                    if n.starts_with("checked_")
                        || n.starts_with("saturating_")
                        || n.starts_with("wrapping_")
                        || n.starts_with("overflowing_")
                    {
                        return true;
                    }
                }
            } else {
                depth -= 1;
            }
        }
    }
    false
}

/// `true` when a float literal or `f32`/`f64` appears within `window` tokens
/// of `i` — the statement is float arithmetic, where wrapping overflow does
/// not exist and the rule must stay silent.
fn float_context(toks: &[Token], i: usize, window: usize) -> bool {
    let lo = i.saturating_sub(window);
    let hi = (i + window).min(toks.len().saturating_sub(1));
    toks[lo..=hi].iter().any(|t| {
        t.kind == TokenKind::Float || t.is_ident("f32") || t.is_ident("f64")
    })
}

/// Rule `unchecked-arith`: bare `+`/`+=`/`*`/`*=` whose operand chain
/// touches an identifier matching the wire-byte/sim-time naming contract
/// (`bytes`, `*_bytes`, `*_ms`, `sim_time*`) outside a
/// `checked_`/`saturating_` call and outside float arithmetic. Wire-byte
/// conservation is a paper-level invariant (PR 1/2); overflow must be loud.
fn check_unchecked_arith(path: &str, src: &PreparedSource) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let mut fired_lines = BTreeSet::new();
    for i in 0..toks.len() {
        if src.tok_in_test(i) {
            continue;
        }
        let t = &toks[i];
        let op = t.text.as_str();
        if t.kind != TokenKind::Punct || !matches!(op, "+" | "+=" | "*" | "*=") {
            continue;
        }
        // `+`/`*` must be binary: something value-like on the left.
        if matches!(op, "+" | "*")
            && !(i > 0
                && (matches!(toks[i - 1].kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float)
                    || toks[i - 1].is_punct(")")
                    || toks[i - 1].is_punct("]")))
        {
            continue;
        }
        let (s, e) = statement_span(toks, i);
        let mut operands = left_chain_idents(toks, i, s.saturating_sub(1));
        operands.extend(right_chain_idents(toks, i, e));
        let hits: Vec<&String> =
            operands.iter().filter(|n| matches_accounting_contract(n)).collect();
        if hits.is_empty() {
            continue;
        }
        if inside_checked_call(toks, s.saturating_sub(1), i) {
            continue;
        }
        if float_context(toks, i, 6)
            || hits.iter().any(|n| src.symbols.hint(n) == Some(TypeHint::Float))
        {
            continue;
        }
        if fired_lines.insert(t.line) {
            out.push(Diagnostic::at(
                src,
                path,
                t.line,
                "unchecked-arith",
                format!(
                    "bare `{op}` on accounting value `{}` can wrap silently; use \
                     `saturating_*` (the armed wire-conservation invariant catches \
                     a saturated total) or `checked_*` with the error propagated",
                    hits[0]
                ),
            ));
        }
    }
    out
}

/// Rule `lock-order`: guard-discipline hazards found by the dataflow pass —
/// a lock guard held across an `mpsc` send/recv, across a call that can
/// reach the worker-pool dispatch path (`run_chunks`), or across a
/// `catch_unwind` (a swallowed panic leaves the lock poisoned for every
/// later acquirer); plus acquisition sites on a *cyclic* lock-order edge in
/// the cross-function acquisition graph. Any of these can deadlock the pool
/// or wedge the emulator mid-sweep.
fn check_lock_order(
    path: &str,
    src: &PreparedSource,
    graph: &CallGraph,
    flow: &WorkspaceFlow,
) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let mut fired_lines = BTreeSet::new();
    for f in &src.file.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        let guards = dataflow::fn_guards(toks, &src.symbols, body);
        if guards.is_empty() {
            continue;
        }
        let (bs, be) = (body.0, body.1.min(toks.len().saturating_sub(1)));
        for i in bs..=be {
            if src.tok_in_test(i) {
                continue;
            }
            let live: Vec<&dataflow::Guard> =
                guards.iter().filter(|g| i > g.start && i <= g.end).collect();
            if live.is_empty() {
                continue;
            }
            let t = &toks[i];
            let hazard: Option<String> =
                if let Some((_, method)) = dataflow::channel_op_at(toks, i) {
                    Some(format!("channel `.{method}(…)`"))
                } else if t.is_ident("catch_unwind")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                {
                    Some("`catch_unwind`, which can swallow a panic and leak the lock poisoned".to_string())
                } else if t.kind == TokenKind::Ident
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && t.text != f.name
                    && graph.reaches_dispatch(&t.text)
                {
                    Some(format!(
                        "`{}(…)`, which can reach the worker-pool dispatch path",
                        t.text
                    ))
                } else {
                    None
                };
            if let Some(hazard) = hazard {
                if fired_lines.insert(t.line) {
                    let g = live[0];
                    out.push(Diagnostic::at(
                        src,
                        path,
                        t.line,
                        "lock-order",
                        format!(
                            "guard `{}` of lock `{}` (acquired line {}) is held across \
                             {hazard}; shrink the critical section (collect under the \
                             lock, act after `drop`)",
                            g.name, g.lock, g.line
                        ),
                    ));
                }
            }
        }
    }
    for e in &flow.cycle_edges {
        if e.path == path && fired_lines.insert(e.line) {
            out.push(Diagnostic::at(
                src,
                path,
                e.line,
                "lock-order",
                format!(
                    "acquiring `{}` while holding `{}` is part of a cyclic lock order \
                     across the workspace; pick one global acquisition order",
                    e.acquired, e.held
                ),
            ));
        }
    }
    out
}

/// Names a dropped sender/receiver binding can go by for the
/// send-after-close check.
fn is_drop_call(toks: &[Token], i: usize) -> Option<String> {
    if toks[i].is_ident("drop")
        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
        && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
    {
        Some(toks[i + 2].text.clone())
    } else {
        None
    }
}

/// Rule `channel-discipline`: mpsc usage patterns that wedge or leak. (a) A
/// blocking `recv`/`recv_timeout` inside a function reachable from a
/// pool-worker body — a worker blocked on an empty channel while holding the
/// pool's attention deadlocks dispatch (use a `Condvar` or `try_recv`
/// drain). (b) `send` on a channel endpoint after an explicit `drop` of that
/// endpoint in the same function — always an error at runtime. (c) `send`
/// inside an unbounded `loop`/`while` whose body never drains (no `recv` and
/// no call to a function that receives): the queue grows without bound.
fn check_channel_discipline(
    path: &str,
    src: &PreparedSource,
    graph: &CallGraph,
    flow: &WorkspaceFlow,
) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let mut fired_lines = BTreeSet::new();
    for (ni, f) in src.file.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        let (bs, be) = (body.0, body.1.min(toks.len().saturating_sub(1)));
        let is_worker = graph.is_worker(path, ni);
        let mut dropped: BTreeSet<String> = BTreeSet::new();
        for i in bs..=be {
            if src.tok_in_test(i) {
                continue;
            }
            if let Some(name) = is_drop_call(toks, i) {
                dropped.insert(name);
                continue;
            }
            let Some((kind, method)) = dataflow::channel_op_at(toks, i) else { continue };
            let (s, _) = statement_span(toks, i);
            let chain = left_chain_idents(toks, i, s.saturating_sub(1));
            let receiver = chain.first();
            if kind == "recv" && is_worker && fired_lines.insert(toks[i].line) {
                out.push(Diagnostic::at(
                    src,
                    path,
                    toks[i].line,
                    "channel-discipline",
                    format!(
                        "blocking `.{method}(…)` in `{}`, which runs on a pool-worker \
                         thread; a worker parked on an empty channel wedges dispatch — \
                         use a Condvar-guarded queue or a bounded drain",
                        f.name
                    ),
                ));
            }
            if kind == "send" {
                if let Some(r) = receiver {
                    if dropped.contains(r) && fired_lines.insert(toks[i].line) {
                        out.push(Diagnostic::at(
                            src,
                            path,
                            toks[i].line,
                            "channel-discipline",
                            format!(
                                "`.{method}(…)` on `{r}` after `drop({r})` in `{}`; the \
                                 endpoint is closed and every send errors",
                                f.name
                            ),
                        ));
                    }
                }
            }
        }
        out.extend(unbounded_send_loops(path, src, f, (bs, be), flow));
    }
    out
}

/// The unbounded-growth half of `channel-discipline`: `send` inside a
/// `loop`/`while` block with no drain (`recv*` or a call into a function
/// that receives) anywhere in the same block. `for` loops are bounded by
/// their iterator and are deliberately exempt.
fn unbounded_send_loops(
    path: &str,
    src: &PreparedSource,
    f: &crate::ast::FnItem,
    body: (usize, usize),
    flow: &WorkspaceFlow,
) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let (bs, be) = body;
    for i in bs..=be {
        if src.tok_in_test(i) || !(toks[i].is_ident("loop") || toks[i].is_ident("while")) {
            continue;
        }
        // Find the loop body's `{ … }`.
        let Some(open) = (i + 1..=be).find(|&j| toks[j].is_punct("{")) else { continue };
        let close = dataflow::block_close(toks, open).min(be);
        let mut send_at: Option<usize> = None;
        let mut drained = false;
        for j in open..=close {
            match dataflow::channel_op_at(toks, j) {
                Some(("send", _)) if send_at.is_none() => send_at = Some(j),
                Some(("recv", _)) => drained = true,
                _ => {}
            }
            if toks[j].kind == TokenKind::Ident
                && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                && flow.drain_fns.contains(&toks[j].text)
            {
                drained = true;
            }
        }
        if let (Some(j), false) = (send_at, drained) {
            out.push(Diagnostic::at(
                src,
                path,
                toks[j].line,
                "channel-discipline",
                format!(
                    "`send` inside an unbounded `{}` in `{}` with no drain on the same \
                     path; the queue can grow without bound — drain in the loop or \
                     bound the iteration",
                    toks[i].text, f.name
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::prepare;

    fn run_at(rule: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        let p = prepare(src);
        let files = vec![(path.to_string(), &p.file)];
        let g = CallGraph::build(&files);
        let flow = WorkspaceFlow::build(&files);
        check_all(path, &p, &g, &flow).into_iter().filter(|d| d.rule == rule).collect()
    }

    fn run(rule: &str, src: &str) -> Vec<Diagnostic> {
        run_at(rule, "test.rs", src)
    }

    #[test]
    fn unchecked_arith_flags_contract_idents() {
        assert_eq!(run("unchecked-arith", "fn f() { total_bytes += chunk; }").len(), 1);
        assert_eq!(run("unchecked-arith", "fn f() { let t = upload_bytes + download_bytes; }").len(), 1);
        assert_eq!(run("unchecked-arith", "fn f() { let b = bytes * retries; }").len(), 1);
        // Non-contract identifiers: silent.
        assert!(run("unchecked-arith", "fn f() { let t = count + extra; }").is_empty());
    }

    #[test]
    fn unchecked_arith_skips_checked_and_float() {
        assert!(run(
            "unchecked-arith",
            "fn f() { let t = a_bytes.checked_add(b_bytes).expect(\"fits in u64 by construction\"); }"
        )
        .is_empty());
        // Float sim time is accumulated with float ops on purpose.
        assert!(run("unchecked-arith", "fn f() { let mut sim_time = 0.0f64; sim_time += dt; }")
            .is_empty());
        assert!(run("unchecked-arith", "fn f(latency_ms: f64) { let x = latency_ms + 0.5; }")
            .is_empty());
    }

    #[test]
    fn lock_order_guard_across_send() {
        let src = "fn f() { let g = state.lock(); tx.send(1); }\n";
        let d = run("lock-order", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`g`"), "{d:?}");
        // Dropping the guard first is clean.
        assert!(run("lock-order", "fn f() { let g = state.lock(); drop(g); tx.send(1); }")
            .is_empty());
    }

    #[test]
    fn lock_order_guard_across_catch_unwind() {
        let src = "fn f() { let g = state.lock(); let r = catch_unwind(job); }\n";
        assert_eq!(run("lock-order", src).len(), 1);
    }

    #[test]
    fn lock_order_cycle_edges_are_reported() {
        let src = "fn ab() { let a = x.lock(); let b = y.lock(); }\n\
                   fn ba() { let b = y.lock(); let a = x.lock(); }\n";
        let d = run("lock-order", src);
        assert_eq!(d.len(), 2, "one per acquisition site on the cycle: {d:?}");
        assert!(d[0].message.contains("cyclic lock order"), "{d:?}");
    }

    #[test]
    fn lock_order_guard_across_dispatch_call() {
        let src = "fn caller() { let g = state.lock(); run_chunks(); }\n";
        // Only fires when `run_chunks` resolves to the real dispatch entry.
        let other = "pub fn run_chunks() {}\n";
        let p1 = prepare(src);
        let p2 = prepare(other);
        let files = vec![
            ("crates/core/src/x.rs".to_string(), &p1.file),
            ("crates/tensor/src/par.rs".to_string(), &p2.file),
        ];
        let g = CallGraph::build(&files);
        let flow = WorkspaceFlow::build(&files);
        let d: Vec<Diagnostic> = check_all("crates/core/src/x.rs", &p1, &g, &flow)
            .into_iter()
            .filter(|d| d.rule == "lock-order")
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("dispatch"), "{d:?}");
    }

    #[test]
    fn channel_worker_blocking_recv() {
        let src = "fn worker_loop() { let job = rx.recv(); }\nfn elsewhere() { let j = rx.recv(); }\n";
        let d = run_at("channel-discipline", "crates/tensor/src/par.rs", src);
        assert_eq!(d.len(), 1, "only the worker body fires: {d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn channel_send_after_close() {
        let src = "fn f() { drop(tx); tx.send(1); }\n";
        assert_eq!(run("channel-discipline", src).len(), 1);
        // Different endpoint: clean.
        assert!(run("channel-discipline", "fn f() { drop(rx); tx.send(1); }").is_empty());
    }

    #[test]
    fn channel_unbounded_loop_needs_a_drain() {
        let looped = "fn f() { loop { tx.send(next()); } }\n";
        assert_eq!(run("channel-discipline", looped).len(), 1);
        // A recv in the same loop body is a drain.
        let drained = "fn f() { loop { tx.send(next()); let r = rx.recv(); } }\n";
        assert!(run("channel-discipline", drained).is_empty());
        // A call to a function that receives also counts (one call level).
        let via_call = "fn f() { loop { tx.send(next()); pump(); } }\nfn pump() { let r = rx.recv(); }\n";
        assert!(run("channel-discipline", via_call).is_empty());
        // `for` loops are bounded by their iterator.
        let bounded = "fn f() { for c in chunks { tx.send(c); } }\n";
        assert!(run("channel-discipline", bounded).is_empty());
    }
}
