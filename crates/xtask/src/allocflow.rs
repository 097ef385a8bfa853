//! Allocation-flow rules: where does the steady-state round loop allocate?
//!
//! Three rule families audit heap traffic (see DESIGN.md §9.4):
//!
//! * `hot-alloc` — an allocation expression (`Vec::new`, `vec![…]`,
//!   `with_capacity`, `.to_vec()`, `.collect()`, `format!`, `Box::new`, or
//!   `.clone()` of a known buffer) inside a function that is *steady-state*
//!   reachable from the round-loop roots. Reachability uses the
//!   [`crate::callgraph::CallGraph`] steady closure, which refuses to descend
//!   into setup-named callees (`new`, `from_*`, `build_*`, …) so one-time
//!   construction stays out of scope.
//! * `loop-realloc` — `.push()`/`.extend()`/`.insert()` inside a loop on a
//!   collection with no visible capacity reservation earlier in the
//!   function: each growth past capacity reallocates and memmoves.
//! * `redundant-clone` — `.clone()`/`.to_vec()` of a local binding that is
//!   never read again: the copy exists only to appease the borrow checker
//!   and the original could have been moved instead.
//!
//! Findings ratchet through `crates/xtask/lint-baseline.toml` like every
//! other family: known hot-path allocations are baselined, new ones fail the
//! lint until removed. The counting allocator in `fedsu-tensor::alloc_stats`
//! cross-validates the static picture with real per-round allocator traffic
//! (`tests/alloc_budget.rs`).
//!
//! Known imprecision (documented, accepted): the steady closure is
//! name-based, so a setup helper not matching the naming contract is
//! audited as hot; intra-function setup before the round loop in `run`
//! itself is indistinguishable from per-round work at this layer. Both
//! over-approximate — extra findings land in the baseline, none are missed.

use crate::callgraph::CallGraph;
use crate::dataflow::block_close;
use crate::lexer::{Token, TokenKind};
use crate::resolve::{TypeHint, BUFFER_TYPES};
use crate::rules::{left_chain_idents, statement_span, Diagnostic};
use crate::scan::PreparedSource;
use std::collections::BTreeSet;

/// Method names that allocate a fresh owned buffer from a borrowed one.
const COPYING_METHODS: [&str; 2] = ["to_vec", "collect"];

/// Macros whose expansion allocates.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Rule `hot-alloc`: allocation expressions in steady-state hot functions.
pub fn check_hot_alloc(path: &str, src: &PreparedSource, graph: &CallGraph) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let mut fired = BTreeSet::new();
    for (ni, f) in src.file.fns.iter().enumerate() {
        if f.in_test || !graph.is_steady_hot(path, ni) {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        for i in bs..=be.min(toks.len().saturating_sub(1)) {
            if src.tok_in_test(i) {
                continue;
            }
            let t = &toks[i];
            let what: Option<String> = if t.kind == TokenKind::Ident
                && ALLOC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                Some(format!("`{}!` allocates a fresh buffer", t.text))
            } else if is_buffer_ctor(toks, src, i) {
                Some(format!(
                    "`{}::{}` constructs a heap buffer",
                    src.symbols.canonical(&t.text),
                    toks[i + 2].text
                ))
            } else if is_capacity_ctor(toks, i) {
                Some(format!("`{}::with_capacity` allocates", t.text))
            } else if let Some(m) = copying_method_at(toks, i) {
                Some(format!("`.{m}()` copies into a fresh allocation"))
            } else if clones_buffer(toks, src, i, bs) {
                Some("`.clone()` of a heap buffer duplicates the whole backing allocation".into())
            } else {
                None
            };
            if let Some(what) = what {
                if fired.insert(t.line) {
                    out.push(Diagnostic::at(
                        src,
                        path,
                        t.line,
                        "hot-alloc",
                        format!(
                            "{what} in `{}`, which runs every round; hoist the buffer \
                             out of the loop or reuse a scratch allocation",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `Vec::new(…)`-style: a buffer type name, `::`, an associated fn, `(`.
fn is_buffer_ctor(toks: &[Token], src: &PreparedSource, i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokenKind::Ident
        && BUFFER_TYPES.contains(&src.symbols.canonical(&t.text))
        && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
        && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
        && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
        // `Vec::len`-style never exists; but `String::from_utf8` etc. all
        // allocate, so any associated call on a buffer type counts except
        // pure-const ones — `new` with no args still allocates lazily-empty
        // Vecs only at first push, yet it *is* the allocation decision site.
        && toks[i + 2].text != "with_capacity"
}

/// Any `Type::with_capacity(` regardless of the type name: capacity
/// constructors allocate eagerly by definition.
fn is_capacity_ctor(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident
        && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
        && toks.get(i + 2).is_some_and(|n| n.is_ident("with_capacity"))
        && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
}

/// `.to_vec(` / `.collect(` at token `i` (the dot).
fn copying_method_at(toks: &[Token], i: usize) -> Option<&str> {
    if !toks[i].is_punct(".") {
        return None;
    }
    let m = toks.get(i + 1)?;
    if m.kind == TokenKind::Ident
        && COPYING_METHODS.contains(&m.text.as_str())
        && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
    {
        Some(&m.text)
    } else {
        None
    }
}

/// `.clone()` at the dot token `i` whose receiver chain roots in a binding
/// with a [`TypeHint::Buffer`] hint.
fn clones_buffer(toks: &[Token], src: &PreparedSource, i: usize, stop: usize) -> bool {
    if !(toks[i].is_punct(".")
        && toks.get(i + 1).is_some_and(|n| n.is_ident("clone"))
        && toks.get(i + 2).is_some_and(|n| n.is_punct("(")))
    {
        return false;
    }
    let chain = left_chain_idents(toks, i, stop);
    chain
        .last()
        .is_some_and(|root| src.symbols.hint(root) == Some(TypeHint::Buffer))
}

/// Rule `loop-realloc`: growth calls inside a loop with no reservation.
pub fn check_loop_realloc(path: &str, src: &PreparedSource) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    let mut fired = BTreeSet::new();
    for f in &src.file.fns {
        if f.in_test {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let be = be.min(toks.len().saturating_sub(1));
        for i in bs..=be {
            if src.tok_in_test(i) || !is_loop_keyword(toks, i) {
                continue;
            }
            let Some(open) = loop_block_open(toks, i, be) else { continue };
            let close = block_close(toks, open);
            for j in open..=close.min(be) {
                let Some(growth) = growth_call_at(toks, src, j) else { continue };
                let chain = left_chain_idents(toks, j, bs);
                let Some(recv) = chain.first().cloned() else { continue };
                if has_reservation(toks, bs, j, &recv) {
                    continue;
                }
                if fired.insert((toks[j].line, recv.clone())) {
                    out.push(Diagnostic::at(
                        src,
                        path,
                        toks[j].line,
                        "loop-realloc",
                        format!(
                            "`{recv}.{growth}()` grows inside a loop in `{}` with no \
                             capacity reservation; each growth past capacity \
                             reallocates and copies — reserve with \
                             `with_capacity`/`reserve` before the loop",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `for`/`while`/`loop` keyword at `i` (HRTB `for<…>` excluded).
fn is_loop_keyword(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokenKind::Ident
        && matches!(t.text.as_str(), "for" | "while" | "loop")
        && !toks.get(i + 1).is_some_and(|n| n.is_punct("<"))
}

/// Index of the `{` opening the loop body: the first depth-0 `{` after the
/// keyword (Rust forbids bare struct literals in loop headers).
fn loop_block_open(toks: &[Token], kw: usize, be: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().take(be + 1).skip(kw + 1) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth = depth.saturating_sub(1);
        } else if t.is_punct("{") && depth == 0 {
            return Some(j);
        } else if t.is_punct(";") && depth == 0 {
            return None; // malformed / not actually a loop header
        }
    }
    None
}

/// A growth method call at dot token `j`: `.push(`/`.extend(` always count;
/// `.insert(` only when the receiver is a known buffer (map inserts don't
/// shift elements and maps have their own rule family).
fn growth_call_at<'a>(toks: &'a [Token], src: &PreparedSource, j: usize) -> Option<&'a str> {
    if !toks[j].is_punct(".") {
        return None;
    }
    let m = toks.get(j + 1)?;
    if m.kind != TokenKind::Ident || !toks.get(j + 2).is_some_and(|n| n.is_punct("(")) {
        return None;
    }
    match m.text.as_str() {
        "push" | "extend" => Some(&m.text),
        "insert" => {
            let chain = left_chain_idents(toks, j, 0);
            if chain
                .last()
                .is_some_and(|root| src.symbols.hint(root) == Some(TypeHint::Buffer))
            {
                Some(&m.text)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// `true` when a statement before token `until` both names `recv` and
/// reserves capacity (`with_capacity`, `reserve`, `reserve_exact`, or a
/// sized `vec![elem; n]` literal).
fn has_reservation(toks: &[Token], bs: usize, until: usize, recv: &str) -> bool {
    let mut i = bs;
    while i < until {
        if toks[i].kind == TokenKind::Ident && toks[i].text == recv {
            let (s, e) = statement_span(toks, i);
            let span = &toks[s..=e.min(until.saturating_sub(1))];
            if span.iter().any(|t| {
                t.kind == TokenKind::Ident
                    && matches!(t.text.as_str(), "with_capacity" | "reserve" | "reserve_exact")
            }) || sized_vec_after(toks, i)
            {
                return true;
            }
            i = e + 1;
        } else {
            i += 1;
        }
    }
    false
}

/// `recv = vec![elem; n]`-style: a sized `vec!` in the initializer starting
/// at the receiver ident `from`. Bracket-aware because the macro's own `;`
/// sits *inside* the statement ([`statement_span`] stops at the first `;`,
/// so the caller's span never contains it).
fn sized_vec_after(toks: &[Token], from: usize) -> bool {
    let mut j = from;
    while j + 1 < toks.len() {
        let t = &toks[j];
        if t.is_ident("vec") && toks[j + 1].is_punct("!") {
            let mut depth = 0usize;
            for u in toks.iter().skip(j + 2) {
                if u.is_punct("[") || u.is_punct("(") {
                    depth += 1;
                } else if u.is_punct("]") || u.is_punct(")") {
                    if depth <= 1 {
                        return false; // macro closed without a size separator
                    }
                    depth -= 1;
                } else if u.is_punct(";") {
                    return depth == 1;
                }
            }
            return false;
        }
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false; // initializer ended without a vec! literal
        }
        j += 1;
    }
    false
}

/// Rule `redundant-clone`: `.clone()`/`.to_vec()` of a local that is dead
/// afterwards — the original could have been moved.
pub fn check_redundant_clone(path: &str, src: &PreparedSource) -> Vec<Diagnostic> {
    let toks = &src.file.tokens;
    let mut out = Vec::new();
    for f in &src.file.fns {
        if f.in_test {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let be = be.min(toks.len().saturating_sub(1));
        let locals = local_lets(toks, bs, be);
        let loops = loop_spans(toks, bs, be);
        for i in bs..=be {
            if src.tok_in_test(i) || !toks[i].is_punct(".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if !(matches!(m.text.as_str(), "clone" | "to_vec")
                && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
                && toks.get(i + 3).is_some_and(|n| n.is_punct(")")))
            {
                continue;
            }
            let chain = left_chain_idents(toks, i, bs);
            // Only direct `local.clone()` — a field or index projection may
            // alias storage the owner still needs.
            if chain.len() != 1 {
                continue;
            }
            let root = &chain[0];
            let Some(&let_idx) = locals.iter().find_map(|(n, idx)| (n == root).then_some(idx))
            else {
                continue;
            };
            if let_idx >= i {
                continue;
            }
            // Loop-carry: a clone inside a loop whose binding lives outside
            // it is read again on the next iteration even if no later token
            // mentions it.
            if loops.iter().any(|&(o, c)| o <= i && i <= c && !(o <= let_idx && let_idx <= c)) {
                continue;
            }
            let (_, stmt_end) = statement_span(toks, i);
            let used_after = (stmt_end + 1..=be).any(|k| {
                toks[k].kind == TokenKind::Ident
                    && toks[k].text == *root
                    && !(k > 0 && toks[k - 1].is_punct("."))
            });
            if !used_after {
                out.push(Diagnostic::at(
                    src,
                    path,
                    toks[i].line,
                    "redundant-clone",
                    format!(
                        "`{root}.{}()` but `{root}` is never read again in `{}`; \
                         move the original instead of copying it",
                        m.text, f.name
                    ),
                ));
            }
        }
    }
    out
}

/// `(name, let-token-index)` for every plain `let [mut] name` in the body.
fn local_lets(toks: &[Token], bs: usize, be: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in bs..=be {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut k = i + 1;
        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        if let Some(name) = toks.get(k) {
            if name.kind == TokenKind::Ident
                && !toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct("::") || n.is_punct("{") || n.is_punct("("))
            {
                out.push((name.text.clone(), i));
            }
        }
    }
    out
}

/// `(open, close)` token spans of every loop block in the body.
fn loop_spans(toks: &[Token], bs: usize, be: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in bs..=be {
        if is_loop_keyword(toks, i) {
            if let Some(open) = loop_block_open(toks, i, be) {
                out.push((open, block_close(toks, open)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::prepare;

    const HOT: &str = "crates/fl/src/experiment.rs";

    fn hot_alloc(path: &str, src: &str) -> Vec<Diagnostic> {
        let p = prepare(src);
        let files = vec![(path.to_string(), &p.file)];
        let g = CallGraph::build(&files);
        check_hot_alloc(path, &p, &g)
    }

    #[test]
    fn hot_alloc_fires_on_vec_macro_and_collect_in_root() {
        let src = "pub fn run() {\n let v = vec![0.0; 8];\n let w: Vec<u32> = it.collect();\n}\n";
        let d = hot_alloc(HOT, src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!((d[0].line, d[1].line), (2, 3));
    }

    #[test]
    fn hot_alloc_fires_transitively_but_not_behind_setup() {
        let src = "pub fn run() { step(); build_model(); }\n\
                   fn step() { let b = Box::new(0u8); }\n\
                   fn build_model() { let v = Vec::<f32>::with_capacity(9); }\n";
        let d = hot_alloc(HOT, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("step"));
    }

    #[test]
    fn hot_alloc_sees_buffer_clone_but_not_scalar_clone() {
        let src = "pub fn run(cfg: &Config) {\n\
                   let snap = vec![0.0f32; 4];\n\
                   let a = snap.clone();\n\
                   let b = cfg.clone();\n}\n";
        let d = hot_alloc(HOT, src);
        // line 2: vec! macro; line 3: clone of a Buffer-hinted local.
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!((d[0].line, d[1].line), (2, 3));
        assert!(d[1].message.contains("clone"));
    }

    #[test]
    fn hot_alloc_is_silent_off_the_hot_path_and_in_tests() {
        let cold = "fn helper() { let v = vec![1, 2, 3]; }\n";
        assert!(hot_alloc("crates/nn/src/util.rs", cold).is_empty());
        let test = "#[test]\nfn t() { let v = vec![1]; }\n";
        assert!(hot_alloc(HOT, test).is_empty());
    }

    fn loop_realloc(src: &str) -> Vec<Diagnostic> {
        let p = prepare(src);
        check_loop_realloc("test.rs", &p)
    }

    #[test]
    fn loop_realloc_fires_without_reservation() {
        let src = "fn f(n: usize) {\n let mut out = Vec::new();\n for i in 0..n {\n  out.push(i);\n }\n}\n";
        let d = loop_realloc(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("out.push"));
    }

    #[test]
    fn loop_realloc_quiet_with_reservation_or_sized_vec() {
        let reserved = "fn f(n: usize) {\n let mut out = Vec::with_capacity(n);\n for i in 0..n { out.push(i); }\n}\n";
        assert!(loop_realloc(reserved).is_empty());
        let sized = "fn f(n: usize) {\n let mut out = vec![0usize; n];\n for i in 0..n { out.extend([i]); }\n}\n";
        assert!(loop_realloc(sized).is_empty());
        let late = "fn f(n: usize) {\n let mut out = Vec::new();\n out.reserve(n);\n for i in 0..n { out.push(i); }\n}\n";
        assert!(loop_realloc(late).is_empty());
    }

    #[test]
    fn loop_realloc_insert_needs_a_buffer_receiver() {
        // `insert` on a map is not element-shifting growth…
        let map = "fn f(m: &mut BTreeMap<u32, u32>) {\n for i in 0..4 { m.insert(i, i); }\n}\n";
        assert!(loop_realloc(map).is_empty());
        // …but on a Vec it is.
        let vecsrc = "fn f() {\n let mut v: Vec<u32> = Vec::new();\n loop { v.insert(0, 1); }\n}\n";
        let d = loop_realloc(vecsrc);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    fn redundant(src: &str) -> Vec<Diagnostic> {
        let p = prepare(src);
        check_redundant_clone("test.rs", &p)
    }

    #[test]
    fn redundant_clone_fires_when_source_is_dead() {
        let src = "fn f() {\n let name = make();\n consume(name.clone());\n}\n";
        let d = redundant(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("never read again"));
    }

    #[test]
    fn redundant_clone_quiet_when_source_lives_on() {
        let src = "fn f() {\n let name = make();\n consume(name.clone());\n log(&name);\n}\n";
        assert!(redundant(src).is_empty());
        // Field projections may alias storage the owner still needs.
        let field = "fn f(s: State) {\n consume(s.buf.clone());\n}\n";
        assert!(redundant(field).is_empty());
    }

    #[test]
    fn redundant_clone_respects_loop_carry() {
        // `frame` lives outside the loop: the clone on iteration k is read
        // (implicitly) on iteration k+1 even though no later token says so.
        let src = "fn f() {\n let frame = make();\n for _ in 0..3 {\n  send(frame.clone());\n }\n}\n";
        assert!(redundant(src).is_empty());
        // But a binding created inside the loop is dead at iteration end.
        let inner = "fn f() {\n for _ in 0..3 {\n  let buf = make();\n  send(buf.clone());\n }\n}\n";
        assert_eq!(redundant(inner).len(), 1);
    }

    #[test]
    fn redundant_to_vec_counts_like_clone() {
        let src = "fn f() {\n let xs = build();\n keep(xs.to_vec());\n}\n";
        let d = redundant(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("to_vec"));
    }
}
