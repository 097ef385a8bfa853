//! Name-based call-graph approximation over parsed files.
//!
//! The concurrency rules need "can this function run on a pool worker" and
//! "can a call to this name reach pool dispatch" — without type resolution,
//! the useful (and sound-for-linting) over-approximation is by name: a call
//! to `foo` may reach *every* function named `foo` in the workspace. That
//! errs toward flagging too much, which is the right direction for a
//! deadlock audit.

use crate::ast::ParsedFile;
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// Pool-worker bodies: code reachable from these runs on a worker thread,
/// where a blocking channel receive can wedge the whole pool
/// (`channel-discipline` rule).
const WORKER_ROOTS: [(&str, &str); 1] = [("worker_loop", "tensor/src/par.rs")];

/// Worker-pool dispatch entry points: a call that can *reach* one of these
/// while a lock guard is held risks deadlocking dispatcher against workers
/// (`lock-order` rule).
const DISPATCH_TARGETS: [(&str, &str); 1] = [("run_chunks", "tensor/src/par.rs")];

/// Reachability result: for each file (by workspace-relative path), which
/// function indices (into `ParsedFile::fns`) are on a worker path, plus the
/// names of functions that can reach pool dispatch.
#[derive(Debug, Default)]
pub struct CallGraph {
    workers: BTreeMap<String, BTreeSet<usize>>,
    dispatch_names: BTreeSet<String>,
}

impl CallGraph {
    /// Builds reachability from the fixed roots over all `files`
    /// (`(workspace-relative path, parsed file)` pairs).
    pub fn build(files: &[(String, &ParsedFile)]) -> Self {
        // Node = (file index, fn index). Resolve call names to all
        // same-named nodes.
        let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, (_, pf)) in files.iter().enumerate() {
            for (ni, f) in pf.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, ni));
            }
        }

        // Forward call edges, computed once and shared by every traversal.
        let mut edges: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, (_, pf)) in files.iter().enumerate() {
            for (ni, f) in pf.fns.iter().enumerate() {
                let Some(body) = f.body else { continue };
                let mut targets = Vec::new();
                for callee in called_names(pf, body) {
                    if let Some(ts) = by_name.get(callee.as_str()) {
                        targets.extend(ts.iter().copied());
                    }
                }
                edges.insert((fi, ni), targets);
            }
        }

        let workers = forward_closure(files, &edges, &WORKER_ROOTS);

        // Reverse reachability: which functions can reach a dispatch target?
        let mut reverse: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for (from, tos) in &edges {
            for to in tos {
                reverse.entry(*to).or_default().push(*from);
            }
        }
        let mut queue: Vec<(usize, usize)> = Vec::new();
        let mut reaches: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (fi, (rel, pf)) in files.iter().enumerate() {
            for (ni, f) in pf.fns.iter().enumerate() {
                let target = DISPATCH_TARGETS
                    .iter()
                    .any(|(n, suffix)| *n == f.name && rel.ends_with(suffix));
                if target && reaches.insert((fi, ni)) {
                    queue.push((fi, ni));
                }
            }
        }
        while let Some(node) = queue.pop() {
            if let Some(callers) = reverse.get(&node) {
                for &c in callers {
                    if reaches.insert(c) {
                        queue.push(c);
                    }
                }
            }
        }
        let dispatch_names: BTreeSet<String> = reaches
            .iter()
            .map(|&(fi, ni)| files[fi].1.fns[ni].name.clone())
            .collect();

        CallGraph { workers, dispatch_names }
    }

    /// `true` when function `fn_idx` of file `rel` can run on a pool-worker
    /// thread.
    pub fn is_worker(&self, rel: &str, fn_idx: usize) -> bool {
        self.workers.get(rel).is_some_and(|s| s.contains(&fn_idx))
    }

    /// `true` when a call to `name` may transitively enter the worker-pool
    /// dispatch path (`run_chunks`).
    pub fn reaches_dispatch(&self, name: &str) -> bool {
        self.dispatch_names.contains(name)
    }
}

/// BFS over `edges` from every non-test function matching a `(name, path
/// suffix)` root, grouped by file path.
fn forward_closure(
    files: &[(String, &ParsedFile)],
    edges: &BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    roots: &[(&str, &str)],
) -> BTreeMap<String, BTreeSet<usize>> {
    let mut queue: Vec<(usize, usize)> = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fi, (rel, pf)) in files.iter().enumerate() {
        for (ni, f) in pf.fns.iter().enumerate() {
            let is_root =
                roots.iter().any(|(n, suffix)| *n == f.name && rel.ends_with(suffix));
            if !f.in_test && is_root && seen.insert((fi, ni)) {
                queue.push((fi, ni));
            }
        }
    }
    while let Some(node) = queue.pop() {
        if let Some(targets) = edges.get(&node) {
            for &t in targets {
                if seen.insert(t) {
                    queue.push(t);
                }
            }
        }
    }
    let mut out: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (fi, ni) in seen {
        out.entry(files[fi].0.clone()).or_default().insert(ni);
    }
    out
}

/// Collects names syntactically called inside the token range `body`
/// (inclusive braces): `name(…)` free/assoc calls and `.name(…)` method
/// calls; `name!(…)` macros are not calls.
pub(crate) fn called_names(pf: &ParsedFile, body: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &pf.tokens;
    let (start, end) = body;
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if !next.is_punct("(") {
            continue;
        }
        let name = toks[i].text.as_str();
        if matches!(
            name,
            "if" | "while" | "for" | "match" | "return" | "loop" | "fn" | "move" | "in" | "as"
        ) {
            continue;
        }
        // `fn name(` directly inside the body is a nested definition.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        out.insert(name.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<(String, ParsedFile)>, CallGraph) {
        let parsed: Vec<(String, ParsedFile)> =
            srcs.iter().map(|(rel, s)| (rel.to_string(), parse(lex(s)))).collect();
        let refs: Vec<(String, &ParsedFile)> =
            parsed.iter().map(|(r, p)| (r.clone(), p)).collect();
        let g = CallGraph::build(&refs);
        (parsed, g)
    }

    #[test]
    fn transitive_reachability_from_worker_loop() {
        let (parsed, g) = graph(&[(
            "crates/tensor/src/par.rs",
            "fn worker_loop() { step(); }\nfn step() { inner_helper(); }\nfn inner_helper() {}\nfn unrelated() {}",
        )]);
        let rel = &parsed[0].0;
        assert!(g.is_worker(rel, 0), "root itself is a worker");
        assert!(g.is_worker(rel, 1));
        assert!(g.is_worker(rel, 2), "two hops from root");
        assert!(!g.is_worker(rel, 3), "uncalled fn is not");
    }

    #[test]
    fn method_calls_cross_files() {
        let (_, g) = graph(&[
            ("crates/tensor/src/par.rs", "impl Pool { fn worker_loop(&self) { self.helper_m(); } }"),
            ("crates/core/src/other.rs", "impl Other { pub fn helper_m(&self) { deep(); } }\nfn deep() {}"),
        ]);
        assert!(g.is_worker("crates/core/src/other.rs", 0), "same-named method reached");
        assert!(g.is_worker("crates/core/src/other.rs", 1));
    }

    #[test]
    fn macros_are_not_calls() {
        let (_, g) = graph(&[(
            "crates/tensor/src/par.rs",
            "fn worker_loop() { log!(target_fn()); helper!(); }\nfn helper() {}",
        )]);
        // `helper!()` is a macro, not a call to fn helper — but
        // `target_fn()` inside the macro args still counts (token-level).
        assert!(!g.is_worker("crates/tensor/src/par.rs", 1));
    }

    #[test]
    fn no_roots_in_scope() {
        let rel = "crates/nn/src/lib.rs";
        let (_, g) = graph(&[(rel, "fn worker_loop() { helper(); }\nfn helper() {}")]);
        assert!(!g.is_worker(rel, 0), "`worker_loop` outside tensor/src/par.rs is not a root");
    }

    #[test]
    fn worker_reachability_from_worker_loop() {
        let (parsed, g) = graph(&[(
            "crates/tensor/src/par.rs",
            "fn worker_loop() { run_job(); }\nfn run_job() {}\nfn run_chunks() { helper(); }\nfn helper() {}",
        )]);
        let rel = &parsed[0].0;
        assert!(g.is_worker(rel, 0));
        assert!(g.is_worker(rel, 1), "called from the worker body");
        assert!(!g.is_worker(rel, 2), "dispatch is not worker-side");
    }

    #[test]
    fn dispatch_reachability_is_reversed() {
        let (_, g) = graph(&[
            ("crates/tensor/src/par.rs", "pub fn run_chunks() {}"),
            (
                "crates/tensor/src/matmul.rs",
                "pub fn matmul_par() { run_chunks(); }\npub fn serial() {}",
            ),
        ]);
        assert!(g.reaches_dispatch("run_chunks"), "the target itself");
        assert!(g.reaches_dispatch("matmul_par"), "direct caller");
        assert!(!g.reaches_dispatch("serial"));
    }

    #[test]
    fn test_fns_never_seed_reachability() {
        let (_, g) = graph(&[(
            "crates/tensor/src/par.rs",
            "#[cfg(test)]\nmod t { pub fn worker_loop() { secret(); } }\nfn secret() {}",
        )]);
        assert!(!g.is_worker("crates/tensor/src/par.rs", 1));
    }
}
