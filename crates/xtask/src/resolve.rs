//! Per-file symbol table: `use`-alias resolution and coarse local type hints.
//!
//! The rules must see through renaming imports (`use std::sync::RwLock as
//! Shared` is still a lock) and need a rough idea of a local's type (a
//! `sim_time` that is `f64` is accumulated with float arithmetic on purpose;
//! a `total_bytes: u64` is not). Neither requires real type inference: alias
//! tails and `let`-binding annotations cover the patterns the workspace uses.

use crate::ast::ParsedFile;
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// Coarse classification of a local binding's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeHint {
    /// `f32`/`f64` (directly, or via an obvious float initializer).
    Float,
    /// A `Mutex`/`RwLock`: `.lock()`/`.read()`/`.write()` on it produces a
    /// guard the lock-order rule must track.
    Lock,
    /// Anything else (including unknown).
    Other,
}

/// Symbol information for one file.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Local import name → last segment of the original path.
    aliases: BTreeMap<String, String>,
    /// Local binding name → type hint, from `let` annotations/initializers
    /// and typed `fn` parameters. Shadowing keeps the *widest* hazard: once a
    /// name is known `Float` anywhere in the file it stays `Float` (the rules
    /// only use hints to *suppress* findings, so over-approximating Float is
    /// the safe direction).
    hints: BTreeMap<String, TypeHint>,
}

/// Lock types whose acquisition methods return scope-bound guards.
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Classifies a resolved (post-alias) type name.
fn classify_type_name(name: &str) -> TypeHint {
    if name == "f32" || name == "f64" {
        TypeHint::Float
    } else if LOCK_TYPES.contains(&name) {
        TypeHint::Lock
    } else {
        TypeHint::Other
    }
}

impl SymbolTable {
    /// Builds the table from a parsed file.
    pub fn build(file: &ParsedFile) -> Self {
        let mut table = SymbolTable::default();
        for u in &file.uses {
            if let Some(orig) = u.path.last() {
                if orig != &u.name {
                    table.aliases.insert(u.name.clone(), orig.clone());
                }
            }
        }
        table.collect_hints(file);
        table
    }

    /// Resolves a name through at most one alias hop to the original type
    /// name it imports (`Shared` → `RwLock`); unknown names map to themselves.
    fn canonical<'a>(&'a self, name: &'a str) -> &'a str {
        self.aliases.get(name).map_or(name, String::as_str)
    }

    /// The recorded hint for a local, if any.
    pub fn hint(&self, name: &str) -> Option<TypeHint> {
        self.hints.get(name).copied()
    }

    /// Records `name: hint`, never downgrading a hazard hint to Other.
    fn record(&mut self, name: &str, hint: TypeHint) {
        match self.hints.get(name) {
            Some(existing) if *existing != TypeHint::Other => {}
            _ => {
                self.hints.insert(name.to_string(), hint);
            }
        }
    }

    /// Scans token runs for `let name [: Ty] = init` and `name: Ty` inside
    /// `fn` signatures, recording hints. Token-level and heuristic by design.
    fn collect_hints(&mut self, file: &ParsedFile) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].is_ident("let") {
                // `let [mut] name …`
                let mut k = i + 1;
                if k < toks.len() && toks[k].is_ident("mut") {
                    k += 1;
                }
                let Some(name_tok) = toks.get(k) else { continue };
                if name_tok.kind != TokenKind::Ident {
                    continue; // destructuring patterns: no single hint
                }
                let name = name_tok.text.clone();
                k += 1;
                let hint = if k < toks.len() && toks[k].is_punct(":") {
                    self.hint_from_type(toks, k + 1)
                } else if k < toks.len() && toks[k].is_punct("=") {
                    hint_from_init(toks, k + 1, self)
                } else {
                    TypeHint::Other
                };
                self.record(&name, hint);
            } else if toks[i].is_punct(":")
                && i > 0
                && toks[i - 1].kind == TokenKind::Ident
                && (i < 2 || !toks[i - 2].is_punct(":"))
            {
                // A `name: Ty` pair (fn params, struct literals with typed
                // fields don't exist — struct literal fields are harmless to
                // record since hints only suppress findings).
                let hint = self.hint_from_type(toks, i + 1);
                if hint != TypeHint::Other {
                    let name = toks[i - 1].text.clone();
                    self.record(&name, hint);
                }
            }
        }
    }

    /// Classifies the type starting at token `at`.
    fn hint_from_type(&self, toks: &[crate::lexer::Token], mut at: usize) -> TypeHint {
        // Skip leading `&`, `&mut`, `'a`.
        while at < toks.len()
            && (toks[at].is_punct("&")
                || toks[at].is_punct("&&")
                || toks[at].is_ident("mut")
                || toks[at].kind == TokenKind::Lifetime)
        {
            at += 1;
        }
        let Some(t) = toks.get(at) else { return TypeHint::Other };
        if t.kind != TokenKind::Ident {
            return TypeHint::Other;
        }
        classify_type_name(self.canonical(&t.text))
    }
}

/// Classifies an initializer expression starting at token `at`: a float
/// literal (or one wrapped in a unary minus/paren) hints Float; calling a
/// `Mutex::new`-style constructor hints Lock.
fn hint_from_init(toks: &[crate::lexer::Token], mut at: usize, table: &SymbolTable) -> TypeHint {
    while at < toks.len() && (toks[at].is_punct("-") || toks[at].is_punct("(")) {
        at += 1;
    }
    let Some(t) = toks.get(at) else { return TypeHint::Other };
    match t.kind {
        TokenKind::Float => TypeHint::Float,
        TokenKind::Ident => {
            let name = table.canonical(&t.text);
            let ctor = toks.get(at + 1).is_some_and(|n| n.is_punct("::"));
            match classify_type_name(name) {
                hint if ctor && hint != TypeHint::Other && hint != TypeHint::Float => hint,
                _ => TypeHint::Other,
            }
        }
        _ => TypeHint::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn table(src: &str) -> SymbolTable {
        SymbolTable::build(&parse(lex(src)))
    }

    #[test]
    fn alias_resolves_to_original_tail() {
        let t = table(
            "use std::sync::RwLock as Shared;\nfn f() { let a: Shared<u32> = x; let b = Shared::new(0); }",
        );
        assert_eq!(t.canonical("Shared"), "RwLock");
        assert_eq!(t.canonical("Vec"), "Vec");
        assert_eq!(t.hint("a"), Some(TypeHint::Lock));
        assert_eq!(t.hint("b"), Some(TypeHint::Lock));
    }

    #[test]
    fn lock_hints_from_fields_and_ctors() {
        let t = table(
            "struct Pool { jobs: Mutex<Sender<Job>> }\nfn f() { let state = Mutex::new(LinkState::default()); let r: RwLock<u32> = RwLock::new(0); }",
        );
        assert_eq!(t.hint("jobs"), Some(TypeHint::Lock));
        assert_eq!(t.hint("state"), Some(TypeHint::Lock));
        assert_eq!(t.hint("r"), Some(TypeHint::Lock));
    }

    #[test]
    fn float_hints_from_annotation_and_literal() {
        let t = table("fn f() { let mut sim_time = 0.0f64; let x: f32 = y; let n = 3; }");
        assert_eq!(t.hint("sim_time"), Some(TypeHint::Float));
        assert_eq!(t.hint("x"), Some(TypeHint::Float));
        assert_eq!(t.hint("n"), Some(TypeHint::Other));
        assert_eq!(t.hint("missing"), None);
    }

    #[test]
    fn fn_param_hints() {
        let t = table("fn f(rate_ms: f64, total_bytes: u64) {}");
        assert_eq!(t.hint("rate_ms"), Some(TypeHint::Float));
        // u64 params record nothing (Other hints from `:` pairs are skipped).
        assert_eq!(t.hint("total_bytes"), None);
    }

    #[test]
    fn float_hint_survives_integer_shadowing() {
        let t = table("fn f() { let dt: f64 = 0.1; }\nfn g() { let dt = 3; }");
        assert_eq!(t.hint("dt"), Some(TypeHint::Float));
    }

    #[test]
    fn reference_types_resolve_through_amp() {
        let t = table("fn f(weights: &mut f64) {}");
        assert_eq!(t.hint("weights"), Some(TypeHint::Float));
    }
}
