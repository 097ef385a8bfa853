//! A lightweight item tree over the token stream from [`crate::lexer`].
//!
//! This is deliberately not a full Rust AST: the lint rules need to know
//! *where things are* — function bodies (token ranges), `use` declarations
//! with aliases, and which token spans are `#[cfg(test)]` code — not full
//! expression structure. Expression-level matching happens directly on the
//! token slices the items delimit.

use crate::lexer::{Token, TokenKind};

/// One `use` declaration leaf: the full original path and the name it binds
/// in this file (`use a::b::C as D` binds `D` to path `[a, b, C]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    /// Path segments of the imported item, outermost first.
    pub path: Vec<String>,
    /// Local binding name (the alias, or the path's last segment).
    pub name: String,
}

/// A function (free, method, or trait default) with its body span.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, when inside one.
    pub owner: Option<String>,
    /// Token range of the signature: from the `fn` keyword up to (not
    /// including) the body's `{` or the terminating `;`.
    pub sig: (usize, usize),
    /// Token range of the body including both braces, when present.
    pub body: Option<(usize, usize)>,
    /// `true` when the function (or an enclosing item) is test-only code.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// A parsed file: tokens plus the item structure the rules consume.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// The token stream (rules index into this).
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: Vec<bool>,
    /// Every `use` binding in the file (module scoping is ignored — the
    /// rules only need "is this name an alias of a hazardous type").
    pub uses: Vec<UseAlias>,
    /// Every function, in source order.
    pub fns: Vec<FnItem>,
}

/// Parser state threaded through item recursion.
struct Ctx {
    owner: Option<String>,
    in_test: bool,
}

/// Parses a token stream into the item structure.
pub fn parse(tokens: Vec<Token>) -> ParsedFile {
    let mut file = ParsedFile {
        in_test: vec![false; tokens.len()],
        tokens,
        uses: Vec::new(),
        fns: Vec::new(),
    };
    let end = file.tokens.len();
    let mut pos = 0usize;
    parse_items(&mut file, &mut pos, end, &Ctx { owner: None, in_test: false });
    file
}

/// `true` when a `cfg(...)`-style attribute text involves the `test`
/// predicate, or the attribute is `#[test]` itself.
fn attr_is_test(attr: &str) -> bool {
    let mut word = String::new();
    let mut saw_cfg_or_bare = attr.trim() == "test";
    for c in attr.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            if word == "test" {
                saw_cfg_or_bare = true;
            }
            word.clear();
        }
    }
    saw_cfg_or_bare
}

/// Parses items in `[*pos, end)`, appending into `file`.
fn parse_items(file: &mut ParsedFile, pos: &mut usize, end: usize, ctx: &Ctx) {
    while *pos < end {
        let item_start = *pos;
        let attrs = collect_attrs(&file.tokens, pos, end);
        let in_test = ctx.in_test || attrs.iter().any(|a| attr_is_test(a));
        skip_visibility(&file.tokens, pos, end);
        // Leading modifiers before `fn`.
        while *pos < end
            && file.tokens[*pos].kind == TokenKind::Ident
            && matches!(file.tokens[*pos].text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            // `const` may start a const item instead of a `const fn`.
            if file.tokens[*pos].text == "const"
                && !next_is(&file.tokens, *pos + 1, end, &["fn", "async", "unsafe", "extern"])
            {
                break;
            }
            if file.tokens[*pos].text == "extern" {
                // `extern "C" fn` (modifier) vs `extern crate`/`extern {}`.
                let after = if *pos + 1 < end && file.tokens[*pos + 1].kind == TokenKind::Str {
                    *pos + 2
                } else {
                    *pos + 1
                };
                if !next_is(&file.tokens, after, end, &["fn"]) {
                    break;
                }
            }
            *pos += 1;
            if *pos < end && file.tokens[*pos].kind == TokenKind::Str {
                *pos += 1; // the ABI string of `extern "C" fn`
            }
        }
        if *pos >= end {
            mark_test(file, item_start, end, in_test);
            break;
        }
        let tok = &file.tokens[*pos];
        let kw = if tok.kind == TokenKind::Ident { tok.text.as_str() } else { "" };
        match kw {
            "fn" => parse_fn(file, pos, end, ctx, in_test, item_start),
            "mod" => {
                *pos += 1;
                skip_name(&file.tokens, pos, end);
                if *pos < end && file.tokens[*pos].is_punct("{") {
                    let close = matching_brace(&file.tokens, *pos, end);
                    *pos += 1;
                    let inner =
                        Ctx { owner: ctx.owner.clone(), in_test: in_test || ctx.in_test };
                    parse_items(file, pos, close, &inner);
                    *pos = (close + 1).min(end);
                } else {
                    skip_past_semi(&file.tokens, pos, end);
                }
            }
            "impl" | "trait" => {
                let is_impl = kw == "impl";
                *pos += 1;
                let owner = if is_impl {
                    parse_impl_header(&file.tokens, pos, end)
                } else {
                    let n = ident_text(&file.tokens, *pos);
                    skip_to_block_or_semi(&file.tokens, pos, end);
                    n
                };
                if *pos < end && file.tokens[*pos].is_punct("{") {
                    let close = matching_brace(&file.tokens, *pos, end);
                    *pos += 1;
                    let inner = Ctx { owner, in_test };
                    parse_items(file, pos, close, &inner);
                    *pos = (close + 1).min(end);
                } else {
                    skip_past_semi(&file.tokens, pos, end);
                }
            }
            "use" => {
                *pos += 1;
                parse_use_tree(file, pos, end, &mut Vec::new());
                skip_past_semi(&file.tokens, pos, end);
            }
            "struct" | "enum" | "union" => {
                *pos += 1;
                skip_to_block_or_semi(&file.tokens, pos, end);
                if *pos < end && file.tokens[*pos].is_punct("{") {
                    *pos = (matching_brace(&file.tokens, *pos, end) + 1).min(end);
                } else {
                    skip_past_semi(&file.tokens, pos, end); // tuple or unit struct
                }
            }
            "macro_rules" => {
                *pos += 1; // `!`, name, then a balanced group
                while *pos < end && !file.tokens[*pos].is_punct("{") {
                    *pos += 1;
                }
                if *pos < end {
                    *pos = (matching_brace(&file.tokens, *pos, end) + 1).min(end);
                }
            }
            "type" | "static" | "const" => {
                *pos += 1;
                skip_past_semi(&file.tokens, pos, end);
            }
            "extern" => {
                // `extern crate x;` or `extern { … }`.
                *pos += 1;
                skip_to_block_or_semi(&file.tokens, pos, end);
                if *pos < end && file.tokens[*pos].is_punct("{") {
                    *pos = (matching_brace(&file.tokens, *pos, end) + 1).min(end);
                } else {
                    *pos += 1;
                }
            }
            _ => {
                // Unknown leading token (stray macro call, misparse):
                // advance one token so parsing always terminates.
                *pos += 1;
            }
        }
        mark_test(file, item_start, *pos, in_test);
    }
}

/// Marks `[from, to)` as test tokens when `in_test`.
fn mark_test(file: &mut ParsedFile, from: usize, to: usize, in_test: bool) {
    if in_test {
        let hi = to.min(file.in_test.len());
        for flag in &mut file.in_test[from..hi] {
            *flag = true;
        }
    }
}

/// Collects `#[…]` attribute groups (skipping inner `#![…]` ones), returning
/// each as its tokens joined by single spaces.
fn collect_attrs(tokens: &[Token], pos: &mut usize, end: usize) -> Vec<String> {
    let mut attrs = Vec::new();
    while *pos < end && tokens[*pos].is_punct("#") {
        let mut k = *pos + 1;
        let inner = k < end && tokens[k].is_punct("!");
        if inner {
            k += 1;
        }
        if k >= end || !tokens[k].is_punct("[") {
            break;
        }
        let close = matching_delim(tokens, k, end, "[", "]");
        if !inner {
            let text: Vec<&str> =
                tokens[k + 1..close.min(end)].iter().map(|t| t.text.as_str()).collect();
            attrs.push(text.join(" "));
        }
        *pos = (close + 1).min(end);
    }
    attrs
}

/// Skips `pub`, `pub(crate)`, `pub(in path)` etc.
fn skip_visibility(tokens: &[Token], pos: &mut usize, end: usize) {
    if *pos < end && tokens[*pos].is_ident("pub") {
        *pos += 1;
        if *pos < end && tokens[*pos].is_punct("(") {
            *pos = (matching_delim(tokens, *pos, end, "(", ")") + 1).min(end);
        }
    }
}

/// `true` when the token at `at` is an ident with one of the given texts.
fn next_is(tokens: &[Token], at: usize, end: usize, texts: &[&str]) -> bool {
    at < end && texts.iter().any(|t| tokens[at].is_ident(t))
}

/// The ident text at `at`, if any.
fn ident_text(tokens: &[Token], at: usize) -> Option<String> {
    tokens.get(at).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone())
}

/// Skips one identifier when present.
fn skip_name(tokens: &[Token], pos: &mut usize, end: usize) {
    if *pos < end && tokens[*pos].kind == TokenKind::Ident {
        *pos += 1;
    }
}

/// Index of the `}` matching the `{` at `open` (or `end - 1` when
/// unterminated).
fn matching_brace(tokens: &[Token], open: usize, end: usize) -> usize {
    matching_delim(tokens, open, end, "{", "}")
}

/// Index of the closing delimiter matching the opener at `open`.
fn matching_delim(tokens: &[Token], open: usize, end: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < end {
        if tokens[k].is_punct(o) {
            depth += 1;
        } else if tokens[k].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    end.saturating_sub(1)
}

/// Advances past the next `;` at bracket depth zero (consuming it), skipping
/// balanced `{}`/`()`/`[]` groups on the way.
fn skip_past_semi(tokens: &[Token], pos: &mut usize, end: usize) {
    while *pos < end {
        let t = &tokens[*pos];
        if t.is_punct(";") {
            *pos += 1;
            return;
        }
        if t.is_punct("{") {
            *pos = (matching_brace(tokens, *pos, end) + 1).min(end);
            continue;
        }
        if t.is_punct("(") {
            *pos = (matching_delim(tokens, *pos, end, "(", ")") + 1).min(end);
            continue;
        }
        if t.is_punct("[") {
            *pos = (matching_delim(tokens, *pos, end, "[", "]") + 1).min(end);
            continue;
        }
        *pos += 1;
    }
}

/// Advances to the next top-level `{` or past a terminating `;`, skipping
/// balanced paren/bracket groups (so braces inside them don't confuse it).
fn skip_to_block_or_semi(tokens: &[Token], pos: &mut usize, end: usize) {
    while *pos < end {
        let t = &tokens[*pos];
        if t.is_punct("{") {
            return;
        }
        if t.is_punct(";") {
            return;
        }
        if t.is_punct("(") {
            *pos = (matching_delim(tokens, *pos, end, "(", ")") + 1).min(end);
            continue;
        }
        if t.is_punct("[") {
            *pos = (matching_delim(tokens, *pos, end, "[", "]") + 1).min(end);
            continue;
        }
        *pos += 1;
    }
}

/// Parses `fn name …` starting at the `fn` keyword.
fn parse_fn(
    file: &mut ParsedFile,
    pos: &mut usize,
    end: usize,
    ctx: &Ctx,
    in_test: bool,
    _item_start: usize,
) {
    let fn_kw = *pos;
    let line = file.tokens[fn_kw].line;
    *pos += 1;
    let name = ident_text(&file.tokens, *pos).unwrap_or_default();
    skip_name(&file.tokens, pos, end);
    skip_to_block_or_semi(&file.tokens, pos, end);
    let sig = (fn_kw, *pos);
    let body = if *pos < end && file.tokens[*pos].is_punct("{") {
        let close = matching_brace(&file.tokens, *pos, end);
        let b = (*pos, close);
        *pos = (close + 1).min(end);
        Some(b)
    } else {
        if *pos < end {
            *pos += 1; // the `;` of a bodyless trait method
        }
        None
    };
    file.fns.push(FnItem {
        name,
        owner: ctx.owner.clone(),
        sig,
        body,
        in_test: in_test || ctx.in_test,
        line,
    });
}

/// Parses the `impl` header after the keyword: skips generics, returns the
/// implemented type's name (for `impl Trait for Type`, the `Type`), and
/// leaves `pos` at the opening `{` (or a terminating `;`).
fn parse_impl_header(tokens: &[Token], pos: &mut usize, end: usize) -> Option<String> {
    // Generic parameters: skip a balanced `<…>` (counting `<<`/`>>` as two).
    if *pos < end && (tokens[*pos].is_punct("<") || tokens[*pos].is_punct("<<")) {
        skip_angles(tokens, pos, end);
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while *pos < end {
        let t = &tokens[*pos];
        if t.is_punct("{") || t.is_punct(";") {
            break;
        }
        if t.is_ident("for") {
            saw_for = true;
            *pos += 1;
            continue;
        }
        if t.is_ident("where") {
            // Bounds follow; the type name is settled.
            skip_to_block_or_semi(tokens, pos, end);
            break;
        }
        if t.is_punct("<") || t.is_punct("<<") {
            skip_angles(tokens, pos, end);
            continue;
        }
        if t.is_punct("(") {
            *pos = (matching_delim(tokens, *pos, end, "(", ")") + 1).min(end);
            continue;
        }
        if t.kind == TokenKind::Ident {
            if saw_for {
                after_for = Some(t.text.clone());
            } else {
                last_ident = Some(t.text.clone());
            }
        }
        *pos += 1;
    }
    after_for.or(last_ident)
}

/// Skips a balanced angle-bracket group starting at `<` (or `<<`), counting
/// the chars inside multi-char puncts.
fn skip_angles(tokens: &[Token], pos: &mut usize, end: usize) {
    let mut depth = 0i64;
    while *pos < end {
        let t = &tokens[*pos];
        if t.kind == TokenKind::Punct {
            for c in t.text.chars() {
                match c {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
            }
            // `->` contains `>` but closes nothing.
            if t.text == "->" {
                depth += 1;
            }
        }
        *pos += 1;
        if depth <= 0 {
            return;
        }
    }
}

/// Parses one `use` tree after the `use` keyword (or after a `::` inside a
/// group), appending leaf bindings. `prefix` holds the segments so far.
fn parse_use_tree(file: &mut ParsedFile, pos: &mut usize, end: usize, prefix: &mut Vec<String>) {
    let depth_at_entry = prefix.len();
    while let Some(t) = file.tokens.get(*pos) {
        if t.is_punct(";") || t.is_punct(",") || t.is_punct("}") {
            // A path ending without `as`/group binds its last segment.
            if prefix.len() > depth_at_entry || (depth_at_entry == 0 && !prefix.is_empty()) {
                if let Some(last) = prefix.last() {
                    if last != "*" {
                        file.uses.push(UseAlias { path: prefix.clone(), name: last.clone() });
                    }
                }
            }
            break;
        }
        if t.kind == TokenKind::Ident && t.text == "as" {
            *pos += 1;
            let alias = ident_text(&file.tokens, *pos).unwrap_or_default();
            skip_name(&file.tokens, pos, end);
            if !alias.is_empty() && alias != "_" {
                file.uses.push(UseAlias { path: prefix.clone(), name: alias });
            }
            // Consume up to the tree separator for the caller.
            while *pos < end {
                let t = &file.tokens[*pos];
                if t.is_punct(";") || t.is_punct(",") || t.is_punct("}") {
                    break;
                }
                *pos += 1;
            }
            break;
        }
        if t.is_punct("{") {
            let close = matching_brace(&file.tokens, *pos, end);
            *pos += 1;
            while *pos < close {
                let mut sub = prefix.clone();
                parse_use_tree(file, pos, close, &mut sub);
                if *pos < close && file.tokens[*pos].is_punct(",") {
                    *pos += 1;
                }
            }
            *pos = (close + 1).min(end);
            // Nothing binds after a group at this level.
            break;
        }
        if t.kind == TokenKind::Ident || t.kind == TokenKind::RawIdent || t.is_punct("*") {
            prefix.push(t.text.clone());
            *pos += 1;
            continue;
        }
        if t.is_punct("::") {
            *pos += 1;
            continue;
        }
        *pos += 1;
    }
    prefix.truncate(depth_at_entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(lex(src))
    }

    #[test]
    fn functions_and_bodies() {
        let f = parse_src("fn a() { 1 + 2 }\npub fn b(x: u32) -> u32 { x }\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "a");
        assert_eq!(f.fns[1].name, "b");
        assert!(f.fns[1].body.is_some());
        assert_eq!(f.fns[1].line, 2);
    }

    #[test]
    fn impl_methods_carry_owner() {
        let f = parse_src("impl Foo { fn m(&self) {} }\nimpl Tr for Bar { fn n(&self) {} }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Foo"));
        assert_eq!(f.fns[1].owner.as_deref(), Some("Bar"));
    }

    #[test]
    fn generic_impl_headers_parse() {
        let f = parse_src("impl<T: Clone> Stack<T> { fn push(&mut self, t: T) {} }");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Stack"));
    }

    #[test]
    fn cfg_test_marks_tokens_and_fns() {
        let f = parse_src("fn lib() {}\n#[cfg(test)]\nmod t {\n  fn helper() {}\n}\nfn lib2() {}");
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test, "fn inside #[cfg(test)] mod");
        assert!(!f.fns[2].in_test);
        // Tokens of the test mod are marked; surrounding fns are not.
        let helper_tok = f.tokens.iter().position(|t| t.is_ident("helper")).expect("helper token");
        assert!(f.in_test[helper_tok]);
        assert!(!f.in_test[0]);
    }

    #[test]
    fn test_attribute_marks_fn() {
        let f = parse_src("#[test]\nfn t() { x.unwrap(); }");
        assert!(f.fns[0].in_test);
    }

    #[test]
    fn cfg_any_test_marks_fn() {
        let f = parse_src("#[cfg(any(test, feature = \"x\"))]\nfn helper() {}");
        assert!(f.fns[0].in_test);
    }

    #[test]
    fn use_aliases_collected() {
        let f = parse_src(
            "use std::collections::HashMap as Map;\nuse std::time::{Instant, SystemTime as St};\nuse a::b::*;",
        );
        assert_eq!(f.uses.len(), 3);
        assert_eq!(f.uses[0].name, "Map");
        assert_eq!(f.uses[0].path, vec!["std", "collections", "HashMap"]);
        assert_eq!(f.uses[1].name, "Instant");
        assert_eq!(f.uses[2].name, "St");
        assert_eq!(f.uses[2].path, vec!["std", "time", "SystemTime"]);
    }

    #[test]
    fn struct_bodies_are_skipped() {
        let f = parse_src(
            "struct A(u32, f64);\nstruct B;\nstruct C { x: fn() -> u32, y: [u8; 4] }\nfn after() {}",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "after");
    }

    #[test]
    fn nested_mods_recurse() {
        let f = parse_src("mod outer { mod inner { fn deep() {} } }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "deep");
    }

    #[test]
    fn trait_default_methods() {
        let f = parse_src("trait T { fn required(&self); fn provided(&self) { todo() } }");
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].body.is_none());
        assert!(f.fns[1].body.is_some());
        assert_eq!(f.fns[1].owner.as_deref(), Some("T"));
    }

    #[test]
    fn where_clause_fn_finds_body() {
        let f = parse_src("fn g<T>(t: T) -> Vec<T> where T: Clone { vec![t] }");
        assert!(f.fns[0].body.is_some());
        assert_eq!(f.fns[0].name, "g");
    }

    #[test]
    fn const_item_vs_const_fn() {
        let f = parse_src("const X: u32 = 1;\nconst fn c() -> u32 { 2 }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "c");
    }
}
