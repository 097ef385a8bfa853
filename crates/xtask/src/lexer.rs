//! A hand-rolled, std-only Rust lexer producing position-tagged tokens.
//!
//! The lint rules used to scan source *lines* with substring matching, which
//! could not see through multi-line expressions and had to re-implement
//! string/comment blanking per rule. This lexer tokenizes real Rust — raw
//! strings with arbitrary hash counts, nested block comments, lifetimes vs.
//! char literals, float literals vs. method calls on integers — so every
//! rule downstream works on tokens and is immune to formatting.
//!
//! Comments (including doc comments) and whitespace produce no tokens;
//! string-literal tokens keep their full source text.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `as`). Keywords are not split
    /// out: rules match on text where needed.
    Ident,
    /// Raw identifier (`r#type`); text keeps the `r#` prefix.
    RawIdent,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Integer literal, including any suffix (`42`, `0xFF_u64`).
    Int,
    /// Float literal, including any suffix (`1.0`, `1e-3`, `2.5f32`).
    Float,
    /// Ordinary or byte string literal (`"…"`, `b"…"`); text keeps quotes.
    Str,
    /// Raw (byte) string literal (`r#"…"#`, `br"…"`); text keeps delimiters.
    RawStr,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation, maximal-munch joined (`::`, `+=`, `..=`, `->`).
    Punct,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// The token's source text, verbatim.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in chars) of the token's first character.
    pub col: usize,
}

impl Token {
    /// `true` for an identifier (raw or plain) whose text equals `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self.kind, TokenKind::Ident | TokenKind::RawIdent) && self.text == s
    }

    /// `true` for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Multi-char punctuation, longest first (maximal munch).
const PUNCTS: [&str; 25] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "..", "<<", ">>", "&&",
];

/// Internal cursor over the source chars.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line/column.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// `true` for chars that may start an identifier.
fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// `true` for chars that may continue an identifier.
fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens, skipping whitespace and all comments
/// (line, block — nested to any depth — and doc comments).
pub fn lex(source: &str) -> Vec<Token> {
    let mut cur =
        Cursor { chars: source.chars().collect(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                while let Some(c) = cur.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            '"' => out.push(lex_string(&mut cur, line, col, String::new())),
            'b' if cur.peek(1) == Some('"') => {
                cur.bump();
                out.push(lex_string(&mut cur, line, col, "b".to_string()));
            }
            'b' if cur.peek(1) == Some('\'') => {
                cur.bump();
                out.push(lex_char_literal(&mut cur, line, col, "b".to_string()));
            }
            'b' if cur.peek(1) == Some('r') && matches!(cur.peek(2), Some('"') | Some('#')) => {
                cur.bump();
                cur.bump();
                if let Some(tok) = lex_raw_string(&mut cur, line, col, "br".to_string()) {
                    out.push(tok);
                } else {
                    out.push(ident_from(&mut cur, line, col, "br".to_string()));
                }
            }
            'r' if matches!(cur.peek(1), Some('"') | Some('#')) => {
                cur.bump();
                if let Some(tok) = lex_raw_string(&mut cur, line, col, "r".to_string()) {
                    out.push(tok);
                } else if cur.peek(0) == Some('#') && cur.peek(1).is_some_and(is_ident_start) {
                    // Raw identifier r#type.
                    cur.bump();
                    let mut text = "r#".to_string();
                    while let Some(c) = cur.peek(0) {
                        if is_ident_continue(c) {
                            text.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    out.push(Token { kind: TokenKind::RawIdent, text, line, col });
                } else {
                    out.push(ident_from(&mut cur, line, col, "r".to_string()));
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' closes with a quote right
                // after one (possibly escaped) char; a lifetime never does.
                let is_char = match cur.peek(1) {
                    Some('\\') => true,
                    Some(c1) if c1 != '\'' => cur.peek(2) == Some('\''),
                    _ => false,
                };
                if is_char {
                    out.push(lex_char_literal(&mut cur, line, col, String::new()));
                } else {
                    cur.bump();
                    let mut text = "'".to_string();
                    while let Some(c) = cur.peek(0) {
                        if is_ident_continue(c) {
                            text.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    out.push(Token { kind: TokenKind::Lifetime, text, line, col });
                }
            }
            _ if c.is_ascii_digit() => out.push(lex_number(&mut cur, line, col)),
            _ if is_ident_start(c) => out.push(ident_from(&mut cur, line, col, String::new())),
            _ => {
                // Punctuation: maximal munch against the multi-char table.
                let mut matched = None;
                for p in PUNCTS {
                    let plen = p.chars().count();
                    if (0..plen).all(|k| cur.peek(k) == p.chars().nth(k)) {
                        matched = Some(p);
                        break;
                    }
                }
                let text = match matched {
                    Some(p) => {
                        for _ in 0..p.chars().count() {
                            cur.bump();
                        }
                        p.to_string()
                    }
                    None => {
                        cur.bump();
                        c.to_string()
                    }
                };
                out.push(Token { kind: TokenKind::Punct, text, line, col });
            }
        }
    }
    out
}

/// Continues lexing an identifier whose first chars are already in `text`
/// (or none), consuming ident chars from the cursor.
fn ident_from(cur: &mut Cursor, line: usize, col: usize, mut text: String) -> Token {
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    Token { kind: TokenKind::Ident, text, line, col }
}

/// Lexes a `"…"` string body (opening quote still unconsumed), handling
/// escapes; `prefix` carries an already-consumed `b`.
fn lex_string(cur: &mut Cursor, line: usize, col: usize, mut text: String) -> Token {
    text.push('"');
    cur.bump();
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '"' {
            break;
        }
    }
    Token { kind: TokenKind::Str, text, line, col }
}

/// Lexes a raw string after its `r`/`br` prefix was consumed. Returns
/// `None` (consuming nothing further) when the hashes are not followed by a
/// quote — the caller then falls back to a raw identifier or plain ident.
fn lex_raw_string(cur: &mut Cursor, line: usize, col: usize, mut text: String) -> Option<Token> {
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        return None;
    }
    for _ in 0..=hashes {
        // The hashes and the opening quote.
        text.push(cur.bump().expect("peeked chars are consumable"));
    }
    'body: while let Some(c) = cur.bump() {
        text.push(c);
        if c == '"' {
            for k in 0..hashes {
                if cur.peek(k) != Some('#') {
                    continue 'body;
                }
            }
            for _ in 0..hashes {
                text.push(cur.bump().expect("peeked chars are consumable"));
            }
            break;
        }
    }
    Some(Token { kind: TokenKind::RawStr, text, line, col })
}

/// Lexes a `'…'` char/byte literal (opening quote unconsumed).
fn lex_char_literal(cur: &mut Cursor, line: usize, col: usize, mut text: String) -> Token {
    text.push('\'');
    cur.bump();
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '\'' {
            break;
        }
    }
    Token { kind: TokenKind::Char, text, line, col }
}

/// Lexes a numeric literal: int/float with underscores, base prefixes,
/// exponents, and type suffixes. `1.max(0)` stays an int followed by a
/// method call; `1..2` stays two ints around a range.
fn lex_number(cur: &mut Cursor, line: usize, col: usize) -> Token {
    let mut text = String::new();
    let mut kind = TokenKind::Int;
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x') | Some('o') | Some('b')) {
        text.push(cur.bump().expect("digit peeked"));
        text.push(cur.bump().expect("base char peeked"));
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return Token { kind, text, line, col };
    }
    while let Some(c) = cur.peek(0) {
        if c.is_ascii_digit() || c == '_' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: `.` followed by a digit, or a bare trailing `.` that
    // is neither a range (`..`) nor a method/field access (`.ident`).
    if cur.peek(0) == Some('.') {
        match cur.peek(1) {
            Some(c1) if c1.is_ascii_digit() => {
                kind = TokenKind::Float;
                text.push('.');
                cur.bump();
                while let Some(c) = cur.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
            Some('.') => {}
            Some(c1) if is_ident_start(c1) => {}
            _ => {
                kind = TokenKind::Float;
                text.push('.');
                cur.bump();
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some('e') | Some('E')) {
        let sign = matches!(cur.peek(1), Some('+') | Some('-'));
        let digit_at = if sign { 2 } else { 1 };
        if cur.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
            kind = TokenKind::Float;
            text.push(cur.bump().expect("exponent char peeked"));
            if sign {
                text.push(cur.bump().expect("sign char peeked"));
            }
            while let Some(c) = cur.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Type suffix (u64, f32, usize…): the suffix decides int vs float.
    let mut suffix = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            suffix.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    if suffix.starts_with('f') {
        kind = TokenKind::Float;
    }
    text.push_str(&suffix);
    Token { kind, text, line, col }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("use std::collections::HashMap;");
        assert_eq!(toks[0], (TokenKind::Ident, "use".to_string()));
        assert_eq!(toks[1], (TokenKind::Ident, "std".to_string()));
        assert_eq!(toks[2], (TokenKind::Punct, "::".to_string()));
        assert_eq!(toks.last().expect("tokens present").1, ";");
    }

    #[test]
    fn comments_produce_no_tokens() {
        assert!(lex("// HashMap\n/* SystemTime */").is_empty());
        assert_eq!(lex("/* outer /* inner */ still comment */ x").len(), 1);
        assert!(lex("/// doc with Instant::now\n//! inner doc").is_empty());
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r####"let s = r##"quote "# inside"##;"####);
        let raw = toks.iter().find(|t| t.kind == TokenKind::RawStr).expect("raw string token");
        assert_eq!(raw.text, r####"r##"quote "# inside"##"####);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn numbers_float_vs_int() {
        assert_eq!(kinds("1.0")[0].0, TokenKind::Float);
        assert_eq!(kinds("1e-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("2f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("0xFF_u64")[0].0, TokenKind::Int);
        // Method call on an int is not a float.
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokenKind::Int, "1".to_string()));
        assert_eq!(toks[1], (TokenKind::Punct, ".".to_string()));
        // Range between ints stays two ints.
        let toks = kinds("0..10");
        assert_eq!(toks[0].0, TokenKind::Int);
        assert_eq!(toks[1], (TokenKind::Punct, "..".to_string()));
        assert_eq!(toks[2].0, TokenKind::Int);
        // Tuple access is int after dot.
        let toks = kinds("x.0");
        assert_eq!(toks[2], (TokenKind::Int, "0".to_string()));
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("a\n  bb\n");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn string_contents_preserved_for_measurement() {
        let toks = lex(".expect(\"short\")");
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).expect("string token");
        assert_eq!(s.text, "\"short\"");
        assert_eq!(lex("b\"bytes\"")[0].text, "b\"bytes\"");
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::RawIdent && t == "r#type"));
    }

    #[test]
    fn multichar_puncts_munch() {
        let toks = kinds("a += b ..= c -> d");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["+=", "..=", "->"]);
    }

    #[test]
    fn unterminated_inputs_do_not_hang() {
        assert!(!lex("\"unterminated").is_empty());
        assert!(!lex("r#\"unterminated").is_empty());
        assert!(lex("/* unterminated").is_empty());
    }
}
