//! A token-level Rust lexer for the semantic lint engine.
//!
//! This is deliberately *not* a full Rust parser: it recognises exactly
//! the token classes the lint passes need to be sound against adversarial
//! source — identifiers (including raw `r#ident`s), lifetimes vs. char
//! literals (`'a` vs `'a'`), every string-literal family (plain, raw,
//! byte, raw-byte, C, with any number of `#` guards), byte chars,
//! numbers, line/block/doc comments (block comments nest), and
//! single-character punctuation. Everything the passes must never read
//! as code — comment text, string bodies, char bodies — is carried as an
//! opaque token with a span and a start line.
//!
//! The call-graph model ([`crate::model`]) and the taint/semantic passes
//! ([`crate::taint`], [`crate::semantic`]) walk the token stream.

/// Token classes distinguished by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `thread_rng`, `HashMap`).
    Ident,
    /// A raw identifier (`r#match`); the span includes the `r#` prefix.
    RawIdent,
    /// A lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
    /// `c"…"`. The span covers prefix, guards, and quotes.
    Str,
    /// A char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    Char,
    /// A numeric literal (`42`, `0xFF`, `1_000`, `2.5e-3`).
    Num,
    /// A single punctuation byte (`{`, `|`, `:` …). Multi-byte operators
    /// are delivered as consecutive punct tokens with adjacent spans.
    Punct,
    /// A comment. `doc` is true for `///`, `//!`, `/**`, `/*!` forms.
    Comment {
        /// Whether this is a doc comment rather than a plain one.
        doc: bool,
    },
}

/// One lexed token: kind plus byte span and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
}

/// A lexed source file: the token stream plus the source it indexes.
#[derive(Debug)]
pub struct Lexed<'s> {
    src: &'s str,
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
}

impl<'s> Lexed<'s> {
    /// The source text of a token.
    pub fn text(&self, t: &Token) -> &'s str {
        &self.src[t.start..t.end]
    }

    /// The identifier name of an `Ident`/`RawIdent` token (`r#` prefix
    /// stripped), or the token text for anything else.
    pub fn name(&self, t: &Token) -> &'s str {
        let s = self.text(t);
        if t.kind == TokenKind::RawIdent {
            &s[2..]
        } else {
            s
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Length in bytes of the UTF-8 codepoint starting at `b`.
fn cp_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// String-literal prefixes: (`prefix`, may the body be raw).
const STR_PREFIXES: [&str; 5] = ["r", "br", "b", "cr", "c"];

/// Lexes `src` into a token stream. Never fails: malformed or
/// unterminated constructs degrade to the longest token that can be
/// formed, and lexing always consumes the whole input.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut tokens = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;
        // Line comment (`//`, `///`, `//!`).
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let doc = matches!(b.get(i + 2), Some(&b'/') | Some(&b'!'))
                // `////…` separators are plain comments, not docs.
                && b.get(i + 3) != Some(&b'/');
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Comment { doc },
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // Block comment, nesting.
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let doc = (b.get(i + 2) == Some(&b'*') && b.get(i + 3) != Some(&b'/'))
                || b.get(i + 2) == Some(&b'!');
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Comment { doc },
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // Identifier, keyword, or a prefixed literal (r"…", b'…', r#id).
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < b.len() && is_ident_cont(b[j]) {
                j += 1;
            }
            let word = &src[i..j];
            // Raw / byte / C string: prefix + optional `#` guards + `"`.
            if STR_PREFIXES.contains(&word) {
                let mut k = j;
                let raw_ok = word.contains('r');
                let mut hashes = 0usize;
                while raw_ok && b.get(k) == Some(&b'#') {
                    hashes += 1;
                    k += 1;
                }
                if b.get(k) == Some(&b'"') {
                    i = scan_string_body(b, k + 1, hashes, word.contains('r'), &mut line);
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        start,
                        end: i,
                        line: start_line,
                    });
                    continue;
                }
                // Byte char: `b'x'`, `b'\n'`.
                if word == "b" && b.get(j) == Some(&b'\'') {
                    if let Some(end) = scan_char_body(b, j + 1) {
                        i = end;
                        tokens.push(Token {
                            kind: TokenKind::Char,
                            start,
                            end: i,
                            line: start_line,
                        });
                        continue;
                    }
                }
            }
            // Raw identifier: `r#ident`.
            if word == "r"
                && b.get(j) == Some(&b'#')
                && b.get(j + 1).copied().is_some_and(is_ident_start)
            {
                let mut k = j + 2;
                while k < b.len() && is_ident_cont(b[k]) {
                    k += 1;
                }
                i = k;
                tokens.push(Token {
                    kind: TokenKind::RawIdent,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            i = j;
            tokens.push(Token {
                kind: TokenKind::Ident,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // Plain string literal.
        if c == b'"' {
            i = scan_string_body(b, i + 1, 0, false, &mut line);
            tokens.push(Token {
                kind: TokenKind::Str,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // `'`: char literal or lifetime. A char closes after one escape
        // or one codepoint; otherwise an identifier head means lifetime.
        if c == b'\'' {
            if let Some(end) = scan_char_body(b, i + 1) {
                i = end;
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            if b.get(i + 1).copied().is_some_and(is_ident_start) {
                let mut j = i + 2;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                i = j;
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            // Lone quote (malformed): deliver as punct, keep going.
            i += 1;
            tokens.push(Token {
                kind: TokenKind::Punct,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // Number: digits, then suffix/hex/underscore runs, then one
        // fraction part if a digit follows the dot (`1.5`, not `1..n`).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                j += 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                // Exponent sign: `2.5e-3`.
                if j > 0
                    && matches!(b[j - 1], b'e' | b'E')
                    && matches!(b.get(j), Some(&b'+') | Some(&b'-'))
                {
                    j += 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                }
            }
            i = j;
            tokens.push(Token {
                kind: TokenKind::Num,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }
        // Anything else: one punctuation byte.
        i += 1;
        tokens.push(Token {
            kind: TokenKind::Punct,
            start,
            end: i,
            line: start_line,
        });
    }
    Lexed { src, tokens }
}

/// Scans a string body starting just past the opening quote; returns the
/// offset one past the closing quote (and its `#` guards). `raw` bodies
/// ignore escapes; non-raw bodies honour `\"` and `\\`.
fn scan_string_body(b: &[u8], mut j: usize, hashes: usize, raw: bool, line: &mut usize) -> usize {
    while j < b.len() {
        match b[j] {
            b'\\' if !raw => {
                // Skip the escaped byte (if any) — counting an escaped
                // newline (string line-continuation) like any other.
                if b.get(j + 1) == Some(&b'\n') {
                    *line += 1;
                }
                j += 2;
            }
            b'"' => {
                let guards = &b[j + 1..];
                if guards.len() >= hashes && guards.iter().take(hashes).all(|&h| h == b'#') {
                    return j + 1 + hashes;
                }
                j += 1;
            }
            b'\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j.min(b.len())
}

/// Tries to scan a char-literal body starting just past the opening
/// quote. Returns the offset one past the closing quote, or `None` if
/// this is not a char literal (so the caller treats `'` as a lifetime).
fn scan_char_body(b: &[u8], j: usize) -> Option<usize> {
    match b.get(j) {
        Some(&b'\\') => {
            // Escape: skip `\`, the escape head, then any `u{…}` payload,
            // up to the closing quote.
            let mut k = j + 2;
            if b.get(j + 1) == Some(&b'u') && b.get(k) == Some(&b'{') {
                while k < b.len() && b[k] != b'}' {
                    k += 1;
                }
                k += 1;
            } else if matches!(b.get(j + 1), Some(&b'x')) {
                k += 2;
            }
            (b.get(k) == Some(&b'\'')).then_some(k + 1)
        }
        Some(&c) if c != b'\'' && c != b'\n' => {
            let k = j + cp_len(c);
            (b.get(k) == Some(&b'\'')).then_some(k + 1)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let l = lex(src);
        l.tokens
            .iter()
            .map(|t| (t.kind, l.text(t).to_string()))
            .collect()
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let got = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        assert!(got.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(got.contains(&(TokenKind::Char, "'a'".into())));
        assert!(got.contains(&(TokenKind::Char, "'\\n'".into())));
    }

    #[test]
    fn raw_identifiers() {
        let l = lex("fn r#match(r#type: u8) {}");
        let raw: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::RawIdent)
            .map(|t| l.name(t))
            .collect();
        assert_eq!(raw, ["match", "type"]);
    }

    #[test]
    fn string_families() {
        for src in [
            "\"plain\"",
            "r\"raw\"",
            "r#\"guarded \" quote\"#",
            "b\"bytes\"",
            "br#\"raw bytes\"#",
            "c\"c string\"",
        ] {
            let l = lex(src);
            assert_eq!(l.tokens.len(), 1, "{src}");
            assert_eq!(l.tokens[0].kind, TokenKind::Str, "{src}");
            assert_eq!(l.tokens[0].end, src.len(), "{src}");
        }
    }

    #[test]
    fn nested_block_comment_inside_raw_string_is_string() {
        let src = "let s = r#\"/* not /* a comment */\"#; done()";
        let l = lex(src);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && l.text(t) == "done"));
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Comment { .. })));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/* b\nc */\nd \"x\ny\" e";
        let l = lex(src);
        let line_of = |name: &str| {
            l.tokens
                .iter()
                .find(|t| l.text(t) == name)
                .map(|t| t.line)
                .unwrap()
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("d"), 4);
        assert_eq!(line_of("e"), 5);
    }

    #[test]
    fn escaped_newline_string_continuation_counts_its_line() {
        // `"…\` at end of line continues the literal on the next line;
        // the newline is consumed by the escape but must still count.
        let src = "let a = \"one \\\n    two\";\nlet b = 1;\n";
        let l = lex(src);
        let b_tok = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident && l.text(t) == "b")
            .unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn unterminated_constructs_do_not_hang_or_panic() {
        for src in ["\"open", "r#\"open", "/* open", "'", "b'", "r#"] {
            let _ = lex(src);
        }
    }
}
