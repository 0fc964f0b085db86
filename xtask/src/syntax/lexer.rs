//! A tiny Rust token lexer over the comment/string-masked source model.
//!
//! A source pass that needs to see *across* lines (multi-line
//! expressions, match arms, impl headers) reads a [`SourceFile`]'s masked
//! code as a flat token stream with line anchors. The lexer understands
//! just enough of Rust's lexical grammar for that: identifiers, numeric
//! literals, lifetimes and multi-character operators. Everything inside comments,
//! strings and char literals was already blanked by the masker.

use crate::syntax::source::SourceFile;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`match`, `Watts`, `budget_cap` …).
    Ident(String),
    /// Numeric literal, verbatim (`0`, `1.45`, `0x9e37`, `1_000` …).
    Num(String),
    /// Lifetime token (`'a`, `'static`).
    Lifetime(String),
    /// Operator or punctuation, possibly multi-character (`=>`, `::`, `+=`).
    Op(&'static str),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number in the original file.
    pub line: usize,
}

impl Token {
    /// `true` if the token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s == word)
    }

    /// `true` if the token is the operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(&self.tok, Tok::Op(s) if *s == op)
    }

    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Multi-character operators, longest first so maximal munch works.
const MULTI_OPS: &[&str] = &[
    "..=", "<<=", ">>=", "=>", "->", "::", "..", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
];

/// Single-character operators/punctuation the passes may see.
const SINGLE_OPS: &[(char, &str)] = &[
    ('+', "+"),
    ('-', "-"),
    ('*', "*"),
    ('/', "/"),
    ('%', "%"),
    ('=', "="),
    ('<', "<"),
    ('>', ">"),
    ('!', "!"),
    ('&', "&"),
    ('|', "|"),
    ('^', "^"),
    ('(', "("),
    (')', ")"),
    ('[', "["),
    (']', "]"),
    ('{', "{"),
    ('}', "}"),
    (',', ","),
    (';', ";"),
    (':', ":"),
    ('.', "."),
    ('#', "#"),
    ('?', "?"),
    ('@', "@"),
    ('_', "_"),
    ('$', "$"),
];

/// Lexes the masked code of `src` into a token stream.
///
/// A bare `_` is lexed as `Op("_")` (wildcard pattern); `_name` lexes as an
/// identifier. Attribute bodies (`#[...]`) are lexed like any other tokens;
/// passes that must skip them can match on `#` `[`.
pub fn lex(src: &SourceFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in src.code.iter().enumerate() {
        let line_no = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // Identifier / keyword / `_name`.
            if c.is_ascii_alphabetic() || (c == '_' && ident_follows(&chars, i + 1)) {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line: line_no,
                });
                continue;
            }
            // Numeric literal (the masker leaves these intact).
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric()
                        || chars[i] == '_'
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(char::is_ascii_digit)
                            && !chars[start..i].contains(&'.')))
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num(chars[start..i].iter().collect()),
                    line: line_no,
                });
                continue;
            }
            // Lifetime: `'` followed by an identifier (char literals are
            // masked, so a surviving quote starts a lifetime).
            if c == '\'' {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Lifetime(chars[start..i].iter().collect()),
                    line: line_no,
                });
                continue;
            }
            // Multi-character operator, longest match first.
            if let Some(op) = MULTI_OPS.iter().find(|op| {
                op.chars()
                    .enumerate()
                    .all(|(k, oc)| chars.get(i + k) == Some(&oc))
            }) {
                out.push(Token {
                    tok: Tok::Op(op),
                    line: line_no,
                });
                i += op.len();
                continue;
            }
            if let Some((_, op)) = SINGLE_OPS.iter().find(|(sc, _)| *sc == c) {
                out.push(Token {
                    tok: Tok::Op(op),
                    line: line_no,
                });
            }
            // Anything else (stray unicode) is skipped: masked content.
            i += 1;
        }
    }
    out
}

/// `true` if position `i` continues an identifier (so `_x` is an ident but
/// a bare `_` is the wildcard op).
fn ident_follows(chars: &[char], i: usize) -> bool {
    chars
        .get(i)
        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
}

/// Finds the index of the token matching the bracket at `open` (which must
/// be `(`, `[` or `{`), honouring nesting of all three bracket kinds.
pub fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<Token> {
        lex(&SourceFile::parse("t.rs", text))
    }

    #[test]
    fn lexes_idents_numbers_and_ops() {
        let t = toks("let p: Watts = v * i + 1.5;");
        let kinds: Vec<String> = t
            .iter()
            .map(|t| match &t.tok {
                Tok::Ident(s) => s.clone(),
                Tok::Num(s) => s.clone(),
                Tok::Op(s) => (*s).to_owned(),
                Tok::Lifetime(s) => s.clone(),
            })
            .collect();
        assert_eq!(
            kinds,
            ["let", "p", ":", "Watts", "=", "v", "*", "i", "+", "1.5", ";"]
        );
    }

    #[test]
    fn multi_char_ops_are_single_tokens() {
        let t = toks("a => b :: c += 0..=9");
        assert!(t.iter().any(|t| t.is_op("=>")));
        assert!(t.iter().any(|t| t.is_op("::")));
        assert!(t.iter().any(|t| t.is_op("+=")));
        assert!(t.iter().any(|t| t.is_op("..=")));
    }

    #[test]
    fn wildcard_vs_underscore_ident() {
        let t = toks("_ => _x");
        assert!(t[0].is_op("_"));
        assert!(t[2].is_ident("_x"));
    }

    #[test]
    fn lines_are_tracked_across_breaks() {
        let t = toks("let a =\n    b + c;\n");
        assert_eq!(t[0].line, 1);
        let plus = t.iter().find(|t| t.is_op("+")).unwrap();
        assert_eq!(plus.line, 2);
    }

    #[test]
    fn comments_and_strings_yield_no_tokens() {
        let t = toks("// match _ => nope\nlet s = \"match _\";\n");
        assert!(!t.iter().any(|t| t.is_ident("match")));
        assert!(!t.iter().any(|t| t.is_op("_")));
    }

    #[test]
    fn matching_close_honours_nesting() {
        let t = toks("f(a, (b + c), [d])");
        let open = t.iter().position(|t| t.is_op("(")).unwrap();
        let close = matching_close(&t, open).unwrap();
        assert!(t[close].is_op(")"));
        assert_eq!(close, t.len() - 1);
    }

    #[test]
    fn float_field_access_is_not_a_float_literal() {
        // `x.0 + y` must lex `.` `0`, not a float `0.…`; and tuple index
        // after a number (`1.0.max`) stays sane.
        let t = toks("x.0 + y");
        assert!(t[1].is_op("."));
        assert!(matches!(&t[2].tok, Tok::Num(n) if n == "0"));
    }

    #[test]
    fn lifetimes_lex_as_lifetimes() {
        let t = toks("fn f<'a>(x: &'a str) {}");
        assert!(t
            .iter()
            .any(|t| matches!(&t.tok, Tok::Lifetime(l) if l == "'a")));
    }
}
