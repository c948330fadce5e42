//! Tokenizer for GOSpeL specifications.

use std::fmt;

/// Token kinds. Keywords are delivered as [`TokenKind::Ident`] and
/// recognized case-insensitively by the parser.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` (direction-vector element)
    Assign,
    /// `*` (direction-vector wildcard)
    Star,
    /// `-` (negative literals)
    Minus,
    /// End of input.
    Eof,
}

/// A token with its 1-based source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The kind.
    pub kind: TokenKind,
    /// Source line.
    pub line: u32,
}

/// Lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// Source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected character `{}` on line {}", self.ch, self.line)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes GOSpeL source. `/* … */` block comments and `--`/`//` line
/// comments are skipped; whitespace (including newlines) only separates
/// tokens.
///
/// # Errors
///
/// Returns [`LexError`] on characters outside the language.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    // Every token is ASCII, so the scan walks bytes; a non-ASCII
    // character can only appear in a comment or as a lexing error.
    let bytes = src.as_bytes();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i < bytes.len() && !(bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/')) {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || c == b'@' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'@')
                {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_owned()),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut is_real = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == b'.'
                            && !is_real
                            && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    if bytes[i] == b'.' {
                        is_real = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let kind = if is_real {
                    TokenKind::Real(text.parse().map_err(|_| LexError { ch: '.', line })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| LexError { ch: '9', line })?)
                };
                out.push(Token { kind, line });
            }
            _ => {
                let (kind, adv) = match (c, bytes.get(i + 1)) {
                    (b'=', Some(b'=')) => (TokenKind::EqEq, 2),
                    (b'!', Some(b'=')) => (TokenKind::Ne, 2),
                    (b'<', Some(b'=')) => (TokenKind::Le, 2),
                    (b'>', Some(b'=')) => (TokenKind::Ge, 2),
                    (b'=', _) => (TokenKind::Assign, 1),
                    (b'<', _) => (TokenKind::Lt, 1),
                    (b'>', _) => (TokenKind::Gt, 1),
                    (b'(', _) => (TokenKind::LParen, 1),
                    (b')', _) => (TokenKind::RParen, 1),
                    (b'[', _) => (TokenKind::LBracket, 1),
                    (b']', _) => (TokenKind::RBracket, 1),
                    (b',', _) => (TokenKind::Comma, 1),
                    (b';', _) => (TokenKind::Semi, 1),
                    (b':', _) => (TokenKind::Colon, 1),
                    (b'.', _) => (TokenKind::Dot, 1),
                    (b'*', _) => (TokenKind::Star, 1),
                    (b'-', _) => (TokenKind::Minus, 1),
                    _ => {
                        let ch = src[i..].chars().next().unwrap_or('\0');
                        return Err(LexError { ch, line });
                    }
                };
                out.push(Token { kind, line });
                i += adv;
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn symbols_and_idents() {
        let k = kinds("any (Sj, pos): flow_dep(Si, Sj, (=));");
        assert!(k.contains(&TokenKind::Ident("flow_dep".into())));
        assert!(k.contains(&TokenKind::Assign));
        assert!(k.contains(&TokenKind::Semi));
        assert!(k.contains(&TokenKind::Colon));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("== != < <= > >="),
            vec![
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a /* block\ncomment */ b -- line\nc // another\nd");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Ident("d".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn direction_vector_tokens() {
        assert_eq!(
            kinds("(<,>,=,*)"),
            vec![
                TokenKind::LParen,
                TokenKind::Lt,
                TokenKind::Comma,
                TokenKind::Gt,
                TokenKind::Comma,
                TokenKind::Assign,
                TokenKind::Comma,
                TokenKind::Star,
                TokenKind::RParen,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_tracking() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn non_ascii_outside_comments_is_reported_whole() {
        assert_eq!(kinds("/* café */ a")[0], TokenKind::Ident("a".into()));
        assert_eq!(lex("a é").unwrap_err(), LexError { ch: 'é', line: 1 });
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("2.5")[0], TokenKind::Real(2.5));
    }
}
