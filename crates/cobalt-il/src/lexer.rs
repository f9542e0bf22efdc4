//! Lexer for the textual form of the intermediate language and of the
//! Cobalt rules (`cobalt-dsl`) that embed IL statements as patterns.
//!
//! One token set serves both parsers. Rule text adds four lexemes:
//! `=>`, the `...` wildcard, `$`-names (`$P`: a `$` then an upper-case
//! letter) and `#` line comments. The IL parser accepts none of the
//! first three tokens, so IL text that uses them is a parse error;
//! comments (`//`, `#` and `/* */`) are skipped in both.

use crate::error::ParseError;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// The kinds of token in IL source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A `$`-prefixed pattern-variable name such as `$P` (rule text
    /// only; the text keeps the `$`).
    PatName(String),
    /// An unsigned integer literal (signs are handled by the parser).
    Int(i64),
    /// `:=`
    Assign,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `*`
    Star,
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    BangEq,
    /// `!`
    Bang,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=>` (rule text only).
    FatArrow,
    /// `...`, the wildcard (rule text only).
    Ellipsis,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::PatName(s) => format!("pattern variable `{s}`"),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            TokenKind::Assign => ":=",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Star => "*",
            TokenKind::Amp => "&",
            TokenKind::AmpAmp => "&&",
            TokenKind::PipePipe => "||",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::EqEq => "==",
            TokenKind::BangEq => "!=",
            TokenKind::Bang => "!",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::FatArrow => "=>",
            TokenKind::Ellipsis => "...",
            TokenKind::Ident(_) | TokenKind::PatName(_) | TokenKind::Int(_) | TokenKind::Eof => {
                unreachable!()
            }
        }
    }
}

/// Tokenizes IL or rule source text.
///
/// Line comments start with `//` or `#` and run to end of line; block
/// comments run from `/*` to `*/`.
///
/// # Errors
///
/// Returns a [`ParseError`] on unrecognized characters or malformed
/// integer literals.
pub fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token {
                kind: $kind,
                line,
                col,
            });
            i += $len;
            col += $len;
        }};
    }
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                i += 1;
                col += 1;
            }
            c if c == '#' || (c == '/' && next == Some('/')) => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let (start_line, start_col) = (line, col);
                i += 2;
                col += 2;
                loop {
                    match (bytes.get(i), bytes.get(i + 1)) {
                        (Some('*'), Some('/')) => {
                            i += 2;
                            col += 2;
                            break;
                        }
                        (Some('\n'), _) => {
                            i += 1;
                            line += 1;
                            col = 1;
                        }
                        (Some(_), _) => {
                            i += 1;
                            col += 1;
                        }
                        (None, _) => {
                            return Err(ParseError::new(
                                start_line,
                                start_col,
                                "unterminated block comment",
                            ))
                        }
                    }
                }
            }
            ':' if next == Some('=') => push!(TokenKind::Assign, 2),
            ';' => push!(TokenKind::Semi, 1),
            ',' => push!(TokenKind::Comma, 1),
            '(' => push!(TokenKind::LParen, 1),
            ')' => push!(TokenKind::RParen, 1),
            '{' => push!(TokenKind::LBrace, 1),
            '}' => push!(TokenKind::RBrace, 1),
            '*' => push!(TokenKind::Star, 1),
            '&' if next == Some('&') => push!(TokenKind::AmpAmp, 2),
            '&' => push!(TokenKind::Amp, 1),
            '|' if next == Some('|') => push!(TokenKind::PipePipe, 2),
            '+' => push!(TokenKind::Plus, 1),
            '-' => push!(TokenKind::Minus, 1),
            '/' => push!(TokenKind::Slash, 1),
            '%' => push!(TokenKind::Percent, 1),
            '=' if next == Some('=') => push!(TokenKind::EqEq, 2),
            '=' if next == Some('>') => push!(TokenKind::FatArrow, 2),
            '.' if next == Some('.') && bytes.get(i + 2) == Some(&'.') => {
                push!(TokenKind::Ellipsis, 3)
            }
            '!' if next == Some('=') => push!(TokenKind::BangEq, 2),
            '!' => push!(TokenKind::Bang, 1),
            '<' if next == Some('=') => push!(TokenKind::Le, 2),
            '<' => push!(TokenKind::Lt, 1),
            '>' if next == Some('=') => push!(TokenKind::Ge, 2),
            '>' => push!(TokenKind::Gt, 1),
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let n: i64 = text.parse().map_err(|_| {
                    ParseError::new(line, col, format!("integer literal `{text}` out of range"))
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(n),
                    line,
                    col,
                });
                col += i - start;
            }
            '$' if !next.is_some_and(|c| c.is_ascii_uppercase()) => {
                return Err(ParseError::new(
                    line,
                    col,
                    "`$` must start a pattern variable such as `$P`",
                ))
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                tokens.push(Token {
                    kind: if c == '$' {
                        TokenKind::PatName(text)
                    } else {
                        TokenKind::Ident(text)
                    },
                    line,
                    col,
                });
                col += i - start;
            }
            other => {
                return Err(ParseError::new(
                    line,
                    col,
                    format!("unrecognized character `{other}`"),
                ))
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("x := 5;"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(5),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("== != <= >= && || :="),
            vec![
                TokenKind::EqEq,
                TokenKind::BangEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
                TokenKind::Assign,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x // the variable\n;"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_and_col_tracking() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn block_comments_skipped_and_tracked() {
        let toks = tokenize("/* one\ntwo */ x").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(toks[0].line, 2);
        let err = tokenize("/* never closed").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn rule_lexemes_and_hash_comments() {
        assert_eq!(
            kinds("$P => ... # to end of line\n$C2"),
            vec![
                TokenKind::PatName("$P".into()),
                TokenKind::FatArrow,
                TokenKind::Ellipsis,
                TokenKind::PatName("$C2".into()),
                TokenKind::Eof
            ]
        );
        for bad in ["$", "$x", "$1", "..", "="] {
            assert!(tokenize(bad).is_err(), "`{bad}` must not lex");
        }
    }

    #[test]
    fn rejects_unknown_char() {
        let err = tokenize("x @ y").unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn rejects_huge_literal() {
        let err = tokenize("99999999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"));
    }
}
