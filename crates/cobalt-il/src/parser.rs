//! Recursive-descent parser for the textual intermediate language.
//!
//! Concrete syntax (statements are `;`-separated and implicitly indexed
//! from 0 within each procedure, so branch targets are plain indices):
//!
//! ```text
//! proc main(x) {
//!     decl y;
//!     y := 5;
//!     if x goto 4 else 5;
//!     y := y + 1;
//!     return y;
//!     return x;
//! }
//! ```
//!
//! The [`Cursor`] and [`binop`] here are also the Cobalt rule parser's
//! (`cobalt-dsl`), which reads rule text with the same tokens.

use crate::ast::{BaseExpr, Expr, Lhs, OpKind, Proc, Program, Stmt, Var};
use crate::error::ParseError;
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = cobalt_il::parse_program(
///     "proc main(x) { decl y; y := x + 1; return y; }",
/// )?;
/// assert_eq!(prog.procs.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Cursor::new(src)?;
    let mut procs = Vec::new();
    while !p.at_eof() {
        procs.push(p.parse_proc()?);
    }
    Ok(Program::new(procs))
}

/// Parses a single statement, e.g. `"x := y + 1"`.
///
/// A trailing semicolon is optional.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s = cobalt_il::parse_stmt("*p := 3")?;
/// assert_eq!(s.to_string(), "*p := 3");
/// # Ok(())
/// # }
/// ```
pub fn parse_stmt(src: &str) -> Result<Stmt, ParseError> {
    let mut p = Cursor::new(src)?;
    let s = p.parse_stmt()?;
    let _ = p.eat(&TokenKind::Semi);
    p.expect(TokenKind::Eof)?;
    Ok(s)
}

/// Parses a single expression, e.g. `"a + b"` or `"&x"`.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Cursor::new(src)?;
    let e = p.parse_expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// A position in the tokens of IL or rule text: the one token-level
/// interface of this crate's parser and of the Cobalt rule parser in
/// `cobalt-dsl`.
#[derive(Debug, Clone)]
pub struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
    /// Tokenizes `src` and starts at its first token, or returns the
    /// lexer's error.
    pub fn new(src: &str) -> Result<Cursor, ParseError> {
        Ok(Cursor {
            tokens: tokenize(src)?,
            pos: 0,
        })
    }

    /// The current token; at the end of input, the final `Eof`.
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    /// The kind of the token after the current one.
    pub fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Whether the current token is of `kind`.
    pub fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    /// Whether the input is exhausted.
    pub fn at_eof(&self) -> bool {
        self.at(&TokenKind::Eof)
    }

    /// Whether the current token is the identifier `kw`.
    pub fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    /// Consumes and returns the current token; `Eof` is never consumed.
    pub fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token if it is of `kind`.
    pub fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes the current token if it is the identifier `kw`.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// An error at the current token.
    pub fn err(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(t.line, t.col, message)
    }

    /// Consumes a token of `kind`, or fails naming the token found.
    pub fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    /// Consumes an identifier and returns its text, or fails naming
    /// the token found.
    pub fn expect_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    /// Consumes the identifier `kw`, or fails naming the token found.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{kw}`, found {}",
                self.peek().kind.describe()
            )))
        }
    }
}

/// The binary operator a token denotes, in IL expressions and rule
/// patterns alike.
pub fn binop(kind: &TokenKind) -> Option<OpKind> {
    Some(match kind {
        TokenKind::Plus => OpKind::Add,
        TokenKind::Minus => OpKind::Sub,
        TokenKind::Star => OpKind::Mul,
        TokenKind::Slash => OpKind::Div,
        TokenKind::Percent => OpKind::Mod,
        TokenKind::EqEq => OpKind::Eq,
        TokenKind::BangEq => OpKind::Ne,
        TokenKind::Lt => OpKind::Lt,
        TokenKind::Le => OpKind::Le,
        TokenKind::Gt => OpKind::Gt,
        TokenKind::Ge => OpKind::Ge,
        TokenKind::AmpAmp => OpKind::And,
        TokenKind::PipePipe => OpKind::Or,
        _ => return None,
    })
}

/// The IL productions.
impl Cursor {
    fn expect_index(&mut self) -> Result<usize, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Int(n) if n >= 0 => {
                self.bump();
                Ok(n as usize)
            }
            other => Err(self.err(format!(
                "expected statement index, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_proc(&mut self) -> Result<Proc, ParseError> {
        self.expect_keyword("proc")?;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let param = self.expect_ident()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at_eof() {
                return Err(self.err("unexpected end of input inside procedure body"));
            }
            stmts.push(self.parse_stmt()?);
            self.expect(TokenKind::Semi)?;
        }
        self.expect(TokenKind::RBrace)?;
        Ok(Proc::new(name, param, stmts))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Star => {
                self.bump();
                let v = self.expect_ident()?;
                self.expect(TokenKind::Assign)?;
                let e = self.parse_expr()?;
                Ok(Stmt::Assign(Lhs::Deref(Var::new(v)), e))
            }
            TokenKind::Ident(word) => match word.as_str() {
                "decl" => {
                    self.bump();
                    let v = self.expect_ident()?;
                    Ok(Stmt::Decl(Var::new(v)))
                }
                "skip" => {
                    self.bump();
                    Ok(Stmt::Skip)
                }
                "return" => {
                    self.bump();
                    let v = self.expect_ident()?;
                    Ok(Stmt::Return(Var::new(v)))
                }
                "if" => {
                    self.bump();
                    let cond = self.parse_base()?;
                    self.expect_keyword("goto")?;
                    let then_target = self.expect_index()?;
                    self.expect_keyword("else")?;
                    let else_target = self.expect_index()?;
                    Ok(Stmt::If {
                        cond,
                        then_target,
                        else_target,
                    })
                }
                _ => {
                    let dst = self.expect_ident()?;
                    self.expect(TokenKind::Assign)?;
                    self.parse_assign_rhs(Var::new(dst))
                }
            },
            other => Err(self.err(format!("expected statement, found {}", other.describe()))),
        }
    }

    fn parse_assign_rhs(&mut self, dst: Var) -> Result<Stmt, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(w) if w == "new" => {
                self.bump();
                Ok(Stmt::New(dst))
            }
            // `x := p(b)` — a call, distinguished by `ident (`.
            TokenKind::Ident(_) if self.peek2() == &TokenKind::LParen => {
                let callee = self.expect_ident()?;
                self.expect(TokenKind::LParen)?;
                let arg = self.parse_base()?;
                self.expect(TokenKind::RParen)?;
                Ok(Stmt::Call {
                    dst,
                    proc: callee.as_str().into(),
                    arg,
                })
            }
            _ => {
                let e = self.parse_expr()?;
                Ok(Stmt::Assign(Lhs::Var(dst), e))
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Star => {
                self.bump();
                let v = self.expect_ident()?;
                Ok(Expr::Deref(Var::new(v)))
            }
            TokenKind::Amp => {
                self.bump();
                let v = self.expect_ident()?;
                Ok(Expr::AddrOf(Var::new(v)))
            }
            TokenKind::Bang => {
                self.bump();
                let b = self.parse_base()?;
                Ok(Expr::Op(OpKind::Not, vec![b]))
            }
            _ => {
                let first = self.parse_base()?;
                if let Some(op) = binop(&self.peek().kind) {
                    self.bump();
                    let second = self.parse_base()?;
                    Ok(Expr::Op(op, vec![first, second]))
                } else {
                    Ok(Expr::Base(first))
                }
            }
        }
    }

    fn parse_base(&mut self) -> Result<BaseExpr, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(BaseExpr::Var(Var::new(s)))
            }
            TokenKind::Int(n) => {
                self.bump();
                Ok(BaseExpr::Const(n))
            }
            TokenKind::Minus => {
                self.bump();
                match self.peek().kind.clone() {
                    TokenKind::Int(n) => {
                        self.bump();
                        Ok(BaseExpr::Const(-n))
                    }
                    other => Err(self.err(format!(
                        "expected integer after unary `-`, found {}",
                        other.describe()
                    ))),
                }
            }
            other => Err(self.err(format!(
                "expected variable or constant, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_statement_forms() {
        let src = "
            proc main(a) {
                decl y;
                skip;
                y := 5;
                y := a + 1;
                *y := 2;
                y := *a;
                y := &a;
                y := new;
                y := helper(3);
                if a goto 0 else 10;
                return y;
            }
            proc helper(b) {
                return b;
            }
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.procs.len(), 2);
        let main = prog.main().unwrap();
        assert_eq!(main.len(), 11);
        assert!(matches!(main.stmts[0], Stmt::Decl(_)));
        assert!(matches!(main.stmts[1], Stmt::Skip));
        assert!(matches!(main.stmts[7], Stmt::New(_)));
        assert!(matches!(main.stmts[8], Stmt::Call { .. }));
        assert!(matches!(main.stmts[9], Stmt::If { .. }));
        assert!(matches!(main.stmts[10], Stmt::Return(_)));
    }

    #[test]
    fn roundtrips_via_display() {
        let cases = [
            "decl x",
            "skip",
            "x := 5",
            "x := -3",
            "x := y",
            "x := y + 1",
            "x := y == z",
            "*p := y",
            "x := *p",
            "x := &y",
            "x := new",
            "x := f(7)",
            "if c goto 2 else 3",
            "return x",
        ];
        for case in cases {
            let s = parse_stmt(case).unwrap();
            assert_eq!(s.to_string(), case, "roundtrip failed for `{case}`");
            let again = parse_stmt(&s.to_string()).unwrap();
            assert_eq!(s, again);
        }
    }

    #[test]
    fn negative_constants_in_operands() {
        let s = parse_stmt("x := y + -2").unwrap();
        assert_eq!(
            s,
            Stmt::assign_var(
                "x",
                Expr::binop(OpKind::Add, BaseExpr::var("y"), BaseExpr::Const(-2))
            )
        );
    }

    #[test]
    fn call_requires_base_argument() {
        assert!(parse_stmt("x := f(&y)").is_err());
        assert!(parse_stmt("x := f(y)").is_ok());
        assert!(parse_stmt("x := f(1)").is_ok());
    }

    #[test]
    fn operands_must_be_base_expressions() {
        // `*p + 1` is not expressible: operator args are base exprs only.
        assert!(parse_stmt("x := *p + 1").is_err());
        assert!(parse_stmt("x := &p + 1").is_err());
    }

    #[test]
    fn rule_only_tokens_are_not_il() {
        for bad in [
            "x := $X",
            "x := y => skip",
            "x := ...",
            "... := x",
            "return $R",
        ] {
            assert!(parse_stmt(bad).is_err(), "`{bad}` must not parse as IL");
        }
        let prog = parse_program("# a comment\nproc main(x) { return x; # trailing\n}").unwrap();
        assert_eq!(prog.procs.len(), 1);
    }

    #[test]
    fn error_mentions_position() {
        let err = parse_program("proc main(x) { decl ; }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse_program("proc main(x) { skip return x; }").is_err());
    }

    #[test]
    fn unterminated_body_is_an_error() {
        let err = parse_program("proc main(x) { skip;").unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn parse_expr_entrypoint() {
        assert_eq!(parse_expr("a + b").unwrap().to_string(), "a + b");
        assert!(parse_expr("a +").is_err());
        assert!(parse_expr("a + b extra").is_err());
    }
}
