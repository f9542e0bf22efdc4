//! A textual surface syntax for Cobalt optimizations and analyses.
//!
//! The paper presents optimizations in mathematical notation; this
//! parser accepts an ASCII rendering of the same shape, so optimization
//! suites can be kept as plain text:
//!
//! ```text
//! forward const_prop {
//!     stmt(Y := C)
//!     followed by !mayDef(Y)
//!     until X := Y => X := C
//!     with witness eta(Y) == C
//! }
//!
//! backward dae {
//!     (stmt(X := ...) || stmt(return ...)) && !mayUse(X)
//!     preceded by !mayUse(X)
//!     since X := E => skip
//!     with witness old/X == new/X
//! }
//!
//! local const_fold {
//!     rewrite X := E => X := fold(E)
//! }
//!
//! analysis taint {
//!     stmt(decl X)
//!     followed by !stmt(... := &X)
//!     defines notTainted(X)
//!     with witness notPointedTo(X)
//! }
//! ```
//!
//! # Pattern-variable conventions
//!
//! Identifiers are classified by case and leading letter, following the
//! paper's conventions (§3.2.1): a **lower-case** identifier is a
//! concrete program variable; an **upper-case** identifier is a pattern
//! variable whose kind is determined by its leading letter — `E…` for
//! expressions, `C…`/`K…` for constants, `I…`/`J…` for branch-target
//! indices (only inside `goto`), `P…` in callee position for procedure
//! names, and anything else for program variables. A `$` before an
//! upper-case identifier (`$P`, `$C`) also makes a pattern variable,
//! classified by the letter after the `$`; the standard labels use such
//! names for the variables of their `case` arms. Numerals are concrete
//! constants; `...` is the wildcard.
//!
//! # Tokens
//!
//! Rule text is read with the IL's lexer and cursor
//! ([`cobalt_il::parser::Cursor`]), so a statement pattern is IL
//! statement syntax: it may use every IL operator (`+ - * / %`,
//! `== != < <= > >=`, `&& ||`, unary `!`, and `-` before a numeral),
//! and comments are `#` or `//` to the end of the line, or `/* … */`.
//! A pattern inside a guard is wrapped in `stmt(...)`, so its operators
//! never meet the guard's `&&`, `||` and `!`; a bare pattern (`from`,
//! `to`, a `case` arm) ends at the `=>`, keyword or `}` after it.

use crate::error::DslParseError;
use crate::guard::Guard;
use crate::label::{LabelArgPat, LabelDef};
use crate::opt::{
    Direction, GuardSpec, Optimization, PureAnalysis, RegionGuard, TransformPattern, Witness,
};
use crate::pattern::{BasePat, ConstPat, ExprPat, IdxPat, LhsPat, ProcPat, StmtPat, VarPat};
use crate::witness::{BackwardWitness, ForwardWitness};
use cobalt_il::lexer::TokenKind as T;
use cobalt_il::parser::{binop, Cursor};
use cobalt_il::{OpKind, ParseError};

/// Parses a single optimization definition.
///
/// # Errors
///
/// Returns [`DslParseError`] with the position of the first syntax
/// error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let opt = cobalt_dsl::parse_optimization(
///     "forward const_prop {
///          stmt(Y := C)
///          followed by !mayDef(Y)
///          until X := Y => X := C
///          with witness eta(Y) == C
///      }",
/// )?;
/// assert_eq!(opt.name, "const_prop");
/// # Ok(())
/// # }
/// ```
pub fn parse_optimization(src: &str) -> Result<Optimization, DslParseError> {
    let mut p = Parser::new(src)?;
    let opt = p.parse_optimization()?;
    p.c.expect(T::Eof)?;
    Ok(opt)
}

/// Parses a single pure-analysis definition.
///
/// # Errors
///
/// Returns [`DslParseError`] on malformed input.
pub fn parse_analysis(src: &str) -> Result<PureAnalysis, DslParseError> {
    let mut p = Parser::new(src)?;
    let a = p.parse_analysis()?;
    p.c.expect(T::Eof)?;
    Ok(a)
}

/// A parsed suite file: optimizations, pure analyses, and user label
/// definitions.
#[derive(Debug, Clone, Default)]
pub struct Suite {
    /// The optimizations, in file order.
    pub optimizations: Vec<Optimization>,
    /// The pure analyses, in file order.
    pub analyses: Vec<PureAnalysis>,
    /// User label definitions (paper §2.1.3), to be added to a
    /// [`crate::LabelEnv`].
    pub labels: Vec<LabelDef>,
}

impl Suite {
    /// A label environment containing the standard definitions plus
    /// this suite's own.
    pub fn label_env(&self) -> crate::LabelEnv {
        let mut env = crate::LabelEnv::standard();
        for def in &self.labels {
            env.define(def.clone());
        }
        env
    }
}

/// Parses a file of optimization, analysis, and label definitions.
///
/// # Errors
///
/// Returns [`DslParseError`] on malformed input.
pub fn parse_suite(src: &str) -> Result<Suite, DslParseError> {
    let mut p = Parser::new(src)?;
    let mut suite = Suite::default();
    while !p.c.at_eof() {
        if p.c.at_keyword("analysis") {
            suite.analyses.push(p.parse_analysis()?);
        } else if p.c.at_keyword("label") {
            suite.labels.push(p.parse_label_def()?);
        } else {
            suite.optimizations.push(p.parse_optimization()?);
        }
    }
    Ok(suite)
}

/// The rule productions, over the IL's tokens and cursor.
struct Parser {
    c: Cursor,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            c: Cursor::new(src)?,
        })
    }

    /// Consumes an identifier or a `$`-name and returns its text.
    fn name(&mut self) -> Result<String, ParseError> {
        self.expect_name("identifier")
    }

    /// Consumes a name, or fails saying it expected `what`.
    fn expect_name(&mut self, what: &str) -> Result<String, ParseError> {
        self.eat_name(|_| true).ok_or_else(|| {
            self.c.err(format!(
                "expected {what}, found {}",
                self.c.peek().kind.describe()
            ))
        })
    }

    /// Consumes a name that satisfies `ok` and returns its text.
    fn eat_name(&mut self, ok: impl FnOnce(&str) -> bool) -> Option<String> {
        let s = name_of(&self.c.peek().kind).filter(|s| ok(s))?.to_string();
        self.c.bump();
        Some(s)
    }

    /// Consumes a numeral and returns its value.
    fn eat_int(&mut self) -> Option<i64> {
        let T::Int(n) = self.c.peek().kind else {
            return None;
        };
        self.c.bump();
        Some(n)
    }

    /// One or more `item`s, separated by `sep`.
    fn sep_by<X>(
        &mut self,
        sep: &T,
        mut item: impl FnMut(&mut Self) -> Result<X, ParseError>,
    ) -> Result<Vec<X>, ParseError> {
        let mut items = vec![item(self)?];
        while self.c.eat(sep) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    // ---- top level -----------------------------------------------------

    fn parse_optimization(&mut self) -> Result<Optimization, ParseError> {
        let direction = if self.c.eat_keyword("forward") {
            Some(Direction::Forward)
        } else if self.c.eat_keyword("backward") {
            Some(Direction::Backward)
        } else if self.c.eat_keyword("local") {
            None
        } else {
            return Err(self.c.err("expected `forward`, `backward`, or `local`"));
        };
        let name = self.name()?;
        self.c.expect(T::LBrace)?;
        let guard = match direction {
            None => {
                self.c.expect_keyword("rewrite")?;
                GuardSpec::Local
            }
            Some(direction) => {
                let psi1 = self.parse_guard()?;
                let (kw2, kw3) = match direction {
                    Direction::Forward => ("followed", "until"),
                    Direction::Backward => ("preceded", "since"),
                };
                self.c.expect_keyword(kw2)?;
                self.c.expect_keyword("by")?;
                let psi2 = self.parse_guard()?;
                self.c.expect_keyword(kw3)?;
                GuardSpec::Region(RegionGuard { psi1, psi2 })
            }
        };
        let from = self.parse_stmt_pattern()?;
        self.c.expect(T::FatArrow)?;
        let to = self.parse_stmt_pattern()?;
        let where_clause = if self.c.eat_keyword("where") {
            self.parse_guard()?
        } else {
            Guard::True
        };
        let witness = match direction {
            None => Witness::Forward(ForwardWitness::True),
            Some(direction) => {
                self.c.expect_keyword("with")?;
                self.c.expect_keyword("witness")?;
                match direction {
                    Direction::Forward => Witness::Forward(self.parse_forward_witness()?),
                    Direction::Backward => Witness::Backward(self.parse_backward_witness()?),
                }
            }
        };
        self.c.expect(T::RBrace)?;
        Ok(Optimization::new(
            name,
            TransformPattern {
                direction: direction.unwrap_or(Direction::Forward),
                guard,
                from,
                to,
                where_clause,
                witness,
            },
        ))
    }

    fn parse_analysis(&mut self) -> Result<PureAnalysis, ParseError> {
        self.c.expect_keyword("analysis")?;
        let name = self.name()?;
        self.c.expect(T::LBrace)?;
        let psi1 = self.parse_guard()?;
        self.c.expect_keyword("followed")?;
        self.c.expect_keyword("by")?;
        let psi2 = self.parse_guard()?;
        self.c.expect_keyword("defines")?;
        let label = self.name()?;
        self.c.expect(T::LParen)?;
        let args = self.sep_by(&T::Comma, Self::parse_label_arg)?;
        self.c.expect(T::RParen)?;
        self.c.expect_keyword("with")?;
        self.c.expect_keyword("witness")?;
        let witness = self.parse_forward_witness()?;
        self.c.expect(T::RBrace)?;
        Ok(PureAnalysis {
            name,
            guard: RegionGuard { psi1, psi2 },
            defines: (label.as_str().into(), args),
            witness,
        })
    }

    /// Parses a user label definition (paper §2.1.3):
    ///
    /// ```text
    /// label mayDef(Y) {
    ///     case *P := ...   => !notTainted(Y)
    ///     case X := F(Z)   => X == Y || !notTainted(Y)
    ///     else             => syntacticDef(Y)
    /// }
    /// ```
    ///
    /// A body without `case` arms is a plain guard:
    /// `label l(X) { <guard> }`.
    fn parse_label_def(&mut self) -> Result<LabelDef, ParseError> {
        self.c.expect_keyword("label")?;
        let name = self.name()?;
        self.c.expect(T::LParen)?;
        let params = self.sep_by(&T::Comma, |p| Ok(p.name()?.as_str().into()))?;
        self.c.expect(T::RParen)?;
        self.c.expect(T::LBrace)?;
        let body = if self.c.at_keyword("case") {
            let mut arms = Vec::new();
            while self.c.eat_keyword("case") {
                let pat = self.parse_stmt_pattern()?;
                self.c.expect(T::FatArrow)?;
                let guard = self.parse_guard()?;
                arms.push((pat, guard));
            }
            self.c.expect_keyword("else")?;
            self.c.expect(T::FatArrow)?;
            let default = Box::new(self.parse_guard()?);
            Guard::CaseStmt { arms, default }
        } else {
            self.parse_guard()?
        };
        self.c.expect(T::RBrace)?;
        Ok(LabelDef {
            name: name.as_str().into(),
            params,
            body,
        })
    }

    // ---- guards ---------------------------------------------------------

    fn parse_guard(&mut self) -> Result<Guard, ParseError> {
        let parts = self.sep_by(&T::PipePipe, |p| {
            Ok(Guard::and(p.sep_by(&T::AmpAmp, Self::parse_guard_atom)?))
        })?;
        Ok(Guard::or(parts))
    }

    fn parse_guard_atom(&mut self) -> Result<Guard, ParseError> {
        if self.c.eat(&T::Bang) {
            return Ok(self.parse_guard_atom()?.negate());
        }
        if self.c.eat(&T::LParen) {
            let g = self.parse_guard()?;
            self.c.expect(T::RParen)?;
            return Ok(g);
        }
        if self.c.eat_keyword("true") {
            return Ok(Guard::True);
        }
        if self.c.eat_keyword("false") {
            return Ok(Guard::False);
        }
        // stmt(...), unchanged(...), syntacticDef/Use(...), labels, and
        // equalities `A == B`.
        let name = self.name()?;
        if self.c.eat(&T::EqEq) {
            return self.parse_equality(&name);
        }
        self.c.expect(T::LParen)?;
        let g = match name.as_str() {
            "stmt" => {
                let pat = self.parse_stmt_pattern()?;
                Guard::Stmt(pat)
            }
            "unchanged" => Guard::Unchanged(self.parse_expr_pattern()?),
            "syntacticDef" => Guard::SyntacticDef(self.parse_var_pattern()?),
            "syntacticUse" => Guard::SyntacticUse(self.parse_var_pattern()?),
            _ => Guard::Label(
                name.as_str().into(),
                self.sep_by(&T::Comma, Self::parse_label_arg)?,
            ),
        };
        self.c.expect(T::RParen)?;
        Ok(g)
    }

    /// The right operand of `lhs == …`: a constant comparison if either
    /// side is a constant, else a variable comparison.
    fn parse_equality(&mut self, lhs: &str) -> Result<Guard, ParseError> {
        if let Some(n) = self.eat_int() {
            return Ok(Guard::ConstEq(const_pat(lhs), ConstPat::Concrete(n)));
        }
        let rhs = self.expect_name("operand")?;
        Ok(if is_const_ident(lhs) || is_const_ident(&rhs) {
            Guard::ConstEq(const_pat(lhs), const_pat(&rhs))
        } else {
            Guard::VarEq(var_pat(lhs), var_pat(&rhs))
        })
    }

    fn parse_label_arg(&mut self) -> Result<LabelArgPat, ParseError> {
        if let Some(n) = self.eat_int() {
            return Ok(LabelArgPat::Const(ConstPat::Concrete(n)));
        }
        if self.c.at(&T::Star) || self.c.at(&T::Amp) {
            return Ok(LabelArgPat::Expr(self.parse_expr_pattern()?));
        }
        let s = self.expect_name("label argument")?;
        Ok(if is_expr_ident(&s) {
            LabelArgPat::Expr(ExprPat::Pat(s.as_str().into()))
        } else if is_const_ident(&s) {
            LabelArgPat::Const(const_pat(&s))
        } else {
            LabelArgPat::Var(var_pat(&s))
        })
    }

    // ---- witnesses ------------------------------------------------------

    fn parse_forward_witness(&mut self) -> Result<ForwardWitness, ParseError> {
        let mut parts = self.sep_by(&T::AmpAmp, Self::parse_forward_witness_atom)?;
        Ok(if parts.len() == 1 {
            parts.remove(0)
        } else {
            ForwardWitness::And(parts)
        })
    }

    fn parse_forward_witness_atom(&mut self) -> Result<ForwardWitness, ParseError> {
        if self.c.eat_keyword("true") {
            return Ok(ForwardWitness::True);
        }
        if self.c.eat_keyword("notPointedTo") {
            self.c.expect(T::LParen)?;
            let v = self.parse_var_pattern()?;
            self.c.expect(T::RParen)?;
            return Ok(ForwardWitness::NotPointedTo(v));
        }
        self.c.expect_keyword("eta")?;
        self.c.expect(T::LParen)?;
        let x = self.parse_var_pattern()?;
        self.c.expect(T::RParen)?;
        self.c.expect(T::EqEq)?;
        if self.c.eat_keyword("eta") {
            self.c.expect(T::LParen)?;
            let e = self.parse_expr_pattern()?;
            self.c.expect(T::RParen)?;
            return Ok(match e {
                ExprPat::Base(BasePat::Var(y)) => ForwardWitness::VarEqVar(x, y),
                e => ForwardWitness::VarEqExpr(x, e),
            });
        }
        if let Some(n) = self.eat_int() {
            return Ok(ForwardWitness::VarEqConst(x, ConstPat::Concrete(n)));
        }
        match self.eat_name(is_const_ident) {
            Some(s) => Ok(ForwardWitness::VarEqConst(x, const_pat(&s))),
            None => Err(self.c.err(format!(
                "expected constant or `eta(...)`, found {}",
                self.c.peek().kind.describe()
            ))),
        }
    }

    fn parse_backward_witness(&mut self) -> Result<BackwardWitness, ParseError> {
        self.c.expect_keyword("old")?;
        if self.c.eat(&T::Slash) {
            let x = self.parse_var_pattern()?;
            self.c.expect(T::EqEq)?;
            self.c.expect_keyword("new")?;
            self.c.expect(T::Slash)?;
            let x2 = self.parse_var_pattern()?;
            if x != x2 {
                return Err(self.c.err("old/X == new/Y must name the same variable"));
            }
            Ok(BackwardWitness::AgreeExcept(x))
        } else {
            self.c.expect(T::EqEq)?;
            self.c.expect_keyword("new")?;
            Ok(BackwardWitness::Identical)
        }
    }

    // ---- patterns -------------------------------------------------------

    fn parse_var_pattern(&mut self) -> Result<VarPat, ParseError> {
        let s = self.name()?;
        Ok(var_pat(&s))
    }

    /// A statement pattern: IL statement syntax plus pattern variables
    /// and wildcards. A bare pattern (`from`, `to`, a `case` arm) ends
    /// at the `=>`, keyword or `}` that follows it; one inside a guard
    /// is wrapped in `stmt(...)`, so its operators never meet the
    /// guard's `&&`, `||` and `!`.
    fn parse_stmt_pattern(&mut self) -> Result<StmtPat, ParseError> {
        if self.c.eat_keyword("skip") {
            return Ok(StmtPat::Skip);
        }
        if self.c.eat_keyword("decl") {
            return Ok(StmtPat::Decl(self.parse_var_pattern()?));
        }
        if self.c.eat_keyword("return") {
            if self.c.eat(&T::Ellipsis) {
                return Ok(StmtPat::ReturnAny);
            }
            return Ok(StmtPat::Return(self.parse_var_pattern()?));
        }
        if self.c.eat_keyword("if") {
            let cond = self.parse_base_pattern()?;
            self.c.expect_keyword("goto")?;
            let t1 = self.parse_idx_pattern()?;
            self.c.expect_keyword("else")?;
            let t2 = self.parse_idx_pattern()?;
            return Ok(StmtPat::If {
                cond,
                then_target: t1,
                else_target: t2,
            });
        }
        // Left-hand side: `*X`, `...`, or a variable.
        let lhs = if self.c.eat(&T::Star) {
            LhsPat::Deref(self.parse_var_pattern()?)
        } else if self.c.eat(&T::Ellipsis) {
            LhsPat::Any
        } else {
            LhsPat::Var(self.parse_var_pattern()?)
        };
        self.c.expect(T::Assign)?;
        // Right-hand side: `new`, a call `P(b)`, or an expression.
        if self.c.eat_keyword("new") {
            return match lhs {
                LhsPat::Var(v) => Ok(StmtPat::New(v)),
                _ => Err(self.c.err("`:= new` requires a variable destination")),
            };
        }
        let callee = name_of(&self.c.peek().kind)
            .filter(|s| !is_expr_ident(s) && *s != "fold" && self.c.peek2() == &T::LParen)
            .map(str::to_string);
        if let Some(callee) = callee {
            self.c.bump();
            self.c.bump();
            let arg = self.parse_base_pattern()?;
            self.c.expect(T::RParen)?;
            let dst = match lhs {
                LhsPat::Var(v) => v,
                _ => return Err(self.c.err("calls require a variable destination")),
            };
            return Ok(StmtPat::Call {
                dst,
                proc: ProcPat::Pat(callee.as_str().into()),
                arg,
            });
        }
        let e = self.parse_expr_pattern()?;
        Ok(StmtPat::Assign(lhs, e))
    }

    fn parse_idx_pattern(&mut self) -> Result<IdxPat, ParseError> {
        // The lexer reads no sign, so a numeral is never negative.
        if let Some(n) = self.eat_int() {
            return Ok(IdxPat::Concrete(n as usize));
        }
        Ok(IdxPat::Pat(
            self.expect_name("branch target")?.as_str().into(),
        ))
    }

    fn parse_base_pattern(&mut self) -> Result<BasePat, ParseError> {
        if let Some(n) = self.eat_int() {
            return Ok(BasePat::Const(ConstPat::Concrete(n)));
        }
        if self.c.eat(&T::Minus) {
            return match self.c.bump().kind {
                T::Int(n) => Ok(BasePat::Const(ConstPat::Concrete(-n))),
                other => Err(self
                    .c
                    .err(format!("expected integer, found {}", other.describe()))),
            };
        }
        let s = self.expect_name("variable or constant")?;
        Ok(if is_const_ident(&s) {
            BasePat::Const(const_pat(&s))
        } else {
            BasePat::Var(var_pat(&s))
        })
    }

    fn parse_expr_pattern(&mut self) -> Result<ExprPat, ParseError> {
        if self.c.eat(&T::Ellipsis) {
            return Ok(ExprPat::Any);
        }
        if self.c.eat(&T::Star) {
            return Ok(ExprPat::Deref(self.parse_var_pattern()?));
        }
        if self.c.eat(&T::Amp) {
            return Ok(ExprPat::AddrOf(self.parse_var_pattern()?));
        }
        if self.c.eat(&T::Bang) {
            return Ok(ExprPat::Op(OpKind::Not, vec![self.parse_base_pattern()?]));
        }
        if self.c.eat_keyword("fold") {
            self.c.expect(T::LParen)?;
            let e = self.name()?;
            self.c.expect(T::RParen)?;
            return Ok(ExprPat::Fold(e.as_str().into()));
        }
        // Expression pattern variable?
        if let Some(s) = self.eat_name(is_expr_ident) {
            return Ok(ExprPat::Pat(s.as_str().into()));
        }
        let first = self.parse_base_pattern()?;
        if let Some(op) = binop(&self.c.peek().kind) {
            self.c.bump();
            let second = self.parse_base_pattern()?;
            return Ok(ExprPat::Op(op, vec![first, second]));
        }
        Ok(ExprPat::Base(first))
    }
}

/// The text of a name a rule may use: an identifier or a `$`-name.
fn name_of(kind: &T) -> Option<&str> {
    match kind {
        T::Ident(s) | T::PatName(s) => Some(s),
        _ => None,
    }
}

/// The letter that classifies an identifier: its first, after the `$`
/// of a `$`-prefixed pattern variable.
fn lead(s: &str) -> Option<char> {
    s.strip_prefix('$').unwrap_or(s).chars().next()
}

fn is_upper(s: &str) -> bool {
    lead(s).is_some_and(|c| c.is_ascii_uppercase())
}

fn is_expr_ident(s: &str) -> bool {
    lead(s) == Some('E')
}

fn is_const_ident(s: &str) -> bool {
    matches!(lead(s), Some('C' | 'K'))
}

fn var_pat(s: &str) -> VarPat {
    if is_upper(s) {
        VarPat::Pat(s.into())
    } else {
        VarPat::Concrete(cobalt_il::Var::new(s))
    }
}

fn const_pat(s: &str) -> ConstPat {
    ConstPat::Pat(s.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_const_prop_equal_to_hand_built_ast() {
        let parsed = parse_optimization(
            "forward const_prop {
                stmt(Y := C)
                followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        )
        .unwrap();
        let built = const_prop_ast();
        assert_eq!(parsed.name, built.name);
        assert_eq!(parsed.pattern, built.pattern);
    }

    /// The AST of the paper's Example 1, built by hand: the parser must
    /// produce exactly this from its text.
    fn const_prop_ast() -> Optimization {
        Optimization::new(
            "const_prop",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Region(RegionGuard {
                    psi1: Guard::Stmt(StmtPat::Assign(
                        LhsPat::Var(VarPat::pat("Y")),
                        ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                    )),
                    psi2: Guard::not_label(
                        "mayDef",
                        vec![LabelArgPat::Var(VarPat::pat("Y"))],
                    ),
                }),
                from: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
                ),
                to: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                ),
                where_clause: Guard::True,
                witness: Witness::Forward(ForwardWitness::VarEqConst(
                    VarPat::pat("Y"),
                    ConstPat::pat("C"),
                )),
            },
        )
    }

    #[test]
    fn parses_backward_dae() {
        let opt = parse_optimization(
            "backward dae {
                (stmt(X := ...) || stmt(return ...)) && !mayUse(X)
                preceded by !mayUse(X)
                since X := E => skip
                with witness old/X == new/X
            }",
        )
        .unwrap();
        assert_eq!(opt.pattern.direction, Direction::Backward);
        assert_eq!(
            opt.pattern.witness,
            Witness::Backward(BackwardWitness::AgreeExcept(VarPat::pat("X")))
        );
        assert_eq!(opt.pattern.to, StmtPat::Skip);
    }

    #[test]
    fn parses_local_rewrites() {
        let fold = parse_optimization(
            "local const_fold { rewrite X := E => X := fold(E) }",
        )
        .unwrap();
        assert_eq!(fold.pattern.guard, GuardSpec::Local);
        assert_eq!(
            fold.pattern.to,
            StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Fold("E".into()))
        );
        let bf = parse_optimization(
            "local branch_fold_true {
                rewrite if C goto I1 else I2 => if C goto I1 else I1
                where !(C == 0)
            }",
        )
        .unwrap();
        assert!(matches!(bf.pattern.from, StmtPat::If { .. }));
        assert_eq!(
            bf.pattern.where_clause,
            Guard::ConstEq(ConstPat::pat("C"), ConstPat::Concrete(0)).negate()
        );
    }

    #[test]
    fn parses_taint_analysis() {
        let a = parse_analysis(
            "analysis taint {
                stmt(decl X)
                followed by !stmt(... := &X)
                defines notTainted(X)
                with witness notPointedTo(X)
            }",
        )
        .unwrap();
        assert_eq!(a.name, "taint");
        assert_eq!(a.witness, ForwardWitness::NotPointedTo(VarPat::pat("X")));
        assert_eq!(
            a.guard.psi2,
            Guard::Stmt(StmtPat::Assign(
                LhsPat::Any,
                ExprPat::AddrOf(VarPat::pat("X"))
            ))
            .negate()
        );
    }

    #[test]
    fn parses_cse_with_unchanged() {
        let opt = parse_optimization(
            "forward cse {
                stmt(X := E) && unchanged(E)
                followed by unchanged(E) && !mayDef(X)
                until Y := E => Y := X
                with witness eta(X) == eta(E)
            }",
        )
        .unwrap();
        assert!(matches!(
            opt.pattern.witness,
            Witness::Forward(ForwardWitness::VarEqExpr(_, ExprPat::Pat(_)))
        ));
    }

    #[test]
    fn parses_load_elim_with_deref() {
        let opt = parse_optimization(
            "forward load_elim {
                stmt(X := *P) && unchanged(*P)
                followed by unchanged(*P) && !mayDef(X)
                until Y := *P => Y := X
                with witness eta(X) == eta(*P)
            }",
        )
        .unwrap();
        assert_eq!(
            opt.pattern.from,
            StmtPat::Assign(LhsPat::Var(VarPat::pat("Y")), ExprPat::Deref(VarPat::pat("P")))
        );
    }

    #[test]
    fn parses_call_and_concrete_vars() {
        let opt = parse_optimization(
            "local demo { rewrite X := P(Z) => X := y }",
        )
        .unwrap();
        assert!(matches!(opt.pattern.from, StmtPat::Call { .. }));
        assert_eq!(
            opt.pattern.to,
            StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Base(BasePat::Var(VarPat::Concrete(cobalt_il::Var::new("y"))))
            )
        );
    }

    #[test]
    fn parse_suite_splits_kinds() {
        let suite = parse_suite(
            "forward a1 {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
             }
             analysis t {
                stmt(decl X) followed by !stmt(... := &X)
                defines notTainted(X)
                with witness notPointedTo(X)
             }
             local s { rewrite X := X => skip }",
        )
        .unwrap();
        assert_eq!(suite.optimizations.len(), 2);
        assert_eq!(suite.analyses.len(), 1);
    }

    #[test]
    fn parses_label_definitions() {
        let suite = parse_suite(
            "label myUse(Y) {
                case X := *P => syntacticUse(Y) || !notTainted(Y)
                else => syntacticUse(Y)
             }
             label trivial(X) { true }",
        )
        .unwrap();
        assert_eq!(suite.labels.len(), 2);
        let def = &suite.labels[0];
        assert_eq!(def.name.as_str(), "myUse");
        assert_eq!(def.params.len(), 1);
        assert!(matches!(def.body, Guard::CaseStmt { .. }));
        assert_eq!(suite.labels[1].body, Guard::True);
        // The env helper layers the defs over the standard ones.
        let env = suite.label_env();
        assert!(env.lookup(&"myUse".into()).is_some());
        assert!(env.lookup(&"mayDef".into()).is_some());
    }

    #[test]
    fn dollar_names_are_pattern_variables_of_their_letters_kind() {
        let suite = parse_suite(
            "label l(Y) {
                case X := $F($Z) => $P == Y
                case X := $F($C) => true
                else => false
             }",
        )
        .unwrap();
        let Guard::CaseStmt { arms, .. } = &suite.labels[0].body else {
            panic!("expected case arms, got {:?}", suite.labels[0].body);
        };
        let call = |arg| StmtPat::Call {
            dst: VarPat::pat("X"),
            proc: ProcPat::Pat("$F".into()),
            arg,
        };
        assert_eq!(arms[0].0, call(BasePat::Var(VarPat::pat("$Z"))));
        assert_eq!(arms[0].1, Guard::VarEq(VarPat::pat("$P"), VarPat::pat("Y")));
        assert_eq!(arms[1].0, call(BasePat::Const(ConstPat::pat("$C"))));
        for bad in ["$", "$x", "$1"] {
            let src = format!("local demo {{ rewrite X := {bad} => skip }}");
            assert!(parse_optimization(&src).is_err(), "`{bad}` must not lex");
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_optimization("forward x {").unwrap_err();
        assert!(err.line >= 1);
        let err = parse_optimization(
            "forward x { stmt(Y := C) followed by true until X := Y }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("=>") || err.to_string().contains("with"));
    }

    #[test]
    fn comments_are_allowed() {
        let opt = parse_optimization(
            "# the classic
             forward const_prop {
                stmt(Y := C) // enabling
                followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
             }",
        )
        .unwrap();
        assert_eq!(opt.name, "const_prop");
    }

    #[test]
    fn block_comments_and_every_il_operator_parse() {
        let suite = parse_suite(
            "/* leading
                block comment */
             local l {
                rewrite X := A != B => X := !A   # the IL's own operators
                where stmt(Y := A <= B) || !stmt(Y := A >= B) && stmt(Y := A && B)
             }",
        )
        .unwrap();
        let pat = &suite.optimizations[0].pattern;
        let op = |op, a: &str, b: &str| {
            ExprPat::Op(
                op,
                vec![BasePat::Var(VarPat::pat(a)), BasePat::Var(VarPat::pat(b))],
            )
        };
        assert_eq!(
            pat.from,
            StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), op(OpKind::Ne, "A", "B"))
        );
        assert_eq!(
            pat.to,
            StmtPat::Assign(
                LhsPat::Var(VarPat::pat("X")),
                ExprPat::Op(OpKind::Not, vec![BasePat::Var(VarPat::pat("A"))])
            )
        );
        let assign = |e| Guard::Stmt(StmtPat::Assign(LhsPat::Var(VarPat::pat("Y")), e));
        assert_eq!(
            pat.where_clause,
            Guard::or([
                assign(op(OpKind::Le, "A", "B")),
                Guard::and([
                    assign(op(OpKind::Ge, "A", "B")).negate(),
                    assign(op(OpKind::And, "A", "B")),
                ]),
            ])
        );
        let or = parse_optimization("local o { rewrite X := A || B => skip }").unwrap();
        assert_eq!(
            or.pattern.from,
            StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), op(OpKind::Or, "A", "B"))
        );
    }

    #[test]
    fn forward_witness_parses_single_atom_and_conjunction() {
        let single = parse_optimization(
            "forward w1 {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        )
        .unwrap();
        assert_eq!(
            single.pattern.witness,
            Witness::Forward(ForwardWitness::VarEqConst(VarPat::pat("Y"), ConstPat::pat("C")))
        );
        let conj = parse_optimization(
            "forward w2 {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C && true
            }",
        )
        .unwrap();
        let Witness::Forward(ForwardWitness::And(parts)) = &conj.pattern.witness else {
            panic!("expected a conjunction, got {:?}", conj.pattern.witness);
        };
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1], ForwardWitness::True);
    }
}
