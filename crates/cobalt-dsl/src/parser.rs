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

use crate::error::DslParseError;
use crate::guard::Guard;
use crate::label::{LabelArgPat, LabelDef};
use crate::opt::{
    Direction, GuardSpec, Optimization, PureAnalysis, RegionGuard, TransformPattern, Witness,
};
use crate::pattern::{BasePat, ConstPat, ExprPat, IdxPat, LhsPat, ProcPat, StmtPat, VarPat};
use crate::witness::{BackwardWitness, ForwardWitness};
use cobalt_il::OpKind;

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
    p.expect_eof()?;
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
    p.expect_eof()?;
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
    while !p.at_eof() {
        if p.peek_word("analysis") {
            suite.analyses.push(p.parse_analysis()?);
        } else if p.peek_word("label") {
            suite.labels.push(p.parse_label_def()?);
        } else {
            suite.optimizations.push(p.parse_optimization()?);
        }
    }
    Ok(suite)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(&'static str),
    Eof,
}

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

const SYMS: &[&str] = &[
    ":=", "=>", "==", "&&", "||", "...", "(", ")", "{", "}", ",", "!", "*", "&", "/", "+", "-",
    "%", "<", ">",
];

impl Parser {
    fn new(src: &str) -> Result<Self, DslParseError> {
        let mut toks = Vec::new();
        let chars: Vec<char> = src.chars().collect();
        let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);
        'outer: while i < chars.len() {
            let c = chars[i];
            if c == '\n' {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                col += 1;
                continue;
            }
            if c == '#' || (c == '/' && chars.get(i + 1) == Some(&'/')) {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            for s in SYMS {
                let sc: Vec<char> = s.chars().collect();
                if chars[i..].starts_with(&sc) {
                    // `/` would shadow `//` comments; handled above.
                    toks.push((Tok::Sym(s), line, col));
                    i += sc.len();
                    col += sc.len();
                    continue 'outer;
                }
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n = text.parse().map_err(|_| {
                    DslParseError::new(line, col, format!("integer `{text}` out of range"))
                })?;
                toks.push((Tok::Int(n), line, col));
                col += i - start;
                continue;
            }
            if c == '$' && !chars.get(i + 1).is_some_and(char::is_ascii_uppercase) {
                return Err(DslParseError::new(
                    line,
                    col,
                    "`$` must start a pattern variable such as `$P`",
                ));
            }
            if c.is_ascii_alphabetic() || c == '_' || c == '$' {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push((Tok::Ident(text), line, col));
                col += i - start;
                continue;
            }
            return Err(DslParseError::new(
                line,
                col,
                format!("unrecognized character `{c}`"),
            ));
        }
        toks.push((Tok::Eof, line, col));
        Ok(Parser { toks, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn err(&self, msg: impl Into<String>) -> DslParseError {
        let (_, line, col) = &self.toks[self.pos.min(self.toks.len() - 1)];
        DslParseError::new(*line, *col, msg)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek() == &Tok::Sym(match_sym(s)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), DslParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`, found {}", describe(self.peek()))))
        }
    }

    fn peek_word(&self, w: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == w)
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.peek_word(w) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), DslParseError> {
        if self.eat_word(w) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{w}`, found {}", describe(self.peek()))))
        }
    }

    fn expect_ident(&mut self) -> Result<String, DslParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", describe(&other)))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), DslParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {}", describe(self.peek()))))
        }
    }

    // ---- top level -----------------------------------------------------

    fn parse_optimization(&mut self) -> Result<Optimization, DslParseError> {
        let direction = if self.eat_word("forward") {
            Some(Direction::Forward)
        } else if self.eat_word("backward") {
            Some(Direction::Backward)
        } else if self.eat_word("local") {
            None
        } else {
            return Err(self.err("expected `forward`, `backward`, or `local`"));
        };
        let name = self.expect_ident()?;
        self.expect_sym("{")?;
        let opt = match direction {
            None => {
                self.expect_word("rewrite")?;
                let from = self.parse_stmt_pattern()?;
                self.expect_sym("=>")?;
                let to = self.parse_stmt_pattern()?;
                let where_clause = if self.eat_word("where") {
                    self.parse_guard()?
                } else {
                    Guard::True
                };
                Optimization::new(
                    name,
                    TransformPattern {
                        direction: Direction::Forward,
                        guard: GuardSpec::Local,
                        from,
                        to,
                        where_clause,
                        witness: Witness::Forward(ForwardWitness::True),
                    },
                )
            }
            Some(direction) => {
                let psi1 = self.parse_guard()?;
                let (kw2, kw3) = match direction {
                    Direction::Forward => ("followed", "until"),
                    Direction::Backward => ("preceded", "since"),
                };
                self.expect_word(kw2)?;
                self.expect_word("by")?;
                let psi2 = self.parse_guard()?;
                self.expect_word(kw3)?;
                let from = self.parse_stmt_pattern()?;
                self.expect_sym("=>")?;
                let to = self.parse_stmt_pattern()?;
                let where_clause = if self.eat_word("where") {
                    self.parse_guard()?
                } else {
                    Guard::True
                };
                self.expect_word("with")?;
                self.expect_word("witness")?;
                let witness = match direction {
                    Direction::Forward => Witness::Forward(self.parse_forward_witness()?),
                    Direction::Backward => Witness::Backward(self.parse_backward_witness()?),
                };
                Optimization::new(
                    name,
                    TransformPattern {
                        direction,
                        guard: GuardSpec::Region(RegionGuard { psi1, psi2 }),
                        from,
                        to,
                        where_clause,
                        witness,
                    },
                )
            }
        };
        self.expect_sym("}")?;
        Ok(opt)
    }

    fn parse_analysis(&mut self) -> Result<PureAnalysis, DslParseError> {
        self.expect_word("analysis")?;
        let name = self.expect_ident()?;
        self.expect_sym("{")?;
        let psi1 = self.parse_guard()?;
        self.expect_word("followed")?;
        self.expect_word("by")?;
        let psi2 = self.parse_guard()?;
        self.expect_word("defines")?;
        let label = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut args = Vec::new();
        loop {
            args.push(self.parse_label_arg()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        self.expect_word("with")?;
        self.expect_word("witness")?;
        let witness = self.parse_forward_witness()?;
        self.expect_sym("}")?;
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
    fn parse_label_def(&mut self) -> Result<LabelDef, DslParseError> {
        self.expect_word("label")?;
        let name = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut params = Vec::new();
        loop {
            params.push(self.expect_ident()?.as_str().into());
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        self.expect_sym("{")?;
        let body = if self.peek_word("case") {
            let mut arms = Vec::new();
            while self.eat_word("case") {
                let pat = self.parse_stmt_pattern()?;
                self.expect_sym("=>")?;
                let guard = self.parse_guard()?;
                arms.push((pat, guard));
            }
            self.expect_word("else")?;
            self.expect_sym("=>")?;
            let default = Box::new(self.parse_guard()?);
            Guard::CaseStmt { arms, default }
        } else {
            self.parse_guard()?
        };
        self.expect_sym("}")?;
        Ok(LabelDef {
            name: name.as_str().into(),
            params,
            body,
        })
    }

    // ---- guards ---------------------------------------------------------

    fn parse_guard(&mut self) -> Result<Guard, DslParseError> {
        let mut parts = vec![self.parse_guard_and()?];
        while self.eat_sym("||") {
            parts.push(self.parse_guard_and()?);
        }
        Ok(Guard::or(parts))
    }

    fn parse_guard_and(&mut self) -> Result<Guard, DslParseError> {
        let mut parts = vec![self.parse_guard_atom()?];
        while self.eat_sym("&&") {
            parts.push(self.parse_guard_atom()?);
        }
        Ok(Guard::and(parts))
    }

    fn parse_guard_atom(&mut self) -> Result<Guard, DslParseError> {
        if self.eat_sym("!") {
            return Ok(self.parse_guard_atom()?.negate());
        }
        if self.eat_sym("(") {
            let g = self.parse_guard()?;
            self.expect_sym(")")?;
            return Ok(g);
        }
        if self.eat_word("true") {
            return Ok(Guard::True);
        }
        if self.eat_word("false") {
            return Ok(Guard::False);
        }
        // stmt(...), unchanged(...), syntacticDef/Use(...), labels, and
        // equalities `A == B`.
        let name = self.expect_ident()?;
        if self.peek() == &Tok::Sym("==") {
            // VarEq / ConstEq with the first operand an identifier.
            self.bump();
            return self.parse_equality(Operand::Ident(name));
        }
        self.expect_sym("(")?;
        let g = match name.as_str() {
            "stmt" => {
                let pat = self.parse_stmt_pattern()?;
                Guard::Stmt(pat)
            }
            "unchanged" => Guard::Unchanged(self.parse_expr_pattern()?),
            "syntacticDef" => Guard::SyntacticDef(self.parse_var_pattern()?),
            "syntacticUse" => Guard::SyntacticUse(self.parse_var_pattern()?),
            _ => {
                let mut args = Vec::new();
                loop {
                    args.push(self.parse_label_arg()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                Guard::Label(name.as_str().into(), args)
            }
        };
        self.expect_sym(")")?;
        Ok(g)
    }

    fn parse_equality(&mut self, lhs: Operand) -> Result<Guard, DslParseError> {
        let rhs = match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Operand::Int(n)
            }
            Tok::Ident(s) => {
                self.bump();
                Operand::Ident(s)
            }
            other => return Err(self.err(format!("expected operand, found {}", describe(&other)))),
        };
        match (&lhs, &rhs) {
            (Operand::Int(a), Operand::Int(b)) => Ok(Guard::ConstEq(
                ConstPat::Concrete(*a),
                ConstPat::Concrete(*b),
            )),
            (Operand::Ident(a), Operand::Int(b)) => {
                Ok(Guard::ConstEq(const_pat(a), ConstPat::Concrete(*b)))
            }
            (Operand::Int(a), Operand::Ident(b)) => {
                Ok(Guard::ConstEq(ConstPat::Concrete(*a), const_pat(b)))
            }
            (Operand::Ident(a), Operand::Ident(b)) => {
                if is_const_ident(a) || is_const_ident(b) {
                    Ok(Guard::ConstEq(const_pat(a), const_pat(b)))
                } else {
                    Ok(Guard::VarEq(var_pat(a), var_pat(b)))
                }
            }
        }
    }

    fn parse_label_arg(&mut self) -> Result<LabelArgPat, DslParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(LabelArgPat::Const(ConstPat::Concrete(n)))
            }
            Tok::Sym("*") | Tok::Sym("&") => Ok(LabelArgPat::Expr(self.parse_expr_pattern()?)),
            Tok::Ident(s) => {
                self.bump();
                if is_expr_ident(&s) {
                    Ok(LabelArgPat::Expr(ExprPat::Pat(s.as_str().into())))
                } else if is_const_ident(&s) {
                    Ok(LabelArgPat::Const(const_pat(&s)))
                } else {
                    Ok(LabelArgPat::Var(var_pat(&s)))
                }
            }
            other => Err(self.err(format!(
                "expected label argument, found {}",
                describe(&other)
            ))),
        }
    }

    // ---- witnesses ------------------------------------------------------

    fn parse_forward_witness(&mut self) -> Result<ForwardWitness, DslParseError> {
        let first = self.parse_forward_witness_atom()?;
        let mut rest = Vec::new();
        while self.eat_sym("&&") {
            rest.push(self.parse_forward_witness_atom()?);
        }
        Ok(if rest.is_empty() {
            first
        } else {
            let mut parts = vec![first];
            parts.extend(rest);
            ForwardWitness::And(parts)
        })
    }

    fn parse_forward_witness_atom(&mut self) -> Result<ForwardWitness, DslParseError> {
        if self.eat_word("true") {
            return Ok(ForwardWitness::True);
        }
        if self.eat_word("notPointedTo") {
            self.expect_sym("(")?;
            let v = self.parse_var_pattern()?;
            self.expect_sym(")")?;
            return Ok(ForwardWitness::NotPointedTo(v));
        }
        self.expect_word("eta")?;
        self.expect_sym("(")?;
        let x = self.parse_var_pattern()?;
        self.expect_sym(")")?;
        self.expect_sym("==")?;
        if self.eat_word("eta") {
            self.expect_sym("(")?;
            let e = self.parse_expr_pattern()?;
            self.expect_sym(")")?;
            return Ok(match e {
                ExprPat::Base(BasePat::Var(y)) => ForwardWitness::VarEqVar(x, y),
                e => ForwardWitness::VarEqExpr(x, e),
            });
        }
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(ForwardWitness::VarEqConst(x, ConstPat::Concrete(n)))
            }
            Tok::Ident(s) if is_const_ident(&s) => {
                self.bump();
                Ok(ForwardWitness::VarEqConst(x, const_pat(&s)))
            }
            other => Err(self.err(format!(
                "expected constant or `eta(...)`, found {}",
                describe(&other)
            ))),
        }
    }

    fn parse_backward_witness(&mut self) -> Result<BackwardWitness, DslParseError> {
        self.expect_word("old")?;
        if self.eat_sym("/") {
            let x = self.parse_var_pattern()?;
            self.expect_sym("==")?;
            self.expect_word("new")?;
            self.expect_sym("/")?;
            let x2 = self.parse_var_pattern()?;
            if x != x2 {
                return Err(self.err("old/X == new/Y must name the same variable"));
            }
            Ok(BackwardWitness::AgreeExcept(x))
        } else {
            self.expect_sym("==")?;
            self.expect_word("new")?;
            Ok(BackwardWitness::Identical)
        }
    }

    // ---- patterns -------------------------------------------------------

    fn parse_var_pattern(&mut self) -> Result<VarPat, DslParseError> {
        let s = self.expect_ident()?;
        Ok(var_pat(&s))
    }

    fn parse_stmt_pattern(&mut self) -> Result<StmtPat, DslParseError> {
        if self.eat_word("skip") {
            return Ok(StmtPat::Skip);
        }
        if self.eat_word("decl") {
            return Ok(StmtPat::Decl(self.parse_var_pattern()?));
        }
        if self.eat_word("return") {
            if self.eat_sym("...") {
                return Ok(StmtPat::ReturnAny);
            }
            return Ok(StmtPat::Return(self.parse_var_pattern()?));
        }
        if self.eat_word("if") {
            let cond = self.parse_base_pattern()?;
            self.expect_word("goto")?;
            let t1 = self.parse_idx_pattern()?;
            self.expect_word("else")?;
            let t2 = self.parse_idx_pattern()?;
            return Ok(StmtPat::If {
                cond,
                then_target: t1,
                else_target: t2,
            });
        }
        // Left-hand side: `*X`, `...`, or a variable.
        let lhs = if self.eat_sym("*") {
            LhsPat::Deref(self.parse_var_pattern()?)
        } else if self.eat_sym("...") {
            LhsPat::Any
        } else {
            LhsPat::Var(self.parse_var_pattern()?)
        };
        self.expect_sym(":=")?;
        // Right-hand side: `new`, a call `P(b)`, or an expression.
        if self.eat_word("new") {
            return match lhs {
                LhsPat::Var(v) => Ok(StmtPat::New(v)),
                _ => Err(self.err("`:= new` requires a variable destination")),
            };
        }
        if let (Tok::Ident(callee), Tok::Sym("(")) = (
            self.peek().clone(),
            self.toks[(self.pos + 1).min(self.toks.len() - 1)].0.clone(),
        ) {
            if !is_expr_ident(&callee) && !self.peek_word("fold") {
                self.bump();
                self.bump();
                let arg = self.parse_base_pattern()?;
                self.expect_sym(")")?;
                let dst = match lhs {
                    LhsPat::Var(v) => v,
                    _ => return Err(self.err("calls require a variable destination")),
                };
                return Ok(StmtPat::Call {
                    dst,
                    proc: ProcPat::Pat(callee.as_str().into()),
                    arg,
                });
            }
        }
        let e = self.parse_expr_pattern()?;
        Ok(StmtPat::Assign(lhs, e))
    }

    fn parse_idx_pattern(&mut self) -> Result<IdxPat, DslParseError> {
        match self.peek().clone() {
            Tok::Int(n) if n >= 0 => {
                self.bump();
                Ok(IdxPat::Concrete(n as usize))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(IdxPat::Pat(s.as_str().into()))
            }
            other => Err(self.err(format!(
                "expected branch target, found {}",
                describe(&other)
            ))),
        }
    }

    fn parse_base_pattern(&mut self) -> Result<BasePat, DslParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(BasePat::Const(ConstPat::Concrete(n)))
            }
            Tok::Sym("-") => {
                self.bump();
                match self.bump() {
                    Tok::Int(n) => Ok(BasePat::Const(ConstPat::Concrete(-n))),
                    other => {
                        Err(self.err(format!("expected integer, found {}", describe(&other))))
                    }
                }
            }
            Tok::Ident(s) => {
                self.bump();
                if is_const_ident(&s) {
                    Ok(BasePat::Const(const_pat(&s)))
                } else {
                    Ok(BasePat::Var(var_pat(&s)))
                }
            }
            other => Err(self.err(format!(
                "expected variable or constant, found {}",
                describe(&other)
            ))),
        }
    }

    fn parse_expr_pattern(&mut self) -> Result<ExprPat, DslParseError> {
        if self.eat_sym("...") {
            return Ok(ExprPat::Any);
        }
        if self.eat_sym("*") {
            return Ok(ExprPat::Deref(self.parse_var_pattern()?));
        }
        if self.eat_sym("&") {
            return Ok(ExprPat::AddrOf(self.parse_var_pattern()?));
        }
        if self.eat_word("fold") {
            self.expect_sym("(")?;
            let e = self.expect_ident()?;
            self.expect_sym(")")?;
            return Ok(ExprPat::Fold(e.as_str().into()));
        }
        // Expression pattern variable?
        if let Tok::Ident(s) = self.peek().clone() {
            if is_expr_ident(&s) {
                self.bump();
                return Ok(ExprPat::Pat(s.as_str().into()));
            }
        }
        let first = self.parse_base_pattern()?;
        if let Some(op) = self.peek_binop() {
            self.bump();
            let second = self.parse_base_pattern()?;
            return Ok(ExprPat::Op(op, vec![first, second]));
        }
        Ok(ExprPat::Base(first))
    }

    fn peek_binop(&self) -> Option<OpKind> {
        match self.peek() {
            Tok::Sym("+") => Some(OpKind::Add),
            Tok::Sym("-") => Some(OpKind::Sub),
            Tok::Sym("*") => Some(OpKind::Mul),
            Tok::Sym("/") => Some(OpKind::Div),
            Tok::Sym("%") => Some(OpKind::Mod),
            Tok::Sym("==") => Some(OpKind::Eq),
            Tok::Sym("<") => Some(OpKind::Lt),
            Tok::Sym(">") => Some(OpKind::Gt),
            _ => None,
        }
    }
}

enum Operand {
    Ident(String),
    Int(i64),
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

fn match_sym(s: &str) -> &'static str {
    SYMS.iter().find(|&&x| x == s).copied().unwrap_or("")
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => format!("identifier `{s}`"),
        Tok::Int(n) => format!("integer `{n}`"),
        Tok::Sym(s) => format!("`{s}`"),
        Tok::Eof => "end of input".to_string(),
    }
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
