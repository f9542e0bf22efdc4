//! The *extended intermediate language*: IL syntax augmented with
//! pattern variables and wildcards (paper §3.2.1), plus matching against
//! concrete fragments and instantiation under a substitution.

use crate::error::InstError;
use crate::label::FragKind;
use crate::subst::{Binding, PatVar, Subst};
use cobalt_il::{eval_op, BaseExpr, Expr, Index, Lhs, OpKind, ProcName, Stmt, Var};
use std::fmt;

/// A variable position: concrete or a pattern variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VarPat {
    /// A concrete program variable.
    Concrete(Var),
    /// A pattern variable ranging over program variables.
    Pat(PatVar),
}

impl VarPat {
    /// Shorthand for a pattern variable.
    pub fn pat(name: &str) -> Self {
        VarPat::Pat(PatVar::new(name))
    }

    /// Matches against a concrete variable, extending `theta`.
    pub fn matches(&self, v: &Var, theta: &mut Subst) -> bool {
        match self {
            VarPat::Concrete(w) => w == v,
            VarPat::Pat(p) => theta.bind_with(
                p,
                |b| matches!(b, Binding::Var(w) if w == v),
                || Binding::Var(v.clone()),
            ),
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Fails if a pattern variable is unbound or bound to a non-variable.
    pub fn instantiate(&self, theta: &Subst) -> Result<Var, InstError> {
        self.resolve(theta).cloned()
    }

    /// [`instantiate`](Self::instantiate), borrowing the variable; it
    /// fails as that does.
    pub fn resolve<'a>(&'a self, theta: &'a Subst) -> Result<&'a Var, InstError> {
        match self {
            VarPat::Concrete(v) => Ok(v),
            VarPat::Pat(p) => match theta.get(p) {
                Some(Binding::Var(v)) => Ok(v),
                Some(other) => Err(InstError::kind_mismatch(p, "variable", other)),
                None => Err(InstError::unbound(p)),
            },
        }
    }

    /// Appends the pattern variable, if this is one.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        if let VarPat::Pat(p) = self {
            out.push((p.clone(), FragKind::Var));
        }
    }
}

impl fmt::Display for VarPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarPat::Concrete(v) => write!(f, "{v}"),
            VarPat::Pat(p) => write!(f, "{p}"),
        }
    }
}

/// A constant position: concrete or a pattern variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConstPat {
    /// A concrete integer constant.
    Concrete(i64),
    /// A pattern variable ranging over constants.
    Pat(PatVar),
}

impl ConstPat {
    /// Shorthand for a pattern variable.
    pub fn pat(name: &str) -> Self {
        ConstPat::Pat(PatVar::new(name))
    }

    /// Matches against a concrete constant, extending `theta`.
    pub fn matches(&self, c: i64, theta: &mut Subst) -> bool {
        match self {
            ConstPat::Concrete(d) => *d == c,
            ConstPat::Pat(p) => theta.bind(p.clone(), Binding::Const(c)),
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Fails if a pattern variable is unbound or bound to a non-constant.
    pub fn instantiate(&self, theta: &Subst) -> Result<i64, InstError> {
        match self {
            ConstPat::Concrete(c) => Ok(*c),
            ConstPat::Pat(p) => match theta.get(p) {
                Some(Binding::Const(c)) => Ok(*c),
                Some(other) => Err(InstError::kind_mismatch(p, "constant", other)),
                None => Err(InstError::unbound(p)),
            },
        }
    }

    /// Appends the pattern variable, if this is one.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        if let ConstPat::Pat(p) = self {
            out.push((p.clone(), FragKind::Const));
        }
    }
}

impl fmt::Display for ConstPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstPat::Concrete(c) => write!(f, "{c}"),
            ConstPat::Pat(p) => write!(f, "{p}"),
        }
    }
}

/// A base-expression position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BasePat {
    /// A variable.
    Var(VarPat),
    /// A constant.
    Const(ConstPat),
}

impl BasePat {
    /// Matches against a concrete base expression.
    pub fn matches(&self, b: &BaseExpr, theta: &mut Subst) -> bool {
        match (self, b) {
            (BasePat::Var(vp), BaseExpr::Var(v)) => vp.matches(v, theta),
            (BasePat::Const(cp), BaseExpr::Const(c)) => cp.matches(*c, theta),
            _ => false,
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Propagates unbound/mismatched pattern variables.
    pub fn instantiate(&self, theta: &Subst) -> Result<BaseExpr, InstError> {
        match self {
            BasePat::Var(vp) => Ok(BaseExpr::Var(vp.instantiate(theta)?)),
            BasePat::Const(cp) => Ok(BaseExpr::Const(cp.instantiate(theta)?)),
        }
    }

    /// Appends the pattern variable, if there is one.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        match self {
            BasePat::Var(v) => v.vars(out),
            BasePat::Const(c) => c.vars(out),
        }
    }
}

impl fmt::Display for BasePat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasePat::Var(v) => write!(f, "{v}"),
            BasePat::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An expression position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprPat {
    /// A pattern variable ranging over whole expressions (`E`).
    Pat(PatVar),
    /// A wildcard: matches any expression, binding nothing (`…`).
    Any,
    /// A base expression.
    Base(BasePat),
    /// `*x`.
    Deref(VarPat),
    /// `&x`.
    AddrOf(VarPat),
    /// `op b … b`.
    Op(OpKind, Vec<BasePat>),
    /// The compile-time constant fold of the expression bound to the
    /// inner pattern. Only meaningful on the right-hand side of a
    /// rewrite (used by constant folding); instantiation fails if the
    /// bound expression is not a foldable operator application.
    Fold(PatVar),
}

impl ExprPat {
    /// Matches against a concrete expression.
    pub fn matches(&self, e: &Expr, theta: &mut Subst) -> bool {
        match (self, e) {
            (ExprPat::Pat(p), e) => theta.bind_with(
                p,
                |b| matches!(b, Binding::Expr(f) if f == e),
                || Binding::Expr(e.clone()),
            ),
            (ExprPat::Any, _) => true,
            (ExprPat::Base(bp), Expr::Base(b)) => bp.matches(b, theta),
            (ExprPat::Deref(vp), Expr::Deref(v)) => vp.matches(v, theta),
            (ExprPat::AddrOf(vp), Expr::AddrOf(v)) => vp.matches(v, theta),
            (ExprPat::Op(op, ps), Expr::Op(op2, bs)) => {
                op == op2
                    && ps.len() == bs.len()
                    && ps.iter().zip(bs).all(|(p, b)| p.matches(b, theta))
            }
            (ExprPat::Fold(_), _) => false,
            _ => false,
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Propagates unbound/mismatched pattern variables; for
    /// [`ExprPat::Fold`], fails if the bound expression does not fold to
    /// a constant.
    pub fn instantiate(&self, theta: &Subst) -> Result<Expr, InstError> {
        match self {
            ExprPat::Pat(p) => match theta.get(p) {
                Some(Binding::Expr(e)) => Ok(e.clone()),
                Some(other) => Err(InstError::kind_mismatch(p, "expression", other)),
                None => Err(InstError::unbound(p)),
            },
            ExprPat::Any => Err(InstError::wildcard_in_template()),
            ExprPat::Base(bp) => Ok(Expr::Base(bp.instantiate(theta)?)),
            ExprPat::Deref(vp) => Ok(Expr::Deref(vp.instantiate(theta)?)),
            ExprPat::AddrOf(vp) => Ok(Expr::AddrOf(vp.instantiate(theta)?)),
            ExprPat::Op(op, ps) => {
                let args = ps
                    .iter()
                    .map(|p| p.instantiate(theta))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::Op(*op, args))
            }
            ExprPat::Fold(p) => match theta.get(p) {
                Some(Binding::Expr(e)) => fold_expr(e)
                    .map(Expr::constant)
                    .ok_or_else(|| InstError::not_foldable(p, e)),
                Some(other) => Err(InstError::kind_mismatch(p, "expression", other)),
                None => Err(InstError::unbound(p)),
            },
        }
    }

    /// Appends every pattern-variable occurrence, in order.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        match self {
            ExprPat::Pat(p) | ExprPat::Fold(p) => out.push((p.clone(), FragKind::Expr)),
            ExprPat::Any => {}
            ExprPat::Base(b) => b.vars(out),
            ExprPat::Deref(v) | ExprPat::AddrOf(v) => v.vars(out),
            ExprPat::Op(_, args) => args.iter().for_each(|a| a.vars(out)),
        }
    }
}

/// Constant-folds an expression if it is a constant or an operator
/// application over constants that evaluates without fault.
pub fn fold_expr(e: &Expr) -> Option<i64> {
    match e {
        Expr::Base(BaseExpr::Const(c)) => Some(*c),
        Expr::Op(op, args) => {
            let int = |b: &BaseExpr| match b {
                BaseExpr::Const(c) => Some(*c),
                BaseExpr::Var(_) => None,
            };
            match &args[..] {
                [a] => eval_op(*op, &[int(a)?]),
                [a, b] => eval_op(*op, &[int(a)?, int(b)?]),
                _ => eval_op(*op, &args.iter().map(int).collect::<Option<Vec<_>>>()?),
            }
        }
        _ => None,
    }
}

impl fmt::Display for ExprPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprPat::Pat(p) => write!(f, "{p}"),
            ExprPat::Any => write!(f, "..."),
            ExprPat::Base(b) => write!(f, "{b}"),
            ExprPat::Deref(v) => write!(f, "*{v}"),
            ExprPat::AddrOf(v) => write!(f, "&{v}"),
            ExprPat::Op(op, args) => match args.as_slice() {
                [a, b] => write!(f, "{a} {op} {b}"),
                [a] => write!(f, "{op}{a}"),
                _ => {
                    write!(f, "{op}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            },
            ExprPat::Fold(p) => write!(f, "fold({p})"),
        }
    }
}

/// A left-hand-side position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LhsPat {
    /// A variable.
    Var(VarPat),
    /// `*x`.
    Deref(VarPat),
    /// A wildcard matching any left-hand side (`…`).
    Any,
}

impl LhsPat {
    /// Matches against a concrete left-hand side.
    pub fn matches(&self, lhs: &Lhs, theta: &mut Subst) -> bool {
        match (self, lhs) {
            (LhsPat::Var(vp), Lhs::Var(v)) => vp.matches(v, theta),
            (LhsPat::Deref(vp), Lhs::Deref(v)) => vp.matches(v, theta),
            (LhsPat::Any, _) => true,
            _ => false,
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Propagates unbound/mismatched pattern variables; wildcards cannot
    /// be instantiated.
    pub fn instantiate(&self, theta: &Subst) -> Result<Lhs, InstError> {
        match self {
            LhsPat::Var(vp) => Ok(Lhs::Var(vp.instantiate(theta)?)),
            LhsPat::Deref(vp) => Ok(Lhs::Deref(vp.instantiate(theta)?)),
            LhsPat::Any => Err(InstError::wildcard_in_template()),
        }
    }
}

impl fmt::Display for LhsPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LhsPat::Var(v) => write!(f, "{v}"),
            LhsPat::Deref(v) => write!(f, "*{v}"),
            LhsPat::Any => write!(f, "..."),
        }
    }
}

/// A branch-target position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IdxPat {
    /// A concrete statement index.
    Concrete(Index),
    /// A pattern variable ranging over indices.
    Pat(PatVar),
}

impl IdxPat {
    /// Shorthand for a pattern variable.
    pub fn pat(name: &str) -> Self {
        IdxPat::Pat(PatVar::new(name))
    }

    /// Matches against a concrete index.
    pub fn matches(&self, i: Index, theta: &mut Subst) -> bool {
        match self {
            IdxPat::Concrete(j) => *j == i,
            IdxPat::Pat(p) => theta.bind(p.clone(), Binding::Index(i)),
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Propagates unbound/mismatched pattern variables.
    pub fn instantiate(&self, theta: &Subst) -> Result<Index, InstError> {
        match self {
            IdxPat::Concrete(i) => Ok(*i),
            IdxPat::Pat(p) => match theta.get(p) {
                Some(Binding::Index(i)) => Ok(*i),
                Some(other) => Err(InstError::kind_mismatch(p, "index", other)),
                None => Err(InstError::unbound(p)),
            },
        }
    }

    /// Appends the pattern variable, if this is one.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        if let IdxPat::Pat(p) = self {
            out.push((p.clone(), FragKind::Index));
        }
    }
}

impl fmt::Display for IdxPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxPat::Concrete(i) => write!(f, "{i}"),
            IdxPat::Pat(p) => write!(f, "{p}"),
        }
    }
}

/// A procedure-name position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProcPat {
    /// A concrete procedure name.
    Concrete(ProcName),
    /// A pattern variable ranging over procedure names.
    Pat(PatVar),
}

impl ProcPat {
    /// Matches against a concrete procedure name.
    pub fn matches(&self, p: &ProcName, theta: &mut Subst) -> bool {
        match self {
            ProcPat::Concrete(q) => q == p,
            ProcPat::Pat(v) => theta.bind(v.clone(), Binding::Proc(p.clone())),
        }
    }

    /// Instantiates under `theta`.
    ///
    /// # Errors
    ///
    /// Propagates unbound/mismatched pattern variables.
    pub fn instantiate(&self, theta: &Subst) -> Result<ProcName, InstError> {
        match self {
            ProcPat::Concrete(p) => Ok(p.clone()),
            ProcPat::Pat(v) => match theta.get(v) {
                Some(Binding::Proc(p)) => Ok(p.clone()),
                Some(other) => Err(InstError::kind_mismatch(v, "procedure", other)),
                None => Err(InstError::unbound(v)),
            },
        }
    }
}

impl fmt::Display for ProcPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcPat::Concrete(p) => write!(f, "{p}"),
            ProcPat::Pat(v) => write!(f, "{v}"),
        }
    }
}

/// A statement pattern of the extended intermediate language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StmtPat {
    /// Matches any statement, binding nothing.
    Any,
    /// `decl x`.
    Decl(VarPat),
    /// `skip`.
    Skip,
    /// `lhs := e`.
    Assign(LhsPat, ExprPat),
    /// `x := new`.
    New(VarPat),
    /// `x := p(b)`.
    Call {
        /// Destination variable.
        dst: VarPat,
        /// Callee.
        proc: ProcPat,
        /// Argument.
        arg: BasePat,
    },
    /// `if b goto ι else ι`.
    If {
        /// Condition.
        cond: BasePat,
        /// Then target.
        then_target: IdxPat,
        /// Else target.
        else_target: IdxPat,
    },
    /// `return x`.
    Return(VarPat),
    /// `return ...` — any return statement.
    ReturnAny,
}

impl StmtPat {
    /// Shorthand: `X := E` with both sides pattern variables.
    pub fn assign_pats(x: &str, e: &str) -> Self {
        StmtPat::Assign(LhsPat::Var(VarPat::pat(x)), ExprPat::Pat(PatVar::new(e)))
    }

    /// What keeps this pattern from being a rewrite template the checker
    /// can prove, if anything: a pointer store, or a dereference or an
    /// operator application on the right. The symbolic execution of the
    /// transformed program may not assume that these succeed (the
    /// paper's footnote 6).
    pub fn template_violation(&self) -> Option<&'static str> {
        match self {
            StmtPat::Assign(LhsPat::Deref(_), _) => Some("pointer store"),
            StmtPat::Assign(_, ExprPat::Deref(_) | ExprPat::Op(..)) => {
                Some("dereference or operator application")
            }
            _ => None,
        }
    }

    /// Matches against a concrete statement under `theta`, extending
    /// `theta` with new bindings on success. On failure `theta` may be
    /// partially extended; callers should clone first (see
    /// [`StmtPat::try_match`]).
    pub fn matches(&self, s: &Stmt, theta: &mut Subst) -> bool {
        match (self, s) {
            (StmtPat::Any, _) => true,
            (StmtPat::Decl(vp), Stmt::Decl(v)) => vp.matches(v, theta),
            (StmtPat::Skip, Stmt::Skip) => true,
            (StmtPat::Assign(lp, ep), Stmt::Assign(lhs, e)) => {
                lp.matches(lhs, theta) && ep.matches(e, theta)
            }
            (StmtPat::New(vp), Stmt::New(v)) => vp.matches(v, theta),
            (
                StmtPat::Call { dst, proc, arg },
                Stmt::Call {
                    dst: d,
                    proc: p,
                    arg: a,
                },
            ) => dst.matches(d, theta) && proc.matches(p, theta) && arg.matches(a, theta),
            (
                StmtPat::If {
                    cond,
                    then_target,
                    else_target,
                },
                Stmt::If {
                    cond: c,
                    then_target: t,
                    else_target: e,
                },
            ) => cond.matches(c, theta) && then_target.matches(*t, theta) && else_target.matches(*e, theta),
            (StmtPat::Return(vp), Stmt::Return(v)) => vp.matches(v, theta),
            (StmtPat::ReturnAny, Stmt::Return(_)) => true,
            _ => false,
        }
    }

    /// Matches against a statement, returning the extended substitution
    /// on success and leaving `theta` untouched on failure.
    pub fn try_match(&self, s: &Stmt, theta: &Subst) -> Option<Subst> {
        if !self.same_shape(s) {
            return None;
        }
        let mut t = theta.clone();
        self.matches(s, &mut t).then_some(t)
    }

    /// Whether `s` has this pattern's statement form, and for an
    /// assignment the forms of its two sides, which every match needs.
    fn same_shape(&self, s: &Stmt) -> bool {
        match (self, s) {
            (StmtPat::Assign(lp, ep), Stmt::Assign(lhs, e)) => {
                matches!(
                    (lp, lhs),
                    (LhsPat::Any, _)
                        | (LhsPat::Var(_), Lhs::Var(_))
                        | (LhsPat::Deref(_), Lhs::Deref(_))
                ) && matches!(
                    (ep, e),
                    (ExprPat::Pat(_) | ExprPat::Any, _)
                        | (ExprPat::Base(_), Expr::Base(_))
                        | (ExprPat::Deref(_), Expr::Deref(_))
                        | (ExprPat::AddrOf(_), Expr::AddrOf(_))
                        | (ExprPat::Op(..), Expr::Op(..))
                )
            }
            (StmtPat::Any, _)
            | (StmtPat::Decl(_), Stmt::Decl(_))
            | (StmtPat::Skip, Stmt::Skip)
            | (StmtPat::New(_), Stmt::New(_))
            | (StmtPat::Call { .. }, Stmt::Call { .. })
            | (StmtPat::If { .. }, Stmt::If { .. })
            | (StmtPat::Return(_) | StmtPat::ReturnAny, Stmt::Return(_)) => true,
            _ => false,
        }
    }

    /// Instantiates the pattern into a concrete statement — `θ(s)`.
    ///
    /// # Errors
    ///
    /// Fails if any pattern variable is unbound or bound to a fragment
    /// of the wrong kind, or if the pattern contains wildcards.
    pub fn instantiate(&self, theta: &Subst) -> Result<Stmt, InstError> {
        match self {
            StmtPat::Any | StmtPat::ReturnAny => Err(InstError::wildcard_in_template()),
            StmtPat::Decl(vp) => Ok(Stmt::Decl(vp.instantiate(theta)?)),
            StmtPat::Skip => Ok(Stmt::Skip),
            StmtPat::Assign(lp, ep) => {
                Ok(Stmt::Assign(lp.instantiate(theta)?, ep.instantiate(theta)?))
            }
            StmtPat::New(vp) => Ok(Stmt::New(vp.instantiate(theta)?)),
            StmtPat::Call { dst, proc, arg } => Ok(Stmt::Call {
                dst: dst.instantiate(theta)?,
                proc: proc.instantiate(theta)?,
                arg: arg.instantiate(theta)?,
            }),
            StmtPat::If {
                cond,
                then_target,
                else_target,
            } => Ok(Stmt::If {
                cond: cond.instantiate(theta)?,
                then_target: then_target.instantiate(theta)?,
                else_target: else_target.instantiate(theta)?,
            }),
            StmtPat::Return(vp) => Ok(Stmt::Return(vp.instantiate(theta)?)),
        }
    }

    /// Appends every pattern-variable occurrence, in order, with its
    /// fragment kind; a repeated variable is reported at each
    /// occurrence.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        match self {
            StmtPat::Any | StmtPat::Skip | StmtPat::ReturnAny => {}
            StmtPat::Decl(v) | StmtPat::New(v) | StmtPat::Return(v) => v.vars(out),
            StmtPat::Assign(lhs, e) => {
                if let LhsPat::Var(v) | LhsPat::Deref(v) = lhs {
                    v.vars(out);
                }
                e.vars(out);
            }
            StmtPat::Call { dst, proc, arg } => {
                dst.vars(out);
                if let ProcPat::Pat(p) = proc {
                    out.push((p.clone(), FragKind::Proc));
                }
                arg.vars(out);
            }
            StmtPat::If {
                cond,
                then_target,
                else_target,
            } => {
                cond.vars(out);
                then_target.vars(out);
                else_target.vars(out);
            }
        }
    }
}

impl fmt::Display for StmtPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtPat::Any => write!(f, "..."),
            StmtPat::Decl(v) => write!(f, "decl {v}"),
            StmtPat::Skip => write!(f, "skip"),
            StmtPat::Assign(l, e) => write!(f, "{l} := {e}"),
            StmtPat::New(v) => write!(f, "{v} := new"),
            StmtPat::Call { dst, proc, arg } => write!(f, "{dst} := {proc}({arg})"),
            StmtPat::If {
                cond,
                then_target,
                else_target,
            } => write!(f, "if {cond} goto {then_target} else {else_target}"),
            StmtPat::Return(v) => write!(f, "return {v}"),
            StmtPat::ReturnAny => write!(f, "return ..."),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_il::parse_stmt;

    fn assign_y_c() -> StmtPat {
        // stmt pattern `Y := C` from the constant-propagation example.
        StmtPat::Assign(
            LhsPat::Var(VarPat::pat("Y")),
            ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
        )
    }

    #[test]
    fn matches_paper_example_1() {
        let s = parse_stmt("a := 2").unwrap();
        let theta = assign_y_c().try_match(&s, &Subst::new()).unwrap();
        assert_eq!(theta.to_string(), "[C ↦ 2, Y ↦ a]");
    }

    #[test]
    fn const_pattern_rejects_variable_rhs() {
        let s = parse_stmt("a := b").unwrap();
        assert!(assign_y_c().try_match(&s, &Subst::new()).is_none());
    }

    #[test]
    fn repeated_pattern_variable_must_agree() {
        // X := X matches self-assignments only.
        let p = StmtPat::Assign(
            LhsPat::Var(VarPat::pat("X")),
            ExprPat::Base(BasePat::Var(VarPat::pat("X"))),
        );
        assert!(p
            .try_match(&parse_stmt("a := a").unwrap(), &Subst::new())
            .is_some());
        assert!(p
            .try_match(&parse_stmt("a := b").unwrap(), &Subst::new())
            .is_none());
    }

    #[test]
    fn expr_pattern_variable_matches_any_rhs() {
        let p = StmtPat::assign_pats("X", "E");
        for src in ["a := 2", "a := b + 1", "a := *p", "a := &b"] {
            let s = parse_stmt(src).unwrap();
            assert!(p.try_match(&s, &Subst::new()).is_some(), "{src}");
        }
        // But not non-assignments.
        assert!(p
            .try_match(&parse_stmt("a := new").unwrap(), &Subst::new())
            .is_none());
        assert!(p
            .try_match(&parse_stmt("skip").unwrap(), &Subst::new())
            .is_none());
        // And not pointer stores.
        assert!(p
            .try_match(&parse_stmt("*a := 1").unwrap(), &Subst::new())
            .is_none());
    }

    #[test]
    fn wildcard_lhs_matches_pointer_store() {
        // `... := &X` — the notTainted analysis guard.
        let p = StmtPat::Assign(LhsPat::Any, ExprPat::AddrOf(VarPat::pat("X")));
        let theta = p
            .try_match(&parse_stmt("q := &y").unwrap(), &Subst::new())
            .unwrap();
        assert_eq!(theta.to_string(), "[X ↦ y]");
        assert!(p
            .try_match(&parse_stmt("*q := &y").unwrap(), &Subst::new())
            .is_some());
        assert!(p
            .try_match(&parse_stmt("q := y").unwrap(), &Subst::new())
            .is_none());
    }

    #[test]
    fn return_any_matches_all_returns() {
        assert!(StmtPat::ReturnAny
            .try_match(&parse_stmt("return x").unwrap(), &Subst::new())
            .is_some());
        assert!(StmtPat::ReturnAny
            .try_match(&parse_stmt("skip").unwrap(), &Subst::new())
            .is_none());
    }

    #[test]
    fn instantiation_roundtrip() {
        let s = parse_stmt("a := 2").unwrap();
        let theta = assign_y_c().try_match(&s, &Subst::new()).unwrap();
        assert_eq!(assign_y_c().instantiate(&theta).unwrap(), s);
    }

    #[test]
    fn instantiation_of_rewrite_rhs() {
        // From `X := Y` matched against `c := a`, with `C ↦ 2` from an
        // earlier enabling statement, build `c := 2`.
        let lhs = StmtPat::Assign(
            LhsPat::Var(VarPat::pat("X")),
            ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
        );
        let rhs = StmtPat::Assign(
            LhsPat::Var(VarPat::pat("X")),
            ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
        );
        let mut theta = Subst::new();
        theta.bind("C".into(), Binding::Const(2));
        let theta = lhs
            .try_match(&parse_stmt("c := a").unwrap(), &theta)
            .unwrap();
        assert_eq!(
            rhs.instantiate(&theta).unwrap(),
            parse_stmt("c := 2").unwrap()
        );
    }

    #[test]
    fn instantiation_errors() {
        let p = StmtPat::assign_pats("X", "E");
        let err = p.instantiate(&Subst::new()).unwrap_err();
        assert!(err.to_string().contains("unbound"));

        let mut theta = Subst::new();
        theta.bind("X".into(), Binding::Const(1)); // wrong kind
        theta.bind("E".into(), Binding::Expr(Expr::constant(1)));
        let err = p.instantiate(&theta).unwrap_err();
        assert!(err.to_string().contains("variable"));

        assert!(StmtPat::Any.instantiate(&Subst::new()).is_err());
    }

    #[test]
    fn fold_instantiation() {
        let rhs = StmtPat::Assign(LhsPat::Var(VarPat::pat("X")), ExprPat::Fold("E".into()));
        let mut theta = Subst::new();
        theta.bind("X".into(), Binding::Var(Var::new("x")));
        theta.bind(
            "E".into(),
            Binding::Expr(Expr::binop(OpKind::Add, BaseExpr::Const(2), BaseExpr::Const(3))),
        );
        assert_eq!(
            rhs.instantiate(&theta).unwrap(),
            parse_stmt("x := 5").unwrap()
        );
        // Division by zero does not fold.
        let mut theta2 = Subst::new();
        theta2.bind("X".into(), Binding::Var(Var::new("x")));
        theta2.bind(
            "E".into(),
            Binding::Expr(Expr::binop(OpKind::Div, BaseExpr::Const(1), BaseExpr::Const(0))),
        );
        assert!(rhs.instantiate(&theta2).is_err());
    }

    #[test]
    fn fold_expr_table() {
        assert_eq!(fold_expr(&Expr::constant(4)), Some(4));
        assert_eq!(
            fold_expr(&Expr::binop(OpKind::Mul, BaseExpr::Const(6), BaseExpr::Const(7))),
            Some(42)
        );
        assert_eq!(
            fold_expr(&Expr::binop(OpKind::Add, BaseExpr::var("a"), BaseExpr::Const(1))),
            None
        );
        assert_eq!(fold_expr(&Expr::var("a")), None);
        assert_eq!(fold_expr(&Expr::Deref(Var::new("p"))), None);
    }

    #[test]
    fn if_pattern_with_index_patterns() {
        let p = StmtPat::If {
            cond: BasePat::Const(ConstPat::pat("C")),
            then_target: IdxPat::pat("I1"),
            else_target: IdxPat::pat("I2"),
        };
        let s = parse_stmt("if 1 goto 4 else 7").unwrap();
        let theta = p.try_match(&s, &Subst::new()).unwrap();
        assert_eq!(theta.to_string(), "[C ↦ 1, I1 ↦ 4, I2 ↦ 7]");
        // A variable condition does not match a constant pattern.
        assert!(p
            .try_match(&parse_stmt("if x goto 4 else 7").unwrap(), &Subst::new())
            .is_none());
    }

    #[test]
    fn display_of_patterns() {
        assert_eq!(assign_y_c().to_string(), "Y := C");
        assert_eq!(StmtPat::assign_pats("X", "E").to_string(), "X := E");
        assert_eq!(
            StmtPat::Assign(LhsPat::Any, ExprPat::AddrOf(VarPat::pat("X"))).to_string(),
            "... := &X"
        );
        assert_eq!(StmtPat::ReturnAny.to_string(), "return ...");
    }
}
