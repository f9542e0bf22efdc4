//! The guard language `ψ` (paper §3.2.2): propositional logic over
//! labels, term equality, and `case` pattern matching on the current
//! statement.
//!
//! Guards are used in two modes:
//!
//! * [`Guard::eval`] — decide `ι ⊨θ ψ` for a *given* substitution;
//! * [`Guard::solve`] — find *all* substitutions (over the finite
//!   domains of the procedure's variables, constants, and expressions)
//!   that make the guard hold at a node. This is what the execution
//!   engine uses to seed dataflow facts at enabling statements.
//!
//! [`Guard::visit`] is the one walk over a guard's atoms, and
//! [`GuardVars`] states the binding discipline on it once, for `solve`
//! ([`Guard::enumerated_vars`]), the linter and the checker's vocabulary
//! alike. A variable only statement patterns that bind nothing name is
//! local to each pattern, which matches it afresh.

use crate::error::GuardError;
use crate::label::{eval_arms, FragKind, LabelArgPat, LabelEnv, LabelName, Labels};
use crate::pattern::{ConstPat, ExprPat, StmtPat, VarPat};
use crate::subst::{Binding, PatVar, Subst};
use cobalt_il::{Expr, Proc, Stmt, Var};
use std::collections::BTreeSet;
use std::fmt;

/// Maximum depth of nested label definitions, guarding against cyclic
/// definitions.
const MAX_LABEL_DEPTH: usize = 32;

/// A guard formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Negation.
    Not(Box<Guard>),
    /// Conjunction.
    And(Vec<Guard>),
    /// Disjunction.
    Or(Vec<Guard>),
    /// The built-in `stmt(S)` label: the node's statement matches `S`.
    Stmt(StmtPat),
    /// A named label applied to arguments.
    Label(LabelName, Vec<LabelArgPat>),
    /// Built-in primitive: the statement syntactically defines the
    /// variable (declaration of, or assignment to, it — paper §2.1.3).
    SyntacticDef(VarPat),
    /// Built-in primitive: the statement reads the variable's contents.
    SyntacticUse(VarPat),
    /// Built-in semantic primitive: executing the statement does not
    /// change the value of the expression (used by CSE/PRE as the
    /// `unchanged(E)` label of paper §2.3).
    Unchanged(ExprPat),
    /// Equality of two constant positions (e.g. the `¬(C = 0)` side
    /// condition of branch folding).
    ConstEq(ConstPat, ConstPat),
    /// Equality of two variable positions.
    VarEq(VarPat, VarPat),
    /// `case currStmt of pat ↦ ψ … else ↦ ψ endcase`: the first arm
    /// whose pattern matches the statement is taken; arm patterns may
    /// bind arm-local pattern variables.
    CaseStmt {
        /// The arms, tried in order.
        arms: Vec<(StmtPat, Guard)>,
        /// Taken when no arm matches.
        default: Box<Guard>,
    },
}

impl Guard {
    /// `¬g`.
    pub fn negate(self) -> Guard {
        match self {
            Guard::True => Guard::False,
            Guard::False => Guard::True,
            Guard::Not(g) => *g,
            g => Guard::Not(Box::new(g)),
        }
    }

    /// Conjunction helper.
    pub fn and(parts: impl IntoIterator<Item = Guard>) -> Guard {
        let mut v: Vec<Guard> = parts.into_iter().collect();
        if v.len() > 1 {
            return Guard::And(v);
        }
        v.pop().unwrap_or(Guard::True)
    }

    /// Disjunction helper.
    pub fn or(parts: impl IntoIterator<Item = Guard>) -> Guard {
        let mut v: Vec<Guard> = parts.into_iter().collect();
        if v.len() > 1 {
            return Guard::Or(v);
        }
        v.pop().unwrap_or(Guard::False)
    }

    /// A `¬l(args)` shorthand.
    pub fn not_label(name: impl Into<LabelName>, args: Vec<LabelArgPat>) -> Guard {
        Guard::Label(name.into(), args).negate()
    }
}

/// A node that [`Guard::visit`] reports.
#[derive(Debug, Clone, Copy)]
pub enum GuardNode<'g> {
    /// An atom: any guard other than `!`, `&&`, `||` and `case`.
    Atom(&'g Guard),
    /// A `case` construct, reported before its arms.
    Case(&'g [(StmtPat, Guard)]),
    /// The pattern of a `case` arm, reported before the arm's guard.
    ArmPattern(&'g StmtPat),
}

/// Where [`Guard::visit`] found a node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Under at least one `!`.
    pub negated: bool,
    /// Inside a `case` arm (its pattern, its guard, or the `else` guard).
    pub in_arm: bool,
}

impl Scope {
    /// Whether a `stmt(…)` atom here binds its variables by matching:
    /// under no `!` and outside every `case`.
    pub fn binds(self) -> bool {
        !self.negated && !self.in_arm
    }
}

impl Guard {
    /// Visits the atoms, `case` constructs and `case` arm patterns of
    /// the guard in pre-order, left to right, with where each sits.
    pub fn visit<'g>(&'g self, f: &mut impl FnMut(GuardNode<'g>, Scope)) {
        self.visit_in(Scope::default(), f);
    }

    fn visit_in<'g>(&'g self, scope: Scope, f: &mut impl FnMut(GuardNode<'g>, Scope)) {
        match self {
            Guard::Not(g) => g.visit_in(
                Scope {
                    negated: true,
                    ..scope
                },
                f,
            ),
            Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| g.visit_in(scope, f)),
            Guard::CaseStmt { arms, default } => {
                f(GuardNode::Case(arms), scope);
                let arm = Scope {
                    in_arm: true,
                    ..scope
                };
                for (pat, g) in arms {
                    f(GuardNode::ArmPattern(pat), arm);
                    g.visit_in(arm, f);
                }
                default.visit_in(arm, f);
            }
            atom => f(GuardNode::Atom(atom), scope),
        }
    }

    /// The statement patterns that bind by matching ([`Scope::binds`]),
    /// in order.
    pub fn binding_stmts(&self) -> Vec<&StmtPat> {
        let mut out = Vec::new();
        self.visit(&mut |node, scope| match node {
            GuardNode::Atom(Guard::Stmt(pat)) if scope.binds() => out.push(pat),
            _ => {}
        });
        out
    }

    /// The pattern variables [`Guard::solve`] enumerates over the
    /// procedure's domain: those [`GuardVars`] reads as
    /// [`Reading::Enumerated`] in a `ψ1`, each once, in order of first
    /// occurrence.
    pub fn enumerated_vars(&self) -> Vec<(PatVar, FragKind)> {
        let mut out: Vec<(PatVar, FragKind)> = Vec::new();
        for (p, kind, reading) in GuardVars::of_rule([(self, true)]).occurrences {
            if reading == Reading::Enumerated && !out.iter().any(|(q, _)| *q == p) {
                out.push((p, kind));
            }
        }
        out
    }
}

/// How the binding discipline reads one occurrence of a guard variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// In a binding statement pattern of `ψ1` ([`Scope::binds`]).
    Matched,
    /// In another atom of `ψ1`, which [`Guard::solve`] enumerates.
    Enumerated,
    /// In an atom of `ψ2` or `where` that is no statement pattern.
    Read,
    /// In any other statement pattern, `case` arm patterns included.
    InStmt,
}

/// A rule's guard variables, sorted by the binding discipline.
#[derive(Debug, Clone)]
pub struct GuardVars {
    /// Every variable occurrence of the guards, in order, with its kind.
    pub occurrences: Vec<(PatVar, FragKind, Reading)>,
}

impl GuardVars {
    /// Sorts the variables of a rule's guards, each flagged when it is
    /// the rule's `ψ1`.
    pub fn of_rule<'g>(guards: impl IntoIterator<Item = (&'g Guard, bool)>) -> GuardVars {
        let mut occurrences = Vec::new();
        for (g, psi1) in guards {
            g.visit(&mut |node, scope| {
                let reading = match (node, psi1) {
                    (GuardNode::Case(_), _) => return,
                    (GuardNode::ArmPattern(_), _) => Reading::InStmt,
                    (GuardNode::Atom(Guard::Stmt(_)), true) if scope.binds() => Reading::Matched,
                    (GuardNode::Atom(Guard::Stmt(_)), _) => Reading::InStmt,
                    (GuardNode::Atom(_), true) => Reading::Enumerated,
                    (GuardNode::Atom(_), false) => Reading::Read,
                };
                let mut vars = Vec::new();
                match node {
                    GuardNode::Atom(atom) => atom_vars(atom, &mut vars),
                    GuardNode::ArmPattern(pat) => pat.vars(&mut vars),
                    GuardNode::Case(_) => {}
                }
                occurrences.extend(vars.into_iter().map(|(p, kind)| (p, kind, reading)));
            });
        }
        GuardVars { occurrences }
    }

    /// `outside` (what the rule names outside its guards: `from`, `to`,
    /// the witness, `defines`), then the occurrences `θ` binds. The rest
    /// are local to each statement pattern they occur in: every
    /// occurrence is [`Reading::InStmt`] and `outside` does not name
    /// them, so `θ` never binds one and each pattern matches it afresh.
    pub fn theta(self, mut outside: Vec<(PatVar, FragKind)>) -> Vec<(PatVar, FragKind)> {
        let mut theta: BTreeSet<PatVar> = outside.iter().map(|o| o.0.clone()).collect();
        let read = self.occurrences.iter().filter(|o| o.2 != Reading::InStmt);
        theta.extend(read.map(|o| o.0.clone()));
        let mut occurrences = self.occurrences;
        occurrences.retain(|o| theta.contains(&o.0));
        outside.extend(occurrences.into_iter().map(|(p, kind, _)| (p, kind)));
        outside
    }
}

/// The pattern-variable occurrences of one atom, nested ones included.
fn atom_vars(atom: &Guard, out: &mut Vec<(PatVar, FragKind)>) {
    match atom {
        Guard::Stmt(pat) => pat.vars(out),
        Guard::Label(_, args) => args.iter().for_each(|a| a.vars(out)),
        Guard::SyntacticDef(v) | Guard::SyntacticUse(v) => v.vars(out),
        Guard::Unchanged(e) => e.vars(out),
        Guard::ConstEq(a, b) => {
            a.vars(out);
            b.vars(out);
        }
        Guard::VarEq(a, b) => {
            a.vars(out);
            b.vars(out);
        }
        Guard::True
        | Guard::False
        | Guard::Not(_)
        | Guard::And(_)
        | Guard::Or(_)
        | Guard::CaseStmt { .. } => {}
    }
}

/// The fragments [`Guard::solve`] enumerates pattern variables over, each
/// kind in order of first occurrence: a [`Domain`] holds all three, the
/// engine's prepared procedure lists each on its first enumeration.
pub trait Fragments: fmt::Debug {
    /// The variables, the parameter included.
    fn vars(&self) -> &[Var];
    /// The constants.
    fn consts(&self) -> &[i64];
    /// The distinct right-hand-side expressions.
    fn exprs(&self) -> &[Expr];
}

/// The finite instantiation domain of a procedure: the fragments pattern
/// variables may range over (paper §2.1.1: "pattern variables may be
/// instantiated with any variables / constants of the procedure").
#[derive(Debug, Clone, Default)]
pub struct Domain {
    /// The procedure's variables (including the parameter).
    pub vars: Vec<Var>,
    /// The constants appearing in the procedure.
    pub consts: Vec<i64>,
    /// The right-hand-side expressions appearing in the procedure.
    pub exprs: Vec<Expr>,
}

impl Domain {
    /// Builds the domain of a procedure. Each fragment list is in order
    /// of first occurrence, which is the order `solve` enumerates in.
    pub fn of_proc(proc: &Proc) -> Self {
        Domain {
            vars: proc.variables(),
            consts: proc.constants(),
            exprs: proc.expressions(),
        }
    }
}

impl Fragments for Domain {
    fn vars(&self) -> &[Var] {
        &self.vars
    }

    fn consts(&self) -> &[i64] {
        &self.consts
    }

    fn exprs(&self) -> &[Expr] {
        &self.exprs
    }
}

/// Everything needed to evaluate a guard at one CFG node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// The statement at the node (`currStmt`).
    pub stmt: &'a Stmt,
    /// The node's index, at which `labels` is read.
    pub node: usize,
    /// The procedure's semantic labels; the node's are `L_p(ι)`.
    pub labels: &'a dyn Labels,
    /// Label definitions in scope.
    pub env: &'a LabelEnv,
    /// The instantiation domain of the enclosing procedure.
    pub domain: &'a dyn Fragments,
}

impl Guard {
    /// Decides `ι ⊨θ ψ` for a fully binding substitution.
    ///
    /// # Errors
    ///
    /// Returns [`GuardError`] if a pattern variable needed by a label
    /// argument or equality is unbound, or label definitions recurse
    /// too deeply.
    pub fn eval(&self, ctx: &NodeCtx<'_>, theta: &Subst) -> Result<bool, GuardError> {
        self.eval_depth(ctx, theta, 0)
    }

    fn eval_depth(&self, ctx: &NodeCtx<'_>, theta: &Subst, depth: usize) -> Result<bool, GuardError> {
        check_depth(depth)?;
        match self {
            Guard::True => Ok(true),
            Guard::False => Ok(false),
            Guard::Not(g) => Ok(!g.eval_depth(ctx, theta, depth)?),
            Guard::And(gs) => {
                for g in gs {
                    if !g.eval_depth(ctx, theta, depth)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Guard::Or(gs) => {
                for g in gs {
                    if g.eval_depth(ctx, theta, depth)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Guard::Stmt(pat) => Ok(pat.try_match(ctx.stmt, theta).is_some()),
            Guard::Label(name, args) => eval_label(ctx, theta, name, args, depth),
            Guard::SyntacticDef(vp) => Ok(ctx.stmt.syntactic_def() == Some(vp.resolve(theta)?)),
            Guard::SyntacticUse(vp) => {
                let v = vp.resolve(theta)?;
                Ok(ctx.stmt.reads().any(|w| w == v))
            }
            Guard::Unchanged(ep) => {
                let e = ep.instantiate(theta)?;
                eval_unchanged(ctx, &e, depth)
            }
            Guard::ConstEq(a, b) => Ok(a.instantiate(theta)? == b.instantiate(theta)?),
            Guard::VarEq(a, b) => Ok(a.resolve(theta)? == b.resolve(theta)?),
            Guard::CaseStmt { arms, default } => {
                for (pat, g) in arms {
                    if let Some(extended) = pat.try_match(ctx.stmt, theta) {
                        return g.eval_depth(ctx, &extended, depth);
                    }
                }
                default.eval_depth(ctx, theta, depth)
            }
        }
    }

    /// Finds all substitutions extending `theta` (over the procedure's
    /// finite fragment domains) under which the guard holds at the node.
    ///
    /// Statement guards contribute bindings by matching; remaining
    /// unbound pattern variables are enumerated over the
    /// [`Domain`].
    ///
    /// # Errors
    ///
    /// Propagates label-evaluation errors.
    pub fn solve(&self, ctx: &NodeCtx<'_>, theta: &Subst) -> Result<Vec<Subst>, GuardError> {
        self.solver().solve(ctx, theta)
    }

    /// The guard prepared to be [solved](Self::solve) at many nodes.
    pub fn solver(&self) -> Solver<'_> {
        fn parts<'g>(g: &'g Guard, out: &mut Vec<(&'g Guard, Vec<(PatVar, FragKind)>)>) {
            match g {
                Guard::True | Guard::False | Guard::Stmt(_) => {}
                Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| parts(g, out)),
                other => out.push((other, other.enumerated_vars())),
            }
        }
        let mut needed = Vec::new();
        parts(self, &mut needed);
        Solver {
            guard: self,
            needed,
        }
    }
}

/// A guard prepared to be [solved](Guard::solve) at many nodes: the
/// variables each part of it enumerates, found once.
#[derive(Debug)]
pub struct Solver<'g> {
    guard: &'g Guard,
    /// Each part below `&&` and `||` that enumerates, with its variables.
    needed: Vec<(&'g Guard, Vec<(PatVar, FragKind)>)>,
}

impl<'g> Solver<'g> {
    /// [`Guard::solve`] of the prepared guard, failing as that does.
    pub fn solve(&self, ctx: &NodeCtx<'_>, theta: &Subst) -> Result<Vec<Subst>, GuardError> {
        self.solve_part(self.guard, ctx, theta)
    }

    fn solve_part(
        &self,
        g: &'g Guard,
        ctx: &NodeCtx<'_>,
        theta: &Subst,
    ) -> Result<Vec<Subst>, GuardError> {
        match g {
            Guard::True => Ok(vec![theta.clone()]),
            Guard::False => Ok(vec![]),
            Guard::And(gs) => {
                let mut acc = vec![theta.clone()];
                for g in gs {
                    let mut next = Vec::new();
                    for t in &acc {
                        next.extend(self.solve_part(g, ctx, t)?);
                    }
                    acc = next;
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(dedup(acc))
            }
            Guard::Or(gs) => {
                let mut acc = Vec::new();
                for g in gs {
                    acc.extend(self.solve_part(g, ctx, theta)?);
                }
                Ok(dedup(acc))
            }
            Guard::Stmt(pat) => Ok(pat.try_match(ctx.stmt, theta).into_iter().collect()),
            other => {
                // Enumerate the unbound pattern variables over the
                // procedure's fragment domains, then filter by `eval`.
                let (_, needed) = (self.needed.iter())
                    .find(|(part, _)| std::ptr::eq(*part, other))
                    .expect("every enumerating part is prepared");
                let mut candidates = vec![theta.clone()];
                for (p, kind) in needed.iter().filter(|(p, _)| !theta.contains(p)) {
                    let mut next = Vec::new();
                    for t in &candidates {
                        let (d, with) = (ctx.domain, |b| t.with(p, b));
                        match kind {
                            FragKind::Var => {
                                next.extend(d.vars().iter().map(|v| with(Binding::Var(v.clone()))))
                            }
                            FragKind::Const => {
                                next.extend(d.consts().iter().map(|&c| with(Binding::Const(c))))
                            }
                            FragKind::Expr => {
                                let exprs = d.exprs().iter();
                                next.extend(exprs.map(|e| with(Binding::Expr(e.clone()))))
                            }
                            FragKind::Index | FragKind::Proc => {
                                return Err(GuardError::new(
                                    "cannot enumerate index/procedure pattern variables in a guard",
                                ))
                            }
                        }
                    }
                    candidates = next;
                }
                let mut out = Vec::new();
                for t in candidates {
                    if other.eval(ctx, &t)? {
                        out.push(t);
                    }
                }
                Ok(out)
            }
        }
    }
}

fn check_depth(depth: usize) -> Result<(), GuardError> {
    if depth > MAX_LABEL_DEPTH {
        return Err(GuardError::new(
            "label definitions recurse too deeply (cyclic definition?)",
        ));
    }
    Ok(())
}

/// A label atom at `depth`: a compiled label's arms, a defined label's
/// body under its parameters bound to the arguments, or whether the node
/// carries a semantic label. Arguments are instantiated in order, and the
/// first that fails is the error, before an arity mismatch is; one
/// argument stays on the stack.
fn eval_label(
    ctx: &NodeCtx<'_>,
    theta: &Subst,
    name: &LabelName,
    args: &[LabelArgPat],
    depth: usize,
) -> Result<bool, GuardError> {
    check_depth(depth)?;
    let def = ctx.env.find(name);
    if let Some((def, compiled)) = def.filter(|d| d.0.params.len() == args.len()) {
        // A compiled label's atoms are one level deeper: at the last level
        // the walk below reports the overflow.
        if let ([LabelArgPat::Var(v)], true) = (args, *compiled && depth < MAX_LABEL_DEPTH) {
            return Ok(eval_arms(def, ctx, v.resolve(theta)?));
        }
        let mut inner = Subst::new();
        for (p, a) in def.params.iter().zip(args) {
            inner.bind(p.clone(), a.instantiate(theta)?.into());
        }
        return def.body.eval_depth(ctx, &inner, depth + 1);
    }
    let (one, many);
    let concrete = match args {
        [a] => {
            one = [a.instantiate(theta)?];
            &one[..]
        }
        _ => {
            many = args
                .iter()
                .map(|a| a.instantiate(theta))
                .collect::<Result<Vec<_>, _>>()?;
            &many[..]
        }
    };
    match def {
        Some((def, _)) => Err(GuardError::new(format!(
            "label `{name}` expects {} arguments, got {}",
            def.params.len(),
            concrete.len()
        ))),
        None => Ok(ctx.labels.holds(ctx.node, name, concrete)),
    }
}

/// The atom `name(v)` for a concrete variable `v`, evaluated at `depth`.
fn eval_label_of(ctx: &NodeCtx<'_>, name: &str, v: &Var, depth: usize) -> Result<bool, GuardError> {
    let arg = [LabelArgPat::Var(VarPat::Concrete(v.clone()))];
    eval_label(ctx, &Subst::new(), &LabelName::new(name), &arg, depth)
}

fn dedup(mut v: Vec<Subst>) -> Vec<Subst> {
    v.sort();
    v.dedup();
    v
}

/// The conservative evaluator for the `unchanged(E)` semantic primitive:
/// true only if executing the statement provably leaves `evalExpr(η, E)`
/// unchanged.
fn eval_unchanged(ctx: &NodeCtx<'_>, e: &Expr, depth: usize) -> Result<bool, GuardError> {
    // Any variable the expression reads must not be (may-)defined.
    for v in e.reads() {
        if eval_label_of(ctx, "mayDef", v, depth + 1)? {
            return Ok(false);
        }
    }
    if e.has_deref() {
        // The dereferenced target may be changed by pointer stores and
        // calls, and — the subtle case of paper §6 — by a direct
        // assignment to a variable whose address has been taken.
        match ctx.stmt {
            Stmt::Assign(cobalt_il::Lhs::Deref(_), _) | Stmt::Call { .. } => return Ok(false),
            Stmt::Assign(cobalt_il::Lhs::Var(y), _) | Stmt::New(y) => {
                if !eval_label_of(ctx, "notTainted", y, depth + 1)? {
                    return Ok(false);
                }
            }
            Stmt::Decl(_) | Stmt::Skip | Stmt::If { .. } | Stmt::Return(_) => {}
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelArg, LabelInst, LabelSet};
    use crate::pattern::BasePat;
    use cobalt_il::parse_stmt;

    fn ctx_parts(stmt_src: &str) -> (Stmt, Vec<LabelSet>, LabelEnv, Domain) {
        let stmt = parse_stmt(stmt_src).unwrap();
        let labels = vec![LabelSet::new()];
        let env = LabelEnv::standard();
        let domain = Domain {
            vars: vec![Var::new("a"), Var::new("b"), Var::new("x"), Var::new("y")],
            consts: vec![0, 2, 5],
            exprs: vec![],
        };
        (stmt, labels, env, domain)
    }

    fn eval_on(guard: &Guard, stmt_src: &str, theta: &Subst) -> bool {
        let (stmt, labels, env, domain) = ctx_parts(stmt_src);
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        guard.eval(&ctx, theta).unwrap()
    }

    #[test]
    fn stmt_guard_matches() {
        let g = Guard::Stmt(StmtPat::Assign(
            lhs_var("Y"),
            ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
        ));
        assert!(eval_on(&g, "a := 2", &Subst::new()));
        assert!(!eval_on(&g, "a := b", &Subst::new()));
    }

    fn lhs_var(p: &str) -> crate::pattern::LhsPat {
        crate::pattern::LhsPat::Var(VarPat::pat(p))
    }

    #[test]
    fn may_def_conservative_on_pointer_store_and_call() {
        let y = || {
            vec![LabelArgPat::Var(VarPat::Concrete(Var::new("y")))]
        };
        let g = Guard::Label("mayDef".into(), y());
        // Pointer store may define anything (no taint info present).
        assert!(eval_on(&g, "*p := 1", &Subst::new()));
        // Calls may define anything.
        assert!(eval_on(&g, "z := f(1)", &Subst::new()));
        // Plain assignment to another variable does not define y.
        assert!(!eval_on(&g, "x := 1", &Subst::new()));
        // Assignment to y does.
        assert!(eval_on(&g, "y := 1", &Subst::new()));
        // decl y defines y.
        assert!(eval_on(&g, "decl y", &Subst::new()));
    }

    #[test]
    fn may_def_uses_taint_information_when_present() {
        let (stmt, mut labels, env, domain) = ctx_parts("*p := 1");
        labels[0].insert(LabelInst::new(
            "notTainted",
            vec![LabelArg::Var(Var::new("y"))],
        ));
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        let g = Guard::Label(
            "mayDef".into(),
            vec![LabelArgPat::Var(VarPat::Concrete(Var::new("y")))],
        );
        // With notTainted(y), a pointer store cannot define y.
        assert!(!g.eval(&ctx, &Subst::new()).unwrap());
    }

    #[test]
    fn may_use_cases() {
        let g = Guard::Label(
            "mayUse".into(),
            vec![LabelArgPat::Var(VarPat::Concrete(Var::new("y")))],
        );
        assert!(eval_on(&g, "x := y + 1", &Subst::new()));
        assert!(eval_on(&g, "return y", &Subst::new()));
        assert!(!eval_on(&g, "x := 2", &Subst::new()));
        // Reading through a pointer may read y (conservatively).
        assert!(eval_on(&g, "x := *p", &Subst::new()));
        // Calls may read y through reachable pointers.
        assert!(eval_on(&g, "x := f(1)", &Subst::new()));
        // A pointer store reads only its operands.
        assert!(!eval_on(&g, "*p := 3", &Subst::new()));
        assert!(eval_on(&g, "*y := 3", &Subst::new()));
        assert!(eval_on(&g, "*p := y", &Subst::new()));
    }

    #[test]
    fn case_stmt_arm_binding() {
        // case currStmt of X := P(Z) ↦ X = Y else ↦ false
        let g = Guard::CaseStmt {
            arms: vec![(
                StmtPat::Call {
                    dst: VarPat::pat("X"),
                    proc: crate::pattern::ProcPat::Pat("P".into()),
                    arg: BasePat::Var(VarPat::pat("Z")),
                },
                Guard::VarEq(VarPat::pat("X"), VarPat::pat("Y")),
            )],
            default: Box::new(Guard::False),
        };
        let mut theta = Subst::new();
        theta.bind("Y".into(), Binding::Var(Var::new("x")));
        assert!(eval_on(&g, "x := f(y)", &theta));
        assert!(!eval_on(&g, "z := f(y)", &theta));
        assert!(!eval_on(&g, "skip", &theta));
    }

    #[test]
    fn solve_binds_from_stmt_pattern() {
        let g = Guard::Stmt(StmtPat::Assign(
            lhs_var("Y"),
            ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
        ));
        let (stmt, labels, env, domain) = ctx_parts("a := 2");
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        let sols = g.solve(&ctx, &Subst::new()).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].to_string(), "[C ↦ 2, Y ↦ a]");
    }

    #[test]
    fn solve_enumerates_unbound_label_arguments() {
        // ¬mayUse(X) at `return y`: every domain variable except y.
        let g = Guard::not_label(
            "mayUse",
            vec![LabelArgPat::Var(VarPat::pat("X"))],
        );
        let (stmt, labels, env, domain) = ctx_parts("return y");
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        let sols = g.solve(&ctx, &Subst::new()).unwrap();
        let bound: Vec<String> = sols
            .iter()
            .map(|s| s.get(&"X".into()).unwrap().to_string())
            .collect();
        assert_eq!(bound, ["a", "b", "x"]);
    }

    #[test]
    fn solve_conjunction_threads_bindings() {
        // stmt(Y := C) ∧ ¬(C = 0)
        let g = Guard::and([
            Guard::Stmt(StmtPat::Assign(
                lhs_var("Y"),
                ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
            )),
            Guard::ConstEq(ConstPat::pat("C"), ConstPat::Concrete(0)).negate(),
        ]);
        let (stmt, labels, env, domain) = ctx_parts("a := 2");
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        assert_eq!(g.solve(&ctx, &Subst::new()).unwrap().len(), 1);
        let (stmt0, labels, env, domain) = ctx_parts("a := 0");
        let ctx0 = NodeCtx {
            stmt: &stmt0,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        assert!(g.solve(&ctx0, &Subst::new()).unwrap().is_empty());
    }

    #[test]
    fn solve_enumerates_a_repeated_variable_once() {
        // l(X, Y, X): X repeats with Y between. Each solution comes back
        // once, not once per domain variable.
        let x = || LabelArgPat::Var(VarPat::pat("X"));
        let g = Guard::Label(
            "l".into(),
            vec![x(), LabelArgPat::Var(VarPat::pat("Y")), x()],
        );
        let (stmt, mut labels, env, domain) = ctx_parts("skip");
        let [a, b] = [Var::new("a"), Var::new("b")].map(LabelArg::Var);
        labels[0].insert(LabelInst::new("l", vec![a.clone(), b, a]));
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        let sols = g.solve(&ctx, &Subst::new()).unwrap();
        let shown: Vec<String> = sols.iter().map(Subst::to_string).collect();
        assert_eq!(shown, ["[X ↦ a, Y ↦ b]"]);
    }

    #[test]
    fn enumerated_vars_are_deep_first_occurrences_outside_statements() {
        let g = Guard::and([
            Guard::Stmt(StmtPat::assign_pats("Z", "E")),
            Guard::Unchanged(ExprPat::Deref(VarPat::pat("P"))),
            Guard::Label(
                "l".into(),
                vec![
                    LabelArgPat::Var(VarPat::pat("X")),
                    LabelArgPat::Const(ConstPat::pat("C")),
                    LabelArgPat::Var(VarPat::pat("X")),
                ],
            ),
            Guard::CaseStmt {
                arms: vec![(
                    StmtPat::Decl(VarPat::pat("D")),
                    Guard::SyntacticUse(VarPat::pat("P")),
                )],
                default: Box::new(Guard::VarEq(VarPat::pat("W"), VarPat::pat("X"))),
            }
            .negate(),
        ]);
        let vars: Vec<String> = g
            .enumerated_vars()
            .iter()
            .map(|(p, kind)| format!("{p}:{kind:?}"))
            .collect();
        assert_eq!(vars, ["P:Var", "X:Var", "C:Const", "W:Var"]);
        let binding: Vec<String> = g.binding_stmts().iter().map(|s| s.to_string()).collect();
        assert_eq!(binding, ["Z := E"]);
    }

    #[test]
    fn guard_vars_sort_by_the_binding_discipline() {
        let opt = crate::parse_optimization(
            "forward t { stmt(Y := C) && !stmt(Y := 0)
                 followed by !stmt(*$Q := ...) && !mayDef(Y) && !stmt(... := *P)
                 until X := P => X := C with witness eta(Y) == C }",
        )
        .unwrap();
        let crate::GuardSpec::Region(rg) = &opt.pattern.guard else {
            unreachable!("a region rule")
        };
        let vars = GuardVars::of_rule([(&rg.psi1, true), (&rg.psi2, false)]);
        let shown: Vec<String> = (vars.occurrences.iter())
            .map(|(p, _, reading)| format!("{p}:{reading:?}"))
            .collect();
        assert_eq!(
            shown,
            [
                "Y:Matched",
                "C:Matched",
                "Y:InStmt",
                "$Q:InStmt",
                "Y:Read",
                "P:InStmt"
            ]
        );
        // `from` names P, so it is θ's; `$Q` is local to its pattern.
        let theta = |outside: &[&str]| -> Vec<String> {
            let outside = outside
                .iter()
                .map(|p| (PatVar::from(*p), FragKind::Var))
                .collect();
            let theta = vars.clone().theta(outside);
            theta.iter().map(|(p, _)| p.to_string()).collect()
        };
        assert_eq!(theta(&["P"]), ["P", "Y", "C", "Y", "Y", "P"]);
        assert_eq!(theta(&[]), ["Y", "C", "Y", "Y"]);
    }

    #[test]
    fn unchanged_primitive() {
        let e = |src: &str| crate::pattern::ExprPat::Pat("E".into()).instantiate(&{
            let mut t = Subst::new();
            t.bind("E".into(), Binding::Expr(cobalt_il::parse_expr(src).unwrap()));
            t
        });
        let _ = e; // exercised below via Guard::Unchanged
        let mk = |src: &str| {
            let mut t = Subst::new();
            t.bind(
                "E".into(),
                Binding::Expr(cobalt_il::parse_expr(src).unwrap()),
            );
            (Guard::Unchanged(ExprPat::Pat("E".into())), t)
        };
        // a + b unchanged by x := 1 but not by a := 1.
        let (g, t) = mk("a + b");
        assert!(eval_on(&g, "x := 1", &t));
        assert!(!eval_on(&g, "a := 1", &t));
        // Pointer stores and calls clobber everything conservatively.
        assert!(!eval_on(&g, "*p := 1", &t));
        assert!(!eval_on(&g, "x := f(1)", &t));
        // Loads are invalidated by direct assignment to a (possibly
        // pointed-to) variable — the paper §6 corner case.
        let (g2, t2) = mk("*p");
        assert!(!eval_on(&g2, "y := 1", &t2)); // y may be pointed to
        assert!(eval_on(&g2, "skip", &t2));
    }

    #[test]
    fn cyclic_label_definition_errors() {
        let mut env = LabelEnv::new();
        env.define(crate::label::LabelDef {
            name: "loopy".into(),
            params: vec!["X".into()],
            body: Guard::Label("loopy".into(), vec![LabelArgPat::Var(VarPat::pat("X"))]),
        });
        let stmt = parse_stmt("skip").unwrap();
        let labels = vec![LabelSet::new()];
        let domain = Domain::default();
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        let g = Guard::Label(
            "loopy".into(),
            vec![LabelArgPat::Var(VarPat::Concrete(Var::new("a")))],
        );
        assert!(g.eval(&ctx, &Subst::new()).is_err());
    }

    #[test]
    fn domain_of_proc() {
        let prog = cobalt_il::parse_program(
            "proc main(x) { decl y; y := 5; y := x + 2; return y; }",
        )
        .unwrap();
        let d = Domain::of_proc(prog.main().unwrap());
        assert_eq!(d.vars.len(), 2);
        assert_eq!(d.consts, vec![5, 2]);
        assert_eq!(d.exprs.len(), 2);
    }

    #[test]
    fn and_helper_is_total_over_every_arity() {
        assert_eq!(Guard::and([]), Guard::True);
        assert_eq!(Guard::and([Guard::False]), Guard::False);
        assert_eq!(
            Guard::and([Guard::True, Guard::False]),
            Guard::And(vec![Guard::True, Guard::False])
        );
    }

    #[test]
    fn or_helper_is_total_over_every_arity() {
        assert_eq!(Guard::or([]), Guard::False);
        assert_eq!(Guard::or([Guard::True]), Guard::True);
        assert_eq!(
            Guard::or([Guard::False, Guard::True]),
            Guard::Or(vec![Guard::False, Guard::True])
        );
    }
}
