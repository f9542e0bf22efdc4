//! Compilation of guards `ψ` and witnesses `P` into logic formulas over
//! symbolic statement shapes.
//!
//! This is the analogue of the paper's "optimization-dependent axioms…
//! generated automatically from the Cobalt label definitions" (§5.1):
//! label definitions are expanded definitionally against the shape
//! (their `case` arms select on the shape's statement constructor), the
//! syntactic primitives become equations between the shape's skolems
//! and the pattern-variable constants, and semantic labels become their
//! verified witness meanings. A forward obligation refuses a semantic
//! label that has no meaning; a backward one reads every semantic label
//! as false (footnote 5: backward rules see no forward-analysis labels).

use crate::enc::{bound, ArgShape, Bind, Enc, RhsShape, Shape, SymState, TaintMode};
use crate::error::VerifyError;
use cobalt_dsl::{
    BackwardWitness, BasePat, ConstPat, ExprPat, ForwardWitness, Guard, IdxPat, LabelArgPat,
    LhsPat, ProcPat, StmtPat, VarPat,
};
use cobalt_logic::{Formula, TermId};

const MAX_DEPTH: usize = 32;

/// The context a guard is encoded against: the statement shape, the
/// primary pre-state, and the execution step pairs (one for forward
/// obligations, two for backward lockstep obligations).
#[derive(Debug, Clone)]
pub struct GuardCtx<'b> {
    /// The statement shape at the node.
    pub shape: &'b Shape,
    /// The primary pre-state (used for semantic label meanings).
    pub st: SymState,
    /// Pre/post state pairs, for the `unchanged` primitive.
    pub steps: Vec<(SymState, SymState)>,
}

impl Enc<'_> {
    /// Encodes `ψ` (or `¬ψ` when `negated`) at the shape. The variables
    /// it makes definitely `notPointedTo`, which call frame conditions
    /// need, come from [`definite_taints`](Self::definite_taints).
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for constructs outside the
    /// encodable fragment (see module docs).
    pub fn encode_guard(
        &mut self,
        g: &Guard,
        ctx: &GuardCtx<'_>,
        bind: &Bind,
        negated: bool,
    ) -> Result<Formula, VerifyError> {
        self.encode_guard_depth(g, ctx, bind, negated, 0)
    }

    fn encode_guard_depth(
        &mut self,
        g: &Guard,
        ctx: &GuardCtx<'_>,
        bind: &Bind,
        negated: bool,
        depth: usize,
    ) -> Result<Formula, VerifyError> {
        if depth > MAX_DEPTH {
            return Err(VerifyError::Unsupported(
                "label definitions recurse too deeply".into(),
            ));
        }
        Ok(match g {
            Guard::True => polarize(Formula::True, negated),
            Guard::False => polarize(Formula::False, negated),
            Guard::Not(inner) => self.encode_guard_depth(inner, ctx, bind, !negated, depth)?,
            Guard::And(gs) => {
                let mut parts = Vec::new();
                for g in gs {
                    parts.push(self.encode_guard_depth(g, ctx, bind, negated, depth)?);
                }
                if negated {
                    Formula::or(parts)
                } else {
                    Formula::and(parts)
                }
            }
            Guard::Or(gs) => {
                let mut parts = Vec::new();
                for g in gs {
                    parts.push(self.encode_guard_depth(g, ctx, bind, negated, depth)?);
                }
                if negated {
                    Formula::and(parts)
                } else {
                    Formula::or(parts)
                }
            }
            // A variable `bind` lacks is local to the pattern (the
            // vocabulary leaves it out, `GuardVars::theta`): matching
            // binds it to the shape's part, as `Guard::eval` matches it
            // afresh.
            Guard::Stmt(pat) => match self.match_stmt_shape(pat, ctx.shape, bind)? {
                None => polarize(Formula::False, negated),
                Some((_, conds)) => polarize(Formula::and(conds), negated),
            },
            Guard::Label(name, args) => {
                if let Some(def) = self.label_defs().lookup(name) {
                    if def.params.len() != args.len() {
                        return Err(VerifyError::Unsupported(format!(
                            "label `{name}` arity mismatch"
                        )));
                    }
                    let mut inner = Bind::new();
                    for (p, a) in def.params.iter().zip(args) {
                        let t = self.label_arg_term(a, bind)?;
                        inner.insert(p.clone(), t);
                    }
                    self.encode_guard_depth(&def.body, ctx, &inner, negated, depth + 1)?
                } else {
                    // Semantic label.
                    match self.taint_mode() {
                        TaintMode::AbsentFalse => polarize(Formula::False, negated),
                        TaintMode::Semantic => {
                            let Some((params, witness)) = self.meanings().lookup(name) else {
                                return Err(VerifyError::Unsupported(format!(
                                    "semantic label `{name}` has no verified meaning (verify \
                                     the analysis that defines it before the rules that use it)"
                                )));
                            };
                            if params.len() != args.len() {
                                return Err(VerifyError::Unsupported(format!(
                                    "semantic label `{name}` arity mismatch"
                                )));
                            }
                            let mut inner = Bind::new();
                            for (p, a) in params.iter().zip(args) {
                                let t = self.label_arg_term(a, bind)?;
                                inner.insert(p.clone(), t);
                            }
                            let f = self.fwd_witness(witness, &ctx.st, &inner)?;
                            polarize(f, negated)
                        }
                    }
                }
            }
            Guard::SyntacticDef(vp) => {
                let tv = self.var_pat_term(vp, bind)?;
                let f = match ctx.shape {
                    Shape::Decl(w)
                    | Shape::AssignVar(w, _)
                    | Shape::New(w)
                    | Shape::Call { dst: w, .. } => Formula::Eq(tv, *w),
                    Shape::Skip
                    | Shape::AssignDeref(_, _)
                    | Shape::If { .. }
                    | Shape::Return(_) => Formula::False,
                };
                polarize(f, negated)
            }
            Guard::SyntacticUse(vp) => {
                let tv = self.var_pat_term(vp, bind)?;
                let reads = self.shape_reads(ctx.shape)?;
                let f = Formula::or(reads.into_iter().map(|r| Formula::Eq(tv, r)));
                polarize(f, negated)
            }
            Guard::Unchanged(ep) => {
                let mut parts = Vec::new();
                // Semantic content: evalExpr is preserved across each
                // execution's step.
                let e = self.expr_pat_term(ep, bind)?;
                for (pre, post) in &ctx.steps {
                    let before = self.eval_e(pre, e);
                    let after = self.eval_e(post, e);
                    parts.push(Formula::Eq(after, before));
                }
                // For structural expressions, the conditions the engine
                // evaluator actually checks (which the semantic equation
                // follows from) are encoded too — they are what makes
                // the witness preservation provable.
                if !matches!(ep, ExprPat::Pat(_)) {
                    let reads: Vec<&VarPat> = match ep {
                        ExprPat::Base(BasePat::Var(v)) | ExprPat::Deref(v) => vec![v],
                        ExprPat::Op(_, args) => args
                            .iter()
                            .filter_map(|a| match a {
                                BasePat::Var(v) => Some(v),
                                BasePat::Const(_) => None,
                            })
                            .collect(),
                        _ => vec![],
                    };
                    for v in reads {
                        let g = Guard::not_label(
                            "mayDef",
                            vec![LabelArgPat::Var(v.clone())],
                        );
                        parts.push(self.encode_guard_depth(&g, ctx, bind, false, depth + 1)?);
                    }
                    if matches!(ep, ExprPat::Deref(_)) {
                        match ctx.shape {
                            Shape::AssignDeref(_, _) | Shape::Call { .. } => {
                                parts.push(Formula::False);
                            }
                            Shape::AssignVar(w, _) | Shape::New(w) => {
                                // The assigned variable must be
                                // unaliased (the paper §6 corner case).
                                let f = self.not_pointed_to_term(*w, &ctx.st);
                                parts.push(match self.taint_mode() {
                                    TaintMode::AbsentFalse => Formula::False,
                                    TaintMode::Semantic => f,
                                });
                            }
                            Shape::Decl(_)
                            | Shape::Skip
                            | Shape::If { .. }
                            | Shape::Return(_) => {}
                        }
                    }
                }
                polarize(Formula::and(parts), negated)
            }
            Guard::ConstEq(a, b) => {
                let ta = self.const_pat_term(a, bind)?;
                let tb = self.const_pat_term(b, bind)?;
                polarize(Formula::Eq(ta, tb), negated)
            }
            Guard::VarEq(a, b) => {
                let ta = self.var_pat_term(a, bind)?;
                let tb = self.var_pat_term(b, bind)?;
                polarize(Formula::Eq(ta, tb), negated)
            }
            Guard::CaseStmt { arms, default } => {
                for (pat, arm_guard) in arms {
                    match self.match_stmt_shape(pat, ctx.shape, bind)? {
                        None => continue,
                        Some((newbind, conds)) => {
                            if !conds.is_empty() {
                                return Err(VerifyError::Unsupported(
                                    "conditionally matching case arm (arm selection must be \
                                     structural)"
                                        .into(),
                                ));
                            }
                            return self
                                .encode_guard_depth(arm_guard, ctx, &newbind, negated, depth);
                        }
                    }
                }
                self.encode_guard_depth(default, ctx, bind, negated, depth)?
            }
        })
    }

    /// Collects the variable terms that are definitely `notPointedTo`
    /// whenever the guard holds — a lightweight pre-pass used before
    /// stepping call shapes (frame conditions need the taints, and the
    /// full guard encoding needs the post-state).
    pub fn definite_taints(
        &mut self,
        g: &Guard,
        shape: &Shape,
        bind: &Bind,
    ) -> Result<Vec<TermId>, VerifyError> {
        self.definite_taints_depth(g, shape, bind, false, 0)
    }

    fn definite_taints_depth(
        &mut self,
        g: &Guard,
        shape: &Shape,
        bind: &Bind,
        negated: bool,
        depth: usize,
    ) -> Result<Vec<TermId>, VerifyError> {
        if depth > MAX_DEPTH {
            return Err(VerifyError::Unsupported(
                "label definitions recurse too deeply".into(),
            ));
        }
        Ok(match g {
            Guard::Not(inner) => {
                self.definite_taints_depth(inner, shape, bind, !negated, depth)?
            }
            Guard::And(gs) if !negated => {
                let mut out = Vec::new();
                for g in gs {
                    out.extend(self.definite_taints_depth(g, shape, bind, false, depth)?);
                }
                out
            }
            Guard::Or(gs) if negated => {
                let mut out = Vec::new();
                for g in gs {
                    out.extend(self.definite_taints_depth(g, shape, bind, true, depth)?);
                }
                out
            }
            Guard::Label(name, args) => {
                if let Some(def) = self.label_defs().lookup(name) {
                    if def.params.len() != args.len() {
                        return Err(VerifyError::Unsupported(format!(
                            "label `{name}` arity mismatch"
                        )));
                    }
                    let mut inner = Bind::new();
                    for (p, a) in def.params.iter().zip(args) {
                        let t = self.label_arg_term(a, bind)?;
                        inner.insert(p.clone(), t);
                    }
                    self.definite_taints_depth(&def.body, shape, &inner, negated, depth + 1)?
                } else if !negated && self.taint_mode() == TaintMode::Semantic {
                    if let Some((params, ForwardWitness::NotPointedTo(VarPat::Pat(p)))) =
                        self.meanings().lookup(name)
                    {
                        let pos = params.iter().position(|q| q == p);
                        match pos.and_then(|i| args.get(i)) {
                            Some(a) => vec![self.label_arg_term(a, bind)?],
                            None => vec![],
                        }
                    } else {
                        vec![]
                    }
                } else {
                    vec![]
                }
            }
            Guard::CaseStmt { arms, default } => {
                for (pat, arm_guard) in arms {
                    match self.match_stmt_shape(pat, shape, bind)? {
                        None => continue,
                        Some((newbind, conds)) => {
                            if !conds.is_empty() {
                                return Err(VerifyError::Unsupported(
                                    "conditionally matching case arm".into(),
                                ));
                            }
                            return self.definite_taints_depth(
                                arm_guard, shape, &newbind, negated, depth,
                            );
                        }
                    }
                }
                self.definite_taints_depth(default, shape, bind, negated, depth)?
            }
            _ => vec![],
        })
    }

    /// Structurally matches a statement pattern against a shape.
    ///
    /// `Ok(None)` means the constructors cannot match; `Ok(Some((bind',
    /// conds)))` means the pattern matches when all equations in
    /// `conds` hold, with arm-local pattern variables bound in `bind'`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for patterns outside the
    /// encodable fragment.
    pub fn match_stmt_shape(
        &mut self,
        pat: &StmtPat,
        shape: &Shape,
        bind: &Bind,
    ) -> Result<Option<(Bind, Vec<Formula>)>, VerifyError> {
        let mut b = bind.clone();
        let mut conds = Vec::new();
        let ok = self.match_stmt_inner(pat, shape, &mut b, &mut conds)?;
        Ok(if ok { Some((b, conds)) } else { None })
    }

    fn bind_var(
        &mut self,
        vp: &VarPat,
        term: TermId,
        bind: &mut Bind,
        conds: &mut Vec<Formula>,
    ) -> Result<(), VerifyError> {
        match vp {
            VarPat::Pat(p) => match bind.get(p) {
                Some(&t) => conds.push(Formula::Eq(t, term)),
                None => {
                    bind.insert(p.clone(), term);
                }
            },
            VarPat::Concrete(name) => {
                let t = self.concrete_var_term(name.as_str());
                conds.push(Formula::Eq(t, term));
            }
        }
        Ok(())
    }

    fn bind_const(
        &mut self,
        cp: &ConstPat,
        term: TermId,
        bind: &mut Bind,
        conds: &mut Vec<Formula>,
    ) {
        match cp {
            ConstPat::Pat(p) => match bind.get(p) {
                Some(&t) => conds.push(Formula::Eq(t, term)),
                None => {
                    bind.insert(p.clone(), term);
                }
            },
            ConstPat::Concrete(n) => {
                let lit = self.s.bank.int(*n);
                conds.push(Formula::Eq(lit, term));
            }
        }
    }

    fn match_arg(
        &mut self,
        pat: &BasePat,
        arg: &ArgShape,
        bind: &mut Bind,
        conds: &mut Vec<Formula>,
    ) -> Result<bool, VerifyError> {
        match (pat, arg) {
            (BasePat::Var(vp), ArgShape::Var(u)) => {
                self.bind_var(vp, *u, bind, conds)?;
                Ok(true)
            }
            (BasePat::Const(cp), ArgShape::Const(k)) => {
                self.bind_const(cp, *k, bind, conds);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn match_rhs(
        &mut self,
        pat: &ExprPat,
        rhs: &RhsShape,
        bind: &mut Bind,
        conds: &mut Vec<Formula>,
    ) -> Result<bool, VerifyError> {
        match (pat, rhs) {
            (ExprPat::Any, _) => Ok(true),
            (ExprPat::Pat(p), _) => {
                if matches!(rhs, RhsShape::FoldOf(_)) {
                    return Ok(false);
                }
                let et = self.rhs_expr_term(rhs);
                match bind.get(p) {
                    Some(&t) => conds.push(Formula::Eq(t, et)),
                    None => {
                        bind.insert(p.clone(), et);
                    }
                }
                Ok(true)
            }
            (ExprPat::Base(BasePat::Var(vp)), RhsShape::Var(u)) => {
                self.bind_var(vp, *u, bind, conds)?;
                Ok(true)
            }
            (ExprPat::Base(BasePat::Const(cp)), RhsShape::Const(k)) => {
                self.bind_const(cp, *k, bind, conds);
                Ok(true)
            }
            (ExprPat::Deref(vp), RhsShape::Deref(u))
            | (ExprPat::AddrOf(vp), RhsShape::AddrOf(u)) => {
                self.bind_var(vp, *u, bind, conds)?;
                Ok(true)
            }
            (ExprPat::Op(kind, pats), RhsShape::Op(o, args)) => {
                if pats.len() != args.len() {
                    return Ok(false);
                }
                let kt = self.op_kind_term(*kind);
                conds.push(Formula::Eq(kt, *o));
                for (p, a) in pats.iter().zip(args) {
                    if !self.match_arg(p, a, bind, conds)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (ExprPat::Fold(_), _) => Ok(false),
            _ => Ok(false),
        }
    }

    fn match_stmt_inner(
        &mut self,
        pat: &StmtPat,
        shape: &Shape,
        bind: &mut Bind,
        conds: &mut Vec<Formula>,
    ) -> Result<bool, VerifyError> {
        match (pat, shape) {
            (StmtPat::Any, _) => Ok(true),
            (StmtPat::Skip, Shape::Skip) => Ok(true),
            (StmtPat::Decl(vp), Shape::Decl(w)) | (StmtPat::New(vp), Shape::New(w)) => {
                self.bind_var(vp, *w, bind, conds)?;
                Ok(true)
            }
            (StmtPat::Assign(lhs, ep), Shape::AssignVar(w, rhs)) => {
                match lhs {
                    LhsPat::Var(vp) => self.bind_var(vp, *w, bind, conds)?,
                    LhsPat::Any => {}
                    LhsPat::Deref(_) => return Ok(false),
                }
                self.match_rhs(ep, rhs, bind, conds)
            }
            (StmtPat::Assign(lhs, ep), Shape::AssignDeref(w, rhs)) => {
                match lhs {
                    LhsPat::Deref(vp) => self.bind_var(vp, *w, bind, conds)?,
                    LhsPat::Any => {}
                    LhsPat::Var(_) => return Ok(false),
                }
                self.match_rhs(ep, rhs, bind, conds)
            }
            (
                StmtPat::Call { dst, proc, arg },
                Shape::Call {
                    dst: d,
                    proc: f,
                    arg: a,
                },
            ) => {
                self.bind_var(dst, *d, bind, conds)?;
                match proc {
                    ProcPat::Pat(p) => match bind.get(p) {
                        Some(&t) => conds.push(Formula::Eq(t, *f)),
                        None => {
                            bind.insert(p.clone(), *f);
                        }
                    },
                    ProcPat::Concrete(name) => {
                        let t = self.s.bank.app0(&format!("proc${name}"));
                        conds.push(Formula::Eq(t, *f));
                    }
                }
                self.match_arg(arg, a, bind, conds)
            }
            (
                StmtPat::If {
                    cond,
                    then_target,
                    else_target,
                },
                Shape::If { cond: c, t1, t2 },
            ) => {
                if !self.match_arg(cond, c, bind, conds)? {
                    return Ok(false);
                }
                for (ip, t) in [(then_target, t1), (else_target, t2)] {
                    match ip {
                        IdxPat::Pat(p) => match bind.get(p) {
                            Some(&b) => conds.push(Formula::Eq(b, *t)),
                            None => {
                                bind.insert(p.clone(), *t);
                            }
                        },
                        IdxPat::Concrete(n) => {
                            let lit = self.s.bank.int(*n as i64);
                            conds.push(Formula::Eq(lit, *t));
                        }
                    }
                }
                Ok(true)
            }
            (StmtPat::Return(vp), Shape::Return(u)) => {
                self.bind_var(vp, *u, bind, conds)?;
                Ok(true)
            }
            (StmtPat::ReturnAny, Shape::Return(_)) => Ok(true),
            _ => Ok(false),
        }
    }

    /// The variable terms whose *contents* the shape reads.
    pub fn shape_reads(&mut self, shape: &Shape) -> Result<Vec<TermId>, VerifyError> {
        let rhs_reads = |rhs: &RhsShape| -> Result<Vec<TermId>, VerifyError> {
            Ok(match rhs {
                RhsShape::Var(u) | RhsShape::Deref(u) => vec![*u],
                RhsShape::Const(_) | RhsShape::AddrOf(_) => vec![],
                RhsShape::Op(_, args) => args
                    .iter()
                    .filter_map(|a| match a {
                        ArgShape::Var(u) => Some(*u),
                        ArgShape::Const(_) => None,
                    })
                    .collect(),
                RhsShape::Opaque(_) | RhsShape::FoldOf(_) => {
                    return Err(VerifyError::Unsupported(
                        "syntactic use of an opaque expression".into(),
                    ))
                }
            })
        };
        Ok(match shape {
            Shape::Decl(_) | Shape::Skip | Shape::New(_) => vec![],
            Shape::AssignVar(_, rhs) => rhs_reads(rhs)?,
            Shape::AssignDeref(w, rhs) => {
                let mut r = vec![*w];
                r.extend(rhs_reads(rhs)?);
                r
            }
            Shape::Call { arg, .. } => match arg {
                ArgShape::Var(u) => vec![*u],
                ArgShape::Const(_) => vec![],
            },
            Shape::If { cond, .. } => match cond {
                ArgShape::Var(u) => vec![*u],
                ArgShape::Const(_) => vec![],
            },
            Shape::Return(u) => vec![*u],
        })
    }

    /// Encodes a forward witness `P(η)` at a state.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for unencodable forms.
    pub fn fwd_witness(
        &mut self,
        w: &ForwardWitness,
        st: &SymState,
        bind: &Bind,
    ) -> Result<Formula, VerifyError> {
        Ok(match w {
            ForwardWitness::True => Formula::True,
            ForwardWitness::VarEqConst(x, c) => {
                let xt = self.var_pat_term(x, bind)?;
                let ct = self.const_pat_term(c, bind)?;
                let v = self.val(st, xt);
                let iv = self.intval(ct);
                Formula::Eq(v, iv)
            }
            ForwardWitness::VarEqVar(x, y) => {
                let xt = self.var_pat_term(x, bind)?;
                let yt = self.var_pat_term(y, bind)?;
                let vx = self.val(st, xt);
                let vy = self.val(st, yt);
                Formula::Eq(vx, vy)
            }
            ForwardWitness::VarEqExpr(x, ep) => {
                let xt = self.var_pat_term(x, bind)?;
                let vx = self.val(st, xt);
                match ep {
                    ExprPat::Pat(p) => {
                        let e = bound(bind, p)?;
                        let ev = self.eval_e(st, e);
                        Formula::Eq(vx, ev)
                    }
                    ExprPat::Base(BasePat::Var(y)) => {
                        let yt = self.var_pat_term(y, bind)?;
                        let vy = self.val(st, yt);
                        Formula::Eq(vx, vy)
                    }
                    ExprPat::Base(BasePat::Const(c)) => {
                        let ct = self.const_pat_term(c, bind)?;
                        let iv = self.intval(ct);
                        Formula::Eq(vx, iv)
                    }
                    ExprPat::AddrOf(p) => {
                        let pt = self.var_pat_term(p, bind)?;
                        let l = self.loc(st, pt);
                        let lv = self.locval(l);
                        Formula::Eq(vx, lv)
                    }
                    ExprPat::Deref(p) => {
                        // η(X) = η(*P): P holds a location whose content
                        // equals X's value. Encoded with the locOf
                        // extractor to stay quantifier-free.
                        let pt = self.var_pat_term(p, bind)?;
                        let pv = self.val(st, pt);
                        let il = self.app("isloc", vec![pv]);
                        let lof = self.app("locOf", vec![pv]);
                        let target = self.s.select(st.store, lof);
                        // Inverse construction: a location value is the
                        // locval of its extractor image.
                        let lv = self.locval(lof);
                        self.extra.push(Formula::implies(
                            Formula::Holds(il),
                            Formula::Eq(pv, lv),
                        ));
                        // Bridge evalE over *P to its structural value,
                        // so `unchanged(*P)` hypotheses connect states.
                        let et = self.expr_pat_term(ep, bind)?;
                        let ev = self.eval_e(st, et);
                        self.extra.push(Formula::Eq(ev, target));
                        Formula::and([Formula::Holds(il), Formula::Eq(vx, target)])
                    }
                    // A rule's own witness is refused up front
                    // (`ForwardWitness::unencodable_exprs`); a registered
                    // semantic-label meaning is not.
                    other => {
                        return Err(VerifyError::Unsupported(format!(
                            "witness expression form `{other}`"
                        )))
                    }
                }
            }
            ForwardWitness::NotPointedTo(x) => {
                let xt = self.var_pat_term(x, bind)?;
                let l = self.loc(st, xt);
                let lv = self.locval(l);
                self.forall_store(st.store, |_, sel| Formula::ne(sel, lv))
            }
            ForwardWitness::And(ws) => {
                let mut parts = Vec::new();
                for w in ws {
                    parts.push(self.fwd_witness(w, st, bind)?);
                }
                Formula::and(parts)
            }
        })
    }

    /// The `notPointedTo(v, η)` formula for a variable term: no
    /// location in the store holds a pointer to `v`'s location.
    pub fn not_pointed_to_term(&mut self, v: TermId, st: &SymState) -> Formula {
        let l = self.loc(st, v);
        let lv = self.locval(l);
        self.forall_store(st.store, |_, sel| Formula::ne(sel, lv))
    }

    /// Encodes a backward witness `P(η_old, η_new)`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Unsupported`] for unencodable forms.
    pub fn bwd_witness(
        &mut self,
        w: &BackwardWitness,
        old: &SymState,
        new: &SymState,
        bind: &Bind,
    ) -> Result<Formula, VerifyError> {
        let mut parts = vec![
            Formula::Eq(old.idx, new.idx),
            Formula::Eq(old.env, new.env),
            Formula::Eq(old.alloc, new.alloc),
        ];
        match w {
            BackwardWitness::Identical => {
                parts.push(self.forall_stores2(old.store, new.store, |_, s1, s2, _| {
                    Formula::Eq(s1, s2)
                }));
            }
            BackwardWitness::AgreeExcept(x) => {
                let xt = self.var_pat_term(x, bind)?;
                let lx = self.loc(old, xt);
                parts.push(self.forall_stores2(old.store, new.store, |_, s1, s2, l| {
                    Formula::or([Formula::Eq(l, lx), Formula::Eq(s1, s2)])
                }));
            }
        }
        Ok(Formula::and(parts))
    }

    /// The goal formula "the two post-states are fully equal", used by
    /// F3 and the assignment case of B3.
    pub fn states_equal(&mut self, a: &SymState, b: &SymState) -> Formula {
        let pointwise =
            self.forall_stores2(a.store, b.store, |_, s1, s2, _| Formula::Eq(s1, s2));
        Formula::and([
            Formula::Eq(a.idx, b.idx),
            Formula::Eq(a.env, b.env),
            Formula::Eq(a.alloc, b.alloc),
            pointwise,
        ])
    }

    fn expr_pat_term(&mut self, ep: &ExprPat, bind: &Bind) -> Result<TermId, VerifyError> {
        match ep {
            ExprPat::Pat(p) => bound(bind, p),
            ExprPat::Base(BasePat::Var(vp)) => {
                let u = self.var_pat_term(vp, bind)?;
                Ok(self.app("varexpr", vec![u]))
            }
            ExprPat::Base(BasePat::Const(cp)) => {
                let k = self.const_pat_term(cp, bind)?;
                Ok(self.app("cstexpr", vec![k]))
            }
            ExprPat::Deref(vp) => {
                let u = self.var_pat_term(vp, bind)?;
                Ok(self.app("derefexpr", vec![u]))
            }
            ExprPat::AddrOf(vp) => {
                let u = self.var_pat_term(vp, bind)?;
                Ok(self.app("addrexpr", vec![u]))
            }
            other => Err(VerifyError::Unsupported(format!(
                "expression pattern `{other}` in this position"
            ))),
        }
    }

    fn label_arg_term(&mut self, a: &LabelArgPat, bind: &Bind) -> Result<TermId, VerifyError> {
        match a {
            LabelArgPat::Var(vp) => self.var_pat_term(vp, bind),
            LabelArgPat::Const(cp) => self.const_pat_term(cp, bind),
            LabelArgPat::Expr(e) => self.expr_pat_term(e, bind),
        }
    }
}

fn polarize(f: Formula, negated: bool) -> Formula {
    if negated {
        f.negate()
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enc::TaintMode;
    use crate::vocab::Kinds;
    use cobalt_dsl::{FragKind, Guard, LabelArgPat, LabelEnv};
    use cobalt_logic::{ProofTask, Solver};

    use crate::enc::SemanticMeanings;

    fn kinds_xy() -> Kinds {
        let mut k = Kinds::new();
        k.insert("Y".into(), FragKind::Var);
        k.insert("C".into(), FragKind::Const);
        k
    }

    #[test]
    fn not_maydef_on_plain_assignment_gives_disequality() {
        let mut s = Solver::new();
        let defs = LabelEnv::standard();
        let m = SemanticMeanings::standard();
        let kinds = kinds_xy();
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let w = enc.fresh_var("w");
        let k = enc.fresh("k");
        let shape = Shape::AssignVar(w, RhsShape::Const(k));
        let ctx = GuardCtx {
            shape: &shape,
            st,
            steps: vec![],
        };
        let g = Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]);
        let f = enc.encode_guard(&g, &ctx, &bind, false).unwrap();
        assert!(enc.definite_taints(&g, &shape, &bind).unwrap().is_empty());
        // ¬mayDef(Y) at `w := k` should boil down to ¬(Y = w).
        let y = bind[&"Y".into()];
        let display = f.display(&enc.s.bank);
        assert!(
            display.contains("pv$Y") && display.contains("not"),
            "{display}"
        );
        // And it should be provable that the formula implies Y ≠ w.
        let task = ProofTask {
            hypotheses: vec![f],
            goal: Formula::ne(y, w),
        };
        assert!(enc.s.prove(&task).is_proved());
    }

    #[test]
    fn not_maydef_on_pointer_store_yields_taint() {
        let mut s = Solver::new();
        let defs = LabelEnv::standard();
        let m = SemanticMeanings::standard();
        let kinds = kinds_xy();
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let w = enc.fresh_var("w");
        let u = enc.fresh_var("u");
        let shape = Shape::AssignDeref(w, RhsShape::Var(u));
        let g = Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]);
        // Taint pre-pass.
        let taints = enc.definite_taints(&g, &shape, &bind).unwrap();
        assert_eq!(taints, vec![bind[&"Y".into()]]);
        // Full encoding produces the notPointedTo meaning.
        let ctx = GuardCtx {
            shape: &shape,
            st,
            steps: vec![],
        };
        let f = enc.encode_guard(&g, &ctx, &bind, false).unwrap();
        assert!(f.display(&enc.s.bank).contains("forall"));
    }

    #[test]
    fn backward_mode_makes_pointer_store_guard_false() {
        let mut s = Solver::new();
        let defs = LabelEnv::standard();
        let m = SemanticMeanings::standard();
        let kinds = kinds_xy();
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::AbsentFalse, &kinds);
        let st = enc.init_state("a");
        let w = enc.fresh_var("w");
        let u = enc.fresh_var("u");
        let shape = Shape::AssignDeref(w, RhsShape::Var(u));
        let ctx = GuardCtx {
            shape: &shape,
            st,
            steps: vec![],
        };
        let g = Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]);
        let f = enc.encode_guard(&g, &ctx, &bind, false).unwrap();
        assert_eq!(f, Formula::False);
    }

    #[test]
    fn stmt_guard_match_and_mismatch() {
        let mut s = Solver::new();
        let defs = LabelEnv::standard();
        let m = SemanticMeanings::standard();
        let kinds = kinds_xy();
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let w = enc.fresh_var("w");
        let k = enc.fresh("k");
        let shape = Shape::AssignVar(w, RhsShape::Const(k));
        let ctx = GuardCtx {
            shape: &shape,
            st,
            steps: vec![],
        };
        // stmt(Y := C) against `w := k`: conditions Y = w ∧ C = k.
        let g = Guard::Stmt(StmtPat::Assign(
            LhsPat::Var(VarPat::pat("Y")),
            ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
        ));
        let f = enc.encode_guard(&g, &ctx, &bind, false).unwrap();
        let d = f.display(&enc.s.bank);
        assert!(d.contains("pv$Y") && d.contains("pv$C"), "{d}");
        // Against skip: statically false.
        let skip = Shape::Skip;
        let ctx2 = GuardCtx {
            shape: &skip,
            st,
            steps: vec![],
        };
        let f2 = enc.encode_guard(&g, &ctx2, &bind, false).unwrap();
        assert_eq!(f2, Formula::False);
    }

    #[test]
    fn syntactic_use_of_shape() {
        let mut s = Solver::new();
        let defs = LabelEnv::standard();
        let m = SemanticMeanings::standard();
        let kinds = kinds_xy();
        let (mut enc, bind) = Enc::new(&mut s, &defs, &m, TaintMode::Semantic, &kinds);
        let st = enc.init_state("a");
        let u1 = enc.fresh_var("u");
        let u2 = enc.fresh_var("u");
        let o = enc.fresh("op");
        let w = enc.fresh_var("w");
        let shape = Shape::AssignVar(
            w,
            RhsShape::Op(o, vec![ArgShape::Var(u1), ArgShape::Var(u2)]),
        );
        let ctx = GuardCtx {
            shape: &shape,
            st,
            steps: vec![],
        };
        let g = Guard::SyntacticUse(VarPat::pat("Y"));
        let f = enc.encode_guard(&g, &ctx, &bind, true).unwrap();
        // ¬syntacticUse(Y) = ¬(Y = u1 ∨ Y = u2).
        let d = f.display(&enc.s.bank);
        assert!(d.starts_with("(not"), "{d}");
        assert!(d.contains("pv$Y"), "{d}");
    }
}
